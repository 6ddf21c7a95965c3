//! Regenerates the checked-in regression corpus under `tests/bugbank/`.
//!
//! Each entry witnesses a real bug found (and fixed) by the oracle
//! campaign; the recorded report streams are produced by the *fixed*
//! engines, so every entry replays green today and turns red if its
//! bug ever regresses. Run from the workspace root:
//!
//! ```text
//! cargo run -p azoo-oracle --example seed_bugbank -- tests/bugbank
//! ```

use std::path::PathBuf;

use azoo_core::{Automaton, CounterMode, StartKind, SymbolClass};
use azoo_oracle::{baseline, BugbankEntry, EngineKind, EngineUnderTest};

/// Two AllInput states on the same symbol sharing a report code, one of
/// them `$`-anchored. On the final symbol the lazy DFA's per-transition
/// report list contained both `(code, false)` and `(code, true)` and
/// emitted the same `(offset, code)` twice — canonical streams must
/// dedup per cycle per code.
fn lazydfa_eod_dup() -> (Automaton, Vec<u8>) {
    let mut a = Automaton::new();
    let plain = a.add_ste(SymbolClass::from_byte(b'z'), StartKind::AllInput);
    a.set_report(plain, 0);
    let anchored = a.add_ste(SymbolClass::from_byte(b'z'), StartKind::AllInput);
    a.set_report(anchored, 0);
    a.set_report_eod_only(anchored, true);
    (a, b"zz".to_vec())
}

/// A `$`-anchored report whose final symbol arrives in a non-final
/// chunk: the end-of-data flag only shows up on a later *empty* chunk.
/// Every streaming engine used to drop the report instead of holding it
/// back and emitting it on the empty end-of-data feed.
fn empty_eod_chunk() -> (Automaton, Vec<u8>) {
    let mut a = Automaton::new();
    let classes: Vec<SymbolClass> = b"abz".iter().map(|&b| SymbolClass::from_byte(b)).collect();
    let (_, last) = a.add_chain(&classes, StartKind::AllInput);
    a.set_report(last, 7);
    a.set_report_eod_only(last, true);
    (a, b"xabz".to_vec())
}

/// A report code of `u32::MAX`. The NFA and lazy-DFA engines used the
/// same value as their internal "state does not report" sentinel and
/// silently swallowed every report.
fn max_report_code() -> (Automaton, Vec<u8>) {
    let mut a = Automaton::new();
    let s = a.add_ste(SymbolClass::from_byte(b'a'), StartKind::AllInput);
    a.set_report(s, u32::MAX);
    (a, b"za".to_vec())
}

/// A rolling counter that activates itself (oracle seed 2040): the
/// fire → self-enable → count → fire cascade looped forever inside one
/// symbol cycle. A counter samples its enable line once per cycle.
fn counter_combinational_loop() -> (Automaton, Vec<u8>) {
    let mut a = Automaton::new();
    let s = a.add_ste(SymbolClass::from_byte(b'a'), StartKind::AllInput);
    let c = a.add_counter(1, CounterMode::Roll);
    a.add_edge(s, c);
    a.add_edge(c, c);
    a.set_report(c, 5);
    (a, b"axa".to_vec())
}

fn entry(
    name: &str,
    note: &str,
    kind: EngineKind,
    a: &Automaton,
    input: &[u8],
    chunks: Option<Vec<usize>>,
) -> BugbankEntry {
    // Expected streams come from the reference engine on the whole
    // input — the bank records correct behaviour, not buggy behaviour.
    let expected = baseline(a, input);
    let entry = BugbankEntry {
        name: name.to_string(),
        engine: kind.label(),
        pass: None,
        chunks,
        expected,
        note: note.to_string(),
        automaton: a.clone(),
        input: input.to_vec(),
    };
    // Refuse to write an entry the fixed engines cannot replay.
    let mut e = EngineUnderTest::build(kind, a)
        .expect("valid automaton")
        .expect("engine applies");
    let got = match &entry.chunks {
        None => e.run_block(input),
        Some(plan) => e.run_chunks(input, plan),
    };
    assert_eq!(got, entry.expected, "{name} does not replay green");
    entry
}

fn main() {
    let root: PathBuf = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "tests/bugbank".to_string())
        .into();

    let mut entries = Vec::new();

    let (a, input) = lazydfa_eod_dup();
    entries.push(entry(
        "lazydfa-eod-dup",
        "lazy DFA emitted the same (offset, code) twice on the last symbol when an \
         eod-gated and an unconditional state shared a report code",
        EngineKind::LazyDfa { max_states: 0 },
        &a,
        &input,
        None,
    ));

    let (a, input) = empty_eod_chunk();
    for kind in [
        EngineKind::NfaSkip,
        EngineKind::LazyDfa { max_states: 0 },
        EngineKind::Prefilter,
    ] {
        entries.push(entry(
            &format!("empty-eod-chunk-{}", kind.label().replace(':', "-")),
            "streaming engines dropped $-anchored reports when eod arrived on an \
             empty final chunk after the last symbol had already been fed",
            kind,
            &a,
            &input,
            Some(vec![input.len(), 0]),
        ));
    }

    let (a, input) = max_report_code();
    for kind in [EngineKind::NfaSkip, EngineKind::LazyDfa { max_states: 0 }] {
        entries.push(entry(
            &format!("max-report-code-{}", kind.label().replace(':', "-")),
            "report code u32::MAX collided with the engines' internal NO_REPORT \
             sentinel and every report from the state was silently dropped",
            kind,
            &a,
            &input,
            None,
        ));
    }

    let (a, input) = counter_combinational_loop();
    entries.push(entry(
        "counter-combinational-loop",
        "a rolling counter with a self-activation edge made the NFA's same-cycle \
         counter cascade loop forever; enables are now sampled once per cycle",
        EngineKind::NfaSkip,
        &a,
        &input,
        Some(vec![1, 0, 2]),
    ));

    for e in &entries {
        e.save(&root).expect("write bank entry");
        e.replay().expect("entry must replay green");
        println!("wrote {}/{}", root.display(), e.name);
    }
    println!("{} entries", entries.len());
}
