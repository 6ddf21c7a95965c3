//! Cross-engine differential testing: every engine that accepts an
//! automaton must emit the *byte-identical* `(offset, code)`-sorted
//! report stream — the invariant that makes the engine portfolio (and
//! the parallel scanner's merge) safe to select from freely.
//!
//! Random automata (with cycles and anchors) and random chain sets are
//! scanned by the NFA engine (reference), the lazy DFA, and the parallel
//! scanner at 1, 2, and 4 worker threads.

use automatazoo::core::{Automaton, StartKind, StateId, SymbolClass};
use automatazoo::engines::{
    CollectSink, Engine, LazyDfaEngine, NfaEngine, ParallelScanner, Report,
};
use proptest::prelude::*;

/// Strategy: a random counter-free automaton over `{a..d}` with random
/// edges (cycles included), start kinds, and report codes.
fn arb_automaton() -> impl Strategy<Value = Automaton> {
    let state = (
        proptest::collection::vec(prop::bool::ANY, 4),
        0..3u8,
        proptest::option::of(0..8u32),
    );
    (
        proptest::collection::vec(state, 1..12),
        proptest::collection::vec((0..12usize, 0..12usize), 0..24),
    )
        .prop_map(|(states, edges)| {
            let n = states.len();
            let mut a = Automaton::new();
            for (class_bits, start, report) in &states {
                let mut class = SymbolClass::new();
                for (i, &set) in class_bits.iter().enumerate() {
                    if set {
                        class.insert(b'a' + i as u8);
                    }
                }
                if class.is_empty() {
                    class.insert(b'a');
                }
                let start = match start {
                    0 => StartKind::AllInput,
                    1 => StartKind::StartOfData,
                    _ => StartKind::None,
                };
                let id = a.add_ste(class, start);
                if let Some(code) = report {
                    a.set_report(id, *code);
                }
            }
            for &(from, to) in &edges {
                a.add_edge(StateId::new(from % n), StateId::new(to % n));
            }
            a
        })
        .prop_filter("needs a start state", |a| a.validate().is_ok())
}

/// Strategy: a multi-component set of literal chains — the chunkable
/// shape (all-input starts, acyclic) that exercises input chunking.
fn arb_chains() -> impl Strategy<Value = Automaton> {
    proptest::collection::vec(
        proptest::collection::vec(proptest::sample::select(vec![b'a', b'b', b'c']), 1..6),
        1..8,
    )
    .prop_map(|words| {
        let mut a = Automaton::new();
        for (code, w) in words.iter().enumerate() {
            let classes: Vec<SymbolClass> = w.iter().map(|&b| SymbolClass::from_byte(b)).collect();
            let (_, last) = a.add_chain(&classes, StartKind::AllInput);
            a.set_report(last, code as u32);
        }
        a
    })
}

fn arb_input() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        proptest::sample::select(vec![b'a', b'b', b'c', b'd', b'e']),
        0..150,
    )
}

fn sorted_reports(engine: &mut dyn Engine, input: &[u8]) -> Vec<Report> {
    let mut sink = CollectSink::new();
    engine.scan(input, &mut sink);
    sink.sorted_reports()
}

/// The parallel scanner's stream as emitted — it must already be in
/// canonical sorted order, so no re-sorting here.
fn parallel_reports(a: &Automaton, threads: usize, input: &[u8]) -> Vec<Report> {
    let mut sink = CollectSink::new();
    ParallelScanner::new(a, threads)
        .expect("valid")
        .scan(input, &mut sink);
    sink.reports().to_vec()
}

// ---------------------------------------------------------------------
// Degenerate parallel-scanner shapes: the chunking heuristics must
// collapse gracefully instead of duplicating or dropping boundary work.
// ---------------------------------------------------------------------

fn parallel_pf(a: &Automaton, threads: usize, prefilter: bool, input: &[u8]) -> Vec<Report> {
    let mut sink = CollectSink::new();
    ParallelScanner::with_prefilter(a, threads, prefilter)
        .expect("valid")
        .scan(input, &mut sink);
    sink.reports().to_vec()
}

/// One all-input chain per word, reporting `code = index`.
fn word_chains(list: &[&[u8]]) -> Automaton {
    let mut a = Automaton::new();
    for (code, w) in list.iter().enumerate() {
        let classes: Vec<SymbolClass> = w.iter().map(|&b| SymbolClass::from_byte(b)).collect();
        let (_, last) = a.add_chain(&classes, StartKind::AllInput);
        a.set_report(last, code as u32);
    }
    a
}

#[test]
fn more_threads_than_chunks() {
    // 5-byte input at 16 threads: most workers get an empty chunk and
    // must contribute nothing; the match still appears exactly once.
    let a = word_chains(&[b"abc"]);
    let input = b"xabcx";
    let expected = sorted_reports(&mut NfaEngine::new(&a).expect("valid"), input);
    assert_eq!(expected.len(), 1);
    for threads in [7, 16, 64] {
        for prefilter in [false, true] {
            assert_eq!(
                parallel_pf(&a, threads, prefilter, input),
                expected,
                "{threads} threads, prefilter {prefilter}"
            );
        }
    }
}

#[test]
fn input_shorter_than_the_overlap_window() {
    // The longest chain is 6 states, so each worker re-scans up to 5
    // bytes before its chunk — more than a whole chunk of a 4-byte
    // input. Overlap must clamp at offset 0, not underflow or rescan
    // foreign territory twice.
    let a = word_chains(&[b"abcdef", b"cd"]);
    for input in [&b"cd"[..], &b"abcd"[..], &b"cdcd"[..]] {
        let expected = sorted_reports(&mut NfaEngine::new(&a).expect("valid"), input);
        for threads in [2, 4, 8] {
            for prefilter in [false, true] {
                assert_eq!(
                    parallel_pf(&a, threads, prefilter, input),
                    expected,
                    "input {input:?}, {threads} threads, prefilter {prefilter}"
                );
            }
        }
    }
}

#[test]
fn cyclic_shard_falls_back_to_whole_input_scans() {
    // A self-loop gives unbounded match length, so the shard is not
    // chunkable: every worker must scan the whole input once (no chunk
    // jobs), still deduplicating into one canonical stream.
    let mut a = word_chains(&[b"ab"]);
    let hot = a.add_ste(SymbolClass::from_byte(b'z'), StartKind::AllInput);
    a.add_edge(hot, hot); // cycle: z+ then 'q' reports
    let fin = a.add_ste(SymbolClass::from_byte(b'q'), StartKind::None);
    a.add_edge(hot, fin);
    a.set_report(fin, 77);
    a.validate().expect("valid");
    let input = b"abzzzzqab";
    let expected = sorted_reports(&mut NfaEngine::new(&a).expect("valid"), input);
    assert!(expected
        .iter()
        .any(|r| r.code == automatazoo::core::ReportCode(77)));
    for threads in [1, 2, 4] {
        for prefilter in [false, true] {
            assert_eq!(
                parallel_pf(&a, threads, prefilter, input),
                expected,
                "{threads} threads, prefilter {prefilter}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engines_agree_on_random_automata(a in arb_automaton(), input in arb_input()) {
        let reference = sorted_reports(&mut NfaEngine::new(&a).expect("valid"), &input);
        let mut dfa = LazyDfaEngine::with_max_states(&a, 16).expect("no counters");
        prop_assert_eq!(&reference, &sorted_reports(&mut dfa, &input));
        for threads in [1usize, 2, 4] {
            prop_assert_eq!(&reference, &parallel_reports(&a, threads, &input),
                            "parallel @ {} threads", threads);
        }
    }

    #[test]
    fn engines_agree_on_chain_sets(a in arb_chains(), input in arb_input()) {
        let reference = sorted_reports(&mut NfaEngine::new(&a).expect("valid"), &input);
        prop_assert_eq!(
            &reference,
            &sorted_reports(&mut LazyDfaEngine::with_max_states(&a, 16).expect("no counters"), &input)
        );
        for threads in [1usize, 2, 4] {
            prop_assert_eq!(&reference, &parallel_reports(&a, threads, &input),
                            "parallel @ {} threads", threads);
        }
    }

    #[test]
    fn parallel_streaming_agrees_with_whole_scan(
        a in arb_chains(),
        input in arb_input(),
        cut_frac in 0..100usize,
    ) {
        use automatazoo::engines::StreamingEngine;
        let reference = sorted_reports(&mut NfaEngine::new(&a).expect("valid"), &input);
        let cut = input.len() * cut_frac / 100;
        let mut par = ParallelScanner::new(&a, 4).expect("valid");
        let mut sink = CollectSink::new();
        par.scan_chunks([&input[..cut], &input[cut..]], &mut sink);
        prop_assert_eq!(&reference, &sink.sorted_reports());
    }
}
