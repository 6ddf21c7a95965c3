//! Cross-engine validation: every engine must produce the identical
//! report stream on the automata it supports.

use azoo_core::{Automaton, CounterMode, StartKind, SymbolClass};
use azoo_engines::{CollectSink, CountSink, Engine, EngineError, LazyDfaEngine, NfaEngine, Report};
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn literal(word: &[u8], code: u32) -> Automaton {
    let mut a = Automaton::new();
    let classes: Vec<SymbolClass> = word.iter().map(|&b| SymbolClass::from_byte(b)).collect();
    let (_, last) = a.add_chain(&classes, StartKind::AllInput);
    a.set_report(last, code);
    a
}

fn reports_of(engine: &mut dyn Engine, input: &[u8]) -> Vec<Report> {
    let mut sink = CollectSink::new();
    engine.scan(input, &mut sink);
    sink.sorted_reports()
}

#[test]
fn all_engines_agree_on_literals() {
    let mut a = literal(b"cat", 1);
    a.append(&literal(b"dog", 2));
    a.append(&literal(b"a", 3));
    let input = b"a catalog of dogmatic cats";
    let nfa = reports_of(&mut NfaEngine::new(&a).unwrap(), input);
    let dfa = reports_of(&mut LazyDfaEngine::new(&a).unwrap(), input);
    assert_eq!(nfa, dfa);
    // "cat" at 2..5 and 22..25; "a" five times; "dog" at 13..16.
    assert_eq!(nfa.iter().filter(|r| r.code.0 == 1).count(), 2, "cat twice");
    assert_eq!(nfa.iter().filter(|r| r.code.0 == 2).count(), 1);
    assert_eq!(nfa.iter().filter(|r| r.code.0 == 3).count(), 5);
}

#[test]
fn start_of_data_only_matches_prefix() {
    let mut a = Automaton::new();
    let (_, last) = a.add_chain(
        &[SymbolClass::from_byte(b'x'), SymbolClass::from_byte(b'y')],
        StartKind::StartOfData,
    );
    a.set_report(last, 0);
    for engine in engines(&a) {
        let mut engine = engine;
        assert_eq!(reports_of(engine.as_mut(), b"xyxy").len(), 1);
        assert_eq!(reports_of(engine.as_mut(), b"axy").len(), 0);
    }
}

#[test]
fn eod_report_only_fires_at_end() {
    let mut a = Automaton::new();
    let s = a.add_ste(SymbolClass::from_byte(b'q'), StartKind::AllInput);
    a.set_report(s, 0);
    a.set_report_eod_only(s, true);
    for mut engine in engines(&a) {
        assert_eq!(reports_of(engine.as_mut(), b"qqq").len(), 1);
        assert_eq!(
            reports_of(engine.as_mut(), b"qqa").len(),
            0,
            "{} fired a $-anchored report mid-stream",
            engine.name()
        );
    }
}

fn engines(a: &Automaton) -> Vec<Box<dyn Engine>> {
    vec![
        Box::new(NfaEngine::new(a).unwrap()),
        Box::new(LazyDfaEngine::new(a).unwrap()),
    ]
}

#[test]
fn self_loops_absorb_runs() {
    // a x* b : a -> loop(x) -> b with loop optional is hard to express as
    // a chain; use a x+ b which is a chain with a self-loop.
    let mut a = Automaton::new();
    let s0 = a.add_ste(SymbolClass::from_byte(b'a'), StartKind::AllInput);
    let s1 = a.add_ste(SymbolClass::from_byte(b'x'), StartKind::None);
    let s2 = a.add_ste(SymbolClass::from_byte(b'b'), StartKind::None);
    a.add_edge(s0, s1);
    a.add_edge(s1, s1);
    a.add_edge(s1, s2);
    a.add_edge(s2, s2); // a trailing loop as well
    a.set_report(s2, 7);
    let input = b"axxxb..axb.ab.axxxxxxb";
    let nfa = reports_of(&mut NfaEngine::new(&a).unwrap(), input);
    let dfa = reports_of(&mut LazyDfaEngine::new(&a).unwrap(), input);
    assert_eq!(nfa, dfa);
    assert_eq!(nfa.iter().filter(|r| r.code.0 == 7).count(), 3);
}

#[test]
fn random_chain_automata_agree() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xC0FFEE);
    for trial in 0..50 {
        let mut a = Automaton::new();
        let n_chains = rng.random_range(1..6);
        for chain in 0..n_chains {
            let len = rng.random_range(1..8);
            let mut prev = None;
            for i in 0..len {
                // Small alphabet to get plenty of matches.
                let mut class = SymbolClass::new();
                for b in b'a'..=b'd' {
                    if rng.random_bool(0.5) {
                        class.insert(b);
                    }
                }
                if class.is_empty() {
                    class.insert(b'a');
                }
                let start = if i == 0 {
                    if rng.random_bool(0.7) {
                        StartKind::AllInput
                    } else {
                        StartKind::StartOfData
                    }
                } else {
                    StartKind::None
                };
                let s = a.add_ste(class, start);
                if rng.random_bool(0.3) {
                    a.add_edge(s, s);
                }
                if let Some(p) = prev {
                    a.add_edge(p, s);
                }
                if i == len - 1 || rng.random_bool(0.2) {
                    a.set_report(s, chain as u32 * 100 + i as u32);
                }
                prev = Some(s);
            }
        }
        let input: Vec<u8> = (0..200)
            .map(|_| b'a' + rng.random_range(0..5) as u8)
            .collect();
        let nfa = reports_of(&mut NfaEngine::new(&a).unwrap(), &input);
        let dfa = reports_of(&mut LazyDfaEngine::new(&a).unwrap(), &input);
        assert_eq!(nfa, dfa, "trial {trial}: nfa vs lazy-dfa");
    }
}

#[test]
fn random_general_automata_agree_nfa_vs_dfa() {
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    for trial in 0..40 {
        let mut a = Automaton::new();
        let n = rng.random_range(2..12);
        for i in 0..n {
            let mut class = SymbolClass::new();
            for b in b'a'..=b'c' {
                if rng.random_bool(0.6) {
                    class.insert(b);
                }
            }
            if class.is_empty() {
                class.insert(b'b');
            }
            let start = match rng.random_range(0..4) {
                0 => StartKind::AllInput,
                1 => StartKind::StartOfData,
                _ => StartKind::None,
            };
            let s = a.add_ste(class, start);
            if rng.random_bool(0.25) {
                a.set_report(s, i as u32);
            }
        }
        // Random edges, including cycles and fan-out.
        for _ in 0..rng.random_range(0..(3 * n)) {
            let from = azoo_core::StateId::new(rng.random_range(0..n));
            let to = azoo_core::StateId::new(rng.random_range(0..n));
            a.add_edge(from, to);
        }
        if a.validate().is_err() {
            continue; // e.g. no start states this trial
        }
        let input: Vec<u8> = (0..300)
            .map(|_| b'a' + rng.random_range(0..4) as u8)
            .collect();
        let nfa = reports_of(&mut NfaEngine::new(&a).unwrap(), &input);
        let dfa = reports_of(&mut LazyDfaEngine::new(&a).unwrap(), &input);
        assert_eq!(nfa, dfa, "trial {trial}");
    }
}

#[test]
fn dfa_cache_flush_preserves_reports() {
    // A pathological NFA whose DFA state count exceeds a tiny cache: the
    // classic (a|b)*a(a|b)^k pattern with 2^k DFA states.
    let k = 6;
    let mut a = Automaton::new();
    let any = SymbolClass::from_bytes(b"ab");
    let s0 = a.add_ste(SymbolClass::from_byte(b'a'), StartKind::AllInput);
    let mut prev = s0;
    for _ in 0..k {
        let s = a.add_ste(any, StartKind::None);
        a.add_edge(prev, s);
        prev = s;
    }
    a.set_report(prev, 0);
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let input: Vec<u8> = (0..2000)
        .map(|_| if rng.random_bool(0.5) { b'a' } else { b'b' })
        .collect();
    let expected = reports_of(&mut NfaEngine::new(&a).unwrap(), &input);
    let mut tiny = LazyDfaEngine::with_max_states(&a, 4).unwrap();
    let got = reports_of(&mut tiny, &input);
    assert!(tiny.flush_count() > 0, "cache must have flushed");
    assert_eq!(expected, got);
}

#[test]
fn counters_latch_pulse_roll() {
    // s(matches 'x') -> counter(target 3); reset on 'r' via a reset state.
    for (mode, input, expected_reports) in [
        // Latch: fires once at the 3rd x, stays latched (no more reports).
        (CounterMode::Latch, &b"xxxxxx"[..], 1),
        // Pulse: count holds at target; only one fire without reset.
        (CounterMode::Pulse, &b"xxxxxx"[..], 1),
        // Roll: count resets after firing, fires every 3 x's.
        (CounterMode::Roll, &b"xxxxxx"[..], 2),
    ] {
        let mut a = Automaton::new();
        let s = a.add_ste(SymbolClass::from_byte(b'x'), StartKind::AllInput);
        let c = a.add_counter(3, mode);
        a.add_edge(s, c);
        a.set_report(c, 0);
        let mut engine = NfaEngine::new(&a).unwrap();
        let mut sink = CountSink::new();
        engine.scan(input, &mut sink);
        assert_eq!(
            sink.count(),
            expected_reports,
            "mode {mode:?} on {:?}",
            std::str::from_utf8(input).unwrap()
        );
    }
}

#[test]
fn counter_reset_restarts_count() {
    let mut a = Automaton::new();
    let s = a.add_ste(SymbolClass::from_byte(b'x'), StartKind::AllInput);
    let r = a.add_ste(SymbolClass::from_byte(b'r'), StartKind::AllInput);
    let c = a.add_counter(3, CounterMode::Latch);
    a.add_edge(s, c);
    a.add_reset_edge(r, c);
    a.set_report(c, 0);
    let mut engine = NfaEngine::new(&a).unwrap();
    let mut sink = CountSink::new();
    engine.scan(b"xxrxxrxx", &mut sink);
    assert_eq!(sink.count(), 0, "reset before target prevents firing");
    let mut sink = CountSink::new();
    engine.scan(b"xxrxxx", &mut sink);
    assert_eq!(sink.count(), 1);
}

#[test]
fn latched_counter_drives_successors_every_cycle() {
    // counter(latch, 2) -> t('z' reporter). After latching, every
    // subsequent 'z' reports.
    let mut a = Automaton::new();
    let s = a.add_ste(SymbolClass::from_byte(b'x'), StartKind::AllInput);
    let c = a.add_counter(2, CounterMode::Latch);
    let t = a.add_ste(SymbolClass::from_byte(b'z'), StartKind::None);
    a.add_edge(s, c);
    a.add_edge(c, t);
    a.set_report(t, 9);
    let mut engine = NfaEngine::new(&a).unwrap();
    let mut sink = CountSink::new();
    engine.scan(b"xxzzz", &mut sink);
    assert_eq!(sink.count(), 3);
}

#[test]
fn lazy_dfa_rejects_counters() {
    let mut a = Automaton::new();
    let s = a.add_ste(SymbolClass::from_byte(b'x'), StartKind::AllInput);
    let c = a.add_counter(2, CounterMode::Latch);
    a.add_edge(s, c);
    a.set_report(c, 0);
    assert!(matches!(
        LazyDfaEngine::new(&a),
        Err(EngineError::CountersUnsupported(_))
    ));
}

#[test]
fn fanout_agrees_nfa_vs_dfa() {
    let mut a = Automaton::new();
    let s = a.add_ste(SymbolClass::from_byte(b'a'), StartKind::AllInput);
    let t1 = a.add_ste(SymbolClass::from_byte(b'b'), StartKind::None);
    let t2 = a.add_ste(SymbolClass::from_byte(b'c'), StartKind::None);
    a.add_edge(s, t1);
    a.add_edge(s, t2);
    a.set_report(t1, 0);
    a.set_report(t2, 1);
    let nfa = reports_of(&mut NfaEngine::new(&a).unwrap(), b"ab ac");
    let dfa = reports_of(&mut LazyDfaEngine::new(&a).unwrap(), b"ab ac");
    assert_eq!(nfa, dfa);
    assert_eq!(nfa.len(), 2);
}

#[test]
fn profile_counts_dynamic_active_set() {
    // One always-on start driving a 3-state tail; on "aaaa" the tail
    // saturates: enabled(dynamic) goes 0, 1, 2, 3 over the four symbols.
    let mut a = Automaton::new();
    let (_, last) = a.add_chain(&[SymbolClass::from_byte(b'a'); 4], StartKind::AllInput);
    a.set_report(last, 0);
    let mut engine = NfaEngine::new(&a).unwrap();
    let mut sink = CountSink::new();
    let p = engine.scan_profiled(b"aaaa", &mut sink);
    assert_eq!(p.symbols, 4);
    assert_eq!(p.total_enabled, 1 + 2 + 3);
    assert_eq!(p.total_reports, 1);
    assert_eq!(sink.count(), 1);
    // matched: 1, 2, 3, 4 (the always state matches every cycle).
    assert_eq!(p.total_matched, 1 + 2 + 3 + 4);
}

#[test]
fn scan_is_reusable() {
    let a = literal(b"ab", 0);
    for mut engine in engines(&a) {
        let first = reports_of(engine.as_mut(), b"abab");
        let second = reports_of(engine.as_mut(), b"abab");
        assert_eq!(first, second, "{} not reusable", engine.name());
        assert_eq!(first.len(), 2);
    }
}

#[test]
fn long_chain_sets_agree() {
    // Four 70-109-state chains over a three-letter alphabet.
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    let mut a = Automaton::new();
    for chain in 0..4 {
        let len = 70 + chain * 13; // 70, 83, 96, 109 states
        let classes: Vec<SymbolClass> = (0..len)
            .map(|_| {
                let mut c = SymbolClass::new();
                for b in b'a'..=b'c' {
                    if rng.random_bool(0.6) {
                        c.insert(b);
                    }
                }
                if c.is_empty() {
                    c.insert(b'a');
                }
                c
            })
            .collect();
        let (_, last) = a.add_chain(&classes, StartKind::AllInput);
        a.set_report(last, chain as u32);
    }
    assert!(a.state_count() > 300);
    let input: Vec<u8> = (0..5000)
        .map(|_| b'a' + rng.random_range(0..4) as u8)
        .collect();
    let nfa = reports_of(&mut NfaEngine::new(&a).unwrap(), &input);
    let dfa = reports_of(&mut LazyDfaEngine::new(&a).unwrap(), &input);
    assert_eq!(nfa, dfa);
}

#[test]
fn counters_with_eod_reports() {
    // A counter whose report is $-anchored only fires if the target is
    // reached exactly at end of data.
    let mut a = Automaton::new();
    let s = a.add_ste(SymbolClass::from_byte(b'x'), StartKind::AllInput);
    let c = a.add_counter(2, CounterMode::Latch);
    a.add_edge(s, c);
    a.set_report(c, 0);
    a.set_report_eod_only(c, true);
    let mut engine = NfaEngine::new(&a).unwrap();
    let mut sink = CountSink::new();
    engine.scan(b"xx", &mut sink);
    assert_eq!(sink.count(), 1, "target reached on the final symbol");
    let mut sink = CountSink::new();
    engine.scan(b"xxy", &mut sink);
    assert_eq!(sink.count(), 0, "target reached mid-stream only");
}

#[test]
fn profile_reports_match_sink_counts() {
    let mut a = literal(b"ab", 3);
    a.append(&literal(b"b", 4));
    let mut engine = NfaEngine::new(&a).unwrap();
    let mut sink = CountSink::new();
    let profile = engine.scan_profiled(b"ababab", &mut sink);
    assert_eq!(profile.total_reports, sink.count());
    assert_eq!(profile.symbols, 6);
}
