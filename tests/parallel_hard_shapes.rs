//! Differential tests for the parallel scanner on the three shapes that
//! have no finite overlap window: counter-bearing components, reachable
//! cycles, and `StartOfData` anchors. Each such component scans the whole
//! input on one worker while the easy components packed beside it keep
//! bounded-overlap chunking, and the `ParallelScanner` must produce the
//! *byte-identical* sorted report stream as the single-threaded
//! [`NfaEngine`] at every thread count — both for block scans and for
//! streaming feeds (including 1-byte and empty chunks).

use automatazoo::core::{Automaton, CounterMode, StartKind, SymbolClass};
use automatazoo::engines::{
    CollectSink, Engine, NfaEngine, ParallelScanner, Report, StreamingEngine,
};
use automatazoo::zoo::{sequence_match, BenchmarkId, Scale};

const THREADS: &[usize] = &[1, 2, 4, 8];

fn nfa_reports(a: &Automaton, input: &[u8]) -> Vec<Report> {
    let mut engine = NfaEngine::new(a).expect("valid");
    let mut sink = CollectSink::new();
    engine.scan(input, &mut sink);
    sink.sorted_reports()
}

fn parallel_reports(a: &Automaton, threads: usize, input: &[u8]) -> Vec<Report> {
    let mut scanner = ParallelScanner::new(a, threads).expect("valid");
    let mut sink = CollectSink::new();
    scanner.scan(input, &mut sink);
    sink.sorted_reports()
}

/// Feeds `chunks` through the streaming interface (final chunk carries
/// end-of-data) and returns the merged sorted stream.
fn streamed_reports(a: &Automaton, threads: usize, chunks: &[&[u8]]) -> Vec<Report> {
    let mut scanner = ParallelScanner::new(a, threads).expect("valid");
    let mut sink = CollectSink::new();
    for (i, chunk) in chunks.iter().enumerate() {
        scanner.feed(chunk, i + 1 == chunks.len(), &mut sink);
    }
    sink.sorted_reports()
}

fn nfa_streamed_reports(a: &Automaton, chunks: &[&[u8]]) -> Vec<Report> {
    let mut engine = NfaEngine::new(a).expect("valid");
    let mut sink = CollectSink::new();
    for (i, chunk) in chunks.iter().enumerate() {
        engine.feed(chunk, i + 1 == chunks.len(), &mut sink);
    }
    sink.sorted_reports()
}

/// `ab` repeated into a terminal latch counter with an AllInput reset —
/// the SPM shape: counting requires the true prefix state, so a naive
/// chunk scan is unsound.
fn counter_machine(mode: CounterMode) -> Automaton {
    let mut a = Automaton::new();
    let s0 = a.add_ste(SymbolClass::from_byte(b'a'), StartKind::AllInput);
    let s1 = a.add_ste(SymbolClass::from_byte(b'b'), StartKind::None);
    a.add_edge(s0, s1);
    let c = a.add_counter(3, mode);
    a.add_edge(s1, c);
    a.set_report(c, 7);
    let z = a.add_ste(SymbolClass::from_byte(b'z'), StartKind::AllInput);
    a.add_reset_edge(z, c);
    a.validate().expect("valid");
    a
}

/// A counter-bearing SPM instance (every filter ends in a terminal
/// latch counter) whose input embeds one candidate sequence past its
/// support threshold, so the counters count, latch and report — the
/// registry's random SPM wC corpus rarely reaches support.
fn seeded_spm() -> (Automaton, Vec<u8>) {
    let mut rng = automatazoo::workloads::rng(0x5EED);
    let mut a = Automaton::new();
    let seqs: Vec<_> = (0..20)
        .map(|_| sequence_match::generate_sequence(&mut rng, 6, 6))
        .collect();
    for (code, seq) in seqs.iter().enumerate() {
        let counter = Some((3, CounterMode::Latch));
        sequence_match::append_filter(&mut a, seq, code as u32, counter, None);
    }
    let input = sequence_match::stream_with_sequence(0xFEED, &seqs[0], 12);
    (a, input)
}

/// `a b* c` — a reachable self-loop, so activity can persist across any
/// chunk boundary.
fn cycle_machine() -> Automaton {
    let mut a = Automaton::new();
    let s0 = a.add_ste(SymbolClass::from_byte(b'a'), StartKind::AllInput);
    let s1 = a.add_ste(SymbolClass::from_byte(b'b'), StartKind::None);
    let s2 = a.add_ste(SymbolClass::from_byte(b'c'), StartKind::None);
    a.add_edge(s0, s1);
    a.add_edge(s1, s1);
    a.add_edge(s0, s2);
    a.add_edge(s1, s2);
    a.set_report(s2, 4);
    a.validate().expect("valid");
    a
}

/// Anchored `qr` — only matches at offset 1, so every chunk except the
/// first must know it is not at the start of data.
fn anchored_machine() -> Automaton {
    let mut a = Automaton::new();
    let s0 = a.add_ste(SymbolClass::from_byte(b'q'), StartKind::StartOfData);
    let s1 = a.add_ste(SymbolClass::from_byte(b'r'), StartKind::None);
    a.add_edge(s0, s1);
    a.set_report(s1, 2);
    a.validate().expect("valid");
    a
}

/// A deterministic pseudorandom input over the alphabet the three
/// machines care about.
fn lcg_input(len: usize, seed: u64) -> Vec<u8> {
    let mut x = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    (0..len)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            b"abcqrz"[(x >> 33) as usize % 6]
        })
        .collect()
}

#[test]
fn counter_shards_agree_with_nfa_at_every_thread_count() {
    for mode in [CounterMode::Latch, CounterMode::Pulse, CounterMode::Roll] {
        let a = counter_machine(mode);
        for seed in 0..4 {
            let input = lcg_input(257, seed);
            let expect = nfa_reports(&a, &input);
            for &t in THREADS {
                assert_eq!(
                    parallel_reports(&a, t, &input),
                    expect,
                    "mode {mode:?}, seed {seed}, {t} threads"
                );
            }
        }
    }
    let (a, input) = seeded_spm();
    let expect = nfa_reports(&a, &input);
    assert!(!expect.is_empty(), "seeded SPM wC must fire its counters");
    for &t in THREADS {
        assert_eq!(parallel_reports(&a, t, &input), expect, "{t} threads");
    }
}

#[test]
fn cycle_shards_agree_with_nfa_at_every_thread_count() {
    let a = cycle_machine();
    for seed in 0..4 {
        let input = lcg_input(313, seed);
        let expect = nfa_reports(&a, &input);
        for &t in THREADS {
            assert_eq!(
                parallel_reports(&a, t, &input),
                expect,
                "seed {seed}, {t} threads"
            );
        }
    }
}

#[test]
fn anchored_shards_agree_with_nfa_at_every_thread_count() {
    let a = anchored_machine();
    // Both a matching prefix and a non-matching one: the anchored pair
    // must fire exactly once at offset 1 or never.
    for input in [b"qr".to_vec(), lcg_input(101, 9), {
        let mut v = b"qr".to_vec();
        v.extend(lcg_input(99, 3));
        v
    }] {
        let expect = nfa_reports(&a, &input);
        for &t in THREADS {
            assert_eq!(parallel_reports(&a, t, &input), expect, "{t} threads");
        }
    }
}

#[test]
fn each_hard_shape_is_one_whole_input_shard() {
    for a in [
        counter_machine(CounterMode::Latch),
        cycle_machine(),
        anchored_machine(),
    ] {
        let scanner = ParallelScanner::new(&a, 4).expect("valid");
        assert_eq!(scanner.shard_count(), 1);
        assert_eq!(scanner.whole_input_shard_count(), 1);
        assert_eq!(scanner.speculative_shard_count(), 0);
    }
    // Every SPM wC filter ends in a counter: nothing chunks.
    for a in [
        seeded_spm().0,
        BenchmarkId::SeqMatch6w6pWc.build(Scale::Tiny).automaton,
    ] {
        let scanner = ParallelScanner::new(&a, 4).expect("valid");
        assert_eq!(scanner.whole_input_shard_count(), scanner.shard_count());
    }
}

#[test]
fn hard_component_packed_with_easy_chains_splits_its_shard() {
    // One thread packs everything into one shard; the counter component
    // must not drag the chains beside it onto the whole-input path.
    let mut a = counter_machine(CounterMode::Latch);
    for (code, word) in [&b"abc"[..], b"cab", b"qz"].iter().enumerate() {
        let classes: Vec<SymbolClass> = word.iter().map(|&b| SymbolClass::from_byte(b)).collect();
        let (_, last) = a.add_chain(&classes, StartKind::AllInput);
        a.set_report(last, 10 + code as u32);
    }
    a.validate().expect("valid");
    let scanner = ParallelScanner::new(&a, 1).expect("valid");
    assert_eq!(scanner.shard_count(), 2);
    assert_eq!(scanner.chunkable_shard_count(), 1);
    assert_eq!(scanner.whole_input_shard_count(), 1);
    // The random alphabet resets the counter too often to reach 3, so
    // lead with three `ab`s.
    let mut input = b"abcababq".to_vec();
    input.extend(lcg_input(501, 23));
    let expect = nfa_reports(&a, &input);
    assert!(expect.iter().any(|r| r.code.0 == 7), "counter fires");
    assert!(expect.iter().any(|r| r.code.0 >= 10), "chains fire");
    for &t in THREADS {
        assert_eq!(parallel_reports(&a, t, &input), expect, "{t} threads");
    }
}

#[test]
fn streaming_with_one_byte_and_empty_chunks_matches_nfa() {
    let machines = [
        counter_machine(CounterMode::Latch),
        cycle_machine(),
        anchored_machine(),
    ];
    let input = lcg_input(61, 5);
    for a in &machines {
        // Byte-at-a-time, with empty feeds interleaved and an empty
        // end-of-data feed.
        let mut chunks: Vec<&[u8]> = Vec::new();
        for (i, b) in input.iter().enumerate() {
            chunks.push(std::slice::from_ref(b));
            if i % 7 == 0 {
                chunks.push(&[]);
            }
        }
        chunks.push(&[]);
        let expect = nfa_streamed_reports(a, &chunks);
        for &t in THREADS {
            assert_eq!(streamed_reports(a, t, &chunks), expect, "{t} threads");
        }
    }
}

#[test]
fn streaming_mixed_chunk_sizes_matches_nfa() {
    let machines = [
        counter_machine(CounterMode::Pulse),
        cycle_machine(),
        anchored_machine(),
    ];
    let input = lcg_input(500, 11);
    // Uneven cuts: 1, 2, 3, ... byte chunks wrapping around.
    let mut chunks: Vec<&[u8]> = Vec::new();
    let mut pos = 0usize;
    let mut step = 1usize;
    while pos < input.len() {
        let end = (pos + step).min(input.len());
        chunks.push(&input[pos..end]);
        pos = end;
        step = step % 9 + 1;
    }
    for a in &machines {
        let expect = nfa_streamed_reports(a, &chunks);
        for &t in THREADS {
            assert_eq!(streamed_reports(a, t, &chunks), expect, "{t} threads");
        }
    }
}

#[test]
fn three_shapes_in_one_automaton_stress() {
    let mut a = Automaton::new();
    // Combine all three hard shapes into one automaton so a single scan
    // carries counter pulses, cycle activity, and the anchor seam.
    let s0 = a.add_ste(SymbolClass::from_byte(b'a'), StartKind::AllInput);
    let s1 = a.add_ste(SymbolClass::from_byte(b'b'), StartKind::None);
    a.add_edge(s0, s1);
    let c = a.add_counter(2, CounterMode::Latch);
    a.add_edge(s1, c);
    a.set_report(c, 1);
    let z = a.add_ste(SymbolClass::from_byte(b'z'), StartKind::AllInput);
    a.add_reset_edge(z, c);
    let l0 = a.add_ste(SymbolClass::from_byte(b'c'), StartKind::AllInput);
    let l1 = a.add_ste(SymbolClass::from_byte(b'q'), StartKind::None);
    a.add_edge(l0, l1);
    a.add_edge(l1, l1);
    a.set_report(l1, 2);
    let m0 = a.add_ste(SymbolClass::from_byte(b'a'), StartKind::StartOfData);
    a.set_report(m0, 3);
    a.validate().expect("valid");

    let input = lcg_input(4096, 17);
    let expect = nfa_reports(&a, &input);
    for &t in THREADS {
        assert_eq!(parallel_reports(&a, t, &input), expect, "{t} threads");
    }
    // And the same input streamed in chunks far outnumbering the
    // workers.
    let chunks: Vec<&[u8]> = input.chunks(37).collect();
    let expect = nfa_streamed_reports(&a, &chunks);
    for &t in THREADS {
        assert_eq!(streamed_reports(&a, t, &chunks), expect, "{t} threads");
    }
}
