//! The bit-vector tier on the zoo: which benchmarks it admits, and that
//! every admitted benchmark's report stream equals the NFA's — in block
//! mode, in packet-sized feeds, and through the threaded selector.

use automatazoo::engines::{
    select_session_engine, select_session_engine_threaded, BitParallelEngine, CollectSink, Engine,
    EngineChoice, NfaEngine, Report, StreamingEngine,
};
use automatazoo::zoo::{BenchmarkId, Scale};

fn block(engine: &mut dyn Engine, input: &[u8]) -> Vec<Report> {
    let mut sink = CollectSink::new();
    engine.scan(input, &mut sink);
    sink.sorted_reports()
}

/// The mesh benchmarks whose lanes fit 64 bits. Hamming 22x5 (22 4-bit
/// fields) and 31x10 do not.
const ADMITTED: [BenchmarkId; 7] = [
    BenchmarkId::Hamming18x3,
    BenchmarkId::Levenshtein19x3,
    BenchmarkId::Levenshtein24x5,
    BenchmarkId::Levenshtein37x10,
    BenchmarkId::CrisprCasOt,
    BenchmarkId::FuzzySnort,
    BenchmarkId::FuzzyDna,
];

#[test]
fn the_tier_admits_exactly_the_narrow_meshes() {
    for id in BenchmarkId::ALL {
        let a = id.build(Scale::Tiny).automaton;
        let admitted = BitParallelEngine::new(&a).is_ok();
        assert_eq!(admitted, ADMITTED.contains(&id), "{}", id.name());
        let (choice, _) = select_session_engine(&a).expect("zoo automata are valid");
        assert_eq!(
            choice == EngineChoice::BitParallel,
            admitted,
            "{}: {choice:?}",
            id.name()
        );
    }
}

#[test]
fn admitted_zoo_meshes_match_the_nfa_in_blocks_and_feeds() {
    for id in ADMITTED {
        let bench = id.build(Scale::Tiny);
        let input = &bench.input[..bench.input.len().min(16 << 10)];
        let want = block(&mut NfaEngine::new(&bench.automaton).unwrap(), input);
        let mut engine = BitParallelEngine::new(&bench.automaton).unwrap();
        assert_eq!(block(&mut engine, input), want, "{} block", id.name());
        let mut sink = CollectSink::new();
        engine.scan_chunks(input.chunks(1500), &mut sink);
        assert_eq!(sink.sorted_reports(), want, "{} 1500-byte feeds", id.name());
    }
}

#[test]
fn levenshtein_19x3_small_full_stream_matches_the_nfa() {
    // azoo-perf times this member on a 16 KiB prefix, which reports
    // nothing; the full 128 KiB Small stream reports 7 times, so a tier
    // that silently reported nothing would fail here.
    let bench = BenchmarkId::Levenshtein19x3.build(Scale::Small);
    assert_eq!(bench.input.len(), 128 << 10);
    let want = block(&mut NfaEngine::new(&bench.automaton).unwrap(), &bench.input);
    assert_eq!(want.len(), 7);
    let mut engine = BitParallelEngine::new(&bench.automaton).unwrap();
    assert_eq!(block(&mut engine, &bench.input), want);
}

#[test]
fn threaded_selection_keeps_the_tier_and_the_stream() {
    for id in [BenchmarkId::FuzzySnort, BenchmarkId::FuzzyDna] {
        let bench = id.build(Scale::Tiny);
        let mut streams = Vec::new();
        for threads in [1, 2] {
            let (choice, mut engine) =
                select_session_engine_threaded(&bench.automaton, threads).unwrap();
            assert_eq!(
                choice,
                EngineChoice::BitParallel,
                "{} x{threads}",
                id.name()
            );
            streams.push(block(&mut *engine, &bench.input));
        }
        assert_eq!(streams[0], streams[1], "{}", id.name());
        assert!(!streams[0].is_empty(), "{}", id.name());
    }
}
