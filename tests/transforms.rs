//! Integration tests for the newer cross-crate capabilities: streaming
//! scans over benchmarks, spatial partitioning, ANML round-trips, and
//! engine auto-selection.

use automatazoo::core::anml;
use automatazoo::engines::{
    select_session_engine, CollectSink, Engine, EngineChoice, NfaEngine, Report, StreamingEngine,
};
use automatazoo::ml::SpatialModel;
use automatazoo::passes::partition;
use automatazoo::zoo::{BenchmarkId, Scale};

fn whole_scan(a: &automatazoo::core::Automaton, input: &[u8]) -> Vec<Report> {
    let mut engine = NfaEngine::new(a).expect("valid");
    let mut sink = CollectSink::new();
    engine.scan(input, &mut sink);
    sink.sorted_reports()
}

#[test]
fn streaming_benchmarks_equal_block_scans() {
    for id in [
        BenchmarkId::Snort,
        BenchmarkId::Protomata,
        BenchmarkId::SeqMatch6w6pWc, // exercises counters through feeds
        BenchmarkId::FileCarving,
    ] {
        let bench = id.build(Scale::Tiny);
        let window = bench.input.len().min(12_000);
        let input = &bench.input[..window];
        let expected = whole_scan(&bench.automaton, input);
        let mut engine = NfaEngine::new(&bench.automaton).expect("valid");
        let mut sink = CollectSink::new();
        // Feed in uneven chunks.
        let chunks: Vec<&[u8]> = input.chunks(997).collect();
        engine.scan_chunks(chunks, &mut sink);
        assert_eq!(
            expected,
            sink.sorted_reports(),
            "streaming diverged on {}",
            id.name()
        );
    }
}

#[test]
fn partitioning_fits_benchmarks_onto_chips() {
    let bench = BenchmarkId::Hamming18x3.build(Scale::Tiny);
    let model = SpatialModel::AP_D480;
    let capacity = 300; // artificially tiny chip for the test
    let parts = partition(&bench.automaton, capacity).expect("filters are small");
    assert!(parts.len() > 1);
    let total: usize = parts.iter().map(|p| p.state_count()).sum();
    assert_eq!(total, bench.automaton.state_count());
    for p in &parts {
        assert!(p.state_count() <= capacity);
        p.validate().expect("each partition is runnable");
    }
    // The partitioned report union equals the whole-benchmark reports.
    let window = bench.input.len().min(8_000);
    let input = &bench.input[..window];
    let mut expected = whole_scan(&bench.automaton, input);
    let mut union: Vec<Report> = Vec::new();
    for p in &parts {
        union.extend(whole_scan(p, input));
    }
    union.sort_unstable();
    expected.sort_unstable();
    assert_eq!(expected, union);
    // The real chip comfortably fits the tiny build in one pass.
    assert_eq!(model.chips_required(bench.automaton.state_count()), 1);
}

#[test]
fn anml_roundtrips_benchmarks() {
    for id in [
        BenchmarkId::Brill,
        BenchmarkId::SeqMatch6w6pWc, // includes counters and reset-free wiring
        BenchmarkId::ApPrng4,
    ] {
        let bench = id.build(Scale::Tiny);
        let xml = anml::to_anml(&bench.automaton, id.name());
        let back = anml::from_anml(&xml)
            .unwrap_or_else(|e| panic!("{} failed ANML roundtrip: {e}", id.name()));
        assert_eq!(bench.automaton, back, "{} ANML mismatch", id.name());
    }
}

#[test]
fn engine_selection_matches_benchmark_shapes() {
    // RF range chains: acyclic, wide classes, no literals -> NFA.
    for id in [
        BenchmarkId::RandomForestA,
        BenchmarkId::RandomForestB,
        BenchmarkId::RandomForestC,
    ] {
        let (choice, _) = select_session_engine(&id.build(Scale::Tiny).automaton).expect("valid");
        assert_eq!(choice, EngineChoice::Nfa, "{}", id.name());
    }
    let rf = BenchmarkId::RandomForestB.build(Scale::Tiny);
    // Regex-derived Protomata -> lazy DFA.
    let proto = BenchmarkId::Protomata.build(Scale::Tiny);
    let (choice, _) = select_session_engine(&proto.automaton).expect("valid");
    assert_eq!(choice, EngineChoice::LazyDfa);
    // Counter benchmarks -> NFA.
    let spm = BenchmarkId::SeqMatch6w6pWc.build(Scale::Tiny);
    let (choice, _) = select_session_engine(&spm.automaton).expect("valid");
    assert_eq!(choice, EngineChoice::Nfa);
    // Whatever is selected must produce the NFA-canonical report stream.
    for bench in [rf, proto] {
        let window = bench.input.len().min(5_000);
        let input = &bench.input[..window];
        let expected = whole_scan(&bench.automaton, input);
        let (_, mut engine) = select_session_engine(&bench.automaton).expect("valid");
        let mut sink = CollectSink::new();
        engine.scan(input, &mut sink);
        assert_eq!(expected, sink.sorted_reports());
    }
}
