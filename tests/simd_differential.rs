//! Differential testing for the SIMD tier: every vector kernel has a
//! scalar twin, and every twin pair must compute the same function
//! byte-identically. The kernels are compared in-process through the
//! `*_with` entry points (pinning both sides of each comparison — the
//! ambient [`level`](automatazoo::simd::level) is cached per process, so
//! the `AZOO_FORCE_SCALAR=1` path is exercised by a dedicated CI job
//! running this whole suite forced scalar); the engine built on them
//! (the Teddy-triggered prefilter) is compared against the baseline NFA
//! on random automata and on every benchmark in the suite, in block mode
//! and across streaming chunk boundaries.

use automatazoo::core::{Automaton, StartKind, StateId, SymbolClass};
use automatazoo::engines::{
    CollectSink, Engine, NfaEngine, PrefilterEngine, Report, StreamingEngine,
};
use automatazoo::simd::{supported, ByteFinder, SimdLevel, Teddy, TeddyMatch};
use automatazoo::zoo::{BenchmarkId, Scale};
use proptest::prelude::*;

/// Every distinct dispatch tier the host can execute. The scalar twin is
/// always present; duplicates collapse on hosts without AVX2/SSSE3.
fn host_levels() -> Vec<SimdLevel> {
    let mut levels = vec![
        SimdLevel::Scalar,
        supported(SimdLevel::Ssse3),
        supported(SimdLevel::Avx2),
    ];
    levels.sort();
    levels.dedup();
    levels
}

fn baseline_reports(a: &Automaton, input: &[u8]) -> Vec<Report> {
    let mut engine = NfaEngine::new(a).expect("valid");
    engine.set_quiescent_skip(false);
    let mut sink = CollectSink::new();
    engine.scan(input, &mut sink);
    sink.sorted_reports()
}

/// Reference multi-literal search: naive position-by-position
/// `starts_with`, reported in the same `(start, pattern)` order Teddy
/// uses.
fn naive_multifind(patterns: &[Vec<u8>], hay: &[u8]) -> Vec<TeddyMatch> {
    let mut out = Vec::new();
    for start in 0..hay.len() {
        for (pi, p) in patterns.iter().enumerate() {
            if hay[start..].starts_with(p) {
                out.push(TeddyMatch {
                    start,
                    pattern: pi as u32,
                });
            }
        }
    }
    out.sort();
    out
}

fn arb_patterns() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(
        proptest::collection::vec(
            proptest::sample::select(vec![b'a', b'b', b'c', b'q', 0u8, 0xff]),
            2..7,
        ),
        1..12,
    )
}

fn arb_hay() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        proptest::sample::select(vec![b'a', b'b', b'c', b'q', 0u8, 0xff, b' ']),
        0..220,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Teddy at every dispatch tier vs the naive reference.
    #[test]
    fn teddy_levels_match_naive(patterns in arb_patterns(), hay in arb_hay()) {
        let Some(mut teddy) = Teddy::new(&patterns) else {
            // Pattern set outside Teddy's envelope (dedup of the masks
            // rejected it); nothing to compare.
            return Ok(());
        };
        let expected = naive_multifind(&patterns, &hay);
        for level in host_levels() {
            let mut got = Vec::new();
            teddy.find_with(level, &hay, &mut got);
            got.sort();
            prop_assert_eq!(&got, &expected, "teddy diverged at {:?}", level);
        }
    }

    /// The wake-byte finder at every dispatch tier vs `Iterator::position`.
    #[test]
    fn byte_finder_levels_match_position(
        members in proptest::collection::vec(0..=255u8, 0..9),
        hay in arb_hay(),
    ) {
        let finder = ByteFinder::from_bytes(&members);
        let expected = hay.iter().position(|b| members.contains(b));
        for level in host_levels() {
            prop_assert_eq!(
                finder.find_with(level, &hay),
                expected,
                "byte finder diverged at {:?}",
                level
            );
        }
    }

    /// The scalar-trigger prefilter (forced Aho–Corasick) and the ambient
    /// one (Teddy where it applies) must both match the baseline — any
    /// divergence between the two configurations is a Teddy trigger bug.
    #[test]
    fn prefilter_trigger_configs_agree(
        a in arb_random_automaton(),
        input in arb_hay(),
    ) {
        let reference = baseline_reports(&a, &input);
        let mut ambient = PrefilterEngine::new(&a).expect("valid");
        let mut sink = CollectSink::new();
        ambient.scan(&input, &mut sink);
        prop_assert_eq!(&reference, &sink.sorted_reports(), "ambient prefilter diverged");
        let mut scalar = PrefilterEngine::with_scalar_trigger(&a).expect("valid");
        let mut sink = CollectSink::new();
        scalar.scan(&input, &mut sink);
        prop_assert_eq!(&reference, &sink.sorted_reports(), "scalar-trigger prefilter diverged");
    }
}

/// Random counter-free automaton over `{a..d}`: cycles, fan-out, anchors
/// — the same family as `tests/differential.rs`.
fn arb_random_automaton() -> impl Strategy<Value = Automaton> {
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

/// The whole suite at tiny scale: on every benchmark, the SIMD-backed
/// tiers (ambient prefilter, scalar-trigger prefilter) match the baseline
/// NFA in block mode and across uneven streaming chunks (1-byte and
/// prime-sized cuts drift through every literal and seam carry).
#[test]
fn all_benchmarks_match_baseline_on_simd_tiers() {
    for id in BenchmarkId::ALL {
        let bench = id.build(Scale::Tiny);
        let window = bench.input.len().min(4_000);
        let input = &bench.input[..window];
        let reference = baseline_reports(&bench.automaton, input);

        let engines: [(&str, PrefilterEngine); 2] = [
            (
                "prefilter",
                PrefilterEngine::new(&bench.automaton).expect("valid"),
            ),
            (
                "prefilter-scalar",
                PrefilterEngine::with_scalar_trigger(&bench.automaton).expect("valid"),
            ),
        ];

        // 1-byte feeds cost a full feed cycle per input symbol, so they
        // run over a shorter prefix; prime-sized chunks cover the whole
        // window.
        let tiny_window = &input[..input.len().min(600)];
        let tiny_reference = baseline_reports(&bench.automaton, tiny_window);

        for (name, mut engine) in engines {
            let mut sink = CollectSink::new();
            engine.scan(input, &mut sink);
            assert_eq!(
                reference,
                sink.sorted_reports(),
                "{name} diverged on {} (block)",
                id.name()
            );
            for (chunk_len, window, expected) in [
                (997usize, input, &reference),
                (1, tiny_window, &tiny_reference),
            ] {
                let chunks: Vec<&[u8]> = if window.is_empty() {
                    vec![window]
                } else {
                    window.chunks(chunk_len).collect()
                };
                let mut sink = CollectSink::new();
                engine.reset_stream();
                let last = chunks.len() - 1;
                for (i, chunk) in chunks.iter().enumerate() {
                    engine.feed(chunk, i == last, &mut sink);
                }
                assert_eq!(
                    expected,
                    &sink.sorted_reports(),
                    "{name} diverged on {} (chunks of {chunk_len})",
                    id.name()
                );
            }
        }
    }
}
