//! Differential testing for the SIMD tier: every vector kernel has a
//! scalar twin, and every twin pair must compute the same function
//! byte-identically. The kernels are compared in-process through the
//! `*_with` entry points, pinning both sides of each comparison — the
//! ambient [`level`](automatazoo::simd::level) is cached per process, so
//! the `AZOO_FORCE_SCALAR=1` path is exercised by a dedicated CI job
//! running this whole suite forced scalar. The engines built on the
//! kernels — the NFA's wake-byte skip, and the literal prefilter whose
//! remainder runs on it — are compared against the baseline NFA on every
//! benchmark in the suite, in block mode and across streaming chunk
//! boundaries.

use automatazoo::core::Automaton;
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
}

fn baseline_reports(a: &Automaton, input: &[u8]) -> Vec<Report> {
    let mut engine = NfaEngine::new(a).expect("valid");
    engine.set_quiescent_skip(false);
    let mut sink = CollectSink::new();
    engine.scan(input, &mut sink);
    sink.sorted_reports()
}

/// Feeds `window` in `chunk_len`-byte pieces (one empty final feed for an
/// empty window) after a `reset_stream`, so a reused engine must also
/// clear every carried wake-skip and gate state.
fn fed_reports<E: StreamingEngine>(engine: &mut E, window: &[u8], chunk_len: usize) -> Vec<Report> {
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
    sink.sorted_reports()
}

/// The whole suite at tiny scale: on every benchmark, the SIMD-backed
/// tiers (the NFA's wake-byte skip, the prefilter) match the baseline NFA
/// in block mode and across uneven streaming chunks (1-byte and
/// prime-sized cuts drift through every wake byte and literal).
#[test]
fn all_benchmarks_match_baseline_on_simd_tiers() {
    for id in BenchmarkId::ALL {
        let bench = id.build(Scale::Tiny);
        let window = bench.input.len().min(4_000);
        let input = &bench.input[..window];
        let reference = baseline_reports(&bench.automaton, input);

        // 1-byte feeds cost a full feed cycle per input symbol, so they
        // run over a shorter prefix; prime-sized chunks cover the whole
        // window.
        let tiny_window = &input[..input.len().min(600)];
        let tiny_reference = baseline_reports(&bench.automaton, tiny_window);
        let plans = [
            (997usize, input, &reference),
            (1, tiny_window, &tiny_reference),
        ];

        let mut skip = NfaEngine::new(&bench.automaton).expect("valid");
        let mut sink = CollectSink::new();
        skip.scan(input, &mut sink);
        assert_eq!(
            reference,
            sink.sorted_reports(),
            "wake skip diverged on {} (block)",
            id.name()
        );
        for (chunk_len, window, expected) in plans {
            assert_eq!(
                expected,
                &fed_reports(&mut skip, window, chunk_len),
                "wake skip diverged on {} (chunks of {chunk_len})",
                id.name()
            );
        }

        let mut pf = PrefilterEngine::new(&bench.automaton).expect("valid");
        let mut sink = CollectSink::new();
        pf.scan(input, &mut sink);
        assert_eq!(
            reference,
            sink.sorted_reports(),
            "prefilter diverged on {} (block)",
            id.name()
        );
        for (chunk_len, window, expected) in plans {
            assert_eq!(
                expected,
                &fed_reports(&mut pf, window, chunk_len),
                "prefilter diverged on {} (chunks of {chunk_len})",
                id.name()
            );
        }
    }
}
