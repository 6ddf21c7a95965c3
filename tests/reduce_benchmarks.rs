//! Reduction-tier acceptance over the whole zoo: every benchmark,
//! reduced by the full `reduce` pipeline (simulation quotient +
//! residual coverage fold), must validate cleanly, never grow, and
//! produce byte-identical report streams in block mode *and* across
//! streaming chunk boundaries, under both the reference NFA and the
//! literal-prefilter engine — and the tier must do real work: at least
//! five roster members lose states.

use automatazoo::core::Automaton;
use automatazoo::engines::{
    CollectSink, Engine, NfaEngine, PrefilterEngine, Report, StreamingEngine,
};
use automatazoo::passes::reduce;
use automatazoo::zoo::{BenchmarkId, Scale};

fn block_reports(engine: &mut dyn Engine, input: &[u8]) -> Vec<Report> {
    let mut sink = CollectSink::new();
    engine.scan(input, &mut sink);
    sink.sorted_reports()
}

fn chunked_reports<E: StreamingEngine>(engine: &mut E, input: &[u8]) -> Vec<Report> {
    let mut sink = CollectSink::new();
    // Prime chunk size so boundaries drift through pattern positions.
    engine.scan_chunks(input.chunks(997), &mut sink);
    sink.sorted_reports()
}

fn assert_equivalent(id: BenchmarkId, original: &Automaton, reduced: &Automaton, input: &[u8]) {
    let mut nfa_before = NfaEngine::new(original).expect("valid");
    let mut nfa_after = NfaEngine::new(reduced).expect("valid reduced");
    let reference = block_reports(&mut nfa_before, input);
    assert_eq!(
        reference,
        block_reports(&mut nfa_after, input),
        "{}: NFA block reports diverged after reduction",
        id.name()
    );
    assert_eq!(
        reference,
        chunked_reports(&mut nfa_after, input),
        "{}: NFA streaming reports diverged after reduction",
        id.name()
    );

    let mut pf_after = PrefilterEngine::new(reduced).expect("valid reduced");
    assert_eq!(
        reference,
        block_reports(&mut pf_after, input),
        "{}: prefilter block reports diverged after reduction",
        id.name()
    );
    assert_eq!(
        reference,
        chunked_reports(&mut pf_after, input),
        "{}: prefilter streaming reports diverged after reduction",
        id.name()
    );
}

#[test]
fn all_benchmarks_reduce_clean_and_report_identical() {
    let mut shrunk = 0;
    for id in BenchmarkId::ALL {
        let bench = id.build(Scale::Tiny);
        let (reduced, stats) = reduce(&bench.automaton);
        shrunk += usize::from(stats.states_after < stats.states_before);

        let violations = reduced.validate_all();
        assert!(
            violations.is_empty(),
            "{}: reduced automaton fails validation: {violations:?}",
            id.name()
        );
        assert!(
            stats.states_after <= stats.states_before,
            "{}: reduction grew the machine ({} -> {} states)",
            id.name(),
            stats.states_before,
            stats.states_after
        );
        assert_eq!(
            stats.states_after,
            reduced.state_count(),
            "{}: stats disagree with the machine",
            id.name()
        );

        let window = bench.input.len().min(8_000);
        assert_equivalent(id, &bench.automaton, &reduced, &bench.input[..window]);
    }
    assert!(
        shrunk >= 5,
        "reduction shrank only {shrunk} benchmarks: the tier is a no-op"
    );
}

/// Reduction is a fixpoint: feeding its own output back in changes
/// nothing, so serving stacks may re-reduce defensively at no cost.
#[test]
fn reduction_is_idempotent_on_benchmarks() {
    for id in [
        BenchmarkId::Snort,
        BenchmarkId::Brill,
        BenchmarkId::Hamming18x3,
        BenchmarkId::EntityResolution,
        BenchmarkId::ApPrng4,
    ] {
        let bench = id.build(Scale::Tiny);
        let (once, _) = reduce(&bench.automaton);
        let (twice, stats) = reduce(&once);
        assert_eq!(
            once.state_count(),
            twice.state_count(),
            "{}: second reduction changed the machine",
            id.name()
        );
        assert_eq!(
            stats.quotient_removed + stats.residual_removed,
            0,
            "{}: second reduction still found merges",
            id.name()
        );
    }
}
