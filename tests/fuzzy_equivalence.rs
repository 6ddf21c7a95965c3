//! Containment gate for the zoo's two fuzzy families (fuzzy-Snort,
//! fuzzy-DNA): each must accept strictly more of one shared stimulus at
//! `k = 1` than at `k = 0`, and no less at `k = 2`.

use automatazoo::core::Automaton;
use automatazoo::fuzzy::FuzzyStats;
use automatazoo::oracle::{EngineKind, EngineUnderTest};
use automatazoo::zoo::fuzzy::{build_dna, build_snort, FuzzyParams};
use automatazoo::zoo::Scale;

/// Containment gate for one zoo fuzzy family at tiny scale: budgets
/// `k = 0, 1, 2` over the same pattern set scan the `k = 1` stimulus
/// (exact plus 1-edit-mutated plants). A bigger budget accepts a
/// superset of the language, and the mutated plants need `k >= 1`, so
/// the mesh's error layers are doing real work.
fn assert_reports_grow_with_k(
    family: &str,
    published: FuzzyParams,
    build: fn(&FuzzyParams) -> (Automaton, Vec<u8>, FuzzyStats),
) {
    let params = |k| FuzzyParams {
        max_edits: k,
        patterns: Scale::Tiny.count(published.patterns),
        input_len: Scale::Tiny.input(published.input_len),
        ..published
    };
    let builds: Vec<_> = (0..=2).map(|k| build(&params(k))).collect();
    let stimulus = &builds[1].1;
    let counts: Vec<usize> = builds
        .iter()
        .enumerate()
        .map(|(k, (mesh, _, stats))| {
            assert_eq!(stats.layers, k + 1, "{family} k={k}");
            EngineUnderTest::build(EngineKind::NfaNoSkip, mesh)
                .expect("valid automaton")
                .expect("NFA applies to every automaton")
                .run_block(stimulus)
                .len()
        })
        .collect();
    assert!(
        counts[0] < counts[1] && counts[1] <= counts[2],
        "{family}: report counts must grow with k, strictly from 0 to 1: {counts:?}"
    );
}

#[test]
fn fuzzy_snort_reports_grow_with_k() {
    assert_reports_grow_with_k("fuzzy_snort", FuzzyParams::published_snort(1), build_snort);
}

#[test]
fn fuzzy_dna_reports_grow_with_k() {
    assert_reports_grow_with_k("fuzzy_dna", FuzzyParams::published_dna(1), build_dna);
}
