//! Prefilter soundness audit for fuzzy (error-layer) automata.
//!
//! Gating an edit-distance mesh on an exact literal is unsound: at
//! `k >= 1` the automaton must accept occurrences in which any byte of
//! the pattern has been edited away, so no exact factor is required of
//! every accepting path. The analysis must therefore refuse fuzzy
//! components (`WeakLiteral`), pushing them into the fully simulated
//! fallback — on *both* literal-extraction paths: the dominator
//! computation for components up to 4096 states and the suffix-spine
//! walk above it. These tests pin that refusal and differentially check
//! `PrefilterEngine` against the baseline NFA on inputs whose only
//! occurrences are mutated (the exact literal never appears), where a
//! literal-gated fuzzy component would go blind.

use automatazoo::core::stats::{component_profiles, prefilter_analysis, PrefilterBlock};
use automatazoo::core::Automaton;
use automatazoo::engines::{
    CollectSink, Engine, NfaEngine, PrefilterEngine, Report, StreamingEngine,
};
use automatazoo::fuzzy::{fuzzy_from_bytes, EditProfile};
use proptest::prelude::*;

fn baseline_reports(a: &Automaton, input: &[u8]) -> Vec<Report> {
    let mut engine = NfaEngine::new(a).expect("valid");
    engine.set_quiescent_skip(false);
    let mut sink = CollectSink::new();
    engine.scan(input, &mut sink);
    sink.sorted_reports()
}

fn prefilter_reports(a: &Automaton, input: &[u8]) -> Vec<Report> {
    let mut engine = PrefilterEngine::new(a).expect("valid");
    let mut sink = CollectSink::new();
    engine.scan(input, &mut sink);
    sink.sorted_reports()
}

/// Every reporting component of `a` must be refused by the analysis
/// with `WeakLiteral` — no exact factor gates an error layer.
fn assert_unprefilterable(a: &Automaton, what: &str) {
    for (c, cp) in prefilter_analysis(a, &component_profiles(a))
        .iter()
        .enumerate()
    {
        if !cp.profile.reporting {
            continue;
        }
        assert!(
            !cp.is_prefilterable(),
            "{what}: component {c} was admitted to the literal gate, \
             which is unsound at edit distance >= 1"
        );
        assert_eq!(
            cp.block,
            Some(PrefilterBlock::WeakLiteral),
            "{what}: component {c} should be refused for lack of a \
             required factor, not for shape"
        );
    }
}

#[test]
fn error_layers_defeat_literal_extraction() {
    // Levenshtein and Hamming meshes alike: the k = 0 spine alone would
    // yield a strong literal, but every k >= 1 report state reaches its
    // report through wide error-track classes, so the per-report-state
    // factor requirement fails and the whole component falls back.
    for profile in [EditProfile::LEVENSHTEIN, EditProfile::HAMMING] {
        for k in 1..=3usize {
            let (a, _) =
                fuzzy_from_bytes(b"exploit_update_00231", k, profile, 0).expect("well-formed");
            assert_unprefilterable(&a, &format!("{profile:?} k={k}"));
        }
    }
}

#[test]
fn prefilter_matches_nfa_when_only_mutated_occurrences_exist() {
    // Fuzzy patterns alongside plain literal words: the words are gated,
    // the meshes must ride the fallback. The stimulus contains each
    // fuzzy pattern only in 1-edit mutated form — an engine that gated
    // the mesh on its exact literal would drop every one of these.
    let mut a = Automaton::new();
    for (i, p) in [&b"exploit_admin"[..], b"select_union", b"passwd_shell"]
        .iter()
        .enumerate()
    {
        let (f, _) = fuzzy_from_bytes(p, 1, EditProfile::LEVENSHTEIN, i as u32).expect("valid");
        a.append(&f);
    }
    for (i, w) in [&b"config"[..], b"script"].iter().enumerate() {
        let classes: Vec<automatazoo::core::SymbolClass> = w
            .iter()
            .map(|&b| automatazoo::core::SymbolClass::from_byte(b))
            .collect();
        let (_, last) = a.add_chain(&classes, automatazoo::core::StartKind::AllInput);
        a.set_report(last, 100 + i as u32);
    }
    let pf = PrefilterEngine::new(&a).expect("valid");
    assert!(
        pf.component_count() >= 2,
        "the literal words should be gated"
    );
    assert!(pf.has_fallback(), "the meshes must be fully simulated");

    // One substitution, one deletion, one insertion — and one exact
    // occurrence of a gated word as a control.
    let input = b"zz exploit_admjn zz selct_union zz passwd_sthell zz config zz".to_vec();
    let expected = baseline_reports(&a, &input);
    assert!(
        expected.iter().filter(|r| r.code.0 < 100).count() >= 3,
        "every mutated plant should be found at k = 1: {expected:?}"
    );
    assert_eq!(expected, prefilter_reports(&a, &input));

    // The same stream in uneven chunks: gate state and fallback state
    // must both carry across feed boundaries.
    let mut engine = PrefilterEngine::new(&a).expect("valid");
    let mut sink = CollectSink::new();
    engine.scan_chunks(input.chunks(7), &mut sink);
    assert_eq!(expected, sink.sorted_reports());
}

#[test]
fn giant_meshes_take_the_suffix_spine_path_and_stay_sound() {
    // Above 4096 states the analysis switches from dominators to the
    // unique-predecessor suffix-spine walk; a 600-byte pattern at k = 3
    // crosses that cap inside a single component. The walk must also
    // refuse the mesh: every error-layer report state either carries a
    // wide class or has multiple predecessors.
    let pattern: Vec<u8> = (0..600).map(|i| b'a' + (i % 4) as u8).collect();
    let (a, stats) = fuzzy_from_bytes(&pattern, 3, EditProfile::HAMMING, 9).expect("valid");
    assert!(
        a.state_count() > 4096,
        "need to cross the dominator cap, got {}",
        a.state_count()
    );
    assert_eq!(stats.layers, 4);
    assert_unprefilterable(&a, "600x3 hamming");

    // A 3-substituted occurrence, with the exact literal absent.
    let mut mutated = pattern.clone();
    for at in [10usize, 300, 590] {
        mutated[at] = if mutated[at] == b'a' { b'd' } else { b'a' };
    }
    let mut input = vec![b'x'; 256];
    input.extend_from_slice(&mutated);
    input.extend_from_slice(&[b'x'; 256]);
    let expected = baseline_reports(&a, &input);
    assert!(
        !expected.is_empty(),
        "the 3-substituted plant must be found"
    );
    assert_eq!(expected, prefilter_reports(&a, &input));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random pattern x edit budget x profile: the analysis always
    /// refuses the mesh, and the prefilter engine stays report-identical
    /// to the baseline on a stream whose plant is mutated.
    #[test]
    fn random_fuzzy_meshes_are_refused_and_sound(
        pattern in proptest::collection::vec(
            proptest::sample::select(vec![b'a', b'b', b'c', b'd']), 6..14),
        k in 1..=2usize,
        profile in proptest::sample::select(vec![
            EditProfile::LEVENSHTEIN,
            EditProfile::HAMMING,
            EditProfile { substitutions: true, insertions: true, deletions: false },
        ]),
        mut_at_frac in 0..100usize,
        filler in proptest::collection::vec(
            proptest::sample::select(vec![b'x', b'y', b'z']), 40..120),
    ) {
        let (a, _) = fuzzy_from_bytes(&pattern, k, profile, 0).expect("valid");
        assert_unprefilterable(&a, "random mesh");

        // Substitutions are enabled in every sampled profile, so a
        // 1-substituted plant is always within the budget.
        let mut mutated = pattern.clone();
        let at = mut_at_frac * (mutated.len() - 1) / 99;
        mutated[at] = if mutated[at] == b'a' { b'b' } else { b'a' };
        let mut input = filler.clone();
        input.extend_from_slice(&mutated);
        input.extend_from_slice(&filler);

        let expected = baseline_reports(&a, &input);
        prop_assert!(!expected.is_empty(), "mutated plant must be found at k >= 1");
        prop_assert_eq!(expected, prefilter_reports(&a, &input));
    }
}
