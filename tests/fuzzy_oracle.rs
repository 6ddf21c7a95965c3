//! A 1000-seed differential-oracle campaign over *fuzzy* automata —
//! edit-distance meshes from the `azoo-fuzzy` construction (random
//! pattern × `k <= 3` × edit-cost profile) on inputs spliced with
//! near-miss pattern copies — run through the full engine matrix in
//! block mode and under random streaming chunk plans, with zero
//! tolerated divergences.
//!
//! The bit-vector tier (`bitpar`) is in the matrix: it runs on every
//! seed whose machine it admits (every pattern a Levenshtein or Hamming
//! mesh, one profile, some budget above zero), and the campaign counts
//! those seeds so the tier cannot silently drop out of it.
//!
//! Passes are left out (`check_passes: false`): the pass cross-checks
//! have their own thousand-seed campaign (`tests/reduce_oracle.rs`),
//! and an engine-only run keeps this one inside the debug-profile test
//! budget. Any divergence is shrunk and banked under `tests/bugbank/`
//! before the test fails.

use std::path::Path;

use automatazoo::engines::BitParallelEngine;
use automatazoo::oracle::{
    gen_fuzzy_automaton, run_seed, shrink, BugbankEntry, EngineKind, GenConfig, OracleConfig,
    OracleRng,
};

const SEEDS: u64 = 1000;

/// Seeds of the 1000 whose machine the bit-vector tier admits: 277 were
/// measured when the tier landed (the generator's two mixed edit
/// profiles and zero-budget-only machines account for most refusals);
/// the floor leaves room for generator tweaks, not for the tier
/// dropping out.
const MIN_BITPAR_SEEDS: usize = 250;

#[test]
fn thousand_seed_fuzzy_engine_campaign_is_divergence_free() {
    let cfg = OracleConfig {
        gen: GenConfig {
            fuzzy: true,
            ..GenConfig::default()
        },
        engines: EngineKind::default_set(),
        check_passes: false,
    };
    let mut divergences = Vec::new();
    let mut bitpar_seeds = 0;
    for seed in 0..SEEDS {
        // The same first draw `run_seed` makes.
        let (a, _) = gen_fuzzy_automaton(&mut OracleRng::new(seed), &cfg.gen);
        bitpar_seeds += usize::from(BitParallelEngine::new(&a).is_ok());
        if let Some(d) = run_seed(seed, &cfg) {
            let d = shrink(&d);
            let name = format!("fuzzy-oracle-seed-{seed}");
            if let Some(entry) =
                BugbankEntry::from_divergence(&name, "found by tests/fuzzy_oracle.rs", &d)
            {
                // Bank the witness before failing: the repro outlives
                // this test run.
                let _ = entry.save(Path::new("tests/bugbank"));
            }
            divergences.push(format!(
                "seed {seed} diverged on {}: expected {:?}, got {:?} (banked as {name})",
                d.subject.label(),
                d.expected,
                d.got
            ));
        }
    }
    assert!(
        divergences.is_empty(),
        "fuzzy engine campaign found divergences:\n{}",
        divergences.join("\n")
    );
    println!("bit-vector tier admitted {bitpar_seeds} of {SEEDS} seeds");
    assert!(
        bitpar_seeds >= MIN_BITPAR_SEEDS,
        "bit-vector tier admitted only {bitpar_seeds} of {SEEDS} seeds"
    );
}

/// The campaign only proves cross-engine agreement if the matrix really
/// holds every adapter configuration — pin the portfolio's breadth and
/// that the generator in this mode emits genuine multi-layer meshes.
#[test]
fn fuzzy_campaign_matrix_covers_all_engine_configs() {
    let engines = EngineKind::default_set();
    assert!(
        engines.len() >= 12,
        "engine matrix shrank to {} configs",
        engines.len()
    );
    for label in [
        "nfa",
        "nfa-noskip",
        "lazydfa",
        "prefilter",
        "bitpar",
        "parallel",
    ] {
        assert!(
            engines
                .iter()
                .any(|k| k.label() == label || k.label().starts_with(&format!("{label}:"))),
            "{label} missing from the default engine set"
        );
    }

    let cfg = GenConfig {
        fuzzy: true,
        ..GenConfig::default()
    };
    let mut multi_layer = 0usize;
    for seed in 0..100 {
        let mut rng = automatazoo::oracle::OracleRng::new(seed);
        let (a, patterns) = automatazoo::oracle::gen_fuzzy_automaton(&mut rng, &cfg);
        assert_eq!(a.validate_all(), Vec::new(), "seed {seed}");
        if a.report_states().len() > patterns.len() {
            multi_layer += 1;
        }
    }
    assert!(
        multi_layer >= 30,
        "only {multi_layer}/100 seeds produced multi-layer meshes"
    );
}
