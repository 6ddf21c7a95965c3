//! The differential oracle proper.
//!
//! For each seed the oracle generates one automaton, one input, and a
//! handful of chunk plans, establishes ground truth with the reference
//! engine ([`NfaEngine`](azoo_engines::NfaEngine) with quiescent skip
//! disabled, whole-input scan), and then demands byte-identical report
//! streams from every applicable engine in every mode — block and
//! streaming under each plan — and from the reference re-run across
//! every semantics-preserving pass under that pass's
//! [`InputMap`]. The first disagreement becomes
//! a [`Divergence`], which carries everything needed to replay it.

use azoo_core::Automaton;
use azoo_passes::{
    merge_prefixes, merge_suffixes, quotient_simulation, remove_dead, residual_merge, widen,
    InputMap,
};

use crate::adapter::{EngineKind, EngineUnderTest, Rep};
use crate::gen::{
    gen_automaton, gen_chunk_plan, gen_fuzzy_automaton, gen_fuzzy_input, gen_input, GenConfig,
};
use crate::rng::OracleRng;
use crate::shrink;

/// What the oracle exercises per seed.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// Test-case generation knobs.
    pub gen: GenConfig,
    /// Engine configurations to compare against the baseline.
    pub engines: Vec<EngineKind>,
    /// Whether to also compare across semantics-preserving passes.
    pub check_passes: bool,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            gen: GenConfig::default(),
            engines: EngineKind::default_set(),
            check_passes: true,
        }
    }
}

/// What was being compared when a divergence was found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Subject {
    /// An engine configuration versus the reference baseline.
    Engine(EngineKind),
    /// The reference engine on a transformed automaton versus the
    /// baseline mapped through the pass's input map.
    Pass {
        /// Pass name (`merge_prefixes`, `merge_suffixes`, `remove_dead`,
        /// `widen`, `quotient_simulation`, `residual_merge`).
        name: &'static str,
        /// The pass's input/offset convention.
        map: InputMap,
    },
    /// A deliberately planted bug (the mutation-kill self-check); lets
    /// mutant witnesses reuse the comparison and shrinking machinery.
    Mutation(crate::mutate::Mutation),
}

impl Subject {
    /// Stable display label (`engine:<label>` or `pass:<name>`).
    pub fn label(&self) -> String {
        match self {
            Subject::Engine(kind) => format!("engine:{}", kind.label()),
            Subject::Pass { name, .. } => format!("pass:{name}"),
            Subject::Mutation(m) => format!("mutation:{}", m.name()),
        }
    }
}

/// A reproduced disagreement with the reference engine.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The seed that produced the test case.
    pub seed: u64,
    /// What diverged.
    pub subject: Subject,
    /// The (pre-pass) automaton under test.
    pub automaton: Automaton,
    /// The raw (pre-map) input bytes.
    pub input: Vec<u8>,
    /// Chunk lengths if the divergence is streaming-only; `None` for a
    /// block-mode divergence.
    pub chunks: Option<Vec<usize>>,
    /// The baseline report stream (mapped through the pass's input map
    /// for pass subjects).
    pub expected: Vec<Rep>,
    /// What the subject produced instead.
    pub got: Vec<Rep>,
}

/// Ground truth: the reference NFA, quiescent skip off, whole input.
pub fn baseline(a: &Automaton, input: &[u8]) -> Vec<Rep> {
    let mut e = EngineUnderTest::build(EngineKind::NfaNoSkip, a)
        .expect("baseline automaton must be valid")
        .expect("reference engine applies to every automaton");
    e.run_block(input)
}

/// Applies a named pass, or `None` when the pass does not apply.
pub fn apply_pass(name: &str, a: &Automaton) -> Option<Automaton> {
    match name {
        "merge_prefixes" => Some(merge_prefixes(a).0),
        "merge_suffixes" => Some(merge_suffixes(a).0),
        "remove_dead" => Some(remove_dead(a)),
        "widen" => widen(a).ok(),
        "quotient_simulation" => Some(quotient_simulation(a).0),
        "residual_merge" => Some(residual_merge(a).0),
        _ => None,
    }
}

/// The passes the oracle checks, with their input maps.
pub const ORACLE_PASSES: &[(&str, InputMap)] = &[
    ("merge_prefixes", InputMap::Identity),
    ("merge_suffixes", InputMap::Identity),
    ("remove_dead", InputMap::Identity),
    ("widen", InputMap::Widen),
    ("quotient_simulation", InputMap::Identity),
    ("residual_merge", InputMap::Identity),
];

/// Compares one subject against the baseline. Returns the
/// `(expected, got)` pair on disagreement, `None` when the subject
/// agrees or does not apply to this automaton/input.
pub fn compare(
    subject: &Subject,
    a: &Automaton,
    input: &[u8],
    chunks: Option<&[usize]>,
) -> Option<(Vec<Rep>, Vec<Rep>)> {
    match subject {
        Subject::Engine(kind) => {
            let expected = baseline(a, input);
            let mut e = EngineUnderTest::build(*kind, a).ok()??;
            let got = match chunks {
                None => e.run_block(input),
                Some(plan) => e.run_chunks(input, plan),
            };
            (got != expected).then_some((expected, got))
        }
        Subject::Pass { name, map } => {
            // `widen` requires NUL-free input (NUL is the pad symbol).
            if *map == InputMap::Widen && input.contains(&0) {
                return None;
            }
            let transformed = apply_pass(name, a)?;
            if transformed.validate().is_err() {
                // An invalid output is a pass bug in its own right; the
                // analyze-layer verifier owns that diagnostic. Here it
                // simply cannot be compared.
                return None;
            }
            let expected: Vec<Rep> = baseline(a, input)
                .into_iter()
                .filter_map(|(o, c)| map.map_offset(o).map(|o| (o, c)))
                .collect();
            let got = baseline(&transformed, &map.post_input(input));
            (got != expected).then_some((expected, got))
        }
        Subject::Mutation(m) => {
            let expected = baseline(a, input);
            let got = crate::mutate::mutated_run(*m, a, input, chunks)?;
            (got != expected).then_some((expected, got))
        }
    }
}

/// Runs one seed through the full matrix. Returns the first divergence.
pub fn run_seed(seed: u64, cfg: &OracleConfig) -> Option<Divergence> {
    let mut rng = OracleRng::new(seed);
    let (a, input) = if cfg.gen.fuzzy {
        let (a, patterns) = gen_fuzzy_automaton(&mut rng, &cfg.gen);
        let input = gen_fuzzy_input(&mut rng, &cfg.gen, &patterns);
        (a, input)
    } else {
        let a = gen_automaton(&mut rng, &cfg.gen);
        let input = gen_input(&mut rng, &cfg.gen, &a);
        (a, input)
    };
    let plans: Vec<Vec<usize>> = (0..cfg.gen.chunk_plans)
        .map(|_| gen_chunk_plan(&mut rng, input.len()))
        .collect();
    let divergence = |subject: Subject, chunks: Option<&[usize]>| -> Option<Divergence> {
        compare(&subject, &a, &input, chunks).map(|(expected, got)| Divergence {
            seed,
            subject,
            automaton: a.clone(),
            input: input.clone(),
            chunks: chunks.map(<[usize]>::to_vec),
            expected,
            got,
        })
    };
    for &kind in &cfg.engines {
        if let Some(d) = divergence(Subject::Engine(kind), None) {
            return Some(d);
        }
        for plan in &plans {
            if let Some(d) = divergence(Subject::Engine(kind), Some(plan)) {
                return Some(d);
            }
        }
    }
    if cfg.check_passes {
        for &(name, map) in ORACLE_PASSES {
            if let Some(d) = divergence(Subject::Pass { name, map }, None) {
                return Some(d);
            }
        }
    }
    None
}

/// Outcome of an [`run_range`] campaign.
#[derive(Debug, Clone, Default)]
pub struct OracleReport {
    /// Seeds exercised.
    pub seeds_run: u64,
    /// Divergences found (shrunk if requested), at most one per seed.
    pub divergences: Vec<Divergence>,
}

/// Runs seeds `start .. start + count`, optionally shrinking each
/// divergence to a minimal reproducer.
pub fn run_range(start: u64, count: u64, cfg: &OracleConfig, shrink_found: bool) -> OracleReport {
    let mut report = OracleReport::default();
    for seed in start..start.saturating_add(count) {
        report.seeds_run += 1;
        if let Some(d) = run_seed(seed, cfg) {
            let d = if shrink_found { shrink::shrink(&d) } else { d };
            report.divergences.push(d);
        }
    }
    report
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn current_engines_are_oracle_clean() {
        let cfg = OracleConfig::default();
        for seed in 0..60 {
            if let Some(d) = run_seed(seed, &cfg) {
                panic!(
                    "seed {seed} diverged on {}: expected {:?}, got {:?} (chunks {:?})",
                    d.subject.label(),
                    d.expected,
                    d.got,
                    d.chunks
                );
            }
        }
    }

    #[test]
    fn run_range_counts_seeds() {
        let cfg = OracleConfig {
            gen: GenConfig {
                max_states: 4,
                ..GenConfig::default()
            },
            ..OracleConfig::default()
        };
        let report = run_range(0, 10, &cfg, false);
        assert_eq!(report.seeds_run, 10);
        assert!(report.divergences.is_empty());
    }
}
