//! Seeded generation of automata, inputs, and chunk plans.
//!
//! The generator's job is to hit engine corner cases with *small*
//! machines, so it is deliberately biased rather than uniform: a tiny
//! alphabet (so states collide and matches are frequent), a hefty dose
//! of start states and report codes, occasional wildcard classes,
//! counters in all three modes, end-of-data-gated reports, and report
//! codes both tiny and near `u32::MAX`. Every generated automaton
//! passes [`Automaton::validate`] by construction.

use azoo_core::{Automaton, CounterMode, ElementKind, Port, StartKind, SymbolClass};
use azoo_fuzzy::{fuzzy_from_bytes, EditProfile};

use crate::rng::OracleRng;

/// Tuning knobs for one generated test case.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Upper bound on generated state count (at least 1 is generated).
    pub max_states: usize,
    /// Whether counter elements may be generated.
    pub counters: bool,
    /// Upper bound on generated input length in bytes.
    pub max_input_len: usize,
    /// Streaming chunk plans tried per seed (in addition to block mode).
    pub chunk_plans: usize,
    /// Generate fuzzy (edit-distance mesh) automata instead of random
    /// graphs: [`gen_fuzzy_automaton`] machines over inputs seeded with
    /// near-miss pattern copies ([`gen_fuzzy_input`]).
    pub fuzzy: bool,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            max_states: 8,
            counters: true,
            max_input_len: 48,
            chunk_plans: 3,
            fuzzy: false,
        }
    }
}

/// Byte pool the generator draws symbol classes from. Small on purpose:
/// with three letters, random states share symbols and random inputs
/// actually traverse the machine.
const POOL: &[u8] = b"abz";

/// Generates a small valid automaton.
pub fn gen_automaton(rng: &mut OracleRng, cfg: &GenConfig) -> Automaton {
    let n = 1 + rng.below(cfg.max_states as u64) as usize;
    let mut a = Automaton::with_capacity(n);
    for i in 0..n {
        // State 0 stays an STE so a start state can always be forced.
        if i > 0 && cfg.counters && rng.chance(1, 6) {
            let mode = match rng.below(3) {
                0 => CounterMode::Latch,
                1 => CounterMode::Pulse,
                _ => CounterMode::Roll,
            };
            a.add_counter(1 + rng.below(4) as u32, mode);
        } else {
            let class = match rng.below(8) {
                0 => SymbolClass::FULL,
                1 | 2 => {
                    let mut c = SymbolClass::from_byte(*rng.pick(POOL));
                    c.insert(*rng.pick(POOL));
                    c
                }
                _ => SymbolClass::from_byte(*rng.pick(POOL)),
            };
            let start = if rng.chance(1, 3) {
                if rng.chance(1, 4) {
                    StartKind::StartOfData
                } else {
                    StartKind::AllInput
                }
            } else {
                StartKind::None
            };
            a.add_ste(class, start);
        }
    }
    // Edges: small random out-degrees, with occasional reset edges into
    // counters. Duplicate (target, port) pairs are skipped.
    let ids: Vec<_> = a.iter().map(|(id, _)| id).collect();
    for &from in &ids {
        let deg = rng.below(3);
        for _ in 0..deg {
            let to = ids[rng.below(n as u64) as usize];
            let port = if a.element(to).is_counter() && rng.chance(1, 4) {
                Port::Reset
            } else {
                Port::Activate
            };
            if a.successors(from)
                .iter()
                .any(|e| e.to == to && e.port == port)
            {
                continue;
            }
            match port {
                Port::Activate => a.add_edge(from, to),
                Port::Reset => a.add_reset_edge(from, to),
            }
        }
    }
    // Reports: frequent, with occasional huge codes and $-anchoring.
    for &id in &ids {
        if rng.chance(1, 3) {
            let code = if rng.chance(1, 10) {
                u32::MAX - rng.below(3) as u32
            } else {
                rng.below(5) as u32
            };
            a.set_report(id, code);
            if rng.chance(1, 4) {
                a.set_report_eod_only(id, true);
            }
        }
    }
    // Force the global invariants the random draws may have missed: at
    // least one start state and at least one report state (a reportless
    // machine would make the whole seed vacuous).
    if !a.iter().any(|(_, e)| e.start_kind() != StartKind::None) {
        if let ElementKind::Ste { start, .. } = &mut a.element_mut(ids[0]).kind {
            *start = StartKind::AllInput;
        }
    }
    if a.report_states().is_empty() {
        a.set_report(ids[0], 0);
    }
    debug_assert!(
        a.validate().is_ok(),
        "generator produced {:?}",
        a.validate()
    );
    a
}

/// Edit-cost profiles the fuzzy generator samples: the two named
/// profiles plus both mixed pairs, so every down-edge kind is exercised
/// alone and in combination.
const FUZZY_PROFILES: [EditProfile; 4] = [
    EditProfile::LEVENSHTEIN,
    EditProfile::HAMMING,
    EditProfile {
        substitutions: true,
        insertions: true,
        deletions: false,
    },
    EditProfile {
        substitutions: true,
        insertions: false,
        deletions: true,
    },
];

/// Generates a small fuzzy automaton: one or two patterns over `POOL`,
/// each compiled at a random edit budget `k <= 3` (always below the
/// pattern length) under a random edit-cost profile. Returns the
/// patterns alongside so [`gen_fuzzy_input`] can plant near misses.
pub fn gen_fuzzy_automaton(rng: &mut OracleRng, _cfg: &GenConfig) -> (Automaton, Vec<Vec<u8>>) {
    let mut a = Automaton::new();
    let mut patterns = Vec::new();
    let n = 1 + rng.below(2) as usize;
    for i in 0..n {
        let len = 2 + rng.below(6) as usize;
        let pattern: Vec<u8> = (0..len).map(|_| *rng.pick(POOL)).collect();
        let k = rng.below((len as u64).min(4)) as usize;
        let profile = FUZZY_PROFILES[rng.below(FUZZY_PROFILES.len() as u64) as usize];
        let (f, _) = fuzzy_from_bytes(&pattern, k, profile, i as u32)
            .expect("generated pattern is within construction bounds");
        a.append(&f);
        patterns.push(pattern);
    }
    // Occasionally $-anchor the whole machine: every accepting state of
    // a mesh may report, so eod gating exercises the engines' pending-
    // report paths on realistic (multi-report-state) automata.
    if rng.chance(1, 6) {
        for r in a.report_states() {
            a.set_report_eod_only(r, true);
        }
    }
    debug_assert!(
        a.validate().is_ok(),
        "fuzzy generator produced {:?}",
        a.validate()
    );
    (a, patterns)
}

/// Generates an input for a fuzzy automaton: `POOL` noise with, per
/// pattern, an occasional spliced-in copy carrying zero to two random
/// edits — near misses that straddle the machine's edit budget.
pub fn gen_fuzzy_input(rng: &mut OracleRng, cfg: &GenConfig, patterns: &[Vec<u8>]) -> Vec<u8> {
    let len = rng.below(cfg.max_input_len as u64 + 1) as usize;
    let mut input: Vec<u8> = (0..len).map(|_| *rng.pick(POOL)).collect();
    for p in patterns {
        if rng.chance(1, 4) {
            continue;
        }
        let mut copy = p.clone();
        for _ in 0..rng.below(3) {
            match rng.below(3) {
                0 if !copy.is_empty() => {
                    let at = rng.below(copy.len() as u64) as usize;
                    copy[at] = *rng.pick(POOL);
                }
                1 => {
                    let at = rng.below(copy.len() as u64 + 1) as usize;
                    copy.insert(at, *rng.pick(POOL));
                }
                _ if !copy.is_empty() => {
                    let at = rng.below(copy.len() as u64) as usize;
                    copy.remove(at);
                }
                _ => {}
            }
        }
        if !copy.is_empty() && copy.len() <= input.len() {
            let at = rng.below((input.len() - copy.len()) as u64 + 1) as usize;
            input[at..at + copy.len()].copy_from_slice(&copy);
        }
    }
    input
}

/// Generates an input drawn from the automaton's own alphabet plus one
/// guaranteed-miss byte, so both matching and non-matching transitions
/// are exercised. May be empty.
pub fn gen_input(rng: &mut OracleRng, cfg: &GenConfig, a: &Automaton) -> Vec<u8> {
    let alphabet = sample_alphabet(a);
    let len = rng.below(cfg.max_input_len as u64 + 1) as usize;
    (0..len).map(|_| *rng.pick(&alphabet)).collect()
}

/// Bytes worth sampling for `a`: up to two representatives per symbol
/// class plus one byte outside every class (if one exists).
pub fn sample_alphabet(a: &Automaton) -> Vec<u8> {
    let mut in_class = [false; 256];
    let mut alphabet: Vec<u8> = Vec::new();
    for (_, e) in a.iter() {
        if let Some(class) = e.class() {
            for b in class.iter() {
                in_class[b as usize] = true;
            }
            for b in class.iter().take(2) {
                if !alphabet.contains(&b) {
                    alphabet.push(b);
                }
            }
        }
    }
    if let Some(miss) = (0u16..256)
        .map(|b| b as u8)
        .find(|&b| !in_class[b as usize])
    {
        alphabet.push(miss);
    }
    if alphabet.is_empty() {
        alphabet.push(b'a');
    }
    alphabet
}

/// Generates a chunk plan: a list of chunk lengths summing to `len`.
///
/// Plans deliberately include the degenerate shapes streaming engines
/// get wrong: single-feed, all-one-byte, coincident cut points (empty
/// chunks mid-stream), and an empty final end-of-data chunk.
pub fn gen_chunk_plan(rng: &mut OracleRng, len: usize) -> Vec<usize> {
    let mut plan = match rng.below(4) {
        0 => vec![len],
        1 if len > 0 => vec![1; len],
        _ => {
            // Random cut points, repeats allowed (repeats yield empty
            // chunks mid-stream).
            let cuts = 1 + rng.below(4) as usize;
            let mut points: Vec<usize> = (0..cuts)
                .map(|_| rng.below(len as u64 + 1) as usize)
                .collect();
            points.sort_unstable();
            let mut plan = Vec::with_capacity(cuts + 1);
            let mut prev = 0;
            for p in points {
                plan.push(p - prev);
                prev = p;
            }
            plan.push(len - prev);
            if rng.chance(1, 2) {
                plan.push(0); // empty end-of-data chunk
            }
            plan
        }
    };
    if plan.is_empty() {
        plan.push(0);
    }
    debug_assert_eq!(plan.iter().sum::<usize>(), len);
    plan
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn generated_automata_validate() {
        let cfg = GenConfig::default();
        for seed in 0..200 {
            let mut rng = OracleRng::new(seed);
            let a = gen_automaton(&mut rng, &cfg);
            assert!(a.validate().is_ok(), "seed {seed}: {:?}", a.validate());
            assert!(!a.report_states().is_empty(), "seed {seed} has no reports");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::default();
        let mut r1 = OracleRng::new(42);
        let mut r2 = OracleRng::new(42);
        assert_eq!(gen_automaton(&mut r1, &cfg), gen_automaton(&mut r2, &cfg));
    }

    #[test]
    fn chunk_plans_sum_to_len() {
        for seed in 0..100 {
            let mut rng = OracleRng::new(seed);
            for len in [0usize, 1, 5, 33] {
                let plan = gen_chunk_plan(&mut rng, len);
                assert_eq!(plan.iter().sum::<usize>(), len);
                assert!(!plan.is_empty());
            }
        }
    }

    #[test]
    fn plans_include_empty_chunks_and_empty_eod() {
        let mut saw_empty_mid = false;
        let mut saw_empty_eod = false;
        for seed in 0..200 {
            let mut rng = OracleRng::new(seed);
            let plan = gen_chunk_plan(&mut rng, 16);
            if plan.last() == Some(&0) {
                saw_empty_eod = true;
            }
            if plan[..plan.len() - 1].contains(&0) {
                saw_empty_mid = true;
            }
        }
        assert!(saw_empty_mid && saw_empty_eod);
    }

    #[test]
    fn fuzzy_automata_validate_and_are_deterministic() {
        let cfg = GenConfig {
            fuzzy: true,
            ..GenConfig::default()
        };
        let mut saw_multi_layer = false;
        let mut saw_eod = false;
        for seed in 0..200 {
            let mut rng = OracleRng::new(seed);
            let (a, patterns) = gen_fuzzy_automaton(&mut rng, &cfg);
            assert_eq!(a.validate_all(), Vec::new(), "seed {seed}");
            assert!(!patterns.is_empty());
            assert!(!a.report_states().is_empty(), "seed {seed} has no reports");
            // Multi-layer machines have more report states than patterns.
            saw_multi_layer |= a.report_states().len() > patterns.len();
            saw_eod |= a.iter().any(|(_, e)| e.report_eod_only);
            let input = gen_fuzzy_input(&mut rng, &cfg, &patterns);
            assert!(input.len() <= cfg.max_input_len);

            let mut r2 = OracleRng::new(seed);
            let (a2, p2) = gen_fuzzy_automaton(&mut r2, &cfg);
            assert_eq!(a, a2);
            assert_eq!(patterns, p2);
            assert_eq!(input, gen_fuzzy_input(&mut r2, &cfg, &p2));
        }
        assert!(saw_multi_layer && saw_eod);
    }

    #[test]
    fn counters_and_eod_reports_are_reachable() {
        let cfg = GenConfig::default();
        let mut saw_counter = false;
        let mut saw_eod = false;
        for seed in 0..200 {
            let mut rng = OracleRng::new(seed);
            let a = gen_automaton(&mut rng, &cfg);
            saw_counter |= a.counter_count() > 0;
            saw_eod |= a.iter().any(|(_, e)| e.report_eod_only);
        }
        assert!(saw_counter && saw_eod);
    }
}
