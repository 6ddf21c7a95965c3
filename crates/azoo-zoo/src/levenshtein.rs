//! Levenshtein (edit-distance) mesh automata (Tracy et al.; AutomataZoo
//! Section X).
//!
//! A Levenshtein filter for pattern `p` and distance `d` reports at every
//! input offset where some suffix of the stream so far is within edit
//! distance `d` of `p` (insertions, deletions, substitutions). The
//! construction is the classic Levenshtein NFA over configurations
//! `(consumed, edits)` with deletion ε-moves pre-expanded by closure, and
//! made homogeneous with two tracks per configuration: one entered by a
//! match (class `{p[i]}`) and one entered by an insert/substitute (class
//! `Σ`).
//!
//! azoo-fuzzy builds the mesh: it is the full edit profile,
//! [`EditProfile::LEVENSHTEIN`].

use azoo_core::Automaton;
use azoo_fuzzy::{fuzzy_from_bytes, EditProfile};
use azoo_workloads::dna;

/// Parameters for the Levenshtein benchmark family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevenshteinParams {
    /// Encoded pattern length `l`.
    pub length: usize,
    /// Edit-distance threshold `d`.
    pub distance: usize,
    /// Number of filters `N`.
    pub filters: usize,
    /// Input length in base-pairs.
    pub input_len: usize,
    /// Generation seed.
    pub seed: u64,
}

impl LevenshteinParams {
    /// The paper's three published variants (Table V): `19x3`, `24x5`,
    /// `37x10`, each with 1,000 filters.
    pub fn published(length: usize, distance: usize) -> Self {
        LevenshteinParams {
            length,
            distance,
            filters: 1000,
            input_len: 1 << 20,
            seed: 0x1EE7 + (length * 100 + distance) as u64,
        }
    }
}

/// Builds the full benchmark: `filters` filters over random DNA patterns,
/// plus the standard random-DNA input.
pub fn build(params: &LevenshteinParams) -> (Automaton, Vec<u8>) {
    let mut a = Automaton::new();
    for i in 0..params.filters {
        let pattern = dna::random_dna(params.seed ^ (i as u64 + 1), params.length);
        let (f, _) = fuzzy_from_bytes(
            &pattern,
            params.distance,
            EditProfile::LEVENSHTEIN,
            i as u32,
        )
        .expect("distance below pattern length");
        a.append(&f);
    }
    let input = dna::random_dna(params.seed ^ 0xFFFF_0002, params.input_len);
    (a, input)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use azoo_engines::{CollectSink, Engine, NfaEngine};

    fn mesh(pattern: &[u8], d: usize, profile: EditProfile) -> Automaton {
        fuzzy_from_bytes(pattern, d, profile, 0).unwrap().0
    }

    /// Sellers' algorithm: offsets where some stream suffix is within
    /// edit distance d of the pattern.
    fn naive_levenshtein(pattern: &[u8], d: usize, input: &[u8]) -> Vec<u64> {
        let l = pattern.len();
        let mut prev: Vec<usize> = (0..=l).collect();
        let mut out = Vec::new();
        for (o, &c) in input.iter().enumerate() {
            let mut cur = vec![0usize; l + 1];
            for j in 1..=l {
                let sub = prev[j - 1] + usize::from(c != pattern[j - 1]);
                let ins = prev[j] + 1;
                let del = cur[j - 1] + 1;
                cur[j] = sub.min(ins).min(del);
            }
            if cur[l] <= d {
                out.push(o as u64);
            }
            prev = cur;
        }
        out
    }

    #[test]
    fn filter_agrees_with_sellers_dp() {
        let pattern = b"ACGTTGA";
        for d in 1..4 {
            let a = mesh(pattern, d, EditProfile::LEVENSHTEIN);
            a.validate().unwrap();
            let input = dna::random_dna(17, 300);
            let mut engine = NfaEngine::new(&a).unwrap();
            let mut sink = CollectSink::new();
            engine.scan(&input, &mut sink);
            let mut got: Vec<u64> = sink.reports().iter().map(|r| r.offset).collect();
            got.sort_unstable();
            got.dedup();
            assert_eq!(got, naive_levenshtein(pattern, d, &input), "d={d}");
        }
    }

    #[test]
    fn detects_each_edit_kind() {
        let a = mesh(b"ACGTACGT", 1, EditProfile::LEVENSHTEIN);
        let mut engine = NfaEngine::new(&a).unwrap();
        for (mutated, kind) in [
            (&b"ACGTACGT"[..], "exact"),
            (&b"ACGAACGT"[..], "substitution"),
            (&b"ACGACGT"[..], "deletion"),
            (&b"ACGTTACGT"[..], "insertion"),
        ] {
            let mut padded = b"CCCC".to_vec();
            padded.extend_from_slice(mutated);
            padded.extend_from_slice(b"CCCC");
            let mut sink = CollectSink::new();
            engine.scan(&padded, &mut sink);
            assert!(!sink.reports().is_empty(), "{kind} not detected");
        }
    }

    #[test]
    fn two_edits_not_detected_at_d1() {
        let a = mesh(b"AAAACCCCGGGG", 1, EditProfile::LEVENSHTEIN);
        let mut engine = NfaEngine::new(&a).unwrap();
        let mut sink = CollectSink::new();
        // Two substitutions, far apart.
        engine.scan(b"TTTT AATACCCCGGTG TTTT", &mut sink);
        assert!(sink.reports().is_empty());
    }

    #[test]
    fn edge_density_exceeds_hamming() {
        // Table I: Levenshtein meshes are much denser than Hamming.
        let lev = mesh(&dna::random_dna(2, 19), 3, EditProfile::LEVENSHTEIN);
        let ham = mesh(&dna::random_dna(2, 18), 3, EditProfile::HAMMING);
        let lev_density = lev.edge_count() as f64 / lev.state_count() as f64;
        let ham_density = ham.edge_count() as f64 / ham.state_count() as f64;
        assert!(
            lev_density > 1.5 * ham_density,
            "lev {lev_density} vs ham {ham_density}"
        );
    }

    #[test]
    fn benchmark_builds_per_filter_subgraphs() {
        let (a, input) = build(&LevenshteinParams {
            length: 9,
            distance: 2,
            filters: 5,
            input_len: 400,
            seed: 3,
        });
        let stats = azoo_core::AutomatonStats::compute(&a);
        assert_eq!(stats.subgraphs, 5);
        assert_eq!(input.len(), 400);
    }
}
