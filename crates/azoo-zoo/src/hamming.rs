//! Hamming-distance mesh automata (Roy & Aluru; AutomataZoo Section X).
//!
//! A Hamming filter for pattern `p` of length `l` and distance `d`
//! reports every input window of length `l` within Hamming distance `d`
//! of `p`. The mesh tracks `(position, mismatches)` with two state tracks
//! — one entered by matching `p[i]`, one by mismatching — which makes the
//! automaton homogeneous (the symbol class lives on the state).
//!
//! azoo-fuzzy builds the mesh: it is the substitution-only profile,
//! [`EditProfile::HAMMING`].

use azoo_core::Automaton;
use azoo_fuzzy::{fuzzy_from_bytes, EditProfile};
use azoo_workloads::dna;

/// Parameters for the Hamming benchmark family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HammingParams {
    /// Encoded pattern length `l`.
    pub length: usize,
    /// Mismatch threshold `d`.
    pub distance: usize,
    /// Number of filters `N`.
    pub filters: usize,
    /// Input length in base-pairs.
    pub input_len: usize,
    /// Generation seed.
    pub seed: u64,
}

impl HammingParams {
    /// The paper's three published variants (Table V): `18x3`, `22x5`,
    /// `31x10`, each with 1,000 filters.
    pub fn published(length: usize, distance: usize) -> Self {
        HammingParams {
            length,
            distance,
            filters: 1000,
            input_len: 1 << 20,
            seed: 0xA200 + (length * 100 + distance) as u64,
        }
    }
}

/// Builds the full benchmark: `filters` filters over random DNA patterns,
/// plus the standard random-DNA input stimulus.
pub fn build(params: &HammingParams) -> (Automaton, Vec<u8>) {
    let mut a = Automaton::new();
    for i in 0..params.filters {
        let pattern = dna::random_dna(params.seed ^ (i as u64 + 1), params.length);
        let (f, _) = fuzzy_from_bytes(&pattern, params.distance, EditProfile::HAMMING, i as u32)
            .expect("distance below pattern length");
        a.append(&f);
    }
    let input = dna::random_dna(params.seed ^ 0xFFFF_0001, params.input_len);
    (a, input)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use azoo_engines::{CollectSink, Engine, NfaEngine};

    fn mesh(pattern: &[u8], d: usize) -> Automaton {
        fuzzy_from_bytes(pattern, d, EditProfile::HAMMING, 0)
            .unwrap()
            .0
    }

    /// Reference: all window end-offsets within Hamming distance d.
    fn naive_hamming(pattern: &[u8], d: usize, input: &[u8]) -> Vec<u64> {
        let l = pattern.len();
        let mut out = Vec::new();
        for start in 0..input.len().saturating_sub(l - 1) {
            let mism = pattern
                .iter()
                .zip(&input[start..start + l])
                .filter(|(a, b)| a != b)
                .count();
            if mism <= d {
                out.push((start + l - 1) as u64);
            }
        }
        out
    }

    #[test]
    fn filter_agrees_with_naive_scan() {
        let pattern = b"ACGTAC";
        for d in 0..4 {
            let a = mesh(pattern, d);
            a.validate().unwrap();
            let input = dna::random_dna(5, 400);
            let mut engine = NfaEngine::new(&a).unwrap();
            let mut sink = CollectSink::new();
            engine.scan(&input, &mut sink);
            let mut got: Vec<u64> = sink.reports().iter().map(|r| r.offset).collect();
            got.sort_unstable();
            got.dedup();
            assert_eq!(got, naive_hamming(pattern, d, &input), "d={d}");
        }
    }

    #[test]
    fn exact_match_reports_once_per_occurrence() {
        let a = mesh(b"AAAA", 0);
        let mut engine = NfaEngine::new(&a).unwrap();
        let mut sink = CollectSink::new();
        engine.scan(b"CCAAAACC", &mut sink);
        assert_eq!(sink.reports().len(), 1);
    }

    #[test]
    fn state_count_scales_with_l_and_d() {
        let small = mesh(&dna::random_dna(1, 18), 3);
        let large = mesh(&dna::random_dna(1, 31), 10);
        assert!(large.state_count() > 2 * small.state_count());
        // Roughly 2(d+1) states per column.
        assert!(small.state_count() >= 18 * 4 && small.state_count() <= 18 * 8);
    }

    #[test]
    fn benchmark_has_one_subgraph_per_filter() {
        let (a, input) = build(&HammingParams {
            length: 10,
            distance: 2,
            filters: 7,
            input_len: 500,
            seed: 1,
        });
        let stats = azoo_core::AutomatonStats::compute(&a);
        assert_eq!(stats.subgraphs, 7);
        assert_eq!(input.len(), 500);
        a.validate().unwrap();
    }
}
