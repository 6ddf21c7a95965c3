//! Forest → automata conversion (the Tracy et al. design, adapted).
//!
//! Each leaf of each tree becomes one automata chain. A classification is
//! presented as a *per-tree segmented symbol stream*: for every tree, one
//! separator symbol followed by the tree's subspace features, each
//! quantized to a *bin* index against the thresholds that tree actually
//! uses for that feature. Chain states match bin sets, so automata
//! classification is exactly equivalent to native forest voting (the test
//! suite verifies bit-exact agreement).
//!
//! With a 30-feature subspace each chain is 31 states (separator + 30
//! feature states) — the chain size the paper's Table I reports for the
//! Random Forest benchmarks (8,000 chains x 31 = 248k states).
//!
//! The alphabet is split as: bins `0..=235`, tree separators `236..=255`
//! (so at most 20 trees, matching the paper's forests).

use azoo_core::{Automaton, StartKind, SymbolClass};

use crate::dataset::Dataset;
use crate::forest::{majority, Forest};

/// Highest byte value usable as a bin index.
pub const MAX_BIN: u8 = 235;
/// First byte value used as a tree separator.
pub const SEP_BASE: u8 = 236;

/// A forest compiled to automata, with its stream encoder.
#[derive(Debug, Clone)]
pub struct ForestAutomaton {
    /// The chain automaton; each leaf is one subgraph whose report code is
    /// the leaf's predicted class.
    pub automaton: Automaton,
    /// Symbols consumed per classification.
    pub symbols_per_classification: usize,
    n_classes: usize,
    n_trees: usize,
    encoders: Vec<TreeEncoder>,
}

#[derive(Debug, Clone)]
struct TreeEncoder {
    sep: u8,
    /// `(feature, thresholds)` in subspace order.
    features: Vec<(u32, Vec<u8>)>,
}

impl TreeEncoder {
    /// Bin of byte `v` for subspace slot `slot`: the number of this
    /// tree's thresholds for that feature that are `< v`.
    fn bin(&self, slot: usize, v: u8) -> u8 {
        let thresholds = &self.features[slot].1;
        thresholds.iter().take_while(|&&t| t < v).count() as u8
    }
}

impl ForestAutomaton {
    /// Compiles `forest` into chains.
    ///
    /// # Panics
    ///
    /// Panics if the forest has more than 20 trees, or if a tree uses
    /// more than `MAX_BIN` thresholds on a single feature (neither
    /// occurs for the paper's hyperparameters).
    pub fn build(forest: &Forest) -> ForestAutomaton {
        let trees = forest.trees();
        assert!(
            trees.len() <= (255 - SEP_BASE as usize) + 1,
            "at most 20 trees fit the separator alphabet"
        );
        let full_bins = SymbolClass::from_range(0, MAX_BIN);
        let mut automaton = Automaton::new();
        let mut encoders = Vec::with_capacity(trees.len());
        for (t, tree) in trees.iter().enumerate() {
            let sep = SEP_BASE + t as u8;
            let features: Vec<(u32, Vec<u8>)> = tree
                .subspace
                .iter()
                .map(|&f| {
                    let th = tree.thresholds_of(f);
                    assert!(
                        th.len() <= MAX_BIN as usize,
                        "feature {f} uses {} thresholds (> {MAX_BIN})",
                        th.len()
                    );
                    (f, th)
                })
                .collect();
            let encoder = TreeEncoder { sep, features };
            for path in tree.leaf_paths() {
                // One class per chain state, in subspace order.
                let mut classes = Vec::with_capacity(encoder.features.len() + 1);
                classes.push(SymbolClass::from_byte(sep));
                for (slot, (f, _)) in encoder.features.iter().enumerate() {
                    let class = match path.constraints.iter().find(|c| c.0 == *f) {
                        Some(&(_, lo, hi)) => {
                            SymbolClass::from_range(encoder.bin(slot, lo), encoder.bin(slot, hi))
                        }
                        None => full_bins,
                    };
                    classes.push(class);
                }
                let (_, last) = automaton.add_chain(&classes, StartKind::AllInput);
                automaton.set_report(last, path.class as u32);
            }
            encoders.push(encoder);
        }
        let symbols_per_classification = encoders.iter().map(|e| e.features.len() + 1).sum();
        ForestAutomaton {
            automaton,
            symbols_per_classification,
            n_classes: forest.n_classes,
            n_trees: trees.len(),
            encoders,
        }
    }

    /// Encodes one sample into its classification symbol stream.
    pub fn encode(&self, sample: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.symbols_per_classification);
        self.encode_into(sample, &mut out);
        out
    }

    fn encode_into(&self, sample: &[u8], out: &mut Vec<u8>) {
        for enc in &self.encoders {
            out.push(enc.sep);
            for (slot, (f, _)) in enc.features.iter().enumerate() {
                out.push(enc.bin(slot, sample[*f as usize]));
            }
        }
    }

    /// Encodes every sample of `data` back-to-back.
    pub fn encode_batch(&self, data: &Dataset) -> Vec<u8> {
        let mut out = Vec::with_capacity(data.len() * self.symbols_per_classification);
        for i in 0..data.len() {
            self.encode_into(data.sample(i), &mut out);
        }
        out
    }

    /// Turns a report stream from scanning an [`encode_batch`](Self::encode_batch) stream into
    /// per-sample predictions. `reports` are `(offset, class)` pairs.
    ///
    /// Every classification produces exactly one report per tree (leaf
    /// paths partition the feature space), so votes are majority-counted
    /// per stream segment.
    pub fn classify(&self, n_samples: usize, reports: &[(u64, u32)]) -> Vec<u8> {
        let mut votes = vec![vec![0u32; self.n_classes]; n_samples];
        for &(offset, class) in reports {
            let sample = offset as usize / self.symbols_per_classification;
            if sample < n_samples && (class as usize) < self.n_classes {
                votes[sample][class as usize] += 1;
            }
        }
        votes.iter().map(|v| majority(v)).collect()
    }

    /// Number of trees (expected reports per classification).
    pub fn tree_count(&self) -> usize {
        self.n_trees
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::dataset::synthetic_mnist;
    use crate::forest::ForestParams;
    use azoo_engines::{CollectSink, Engine, NfaEngine};

    fn setup() -> (Dataset, Forest, ForestAutomaton) {
        let data = synthetic_mnist(21, 260);
        let (train, test) = data.split(0.77);
        let forest = Forest::train(
            &train,
            &ForestParams {
                trees: 6,
                max_leaves: 50,
                feature_pool: 150,
                subspace: 30,
                seed: 3,
            },
        );
        let fa = ForestAutomaton::build(&forest);
        (test, forest, fa)
    }

    #[test]
    fn chain_shape_matches_paper() {
        let (_, forest, fa) = setup();
        // chains = total leaves; states = chains * (subspace + 1).
        let chains = forest.total_leaves();
        assert_eq!(fa.automaton.state_count(), chains * 31);
        let stats = azoo_core::AutomatonStats::compute(&fa.automaton);
        assert_eq!(stats.subgraphs, chains);
        assert_eq!(stats.avg_subgraph_size, 31.0);
        assert_eq!(stats.stddev_subgraph_size, 0.0);
        fa.automaton.validate().unwrap();
    }

    #[test]
    fn automata_classification_equals_native() {
        let (test, forest, fa) = setup();
        let stream = fa.encode_batch(&test);
        assert_eq!(stream.len(), test.len() * fa.symbols_per_classification);
        let mut engine = NfaEngine::new(&fa.automaton).unwrap();
        let mut sink = CollectSink::new();
        engine.scan(&stream, &mut sink);
        // Exactly one report per tree per classification.
        assert_eq!(
            sink.reports().len(),
            test.len() * fa.tree_count(),
            "leaf paths must partition the space"
        );
        let pairs: Vec<(u64, u32)> = sink
            .reports()
            .iter()
            .map(|r| (r.offset, r.code.0))
            .collect();
        let automata_preds = fa.classify(test.len(), &pairs);
        let native_preds = forest.predict_batch(&test);
        assert_eq!(automata_preds, native_preds);
    }

    #[test]
    fn encoder_is_deterministic_and_in_alphabet() {
        let (test, _, fa) = setup();
        let a = fa.encode(test.sample(0));
        let b = fa.encode(test.sample(0));
        assert_eq!(a, b);
        // Each segment: separator then bins.
        let mut i = 0;
        for enc_idx in 0..fa.tree_count() {
            assert_eq!(a[i], SEP_BASE + enc_idx as u8);
            i += 1;
            for _ in 0..30 {
                assert!(a[i] <= MAX_BIN);
                i += 1;
            }
        }
        assert_eq!(i, a.len());
    }

    #[test]
    fn classify_handles_missing_reports_gracefully() {
        let (_, _, fa) = setup();
        let preds = fa.classify(3, &[]);
        assert_eq!(preds, vec![0, 0, 0]);
    }
}
