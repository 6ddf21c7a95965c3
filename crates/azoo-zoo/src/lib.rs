//! Generators for the 24 AutomataZoo benchmarks.
//!
//! Each module builds one application domain's automata and standard
//! input stimulus, following the construction the paper describes
//! (Section IV). Where the paper relies on proprietary or unavailable
//! artifacts (the real Snort ruleset, ClamAV database, PROSITE, MNIST,
//! VirusSign samples), seeded synthetic equivalents with the same
//! structural statistics are generated — see DESIGN.md §3 for the
//! substitution table.
//!
//! The [`BenchmarkId`] registry enumerates all 27 benchmarks (the paper's
//! 24 Table I rows, the AP PRNG variant split, and the two fuzzy
//! extensions; [`BenchmarkId::ALL`]) and builds any of them at three
//! scales:
//!
//! ```
//! use azoo_zoo::{BenchmarkId, Scale};
//!
//! let bench = BenchmarkId::Hamming18x3.build(Scale::Tiny);
//! assert!(bench.automaton.state_count() > 0);
//! assert!(!bench.input.is_empty());
//! bench.automaton.validate().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]
pub mod ap_prng;
pub mod brill;
pub mod clamav;
pub mod crispr;
pub mod entity;
pub mod file_carving;
pub mod fuzzy;
pub mod hamming;
pub mod levenshtein;
pub mod protomata;
pub mod random_forest;
pub mod sequence_match;
pub mod snort;
pub mod yara;

mod registry;

pub use registry::{Benchmark, BenchmarkId, Scale};
