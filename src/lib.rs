//! # automatazoo
//!
//! A from-scratch Rust reproduction of **AutomataZoo: A Modern Automata
//! Processing Benchmark Suite** (Wadden et al., IISWC 2018), including
//! every substrate the paper depends on: the homogeneous automata model,
//! a VASim-equivalent simulation/optimization environment, a
//! Hyperscan-style regex front end and CPU engine portfolio, automata
//! transformations (prefix merging, 8-striding, widening), the Random
//! Forest ML substrate, synthetic workload generators, and all 27
//! benchmark generators.
//!
//! This crate is a facade that re-exports the workspace:
//!
//! * [`core`] — automata data model ([`azoo_core`])
//! * [`analyze`] — lint rules & pass-invariant verification ([`azoo_analyze`])
//! * [`passes`] — optimization & transformation passes ([`azoo_passes`])
//! * [`regex`] — PCRE-subset → Glushkov NFA compiler ([`azoo_regex`])
//! * [`engines`] — NFA / lazy-DFA / prefilter engines ([`azoo_engines`])
//! * [`fuzzy`] — bounded edit-distance automaton construction ([`azoo_fuzzy`])
//! * [`oracle`] — cross-engine differential testing oracle ([`azoo_oracle`])
//! * [`serve`] — multi-tenant streaming scan service ([`azoo_serve`])
//! * [`simd`] — vectorized scanning kernels with runtime CPU dispatch ([`azoo_simd`])
//! * [`workloads`] — seeded input generators ([`azoo_workloads`])
//! * [`ml`] — decision trees & random forests ([`azoo_ml`])
//! * [`zoo`] — the 27 benchmarks: the paper's 24 plus the AP PRNG split
//!   and two fuzzy extensions ([`azoo_zoo`])
//!
//! # Quickstart
//!
//! ```
//! use automatazoo::engines::{CollectSink, Engine, NfaEngine};
//! use automatazoo::regex::compile;
//!
//! let automaton = compile(r"/virus_[0-9]{4}/i", 0)?;
//! let mut engine = NfaEngine::new(&automaton).unwrap();
//! let mut sink = CollectSink::new();
//! engine.scan(b"...VIRUS_1337 detected...", &mut sink);
//! assert_eq!(sink.reports().len(), 1);
//! # Ok::<(), automatazoo::regex::RegexError>(())
//! ```
//!
//! # Building a published benchmark
//!
//! ```
//! use automatazoo::zoo::{BenchmarkId, Scale};
//!
//! let bench = BenchmarkId::ApPrng4.build(Scale::Tiny);
//! assert!(bench.automaton.state_count() >= 10 * 17); // ten ~20-state chains
//! ```

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]

pub use azoo_analyze as analyze;
pub use azoo_core as core;
pub use azoo_engines as engines;
pub use azoo_fuzzy as fuzzy;
pub use azoo_ml as ml;
pub use azoo_oracle as oracle;
pub use azoo_passes as passes;
pub use azoo_regex as regex;
pub use azoo_serve as serve;
pub use azoo_simd as simd;
pub use azoo_workloads as workloads;
pub use azoo_zoo as zoo;
