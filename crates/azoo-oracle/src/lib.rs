//! Cross-engine differential testing oracle.
//!
//! Every engine in this workspace implements the same contract: for an
//! automaton `A` and input `I`, produce the canonical report stream —
//! `(offset, code)` pairs, deduplicated per cycle per code — no matter
//! how the engine is configured or how `I` is chunked. This crate turns
//! that contract into an executable oracle:
//!
//! * [`gen`] deterministically generates small adversarial automata
//!   (counters, anchors, cycles, wildcard classes, huge report codes),
//!   inputs over their own alphabets, and chunk plans that include the
//!   degenerate shapes (empty chunks mid-stream, one-byte chunks, empty
//!   end-of-data chunks);
//! * [`adapter`] runs any engine configuration ([`EngineKind`]) behind
//!   a uniform interface;
//! * [`oracle`] compares every configuration, in block and streaming
//!   modes, against the reference NFA (quiescent skip disabled), and
//!   re-checks the reference across each semantics-preserving pass
//!   under its [`InputMap`](azoo_passes::InputMap);
//! * [`shrink`](mod@shrink) reduces any divergence to a minimal reproducer;
//! * [`bugbank`] serializes reproducers as replayable MNRL + input +
//!   expected-report triples;
//! * [`mutate`] self-checks the oracle by planting ten deliberate bugs
//!   and requiring the campaign to kill them.
//!
//! # Example
//!
//! ```
//! use azoo_oracle::{run_range, OracleConfig};
//!
//! let report = run_range(0, 25, &OracleConfig::default(), true);
//! assert_eq!(report.seeds_run, 25);
//! assert!(report.divergences.is_empty(), "{:?}", report.divergences);
//! ```

// An oracle that panics on malformed data would mask the very bugs it
// hunts; only the baseline construction (whose failure is a harness
// bug, not an engine bug) is allowed to unwrap.
#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]

pub mod adapter;
pub mod bugbank;
pub mod gen;
pub mod mutate;
pub mod oracle;
pub mod rng;
pub mod shrink;

pub use adapter::{EngineKind, EngineUnderTest, Rep};
pub use bugbank::{load_all, BugbankEntry};
pub use gen::{
    gen_automaton, gen_chunk_plan, gen_fuzzy_automaton, gen_fuzzy_input, gen_input, GenConfig,
};
pub use mutate::{kill_check, mutate_automaton, Mutation, MutationOutcome};
pub use oracle::{
    baseline, compare, run_range, run_seed, Divergence, OracleConfig, OracleReport, Subject,
};
pub use rng::OracleRng;
pub use shrink::shrink;
