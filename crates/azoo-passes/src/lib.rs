//! Optimization and transformation passes over homogeneous automata.
//!
//! These are the VASim-style graph passes the AutomataZoo methodology
//! depends on:
//!
//! * [`merge_prefixes`] — the standard prefix-collapse optimization; its
//!   output size is the "Compressed states" column of the paper's Table I.
//! * [`merge_suffixes`] — the dual suffix collapse.
//! * [`remove_dead`] — drops states unreachable from a start state or
//!   unable to influence a report.
//! * [`stride8`] — converts a bit-level automaton (alphabet `{0, 1}`) into
//!   a byte-level automaton consuming 8 bits per symbol (Section IX-B of
//!   the paper; used by the File Carving benchmark).
//! * [`widen`] — pads an automaton with zero-matching states so it
//!   processes 16-bit-widened input (Section IX-A; the YARA Wide variant).
//! * [`prefilter_plan`] — required-literal prefilter planning: splits the
//!   automaton into components a literal matcher can gate (simulated only
//!   in a bounded window around candidate hits) and a full-simulation
//!   fallback remainder.
//! * [`mesh`] — the bounded edit-distance mesh builder azoo-fuzzy and
//!   the zoo build through, and [`recognize`], which admits a machine
//!   as a union of meshes only if every component rebuilds exactly.
//! * [`quotient_simulation`] / [`residual_merge`] / [`reduce`] — the
//!   simulation-based reduction tier: bisimulation quotienting plus
//!   residual coverage folds, both semantics-preserving under the
//!   identity input map (see the `reduce` module doc for the soundness
//!   argument and refusal matrix).
//!
//! [`InputMap`] records the input/offset conventions of the rescaling
//! passes so differential checkers (`azoo-analyze`'s pass verifier, the
//! `azoo-oracle` cross-engine oracle) can compare report streams across
//! a pass.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]
mod dead;
mod input_map;
mod merge;
pub mod mesh;
mod partition;
mod prefilter;
mod reduce;
mod stride;
mod widen;

pub use dead::remove_dead;
pub use input_map::InputMap;
pub use merge::{merge_prefixes, merge_suffixes, MergeStats};
pub use mesh::recognize;
pub use partition::partition;
pub use prefilter::{prefilter_plan, PrefilterComponent, PrefilterPlan, MIN_STRONG_LITERAL};
pub use reduce::{
    quotient_simulation, reduce, residual_merge, simulation_partition, ReduceStats,
    RESIDUAL_COMPONENT_CAP,
};
pub use stride::{bit_pattern_chain, bits_of_bytes, stride8, stride_bits};
pub use widen::widen;

use azoo_core::StateId;

/// Errors raised by transformation passes.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PassError {
    /// `stride8` requires every symbol class to be a subset of `{0, 1}`.
    NotBitLevel(StateId),
    /// The pass does not support counter elements.
    CountersUnsupported(StateId),
    /// A connected component exceeds the partition capacity.
    ComponentTooLarge {
        /// A state of the offending component.
        state: StateId,
        /// The component's size in states.
        size: usize,
        /// The requested per-partition capacity.
        capacity: usize,
    },
}

impl std::fmt::Display for PassError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PassError::NotBitLevel(id) => {
                write!(f, "state {id:?} matches symbols outside {{0, 1}}")
            }
            PassError::CountersUnsupported(id) => {
                write!(f, "pass does not support counter element {id:?}")
            }
            PassError::ComponentTooLarge {
                state,
                size,
                capacity,
            } => write!(
                f,
                "component containing {state:?} has {size} states, over the capacity {capacity}"
            ),
        }
    }
}

impl std::error::Error for PassError {}
