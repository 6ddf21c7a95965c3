//! CPU automata-processing engines.
//!
//! AutomataZoo's evaluation compares automata execution across software
//! engines and spatial architectures. This crate provides the software
//! side as a portfolio behind one [`Engine`] trait:
//!
//! * [`NfaEngine`] — a VASim-equivalent sparse active-set simulator.
//!   Supports the full element set (STEs and counters) and collects the
//!   per-symbol activity [`Profile`] used for the paper's *active set*
//!   metric. Throughput is proportional to active-set size.
//! * [`LazyDfaEngine`] — an RE2/Hyperscan-style engine that determinizes
//!   the automaton on the fly with a bounded state cache, giving
//!   active-set-independent throughput on DFA-friendly workloads.
//! * [`PrefilterEngine`] — a literal-prefilter engine: components whose
//!   matches must contain a *required literal* are gated behind an
//!   Aho–Corasick trigger and simulated only in a bounded window around
//!   each candidate hit; everything else is fully simulated, on a lazy
//!   DFA or the NFA.
//! * [`BitParallelEngine`] — the bit-vector tier for edit-distance
//!   meshes: a machine whose every component rebuilds exactly as an
//!   azoo-fuzzy Levenshtein or Hamming mesh runs one `u64` lane per
//!   pattern, Myers' recurrence or Shift-Add, at a cost independent of
//!   the mesh's active set.
//! * [`ParallelScanner`] — a multi-threaded wrapper that shards the
//!   automaton by connected component and (where a bounded overlap
//!   window exists) chunks the input across workers, merging reports
//!   into the canonical sorted stream.
//!
//! All engines produce identical report streams for the automata they
//! support, which the test suite cross-validates.
//!
//! The tiers derive their structural facts in one place. The NFA and
//! the lazy DFA both read one lowered form of the automaton — per-state
//! class, report and start tables, CSR successors and the counter list,
//! validated once — and the lazy DFA's alphabet columns and the
//! bit-vector tier's lane rows come from one byte-class partition
//! (bytes no input class tells apart share a class).
//!
//! # Example
//!
//! ```
//! use azoo_core::{Automaton, StartKind, SymbolClass};
//! use azoo_engines::{CollectSink, Engine, NfaEngine};
//!
//! let mut a = Automaton::new();
//! let (_, last) = a.add_chain(
//!     &[SymbolClass::from_byte(b'h'), SymbolClass::from_byte(b'i')],
//!     StartKind::AllInput,
//! );
//! a.set_report(last, 0);
//! let mut engine = NfaEngine::new(&a)?;
//! let mut sink = CollectSink::new();
//! engine.scan(b"hi there, hi!", &mut sink);
//! let offsets: Vec<u64> = sink.reports().iter().map(|r| r.offset).collect();
//! assert_eq!(offsets, vec![1, 11]);
//! # Ok::<(), azoo_engines::EngineError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]
mod bitvec;
mod lazy_dfa;
mod literal;
mod lower;
mod nfa;
mod parallel;
mod prefilter;
mod profile;
mod select;
mod sink;
mod stream;

pub use bitvec::BitParallelEngine;
pub use lazy_dfa::LazyDfaEngine;
pub use nfa::NfaEngine;
pub use parallel::ParallelScanner;
pub use prefilter::PrefilterEngine;
pub use profile::Profile;
pub use select::{
    prefilter_gate, select_session_engine, select_session_engine_explained,
    select_session_engine_threaded, EngineChoice,
};
pub use sink::{CollectSink, CountSink, NullSink, Report, ReportSink};
pub use stream::StreamingEngine;

use azoo_core::{Automaton, StateId};

/// A compiled automaton executor.
///
/// `scan` always starts from the automaton's initial conditions; engines
/// are reusable across calls.
pub trait Engine {
    /// Scans `input`, emitting every report into `sink`.
    fn scan(&mut self, input: &[u8], sink: &mut dyn ReportSink);

    /// A short engine name for harness output.
    fn name(&self) -> &'static str;
}

/// An engine usable as a pooled per-session executor: block scanning,
/// streaming, `Send` (session pools hand engines across threads), and
/// cheap duplication of the compiled form.
///
/// Blanket-implemented for every `Clone` engine in the portfolio, so
/// [`select_session_engine`] can box any tier.
pub trait SessionEngine: Engine + StreamingEngine + Send {
    /// A fresh executor over the same compiled tables — a copy of the
    /// compiled form, with no recompilation or validation. Immutable
    /// parts may be shared rather than copied: the lazy DFA's interned
    /// state keys are reference-counted, so a clone points at the same
    /// keys instead of copying them. Session pools
    /// use this to grow a free list past the prototype; steady-state
    /// checkouts then reuse pooled engines without any allocation.
    fn clone_session(&self) -> Box<dyn SessionEngine>;
}

impl<T> SessionEngine for T
where
    T: Engine + StreamingEngine + Clone + Send + 'static,
{
    fn clone_session(&self) -> Box<dyn SessionEngine> {
        Box::new(self.clone())
    }
}

/// A boxed engine clones through [`SessionEngine::clone_session`], so an
/// engine may hold its sub-engines boxed and still derive `Clone`.
impl Clone for Box<dyn SessionEngine> {
    fn clone(&self) -> Self {
        (**self).clone_session()
    }
}

/// Names the tier, so an engine holding boxed sub-engines can derive
/// `Debug`.
impl std::fmt::Debug for dyn SessionEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SessionEngine({})", self.name())
    }
}

/// Errors raised when compiling an automaton for an engine.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EngineError {
    /// The engine does not support counter elements.
    CountersUnsupported(StateId),
    // Returned only by the `RetiredEngine` stand-in below.
    #[doc(hidden)]
    RetiredTier,
    /// [`BitParallelEngine`]: the component containing this state does
    /// not rebuild exactly as an edit-distance mesh.
    NotAMesh(StateId),
    /// [`BitParallelEngine`]: every component is a plain chain (a mesh
    /// with no edit budget); chains belong to the other tiers.
    NoEditBudget,
    /// [`BitParallelEngine`]: the `component`-th mesh (in order of
    /// smallest state id) cannot run on a lane.
    LaneUnsupported {
        /// Index of the mesh component.
        component: usize,
        /// Why it cannot.
        reason: &'static str,
    },
    /// The automaton failed core validation.
    Invalid(azoo_core::CoreError),
    /// A zero worker-thread count was requested from
    /// [`ParallelScanner`].
    InvalidThreads,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::CountersUnsupported(id) => {
                write!(f, "engine does not support counter element {id:?}")
            }
            EngineError::RetiredTier => write!(f, "engine tier was removed"),
            EngineError::NotAMesh(id) => {
                write!(
                    f,
                    "component containing {id:?} is not an edit-distance mesh"
                )
            }
            EngineError::NoEditBudget => write!(f, "no component has an edit budget"),
            EngineError::LaneUnsupported { component, reason } => {
                write!(f, "mesh component {component}: {reason}")
            }
            EngineError::Invalid(e) => write!(f, "invalid automaton: {e}"),
            EngineError::InvalidThreads => {
                write!(f, "thread count must be positive")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

impl From<azoo_core::CoreError> for EngineError {
    fn from(e: azoo_core::CoreError) -> Self {
        EngineError::Invalid(e)
    }
}

// Stand-in for the deleted Sheng tier, which the frozen
// azoo-perf/src/layers.rs still names; ROADMAP N1 deletes it.
#[doc(hidden)]
#[derive(Debug, Clone)]
pub enum RetiredEngine {}

#[doc(hidden)]
pub type ShengEngine = RetiredEngine;

impl RetiredEngine {
    pub fn new(_: &Automaton) -> Result<Self, EngineError> {
        Err(EngineError::RetiredTier)
    }
}

impl Engine for RetiredEngine {
    fn scan(&mut self, _: &[u8], _: &mut dyn ReportSink) {
        match *self {}
    }

    fn name(&self) -> &'static str {
        match *self {}
    }
}

impl StreamingEngine for RetiredEngine {
    fn reset_stream(&mut self) {
        match *self {}
    }

    fn feed(&mut self, _: &[u8], _: bool, _: &mut dyn ReportSink) {
        match *self {}
    }
}
