//! A uniform adapter over every engine in the portfolio.
//!
//! The oracle needs to run "the same scan" through heterogeneous
//! engines: some reject counters, one is the reference with a tunable quiescence optimization, one takes a
//! cache-size knob, one a thread count. [`EngineKind`] names a concrete
//! configuration, and [`EngineUnderTest`] erases the differences behind
//! `run_block` / `run_chunks` returning normalized `(offset, code)`
//! streams. Reports are sorted but **not** deduplicated — duplicate
//! emission is exactly the class of bug the oracle exists to catch.

use azoo_core::Automaton;
use azoo_engines::{
    BitParallelEngine, CollectSink, EngineError, LazyDfaEngine, NfaEngine, ParallelScanner,
    PrefilterEngine, SessionEngine,
};

/// One normalized report: `(offset, code)`.
pub type Rep = (u64, u32);

/// A concrete engine configuration the oracle can exercise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Reference NFA with the quiescent-skip optimization enabled.
    NfaSkip,
    /// Reference NFA with quiescent skip disabled (the baseline).
    NfaNoSkip,
    /// Lazy DFA; `max_states == 0` means the engine default. Tiny caches
    /// (2, 3) force constant flushing.
    LazyDfa {
        /// DFA cache bound, 0 for the default.
        max_states: usize,
    },
    /// Literal-prefilter gated engine: an Aho–Corasick trigger, windowed
    /// simulation of the gated components, and a lazy DFA or the NFA on
    /// the rejected remainder.
    Prefilter,
    /// Bit-vector tier (Myers / Shift-Add lanes); applies only to
    /// machines whose every component rebuilds as an edit-distance mesh.
    BitParallel,
    /// Multi-threaded component/chunk scanner.
    Parallel {
        /// Worker thread count.
        threads: usize,
        /// Whether shards are prefilter-gated.
        prefilter: bool,
    },
}

impl EngineKind {
    /// The default portfolio the oracle runs: both NFA variants, the
    /// lazy DFA at default and pathologically tiny cache sizes, and the
    /// specialized engines.
    pub fn default_set() -> Vec<EngineKind> {
        vec![
            EngineKind::NfaSkip,
            EngineKind::NfaNoSkip,
            EngineKind::LazyDfa { max_states: 0 },
            EngineKind::LazyDfa { max_states: 2 },
            EngineKind::LazyDfa { max_states: 3 },
            EngineKind::LazyDfa { max_states: 17 },
            EngineKind::Prefilter,
            EngineKind::BitParallel,
            EngineKind::Parallel {
                threads: 2,
                prefilter: false,
            },
            EngineKind::Parallel {
                threads: 3,
                prefilter: true,
            },
            // Thread counts above the shard count drive bounded-overlap
            // window chunking on the easy shards.
            EngineKind::Parallel {
                threads: 4,
                prefilter: false,
            },
            EngineKind::Parallel {
                threads: 8,
                prefilter: true,
            },
        ]
    }

    /// Stable textual name, used in reports, the bug bank, and
    /// `--engines` filters.
    pub fn label(&self) -> String {
        match *self {
            EngineKind::NfaSkip => "nfa".into(),
            EngineKind::NfaNoSkip => "nfa-noskip".into(),
            EngineKind::LazyDfa { max_states: 0 } => "lazydfa".into(),
            EngineKind::LazyDfa { max_states } => format!("lazydfa:{max_states}"),
            EngineKind::Prefilter => "prefilter".into(),
            EngineKind::BitParallel => "bitpar".into(),
            EngineKind::Parallel {
                threads,
                prefilter: false,
            } => format!("parallel:{threads}"),
            EngineKind::Parallel {
                threads,
                prefilter: true,
            } => format!("parallel-pf:{threads}"),
        }
    }

    /// Parses a [`label`](EngineKind::label)-format name.
    pub fn parse(s: &str) -> Option<EngineKind> {
        let (head, arg) = match s.split_once(':') {
            Some((h, a)) => (h, Some(a)),
            None => (s, None),
        };
        let num = |d: usize| -> Option<usize> {
            match arg {
                None => Some(d),
                Some(a) => a.parse().ok(),
            }
        };
        match head {
            "nfa" if arg.is_none() => Some(EngineKind::NfaSkip),
            "nfa-noskip" if arg.is_none() => Some(EngineKind::NfaNoSkip),
            "lazydfa" => Some(EngineKind::LazyDfa {
                max_states: num(0)?,
            }),
            "prefilter" if arg.is_none() => Some(EngineKind::Prefilter),
            "bitpar" if arg.is_none() => Some(EngineKind::BitParallel),
            // `parallel:0` is rejected here rather than surfacing the
            // engine's InvalidThreads later: the oracle treats build
            // errors as "engine inapplicable", which would silently
            // drop the configuration from every comparison.
            "parallel" => Some(EngineKind::Parallel {
                threads: num(2).filter(|&n| n > 0)?,
                prefilter: false,
            }),
            "parallel-pf" => Some(EngineKind::Parallel {
                threads: num(2).filter(|&n| n > 0)?,
                prefilter: true,
            }),
            _ => None,
        }
    }

    /// Parses a comma-separated engine list.
    pub fn parse_list(s: &str) -> Result<Vec<EngineKind>, String> {
        s.split(',')
            .map(str::trim)
            .filter(|p| !p.is_empty())
            .map(|p| EngineKind::parse(p).ok_or_else(|| format!("unknown engine {p:?}")))
            .collect()
    }
}

/// An engine instance behind the uniform oracle interface.
pub struct EngineUnderTest {
    kind: EngineKind,
    engine: Box<dyn SessionEngine>,
}

impl EngineUnderTest {
    /// Compiles `a` for `kind`.
    ///
    /// Returns `Ok(None)` when the engine legitimately does not apply to
    /// this automaton (counters; a machine the bit-vector tier refuses)
    /// and `Err` only when
    /// the automaton itself is invalid — which the oracle treats as a
    /// generator bug, not an engine bug.
    pub fn build(kind: EngineKind, a: &Automaton) -> Result<Option<Self>, EngineError> {
        fn boxed<E: SessionEngine + 'static>(e: E) -> Box<dyn SessionEngine> {
            Box::new(e)
        }
        let built = match kind {
            EngineKind::NfaSkip => NfaEngine::new(a).map(boxed),
            EngineKind::NfaNoSkip => NfaEngine::new(a).map(|mut e| {
                e.set_quiescent_skip(false);
                boxed(e)
            }),
            EngineKind::LazyDfa { max_states: 0 } => LazyDfaEngine::new(a).map(boxed),
            EngineKind::LazyDfa { max_states } => {
                LazyDfaEngine::with_max_states(a, max_states).map(boxed)
            }
            EngineKind::Prefilter => PrefilterEngine::new(a).map(boxed),
            EngineKind::BitParallel => BitParallelEngine::new(a).map(boxed),
            EngineKind::Parallel { threads, prefilter } => {
                ParallelScanner::with_prefilter(a, threads, prefilter).map(boxed)
            }
        };
        match built {
            Ok(engine) => Ok(Some(EngineUnderTest { kind, engine })),
            Err(
                EngineError::CountersUnsupported(_)
                | EngineError::NotAMesh(_)
                | EngineError::NoEditBudget
                | EngineError::LaneUnsupported { .. },
            ) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// The configuration this instance was built for.
    pub fn kind(&self) -> EngineKind {
        self.kind
    }

    /// One whole-input scan; sorted, non-deduplicated reports.
    pub fn run_block(&mut self, input: &[u8]) -> Vec<Rep> {
        let mut sink = CollectSink::new();
        self.engine.scan(input, &mut sink);
        normalize(sink)
    }

    /// One streaming scan following `plan` (chunk lengths, summing to
    /// `input.len()`); `eod` is passed on the final chunk, empty chunks
    /// included.
    pub fn run_chunks(&mut self, input: &[u8], plan: &[usize]) -> Vec<Rep> {
        debug_assert_eq!(plan.iter().sum::<usize>(), input.len());
        let mut sink = CollectSink::new();
        self.engine.reset_stream();
        let mut off = 0;
        for (i, &len) in plan.iter().enumerate() {
            let eod = i + 1 == plan.len();
            self.engine.feed(&input[off..off + len], eod, &mut sink);
            off += len;
        }
        normalize(sink)
    }
}

fn normalize(sink: CollectSink) -> Vec<Rep> {
    sink.sorted_reports()
        .into_iter()
        .map(|r| (r.offset, r.code.0))
        .collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use azoo_core::{StartKind, SymbolClass};

    fn chain() -> Automaton {
        let mut a = Automaton::new();
        let classes: Vec<SymbolClass> = b"ab".iter().map(|&b| SymbolClass::from_byte(b)).collect();
        let (_, last) = a.add_chain(&classes, StartKind::AllInput);
        a.set_report(last, 3);
        a
    }

    #[test]
    fn labels_round_trip() {
        for kind in EngineKind::default_set() {
            assert_eq!(EngineKind::parse(&kind.label()), Some(kind), "{kind:?}");
        }
        assert!(EngineKind::parse("bogus").is_none());
    }

    #[test]
    fn parse_list_reports_unknown_names() {
        assert!(EngineKind::parse_list("nfa, lazydfa:2").is_ok());
        assert!(EngineKind::parse_list("nfa, wat").is_err());
    }

    #[test]
    fn zero_thread_parallel_is_rejected_at_parse() {
        assert!(EngineKind::parse("parallel:0").is_none());
        assert!(EngineKind::parse("parallel-pf:0").is_none());
        assert!(EngineKind::parse("parallel:1").is_some());
    }

    #[test]
    fn every_default_engine_agrees_on_a_chain() {
        let a = chain();
        let input = b"xxabxabx";
        let expected = EngineUnderTest::build(EngineKind::NfaNoSkip, &a)
            .unwrap()
            .unwrap()
            .run_block(input);
        assert!(!expected.is_empty());
        for kind in EngineKind::default_set() {
            let Some(mut e) = EngineUnderTest::build(kind, &a).unwrap() else {
                continue;
            };
            assert_eq!(e.run_block(input), expected, "{}", kind.label());
            assert_eq!(
                e.run_chunks(input, &[3, 0, 4, 1, 0]),
                expected,
                "{}",
                kind.label()
            );
        }
    }
}
