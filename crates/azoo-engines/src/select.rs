//! Automatic engine selection.
//!
//! Different benchmark shapes favour different engines (the core lesson
//! of the paper's cross-engine experiments): chain automata run fastest
//! bit-parallel, small-alphabet regex automata determinize well, and
//! counters or explosive subset construction require the sparse NFA
//! engine. [`select_engine`] encodes that portfolio policy.

use azoo_core::{Automaton, ElementKind, Port};

use crate::{
    BitParallelEngine, Engine, EngineError, LazyDfaEngine, NfaEngine, ParallelScanner,
    PrefilterEngine, SessionEngine,
};

/// Minimum fraction of states a prefilter plan must cover before
/// [`prefilter_gate`] admits it.
const PREFILTER_COVERAGE_GATE: f64 = 0.5;

/// Which engine [`select_engine`] picked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(clippy::manual_non_exhaustive)] // `Sheng` is a shim, not a marker
pub enum EngineChoice {
    /// The dense bit-parallel Shift-And engine.
    BitParallel,
    /// The lazy-DFA engine.
    LazyDfa,
    // Shim for the frozen azoo-perf/src/layers.rs; ROADMAP N1 deletes it.
    #[doc(hidden)]
    Sheng,
    /// The literal-prefilter engine (windowed simulation gated behind an
    /// Aho–Corasick trigger, with NFA fallback for rejected components).
    Prefilter,
    /// The sparse active-set NFA engine.
    Nfa,
    /// The multi-threaded sharding/chunking scanner.
    Parallel {
        /// Worker thread count.
        threads: usize,
    },
}

/// Pre-flight structural check run before any engine is constructed.
///
/// Release builds run [`Automaton::validate`] (stops at the first
/// violation). Debug builds run the full Error-level rule set
/// ([`Automaton::validate_all`]) — the same rules `azoo-analyze` reports
/// as Error diagnostics — and reject the automaton with the earliest
/// violation, so a machine that lints dirty can never reach an engine
/// in development even if `validate`'s early-exit order changes.
fn preflight(a: &Automaton) -> Result<(), EngineError> {
    if cfg!(debug_assertions) {
        match a.validate_all().into_iter().next() {
            Some(e) => Err(EngineError::Invalid(e)),
            None => Ok(()),
        }
    } else {
        Ok(a.validate()?)
    }
}

/// Picks the fastest applicable engine for `a`:
///
/// 1. chain-shaped automata → [`BitParallelEngine`] (dense bitwise
///    advance; best for literal sets, RF chains, CRISPR filters) —
///    chosen only while the state vector stays cache-resident;
/// 2. counter-free automata of bounded size that are not layered
///    edit-distance meshes → [`LazyDfaEngine`];
/// 3. automata whose components mostly carry required literals →
///    [`PrefilterEngine`] (admitted by [`prefilter_gate`]);
/// 4. everything else (counters, huge NFAs) → [`NfaEngine`].
///
/// # Errors
///
/// Propagates [`EngineError::Invalid`] if the automaton fails
/// validation.
pub fn select_engine(a: &Automaton) -> Result<(EngineChoice, Box<dyn Engine>), EngineError> {
    let (choice, engine) = select_session_engine(a)?;
    Ok((choice, engine))
}

/// Detects the layered edit-distance mesh shape `azoo-fuzzy` emits
/// (and the zoo's Levenshtein/Hamming filters hand-build): counter-free,
/// acyclic, and dominated by Σ / near-Σ error-track states. Returns the
/// wide-class state count when the shape matches.
///
/// Subset construction over such a mesh enumerates the pattern's
/// positions-×-edits antichains and blows up exponentially in the edit
/// budget, while sparse simulation carries at most one active frontier
/// per error layer — so the portfolio keeps these out of the DFA tier
/// rather than letting the lazy DFA thrash its cache; the prefilter gate
/// still decides between the prefilter and the NFA. The acyclic
/// check keeps self-looping shapes (SeqMatch skip states, `.*` cores)
/// out: those determinize fine.
fn fuzzy_layered_shape(a: &Automaton) -> Option<usize> {
    if a.counter_count() != 0 || a.state_count() == 0 {
        return None;
    }
    // Error-track states accept Σ (insertion tracks) or a large
    // complement class (substitution/deletion tracks): anything over
    // half the alphabet counts as "wide".
    let mut wide = 0usize;
    for (_, el) in a.iter() {
        if let ElementKind::Ste { class, .. } = &el.kind {
            if class.len() >= 128 {
                wide += 1;
            }
        }
    }
    if wide < 16 || wide * 4 < a.state_count() {
        return None;
    }
    // Kahn toposort over activate edges: any cycle disqualifies.
    let mut indegree = vec![0usize; a.state_count()];
    for (id, _) in a.iter() {
        for edge in a.successors(id) {
            if edge.port == Port::Activate {
                indegree[edge.to.index()] += 1;
            }
        }
    }
    let mut queue: Vec<usize> = (0..a.state_count()).filter(|&i| indegree[i] == 0).collect();
    let mut seen = 0usize;
    while let Some(i) = queue.pop() {
        seen += 1;
        for edge in a.successors(azoo_core::StateId::new(i)) {
            if edge.port == Port::Activate {
                let j = edge.to.index();
                indegree[j] -= 1;
                if indegree[j] == 0 {
                    queue.push(j);
                }
            }
        }
    }
    (seen == a.state_count()).then_some(wide)
}

/// The prefilter tier's admission gate for `pf`, as a coverage
/// threshold: half the states when `pf` gates at least one component,
/// otherwise infinity, which no coverage reaches. The single-threaded
/// portfolio and [`ParallelScanner::with_prefilter`]'s shards both admit
/// on `pf.coverage() >= prefilter_gate(&pf)`.
pub fn prefilter_gate(pf: &PrefilterEngine) -> f64 {
    if pf.component_count() > 0 {
        PREFILTER_COVERAGE_GATE
    } else {
        f64::INFINITY
    }
}

/// Streaming-capable variant of [`select_engine`]: the same portfolio
/// policy, but the boxed engine also exposes the
/// [`StreamingEngine`](crate::StreamingEngine) feed protocol and
/// [`SessionEngine::clone_session`], as session pools (azoo-serve)
/// require. [`select_engine`] delegates here, so the two can never
/// disagree on the choice.
///
/// # Errors
///
/// Propagates [`EngineError::Invalid`] if the automaton fails
/// validation.
pub fn select_session_engine(
    a: &Automaton,
) -> Result<(EngineChoice, Box<dyn SessionEngine>), EngineError> {
    let (choice, _, engine) = select_session_engine_explained(a)?;
    Ok((choice, engine))
}

/// [`select_session_engine`] plus a human-readable reason for the
/// choice, suitable for bench-row and report annotations.
///
/// # Errors
///
/// Propagates [`EngineError::Invalid`] if the automaton fails
/// validation.
pub fn select_session_engine_explained(
    a: &Automaton,
) -> Result<(EngineChoice, String, Box<dyn SessionEngine>), EngineError> {
    preflight(a)?;
    // Bit-parallel: chain-shaped and small enough that the per-symbol
    // mask walk stays cheap (~256 KiB of active-set words).
    if a.state_count() <= 2_000_000 {
        if let Ok(engine) = BitParallelEngine::new(a) {
            let reason = format!(
                "chain-shaped, {} states: dense bit-parallel advance",
                a.state_count()
            );
            return Ok((EngineChoice::BitParallel, reason, Box::new(engine)));
        }
    }
    // Layered edit-distance meshes (azoo-fuzzy, the zoo's Levenshtein /
    // Hamming filters, `??`-heavy signature sets) determinize
    // explosively — the subset automaton enumerates position-×-edit
    // antichains — so they skip the DFA tier. The prefilter gate still
    // gets a vote: signature sets carry required literals, fuzzy meshes
    // do not and end on the sparse NFA.
    let mesh = fuzzy_layered_shape(a);
    if a.counter_count() == 0 && a.state_count() <= 200_000 && mesh.is_none() {
        if let Ok(engine) = LazyDfaEngine::new(a) {
            let reason = format!(
                "counter-free, {} NFA states: lazy subset construction",
                a.state_count()
            );
            return Ok((EngineChoice::LazyDfa, reason, Box::new(engine)));
        }
    }
    // Prefilter: worthwhile only when required literals gate most of the
    // state space (see [`prefilter_gate`]); otherwise the fallback
    // remainder dominates and plain sparse simulation is simpler.
    let engine = PrefilterEngine::new(a)?;
    let gate = prefilter_gate(&engine);
    if engine.coverage() >= gate {
        let reason = format!(
            "literal coverage {:.2} >= gate {gate:.2} ({} literals, {} trigger)",
            engine.coverage(),
            engine.literal_count(),
            engine.trigger_kind()
        );
        return Ok((EngineChoice::Prefilter, reason, Box::new(engine)));
    }
    let verdict = if engine.component_count() == 0 {
        "no prefilterable literals: sparse NFA simulation".to_string()
    } else {
        format!(
            "literal coverage {:.2} below gate {gate:.2} ({} literals): sparse NFA simulation",
            engine.coverage(),
            engine.literal_count()
        )
    };
    let reason = match mesh {
        Some(wide) => format!(
            "layered edit-distance mesh ({wide} of {} states carry wide error-track classes) \
             skips the DFA tier; {verdict}",
            a.state_count()
        ),
        None => verdict,
    };
    Ok((EngineChoice::Nfa, reason, Box::new(NfaEngine::new(a)?)))
}

/// Thread-aware variant of [`select_session_engine`]: with more than
/// one thread it builds a [`ParallelScanner`] (whose merged stream
/// matches the single-threaded engines byte for byte), otherwise it
/// defers to the single-threaded portfolio.
///
/// # Errors
///
/// Propagates [`EngineError::Invalid`] if the automaton fails
/// validation.
pub fn select_session_engine_threaded(
    a: &Automaton,
    threads: usize,
) -> Result<(EngineChoice, Box<dyn SessionEngine>), EngineError> {
    if threads > 1 {
        preflight(a)?;
        // Shards whose components carry required literals run behind the
        // prefilter (same gate as the single-threaded portfolio); the
        // merged stream is identical either way.
        let engine = ParallelScanner::with_prefilter(a, threads, true)?;
        return Ok((EngineChoice::Parallel { threads }, Box::new(engine)));
    }
    select_session_engine(a)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::sink::CollectSink;
    use azoo_core::{CounterMode, StartKind, StateId, SymbolClass};

    #[test]
    fn chains_get_bit_parallel() {
        let mut a = Automaton::new();
        let (_, last) = a.add_chain(&[SymbolClass::from_byte(b'x'); 4], StartKind::AllInput);
        a.set_report(last, 0);
        let (choice, mut engine) = select_engine(&a).unwrap();
        assert_eq!(choice, EngineChoice::BitParallel);
        let mut sink = CollectSink::new();
        engine.scan(b"xxxx", &mut sink);
        assert_eq!(sink.reports().len(), 1);
    }

    #[test]
    fn small_fanout_gets_lazy_dfa() {
        // Not chain-shaped, counter-free, determinizes to a handful of
        // states: the DFA tier takes it, however small.
        let mut a = Automaton::new();
        let s = a.add_ste(SymbolClass::from_byte(b'a'), StartKind::AllInput);
        let t1 = a.add_ste(SymbolClass::from_byte(b'b'), StartKind::None);
        let t2 = a.add_ste(SymbolClass::from_byte(b'c'), StartKind::None);
        a.add_edge(s, t1);
        a.add_edge(s, t2);
        a.set_report(t1, 0);
        a.set_report(t2, 1);
        let (choice, mut engine) = select_engine(&a).unwrap();
        assert_eq!(choice, EngineChoice::LazyDfa);
        let mut sink = CollectSink::new();
        engine.scan(b"ab.ac.a", &mut sink);
        assert_eq!(sink.reports().len(), 2);
    }

    #[test]
    fn counters_force_nfa() {
        let mut a = Automaton::new();
        let s = a.add_ste(SymbolClass::from_byte(b'a'), StartKind::AllInput);
        let t = a.add_ste(SymbolClass::from_byte(b'b'), StartKind::None);
        a.add_edge(s, t);
        a.add_edge(s, s); // self loop plus fan-out breaks the chain shape
        a.add_edge(t, s);
        let c = a.add_counter(2, CounterMode::Latch);
        a.add_edge(t, c);
        a.set_report(c, 0);
        let (choice, _) = select_engine(&a).unwrap();
        assert_eq!(choice, EngineChoice::Nfa);
    }

    #[test]
    fn big_literal_suites_get_the_prefilter() {
        // Counter-free but too large for the lazy DFA and not
        // chain-shaped (one fanout component), with required literals
        // everywhere: the prefilter tier catches it.
        let mut a = Automaton::new();
        let s = a.add_ste(SymbolClass::from_byte(b'a'), StartKind::AllInput);
        let t1 = a.add_ste(SymbolClass::from_byte(b'b'), StartKind::None);
        let t2 = a.add_ste(SymbolClass::from_byte(b'c'), StartKind::None);
        a.add_edge(s, t1);
        a.add_edge(s, t2);
        a.set_report(t1, 0);
        a.set_report(t2, 1);
        for i in 0..30_000u32 {
            let word = format!("w{i:06}");
            let classes: Vec<SymbolClass> = word.bytes().map(SymbolClass::from_byte).collect();
            let (_, last) = a.add_chain(&classes, StartKind::AllInput);
            a.set_report(last, 2 + i);
        }
        assert!(a.state_count() > 200_000);
        let (choice, mut engine) = select_engine(&a).unwrap();
        assert_eq!(choice, EngineChoice::Prefilter);
        let mut sink = CollectSink::new();
        engine.scan(b"xx w000017 ab", &mut sink);
        assert_eq!(sink.reports().len(), 2);
    }

    /// `words` as literal chains plus `guards` counter-guarded
    /// components: the counters keep the DFA tier out of the race, and
    /// each guard adds two ungated states that dilute the coverage.
    fn literals_among_counters(words: &[&[u8]], guards: u32) -> Automaton {
        let mut a = Automaton::new();
        for (code, word) in (0u32..).zip(words) {
            let classes: Vec<SymbolClass> =
                word.iter().map(|&b| SymbolClass::from_byte(b)).collect();
            let (_, last) = a.add_chain(&classes, StartKind::AllInput);
            a.set_report(last, code);
        }
        for i in 0..guards {
            let s = a.add_ste(SymbolClass::from_byte(b'a'), StartKind::AllInput);
            let c = a.add_counter(2 + i, CounterMode::Latch);
            a.add_edge(s, c);
            a.set_report(c, 100 + i);
        }
        a
    }

    #[test]
    fn explained_selection_reports_the_gate_math() {
        // The Brill shape in miniature: literals exist but gate a minority
        // of the states, so the gate rejects the prefilter and the reason
        // says why. Long literals buy no discount: two 20-byte words
        // gating under a third of the states are rejected the same way.
        let long: [&[u8]; 2] = [b"internationalization", b"electroencephalogram"];
        for (words, guards) in [(&[&b"word"[..]][..], 60), (&long[..], 45)] {
            let a = literals_among_counters(words, guards);
            let pf = PrefilterEngine::new(&a).unwrap();
            assert_eq!(prefilter_gate(&pf), PREFILTER_COVERAGE_GATE);
            assert!(pf.coverage() < PREFILTER_COVERAGE_GATE);
            let (choice, reason, _) = select_session_engine_explained(&a).unwrap();
            assert_eq!(choice, EngineChoice::Nfa, "{reason}");
            assert!(
                reason.contains("below gate 0.50"),
                "reason should explain the rejection: {reason}"
            );
        }
    }

    #[test]
    fn dropped_states_alone_never_pass_the_gate() {
        // Never-reporting components count toward coverage, but with no
        // gated component the prefilter has nothing to trigger on, so
        // the gate is out of reach.
        let mut a = literals_among_counters(&[], 1);
        for _ in 0..8 {
            a.add_ste(SymbolClass::from_byte(b'z'), StartKind::AllInput);
        }
        let pf = PrefilterEngine::new(&a).unwrap();
        assert_eq!(pf.component_count(), 0);
        assert!(pf.coverage() >= PREFILTER_COVERAGE_GATE);
        let (choice, reason, _) = select_session_engine_explained(&a).unwrap();
        assert_eq!(choice, EngineChoice::Nfa, "{reason}");
    }

    #[test]
    fn fuzzy_meshes_route_straight_to_nfa() {
        // A 24-byte pattern at edit distance 2: well within the DFA
        // tier's size cut, but the layered-mesh detector keeps it out of
        // subset construction, and with no required literal the
        // prefilter gate sends it on to sparse simulation.
        let (a, _) = azoo_fuzzy::fuzzy_from_bytes(
            b"approximate_dictionary_x",
            2,
            azoo_fuzzy::EditProfile::LEVENSHTEIN,
            7,
        )
        .unwrap();
        assert!(a.state_count() <= 200_000);
        let (choice, reason, mut engine) = select_session_engine_explained(&a).unwrap();
        assert_eq!(choice, EngineChoice::Nfa, "{reason}");
        assert!(
            reason.contains("edit-distance mesh"),
            "reason should name the shape: {reason}"
        );
        let mut sink = CollectSink::new();
        engine.scan(b"zz approxmiate_dictionary_x zz", &mut sink);
        assert!(!sink.reports().is_empty());
    }

    #[test]
    fn mesh_shaped_signature_sets_take_the_prefilter() {
        // ClamAV in miniature: `sigNNN{3-6}endNNN`, two 6-byte literals
        // joined by a variable run of `??` wildcards. A third of the
        // states are full-class and the machine is acyclic, so it has
        // the mesh shape — but every component carries a required
        // literal, so the prefilter gate admits it.
        fn literal(a: &mut Automaton, text: &str, start: StartKind) -> (StateId, StateId) {
            let classes: Vec<SymbolClass> = text.bytes().map(SymbolClass::from_byte).collect();
            a.add_chain(&classes, start)
        }
        let mut a = Automaton::new();
        for i in 0..8u32 {
            let (_, head_end) = literal(&mut a, &format!("sig{i:03}"), StartKind::AllInput);
            let (tail_start, tail_end) = literal(&mut a, &format!("end{i:03}"), StartKind::None);
            let mut prev = head_end;
            for gap in 1..=6 {
                let w = a.add_ste(SymbolClass::FULL, StartKind::None);
                a.add_edge(prev, w);
                if gap >= 3 {
                    a.add_edge(w, tail_start);
                }
                prev = w;
            }
            a.set_report(tail_end, i);
        }
        let wide = fuzzy_layered_shape(&a).expect("mesh-shaped");
        assert!(wide >= 16 && wide * 4 >= a.state_count());

        let (choice, reason, mut engine) = select_session_engine_explained(&a).unwrap();
        assert_eq!(choice, EngineChoice::Prefilter, "{reason}");

        let input = b"xx sig001abcend001 sig002abcdefend002 sig003abend003 \
                      sig004abcdefgend004 sig005..sig005xyzend005 sig007123456end007";
        let mut got = CollectSink::new();
        engine.scan(input, &mut got);
        let mut want = CollectSink::new();
        NfaEngine::new(&a).unwrap().scan(input, &mut want);
        assert_eq!(got.reports(), want.reports());
        assert_eq!(want.reports().len(), 4);
    }

    #[test]
    fn small_fuzzy_meshes_stay_in_the_dfa_tier() {
        // Below the wide-state floor the heuristic stays out of the way:
        // a 4-byte pattern at k = 1 carries too few error-track states
        // to justify skipping the DFA tier.
        let (a, _) =
            azoo_fuzzy::fuzzy_from_bytes(b"gene", 1, azoo_fuzzy::EditProfile::HAMMING, 0).unwrap();
        assert!(fuzzy_layered_shape(&a).is_none());
        let (choice, _, _) = select_session_engine_explained(&a).unwrap();
        assert_ne!(choice, EngineChoice::Nfa);
    }

    #[test]
    fn self_looping_wide_states_are_not_fuzzy_shaped() {
        // SeqMatch-style Σ skip states self-loop; the acyclic check must
        // refuse them even when wide states dominate.
        let mut a = Automaton::new();
        let mut prev = None;
        for _ in 0..20 {
            let s = a.add_ste(SymbolClass::FULL, StartKind::None);
            a.add_edge(s, s);
            if let Some(p) = prev {
                a.add_edge(p, s);
            } else {
                let head = a.add_ste(SymbolClass::from_byte(b'a'), StartKind::AllInput);
                a.add_edge(head, s);
            }
            prev = Some(s);
        }
        a.set_report(prev.unwrap(), 0);
        assert!(fuzzy_layered_shape(&a).is_none());
    }

    #[test]
    fn threaded_selection_uses_parallel_scanner() {
        let mut a = Automaton::new();
        let (_, last) = a.add_chain(&[SymbolClass::from_byte(b'x'); 4], StartKind::AllInput);
        a.set_report(last, 0);
        let (choice, mut engine) = select_session_engine_threaded(&a, 4).unwrap();
        assert_eq!(choice, EngineChoice::Parallel { threads: 4 });
        let mut sink = CollectSink::new();
        engine.scan(b"xxxxx", &mut sink);
        assert_eq!(sink.reports().len(), 2);
    }

    #[test]
    fn single_thread_defers_to_portfolio() {
        let mut a = Automaton::new();
        let (_, last) = a.add_chain(&[SymbolClass::from_byte(b'x'); 4], StartKind::AllInput);
        a.set_report(last, 0);
        let (choice, _) = select_session_engine_threaded(&a, 1).unwrap();
        assert_eq!(choice, EngineChoice::BitParallel);
    }

    #[test]
    fn invalid_automata_error() {
        let mut a = Automaton::new();
        a.add_ste(SymbolClass::EMPTY, StartKind::AllInput);
        assert!(select_engine(&a).is_err());
    }

    #[test]
    fn preflight_rejects_duplicate_edges() {
        let mut a = Automaton::new();
        let s = a.add_ste(SymbolClass::from_byte(b'a'), StartKind::AllInput);
        let t = a.add_ste(SymbolClass::from_byte(b'b'), StartKind::None);
        a.add_edge(s, t);
        a.add_edge(s, t);
        a.set_report(t, 0);
        assert!(matches!(
            select_engine(&a),
            Err(EngineError::Invalid(
                azoo_core::CoreError::DuplicateEdge { .. }
            ))
        ));
        assert!(select_session_engine_threaded(&a, 4).is_err());
    }
}
