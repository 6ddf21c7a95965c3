//! Automatic engine selection.
//!
//! Different benchmark shapes favour different engines (the core lesson
//! of the paper's cross-engine experiments): counter-free automata of
//! bounded size determinize well, edit-distance meshes run as bit-vector
//! lanes, rule sets gated by required literals run behind the
//! prefilter, and counters or explosive subset construction require the
//! sparse NFA engine.
//! [`select_session_engine`] encodes that portfolio policy.

use azoo_core::{stats::longest_path_from_starts, Automaton, ElementKind};

use crate::{
    BitParallelEngine, EngineError, LazyDfaEngine, NfaEngine, ParallelScanner, PrefilterEngine,
    SessionEngine,
};

/// Minimum fraction of states a prefilter plan must cover before
/// [`prefilter_gate`] admits it.
const PREFILTER_COVERAGE_GATE: f64 = 0.5;

/// Which engine [`select_session_engine`] picked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(clippy::manual_non_exhaustive)] // the hidden variants are shims, not markers
pub enum EngineChoice {
    /// The bit-vector engine for edit-distance meshes.
    BitParallel,
    /// The lazy-DFA engine.
    LazyDfa,
    // Never constructed: the frozen azoo-perf/src/layers.rs still matches
    // on the deleted Sheng tier; ROADMAP N1 deletes it.
    #[doc(hidden)]
    Sheng,
    /// The literal-prefilter engine: windowed simulation gated behind an
    /// Aho–Corasick trigger, with the rejected components fully simulated
    /// on a lazy DFA or the sparse NFA.
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

/// Detects the layered edit-distance mesh shape `azoo_passes::mesh`
/// builds (for azoo-fuzzy and the zoo's Hamming, Levenshtein and CRISPR
/// filters): counter-free, acyclic from its starts, and dominated by Σ / near-Σ
/// error-track states. Returns the wide-class state count when the
/// shape matches. Random Forest's feature-range chains match too: their
/// classes are wide byte ranges.
///
/// Subset construction over such a mesh enumerates the pattern's
/// positions-×-edits antichains and blows up exponentially in the edit
/// budget — so the portfolio keeps these out of the DFA tier rather than
/// letting the lazy DFA thrash its cache. A machine of the shape runs on
/// [`BitParallelEngine`] when every component rebuilds as a mesh;
/// otherwise the prefilter gate decides between the prefilter and the
/// sparse NFA. The acyclic check keeps self-looping shapes (SeqMatch
/// skip states, `.*` cores) out: those determinize fine.
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
    // A cycle a start can reach disqualifies; one no start reaches
    // never runs.
    longest_path_from_starts(a).is_some().then_some(wide)
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

/// Picks the fastest applicable engine for `a`:
///
/// 1. counter-free automata of bounded size that are not layered
///    edit-distance meshes → [`LazyDfaEngine`];
/// 2. mesh-shaped automata whose every component rebuilds exactly as a
///    Levenshtein or Hamming mesh that fits a 64-bit lane →
///    [`BitParallelEngine`];
/// 3. automata whose components mostly carry required literals →
///    [`PrefilterEngine`] (admitted by [`prefilter_gate`]);
/// 4. everything else (counters, huge NFAs, other mesh-shaped machines)
///    → [`NfaEngine`].
///
/// The boxed engine scans blocks, runs the
/// [`StreamingEngine`](crate::StreamingEngine) feed protocol and
/// implements [`SessionEngine::clone_session`], as session pools
/// (azoo-serve) require.
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
    // Layered edit-distance meshes (azoo-fuzzy, the zoo's Levenshtein /
    // Hamming filters, `??`-heavy signature sets) determinize explosively
    // — the subset automaton enumerates position-×-edit antichains — so
    // acyclic machines dominated by wide classes skip the DFA tier; Random
    // Forest's range chains share the shape. True meshes run as
    // bit-vector lanes; of the rest, signature sets carry required
    // literals for the prefilter gate, forests do not and end on the
    // sparse NFA.
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
    if let Some((reason, engine)) = mesh.and_then(|wide| bit_parallel(a, wide)) {
        return Ok((EngineChoice::BitParallel, reason, Box::new(engine)));
    }
    // Prefilter: worthwhile only when required literals gate most of the
    // state space (see [`prefilter_gate`]); otherwise the fallback
    // remainder dominates and plain sparse simulation is simpler.
    let engine = PrefilterEngine::new(a)?;
    let gate = prefilter_gate(&engine);
    if engine.coverage() >= gate {
        let reason = format!(
            "literal coverage {:.2} >= gate {gate:.2} ({} literals)",
            engine.coverage(),
            engine.literal_count()
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
            "acyclic, {wide} of {} states carry wide (>= 128-byte) classes: \
             skips the DFA tier; {verdict}",
            a.state_count()
        ),
        None => verdict,
    };
    Ok((EngineChoice::Nfa, reason, Box::new(NfaEngine::new(a)?)))
}

/// The bit-vector tier for a mesh-shaped machine with `wide` wide
/// states, with the reason, when every component rebuilds as a mesh.
fn bit_parallel(a: &Automaton, wide: usize) -> Option<(String, BitParallelEngine)> {
    let engine = BitParallelEngine::new(a).ok()?;
    let reason = format!(
        "acyclic, {wide} of {} states carry wide (>= 128-byte) classes, and every \
         component rebuilds as an edit-distance mesh: {} {} lanes",
        a.state_count(),
        engine.lane_count(),
        engine.kernel_name()
    );
    Some((reason, engine))
}

/// Thread-aware variant of [`select_session_engine`]: with more than
/// one thread it builds a [`ParallelScanner`] (whose merged stream
/// matches the single-threaded engines byte for byte), otherwise it
/// defers to the single-threaded portfolio. A machine the bit-vector
/// tier admits gets [`BitParallelEngine`] at any thread count: one
/// bit-vector thread outruns sparse-NFA shards by well over the thread
/// count.
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
        if let Some((_, engine)) = fuzzy_layered_shape(a).and_then(|wide| bit_parallel(a, wide)) {
            return Ok((EngineChoice::BitParallel, Box::new(engine)));
        }
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
    use crate::Engine;
    use azoo_core::{CounterMode, StartKind, StateId, SymbolClass};

    #[test]
    fn short_chains_get_lazy_dfa() {
        // A 4-state chain has no wide states, so it is not mesh-shaped:
        // the DFA tier takes it.
        let mut a = Automaton::new();
        let (_, last) = a.add_chain(&[SymbolClass::from_byte(b'x'); 4], StartKind::AllInput);
        a.set_report(last, 0);
        assert!(fuzzy_layered_shape(&a).is_none());
        let (choice, mut engine) = select_session_engine(&a).unwrap();
        assert_eq!(choice, EngineChoice::LazyDfa);
        let mut sink = CollectSink::new();
        engine.scan(b"xxxx", &mut sink);
        assert_eq!(sink.reports().len(), 1);
    }

    #[test]
    fn small_fanout_gets_lazy_dfa() {
        // Counter-free, determinizes to a handful of
        // states: the DFA tier takes it, however small.
        let mut a = Automaton::new();
        let s = a.add_ste(SymbolClass::from_byte(b'a'), StartKind::AllInput);
        let t1 = a.add_ste(SymbolClass::from_byte(b'b'), StartKind::None);
        let t2 = a.add_ste(SymbolClass::from_byte(b'c'), StartKind::None);
        a.add_edge(s, t1);
        a.add_edge(s, t2);
        a.set_report(t1, 0);
        a.set_report(t2, 1);
        let (choice, mut engine) = select_session_engine(&a).unwrap();
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
        a.add_edge(s, s);
        a.add_edge(t, s);
        let c = a.add_counter(2, CounterMode::Latch);
        a.add_edge(t, c);
        a.set_report(c, 0);
        let (choice, _) = select_session_engine(&a).unwrap();
        assert_eq!(choice, EngineChoice::Nfa);
    }

    #[test]
    fn big_literal_suites_get_the_prefilter() {
        // Counter-free but too large for the lazy DFA, with required
        // literals everywhere: the prefilter tier catches it.
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
        let (choice, mut engine) = select_session_engine(&a).unwrap();
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

    fn mesh() -> Automaton {
        // A 24-byte pattern at edit distance 2: well within the DFA
        // tier's size cut, but mesh-shaped.
        azoo_fuzzy::fuzzy_from_bytes(
            b"approximate_dictionary_x",
            2,
            azoo_fuzzy::EditProfile::LEVENSHTEIN,
            7,
        )
        .unwrap()
        .0
    }

    #[test]
    fn fuzzy_meshes_get_the_bit_vector_tier() {
        // The layered-mesh detector keeps it out of subset construction,
        // and the exact rebuild admits it to the bit-vector tier, at any
        // thread count.
        let a = mesh();
        let (choice, reason, mut engine) = select_session_engine_explained(&a).unwrap();
        assert_eq!(choice, EngineChoice::BitParallel, "{reason}");
        assert!(
            reason.contains("acyclic, ") && reason.contains("1 myers lanes"),
            "reason should name the shape and the kernel: {reason}"
        );
        let input = b"zz approxmiate_dictionary_x zz approximate_dictionary zz";
        let mut got = CollectSink::new();
        engine.scan(input, &mut got);
        let mut want = CollectSink::new();
        NfaEngine::new(&a).unwrap().scan(input, &mut want);
        assert_eq!(got.sorted_reports(), want.sorted_reports());
        assert!(!want.reports().is_empty());
        let (choice, _) = select_session_engine_threaded(&a, 2).unwrap();
        assert_eq!(choice, EngineChoice::BitParallel);
    }

    #[test]
    fn a_mutated_mesh_falls_back_to_the_nfa() {
        // One edge or one class away from a mesh: the rebuild differs, the
        // tier refuses it with a typed error, and the portfolio goes on to
        // sparse simulation.
        let base = mesh();
        assert!(BitParallelEngine::new(&base).is_ok());
        let mut extra_edge = base.clone();
        extra_edge.add_edge(StateId::new(2), StateId::new(base.state_count() - 1));
        let mut reclassed = base.clone();
        let victim = StateId::new(base.state_count() / 2);
        if let ElementKind::Ste { class, .. } = &mut reclassed.element_mut(victim).kind {
            class.remove(b'a');
            class.remove(b'_');
        }
        assert_ne!(reclassed, base);
        for a in [extra_edge, reclassed] {
            assert_eq!(
                BitParallelEngine::new(&a).err(),
                Some(EngineError::NotAMesh(StateId::new(0)))
            );
            let (choice, reason, _) = select_session_engine_explained(&a).unwrap();
            assert_eq!(choice, EngineChoice::Nfa, "{reason}");
            assert!(
                reason.contains("wide (>= 128-byte) classes: skips the DFA tier"),
                "{reason}"
            );
            let (choice, _) = select_session_engine_threaded(&a, 2).unwrap();
            assert_eq!(choice, EngineChoice::Parallel { threads: 2 });
        }
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
    fn only_a_start_reachable_cycle_disqualifies_the_mesh_shape() {
        // A cycle no start reaches never runs, so it leaves the shape
        // alone; giving it a start makes it a reachable cycle.
        let mut a = mesh();
        let wide = fuzzy_layered_shape(&a).expect("mesh-shaped");
        let x = a.add_ste(SymbolClass::from_byte(b'x'), StartKind::None);
        let y = a.add_ste(SymbolClass::from_byte(b'y'), StartKind::None);
        a.add_edge(x, y);
        a.add_edge(y, x);
        assert_eq!(fuzzy_layered_shape(&a), Some(wide));
        let z = a.add_ste(SymbolClass::from_byte(b'z'), StartKind::AllInput);
        a.add_edge(z, x);
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
        assert_eq!(choice, EngineChoice::LazyDfa);
    }

    #[test]
    fn invalid_automata_error() {
        let mut a = Automaton::new();
        a.add_ste(SymbolClass::EMPTY, StartKind::AllInput);
        assert!(select_session_engine(&a).is_err());
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
            select_session_engine(&a),
            Err(EngineError::Invalid(
                azoo_core::CoreError::DuplicateEdge { .. }
            ))
        ));
        assert!(select_session_engine_threaded(&a, 4).is_err());
    }
}
