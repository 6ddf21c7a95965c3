//! Literal-prefilter planning.
//!
//! Turns [`azoo_core::stats::prefilter_analysis`] into an executable
//! plan: the automaton is split, component by component, into
//!
//! * **prefilterable components** — counter-free, unanchored, acyclic
//!   from their starts, every reachable report state covered by a
//!   required literal. These are only ever simulated inside a bounded
//!   window before a literal occurrence;
//! * a **fallback remainder** — the union of all components the
//!   analysis rejects, which must be fully simulated;
//! * **dropped components** — components with no reachable reporting
//!   element; they can never produce observable output and need no
//!   scanning at all.
//!
//! The split is a single pass over the states (not one
//! [`Automaton::retain_states`] per component, which would be
//! quadratic in the suite size).

use azoo_core::stats::{
    component_profiles, prefilter_analysis, ComponentPrefilter, RequiredLiteral,
};
use azoo_core::{Automaton, Port, ReportCode};

/// Shortest required factor worth triggering on. Shorter factors hit so
/// often that windowed simulation costs more than fully simulating the
/// component in the fallback remainder — unless the factor is the
/// component's *entire* match (single factor, `before == after == 0`,
/// spanning the longest path, one non-eod report state; see
/// [`PrefilterComponent::exact`]), in which case trigger hits are
/// reports and cost nothing beyond the scan.
pub const MIN_STRONG_LITERAL: usize = 4;

/// One prefilterable component, detached into its own automaton.
#[derive(Debug, Clone)]
pub struct PrefilterComponent {
    /// The component's states, re-indexed from zero.
    pub automaton: Automaton,
    /// Longest start-rooted path in states: a match reported at offset
    /// `p` began no earlier than `p - (window - 1)`.
    pub window: usize,
    /// Required factors; every match of this component contains one of
    /// them, located by the factor's `before`/`after` span geometry.
    pub literals: Vec<RequiredLiteral>,
    /// The report code when the component's sole factor *is* its every
    /// match: the factor starts at a start state (`before == 0`), ends
    /// at the only report state (`after == 0`), which is not end-of-data
    /// gated, and spans the longest path (`window`), so each accepting
    /// path is exactly the factor's chain. A factor occurrence ending at
    /// `e` is then the report `(e, code)`. Such components are kept
    /// however short their factor.
    pub exact: Option<ReportCode>,
}

/// The full prefilter plan for an automaton.
#[derive(Debug, Clone)]
pub struct PrefilterPlan {
    /// Components eligible for windowed, literal-triggered simulation.
    pub components: Vec<PrefilterComponent>,
    /// Union of the rejected components; `None` when every component is
    /// either prefilterable or dropped.
    pub fallback: Option<Automaton>,
    /// Per-component analysis verdicts (prefilterable, dropped, and
    /// rejected alike), as produced by `prefilter_analysis`.
    pub analysis: Vec<ComponentPrefilter>,
    /// States covered by `components`.
    pub prefiltered_states: usize,
    /// States in the fallback remainder.
    pub fallback_states: usize,
    /// States in dropped (never-reporting) components.
    pub dropped_states: usize,
    /// Components the analysis passed but the plan demoted to the
    /// fallback because their factors are too short to trigger on
    /// (their states are included in `fallback_states`).
    pub demoted_components: usize,
    /// States in demoted components.
    pub demoted_states: usize,
}

impl PrefilterPlan {
    /// Fraction of states the prefilter spares from full simulation
    /// (prefiltered plus dropped over total). `1.0` for an empty
    /// automaton.
    pub fn coverage(&self) -> f64 {
        let total = self.prefiltered_states + self.fallback_states + self.dropped_states;
        if total == 0 {
            1.0
        } else {
            (self.prefiltered_states + self.dropped_states) as f64 / total as f64
        }
    }
}

/// Destination of a component's states in the split.
#[derive(Clone, Copy)]
enum Bucket {
    Component(usize),
    Fallback,
    Dropped,
}

/// Computes the prefilter plan for `a`.
pub fn prefilter_plan(a: &Automaton) -> PrefilterPlan {
    let comps = component_profiles(a);
    let analysis = prefilter_analysis(a, &comps);
    let labels = &comps.labels;

    // Per-component report shape, for the exact-match carve-out of the
    // short-factor demotion rule (component index == label): the code of
    // the component's only report state, unless that is end-of-data
    // gated.
    let mut rep_count = vec![0usize; analysis.len()];
    let mut sole_report = vec![None; analysis.len()];
    for (id, e) in a.iter() {
        if let Some(code) = e.report {
            let ci = labels[id.index()];
            rep_count[ci] += 1;
            sole_report[ci] = (rep_count[ci] == 1 && !e.report_eod_only).then_some(code);
        }
    }

    let mut bucket_of = Vec::with_capacity(analysis.len());
    let mut components = Vec::new();
    let mut prefiltered_states = 0usize;
    let mut fallback_states = 0usize;
    let mut dropped_states = 0usize;
    let mut demoted_components = 0usize;
    let mut demoted_states = 0usize;
    for (ci, cp) in analysis.iter().enumerate() {
        let states = cp.profile.states;
        match &cp.literals {
            Some(lits) if !cp.profile.reporting => {
                debug_assert!(lits.is_empty());
                bucket_of.push(Bucket::Dropped);
                dropped_states += states;
            }
            Some(lits) => {
                let window = cp.profile.window.unwrap_or(0);
                let exact = match lits.as_slice() {
                    [l] if l.before == 0 && l.after == 0 && l.bytes.len() == window => {
                        sole_report[ci]
                    }
                    _ => None,
                };
                let min_len = lits.iter().map(|l| l.bytes.len()).min().unwrap_or(0);
                if exact.is_none() && min_len < MIN_STRONG_LITERAL {
                    bucket_of.push(Bucket::Fallback);
                    fallback_states += states;
                    demoted_components += 1;
                    demoted_states += states;
                } else {
                    bucket_of.push(Bucket::Component(components.len()));
                    prefiltered_states += states;
                    components.push(PrefilterComponent {
                        automaton: Automaton::new(),
                        window,
                        literals: lits.clone(),
                        exact,
                    });
                }
            }
            None => {
                bucket_of.push(Bucket::Fallback);
                fallback_states += states;
            }
        }
    }

    // Single pass: place every state, remembering its new id, then wire
    // the edges (endpoints of an edge always share a component, hence a
    // bucket).
    let mut fallback = Automaton::new();
    let mut remap = vec![azoo_core::StateId::new(0); a.state_count()];
    for (id, e) in a.iter() {
        let dst = match bucket_of[labels[id.index()]] {
            Bucket::Component(ci) => &mut components[ci].automaton,
            Bucket::Fallback => &mut fallback,
            Bucket::Dropped => continue,
        };
        remap[id.index()] = dst.add_element(e.clone());
    }
    for (id, _) in a.iter() {
        let dst = match bucket_of[labels[id.index()]] {
            Bucket::Component(ci) => &mut components[ci].automaton,
            Bucket::Fallback => &mut fallback,
            Bucket::Dropped => continue,
        };
        for edge in a.successors(id) {
            let (from, to) = (remap[id.index()], remap[edge.to.index()]);
            match edge.port {
                Port::Activate => dst.add_edge(from, to),
                Port::Reset => dst.add_reset_edge(from, to),
            }
        }
    }

    PrefilterPlan {
        components,
        fallback: if fallback.state_count() > 0 {
            Some(fallback)
        } else {
            None
        },
        analysis,
        prefiltered_states,
        fallback_states,
        dropped_states,
        demoted_components,
        demoted_states,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use azoo_core::{CounterMode, StartKind, StateId, SymbolClass};

    fn word(a: &mut Automaton, w: &[u8], code: u32) {
        let classes: Vec<SymbolClass> = w.iter().map(|&b| SymbolClass::from_byte(b)).collect();
        let (_, last) = a.add_chain(&classes, StartKind::AllInput);
        a.set_report(last, code);
    }

    #[test]
    fn splits_literals_from_fallback() {
        let mut a = Automaton::new();
        word(&mut a, b"admin", 0);
        word(&mut a, b"shell", 1);
        // A cyclic component that must fall back.
        let s = a.add_ste(SymbolClass::from_byte(b'x'), StartKind::AllInput);
        let l = a.add_ste(SymbolClass::from_byte(b'y'), StartKind::None);
        a.add_edge(s, l);
        a.add_edge(l, l);
        a.set_report(l, 2);
        let plan = prefilter_plan(&a);
        assert_eq!(plan.components.len(), 2);
        assert_eq!(plan.prefiltered_states, 10);
        assert_eq!(plan.fallback_states, 2);
        let fb = plan.fallback.as_ref().unwrap();
        assert_eq!(fb.state_count(), 2);
        fb.validate().unwrap();
        for c in &plan.components {
            c.automaton.validate().unwrap();
            assert_eq!(c.window, 5);
            assert_eq!(c.literals.len(), 1);
        }
        assert!((plan.coverage() - 10.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn reportless_components_are_dropped() {
        let mut a = Automaton::new();
        word(&mut a, b"keep", 0);
        a.add_chain(&[SymbolClass::from_byte(b'n'); 3], StartKind::AllInput);
        let plan = prefilter_plan(&a);
        assert_eq!(plan.components.len(), 1);
        assert!(plan.fallback.is_none());
        assert_eq!(plan.dropped_states, 3);
        assert_eq!(plan.coverage(), 1.0);
    }

    #[test]
    fn counters_and_reset_edges_survive_in_fallback() {
        let mut a = Automaton::new();
        let s = a.add_ste(SymbolClass::from_byte(b'k'), StartKind::AllInput);
        let r = a.add_ste(SymbolClass::from_byte(b'z'), StartKind::AllInput);
        let c = a.add_counter(3, CounterMode::Latch);
        a.add_edge(s, c);
        a.add_reset_edge(r, c);
        a.set_report(c, 9);
        let plan = prefilter_plan(&a);
        assert!(plan.components.is_empty());
        let fb = plan.fallback.unwrap();
        assert_eq!(fb.state_count(), 3);
        assert_eq!(fb.counter_count(), 1);
        fb.validate().unwrap();
    }

    #[test]
    fn exact_components_carry_their_code_and_escape_demotion() {
        let mut a = Automaton::new();
        word(&mut a, b"ab", 3); // exact, short: kept
        word(&mut a, b"cd", 4);
        let gated = StateId::new(a.state_count() - 1);
        a.set_report_eod_only(gated, true); // not exact: demoted
        word(&mut a, b"long_word", 7);
        let last = StateId::new(a.state_count() - 1);
        a.set_report_eod_only(last, true); // not exact, but strong
        let plan = prefilter_plan(&a);
        let exact: Vec<Option<ReportCode>> = plan.components.iter().map(|c| c.exact).collect();
        assert_eq!(exact, vec![Some(ReportCode(3)), None]);
        assert_eq!(plan.demoted_components, 1);
    }

    #[test]
    fn empty_automaton_has_empty_plan() {
        let plan = prefilter_plan(&Automaton::new());
        assert!(plan.components.is_empty());
        assert!(plan.fallback.is_none());
        assert_eq!(plan.coverage(), 1.0);
    }
}
