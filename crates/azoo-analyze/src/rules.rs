//! The lint rule registry and the analysis passes behind it.
//!
//! Every finding carries a **stable rule id** (kebab-case). Error-level
//! structural rules are not implemented here: they delegate to
//! [`Automaton::validate_all`], the single source of truth shared with
//! `Automaton::validate`, and are only *mapped* to rule ids. Warn-level
//! rules are heuristic analyses implemented in this module.

use std::collections::HashMap;

use azoo_core::stats::{component_profiles, reachable_from_starts, ComponentProfiles};
use azoo_core::{Automaton, CoreError, Port, StartKind, StateId};

use crate::config::LintConfig;
use crate::diag::{Diagnostic, Severity};

/// A registry entry: one rule, its default severity, and what it means.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable kebab-case id, usable in `--allow` / `--deny`.
    pub id: &'static str,
    /// Default severity (overridable per [`LintConfig`]).
    pub severity: Severity,
    /// One-line human description.
    pub summary: &'static str,
}

/// Every rule the analyzer can emit, in registry order.
///
/// Error-level entries mirror [`CoreError`] variants; Warn-level entries
/// are heuristic passes. `parse-error` and `pass-invariant` are emitted
/// by the frontends (`azoo-lint`, [`crate::verify::verify_pass`]) rather
/// than by [`analyze`].
pub const RULES: &[Rule] = &[
    Rule {
        id: "invalid-edge-target",
        severity: Severity::Error,
        summary: "an edge references a state id outside the automaton",
    },
    Rule {
        id: "empty-symbol-class",
        severity: Severity::Error,
        summary: "an STE has an empty symbol class and can never match",
    },
    Rule {
        id: "malformed-counter",
        severity: Severity::Error,
        summary: "a counter element carries STE-only attributes",
    },
    Rule {
        id: "zero-counter-target",
        severity: Severity::Error,
        summary: "a counter with target 0 would fire before any count",
    },
    Rule {
        id: "reset-into-ste",
        severity: Severity::Error,
        summary: "a reset edge targets an STE, which has no reset port",
    },
    Rule {
        id: "no-start-states",
        severity: Severity::Error,
        summary: "a non-empty automaton has no start states",
    },
    Rule {
        id: "duplicate-edge",
        severity: Severity::Error,
        summary: "the same (target, port) edge appears twice on one state",
    },
    Rule {
        id: "structural-error",
        severity: Severity::Error,
        summary: "other structural validation failure",
    },
    Rule {
        id: "parse-error",
        severity: Severity::Error,
        summary: "an automaton interchange document failed to parse",
    },
    Rule {
        id: "pass-invariant",
        severity: Severity::Error,
        summary: "a transformation pass violated a structural or language invariant",
    },
    Rule {
        id: "unreachable-state",
        severity: Severity::Warn,
        summary: "no start state can ever activate this state",
    },
    Rule {
        id: "cannot-report",
        severity: Severity::Warn,
        summary: "no path from this state reaches a reporting state",
    },
    Rule {
        id: "report-code-collision",
        severity: Severity::Warn,
        summary: "one report code is emitted by multiple disconnected subgraphs",
    },
    Rule {
        id: "latch-without-reset",
        severity: Severity::Warn,
        summary: "a latching counter has no reset edge and can never re-arm",
    },
    Rule {
        id: "counter-target-unreachable",
        severity: Severity::Warn,
        summary: "a counter's target exceeds the pulses its subgraph can deliver",
    },
    Rule {
        id: "shadowed-start",
        severity: Severity::Warn,
        summary: "an edge activates an all-input start state, which is a no-op",
    },
    Rule {
        id: "all-input-explosion",
        severity: Severity::Warn,
        summary: "all-input start states predict an explosive active set",
    },
    Rule {
        id: "nfa-hotspot",
        severity: Severity::Warn,
        summary: "one byte enables many successors of one state at once",
    },
    Rule {
        id: "bit-residue",
        severity: Severity::Warn,
        summary: "bit-level symbol classes are mixed into a byte-level machine",
    },
    Rule {
        id: "prefilterable",
        severity: Severity::Warn,
        summary: "a reporting component cannot be gated by the literal prefilter",
    },
    Rule {
        id: "bisimilar-states",
        severity: Severity::Warn,
        summary: "forward-bisimilar states waste capacity; the reduction tier would merge them",
    },
    Rule {
        id: "fuzzy-blowup",
        severity: Severity::Warn,
        summary: "an edit-distance mesh predicts an explosive error-layer frontier",
    },
];

/// Looks up a rule by id.
pub fn rule(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// Maps a [`CoreError`] to its rule id and anchor state.
pub fn rule_for_core_error(e: &CoreError) -> (&'static str, Option<StateId>) {
    match e {
        CoreError::InvalidStateId(_) => ("invalid-edge-target", None),
        CoreError::EmptySymbolClass(id) => ("empty-symbol-class", Some(*id)),
        CoreError::MalformedCounter(id) => ("malformed-counter", Some(*id)),
        CoreError::ZeroCounterTarget(id) => ("zero-counter-target", Some(*id)),
        CoreError::ResetIntoSte { from, .. } => ("reset-into-ste", Some(*from)),
        CoreError::NoStartStates => ("no-start-states", None),
        CoreError::DuplicateEdge { from, .. } => ("duplicate-edge", Some(*from)),
        CoreError::Format(_) => ("parse-error", None),
        _ => ("structural-error", None),
    }
}

/// Collects diagnostics per rule, applying config severity overrides and
/// the per-rule cap (overflow folds into one summary diagnostic).
struct Emitter<'c> {
    cfg: &'c LintConfig,
    out: Vec<Diagnostic>,
    emitted: HashMap<&'static str, usize>,
    overflow: Vec<(&'static str, Severity, usize)>,
}

impl<'c> Emitter<'c> {
    fn new(cfg: &'c LintConfig) -> Self {
        Emitter {
            cfg,
            out: Vec::new(),
            emitted: HashMap::new(),
            overflow: Vec::new(),
        }
    }

    fn emit(&mut self, rule_id: &'static str, state: Option<StateId>, message: String) {
        let default = rule(rule_id).map_or(Severity::Warn, |r| r.severity);
        let Some(severity) = self.cfg.effective(rule_id, default) else {
            return;
        };
        let n = self.emitted.entry(rule_id).or_insert(0);
        if *n >= self.cfg.max_per_rule {
            match self.overflow.iter_mut().find(|(r, _, _)| *r == rule_id) {
                Some(entry) => entry.2 += 1,
                None => self.overflow.push((rule_id, severity, 1)),
            }
            return;
        }
        *n += 1;
        self.out.push(Diagnostic {
            rule: rule_id,
            severity,
            state,
            message,
        });
    }

    fn finish(mut self) -> Vec<Diagnostic> {
        for (rule_id, severity, count) in self.overflow {
            self.out.push(Diagnostic::global(
                rule_id,
                severity,
                format!(
                    "{count} further finding(s) suppressed (cap {} per rule)",
                    self.cfg.max_per_rule
                ),
            ));
        }
        self.out
    }
}

/// Runs every analysis rule with the default configuration.
pub fn analyze(a: &Automaton) -> Vec<Diagnostic> {
    analyze_with(a, &LintConfig::default())
}

/// Runs every analysis rule under `cfg`.
///
/// Error-level findings come verbatim from
/// [`Automaton::validate_all`]; Warn-level findings from the heuristic
/// passes in this module. Diagnostics are grouped by rule in registry
/// order.
pub fn analyze_with(a: &Automaton, cfg: &LintConfig) -> Vec<Diagnostic> {
    let mut em = Emitter::new(cfg);
    for e in a.validate_all() {
        let (rule_id, state) = rule_for_core_error(&e);
        em.emit(rule_id, state, e.to_string());
    }
    let reachable = reachable_from_starts(a);
    let comps = component_profiles(a);
    check_unreachable(a, &reachable, &mut em);
    check_cannot_report(a, &reachable, &mut em);
    check_report_code_collisions(a, &comps, &mut em);
    check_counters(a, &comps, &mut em);
    check_shadowed_starts(a, &mut em);
    check_all_input_explosion(a, cfg, &mut em);
    check_nfa_hotspots(a, cfg, &mut em);
    check_bit_residue(a, &mut em);
    check_prefilterable(a, &comps, &mut em);
    check_bisimilar_states(a, &mut em);
    check_fuzzy_blowup(a, &comps, cfg, &mut em);
    em.finish()
}

/// `fuzzy-blowup`: a Levenshtein mesh keeps most of its error layers
/// enabled on nearly every byte — the Σ insertion tracks between layers
/// are wide classes, so the sustained active frontier scales with
/// `k × pattern length`, not with how often the pattern occurs. Flag any
/// component without a start-reachable cycle whose wide-class states
/// (128+ symbols) exceed the budget and make up a substantial share
/// (≥ 1/4, the measured ratio of insertion tracks in a deep mesh) of the
/// component; the cycle gate keeps Σ-self-loop machines (SeqMatch-style
/// sliding windows) out, and the share gate keeps large exact machines
/// with a few wildcard positions out.
fn check_fuzzy_blowup(
    a: &Automaton,
    comps: &ComponentProfiles,
    cfg: &LintConfig,
    em: &mut Emitter<'_>,
) {
    let mut wide = vec![0usize; comps.profiles.len()];
    for (id, e) in a.iter() {
        if e.class().is_some_and(|c| c.len() >= 128) {
            wide[comps.labels[id.index()]] += 1;
        }
    }
    for (p, &wide) in comps.profiles.iter().zip(&wide) {
        if p.window.is_some() && wide > cfg.fuzzy_active_budget && wide * 4 >= p.states {
            em.emit(
                "fuzzy-blowup",
                Some(p.first_state),
                format!(
                    "{wide} of {} states in this component carry wide (128+ symbol) \
                     error-track classes (budget {}); the mesh sustains that frontier \
                     on every byte — lower the edit budget or split the pattern set",
                    p.states, cfg.fuzzy_active_budget
                ),
            );
        }
    }
}

/// `bisimilar-states`: backed by the same preorder as the reduction
/// tier ([`azoo_passes::simulation_partition`]) — one finding per
/// non-singleton bisimulation block, anchored at the block's smallest
/// member.
fn check_bisimilar_states(a: &Automaton, em: &mut Emitter<'_>) {
    let block = azoo_passes::simulation_partition(a);
    let nblocks = block.iter().copied().max().map_or(0, |m| m as usize + 1);
    let mut leader: Vec<Option<StateId>> = vec![None; nblocks];
    let mut extra = vec![0usize; nblocks];
    for (id, _) in a.iter() {
        let b = block[id.index()] as usize;
        match leader[b] {
            None => leader[b] = Some(id),
            Some(_) => extra[b] += 1,
        }
    }
    for (b, lead) in leader.iter().enumerate() {
        let (Some(lead), n) = (lead, extra[b]) else {
            continue;
        };
        if n > 0 {
            em.emit(
                "bisimilar-states",
                Some(*lead),
                format!(
                    "{n} state(s) are forward-bisimilar to {lead:?}; \
                     quotient_simulation would merge them"
                ),
            );
        }
    }
}

fn check_unreachable(a: &Automaton, reachable: &[bool], em: &mut Emitter<'_>) {
    for (id, _) in a.iter() {
        if !reachable[id.index()] {
            em.emit(
                "unreachable-state",
                Some(id),
                "no start state can activate this state; it is dead weight".into(),
            );
        }
    }
}

fn check_cannot_report(a: &Automaton, reachable: &[bool], em: &mut Emitter<'_>) {
    if a.state_count() == 0 {
        return;
    }
    let reports = a.report_states();
    if reports.is_empty() {
        em.emit(
            "cannot-report",
            None,
            "automaton has no reporting states; no input can produce a match".into(),
        );
        return;
    }
    // Reverse closure from the reporting states.
    let pred = a.predecessors();
    let mut useful = vec![false; a.state_count()];
    let mut stack = reports;
    for s in &stack {
        useful[s.index()] = true;
    }
    while let Some(s) = stack.pop() {
        for &(p, _) in &pred[s.index()] {
            if !useful[p.index()] {
                useful[p.index()] = true;
                stack.push(p);
            }
        }
    }
    for (id, _) in a.iter() {
        // Unreachable states are already flagged by unreachable-state.
        if reachable[id.index()] && !useful[id.index()] {
            em.emit(
                "cannot-report",
                Some(id),
                "no path from this state reaches a reporting state".into(),
            );
        }
    }
}

fn check_report_code_collisions(a: &Automaton, comps: &ComponentProfiles, em: &mut Emitter<'_>) {
    let mut comps_of_code: HashMap<u32, Vec<usize>> = HashMap::new();
    for (id, e) in a.iter() {
        if let Some(code) = e.report {
            let labels = comps_of_code.entry(code.0).or_default();
            let label = comps.labels[id.index()];
            if !labels.contains(&label) {
                labels.push(label);
            }
        }
    }
    let mut colliding: Vec<(u32, usize)> = comps_of_code
        .into_iter()
        .filter(|(_, comps)| comps.len() > 1)
        .map(|(code, comps)| (code, comps.len()))
        .collect();
    colliding.sort_unstable();
    for (code, n) in colliding {
        em.emit(
            "report-code-collision",
            None,
            format!("report code {code} is emitted by {n} disconnected subgraphs; matches cannot be told apart"),
        );
    }
}

/// Latch-without-reset and counter-target-unreachable.
fn check_counters(a: &Automaton, comps: &ComponentProfiles, em: &mut Emitter<'_>) {
    if a.counter_count() == 0 {
        return;
    }
    let pred = a.predecessors();
    // Per component: STE count and whether every start is StartOfData
    // (with at least one start present).
    let ncomp = comps.profiles.len();
    let mut ste_count = vec![0usize; ncomp];
    let mut sod_only = vec![true; ncomp];
    let mut has_start = vec![false; ncomp];
    for (id, e) in a.iter() {
        let l = comps.labels[id.index()];
        if e.is_ste() {
            ste_count[l] += 1;
        }
        match e.start_kind() {
            StartKind::None => {}
            StartKind::StartOfData => has_start[l] = true,
            StartKind::AllInput => {
                has_start[l] = true;
                sod_only[l] = false;
            }
        }
    }
    for (id, e) in a.iter() {
        let azoo_core::ElementKind::Counter { target, mode } = &e.kind else {
            continue;
        };
        let (target, mode) = (*target, *mode);
        let has_reset = pred[id.index()].iter().any(|&(_, p)| p == Port::Reset);
        if mode == azoo_core::CounterMode::Latch && !has_reset {
            em.emit(
                "latch-without-reset",
                Some(id),
                "latching counter has no reset edge; once fired it reports forever".into(),
            );
        }
        // A counter absorbs at most one enable pulse per input symbol. In
        // a subgraph whose only starts are StartOfData and that has no
        // start-reachable cycle, activity dies out after at most (STE
        // count) symbols, so total pulses are bounded by the subgraph's
        // STE count. A cycle no start reaches never carries activity.
        let l = comps.labels[id.index()];
        let acyclic = comps.profiles[l].window.is_some();
        if acyclic && sod_only[l] && has_start[l] && (target as usize) > ste_count[l] {
            em.emit(
                "counter-target-unreachable",
                Some(id),
                format!(
                    "target {target} can never be reached: the subgraph delivers at most {} enable pulses",
                    ste_count[l]
                ),
            );
        }
    }
}

fn check_shadowed_starts(a: &Automaton, em: &mut Emitter<'_>) {
    for (id, _) in a.iter() {
        for e in a.successors(id) {
            if e.port == Port::Activate
                && a.element(e.to).is_ste()
                && a.element(e.to).start_kind() == StartKind::AllInput
            {
                em.emit(
                    "shadowed-start",
                    Some(id),
                    format!(
                        "edge into all-input start state {} is a no-op (the target is always enabled)",
                        e.to.index()
                    ),
                );
            }
        }
    }
}

fn check_all_input_explosion(a: &Automaton, cfg: &LintConfig, em: &mut Emitter<'_>) {
    // Expected states matching per symbol under uniform random input:
    // each AllInput STE matches with probability |class|/256 and then
    // enables its successors.
    let mut expected = 0.0f64;
    for (id, e) in a.iter() {
        if e.start_kind() == StartKind::AllInput {
            if let Some(class) = e.class() {
                let p = f64::from(class.len()) / 256.0;
                expected += p * (1.0 + a.successors(id).len() as f64);
            }
        }
    }
    if expected > cfg.active_set_budget {
        em.emit(
            "all-input-explosion",
            None,
            format!(
                "all-input start states alone sustain ~{expected:.0} active states per symbol \
                 (budget {}); expect a large active set on any input",
                cfg.active_set_budget
            ),
        );
    }
}

fn check_nfa_hotspots(a: &Automaton, cfg: &LintConfig, em: &mut Emitter<'_>) {
    for (id, _) in a.iter() {
        let succs = a.successors(id);
        if succs.len() < cfg.hotspot_fanout {
            continue;
        }
        let mut per_byte = [0u32; 256];
        for e in succs {
            if e.port != Port::Activate {
                continue;
            }
            if let Some(class) = a.element(e.to).class() {
                for b in class.iter() {
                    per_byte[b as usize] += 1;
                }
            }
        }
        if let Some((byte, &n)) = per_byte
            .iter()
            .enumerate()
            .max_by_key(|&(_, &n)| n)
            .filter(|&(_, &n)| n as usize >= cfg.hotspot_fanout)
        {
            em.emit(
                "nfa-hotspot",
                Some(id),
                format!(
                    "byte 0x{byte:02x} enables {n} successors at once (threshold {}); \
                     this state predicts active-set blowup",
                    cfg.hotspot_fanout
                ),
            );
        }
    }
}

/// Documents literal-prefilter coverage: every *reporting* component the
/// prefilter cannot gate gets one finding naming the blocker, so
/// `azoo-lint --bench all` shows which parts of the suite fall back to
/// full simulation. Fully gated automata stay clean.
fn check_prefilterable(a: &Automaton, comps: &ComponentProfiles, em: &mut Emitter<'_>) {
    use azoo_core::stats::{prefilter_analysis, PrefilterBlock, MIN_PREFILTER_LITERAL};
    for cp in prefilter_analysis(a, comps) {
        if !cp.profile.reporting || cp.is_prefilterable() {
            continue;
        }
        let detail = match (cp.block, cp.weak) {
            (Some(PrefilterBlock::WeakLiteral), Some((state, len))) => format!(
                "required literal at report state {} is only {len} byte(s) long (need >= {MIN_PREFILTER_LITERAL})",
                state.index()
            ),
            (Some(block), _) => block.to_string(),
            (None, _) => continue,
        };
        em.emit(
            "prefilterable",
            Some(cp.profile.first_state),
            format!(
                "component of {} state(s) cannot be literal-prefiltered ({detail}); it falls back to full simulation",
                cp.profile.states
            ),
        );
    }
}

fn check_bit_residue(a: &Automaton, em: &mut Emitter<'_>) {
    let mut bit_level = 0usize;
    let mut byte_level = 0usize;
    for (_, e) in a.iter() {
        if let Some(class) = e.class() {
            if class.is_empty() {
                continue;
            }
            let bitlike = class.iter().all(|b| b <= 1);
            if bitlike {
                bit_level += 1;
            } else {
                byte_level += 1;
            }
        }
    }
    if bit_level > 0 && byte_level > 0 {
        em.emit(
            "bit-residue",
            None,
            format!(
                "{bit_level} bit-level state(s) (classes over {{0,1}}) mixed with {byte_level} \
                 byte-level state(s); striding this machine was likely incomplete"
            ),
        );
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::config::Level;
    use azoo_core::{CounterMode, SymbolClass};

    fn rules_of(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.rule).collect()
    }

    fn chain(word: &[u8], start: StartKind) -> Automaton {
        let mut a = Automaton::new();
        let classes: Vec<SymbolClass> = word.iter().map(|&b| SymbolClass::from_byte(b)).collect();
        let (_, last) = a.add_chain(&classes, start);
        a.set_report(last, 0);
        a
    }

    #[test]
    fn registry_ids_are_unique_and_kebab() {
        let mut ids: Vec<&str> = RULES.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        let n = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), n, "duplicate rule id");
        for id in ids {
            assert!(
                id.bytes().all(|b| b.is_ascii_lowercase() || b == b'-'),
                "{id} is not kebab-case"
            );
        }
    }

    #[test]
    fn clean_automaton_has_no_findings() {
        let a = chain(b"cat", StartKind::AllInput);
        assert!(analyze(&a).is_empty(), "{:?}", analyze(&a));
    }

    #[test]
    fn structural_errors_map_to_rules() {
        let mut a = Automaton::new();
        let s = a.add_ste(SymbolClass::EMPTY, StartKind::None);
        let t = a.add_ste(SymbolClass::from_byte(b'x'), StartKind::None);
        a.add_edge(s, t);
        a.add_edge(s, t);
        let diags = analyze(&a);
        let rules = rules_of(&diags);
        assert!(rules.contains(&"empty-symbol-class"));
        assert!(rules.contains(&"duplicate-edge"));
        assert!(rules.contains(&"no-start-states"));
        assert!(diags.iter().all(|d| d.severity == Severity::Error
            || matches!(d.rule, "unreachable-state" | "cannot-report")));
    }

    #[test]
    fn unreachable_state_detected() {
        let mut a = chain(b"ab", StartKind::AllInput);
        let orphan = a.add_ste(SymbolClass::from_byte(b'z'), StartKind::None);
        let diags = analyze(&a);
        assert!(diags
            .iter()
            .any(|d| d.rule == "unreachable-state" && d.state == Some(orphan)));
    }

    #[test]
    fn cannot_report_detected() {
        let mut a = chain(b"ab", StartKind::AllInput);
        // A reachable dead-end that never leads to a report.
        let dead = a.add_ste(SymbolClass::from_byte(b'z'), StartKind::None);
        a.add_edge(StateId::new(0), dead);
        let diags = analyze(&a);
        assert!(diags
            .iter()
            .any(|d| d.rule == "cannot-report" && d.state == Some(dead)));
    }

    #[test]
    fn reportless_automaton_flagged_globally() {
        let mut a = Automaton::new();
        a.add_ste(SymbolClass::FULL, StartKind::AllInput);
        let diags = analyze(&a);
        assert!(diags
            .iter()
            .any(|d| d.rule == "cannot-report" && d.state.is_none()));
    }

    #[test]
    fn report_code_collision_across_subgraphs() {
        let mut a = chain(b"ab", StartKind::AllInput);
        a.append(&chain(b"cd", StartKind::AllInput)); // both report code 0
        let diags = analyze(&a);
        assert!(rules_of(&diags).contains(&"report-code-collision"));
        // Same code twice inside one subgraph is fine.
        let mut b = chain(b"ab", StartKind::AllInput);
        b.set_report(StateId::new(0), 0);
        assert!(!rules_of(&analyze(&b)).contains(&"report-code-collision"));
    }

    #[test]
    fn latch_without_reset_detected() {
        let mut a = Automaton::new();
        let s = a.add_ste(SymbolClass::FULL, StartKind::AllInput);
        let c = a.add_counter(3, CounterMode::Latch);
        a.add_edge(s, c);
        a.set_report(c, 0);
        let diags = analyze(&a);
        assert!(diags
            .iter()
            .any(|d| d.rule == "latch-without-reset" && d.state == Some(c)));
        // Adding a reset edge clears the finding.
        let mut b = a.clone();
        let r = b.add_ste(SymbolClass::from_byte(b'r'), StartKind::AllInput);
        b.add_reset_edge(r, c);
        assert!(!rules_of(&analyze(&b)).contains(&"latch-without-reset"));
    }

    #[test]
    fn counter_target_unreachable_detected() {
        // One StartOfData STE feeding a counter that wants 5 pulses: the
        // subgraph dies after one symbol, so 5 is unreachable.
        let mut a = Automaton::new();
        let s = a.add_ste(SymbolClass::FULL, StartKind::StartOfData);
        let c = a.add_counter(5, CounterMode::Pulse);
        a.add_edge(s, c);
        a.set_report(c, 0);
        let diags = analyze(&a);
        assert!(diags
            .iter()
            .any(|d| d.rule == "counter-target-unreachable" && d.state == Some(c)));
        // With an AllInput start the pulse stream is unbounded: no finding.
        let mut b = Automaton::new();
        let s = b.add_ste(SymbolClass::FULL, StartKind::AllInput);
        let c = b.add_counter(5, CounterMode::Pulse);
        b.add_edge(s, c);
        b.set_report(c, 0);
        assert!(!rules_of(&analyze(&b)).contains(&"counter-target-unreachable"));
        // A cycle also makes the stream unbounded: no finding.
        let mut g = Automaton::new();
        let s = g.add_ste(SymbolClass::FULL, StartKind::StartOfData);
        let t = g.add_ste(SymbolClass::FULL, StartKind::None);
        g.add_edge(s, t);
        g.add_edge(t, t);
        let c = g.add_counter(5, CounterMode::Pulse);
        g.add_edge(t, c);
        g.set_report(c, 0);
        assert!(!rules_of(&analyze(&g)).contains(&"counter-target-unreachable"));
    }

    #[test]
    fn unreachable_cycle_does_not_hide_counter_target_unreachable() {
        // s (StartOfData) -> c (target 5) with an X <-> Y cycle feeding c
        // that no start reaches: the cycle never carries activity, so at
        // most 3 pulses (one per STE) ever arrive.
        let mut a = Automaton::new();
        let s = a.add_ste(SymbolClass::FULL, StartKind::StartOfData);
        let c = a.add_counter(5, CounterMode::Pulse);
        a.add_edge(s, c);
        a.set_report(c, 0);
        let x = a.add_ste(SymbolClass::FULL, StartKind::None);
        let y = a.add_ste(SymbolClass::FULL, StartKind::None);
        a.add_edge(x, y);
        a.add_edge(y, x);
        a.add_edge(y, c);
        let diags = analyze(&a);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "counter-target-unreachable" && d.state == Some(c)),
            "{diags:?}"
        );
    }

    #[test]
    fn shadowed_start_detected() {
        let mut a = Automaton::new();
        let s = a.add_ste(SymbolClass::from_byte(b'a'), StartKind::AllInput);
        let t = a.add_ste(SymbolClass::from_byte(b'b'), StartKind::AllInput);
        a.add_edge(s, t);
        a.set_report(t, 0);
        let diags = analyze(&a);
        assert!(diags
            .iter()
            .any(|d| d.rule == "shadowed-start" && d.state == Some(s)));
    }

    #[test]
    fn all_input_explosion_detected() {
        let mut a = Automaton::new();
        for _ in 0..100 {
            let s = a.add_ste(SymbolClass::FULL, StartKind::AllInput);
            a.set_report(s, 0);
        }
        // 100 always-matching start states: expected active set 100 > 64.
        assert!(rules_of(&analyze(&a)).contains(&"all-input-explosion"));
        let small = chain(b"abc", StartKind::AllInput);
        assert!(!rules_of(&analyze(&small)).contains(&"all-input-explosion"));
    }

    #[test]
    fn nfa_hotspot_detected() {
        let mut a = Automaton::new();
        let s = a.add_ste(SymbolClass::FULL, StartKind::AllInput);
        for _ in 0..8 {
            let t = a.add_ste(SymbolClass::from_byte(b'x'), StartKind::None);
            a.add_edge(s, t);
            a.set_report(t, 0);
        }
        let diags = analyze(&a);
        assert!(diags
            .iter()
            .any(|d| d.rule == "nfa-hotspot" && d.state == Some(s) && d.message.contains("0x78")));
    }

    #[test]
    fn bit_residue_detected() {
        let mut a = Automaton::new();
        let s = a.add_ste(SymbolClass::from_byte(1), StartKind::AllInput); // bit-level
        let t = a.add_ste(SymbolClass::from_byte(b'x'), StartKind::None); // byte-level
        a.add_edge(s, t);
        a.set_report(t, 0);
        assert!(rules_of(&analyze(&a)).contains(&"bit-residue"));
        // A purely bit-level machine is fine.
        let b = chain(&[0, 1, 1], StartKind::AllInput);
        assert!(!rules_of(&analyze(&b)).contains(&"bit-residue"));
    }

    #[test]
    fn prefilterable_flags_blocked_components_with_reason() {
        // Literal chain: gated, no finding.
        let clean = chain(b"cat", StartKind::AllInput);
        assert!(!rules_of(&analyze(&clean)).contains(&"prefilterable"));
        // Counter component: blocked, one finding naming the counter.
        let mut a = chain(b"cat", StartKind::AllInput);
        let s = a.add_ste(SymbolClass::from_byte(b'k'), StartKind::AllInput);
        let c = a.add_counter(3, CounterMode::Latch);
        a.add_edge(s, c);
        a.add_reset_edge(s, c);
        a.set_report(c, 1);
        let diags = analyze(&a);
        let finding = diags
            .iter()
            .find(|d| d.rule == "prefilterable")
            .expect("counter component must be flagged");
        assert!(finding.message.contains("counter"), "{}", finding.message);
        // A single-byte reporter: blocked with the weak-literal length.
        let mut b = Automaton::new();
        let z = b.add_ste(SymbolClass::from_byte(b'z'), StartKind::AllInput);
        b.set_report(z, 0);
        let diags = analyze(&b);
        let finding = diags
            .iter()
            .find(|d| d.rule == "prefilterable")
            .expect("weak literal must be flagged");
        assert!(
            finding.message.contains("only 1 byte"),
            "{}",
            finding.message
        );
        // Non-reporting components are never flagged.
        let mut n = Automaton::new();
        n.add_ste(SymbolClass::from_byte(b'q'), StartKind::AllInput);
        let diags = analyze(&n);
        assert!(!rules_of(&diags).contains(&"prefilterable"));
    }

    #[test]
    fn config_allow_suppresses_and_deny_promotes() {
        let mut a = chain(b"ab", StartKind::AllInput);
        a.add_ste(SymbolClass::from_byte(b'z'), StartKind::None);
        let mut cfg = LintConfig::new();
        cfg.set_level("unreachable-state", Level::Allow);
        assert!(!rules_of(&analyze_with(&a, &cfg)).contains(&"unreachable-state"));
        let mut cfg = LintConfig::new();
        cfg.set_level("unreachable-state", Level::Error);
        let diags = analyze_with(&a, &cfg);
        assert!(diags
            .iter()
            .any(|d| d.rule == "unreachable-state" && d.severity == Severity::Error));
    }

    #[test]
    fn per_rule_cap_folds_overflow() {
        let mut a = chain(b"ab", StartKind::AllInput);
        for _ in 0..40 {
            a.add_ste(SymbolClass::from_byte(b'z'), StartKind::None);
        }
        let diags = analyze(&a);
        let unreachable: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == "unreachable-state")
            .collect();
        // 16 individual findings plus one suppression summary.
        assert_eq!(unreachable.len(), 17);
        assert!(unreachable.last().unwrap().message.contains("suppressed"));
    }

    #[test]
    fn bisimilar_states_flags_mergeable_duplicates() {
        // Two identical pattern copies with the same report code: every
        // position is pairwise bisimilar.
        let mut a = chain(b"cat", StartKind::AllInput);
        let b = chain(b"cat", StartKind::AllInput);
        a.append(&b);
        let diags = analyze(&a);
        let hits: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == "bisimilar-states")
            .collect();
        assert_eq!(hits.len(), 3, "{diags:?}");
        assert_eq!(hits[0].severity, Severity::Warn);
        // Distinct patterns stay silent.
        let mut c = chain(b"cat", StartKind::AllInput);
        c.append(&chain(b"dog", StartKind::AllInput));
        assert!(!rules_of(&analyze(&c)).contains(&"bisimilar-states"));
    }

    #[test]
    fn fuzzy_blowup_flags_deep_meshes_only() {
        use azoo_fuzzy::{fuzzy_from_bytes, EditProfile};
        // k = 3 over a 30-byte pattern: ~k × (len + 1) Σ insertion
        // tracks (93 of 213 states), well past the 64-state budget.
        let (deep, stats) = fuzzy_from_bytes(
            b"suspicious_payload_signature_x",
            3,
            EditProfile::LEVENSHTEIN,
            7,
        )
        .expect("fuzzify");
        assert_eq!(stats.layers, 4);
        let diags = analyze(&deep);
        let finding = diags
            .iter()
            .find(|d| d.rule == "fuzzy-blowup")
            .expect("deep mesh must be flagged");
        assert_eq!(finding.severity, Severity::Warn);
        assert!(finding.message.contains("budget 64"), "{}", finding.message);

        // A shallow mesh stays under budget: no finding.
        let (shallow, _) =
            fuzzy_from_bytes(b"explojt", 1, EditProfile::LEVENSHTEIN, 7).expect("fuzzify");
        assert!(!rules_of(&analyze(&shallow)).contains(&"fuzzy-blowup"));

        // Wide classes alone are not enough: a Σ sliding window with
        // self-loops is cyclic, not an error-layer mesh.
        let mut window = Automaton::new();
        let mut prev: Option<StateId> = None;
        for i in 0..200 {
            let kind = if i == 0 {
                StartKind::AllInput
            } else {
                StartKind::None
            };
            let s = window.add_ste(SymbolClass::FULL, kind);
            window.add_edge(s, s);
            if let Some(p) = prev {
                window.add_edge(p, s);
            }
            prev = Some(s);
        }
        window.set_report(prev.expect("non-empty"), 0);
        assert!(!rules_of(&analyze(&window)).contains(&"fuzzy-blowup"));

        // The budget is configurable: tightening it catches the
        // shallow mesh too.
        let mut cfg = LintConfig::new();
        cfg.fuzzy_active_budget = 4;
        assert!(rules_of(&analyze_with(&shallow, &cfg)).contains(&"fuzzy-blowup"));
    }

    #[test]
    fn core_error_mapping_is_total() {
        let (r, _) = rule_for_core_error(&CoreError::Format("x".into()));
        assert_eq!(r, "parse-error");
        let (r, s) = rule_for_core_error(&CoreError::EmptySymbolClass(StateId::new(3)));
        assert_eq!(r, "empty-symbol-class");
        assert_eq!(s, Some(StateId::new(3)));
        for e in [
            CoreError::InvalidStateId(StateId::new(1)),
            CoreError::NoStartStates,
            CoreError::ZeroCounterTarget(StateId::new(0)),
        ] {
            assert!(rule(rule_for_core_error(&e).0).is_some());
        }
    }
}
