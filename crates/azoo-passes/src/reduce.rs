//! The reduction tier: simulation-based state merging.
//!
//! Two passes built on the same forward-simulation machinery:
//!
//! * [`quotient_simulation`] — computes the coarsest forward bisimulation
//!   on the homogeneous NFA by partition refinement and merges each
//!   equivalence class into one state. Unlike [`merge_suffixes`], whose
//!   signatures name concrete successor ids (and therefore only converge
//!   on DAGs), the partition refines over *blocks*, so cyclically
//!   duplicated subgraphs collapse too.
//! * [`residual_merge`] — folds a state `p` away when another state `q`
//!   *covers* it: `q` is enabled whenever `p` is, fires on every symbol
//!   `p` fires on, reports everything `p` reports, and right-simulates
//!   `p`'s futures. Containment (rather than equality) is what the
//!   quotient cannot see — e.g. a literal chain shadowed by a
//!   wider-class chain with the same report code.
//!
//! [`reduce`] iterates both to a fixpoint; `azoo-lint` and `table1`
//! apply it behind their `--reduce` flags.
//!
//! # Why merging is sound here
//!
//! The engine semantics make two guarantees that carry the whole
//! argument (see `azoo-engines`' NFA doc): reports are canonical — at
//! most one report per `(offset, code)` pair even when several states
//! holding the same code fire together — and a counter samples its
//! enable/reset lines as a per-symbol OR over incoming pulses. Both
//! effects of a state (reports, pulses) are therefore *idempotent per
//! cycle*, so replacing a set of states that always fire with identical
//! observable effect by a single representative changes nothing
//! downstream. The merged state's enabling is the union of its members'
//! enabling: predecessor edges are unioned, and start kinds join in the
//! enabling lattice `None < StartOfData < AllInput` (enabling sets
//! `∅ ⊂ {0} ⊂ all offsets`).
//!
//! # Refusal matrix
//!
//! The conservative policy for the constructs whose state is not purely
//! positional:
//!
//! | construct               | quotient                  | residual          |
//! |-------------------------|---------------------------|-------------------|
//! | counter element         | pinned (singleton block)  | component refused |
//! | `StartOfData` STE       | pinned (singleton block)  | component refused |
//! | component > [`RESIDUAL_COMPONENT_CAP`] | allowed    | component refused |
//!
//! Counters carry hidden state, so they are never merged; plain STEs
//! *adjacent* to counters may still merge under the quotient because
//! identical counter attachments are part of the refinement signature
//! (counters are singleton blocks, so "same counter" means "same
//! element") and pulse lines OR per cycle. The residual pass deletes
//! states outright, which perturbs pulse *timing* rather than just
//! fan-in, so it refuses any component holding a counter or a
//! `StartOfData` anchor entirely.

use std::collections::HashMap;

use azoo_core::stats::{component_profiles, ComponentProfile};
use azoo_core::{
    Automaton, Element, ElementKind, Port, ReportCode, StartKind, StateId, SymbolClass,
};

use crate::merge::MergeStats;

/// Residual simulation is quadratic per component; components larger
/// than this are refused (recorded in [`ReduceStats::refused_components`]).
/// Benchmark components are per-pattern and far smaller.
pub const RESIDUAL_COMPONENT_CAP: usize = 512;

/// Result of the combined [`reduce`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReduceStats {
    /// State count before reduction.
    pub states_before: usize,
    /// Edge count before reduction.
    pub edges_before: usize,
    /// State count after reduction.
    pub states_after: usize,
    /// Edge count after reduction.
    pub edges_after: usize,
    /// States removed by bisimulation quotienting.
    pub quotient_removed: usize,
    /// States removed by residual coverage folds.
    pub residual_removed: usize,
    /// Quotient+residual rounds executed.
    pub rounds: usize,
    /// Components the residual pass refused (counter / anchor / size).
    pub refused_components: usize,
}

impl ReduceStats {
    /// Fraction of states removed.
    pub fn compression_factor(&self) -> f64 {
        if self.states_before == 0 {
            0.0
        } else {
            1.0 - self.states_after as f64 / self.states_before as f64
        }
    }
}

/// Join in the start-kind enabling lattice: `None` (never
/// start-enabled) `< StartOfData` (offset 0) `< AllInput` (every
/// offset). A merged state is enabled when any member was, so its start
/// kind is the join of the members'.
fn start_join(a: StartKind, b: StartKind) -> StartKind {
    match (a, b) {
        (StartKind::AllInput, _) | (_, StartKind::AllInput) => StartKind::AllInput,
        (StartKind::StartOfData, _) | (_, StartKind::StartOfData) => StartKind::StartOfData,
        _ => StartKind::None,
    }
}

/// `sub ⊆ sup` on symbol classes.
fn class_subset(sub: &SymbolClass, sup: &SymbolClass) -> bool {
    sub.as_words()
        .iter()
        .zip(sup.as_words())
        .all(|(s, p)| s & !p == 0)
}

/// Computes the coarsest forward bisimulation of `a` as a dense block
/// assignment (block ids ordered by smallest member state).
///
/// Two states land in one block iff they have the same symbol class,
/// the same report behaviour (code and `$`-anchoring), and, for every
/// block `B` and port `π`, an edge into `B` on `π` either from both or
/// from neither. Start kind is deliberately *not* part of the
/// signature: enabling is a left-side property, and the quotient
/// rebuilds it as the join over each block (see the module doc).
///
/// Counter elements and `StartOfData` STEs are pinned to singleton
/// blocks (the refusal matrix), so "same counter successor" in a
/// signature means "the same counter element".
pub fn simulation_partition(a: &Automaton) -> Vec<u32> {
    let n = a.state_count();
    // Initial partition: local observables only. Pinned states get a
    // unique key so refinement can never merge them.
    #[derive(Hash, PartialEq, Eq)]
    enum InitKey {
        Pinned(u32),
        Ste {
            class: [u64; 4],
            report: Option<ReportCode>,
            eod: bool,
        },
    }
    let mut block = vec![0u32; n];
    let mut blocks = 0u32;
    let mut table: HashMap<InitKey, u32> = HashMap::new();
    for (id, e) in a.iter() {
        let key = match &e.kind {
            ElementKind::Counter { .. } => InitKey::Pinned(id.index() as u32),
            ElementKind::Ste { class, start } => {
                if *start == StartKind::StartOfData {
                    InitKey::Pinned(id.index() as u32)
                } else {
                    InitKey::Ste {
                        class: *class.as_words(),
                        report: e.report,
                        // The anchor flag only matters on reporting states.
                        eod: e.report.is_some() && e.report_eod_only,
                    }
                }
            }
        };
        block[id.index()] = *table.entry(key).or_insert_with(|| {
            blocks += 1;
            blocks - 1
        });
    }
    // Refine by successor-block signatures until stable. Successor sets
    // are deduplicated: multiple edges into one block are a single OR
    // contribution, matching the engines' per-cycle pulse semantics.
    loop {
        let mut table: HashMap<(u32, Vec<(u32, Port)>), u32> = HashMap::new();
        let mut next = vec![0u32; n];
        let mut count = 0u32;
        for (id, _) in a.iter() {
            let mut sig: Vec<(u32, Port)> = a
                .successors(id)
                .iter()
                .map(|e| (block[e.to.index()], e.port))
                .collect();
            sig.sort_unstable();
            sig.dedup();
            next[id.index()] = *table.entry((block[id.index()], sig)).or_insert_with(|| {
                count += 1;
                count - 1
            });
        }
        if count == blocks {
            return block;
        }
        block = next;
        blocks = count;
    }
}

/// Merges forward-bisimilar states (see [`simulation_partition`]).
/// Returns the quotient automaton and statistics; `rounds` counts
/// refinement iterations implicitly as 1 (the partition is computed to
/// its fixpoint in one call).
pub fn quotient_simulation(a: &Automaton) -> (Automaton, MergeStats) {
    let n = a.state_count();
    let block = simulation_partition(a);
    let blocks = block.iter().copied().max().map_or(0, |m| m as usize + 1);
    let stats = MergeStats {
        states_before: n,
        states_after: blocks,
        rounds: 1,
    };
    if blocks == n {
        return (a.clone(), stats);
    }
    // One representative element per block, cloned from the smallest
    // member; start kind is the join over the block.
    let mut out = Automaton::with_capacity(blocks);
    let mut rep: Vec<Option<StateId>> = vec![None; blocks];
    for (id, e) in a.iter() {
        let b = block[id.index()] as usize;
        match rep[b] {
            None => rep[b] = Some(out.add_element(e.clone())),
            Some(r) => {
                let joined = start_join(out.element(r).start_kind(), e.start_kind());
                if let ElementKind::Ste { start, .. } = &mut out.element_mut(r).kind {
                    *start = joined;
                }
            }
        }
    }
    let mut seen: std::collections::HashSet<(u32, u32, Port)> = std::collections::HashSet::new();
    for (id, _) in a.iter() {
        let from = block[id.index()];
        for e in a.successors(id) {
            let to = block[e.to.index()];
            if seen.insert((from, to, e.port)) {
                let f = StateId::new(from as usize);
                let t = StateId::new(to as usize);
                match e.port {
                    Port::Activate => out.add_edge(f, t),
                    Port::Reset => out.add_reset_edge(f, t),
                }
            }
        }
    }
    (out, stats)
}

/// The residual rows of the refusal matrix: counters, `StartOfData`
/// anchors and components over [`RESIDUAL_COMPONENT_CAP`].
fn residual_refuses(p: &ComponentProfile) -> bool {
    p.has_counter || p.has_start_of_data || p.states > RESIDUAL_COMPONENT_CAP
}

/// Right-simulation local compatibility: can `q` possibly cover `p`'s
/// immediate observables?
fn covers_locally(p: &Element, q: &Element) -> bool {
    let (Some(pc), Some(qc)) = (p.class(), q.class()) else {
        return false; // counters never participate (refused components)
    };
    if !class_subset(pc, qc) {
        return false;
    }
    match p.report {
        None => true,
        // q must report the same code, at least as often: if q is
        // `$`-anchored, p must be too.
        Some(code) => q.report == Some(code) && (!q.report_eod_only || p.report_eod_only),
    }
}

/// Computes the right-simulation preorder within one component as a
/// boolean matrix over `states` (local indexing): `rel[p][q]` means `q`
/// simulates every future of `p`. Greatest fixpoint: start from local
/// compatibility and strike pairs whose successor obligation fails.
fn component_preorder(a: &Automaton, states: &[StateId]) -> Vec<Vec<bool>> {
    let k = states.len();
    let mut local = HashMap::with_capacity(k);
    for (i, &s) in states.iter().enumerate() {
        local.insert(s, i);
    }
    let succs: Vec<Vec<usize>> = states
        .iter()
        .map(|&s| a.successors(s).iter().map(|e| local[&e.to]).collect())
        .collect();
    let mut rel = vec![vec![false; k]; k];
    for p in 0..k {
        for q in 0..k {
            rel[p][q] = p == q || covers_locally(a.element(states[p]), a.element(states[q]));
        }
    }
    loop {
        let mut changed = false;
        for p in 0..k {
            for q in 0..k {
                if !rel[p][q] || p == q {
                    continue;
                }
                let ok = succs[p]
                    .iter()
                    .all(|&s| succs[q].iter().any(|&t| rel[s][t]));
                if !ok {
                    rel[p][q] = false;
                    changed = true;
                }
            }
        }
        if !changed {
            return rel;
        }
    }
}

/// Folds away states whose right language is contained in a covering
/// state's, per the simulation preorder. Returns the folded automaton
/// and statistics (`rounds` is the number of components folded in).
///
/// A state `p` is deleted when some surviving witness `q ≠ p` satisfies:
///
/// * `p ≼ q` in the component's right-simulation preorder (class
///   containment, report containment, successor obligations — so every
///   report `p`'s future produces, `q`'s future produces at the same
///   offset);
/// * `start(p) ≤ start(q)` in the enabling lattice and every non-self
///   predecessor of `p` is a predecessor of `q` — so `q` is enabled,
///   and therefore fires, whenever `p` does.
///
/// Witnesses must be unfolded *at decision time*; since `≼` is
/// transitive and fold times strictly increase along witness chains,
/// every deleted state resolves to a surviving cover and no cycle of
/// mutually-covering states can vanish entirely. Components bearing
/// counters or `StartOfData` anchors are refused outright (deletion
/// perturbs pulse timing and position anchoring; see the module doc).
pub fn residual_merge(a: &Automaton) -> (Automaton, MergeStats) {
    let n = a.state_count();
    let comps = component_profiles(a);
    let mut members: Vec<Vec<StateId>> = vec![Vec::new(); comps.profiles.len()];
    for (id, _) in a.iter() {
        members[comps.labels[id.index()]].push(id);
    }
    let preds = a.predecessors();
    let mut folded = vec![false; n];
    let mut rounds = 0;
    for (profile, states) in comps.profiles.iter().zip(&members) {
        if residual_refuses(profile) || profile.states < 2 {
            continue;
        }
        let rel = component_preorder(a, states);
        let mut comp_folded = false;
        for (p, &ps) in states.iter().enumerate() {
            'witness: for (q, &qs) in states.iter().enumerate() {
                if p == q || folded[qs.index()] || !rel[p][q] {
                    continue;
                }
                let (pe, qe) = (a.element(ps), a.element(qs));
                if start_join(pe.start_kind(), qe.start_kind()) != qe.start_kind() {
                    continue;
                }
                for &(r, port) in &preds[ps.index()] {
                    if r != ps && !preds[qs.index()].contains(&(r, port)) {
                        continue 'witness;
                    }
                }
                folded[ps.index()] = true;
                comp_folded = true;
                break;
            }
        }
        if comp_folded {
            rounds += 1;
        }
    }
    let removed = folded.iter().filter(|&&f| f).count();
    let stats = MergeStats {
        states_before: n,
        states_after: n - removed,
        rounds,
    };
    if removed == 0 {
        return (a.clone(), stats);
    }
    (a.retain_states(|id| !folded[id.index()]), stats)
}

/// The full reduction tier: alternates [`quotient_simulation`] and
/// [`residual_merge`] until neither removes a state (folding can expose
/// new bisimilarities and vice versa). Semantics-preserving under the
/// identity input map; state and edge counts never grow.
pub fn reduce(a: &Automaton) -> (Automaton, ReduceStats) {
    let mut stats = ReduceStats {
        states_before: a.state_count(),
        edges_before: a.edge_count(),
        states_after: 0,
        edges_after: 0,
        quotient_removed: 0,
        residual_removed: 0,
        rounds: 0,
        refused_components: 0,
    };
    let mut cur = a.clone();
    loop {
        stats.rounds += 1;
        let before = cur.state_count();
        let (q, qs) = quotient_simulation(&cur);
        stats.quotient_removed += qs.states_before - qs.states_after;
        let (r, rs) = residual_merge(&q);
        stats.residual_removed += rs.states_before - rs.states_after;
        cur = r;
        if cur.state_count() == before {
            break;
        }
    }
    stats.refused_components = component_profiles(&cur)
        .profiles
        .iter()
        .filter(|p| residual_refuses(p))
        .count();
    stats.states_after = cur.state_count();
    stats.edges_after = cur.edge_count();
    (cur, stats)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use azoo_core::{CounterMode, SymbolClass};

    fn byte(b: u8) -> SymbolClass {
        SymbolClass::from_byte(b)
    }

    /// A cyclically duplicated pattern the suffix merge cannot collapse:
    /// two copies of `a(ba)*` reporting code 9.
    fn duplicated_cycle() -> Automaton {
        let mut a = Automaton::new();
        for _ in 0..2 {
            let s = a.add_ste(byte(b'a'), StartKind::AllInput);
            let t = a.add_ste(byte(b'b'), StartKind::None);
            a.add_edge(s, t);
            a.add_edge(t, s);
            a.set_report(s, 9);
        }
        a
    }

    #[test]
    fn quotient_collapses_duplicated_cycles() {
        let a = duplicated_cycle();
        let (m, _) = crate::merge_suffixes(&a);
        assert_eq!(m.state_count(), 4, "suffix merge is blind to cycles");
        let (q, stats) = quotient_simulation(&a);
        assert_eq!(q.state_count(), 2);
        assert_eq!(stats.states_before, 4);
        q.validate().unwrap();
    }

    #[test]
    fn quotient_joins_start_kinds() {
        // Bisimilar states differing only in start kind merge to the join.
        let mut a = Automaton::new();
        let p = a.add_ste(byte(b'x'), StartKind::AllInput);
        let q = a.add_ste(byte(b'x'), StartKind::None);
        a.set_report(p, 1);
        a.set_report(q, 1);
        let (m, _) = quotient_simulation(&a);
        assert_eq!(m.state_count(), 1);
        assert_eq!(m.element(StateId::new(0)).start_kind(), StartKind::AllInput);
    }

    #[test]
    fn quotient_pins_anchors_and_counters() {
        let mut a = Automaton::new();
        for _ in 0..2 {
            let s = a.add_ste(byte(b'k'), StartKind::StartOfData);
            a.set_report(s, 3);
        }
        for _ in 0..2 {
            let c = a.add_counter(4, CounterMode::Latch);
            a.set_report(c, 5);
        }
        // A start so validation passes after nothing merges.
        let (m, _) = quotient_simulation(&a);
        assert_eq!(m.state_count(), 4);
    }

    #[test]
    fn quotient_distinguishes_eod_anchoring() {
        let mut a = Automaton::new();
        let p = a.add_ste(byte(b'x'), StartKind::AllInput);
        let q = a.add_ste(byte(b'x'), StartKind::AllInput);
        a.set_report(p, 1);
        a.set_report(q, 1);
        a.set_report_eod_only(q, true);
        let (m, _) = quotient_simulation(&a);
        assert_eq!(m.state_count(), 2);
    }

    #[test]
    fn quotient_merges_ste_feeding_a_shared_counter() {
        // Two identical STEs pulsing the *same* counter merge; pulse
        // lines OR per cycle so counts are unchanged.
        let mut a = Automaton::new();
        let c = a.add_counter(2, CounterMode::Latch);
        a.set_report(c, 7);
        for _ in 0..2 {
            let s = a.add_ste(byte(b'v'), StartKind::AllInput);
            a.add_edge(s, c);
        }
        let (m, _) = quotient_simulation(&a);
        assert_eq!(m.state_count(), 2);
        assert_eq!(m.counter_count(), 1);
    }

    #[test]
    fn quotient_keeps_stes_feeding_different_counters_apart() {
        let mut a = Automaton::new();
        for _ in 0..2 {
            let c = a.add_counter(2, CounterMode::Latch);
            a.set_report(c, 7);
            let s = a.add_ste(byte(b'v'), StartKind::AllInput);
            a.add_edge(s, c);
        }
        let (m, _) = quotient_simulation(&a);
        assert_eq!(m.state_count(), 4, "distinct counters pin their feeders");
    }

    #[test]
    fn residual_folds_contained_chain() {
        // "ab" (code 1) is shadowed by "[ab]b" → join into a shared
        // reporter; the narrow prefix state folds into the wide one.
        let mut a = Automaton::new();
        let narrow = a.add_ste(byte(b'a'), StartKind::AllInput);
        let mut wide_class = byte(b'a');
        wide_class.insert(b'b');
        let wide = a.add_ste(wide_class, StartKind::AllInput);
        let tail = a.add_ste(byte(b'b'), StartKind::None);
        a.add_edge(narrow, tail);
        a.add_edge(wide, tail);
        a.set_report(tail, 1);
        let (m, stats) = residual_merge(&a);
        assert_eq!(m.state_count(), 2);
        assert_eq!(stats.states_before - stats.states_after, 1);
        m.validate().unwrap();
    }

    #[test]
    fn residual_requires_predecessor_coverage() {
        // Same shape, but the narrow chain has a private predecessor:
        // the fold must refuse (the wide state is not always enabled
        // when the narrow one is).
        let mut a = Automaton::new();
        let feeder = a.add_ste(byte(b'z'), StartKind::AllInput);
        let narrow = a.add_ste(byte(b'a'), StartKind::None);
        let mut wide_class = byte(b'a');
        wide_class.insert(b'b');
        let wide = a.add_ste(wide_class, StartKind::AllInput);
        a.add_edge(feeder, narrow);
        a.set_report(narrow, 1);
        a.set_report(wide, 1);
        let (m, _) = residual_merge(&a);
        assert_eq!(m.state_count(), 3);
    }

    #[test]
    fn residual_keeps_one_of_mutual_covers() {
        // Two identical self-looping reporters in one component (joined
        // through a shared tail) cover each other; exactly one
        // representative must survive.
        let mut a = Automaton::new();
        let tail = a.add_ste(byte(b'b'), StartKind::None);
        for _ in 0..2 {
            let s = a.add_ste(byte(b'q'), StartKind::AllInput);
            a.add_edge(s, s);
            a.add_edge(s, tail);
            a.set_report(s, 2);
        }
        let (m, _) = residual_merge(&a);
        assert_eq!(m.state_count(), 2);
        assert_eq!(m.start_states().len(), 1);
        m.validate().unwrap();
    }

    #[test]
    fn residual_refuses_counter_and_anchor_components() {
        let mut a = Automaton::new();
        // Counter component with two coverable STEs.
        let c = a.add_counter(2, CounterMode::Latch);
        a.set_report(c, 7);
        for _ in 0..2 {
            let s = a.add_ste(byte(b'v'), StartKind::AllInput);
            a.add_edge(s, c);
        }
        // Anchored component with two coverable STEs.
        let anchor = a.add_ste(byte(b'h'), StartKind::StartOfData);
        let dup = a.add_ste(byte(b'h'), StartKind::StartOfData);
        a.set_report(anchor, 8);
        a.set_report(dup, 8);
        a.add_edge(anchor, dup);
        let (m, stats) = residual_merge(&a);
        assert_eq!(m.state_count(), a.state_count());
        assert_eq!(stats.rounds, 0);
    }

    #[test]
    fn residual_never_drops_every_start() {
        let mut a = Automaton::new();
        let p = a.add_ste(byte(b'x'), StartKind::None);
        let q = a.add_ste(byte(b'x'), StartKind::AllInput);
        a.set_report(p, 1);
        a.set_report(q, 1);
        a.add_edge(q, p);
        let (m, _) = residual_merge(&a);
        // p (never enabled except via q... still covered) may fold;
        // the AllInput state must survive.
        assert!(!m.start_states().is_empty());
        m.validate().unwrap();
    }

    #[test]
    fn reduce_combines_both_passes() {
        // Duplicated cycles (quotient work) plus a contained chain
        // (residual work) in one machine.
        let mut a = duplicated_cycle();
        let narrow = a.add_ste(byte(b'n'), StartKind::AllInput);
        let mut wide = byte(b'n');
        wide.insert(b'm');
        let w = a.add_ste(wide, StartKind::AllInput);
        let tail = a.add_ste(byte(b'm'), StartKind::None);
        a.add_edge(narrow, tail);
        a.add_edge(w, tail);
        a.set_report(tail, 4);
        let (r, stats) = reduce(&a);
        assert!(stats.quotient_removed >= 2, "{stats:?}");
        assert!(stats.residual_removed >= 1, "{stats:?}");
        assert_eq!(stats.states_after, r.state_count());
        assert!(r.state_count() < a.state_count());
        assert!(r.edge_count() <= a.edge_count());
        r.validate().unwrap();
    }

    #[test]
    fn reduce_is_idempotent() {
        let a = duplicated_cycle();
        let (r1, _) = reduce(&a);
        let (r2, s2) = reduce(&r1);
        assert_eq!(r1, r2);
        assert_eq!(s2.compression_factor(), 0.0);
    }

    #[test]
    fn reduce_of_empty_automaton_is_empty() {
        let (r, stats) = reduce(&Automaton::new());
        assert_eq!(r.state_count(), 0);
        assert_eq!(stats.states_before, 0);
    }
}
