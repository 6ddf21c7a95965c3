//! Static statistics over automata, matching the columns of AutomataZoo's
//! Table I (states, edges, edges/node, subgraph count, average subgraph
//! size, standard deviation).

use crate::automaton::{Automaton, StateId};

/// Static graph statistics for an automaton.
///
/// Produced by [`AutomatonStats::compute`]. "Subgraphs" are weakly connected
/// components — one per appended pattern/filter in a well-formed benchmark.
///
/// # Example
///
/// ```
/// use azoo_core::{Automaton, AutomatonStats, StartKind, SymbolClass};
///
/// let mut a = Automaton::new();
/// a.add_chain(&[SymbolClass::from_byte(b'x'); 4], StartKind::AllInput);
/// a.add_chain(&[SymbolClass::from_byte(b'y'); 2], StartKind::AllInput);
/// let stats = AutomatonStats::compute(&a);
/// assert_eq!(stats.states, 6);
/// assert_eq!(stats.subgraphs, 2);
/// assert_eq!(stats.avg_subgraph_size, 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AutomatonStats {
    /// Total element count.
    pub states: usize,
    /// Total edge count.
    pub edges: usize,
    /// Edges per node.
    pub edges_per_node: f64,
    /// Number of weakly connected components.
    pub subgraphs: usize,
    /// Mean component size in states.
    pub avg_subgraph_size: f64,
    /// Population standard deviation of component sizes.
    pub stddev_subgraph_size: f64,
}

impl AutomatonStats {
    /// Computes statistics for `a`.
    pub fn compute(a: &Automaton) -> AutomatonStats {
        let states = a.state_count();
        let edges = a.edge_count();
        let mut sizes: Vec<usize> = component_profiles(a)
            .profiles
            .iter()
            .map(|p| p.states)
            .collect();
        // Summed in ascending size order: Table I's std-dev column
        // depends on the float summation order.
        sizes.sort_unstable();
        let subgraphs = sizes.len();
        let avg = if subgraphs == 0 {
            0.0
        } else {
            states as f64 / subgraphs as f64
        };
        let var = if subgraphs == 0 {
            0.0
        } else {
            sizes
                .iter()
                .map(|&s| {
                    let d = s as f64 - avg;
                    d * d
                })
                .sum::<f64>()
                / subgraphs as f64
        };
        AutomatonStats {
            states,
            edges,
            edges_per_node: if states == 0 {
                0.0
            } else {
                edges as f64 / states as f64
            },
            subgraphs,
            avg_subgraph_size: avg,
            stddev_subgraph_size: var.sqrt(),
        }
    }
}

/// Per-component structural profile: the facts every per-subgraph
/// decision gates on — prefilter blocks and chunk-overlap windows (a
/// bounded window exists only without counters, `StartOfData` anchors
/// and reachable cycles), the reduction refusal matrix, and the mesh and
/// counter lints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComponentProfile {
    /// Smallest state id in the component (diagnostic anchor).
    pub first_state: StateId,
    /// States in the component.
    pub states: usize,
    /// Whether the component contains a counter element.
    pub has_counter: bool,
    /// Whether the component contains a `StartOfData`-anchored STE.
    pub has_start_of_data: bool,
    /// Whether any start-reachable element reports. A component that
    /// never reports needs no scanning at all.
    pub reporting: bool,
    /// States on the longest start-rooted path — the match-span bound —
    /// or `None` if and only if a cycle is reachable from a start.
    /// `Some(0)` for a component without start states.
    pub window: Option<usize>,
}

/// The weakly-connected-component record of an automaton, from
/// [`component_profiles`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentProfiles {
    /// Dense component label of every state, ordered by smallest member
    /// id.
    pub labels: Vec<usize>,
    /// One profile per component, indexed by label.
    pub profiles: Vec<ComponentProfile>,
}

/// Profiles every weakly connected component of `a`: one union-find pass
/// labels the states and counts their elements, then one depth-first
/// search rooted at the start states finds reachable reports, reachable
/// cycles (back edges) and the longest start-rooted path.
///
/// Both activation and reset edges are followed. Counter elements on a
/// path consume no symbol, so for components with counters `window` is
/// an over-estimate, never an under-estimate.
pub fn component_profiles(a: &Automaton) -> ComponentProfiles {
    let n = a.state_count();
    let mut uf = UnionFind::new(n);
    for (id, _) in a.iter() {
        for e in a.successors(id) {
            uf.union(id.index(), e.to.index());
        }
    }
    let mut label_of_root = vec![usize::MAX; n];
    let mut labels = vec![0usize; n];
    let mut profiles: Vec<ComponentProfile> = Vec::new();
    for (id, e) in a.iter() {
        let root = uf.find(id.index());
        if label_of_root[root] == usize::MAX {
            label_of_root[root] = profiles.len();
            profiles.push(ComponentProfile {
                first_state: id,
                states: 0,
                has_counter: false,
                has_start_of_data: false,
                reporting: false,
                window: Some(0),
            });
        }
        labels[id.index()] = label_of_root[root];
        let p = &mut profiles[label_of_root[root]];
        p.states += 1;
        p.has_counter |= e.is_counter();
        p.has_start_of_data |= e.start_kind() == crate::element::StartKind::StartOfData;
    }

    const WHITE: u8 = 0; // unvisited
    const GRAY: u8 = 1; // on the DFS stack
    const BLACK: u8 = 2; // finished, `depth` valid
    let mut color = vec![WHITE; n];
    // Longest path (in states) starting at each finished node. Edges
    // never leave a component, so a cyclic component's meaningless
    // depths cannot leak into another's window.
    let mut depth = vec![0usize; n];
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for start in a.start_states() {
        let s = start.index();
        if color[s] == WHITE {
            color[s] = GRAY;
            stack.push((s, 0));
        }
        while let Some(frame) = stack.last_mut() {
            let (v, ei) = *frame;
            let succs = a.successors(StateId::new(v));
            if ei < succs.len() {
                frame.1 += 1;
                let t = succs[ei].to.index();
                match color[t] {
                    WHITE => {
                        color[t] = GRAY;
                        stack.push((t, 0));
                    }
                    // Back edge: a reachable cycle, no finite window.
                    GRAY => profiles[labels[t]].window = None,
                    _ => {}
                }
            } else {
                depth[v] = 1 + succs.iter().map(|e| depth[e.to.index()]).max().unwrap_or(0);
                color[v] = BLACK;
                stack.pop();
            }
        }
        let p = &mut profiles[labels[s]];
        p.window = p.window.map(|w| w.max(depth[s]));
    }
    for (id, e) in a.iter() {
        if color[id.index()] != WHITE && e.report.is_some() {
            profiles[labels[id.index()]].reporting = true;
        }
    }
    ComponentProfiles { labels, profiles }
}

/// Ids of states reachable from any start state (forward closure over
/// activation and reset edges).
pub fn reachable_from_starts(a: &Automaton) -> Vec<bool> {
    let mut seen = vec![false; a.state_count()];
    let mut stack: Vec<StateId> = a.start_states();
    for s in &stack {
        seen[s.index()] = true;
    }
    while let Some(s) = stack.pop() {
        for e in a.successors(s) {
            if !seen[e.to.index()] {
                seen[e.to.index()] = true;
                stack.push(e.to);
            }
        }
    }
    seen
}

/// Number of states on the longest simple activation path from any start
/// state, or `None` when a cycle is reachable from a start state (path
/// length unbounded).
///
/// This bounds how many input symbols a single match can span: each STE on
/// a path consumes one symbol, so a match ending at offset `p` began no
/// earlier than `p - (len - 1)`. Counter elements on a path consume no
/// symbol, so for automata with counters the bound is conservative (an
/// over-estimate), never an under-estimate. Engines use this as the
/// overlap window when splitting an input across chunk workers.
///
/// Both activation and reset edges are followed; states unreachable from
/// any start state are ignored (they can never become active). The fold
/// of [`ComponentProfile::window`] over every component.
pub fn longest_path_from_starts(a: &Automaton) -> Option<usize> {
    component_profiles(a)
        .profiles
        .iter()
        .try_fold(0, |best, p| Some(best.max(p.window?)))
}

/// Shortest required literal worth prefiltering on. One-byte literals hit
/// on random input every ~256 symbols, which costs more in window
/// re-simulation than full scanning saves.
pub const MIN_PREFILTER_LITERAL: usize = 2;

/// Longest literal suffix extracted per report state. Selectivity gains
/// flatten out quickly with length, while the literal matcher's memory is
/// proportional to total literal bytes.
pub const MAX_PREFILTER_LITERAL: usize = 8;

/// Why a component is excluded from literal prefiltering and must be
/// scanned by full simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefilterBlock {
    /// Contains a counter element, whose state depends on the entire
    /// input prefix — no bounded window reproduces it.
    Counter,
    /// Contains a `StartOfData` anchor; a cold-started window would
    /// wrongly re-arm the anchor mid-stream.
    StartOfData,
    /// A cycle is reachable from a start state, so matches have no
    /// finite span and no window bound exists.
    Cycle,
    /// Some reachable report state has no required factor of at least
    /// [`MIN_PREFILTER_LITERAL`] bytes on its accepting paths.
    WeakLiteral,
}

impl std::fmt::Display for PrefilterBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PrefilterBlock::Counter => "counter element",
            PrefilterBlock::StartOfData => "start-of-data anchor",
            PrefilterBlock::Cycle => "cycle reachable from start",
            PrefilterBlock::WeakLiteral => "no required literal",
        };
        f.write_str(s)
    }
}

/// A required factor of every match of a component: a byte string each
/// accepting path must consume consecutively, plus the span geometry
/// locating the match relative to an occurrence.
///
/// If the factor occurs ending at offset `e`, the path that consumed it
/// armed no earlier than `e + 1 - bytes.len() - before`, and the report
/// it culminates in fires no later than `e + after`. A factor ending at
/// the match offset has `after == 0` (the classic suffix literal); one
/// at the start of an otherwise unconstrained pattern has `before == 0`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequiredLiteral {
    /// The forced bytes, in path order.
    pub bytes: Vec<u8>,
    /// Most states any accepting path consumes strictly before the
    /// factor's first byte.
    pub before: usize,
    /// Most states any accepting path consumes strictly after the
    /// factor's last byte, up to and including the report state.
    pub after: usize,
}

impl RequiredLiteral {
    /// A factor ending exactly at the match offset, armed at most
    /// `before` states earlier.
    pub fn suffix(bytes: Vec<u8>, before: usize) -> RequiredLiteral {
        RequiredLiteral {
            bytes,
            before,
            after: 0,
        }
    }
}

/// Per-component result of [`prefilter_analysis`].
#[derive(Debug, Clone)]
pub struct ComponentPrefilter {
    /// The component's structural record, from [`component_profiles`].
    pub profile: ComponentProfile,
    /// One required factor per reachable report state (deduplicated by
    /// bytes, geometry merged conservatively); `None` when the component
    /// is not prefilterable. Empty for non-reporting components (nothing
    /// to find).
    pub literals: Option<Vec<RequiredLiteral>>,
    /// Why `literals` is `None`.
    pub block: Option<PrefilterBlock>,
    /// For [`PrefilterBlock::WeakLiteral`]: the first report state whose
    /// required factor fell short, and that factor's length.
    pub weak: Option<(StateId, usize)>,
}

impl ComponentPrefilter {
    /// Whether a literal prefilter can stand in for full simulation of
    /// this component.
    pub fn is_prefilterable(&self) -> bool {
        self.literals.is_some()
    }
}

/// Required-literal prefilter analysis, per weakly connected component.
///
/// For every reachable report state `r` of a counter-free, unanchored,
/// acyclic-from-starts component, finds a **required factor**: a run of
/// consecutive singleton-class states every accepting path for `r` must
/// traverse. Candidates are the *dominators* of `r` (states on every
/// start-rooted path to `r`); a dominator whose only report-co-reachable
/// successor is the next dominator forces every path to consume the two
/// bytes back to back, so maximal such runs are factors every match
/// contains. The factor need not end at the match offset: each
/// [`RequiredLiteral`] carries `before`/`after` bounds locating the
/// match span around an occurrence, so trailing wildcards or bounded
/// jumps after the forced bytes no longer disqualify a component (the
/// dominant pattern shape in malware-signature suites).
///
/// A component qualifies only when *all* of its reachable report states
/// yield a factor of at least [`MIN_PREFILTER_LITERAL`] bytes
/// (truncated to the last [`MAX_PREFILTER_LITERAL`]); otherwise some
/// matches would escape the filter and it falls back to full simulation.
/// `comps` is `a`'s [`component_profiles`] record.
pub fn prefilter_analysis(a: &Automaton, comps: &ComponentProfiles) -> Vec<ComponentPrefilter> {
    let reachable = reachable_from_starts(a);
    let preds = a.predecessors();

    let mut out: Vec<ComponentPrefilter> = comps
        .profiles
        .iter()
        .map(|&profile| {
            let block = if !profile.reporting {
                // Nothing observable can ever happen: prefilterable with
                // an empty literal set (the component is simply dropped).
                None
            } else if profile.has_counter {
                Some(PrefilterBlock::Counter)
            } else if profile.has_start_of_data {
                Some(PrefilterBlock::StartOfData)
            } else if profile.window.is_none() {
                Some(PrefilterBlock::Cycle)
            } else {
                None
            };
            ComponentPrefilter {
                profile,
                literals: block.is_none().then(Vec::new),
                block,
                weak: None,
            }
        })
        .collect();

    // Literal extraction for the surviving reporting components.
    let co = coreachable_to_report(a);
    let mut comp_states: Vec<Vec<StateId>> = vec![Vec::new(); out.len()];
    for (id, _) in a.iter() {
        let cp = &out[comps.labels[id.index()]];
        if reachable[id.index()] && cp.profile.reporting && cp.literals.is_some() {
            comp_states[comps.labels[id.index()]].push(id);
        }
    }
    let mut topo_pos = vec![u32::MAX; a.state_count()];
    for (cp, members) in out.iter_mut().zip(&comp_states) {
        if members.is_empty() {
            continue;
        }
        let window = cp.profile.window.unwrap_or(0);
        match component_literals(a, &preds, &reachable, &co, members, window, &mut topo_pos) {
            Ok(lits) => {
                cp.literals = Some(lits);
            }
            Err((state, len)) => {
                cp.literals = None;
                cp.block = Some(PrefilterBlock::WeakLiteral);
                cp.weak = Some((state, len));
            }
        }
    }
    out
}

/// States from which a reporting state is reachable (backward closure
/// over activation and reset edges).
fn coreachable_to_report(a: &Automaton) -> Vec<bool> {
    let preds = a.predecessors();
    let mut co = vec![false; a.state_count()];
    let mut stack = Vec::new();
    for (id, e) in a.iter() {
        if e.report.is_some() {
            co[id.index()] = true;
            stack.push(id);
        }
    }
    while let Some(v) = stack.pop() {
        for &(p, _) in &preds[v.index()] {
            if !co[p.index()] {
                co[p.index()] = true;
                stack.push(p);
            }
        }
    }
    co
}

/// Components larger than this skip the dominator computation (quadratic
/// in bits) and fall back to the cheaper suffix-spine walk with a
/// conservative window-wide `before`.
const DOMINATOR_STATE_CAP: usize = 4096;

/// Extracts one [`RequiredLiteral`] per reachable report state of a
/// qualifying component (`members` = its reachable states, in id order),
/// deduplicated by bytes with geometry merged conservatively. Errors
/// with the first report state whose best factor is shorter than
/// [`MIN_PREFILTER_LITERAL`] (and that factor's length).
fn component_literals(
    a: &Automaton,
    preds: &[Vec<(StateId, crate::element::Port)>],
    reachable: &[bool],
    co: &[bool],
    members: &[StateId],
    window: usize,
    topo_pos: &mut [u32],
) -> Result<Vec<RequiredLiteral>, (StateId, usize)> {
    let mut lits: Vec<RequiredLiteral> = Vec::new();
    let m = members.len();
    if m > DOMINATOR_STATE_CAP {
        for &r in members {
            if a.element(r).report.is_none() {
                continue;
            }
            let bytes = required_suffix_literal(a, preds, reachable, r);
            if bytes.len() < MIN_PREFILTER_LITERAL {
                return Err((r, bytes.len()));
            }
            let before = window.saturating_sub(bytes.len());
            lits.push(RequiredLiteral::suffix(bytes, before));
        }
        dedup_literals(&mut lits);
        return Ok(lits);
    }

    // Topological order of the component's reachable subgraph (a DAG:
    // the component is acyclic from its starts and every member is
    // start-reachable). DFS post-order, reversed.
    let mut order: Vec<StateId> = Vec::with_capacity(m);
    {
        const WHITE: u8 = 0;
        const GRAY: u8 = 1;
        let mut color = vec![WHITE; m];
        // Temporarily index members for the DFS colors.
        for (i, &s) in members.iter().enumerate() {
            topo_pos[s.index()] = i as u32;
        }
        let mut stack: Vec<(StateId, usize)> = Vec::new();
        for &s in members {
            if a.element(s).start_kind() == crate::element::StartKind::None
                || color[topo_pos[s.index()] as usize] != WHITE
            {
                continue;
            }
            color[topo_pos[s.index()] as usize] = GRAY;
            stack.push((s, 0));
            while let Some(frame) = stack.last_mut() {
                let (v, ei) = *frame;
                let succs = a.successors(v);
                if ei < succs.len() {
                    frame.1 += 1;
                    let t = succs[ei].to;
                    let ti = topo_pos[t.index()] as usize;
                    if color[ti] == WHITE {
                        color[ti] = GRAY;
                        stack.push((t, 0));
                    }
                } else {
                    order.push(v);
                    stack.pop();
                }
            }
        }
        order.reverse();
    }
    debug_assert_eq!(order.len(), m);
    for (i, &s) in order.iter().enumerate() {
        topo_pos[s.index()] = i as u32;
    }

    // Dominators of every state, as bitsets over topo positions:
    // dom(v) = {v} ∪ ⋂ dom(pred). A start state begins paths itself, so
    // nothing before it is required and its set is just {v}.
    let words = m.div_ceil(64);
    let mut doms = vec![0u64; m * words];
    let mut scratch = vec![0u64; words];
    for (i, &v) in order.iter().enumerate() {
        let is_start = a.element(v).start_kind() != crate::element::StartKind::None;
        if is_start {
            scratch.fill(0);
        } else {
            scratch.fill(!0);
            for &(p, _) in &preds[v.index()] {
                if !reachable[p.index()] {
                    continue;
                }
                let pi = topo_pos[p.index()] as usize;
                let pd = &doms[pi * words..(pi + 1) * words];
                for (s, d) in scratch.iter_mut().zip(pd) {
                    *s &= d;
                }
            }
        }
        scratch[i / 64] |= 1u64 << (i % 64);
        doms[i * words..(i + 1) * words].copy_from_slice(&scratch);
    }

    // Longest start-rooted path to each state (states, inclusive), and
    // longest path from each state to a report it co-reaches (states
    // strictly after it, report inclusive; MAX = reaches none).
    let mut lp_to = vec![0usize; m];
    for (i, &v) in order.iter().enumerate() {
        let mut best = 0usize;
        for &(p, _) in &preds[v.index()] {
            if reachable[p.index()] {
                best = best.max(lp_to[topo_pos[p.index()] as usize]);
            }
        }
        lp_to[i] = best + 1;
    }
    let mut rep_dist = vec![usize::MAX; m];
    for (i, &v) in order.iter().enumerate().rev() {
        let mut best = if a.element(v).report.is_some() {
            Some(0usize)
        } else {
            None
        };
        for e in a.successors(v) {
            let si = topo_pos[e.to.index()] as usize;
            if rep_dist[si] != usize::MAX {
                best = Some(best.unwrap_or(0).max(1 + rep_dist[si]));
            }
        }
        if let Some(b) = best {
            rep_dist[i] = b;
        }
    }

    // The byte of each singleton-class state, and its unique
    // report-co-reachable successor (the forced-adjacency link).
    let byte_of: Vec<Option<u8>> = order
        .iter()
        .map(|&v| {
            let class = a.element(v).class()?;
            if class.len() == 1 {
                class.iter().next()
            } else {
                None
            }
        })
        .collect();
    let forced_next: Vec<Option<StateId>> = order
        .iter()
        .map(|&v| {
            let mut unique = None;
            for e in a.successors(v) {
                if !co[e.to.index()] || !reachable[e.to.index()] {
                    continue;
                }
                if unique.is_some() && unique != Some(e.to) {
                    return None;
                }
                unique = Some(e.to);
            }
            unique
        })
        .collect();

    // Per report state: walk its dominators in topo order (they form a
    // chain) and keep the best run of forced-adjacent singleton states.
    let mut run: Vec<usize> = Vec::new();
    for &r in members {
        if a.element(r).report.is_none() {
            continue;
        }
        let ri = topo_pos[r.index()] as usize;
        let dom = &doms[ri * words..(ri + 1) * words];
        let mut best: Option<Vec<usize>> = None;
        run.clear();
        for i in 0..m {
            if dom[i / 64] & (1u64 << (i % 64)) == 0 {
                continue;
            }
            if byte_of[i].is_none() {
                run.clear();
                continue;
            }
            let extends = run
                .last()
                .is_some_and(|&p| forced_next[p] == Some(order[i]));
            if !extends {
                run.clear();
            }
            run.push(i);
            let capped = run.len().min(MAX_PREFILTER_LITERAL);
            // `>=` keeps the latest equally-long run: a later factor has
            // a smaller `after`, so fewer spans extend past a feed.
            if best.as_ref().is_none_or(|b| capped >= b.len()) {
                best = Some(run[run.len() - capped..].to_vec());
            }
        }
        let best_len = best.as_ref().map_or(0, |b| b.len());
        let Some(chain) = best.filter(|b| b.len() >= MIN_PREFILTER_LITERAL) else {
            return Err((r, best_len));
        };
        let first = chain[0];
        let last = chain[chain.len() - 1];
        let bytes: Vec<u8> = chain.iter().map(|&i| byte_of[i].unwrap_or(0)).collect();
        let before = lp_to[first] - 1;
        let after = rep_dist[last];
        debug_assert_ne!(after, usize::MAX);
        debug_assert!(before + bytes.len() + after <= window);
        lits.push(RequiredLiteral {
            bytes,
            before,
            after,
        });
    }
    dedup_literals(&mut lits);
    Ok(lits)
}

/// Sorts, merges same-byte literals (geometry maxed), and dedups.
fn dedup_literals(lits: &mut Vec<RequiredLiteral>) {
    lits.sort_unstable();
    lits.dedup_by(|b, a| {
        if a.bytes == b.bytes {
            a.before = a.before.max(b.before);
            a.after = a.after.max(b.after);
            true
        } else {
            false
        }
    });
}

/// The bytes every accepting path must consume immediately before
/// reporting at `r` (last byte = the match offset), capped at
/// [`MAX_PREFILTER_LITERAL`]. Empty when `r`'s own class is not a
/// single byte.
fn required_suffix_literal(
    a: &Automaton,
    preds: &[Vec<(StateId, crate::element::Port)>],
    reachable: &[bool],
    r: StateId,
) -> Vec<u8> {
    let mut lit = Vec::new();
    let mut cur = r;
    loop {
        let e = a.element(cur);
        let Some(class) = e.class() else { break };
        if class.len() != 1 {
            break;
        }
        let Some(b) = class.iter().next() else { break };
        lit.push(b);
        // A start state begins paths itself: bytes before it are not
        // required. (The walk stays inside the reachable subgraph, which
        // is acyclic for the components this is called on, so it
        // terminates.)
        if lit.len() == MAX_PREFILTER_LITERAL || e.start_kind() != crate::element::StartKind::None {
            break;
        }
        let mut unique = None;
        for &(p, _) in &preds[cur.index()] {
            if !reachable[p.index()] {
                continue;
            }
            if unique.is_some() {
                unique = None;
                break;
            }
            unique = Some(p);
        }
        match unique {
            Some(p) if p != cur => cur = p,
            _ => break,
        }
    }
    lit.reverse();
    lit
}

struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] as usize != x {
            let gp = self.parent[self.parent[x] as usize];
            self.parent[x] = gp;
            x = gp as usize;
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent[rb] = ra as u32;
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::element::StartKind;
    use crate::symbol::SymbolClass;

    fn chain(len: usize) -> Automaton {
        let mut a = Automaton::new();
        a.add_chain(
            &vec![SymbolClass::from_byte(b'a'); len],
            StartKind::AllInput,
        );
        a
    }

    #[test]
    fn stats_of_empty_automaton() {
        let s = AutomatonStats::compute(&Automaton::new());
        assert_eq!(s.states, 0);
        assert_eq!(s.subgraphs, 0);
        assert_eq!(s.avg_subgraph_size, 0.0);
    }

    #[test]
    fn stats_of_uniform_components() {
        let mut a = chain(5);
        for _ in 0..3 {
            a.append(&chain(5));
        }
        let s = AutomatonStats::compute(&a);
        assert_eq!(s.states, 20);
        assert_eq!(s.edges, 16);
        assert_eq!(s.subgraphs, 4);
        assert_eq!(s.avg_subgraph_size, 5.0);
        assert_eq!(s.stddev_subgraph_size, 0.0);
        assert!((s.edges_per_node - 0.8).abs() < 1e-12);
    }

    #[test]
    fn stats_of_mixed_components() {
        let mut a = chain(2);
        a.append(&chain(6));
        let s = AutomatonStats::compute(&a);
        assert_eq!(s.subgraphs, 2);
        assert_eq!(s.avg_subgraph_size, 4.0);
        assert_eq!(s.stddev_subgraph_size, 2.0);
    }

    #[test]
    fn component_labels_are_dense() {
        let mut a = chain(2);
        a.append(&chain(3));
        assert_eq!(component_profiles(&a).labels, vec![0, 0, 1, 1, 1]);
    }

    #[test]
    fn longest_path_of_chains_is_longest_chain() {
        let mut a = chain(3);
        a.append(&chain(7));
        a.append(&chain(2));
        assert_eq!(longest_path_from_starts(&a), Some(7));
    }

    #[test]
    fn longest_path_sees_through_diamonds() {
        // start -> {b, c}; b -> d; c -> e -> d: longest path is 4 states.
        let mut a = Automaton::new();
        let s = a.add_ste(SymbolClass::FULL, StartKind::AllInput);
        let b = a.add_ste(SymbolClass::FULL, StartKind::None);
        let c = a.add_ste(SymbolClass::FULL, StartKind::None);
        let d = a.add_ste(SymbolClass::FULL, StartKind::None);
        let e = a.add_ste(SymbolClass::FULL, StartKind::None);
        a.add_edge(s, b);
        a.add_edge(s, c);
        a.add_edge(b, d);
        a.add_edge(c, e);
        a.add_edge(e, d);
        assert_eq!(longest_path_from_starts(&a), Some(4));
    }

    #[test]
    fn reachable_cycle_is_unbounded() {
        let mut a = chain(2);
        a.add_edge(StateId::new(1), StateId::new(0));
        assert_eq!(longest_path_from_starts(&a), None);
    }

    #[test]
    fn self_loop_is_unbounded() {
        let mut a = chain(1);
        a.add_edge(StateId::new(0), StateId::new(0));
        assert_eq!(longest_path_from_starts(&a), None);
    }

    #[test]
    fn unreachable_cycle_is_ignored() {
        let mut a = chain(4);
        // An orphan two-cycle no start state reaches.
        let x = a.add_ste(SymbolClass::FULL, StartKind::None);
        let y = a.add_ste(SymbolClass::FULL, StartKind::None);
        a.add_edge(x, y);
        a.add_edge(y, x);
        assert_eq!(longest_path_from_starts(&a), Some(4));
    }

    #[test]
    fn empty_automaton_has_zero_path() {
        assert_eq!(longest_path_from_starts(&Automaton::new()), Some(0));
    }

    fn word(a: &mut Automaton, w: &[u8], code: u32) {
        let classes: Vec<SymbolClass> = w.iter().map(|&b| SymbolClass::from_byte(b)).collect();
        let (_, last) = a.add_chain(&classes, StartKind::AllInput);
        a.set_report(last, code);
    }

    fn analysis(a: &Automaton) -> Vec<ComponentPrefilter> {
        prefilter_analysis(a, &component_profiles(a))
    }

    #[test]
    fn literal_chain_is_fully_extracted() {
        let mut a = Automaton::new();
        word(&mut a, b"admin", 0);
        let pf = analysis(&a);
        assert_eq!(pf.len(), 1);
        assert!(pf[0].is_prefilterable());
        assert_eq!(pf[0].profile.window, Some(5));
        assert_eq!(
            pf[0].literals,
            Some(vec![RequiredLiteral::suffix(b"admin".to_vec(), 0)])
        );
    }

    #[test]
    fn long_literals_keep_their_suffix() {
        let mut a = Automaton::new();
        word(&mut a, b"0123456789abcdef", 0);
        let pf = analysis(&a);
        assert_eq!(
            pf[0].literals,
            Some(vec![RequiredLiteral::suffix(b"89abcdef".to_vec(), 8)])
        );
        assert_eq!(pf[0].profile.window, Some(16));
    }

    #[test]
    fn fanout_stops_the_walk_at_the_join() {
        // Two prefixes share a reporting suffix "xy": every path still
        // ends in "xy", but nothing longer is required.
        let mut a = Automaton::new();
        let p1 = a.add_ste(SymbolClass::from_byte(b'a'), StartKind::AllInput);
        let p2 = a.add_ste(SymbolClass::from_byte(b'b'), StartKind::AllInput);
        let x = a.add_ste(SymbolClass::from_byte(b'x'), StartKind::None);
        let y = a.add_ste(SymbolClass::from_byte(b'y'), StartKind::None);
        a.add_edge(p1, x);
        a.add_edge(p2, x);
        a.add_edge(x, y);
        a.set_report(y, 0);
        let pf = analysis(&a);
        assert_eq!(
            pf[0].literals,
            Some(vec![RequiredLiteral::suffix(b"xy".to_vec(), 1)])
        );
    }

    #[test]
    fn wide_class_at_report_blocks_prefilter() {
        let mut a = Automaton::new();
        let s = a.add_ste(SymbolClass::from_byte(b'a'), StartKind::AllInput);
        let t = a.add_ste(SymbolClass::from_range(b'0', b'9'), StartKind::None);
        a.add_edge(s, t);
        a.set_report(t, 0);
        let pf = analysis(&a);
        assert!(!pf[0].is_prefilterable());
        assert_eq!(pf[0].block, Some(PrefilterBlock::WeakLiteral));
    }

    #[test]
    fn trailing_wildcards_no_longer_block() {
        // "ab" followed by two wide states, report at the end: the
        // suffix at the report is weak, but "ab" is a required factor
        // with `after = 2`.
        let mut a = Automaton::new();
        let s = a.add_ste(SymbolClass::from_byte(b'a'), StartKind::AllInput);
        let b = a.add_ste(SymbolClass::from_byte(b'b'), StartKind::None);
        let w1 = a.add_ste(SymbolClass::FULL, StartKind::None);
        let w2 = a.add_ste(SymbolClass::FULL, StartKind::None);
        a.add_edge(s, b);
        a.add_edge(b, w1);
        a.add_edge(w1, w2);
        a.set_report(w2, 0);
        let pf = analysis(&a);
        assert!(pf[0].is_prefilterable());
        assert_eq!(
            pf[0].literals,
            Some(vec![RequiredLiteral {
                bytes: b"ab".to_vec(),
                before: 0,
                after: 2,
            }])
        );
    }

    #[test]
    fn interior_factor_found_behind_a_fanout() {
        // a → {x|y} → b → c → wide(report): neither the prefix walk from
        // the start (breaks at the fanout) nor the suffix walk from the
        // report (breaks at the wide class) sees "bc"; the dominator
        // chain does.
        let mut a = Automaton::new();
        let s = a.add_ste(SymbolClass::from_byte(b'a'), StartKind::AllInput);
        let x = a.add_ste(SymbolClass::from_byte(b'x'), StartKind::None);
        let y = a.add_ste(SymbolClass::from_byte(b'y'), StartKind::None);
        let b = a.add_ste(SymbolClass::from_byte(b'b'), StartKind::None);
        let c = a.add_ste(SymbolClass::from_byte(b'c'), StartKind::None);
        let w = a.add_ste(SymbolClass::FULL, StartKind::None);
        a.add_edge(s, x);
        a.add_edge(s, y);
        a.add_edge(x, b);
        a.add_edge(y, b);
        a.add_edge(b, c);
        a.add_edge(c, w);
        a.set_report(w, 0);
        let pf = analysis(&a);
        assert!(pf[0].is_prefilterable());
        assert_eq!(
            pf[0].literals,
            Some(vec![RequiredLiteral {
                bytes: b"bc".to_vec(),
                before: 2,
                after: 1,
            }])
        );
    }

    #[test]
    fn later_factor_wins_ties() {
        // Two 2-byte runs separated by a wide state; the later one (at
        // the report) is kept, minimizing the forward span.
        let mut a = Automaton::new();
        let s = a.add_ste(SymbolClass::from_byte(b'p'), StartKind::AllInput);
        let q = a.add_ste(SymbolClass::from_byte(b'q'), StartKind::None);
        let w = a.add_ste(SymbolClass::FULL, StartKind::None);
        let u = a.add_ste(SymbolClass::from_byte(b'u'), StartKind::None);
        let v = a.add_ste(SymbolClass::from_byte(b'v'), StartKind::None);
        a.add_edge(s, q);
        a.add_edge(q, w);
        a.add_edge(w, u);
        a.add_edge(u, v);
        a.set_report(v, 0);
        let pf = analysis(&a);
        assert_eq!(
            pf[0].literals,
            Some(vec![RequiredLiteral {
                bytes: b"uv".to_vec(),
                before: 3,
                after: 0,
            }])
        );
    }

    #[test]
    fn counters_anchors_and_cycles_block() {
        use crate::element::CounterMode;
        let mut a = Automaton::new();
        // Component 0: counter.
        let s = a.add_ste(SymbolClass::from_byte(b'k'), StartKind::AllInput);
        let c = a.add_counter(3, CounterMode::Latch);
        a.add_edge(s, c);
        a.set_report(c, 0);
        // Component 1: start-of-data anchor.
        let mut b = Automaton::new();
        let (_, last) = b.add_chain(
            &[SymbolClass::from_byte(b'q'), SymbolClass::from_byte(b'r')],
            StartKind::StartOfData,
        );
        b.set_report(last, 1);
        a.append(&b);
        // Component 2: cycle.
        let mut d = Automaton::new();
        let (first, last) = d.add_chain(
            &[SymbolClass::from_byte(b'm'), SymbolClass::from_byte(b'n')],
            StartKind::AllInput,
        );
        d.add_edge(last, first);
        d.set_report(last, 2);
        a.append(&d);
        // Component 3: still fine.
        word(&mut a, b"ok_literal", 3);
        let pf = analysis(&a);
        assert_eq!(pf.len(), 4);
        assert_eq!(pf[0].block, Some(PrefilterBlock::Counter));
        assert_eq!(pf[1].block, Some(PrefilterBlock::StartOfData));
        assert_eq!(pf[2].block, Some(PrefilterBlock::Cycle));
        assert_eq!(pf[2].profile.window, None);
        assert!(pf[3].is_prefilterable());
        assert_eq!(pf[3].profile.window, Some(10));
    }

    #[test]
    fn cycle_in_one_component_spares_the_others() {
        let mut a = chain(3);
        a.add_edge(StateId::new(2), StateId::new(0));
        let mut b = Automaton::new();
        word(&mut b, b"hello", 9);
        a.append(&b);
        let pf = analysis(&a);
        assert_eq!(pf[0].profile.window, None);
        assert_eq!(pf[1].profile.window, Some(5));
    }

    #[test]
    fn reportless_components_are_droppable() {
        let a = chain(4); // no report state at all
        let pf = analysis(&a);
        assert!(!pf[0].profile.reporting);
        assert!(pf[0].is_prefilterable());
        assert_eq!(pf[0].literals, Some(vec![]));
    }

    #[test]
    fn duplicate_literals_are_deduped() {
        let mut a = Automaton::new();
        word(&mut a, b"same", 0);
        let mut b = Automaton::new();
        word(&mut b, b"same", 1);
        // Join them into one component via a shared tail state.
        a.append(&b);
        let bridge = a.add_ste(SymbolClass::from_byte(b'!'), StartKind::None);
        a.add_edge(StateId::new(3), bridge);
        a.add_edge(StateId::new(7), bridge);
        let pf = analysis(&a);
        assert_eq!(pf.len(), 1);
        assert_eq!(
            pf[0].literals,
            Some(vec![RequiredLiteral::suffix(b"same".to_vec(), 0)])
        );
    }

    #[test]
    fn report_state_that_is_also_start_yields_single_byte() {
        let mut a = Automaton::new();
        let s = a.add_ste(SymbolClass::from_byte(b'z'), StartKind::AllInput);
        a.set_report(s, 0);
        let pf = analysis(&a);
        assert_eq!(pf[0].block, Some(PrefilterBlock::WeakLiteral));
    }

    #[test]
    fn component_profiles_flag_counters_and_anchors() {
        use crate::element::CounterMode;
        let mut a = chain(2);
        let mut b = Automaton::new();
        let s = b.add_ste(SymbolClass::from_byte(b'k'), StartKind::StartOfData);
        let c = b.add_counter(3, CounterMode::Latch);
        b.add_edge(s, c);
        a.append(&b);
        let profiles = component_profiles(&a).profiles;
        assert_eq!(profiles.len(), 2);
        assert_eq!(profiles[0].states, 2);
        assert!(!profiles[0].has_counter && !profiles[0].has_start_of_data);
        assert_eq!(profiles[1].first_state, StateId::new(2));
        assert!(profiles[1].has_counter && profiles[1].has_start_of_data);
        // Neither component reports; the counter sits one state past
        // the anchored start.
        assert!(!profiles[0].reporting && !profiles[1].reporting);
        assert_eq!(profiles[0].window, Some(2));
        assert_eq!(profiles[1].window, Some(2));
    }

    #[test]
    fn component_profiles_see_only_start_reachable_cycles() {
        // Component 0: a reachable self-loop. Component 1: a startless
        // reporting two-cycle. Component 2: a chain joined to an orphan
        // two-cycle that no start reaches.
        let mut a = chain(1);
        a.add_edge(StateId::new(0), StateId::new(0));
        let x = a.add_ste(SymbolClass::FULL, StartKind::None);
        let y = a.add_ste(SymbolClass::FULL, StartKind::None);
        a.add_edge(x, y);
        a.add_edge(y, x);
        a.set_report(y, 1);
        let (_, last) = a.add_chain(&[SymbolClass::FULL; 3], StartKind::AllInput);
        a.set_report(last, 2);
        let p = a.add_ste(SymbolClass::FULL, StartKind::None);
        let q = a.add_ste(SymbolClass::FULL, StartKind::None);
        a.add_edge(p, q);
        a.add_edge(q, p);
        a.add_edge(p, last);
        let comps = component_profiles(&a);
        let windows: Vec<_> = comps.profiles.iter().map(|p| p.window).collect();
        assert_eq!(windows, vec![None, Some(0), Some(3)]);
        let reporting: Vec<_> = comps.profiles.iter().map(|p| p.reporting).collect();
        assert_eq!(reporting, vec![false, false, true]);
        assert_eq!(comps.labels, vec![0, 1, 1, 2, 2, 2, 2, 2]);
    }

    #[test]
    fn reachability_ignores_orphans() {
        let mut a = chain(3);
        a.add_ste(SymbolClass::FULL, StartKind::None); // orphan
        let r = reachable_from_starts(&a);
        assert_eq!(r, vec![true, true, true, false]);
    }
}
