//! The literal-prefilter engine.
//!
//! [`PrefilterEngine`] splits the automaton with
//! [`azoo_passes::prefilter_plan`]: components whose every match must
//! contain a *required factor* — a forced byte chain with known
//! `before`/`after` span geometry (see
//! [`azoo_core::stats::RequiredLiteral`]) — are gated behind an
//! [`AhoCorasick`](crate::literal::AhoCorasick) matcher and simulated
//! only inside a bounded span around each candidate hit; the rejected
//! remainder falls back to full simulation ([`NfaEngine`], or
//! [`LazyDfaEngine`] when the remainder determinizes well). Components
//! with no reachable reporting element are dropped outright.
//!
//! # Soundness
//!
//! For a prefilterable component (counter-free, no start-of-data anchor,
//! acyclic from its starts), every match contains a factor occurrence.
//! With `back = max(len + before)` and `fwd = max(after)` over the
//! component's factors:
//!
//! * **No hit → no report.** Offsets with no factor occurrence in
//!   `[p − fwd, p]`-range need no simulation at all.
//! * **Span-bound.** A match whose factor occurrence ends at `e` armed
//!   no earlier than `e + 1 − back` and reports no later than `e + fwd`,
//!   so a *cold-start* simulation of `[e + 1 − back, e + 1 + fwd)`
//!   observes every true report it is responsible for. Cold starts
//!   cannot invent reports: the component's only starts are `AllInput`,
//!   which full simulation re-arms on every symbol anyway.
//! * **Forward spans stay open across feeds.** `fwd > 0` lets a span
//!   outrun the bytes consumed so far; the component's engine then stays
//!   *hot* and the residual span (`open_until`) is continued by later feeds, so
//!   arms from the triggering chunk survive to their report offsets.
//! * **Streaming dedup.** Overlapping spans are merged per feed (span
//!   ends are monotone in hit ends because the geometry is uniform per
//!   component), and a per-component watermark drops reports below the
//!   already-simulated prefix.
//!
//! The merged output is the canonical sorted, deduplicated report stream
//! — byte-identical to [`NfaEngine`] on the same automaton, which the
//! differential suite verifies across all 27 benchmarks.

use std::sync::Arc;

use azoo_core::{stats::longest_path_from_starts, Automaton};
use azoo_passes::prefilter_plan;

use crate::lazy_dfa::LazyDfaEngine;
use azoo_simd::{Teddy, TeddyMatch};

use crate::literal::{AhoCorasick, LiteralHit};
use crate::nfa::NfaEngine;
use crate::sink::{RebaseSink, Report, ReportSink};
use crate::stream::StreamingEngine;
use crate::{Engine, EngineError};

/// Widest compressed alphabet for which the fallback remainder is
/// simulated with a lazy DFA instead of the NFA. Wildcard-heavy
/// remainders (e.g. `??`-laden signatures) blow the subset construction
/// up; literal-ish remainders determinize to a handful of states and
/// scan several times faster.
const FALLBACK_DFA_CLASS_CAP: usize = 64;

/// One gated component's compiled form, shared by every clone.
#[derive(Debug)]
struct GatedComponent {
    /// The plan's [`exact`](azoo_passes::PrefilterComponent::exact)
    /// verdict: when set, a trigger hit ending at `e` reports
    /// `(e, code)` directly, with no simulation at all.
    exact: Option<azoo_core::ReportCode>,
    /// The reset engine a session copies the first time a span reaches
    /// the component.
    engine: NfaEngine,
    /// Span reach behind a hit end: `max(len + before)` over factors.
    back: u64,
    /// Span reach past a hit end: `max(after)` over factors.
    fwd: u64,
}

/// One gated component's streaming simulation state in one session.
#[derive(Debug, Clone, Default)]
struct ComponentRun {
    /// This session's copy of the component's engine; `None` until a
    /// span first reaches the component, so a clone copies no engine.
    engine: Option<Box<NfaEngine>>,
    /// Reports at global offsets below this were already emitted.
    simulated_to: u64,
    /// Global offset of the last cold start, so pending end-of-data
    /// reports (span-relative) can be rebased when an empty `eod` feed
    /// flushes them.
    last_span_base: u64,
    /// A span extended past the bytes consumed so far: simulation must
    /// continue to this global offset in later feeds. `0` = none.
    open_until: u64,
    /// The engine holds live state continuous with `simulated_to` (not
    /// reset since its last cold start), so a span starting at or before
    /// the watermark may continue it instead of cold-starting.
    hot: bool,
    /// An `eod` feed already flushed this component's end-of-data
    /// reports this round (transient: set and cleared within one feed).
    eod_flushed: bool,
}

/// The full-simulation engine behind the gated components.
#[derive(Debug, Clone)]
enum FallbackSim {
    Nfa(Box<NfaEngine>),
    Dfa(Box<LazyDfaEngine>),
}

impl FallbackSim {
    /// Picks an engine for the remainder: a lazy DFA when the remainder
    /// is counter-free, acyclic from its starts, and its compressed
    /// alphabet is narrow (all statically checkable predictors of a
    /// small, fast subset automaton); otherwise the NFA.
    fn build(fb: &Automaton) -> Result<FallbackSim, EngineError> {
        if longest_path_from_starts(fb).is_some() && fb.counter_count() == 0 {
            if let Ok(dfa) = LazyDfaEngine::new(fb) {
                if dfa.alphabet_classes() <= FALLBACK_DFA_CLASS_CAP {
                    return Ok(FallbackSim::Dfa(Box::new(dfa)));
                }
            }
        }
        Ok(FallbackSim::Nfa(Box::new(NfaEngine::new(fb)?)))
    }

    fn feed(&mut self, chunk: &[u8], eod: bool, sink: &mut dyn ReportSink) {
        match self {
            FallbackSim::Nfa(e) => e.feed(chunk, eod, sink),
            FallbackSim::Dfa(e) => e.feed(chunk, eod, sink),
        }
    }

    fn reset_stream(&mut self) {
        match self {
            FallbackSim::Nfa(e) => e.reset_stream(),
            FallbackSim::Dfa(e) => e.reset_stream(),
        }
    }

    fn stream_quiesced(&self) -> bool {
        match self {
            FallbackSim::Nfa(e) => e.stream_quiesced(),
            FallbackSim::Dfa(e) => e.stream_quiesced(),
        }
    }

    fn is_dfa(&self) -> bool {
        matches!(self, FallbackSim::Dfa(_))
    }
}

/// The multi-literal trigger scanner: a vectorized Teddy prefilter when
/// the literal set is small enough for its nibble masks and the host has
/// SIMD, the Aho–Corasick automaton otherwise.
///
/// Teddy is stateless per scan, so streaming keeps a seam carry of the
/// last `max_len - 1` stream bytes and rescans it ahead of each chunk; a
/// hit is new exactly when its *end* lands in the new chunk (anything
/// ending earlier was found by the previous feed, whose scan covered
/// every byte before `base`). Hits are re-sorted by end position because
/// Teddy reports in start order and pattern lengths differ.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // one per engine; boxing buys nothing
enum Trigger {
    Ac(AhoCorasick),
    Teddy {
        teddy: Teddy,
        /// Pattern lengths, indexed as fed to [`Teddy::new`].
        pat_len: Vec<u32>,
        /// Longest pattern length (seam carry is `max_len - 1` bytes).
        max_len: usize,
        carry: Vec<u8>,
        buf: Vec<u8>,
        scratch: Vec<TeddyMatch>,
    },
}

impl Trigger {
    fn build_with(patterns: &[Vec<u8>], level: azoo_simd::SimdLevel) -> Trigger {
        // Teddy pays off only when its vector kernels run; under
        // forced-scalar (or on non-SIMD hosts) the scalar twin would
        // re-derive candidates byte-at-a-time, slower than one AC step.
        if level > azoo_simd::SimdLevel::Scalar {
            if let Some(teddy) = Teddy::new(patterns) {
                let pat_len = patterns.iter().map(|p| p.len() as u32).collect();
                let max_len = patterns.iter().map(Vec::len).max().unwrap_or(1);
                return Trigger::Teddy {
                    teddy,
                    pat_len,
                    max_len,
                    carry: Vec::new(),
                    buf: Vec::new(),
                    scratch: Vec::new(),
                };
            }
        }
        Trigger::Ac(AhoCorasick::new(patterns))
    }

    fn kind(&self) -> &'static str {
        match self {
            Trigger::Ac(_) => "aho-corasick",
            Trigger::Teddy { .. } => "teddy",
        }
    }

    fn reset(&mut self) {
        match self {
            Trigger::Ac(m) => m.reset(),
            Trigger::Teddy { carry, .. } => carry.clear(),
        }
    }

    fn quiesced(&self) -> bool {
        match self {
            Trigger::Ac(m) => m.is_at_root(),
            Trigger::Teddy { carry, .. } => carry.is_empty(),
        }
    }

    /// Emits this chunk's hits in nondecreasing end order, `base` being
    /// the chunk's global offset.
    fn feed(&mut self, chunk: &[u8], base: u64, hits: &mut Vec<LiteralHit>) {
        match self {
            Trigger::Ac(m) => m.feed(chunk, base, hits),
            Trigger::Teddy {
                teddy,
                pat_len,
                max_len,
                carry,
                buf,
                scratch,
            } => {
                buf.clear();
                buf.extend_from_slice(carry);
                buf.extend_from_slice(chunk);
                let buf_base = base - carry.len() as u64;
                scratch.clear();
                teddy.find(buf, scratch);
                for m in scratch.iter() {
                    let end =
                        buf_base + m.start as u64 + u64::from(pat_len[m.pattern as usize]) - 1;
                    if end >= base {
                        hits.push(LiteralHit {
                            end,
                            pattern: m.pattern,
                        });
                    }
                }
                hits.sort_unstable_by_key(|h| (h.end, h.pattern));
                let keep = buf.len().min(*max_len - 1);
                carry.clear();
                carry.extend_from_slice(&buf[buf.len() - keep..]);
            }
        }
    }
}

/// Literal-gated windowed simulation with full-simulation fallback.
#[derive(Debug, Clone)]
pub struct PrefilterEngine {
    matcher: Trigger,
    /// Pattern index (as fed to the matcher) → gated component index.
    pat_comp: Vec<u32>,
    /// Compiled components, immutable and shared by clones.
    components: Arc<[GatedComponent]>,
    /// Per-component streaming state, indexed like `components`.
    runs: Vec<ComponentRun>,
    fallback: Option<FallbackSim>,
    coverage: f64,
    /// `max(back) − 1`: how many trailing stream bytes a span can reach
    /// back past a chunk boundary.
    keep: usize,

    // Streaming state and per-feed scratch.
    tail: Vec<u8>,
    stream_offset: u64,
    /// Components simulated since the last reset (`hot`), in first-touch
    /// order. Every other run is still in its reset state, so a
    /// feed, a reset or an end-of-data flush visits only these and the
    /// ones hit this feed — never the whole (ClamAV: 3,300) list.
    live: Vec<u32>,
    /// Components with spans this feed, in first-span order.
    pending: Vec<u32>,
    hits: Vec<LiteralHit>,
    spans: Vec<Vec<(u64, u64)>>,
    reports: Vec<Report>,
    /// Reports emitted at the last consumed offset by the previous feed,
    /// so an empty-`eod` pending flush never re-emits one of them.
    tail_reports: Vec<Report>,
}

impl PrefilterEngine {
    /// Plans and compiles the prefilter for `a`.
    ///
    /// Construction succeeds for any valid automaton — with nothing
    /// prefilterable the engine degenerates to a plain [`NfaEngine`]
    /// behind a never-matching trigger;
    /// [`prefilter_gate`](crate::prefilter_gate) decides whether the
    /// result is worthwhile.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Invalid`] if `a` fails validation.
    pub fn new(a: &Automaton) -> Result<Self, EngineError> {
        Self::build_for_level(a, azoo_simd::level())
    }

    /// [`new`](Self::new) with the trigger pinned to the scalar tier: the
    /// literal matcher is always the Aho–Corasick automaton, never Teddy,
    /// regardless of host SIMD. The report stream is identical either
    /// way; the oracle and the prefilter bench use this configuration to
    /// differentiate the two trigger paths inside one process (the
    /// `AZOO_FORCE_SCALAR` environment variable covers the whole-process
    /// equivalent).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Invalid`] if `a` fails validation.
    pub fn with_scalar_trigger(a: &Automaton) -> Result<Self, EngineError> {
        Self::build_for_level(a, azoo_simd::SimdLevel::Scalar)
    }

    fn build_for_level(a: &Automaton, level: azoo_simd::SimdLevel) -> Result<Self, EngineError> {
        a.validate()?;
        let plan = prefilter_plan(a);
        let mut patterns: Vec<Vec<u8>> = Vec::new();
        let mut pat_comp = Vec::new();
        let mut components = Vec::with_capacity(plan.components.len());
        for (ci, pc) in plan.components.iter().enumerate() {
            let mut back = 0u64;
            let mut fwd = 0u64;
            for lit in &pc.literals {
                patterns.push(lit.bytes.clone());
                pat_comp.push(ci as u32);
                back = back.max((lit.bytes.len() + lit.before) as u64);
                fwd = fwd.max(lit.after as u64);
            }
            components.push(GatedComponent {
                exact: pc.exact,
                engine: NfaEngine::new(&pc.automaton)?,
                back,
                fwd,
            });
        }
        let fallback = match &plan.fallback {
            Some(fb) => Some(FallbackSim::build(fb)?),
            None => None,
        };
        let keep = components
            .iter()
            .filter(|c| c.exact.is_none())
            .map(|c| c.back as usize)
            .max()
            .unwrap_or(0)
            .saturating_sub(1);
        let n_comp = components.len();
        Ok(PrefilterEngine {
            matcher: Trigger::build_with(&patterns, level),
            pat_comp,
            components: components.into(),
            runs: vec![ComponentRun::default(); n_comp],
            fallback,
            coverage: plan.coverage(),
            keep,
            tail: Vec::new(),
            stream_offset: 0,
            live: Vec::new(),
            pending: Vec::new(),
            hits: Vec::new(),
            spans: vec![Vec::new(); n_comp],
            reports: Vec::new(),
            tail_reports: Vec::new(),
        })
    }

    /// Fraction of states spared from full simulation (gated plus
    /// dropped, over total).
    pub fn coverage(&self) -> f64 {
        self.coverage
    }

    /// Number of literal-gated components.
    pub fn component_count(&self) -> usize {
        self.components.len()
    }

    /// Number of literals driving the trigger matcher.
    pub fn literal_count(&self) -> usize {
        self.pat_comp.len()
    }

    /// Which literal matcher drives the gate: `"teddy"` (vectorized
    /// nibble-mask prefilter) or `"aho-corasick"` (the scalar trigger).
    pub fn trigger_kind(&self) -> &'static str {
        self.matcher.kind()
    }

    /// Number of gated components whose matches are exactly their factor
    /// (reported straight from trigger hits, no simulation).
    pub fn exact_component_count(&self) -> usize {
        self.components.iter().filter(|c| c.exact.is_some()).count()
    }

    /// True when a fallback remainder must be fully simulated.
    pub fn has_fallback(&self) -> bool {
        self.fallback.is_some()
    }

    /// Name of the engine simulating the fallback remainder, if any.
    pub fn fallback_engine(&self) -> Option<&'static str> {
        self.fallback
            .as_ref()
            .map(|fb| if fb.is_dfa() { "lazy-dfa" } else { "nfa" })
    }
}

impl StreamingEngine for PrefilterEngine {
    fn reset_stream(&mut self) {
        self.matcher.reset();
        for ci in self.live.drain(..) {
            let run = &mut self.runs[ci as usize];
            run.simulated_to = 0;
            run.last_span_base = 0;
            run.open_until = 0;
            run.hot = false;
            if let Some(engine) = &mut run.engine {
                engine.reset_stream();
            }
        }
        if let Some(fb) = &mut self.fallback {
            fb.reset_stream();
        }
        self.tail.clear();
        self.tail_reports.clear();
        self.stream_offset = 0;
    }

    fn stream_quiesced(&self) -> bool {
        self.stream_offset == 0
            && self.tail.is_empty()
            && self.tail_reports.is_empty()
            && self.live.is_empty()
            && self.matcher.quiesced()
            && self.runs.iter().all(|r| {
                r.simulated_to == 0
                    && r.last_span_base == 0
                    && r.open_until == 0
                    && !r.hot
                    && r.engine.as_ref().is_none_or(|e| e.stream_quiesced())
            })
            && self.fallback.as_ref().is_none_or(|fb| fb.stream_quiesced())
    }

    fn feed(&mut self, chunk: &[u8], eod: bool, sink: &mut dyn ReportSink) {
        let base = self.stream_offset;
        let total = base + chunk.len() as u64;
        self.reports.clear();

        // Stage 1: literal trigger. Hits arrive in increasing end order
        // and the span geometry is uniform per component, so spans can
        // be merged as they are produced (both endpoints are monotone).
        self.hits.clear();
        self.matcher.feed(chunk, base, &mut self.hits);
        for h in &self.hits {
            let ci = self.pat_comp[h.pattern as usize] as usize;
            let comp = &self.components[ci];
            if let Some(code) = comp.exact {
                self.reports.push(Report {
                    offset: h.end,
                    code,
                });
                continue;
            }
            let s = (h.end + 1).saturating_sub(comp.back);
            let t = h.end + 1 + comp.fwd;
            let spans = &mut self.spans[ci];
            match spans.last_mut() {
                Some(last) if s <= last.1 => last.1 = t.max(last.1),
                Some(_) => spans.push((s, t)),
                None => {
                    spans.push((s, t));
                    self.pending.push(ci as u32);
                }
            }
        }

        // Stage 1b: a span left open by the previous feed (its forward
        // reach outran the stream) resumes as a continuation span over
        // the still-unsimulated range, merged with this feed's first
        // span when they touch. The continuation is contiguous with the
        // hot engine state by construction (`simulated_to` was clamped
        // to the previous stream end).
        for &ci in &self.live {
            let run = &self.runs[ci as usize];
            if run.open_until == 0 {
                continue;
            }
            debug_assert!(run.hot && run.simulated_to == base);
            let spans = &mut self.spans[ci as usize];
            match spans.first_mut() {
                Some(first) if first.0 <= run.open_until => {
                    first.0 = first.0.min(run.simulated_to);
                    first.1 = first.1.max(run.open_until);
                }
                Some(_) => spans.insert(0, (run.simulated_to, run.open_until)),
                None => {
                    spans.push((run.simulated_to, run.open_until));
                    self.pending.push(ci);
                }
            }
        }

        // Stage 2: simulate each merged span. A span overlapping the
        // already-simulated prefix of a hot engine continues it (the hot
        // arms are a superset of any cold start at or after the last
        // cold-start base, and new-hit spans never begin before that
        // base); a disjoint span restarts cold. Spans may reach back
        // into the previous chunks' tail, and a span whose forward reach
        // outruns this feed is clipped and left open for the next one.
        for &ci in &self.pending {
            let ci = ci as usize;
            let run = &mut self.runs[ci];
            if !run.hot {
                self.live.push(ci as u32);
            }
            let engine = run
                .engine
                .get_or_insert_with(|| Box::new(self.components[ci].engine.clone()));
            for &(s, t) in &self.spans[ci] {
                let t_clip = t.min(total);
                let span_eod = eod && t_clip == total;
                // Continue the live arms from the watermark, or restart
                // cold at the span's start.
                let from = if run.hot && s <= run.simulated_to {
                    debug_assert!(s >= run.last_span_base);
                    run.simulated_to
                } else {
                    engine.reset_stream();
                    run.last_span_base = s;
                    s
                };
                let mut ssink = RebaseSink {
                    base: run.last_span_base,
                    min: run.simulated_to,
                    out: &mut self.reports,
                };
                if from < base {
                    let back = (base - from) as usize;
                    debug_assert!(back <= self.tail.len());
                    engine.feed(&self.tail[self.tail.len() - back..], false, &mut ssink);
                }
                let c0 = (from.max(base) - base) as usize;
                let c1 = (t_clip.max(base) - base) as usize;
                engine.feed(&chunk[c0..c1], span_eod, &mut ssink);
                run.simulated_to = t_clip;
                run.hot = true;
                run.open_until = if t > total && !eod { t } else { 0 };
                run.eod_flushed |= span_eod;
            }
            self.spans[ci].clear();
        }

        // Stage 2b: end of data on an empty chunk — the final symbol was
        // consumed by an earlier feed. Components whose last span reached
        // the end of the stream may hold back end-of-data reports; flush
        // them (watermark 0: eod-gated reports cannot have been emitted
        // before eod arrived) unless a continuation span already carried
        // the eod flag to the engine above. Components whose last span
        // ended earlier cannot report at the final symbol at all (no
        // literal hit reaches it), so their pending state is stale and
        // stays unflushed.
        if eod && chunk.is_empty() {
            for &ci in &self.live {
                let run = &mut self.runs[ci as usize];
                if run.simulated_to == total && run.simulated_to > 0 && !run.eod_flushed {
                    if let Some(engine) = &mut run.engine {
                        let mut ssink = RebaseSink {
                            base: run.last_span_base,
                            min: 0,
                            out: &mut self.reports,
                        };
                        engine.feed(&[], true, &mut ssink);
                    }
                }
            }
        }
        for ci in self.pending.drain(..) {
            self.runs[ci as usize].eod_flushed = false;
        }

        // Stage 3: full simulation of the fallback remainder.
        if let Some(fb) = &mut self.fallback {
            fb.feed(chunk, eod, &mut self.reports);
        }

        // Canonical merge: per-feed sort and dedup. Cross-feed duplicates
        // are impossible (watermarks), except when an empty-`eod` flush
        // replays a code the previous feed already emitted
        // unconditionally at the final symbol — filter those.
        self.reports.sort_unstable();
        self.reports.dedup();
        if eod && chunk.is_empty() && !self.tail_reports.is_empty() {
            let tail_reports = &self.tail_reports;
            self.reports.retain(|r| !tail_reports.contains(r));
        }
        for r in &self.reports {
            sink.report(r.offset, r.code);
        }
        if !chunk.is_empty() {
            // Remember what was emitted at the last consumed offset, for
            // the empty-`eod` cross-feed dedup above.
            self.tail_reports.clear();
            let last_off = total - 1;
            self.tail_reports.extend(
                self.reports
                    .iter()
                    .filter(|r| r.offset == last_off)
                    .copied(),
            );
        }

        // Roll the tail window forward for the next feed.
        self.stream_offset = total;
        if self.keep > 0 {
            if chunk.len() >= self.keep {
                self.tail.clear();
                self.tail
                    .extend_from_slice(&chunk[chunk.len() - self.keep..]);
            } else {
                let excess = (self.tail.len() + chunk.len()).saturating_sub(self.keep);
                self.tail.drain(..excess);
                self.tail.extend_from_slice(chunk);
            }
        }
    }
}

impl Engine for PrefilterEngine {
    fn scan(&mut self, input: &[u8], sink: &mut dyn ReportSink) {
        self.reset_stream();
        self.feed(input, true, sink);
    }

    fn name(&self) -> &'static str {
        "prefilter"
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::sink::CollectSink;
    use azoo_core::{CounterMode, StartKind, SymbolClass};

    fn word(a: &mut Automaton, w: &[u8], code: u32) {
        let classes: Vec<SymbolClass> = w.iter().map(|&b| SymbolClass::from_byte(b)).collect();
        let (_, last) = a.add_chain(&classes, StartKind::AllInput);
        a.set_report(last, code);
    }

    fn nfa_reports(a: &Automaton, input: &[u8]) -> Vec<Report> {
        let mut sink = CollectSink::new();
        NfaEngine::new(a).unwrap().scan(input, &mut sink);
        sink.sorted_reports()
    }

    #[test]
    fn matches_nfa_on_literal_suite() {
        let mut a = Automaton::new();
        word(&mut a, b"admin", 0);
        word(&mut a, b"root", 1);
        word(&mut a, b"min", 2); // suffix of another literal
        let mut input = b"the admin went root-level; adminmin".to_vec();
        input.extend_from_slice(&[0u8; 64]);
        let mut engine = PrefilterEngine::new(&a).unwrap();
        assert_eq!(engine.component_count(), 3);
        assert!(!engine.has_fallback());
        assert_eq!(engine.coverage(), 1.0);
        let mut sink = CollectSink::new();
        engine.scan(&input, &mut sink);
        assert_eq!(sink.reports(), nfa_reports(&a, &input));
    }

    #[test]
    fn fallback_components_still_report() {
        let mut a = Automaton::new();
        word(&mut a, b"lit", 0);
        // Cyclic component: rejected by the analysis, fully simulated.
        let s = a.add_ste(SymbolClass::from_byte(b'x'), StartKind::AllInput);
        let l = a.add_ste(SymbolClass::from_byte(b'y'), StartKind::None);
        a.add_edge(s, l);
        a.add_edge(l, l);
        a.set_report(l, 1);
        let mut engine = PrefilterEngine::new(&a).unwrap();
        assert_eq!(engine.component_count(), 1);
        assert!(engine.has_fallback());
        let input = b"xyyy lit xyy lit";
        let mut sink = CollectSink::new();
        engine.scan(input, &mut sink);
        assert_eq!(sink.reports(), nfa_reports(&a, input));
    }

    #[test]
    fn shared_codes_across_components_dedupe() {
        // Two gated components share a report code and both end at
        // offset 4; the canonical stream holds one report there, like
        // the NFA's per-cycle code dedup.
        let mut a = Automaton::new();
        word(&mut a, b"xab", 7);
        word(&mut a, b"ab", 7);
        let mut engine = PrefilterEngine::new(&a).unwrap();
        assert_eq!(engine.component_count(), 2);
        assert_eq!(engine.exact_component_count(), 2);
        assert!(!engine.has_fallback());
        let input = b"..xab..ab";
        let mut sink = CollectSink::new();
        engine.scan(input, &mut sink);
        let at = |offset| Report {
            offset,
            code: azoo_core::ReportCode(7),
        };
        assert_eq!(sink.reports(), [at(4), at(8)]);
        assert_eq!(sink.reports(), nfa_reports(&a, input));
    }

    #[test]
    fn streaming_splits_literals_across_chunks() {
        let mut a = Automaton::new();
        word(&mut a, b"boundary", 0);
        word(&mut a, b"dar", 1);
        let input = b"....boundary....boundary..";
        let expect = nfa_reports(&a, input);
        for cut in 0..=input.len() {
            let mut engine = PrefilterEngine::new(&a).unwrap();
            let mut sink = CollectSink::new();
            engine.scan_chunks([&input[..cut], &input[cut..]], &mut sink);
            assert_eq!(sink.sorted_reports(), expect, "cut {cut}");
        }
    }

    #[test]
    fn overlapping_hits_do_not_duplicate() {
        let mut a = Automaton::new();
        word(&mut a, b"aa", 0);
        let input = b"aaaaaaaa";
        let mut engine = PrefilterEngine::new(&a).unwrap();
        let mut sink = CollectSink::new();
        engine.scan(input, &mut sink);
        assert_eq!(sink.reports(), nfa_reports(&a, input));
    }

    #[test]
    fn counters_go_to_fallback_and_match() {
        let mut a = Automaton::new();
        word(&mut a, b"word", 0);
        let s = a.add_ste(SymbolClass::from_byte(b'k'), StartKind::AllInput);
        let c = a.add_counter(2, CounterMode::Latch);
        let t = a.add_ste(SymbolClass::from_byte(b'z'), StartKind::None);
        a.add_edge(s, c);
        a.add_edge(c, t);
        a.set_report(t, 1);
        let mut engine = PrefilterEngine::new(&a).unwrap();
        assert!(engine.has_fallback());
        let input = b"kk..z word z";
        let mut sink = CollectSink::new();
        engine.scan(input, &mut sink);
        assert_eq!(sink.reports(), nfa_reports(&a, input));
    }

    #[test]
    fn eod_anchored_fallback_and_empty_automaton() {
        let mut a = Automaton::new();
        let s = a.add_ste(SymbolClass::from_byte(b'z'), StartKind::AllInput);
        a.set_report(s, 0);
        a.set_report_eod_only(s, true);
        let mut engine = PrefilterEngine::new(&a).unwrap();
        let input = b"zzz";
        let mut sink = CollectSink::new();
        engine.scan(input, &mut sink);
        assert_eq!(sink.reports(), nfa_reports(&a, input));

        let empty = Automaton::new();
        let mut e = PrefilterEngine::new(&empty).unwrap();
        let mut s = CollectSink::new();
        e.scan(b"anything", &mut s);
        assert!(s.reports().is_empty());
        assert_eq!(e.coverage(), 1.0);
    }

    #[test]
    fn engines_are_reusable_across_scans() {
        let mut a = Automaton::new();
        word(&mut a, b"hit", 0);
        let mut engine = PrefilterEngine::new(&a).unwrap();
        for _ in 0..3 {
            let mut sink = CollectSink::new();
            engine.scan(b"a hit and a hit", &mut sink);
            assert_eq!(sink.reports().len(), 2);
        }
    }

    #[test]
    fn clones_share_components_and_stream_independently() {
        // `words?keys`: the gap splits it into two factors, so hits are
        // simulated by the component's engine rather than reported
        // straight from the trigger, and a span reaches past its hit.
        let mut a = Automaton::new();
        let classes: Vec<SymbolClass> = b"words?keys"
            .iter()
            .map(|&b| match b {
                b'?' => SymbolClass::FULL,
                _ => SymbolClass::from_byte(b),
            })
            .collect();
        let (_, last) = a.add_chain(&classes, StartKind::AllInput);
        a.set_report(last, 0);
        word(&mut a, b"lone", 1);
        let input = b"..words-keys..words";
        let rest = b"+keys lone words!keys";
        let mut whole = input.to_vec();
        whole.extend_from_slice(rest);
        let expect = nfa_reports(&a, &whole);

        let proto = PrefilterEngine::new(&a).unwrap();
        assert_eq!(proto.exact_component_count(), 1);
        let mut engine = proto.clone();
        assert!(engine.runs.iter().all(|r| r.engine.is_none()));
        let mut sink = CollectSink::new();
        engine.feed(input, false, &mut sink);
        assert!(Arc::ptr_eq(&engine.components, &proto.components));
        assert!(engine.runs.iter().any(|r| r.open_until > 0));

        // A clone taken mid-stream (its gated span still open) finishes
        // the stream exactly like the original.
        let mut fork = engine.clone();
        let mut fork_sink = sink.clone();
        engine.feed(rest, true, &mut sink);
        fork.feed(rest, true, &mut fork_sink);
        assert_eq!(sink.sorted_reports(), expect);
        assert_eq!(fork_sink.sorted_reports(), expect);

        // Reset, both rerun from scratch; the untouched prototype too.
        for e in [&mut engine, &mut fork, &mut proto.clone()] {
            let mut s = CollectSink::new();
            e.scan(&whole, &mut s);
            assert_eq!(s.sorted_reports(), expect);
            e.reset_stream();
            assert!(e.stream_quiesced());
        }
    }
}
