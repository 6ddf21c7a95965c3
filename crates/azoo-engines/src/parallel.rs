//! Multi-threaded scanning with a deterministic report merge.
//!
//! AutomataZoo's benchmarks expose two independent axes of parallelism,
//! and [`ParallelScanner`] exploits both:
//!
//! 1. **Automaton sharding.** Weakly connected components never interact,
//!    so the automaton is split into shards (via the same
//!    first-fit-decreasing packing as [`azoo_passes::partition`]) and each
//!    shard scans the input independently.
//! 2. **Input chunking.** A component that is counter-free, unanchored
//!    (no `StartOfData` elements) and acyclic from its starts matches at
//!    most its `window` symbols per report (the per-component record of
//!    `azoo_core::stats::component_profiles`), so a shard of such
//!    components can be cut into chunks that different workers scan
//!    concurrently with the largest of their windows. Each
//!    worker re-scans a bounded *overlap window* before its chunk to
//!    catch matches that span the boundary, and discards reports it does
//!    not own. Components with counters, reachable cycles, or
//!    start-of-data anchors — where no finite overlap window exists —
//!    are split into a shard of their own that scans the whole input on
//!    one worker, so the easy components packed beside them keep
//!    chunking.
//!
//! Workers drain a shared job queue, batch their reports locally, and
//! append each batch once into a shared rank-ordered merge accumulator
//! ([`azoo_sync::OrderedMutex`], rank `ENGINE_MERGE`); the merged stream
//! is sorted by `(offset, code)` and deduplicated, so the output is
//! **byte-identical to a single [`NfaEngine`] scan** and independent of
//! thread scheduling — the property the differential tests pin down.

use std::sync::atomic::{AtomicUsize, Ordering};

use azoo_core::stats::component_profiles;
use azoo_core::Automaton;
use azoo_passes::partition;
use azoo_sync::{ranks, OrderedMutex};

use crate::nfa::NfaEngine;
use crate::prefilter::PrefilterEngine;
use crate::sink::{Report, ReportSink};
use crate::stream::StreamingEngine;
use crate::{prefilter_gate, Engine, EngineError};

/// A shard's executor: literal-gated windowed simulation when the
/// shard's components carry required literals (opted in via
/// [`ParallelScanner::with_prefilter`]), plain sparse simulation
/// otherwise.
#[derive(Debug, Clone)]
enum ShardEngine {
    Nfa(Box<NfaEngine>),
    Prefilter(Box<PrefilterEngine>),
}

impl ShardEngine {
    fn scan(&mut self, input: &[u8], sink: &mut dyn ReportSink) {
        match self {
            ShardEngine::Nfa(e) => e.scan(input, sink),
            ShardEngine::Prefilter(e) => e.scan(input, sink),
        }
    }

    fn reset_stream(&mut self) {
        match self {
            ShardEngine::Nfa(e) => e.reset_stream(),
            ShardEngine::Prefilter(e) => e.reset_stream(),
        }
    }

    fn feed(&mut self, chunk: &[u8], eod: bool, sink: &mut dyn ReportSink) {
        match self {
            ShardEngine::Nfa(e) => e.feed(chunk, eod, sink),
            ShardEngine::Prefilter(e) => e.feed(chunk, eod, sink),
        }
    }

    fn stream_quiesced(&self) -> bool {
        match self {
            ShardEngine::Nfa(e) => e.stream_quiesced(),
            ShardEngine::Prefilter(e) => e.stream_quiesced(),
        }
    }
}

/// One automaton shard plus its chunking capability.
#[derive(Debug, Clone)]
struct Shard {
    /// Prototype engine; cloned per job during `scan`, fed in place
    /// during streaming.
    engine: ShardEngine,
    /// `Some(w)` means input-chunkable with a `w`-symbol overlap; `None`
    /// means the shard must scan the input sequentially (components with
    /// counters, reachable cycles or `StartOfData` anchors).
    window: Option<usize>,
}

/// A unit of work: one shard over one input range.
#[derive(Debug, Clone, Copy)]
struct Job {
    shard: usize,
    /// Input range this job owns reports for.
    start: usize,
    end: usize,
    /// `Some(w)`: overlap-window chunk job. `None`: scan `start..end`
    /// (always the whole input) as a complete input.
    window: Option<usize>,
}

/// Scans with a pool of worker threads, merging shard and chunk report
/// streams into the canonical `(offset, code)`-sorted order.
///
/// # Example
///
/// ```
/// use azoo_core::{Automaton, StartKind, SymbolClass};
/// use azoo_engines::{CollectSink, Engine, ParallelScanner};
///
/// let mut a = Automaton::new();
/// for (code, word) in [&b"cat"[..], &b"dog"[..]].iter().enumerate() {
///     let classes: Vec<SymbolClass> =
///         word.iter().map(|&b| SymbolClass::from_byte(b)).collect();
///     let (_, last) = a.add_chain(&classes, StartKind::AllInput);
///     a.set_report(last, code as u32);
/// }
/// let mut engine = ParallelScanner::new(&a, 4)?;
/// let mut sink = CollectSink::new();
/// engine.scan(b"catdogcat", &mut sink);
/// let offsets: Vec<u64> = sink.reports().iter().map(|r| r.offset).collect();
/// assert_eq!(offsets, vec![2, 5, 8]);
/// # Ok::<(), azoo_engines::EngineError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ParallelScanner {
    shards: Vec<Shard>,
    threads: usize,
    /// Cumulative stream position across `feed` calls.
    stream_offset: u64,
    /// Merged reports at the final offset of the last non-empty feed:
    /// an empty end-of-data feed's flush is filtered against these so a
    /// candidate one shard held back is not re-emitted when another
    /// shard already reported the same `(offset, code)` unconditionally.
    tail: Vec<(u64, u32)>,
}

impl ParallelScanner {
    /// Compiles `a` for scanning with `threads` workers.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidThreads`] if `threads` is zero, and
    /// [`EngineError::Invalid`] if `a` fails [`Automaton::validate`].
    pub fn new(a: &Automaton, threads: usize) -> Result<Self, EngineError> {
        Self::with_prefilter(a, threads, false)
    }

    /// Like [`new`](Self::new), but with `prefilter` true each shard
    /// whose components mostly carry required literals runs behind a
    /// [`PrefilterEngine`] instead of a plain [`NfaEngine`] (admitted by
    /// [`prefilter_gate`], as in
    /// [`select_session_engine`](crate::select_session_engine)).
    /// The merged stream is unchanged either way.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidThreads`] if `threads` is zero, and
    /// [`EngineError::Invalid`] if `a` fails [`Automaton::validate`].
    pub fn with_prefilter(
        a: &Automaton,
        threads: usize,
        prefilter: bool,
    ) -> Result<Self, EngineError> {
        if threads == 0 {
            return Err(EngineError::InvalidThreads);
        }
        a.validate()?;
        // Pack components into about `threads` shards; a component can
        // never be split, so the capacity is at least the largest one.
        let max_component = component_profiles(a)
            .profiles
            .iter()
            .map(|c| c.states)
            .max()
            .unwrap_or(0);
        let capacity = a.state_count().div_ceil(threads).max(max_component).max(1);
        let parts = partition(a, capacity).expect("capacity covers the largest component");
        let mut shards = Vec::new();
        // A shard whose components have no start state can never
        // activate anything — drop it rather than fail its (per-shard)
        // validation. The whole automaton validated above, so at least
        // one shard survives.
        for p in parts.iter().filter(|p| !p.start_states().is_empty()) {
            // A component is hard — no finite overlap window — when it
            // holds a counter (its state depends on the whole prefix), a
            // start-of-data anchor (chunk workers start mid-stream) or a
            // reachable cycle (unbounded match span).
            let comps = component_profiles(p);
            let hard: Vec<bool> = comps
                .profiles
                .iter()
                .map(|c| c.has_counter || c.has_start_of_data || c.window.is_none())
                .collect();
            // The easy components' longest match span; every shard here
            // has a start, so an all-easy shard's window is at least 1.
            let window = comps
                .profiles
                .iter()
                .zip(&hard)
                .filter_map(|(c, &h)| if h { None } else { c.window })
                .max();
            if !hard.contains(&true) {
                shards.push(Shard {
                    engine: build_shard_engine(p, prefilter)?,
                    window,
                });
                continue;
            }
            // Hard shard: split its easy components, which keep the
            // bounded-overlap path, from the rest, which scan the whole
            // input sequentially.
            for is_hard in [false, true] {
                let sub = p.retain_states(|id| hard[comps.labels[id.index()]] == is_hard);
                if sub.start_states().is_empty() {
                    continue;
                }
                shards.push(Shard {
                    engine: build_shard_engine(&sub, prefilter)?,
                    window: if is_hard { None } else { window },
                });
            }
        }
        Ok(ParallelScanner {
            shards,
            threads,
            stream_offset: 0,
            tail: Vec::new(),
        })
    }

    /// Worker thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of automaton shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of shards eligible for bounded-overlap input chunking.
    pub fn chunkable_shard_count(&self) -> usize {
        self.shards.iter().filter(|s| s.window.is_some()).count()
    }

    // Shim for the frozen azoo-perf/src/layers.rs:910, its only non-test caller.
    #[doc(hidden)]
    pub fn speculative_shard_count(&self) -> usize {
        0
    }

    /// Number of shards pinned to a sequential whole-input scan
    /// (components with counters, reachable cycles or `StartOfData`
    /// anchors).
    pub fn whole_input_shard_count(&self) -> usize {
        self.shards.iter().filter(|s| s.window.is_none()).count()
    }

    /// Scans `input` and returns the merged, `(offset, code)`-sorted,
    /// deduplicated report stream.
    fn scan_merged(&self, input: &[u8]) -> Vec<Report> {
        let len = input.len();
        let mut jobs = Vec::new();
        for (si, shard) in self.shards.iter().enumerate() {
            match shard.window {
                // Chunking pays off only with input to split and more
                // than one worker.
                Some(_) if self.threads > 1 && len > 0 => {
                    let k = self.threads.min(len);
                    for c in 0..k {
                        jobs.push(Job {
                            shard: si,
                            start: len * c / k,
                            end: len * (c + 1) / k,
                            window: shard.window,
                        });
                    }
                }
                _ => jobs.push(Job {
                    shard: si,
                    start: 0,
                    end: len,
                    window: None,
                }),
            }
        }
        let workers = self.threads.min(jobs.len());
        let mut merged = if workers <= 1 {
            // Run inline: the single-thread baseline should not pay a
            // spawn/join round trip.
            let mut worker = Worker::new(&self.shards);
            let mut out = Vec::new();
            for job in &jobs {
                worker.run_job(*job, input, &mut out);
            }
            out
        } else {
            let queue = AtomicUsize::new(0);
            // Workers batch reports locally and take the shared merge
            // lock (rank ENGINE_MERGE) exactly once, after their last
            // job — one contended acquisition per worker, not per report.
            let merge_acc = OrderedMutex::new(ranks::ENGINE_MERGE, Vec::new());
            let (queue, jobs, shards) = (&queue, &jobs[..], &self.shards[..]);
            let merge = &merge_acc;
            crossbeam::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(move |_| {
                        let mut worker = Worker::new(shards);
                        let mut out = Vec::new();
                        loop {
                            let j = queue.fetch_add(1, Ordering::Relaxed);
                            let Some(job) = jobs.get(j) else { break };
                            worker.run_job(*job, input, &mut out);
                        }
                        merge.lock().append(&mut out);
                    });
                }
            })
            .expect("scan worker panicked");
            merge_acc.into_inner()
        };
        // Canonical order. Distinct shards may report the same code at
        // the same offset; a single engine deduplicates those per cycle,
        // so the merge must too.
        merged.sort_unstable();
        merged.dedup();
        merged
    }

    /// One streaming feed, returning the merged sorted stream for this
    /// chunk. Parallel across shards only: each engine carries mutable
    /// stream state.
    fn feed_merged(&mut self, chunk: &[u8], eod: bool) -> Vec<Report> {
        let workers = self.threads.min(self.shards.len());
        let mut merged: Vec<Report> = if workers <= 1 || chunk.is_empty() {
            let mut out = Vec::new();
            for shard in &mut self.shards {
                shard.engine.feed(chunk, eod, &mut VecSink(&mut out));
            }
            out
        } else {
            let per_worker = self.shards.len().div_ceil(workers);
            let merge_acc = OrderedMutex::new(ranks::ENGINE_MERGE, Vec::new());
            let merge = &merge_acc;
            crossbeam::thread::scope(|scope| {
                for group in self.shards.chunks_mut(per_worker) {
                    scope.spawn(move |_| {
                        let mut out = Vec::new();
                        for shard in group {
                            shard.engine.feed(chunk, eod, &mut VecSink(&mut out));
                        }
                        merge.lock().append(&mut out);
                    });
                }
            })
            .expect("feed worker panicked");
            merge_acc.into_inner()
        };
        merged.sort_unstable();
        merged.dedup();
        if chunk.is_empty() {
            if eod {
                // The held-back candidates resolve at the last symbol of
                // the previous feed; drop any a shard already reported
                // there unconditionally.
                let tail = &self.tail;
                merged.retain(|r| !tail.contains(&(r.offset, r.code.0)));
            }
            return merged;
        }
        self.stream_offset += chunk.len() as u64;
        let end = self.stream_offset;
        self.tail = merged
            .iter()
            .filter(|r| r.offset + 1 == end)
            .map(|r| (r.offset, r.code.0))
            .collect();
        merged
    }
}

fn build_shard_engine(p: &Automaton, prefilter: bool) -> Result<ShardEngine, EngineError> {
    if prefilter {
        let pf = PrefilterEngine::new(p)?;
        if pf.coverage() >= prefilter_gate(&pf) {
            return Ok(ShardEngine::Prefilter(Box::new(pf)));
        }
    }
    Ok(ShardEngine::Nfa(Box::new(NfaEngine::new(p)?)))
}

/// Per-thread job executor. Keeps one engine clone per shard so a worker
/// that draws several chunks of the same shard allocates it only once
/// (both `scan` and `reset_stream`/`feed` restart from initial state, so
/// reuse across jobs is sound).
struct Worker<'a> {
    shards: &'a [Shard],
    engines: Vec<Option<ShardEngine>>,
}

impl<'a> Worker<'a> {
    fn new(shards: &'a [Shard]) -> Self {
        Worker {
            shards,
            engines: vec![None; shards.len()],
        }
    }

    /// Executes one job, appending the reports it owns (absolute
    /// offsets) to `out`.
    fn run_job(&mut self, job: Job, input: &[u8], out: &mut Vec<Report>) {
        let engine =
            self.engines[job.shard].get_or_insert_with(|| self.shards[job.shard].engine.clone());
        let Some(window) = job.window else {
            engine.scan(input, &mut VecSink(out));
            return;
        };
        // Re-scan up to `window - 1` bytes before the chunk so matches
        // spanning the boundary are seen, then keep only the reports
        // this chunk owns.
        let slice_start = job.start.saturating_sub(window - 1);
        let eod = job.end == input.len();
        let mut sink = RebaseSink {
            base: slice_start as u64,
            min: job.start as u64,
            out,
        };
        engine.reset_stream();
        engine.feed(&input[slice_start..job.end], eod, &mut sink);
    }
}

/// Appends reports verbatim.
struct VecSink<'a>(&'a mut Vec<Report>);

impl ReportSink for VecSink<'_> {
    fn report(&mut self, offset: u64, code: azoo_core::ReportCode) {
        self.0.push(Report { offset, code });
    }
}

/// Rebases slice-relative offsets to absolute ones and drops reports
/// below the chunk's owned range.
struct RebaseSink<'a> {
    base: u64,
    min: u64,
    out: &'a mut Vec<Report>,
}

impl ReportSink for RebaseSink<'_> {
    fn report(&mut self, offset: u64, code: azoo_core::ReportCode) {
        let offset = offset + self.base;
        if offset >= self.min {
            self.out.push(Report { offset, code });
        }
    }
}

impl Engine for ParallelScanner {
    fn scan(&mut self, input: &[u8], sink: &mut dyn ReportSink) {
        for r in self.scan_merged(input) {
            sink.report(r.offset, r.code);
        }
    }

    fn name(&self) -> &'static str {
        "parallel"
    }
}

impl StreamingEngine for ParallelScanner {
    fn reset_stream(&mut self) {
        for s in &mut self.shards {
            s.engine.reset_stream();
        }
        self.stream_offset = 0;
        self.tail.clear();
    }

    fn stream_quiesced(&self) -> bool {
        self.stream_offset == 0
            && self.tail.is_empty()
            && self.shards.iter().all(|s| s.engine.stream_quiesced())
    }

    /// Streaming parallelizes across shards only (each engine carries
    /// state between `feed` calls).
    fn feed(&mut self, chunk: &[u8], eod: bool, sink: &mut dyn ReportSink) {
        for r in self.feed_merged(chunk, eod) {
            sink.report(r.offset, r.code);
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::sink::CollectSink;
    use azoo_core::{CounterMode, StartKind, SymbolClass};

    fn words(list: &[&[u8]]) -> Automaton {
        let mut a = Automaton::new();
        for (code, word) in list.iter().enumerate() {
            let classes: Vec<SymbolClass> =
                word.iter().map(|&b| SymbolClass::from_byte(b)).collect();
            let (_, last) = a.add_chain(&classes, StartKind::AllInput);
            a.set_report(last, code as u32);
        }
        a
    }

    fn nfa_reports(a: &Automaton, input: &[u8]) -> Vec<Report> {
        let mut sink = CollectSink::new();
        NfaEngine::new(a).unwrap().scan(input, &mut sink);
        sink.sorted_reports()
    }

    fn parallel_reports(a: &Automaton, threads: usize, input: &[u8]) -> Vec<Report> {
        let mut sink = CollectSink::new();
        ParallelScanner::new(a, threads)
            .unwrap()
            .scan(input, &mut sink);
        sink.reports().to_vec()
    }

    fn prefiltered_shards(scanner: &ParallelScanner) -> usize {
        let is_pf = |s: &&Shard| matches!(s.engine, ShardEngine::Prefilter(_));
        scanner.shards.iter().filter(is_pf).count()
    }

    #[test]
    fn matches_nfa_on_multi_component_words() {
        let a = words(&[b"cat", b"dog", b"catalog", b"og"]);
        let input = b"the catalog lists a dog and a catdog";
        let expected = nfa_reports(&a, input);
        assert!(!expected.is_empty());
        for threads in [1, 2, 4, 8] {
            assert_eq!(
                parallel_reports(&a, threads, input),
                expected,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn output_is_already_sorted_and_deduped() {
        // Two shards reporting the same code at the same offsets: a
        // single engine dedups per cycle, so the merge must as well.
        let mut a = words(&[b"aa"]);
        let other = words(&[b"aa"]);
        a.append(&other);
        // Both chains share code 0 now.
        let input = b"aaaa";
        for threads in [1, 2, 4] {
            let got = parallel_reports(&a, threads, input);
            assert_eq!(got, nfa_reports(&a, input), "{threads} threads");
            let mut sorted = got.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(got, sorted);
        }
    }

    #[test]
    fn terminal_counters_scan_whole_input() {
        // k at least 3 times (latched counter): the count depends on the
        // whole prefix, so the shard is one sequential job.
        let mut a = Automaton::new();
        let s = a.add_ste(SymbolClass::from_byte(b'k'), StartKind::AllInput);
        let c = a.add_counter(3, CounterMode::Latch);
        a.add_edge(s, c);
        a.set_report(c, 9);
        let scanner = ParallelScanner::new(&a, 4).unwrap();
        assert_eq!(scanner.chunkable_shard_count(), 0);
        assert_eq!(scanner.whole_input_shard_count(), 1);
        let input = b"kkxkkkxk";
        for threads in [1, 2, 4] {
            assert_eq!(parallel_reports(&a, threads, input), nfa_reports(&a, input));
        }
    }

    #[test]
    fn non_terminal_counters_scan_whole_input() {
        // The counter drives a successor: same sequential path.
        let mut a = Automaton::new();
        let s = a.add_ste(SymbolClass::from_byte(b'k'), StartKind::AllInput);
        let c = a.add_counter(2, CounterMode::Latch);
        a.add_edge(s, c);
        let y = a.add_ste(SymbolClass::from_byte(b'y'), StartKind::None);
        a.add_edge(c, y);
        a.set_report(y, 5);
        let scanner = ParallelScanner::new(&a, 4).unwrap();
        assert_eq!(scanner.chunkable_shard_count(), 0);
        assert_eq!(scanner.whole_input_shard_count(), 1);
        let input = b"kkyky";
        for threads in [1, 2, 4] {
            assert_eq!(parallel_reports(&a, threads, input), nfa_reports(&a, input));
        }
    }

    #[test]
    fn mixed_shard_splits_into_chunkable_and_whole_input() {
        // Two counter components plus an easy word packed into one
        // shard: the shard splits, the hard components share one
        // whole-input job and the word keeps its overlap window.
        let mut a = words(&[b"my"]);
        let s = a.add_ste(SymbolClass::from_byte(b'k'), StartKind::AllInput);
        let c = a.add_counter(3, CounterMode::Latch);
        a.add_edge(s, c);
        a.set_report(c, 9);
        let s2 = a.add_ste(SymbolClass::from_byte(b'm'), StartKind::AllInput);
        let c2 = a.add_counter(2, CounterMode::Latch);
        a.add_edge(s2, c2);
        let y = a.add_ste(SymbolClass::from_byte(b'y'), StartKind::None);
        a.add_edge(c2, y);
        a.set_report(y, 5);
        let scanner = ParallelScanner::new(&a, 1).unwrap();
        assert_eq!(scanner.shard_count(), 2);
        assert_eq!(scanner.chunkable_shard_count(), 1);
        assert_eq!(scanner.whole_input_shard_count(), 1);
        let input = b"kkmkymmyk";
        for threads in [1, 2, 4] {
            assert_eq!(parallel_reports(&a, threads, input), nfa_reports(&a, input));
        }
    }

    #[test]
    fn cycles_scan_whole_input() {
        // a(b)*c — unbounded match span, no finite overlap window.
        let mut a = Automaton::new();
        let s = a.add_ste(SymbolClass::from_byte(b'a'), StartKind::AllInput);
        let loop_ = a.add_ste(SymbolClass::from_byte(b'b'), StartKind::None);
        let end = a.add_ste(SymbolClass::from_byte(b'c'), StartKind::None);
        a.add_edge(s, loop_);
        a.add_edge(loop_, loop_);
        a.add_edge(s, end);
        a.add_edge(loop_, end);
        a.set_report(end, 0);
        let scanner = ParallelScanner::new(&a, 4).unwrap();
        assert_eq!(scanner.chunkable_shard_count(), 0);
        assert_eq!(scanner.whole_input_shard_count(), 1);
        let input = b"abbbbbbbbbbcxac";
        for threads in [1, 2, 4, 8] {
            assert_eq!(parallel_reports(&a, threads, input), nfa_reports(&a, input));
        }
    }

    #[test]
    fn start_of_data_scans_whole_input() {
        let mut a = Automaton::new();
        let (_, last) = a.add_chain(
            &[SymbolClass::from_byte(b'q'), SymbolClass::from_byte(b'r')],
            StartKind::StartOfData,
        );
        a.set_report(last, 0);
        let scanner = ParallelScanner::new(&a, 4).unwrap();
        assert_eq!(scanner.chunkable_shard_count(), 0);
        assert_eq!(scanner.whole_input_shard_count(), 1);
        // Must match only at offset 1, never at the later "qr".
        let input = b"qrxqr";
        for threads in [1, 2, 4] {
            let got = parallel_reports(&a, threads, input);
            assert_eq!(got.len(), 1);
            assert_eq!(got[0].offset, 1);
        }
    }

    #[test]
    fn eod_anchored_reports_only_fire_at_end() {
        let mut a = words(&[b"ab"]);
        let z = a.add_ste(SymbolClass::from_byte(b'z'), StartKind::AllInput);
        a.set_report(z, 7);
        a.set_report_eod_only(z, true);
        let input = b"zabzzzabz";
        for threads in [1, 2, 4, 8] {
            assert_eq!(parallel_reports(&a, threads, input), nfa_reports(&a, input));
        }
    }

    #[test]
    fn streaming_matches_whole_scan() {
        let a = words(&[b"abc", b"cab"]);
        let input = b"xabcabcabx";
        let mut scanner = ParallelScanner::new(&a, 4).unwrap();
        let whole = nfa_reports(&a, input);
        for cut in 0..=input.len() {
            let mut sink = CollectSink::new();
            scanner.scan_chunks([&input[..cut], &input[cut..]], &mut sink);
            assert_eq!(sink.reports().to_vec(), whole, "cut {cut}");
        }
    }

    #[test]
    fn streaming_hard_shards_match_whole_scan() {
        // Counter + cycle + anchor all in one automaton; every cut point
        // must produce the whole-scan stream.
        let mut a = Automaton::new();
        let s = a.add_ste(SymbolClass::from_byte(b'k'), StartKind::AllInput);
        let c = a.add_counter(3, CounterMode::Latch);
        a.add_edge(s, c);
        a.set_report(c, 9);
        let s0 = a.add_ste(SymbolClass::from_byte(b'a'), StartKind::AllInput);
        let s1 = a.add_ste(SymbolClass::from_byte(b'b'), StartKind::None);
        a.add_edge(s0, s1);
        a.add_edge(s1, s1);
        a.set_report(s1, 4);
        let (_, qlast) = a.add_chain(
            &[SymbolClass::from_byte(b'q'), SymbolClass::from_byte(b'r')],
            StartKind::StartOfData,
        );
        a.set_report(qlast, 2);
        let input = b"qrkabbkxkkabqrkk";
        let whole = nfa_reports(&a, input);
        assert!(!whole.is_empty());
        for threads in [1, 2, 4] {
            let mut scanner = ParallelScanner::new(&a, threads).unwrap();
            for cut in 0..=input.len() {
                let mut sink = CollectSink::new();
                scanner.scan_chunks([&input[..cut], &input[cut..]], &mut sink);
                assert_eq!(sink.sorted_reports(), whole, "{threads} threads cut {cut}");
            }
        }
    }

    #[test]
    fn scan_is_reusable() {
        let a = words(&[b"xy"]);
        let mut scanner = ParallelScanner::new(&a, 2).unwrap();
        for _ in 0..3 {
            let mut sink = CollectSink::new();
            scanner.scan(b"xyxy", &mut sink);
            assert_eq!(sink.reports().len(), 2);
        }
    }

    #[test]
    fn startless_components_are_skipped_not_fatal() {
        // A component with no start state can never activate; a single
        // NfaEngine tolerates it because the whole automaton still has
        // starts, and the scanner must too even when partitioning
        // isolates it into its own shard.
        let mut a = words(&[b"ab"]);
        let x = a.add_ste(SymbolClass::from_byte(b'x'), StartKind::None);
        let y = a.add_ste(SymbolClass::from_byte(b'y'), StartKind::None);
        a.add_edge(x, y);
        a.set_report(y, 5);
        for threads in [1, 2, 4] {
            let scanner = ParallelScanner::new(&a, threads).unwrap();
            assert!(scanner.shard_count() >= 1);
            assert_eq!(
                parallel_reports(&a, threads, b"abxyab"),
                nfa_reports(&a, b"abxyab")
            );
        }
    }

    #[test]
    fn prefiltered_shards_match_plain_shards() {
        // Literal words plus one cyclic component: shards whose words
        // carry most of their states run behind the prefilter, the rest
        // on the plain NFA, and the merged stream is unchanged either way.
        let mut a = words(&[
            b"cat",
            b"dog",
            b"catalog",
            b"og",
            b"internationalization",
            b"electroencephalogram",
        ]);
        let s = a.add_ste(SymbolClass::from_byte(b'x'), StartKind::AllInput);
        let l = a.add_ste(SymbolClass::from_byte(b'y'), StartKind::None);
        a.add_edge(s, l);
        a.add_edge(l, l);
        a.set_report(l, 9);
        let input = b"the catalog lists a dog xyy and a catdog";
        let expected = nfa_reports(&a, input);
        for threads in [1, 2, 4] {
            let mut scanner = ParallelScanner::with_prefilter(&a, threads, true).unwrap();
            assert!(prefiltered_shards(&scanner) >= 1);
            let mut sink = CollectSink::new();
            scanner.scan(input, &mut sink);
            assert_eq!(sink.reports().to_vec(), expected, "{threads} threads");
            // Streaming path too.
            let mut sink = CollectSink::new();
            scanner.scan_chunks([&input[..7], &input[7..30], &input[30..]], &mut sink);
            assert_eq!(
                sink.sorted_reports(),
                expected,
                "{threads} threads streamed"
            );
        }
        let plain = ParallelScanner::new(&a, 4).unwrap();
        assert_eq!(prefiltered_shards(&plain), 0);
    }

    #[test]
    fn zero_threads_is_a_typed_error() {
        let a = words(&[b"a"]);
        assert_eq!(
            ParallelScanner::new(&a, 0).err(),
            Some(EngineError::InvalidThreads)
        );
        assert_eq!(
            ParallelScanner::with_prefilter(&a, 0, true).err(),
            Some(EngineError::InvalidThreads)
        );
    }

    #[test]
    fn invalid_automaton_errors() {
        let mut a = Automaton::new();
        a.add_ste(SymbolClass::EMPTY, StartKind::AllInput);
        assert!(ParallelScanner::new(&a, 2).is_err());
    }
}
