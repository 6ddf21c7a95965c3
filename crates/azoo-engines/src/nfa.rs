//! The VASim-equivalent sparse active-set NFA engine.

use azoo_core::{Automaton, CounterMode, SymbolClass};

use azoo_simd::ByteFinder;

use crate::lower::{Lowered, PORT_BIT};
use crate::profile::Profile;
use crate::sink::ReportSink;
use crate::stream::StreamingEngine;
use crate::{Engine, EngineError};

// Non-reporting states are marked in `code_idx` (u32::MAX there is safe:
// the dense index is bounded by the distinct-code count). The raw report
// code must NOT double as a sentinel — u32::MAX is a legal code.
const NO_CODE_IDX: u32 = u32::MAX;

/// Sparse active-set simulator for homogeneous automata with counters.
///
/// This engine mirrors VASim's execution model: it tracks the set of
/// dynamically enabled states, tests each against the input symbol, and
/// propagates activations. Work per symbol is proportional to the active
/// set, which is why AutomataZoo reports active set as the CPU performance
/// proxy.
///
/// Always-enabled (`AllInput`) start states are handled via a precomputed
/// per-byte match list, and — following the VASim convention — are *not*
/// counted in the [`Profile`]'s active set.
///
/// When the dynamic active set is empty and no counter is latched, a
/// symbol can only matter if it wakes an `AllInput` start state, so the
/// engine jumps straight to the next byte in the precomputed *wake-up
/// set* via [`azoo_simd::ByteFinder`] (vector `memchr` for up to three
/// wake bytes, a Truffle classifier for larger sets, with scalar twins
/// when SIMD is unavailable). The skip is exact — skipped symbols match nothing, report
/// nothing and change no counter — and it carries across streaming
/// `feed` chunks, since quiescence is engine state, not scan state.
/// [`set_quiescent_skip`](NfaEngine::set_quiescent_skip) disables it for
/// baseline measurements.
///
/// Reports are canonical: at most one report per `(offset, code)` pair,
/// even when several reporting states share a code and match together.
#[derive(Debug, Clone)]
pub struct NfaEngine {
    net: Lowered,
    /// Dense index of each state's report code (for the per-cycle stamp
    /// table); `u32::MAX` for non-reporting states.
    code_idx: Vec<u32>,
    is_counter: Vec<bool>,
    counter_idx: Vec<u32>,
    // CSR of `AllInput` states matching each byte value.
    always_off: Vec<u32>,
    always_dat: Vec<u32>,
    wake: ByteFinder,
    wake_len: usize,
    quiescent: bool,

    // Reusable runtime scratch.
    cur: Vec<u32>,
    next: Vec<u32>,
    stamp: Vec<u32>,
    generation: u32,
    counts: Vec<u32>,
    latched: Vec<bool>,
    cnt_enable: Vec<bool>,
    cnt_reset: Vec<bool>,
    // Generation of the last cycle each counter counted in. A counter
    // samples its (OR'd) enable line once per symbol cycle, so a firing
    // counter re-activating itself — directly or through a counter
    // cycle — must not count again in the same cycle; without this
    // stamp a rolling counter in a combinational loop cascades forever.
    count_stamp: Vec<u32>,
    touched: Vec<u32>,
    latched_list: Vec<u32>,
    /// Per-cycle generation stamp per dense report code: replaces a
    /// linear `contains` scan for the one-report-per-code dedup.
    code_stamp: Vec<u32>,
    /// End-of-data reports held back because the final symbol of a
    /// non-`eod` feed *may* turn out to be the last of the stream. An
    /// empty `eod` feed emits them; a later non-empty feed discards them.
    pending_eod: Vec<(u64, u32)>,
    /// Per-cycle scratch of `(dense code index, code)` eod-gated
    /// candidates, filtered against unconditional reports after the cycle.
    pending_scratch: Vec<(u32, u32)>,
    stream_offset: u64,
}

impl NfaEngine {
    /// Compiles `a` for execution.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Invalid`] if `a` fails
    /// [`Automaton::validate`].
    pub fn new(a: &Automaton) -> Result<Self, EngineError> {
        let net = Lowered::new(a)?;
        let n = net.state_count();
        let mut is_counter = vec![false; n];
        let mut counter_idx = vec![u32::MAX; n];
        for (ci, c) in net.counters.iter().enumerate() {
            is_counter[c.elem as usize] = true;
            counter_idx[c.elem as usize] = ci as u32;
        }
        let mut always_off = Vec::with_capacity(257);
        let mut always_dat = Vec::new();
        let mut wake = SymbolClass::EMPTY;
        always_off.push(0);
        for b in 0..=255u8 {
            for &s in &net.always {
                if net.classes[s as usize].contains(b) {
                    always_dat.push(s);
                }
            }
            always_off.push(always_dat.len() as u32);
        }
        for &s in &net.always {
            wake = wake.union(&net.classes[s as usize]);
        }
        let wake_len = wake.len() as usize;
        // Dense report-code index for the stamped per-cycle dedup.
        let mut codes: Vec<u32> = (0..n)
            .filter(|&i| net.has_report[i])
            .map(|i| net.report_code[i])
            .collect();
        codes.sort_unstable();
        codes.dedup();
        let code_idx = (0..n)
            .map(|i| {
                if net.has_report[i] {
                    codes
                        .binary_search(&net.report_code[i])
                        .map_or(NO_CODE_IDX, |k| k as u32)
                } else {
                    NO_CODE_IDX
                }
            })
            .collect();
        let n_counters = net.counters.len();
        Ok(NfaEngine {
            code_idx,
            is_counter,
            counter_idx,
            always_off,
            always_dat,
            wake: ByteFinder::from_bytes(&wake.iter().collect::<Vec<u8>>()),
            wake_len,
            quiescent: true,
            cur: Vec::new(),
            next: Vec::new(),
            stamp: vec![0; n],
            generation: 0,
            counts: vec![0; n_counters],
            latched: vec![false; n_counters],
            cnt_enable: vec![false; n_counters],
            cnt_reset: vec![false; n_counters],
            count_stamp: vec![0; n_counters],
            touched: Vec::new(),
            latched_list: Vec::new(),
            code_stamp: vec![0; codes.len()],
            pending_eod: Vec::new(),
            pending_scratch: Vec::new(),
            stream_offset: 0,
            net,
        })
    }

    /// Number of automaton elements.
    pub fn state_count(&self) -> usize {
        self.net.state_count()
    }

    /// Enables or disables the quiescent-skip fast path (on by default).
    /// The skip is exact; turning it off exists only so harnesses can
    /// measure the unskipped baseline.
    pub fn set_quiescent_skip(&mut self, on: bool) {
        self.quiescent = on;
    }

    /// Number of byte values that can wake an empty active set (the size
    /// of the union of all `AllInput` start classes).
    pub fn wake_set_size(&self) -> usize {
        self.wake_len
    }

    /// Scans `input` while collecting an activity [`Profile`].
    pub fn scan_profiled(&mut self, input: &[u8], sink: &mut dyn ReportSink) -> Profile {
        self.run::<true>(input, sink)
    }

    fn run<const PROFILE: bool>(&mut self, input: &[u8], sink: &mut dyn ReportSink) -> Profile {
        self.reset_run_state();
        self.process::<PROFILE>(input, 0, true, sink)
    }

    fn reset_run_state(&mut self) {
        self.cur.clear();
        self.next.clear();
        self.counts.fill(0);
        self.latched.fill(false);
        self.latched_list.clear();
        // A latched counter re-arms its successors after the per-cycle
        // drain (`settle_counters` runs its drive loop after clearing
        // `touched`), so pending enables legitimately straddle cycle
        // boundaries — and therefore survive end of stream. A recycled
        // engine must not inherit them or the first symbol of the next
        // stream would settle a counter that was never activated.
        self.touched.clear();
        self.cnt_enable.fill(false);
        self.cnt_reset.fill(false);
        self.pending_eod.clear();
        self.pending_scratch.clear();
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.stamp.fill(u32::MAX);
            self.code_stamp.fill(u32::MAX);
            self.count_stamp.fill(u32::MAX);
            self.generation = 1;
        }
        // Seed start-of-data states.
        let gen = self.generation;
        for i in 0..self.net.sod.len() {
            let s = self.net.sod[i];
            if self.stamp[s as usize] != gen {
                self.stamp[s as usize] = gen;
                self.cur.push(s);
            }
        }
    }

    fn process<const PROFILE: bool>(
        &mut self,
        input: &[u8],
        base: u64,
        eod: bool,
        sink: &mut dyn ReportSink,
    ) -> Profile {
        let mut profile = Profile::default();
        let len = input.len();
        // New symbols mean the previously held-back end-of-data
        // candidates were not at the end of the stream after all.
        if len > 0 {
            self.pending_eod.clear();
        }
        let mut pos = 0usize;
        while pos < len {
            // Quiescent skip: with no dynamically active states and no
            // latched counter driving its successors, a symbol outside
            // the wake-up set matches nothing, reports nothing and
            // leaves every counter untouched — so jump to the next
            // waking byte. (Held counter counts are unaffected: with no
            // enable pulse a count simply persists.)
            if self.quiescent && self.cur.is_empty() && self.latched_list.is_empty() {
                debug_assert!(self.touched.is_empty());
                let skipped = match self.wake.find(&input[pos..]) {
                    Some(d) => d,
                    None => len - pos,
                };
                if PROFILE {
                    // Skipped symbols are processed symbols with zero
                    // enabled states, zero matches and zero reports.
                    profile.symbols += skipped as u64;
                }
                pos += skipped;
                if pos == len {
                    break;
                }
            }
            let c = input[pos];
            let apos = base + pos as u64;
            let last = eod && pos + 1 == len;
            let maybe_last = !eod && pos + 1 == len;
            if PROFILE {
                profile.symbols += 1;
                profile.total_enabled += self.cur.len() as u64;
            }
            self.generation = self.generation.wrapping_add(1);
            if self.generation == 0 {
                self.stamp.fill(u32::MAX);
                self.code_stamp.fill(u32::MAX);
                self.count_stamp.fill(u32::MAX);
                self.generation = 1;
            }
            let gen = self.generation;
            let mut matched_count = 0u64;
            let mut reports = 0u64;

            // Dynamically enabled states.
            for ci in 0..self.cur.len() {
                let s = self.cur[ci] as usize;
                if !self.net.classes[s].contains(c) {
                    continue;
                }
                matched_count += 1;
                reports += self.report_if_due(s, gen, apos, last, maybe_last, sink);
                self.activate(s, gen);
            }
            // Always-enabled start states that match this byte (CSR
            // slice, indexed so `activate` can reborrow `self`).
            let lo = self.always_off[c as usize] as usize;
            let hi = self.always_off[c as usize + 1] as usize;
            for ai in lo..hi {
                let s = self.always_dat[ai] as usize;
                matched_count += 1;
                reports += self.report_if_due(s, gen, apos, last, maybe_last, sink);
                self.activate(s, gen);
            }

            // Counter bookkeeping at end of cycle.
            reports += self.settle_counters(gen, apos, last, maybe_last, sink);

            // Keep only the end-of-data candidates no unconditional
            // report claimed this cycle (one canonical report per
            // `(offset, code)` either way).
            if maybe_last && !self.pending_scratch.is_empty() {
                for i in 0..self.pending_scratch.len() {
                    let (idx, code) = self.pending_scratch[i];
                    if self.code_stamp[idx as usize] != gen {
                        self.pending_eod.push((apos, code));
                    }
                }
                self.pending_scratch.clear();
            }

            if PROFILE {
                profile.total_matched += matched_count;
                profile.total_reports += reports;
            }
            std::mem::swap(&mut self.cur, &mut self.next);
            self.next.clear();
            pos += 1;
        }
        profile
    }

    /// Emits `s`'s report unless it has no code, is end-of-data gated, or
    /// its code already reported this cycle (stamp dedup). With
    /// `maybe_last` (final symbol of a non-`eod` feed), suppressed
    /// end-of-data reports are remembered as pending candidates instead.
    #[inline]
    fn report_if_due(
        &mut self,
        s: usize,
        gen: u32,
        pos: u64,
        last: bool,
        maybe_last: bool,
        sink: &mut dyn ReportSink,
    ) -> u64 {
        if self.code_idx[s] == NO_CODE_IDX {
            return 0;
        }
        let code = self.net.report_code[s];
        let idx = self.code_idx[s] as usize;
        if self.net.report_eod[s] && !last {
            if maybe_last
                && self.code_stamp[idx] != gen
                && !self.pending_scratch.iter().any(|&(i, _)| i == idx as u32)
            {
                self.pending_scratch.push((idx as u32, code));
            }
            return 0;
        }
        if self.code_stamp[idx] == gen {
            return 0;
        }
        self.code_stamp[idx] = gen;
        sink.report(pos, azoo_core::ReportCode(code));
        1
    }

    /// Propagates an activation from element `s` (counters never report
    /// here — they report in `settle_counters`).
    #[inline]
    fn activate(&mut self, s: usize, gen: u32) {
        for &raw in self.net.successors(s) {
            let reset = raw & PORT_BIT != 0;
            let t = (raw & !PORT_BIT) as usize;
            if self.is_counter[t] {
                let ci = self.counter_idx[t] as usize;
                if !self.cnt_enable[ci] && !self.cnt_reset[ci] {
                    self.touched.push(ci as u32);
                }
                if reset {
                    self.cnt_reset[ci] = true;
                } else {
                    self.cnt_enable[ci] = true;
                }
            } else if !self.net.is_always[t] && self.stamp[t] != gen {
                self.stamp[t] = gen;
                self.next.push(t as u32);
            }
        }
    }

    fn settle_counters(
        &mut self,
        gen: u32,
        pos: u64,
        last: bool,
        maybe_last: bool,
        sink: &mut dyn ReportSink,
    ) -> u64 {
        let mut reports = 0u64;
        // `activate` below may append to `touched` (counter-to-counter
        // edges), so iterate with a growing bound.
        let mut ti = 0;
        while ti < self.touched.len() {
            let ci = self.touched[ti] as usize;
            ti += 1;
            let def_target = self.net.counters[ci].target;
            let mode = self.net.counters[ci].mode;
            let mut fired = false;
            if self.cnt_reset[ci] {
                self.counts[ci] = 0;
                if self.latched[ci] {
                    self.latched[ci] = false;
                    self.latched_list.retain(|&x| x as usize != ci);
                }
            } else if self.cnt_enable[ci]
                && self.counts[ci] < def_target
                && self.count_stamp[ci] != gen
            {
                self.count_stamp[ci] = gen;
                self.counts[ci] += 1;
                if self.counts[ci] == def_target {
                    fired = true;
                    match mode {
                        CounterMode::Latch => {
                            if !self.latched[ci] {
                                self.latched[ci] = true;
                                self.latched_list.push(ci as u32);
                            }
                        }
                        CounterMode::Pulse => {}
                        CounterMode::Roll => self.counts[ci] = 0,
                    }
                }
            }
            self.cnt_enable[ci] = false;
            self.cnt_reset[ci] = false;
            if fired {
                let elem = self.counter_element(ci);
                reports += self.report_if_due(elem, gen, pos, last, maybe_last, sink);
                self.activate(elem, gen);
            }
        }
        self.touched.clear();
        // Latched counters keep driving their successors every cycle
        // (indexed loop: `activate` touches `next`/`touched`/counter
        // flags, never `latched_list`, so no buffer swap is needed).
        for li in 0..self.latched_list.len() {
            let elem = self.counter_element(self.latched_list[li] as usize);
            self.activate(elem, gen);
        }
        reports
    }

    fn counter_element(&self, ci: usize) -> usize {
        self.net.counters[ci].elem as usize
    }
}

impl StreamingEngine for NfaEngine {
    fn reset_stream(&mut self) {
        self.reset_run_state();
        self.stream_offset = 0;
    }

    fn stream_quiesced(&self) -> bool {
        // After a reset the active set holds exactly the seeded
        // start-of-data states (`net.sod` is duplicate-free); everything
        // dynamic — counter values, latches, pending enable/reset pulses,
        // held-back `$` reports, per-cycle scratch, the stream offset —
        // must be at zero.
        self.stream_offset == 0
            && self.next.is_empty()
            && self.touched.is_empty()
            && !self.cnt_enable.iter().any(|&b| b)
            && !self.cnt_reset.iter().any(|&b| b)
            && self.pending_eod.is_empty()
            && self.pending_scratch.is_empty()
            && self.latched_list.is_empty()
            && !self.latched.iter().any(|&l| l)
            && self.counts.iter().all(|&c| c == 0)
            && self.cur.len() == self.net.sod.len()
            && self.cur.iter().all(|s| self.net.sod.contains(s))
    }

    fn feed(&mut self, chunk: &[u8], eod: bool, sink: &mut dyn ReportSink) {
        let base = self.stream_offset;
        self.process::<false>(chunk, base, eod, sink);
        self.stream_offset = base + chunk.len() as u64;
        if eod {
            // End of data on an empty chunk: the last symbol was consumed
            // by an earlier feed — emit the reports it held back.
            for i in 0..self.pending_eod.len() {
                let (off, code) = self.pending_eod[i];
                sink.report(off, azoo_core::ReportCode(code));
            }
            self.pending_eod.clear();
        }
    }
}

impl Engine for NfaEngine {
    fn scan(&mut self, input: &[u8], sink: &mut dyn ReportSink) {
        self.run::<false>(input, sink);
    }

    fn name(&self) -> &'static str {
        "nfa"
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::sink::{CollectSink, CountSink};
    use azoo_core::{StartKind, SymbolClass};

    #[test]
    fn state_count_reflects_elements() {
        let mut a = Automaton::new();
        let s = a.add_ste(SymbolClass::FULL, StartKind::AllInput);
        a.add_counter(2, CounterMode::Roll);
        a.set_report(s, 0);
        let engine = NfaEngine::new(&a).unwrap();
        assert_eq!(engine.state_count(), 2);
    }

    #[test]
    fn rejects_invalid_automata() {
        let mut a = Automaton::new();
        a.add_ste(SymbolClass::EMPTY, StartKind::AllInput);
        assert!(matches!(
            NfaEngine::new(&a),
            Err(crate::EngineError::Invalid(_))
        ));
    }

    #[test]
    fn generation_wraparound_is_survivable() {
        // Force the generation counter near wrap and verify scans still
        // produce correct results afterwards.
        let mut a = Automaton::new();
        let (_, last) = a.add_chain(
            &[SymbolClass::from_byte(b'x'), SymbolClass::from_byte(b'y')],
            StartKind::AllInput,
        );
        a.set_report(last, 0);
        let mut engine = NfaEngine::new(&a).unwrap();
        engine.generation = u32::MAX - 3;
        for _ in 0..8 {
            let mut sink = CountSink::new();
            engine.scan(b"xy", &mut sink);
            assert_eq!(sink.count(), 1);
        }
    }

    #[test]
    fn same_code_reports_deduplicate_per_cycle() {
        // Two parallel states with the same code matching together yield
        // one canonical report.
        let mut a = Automaton::new();
        for _ in 0..2 {
            let s = a.add_ste(SymbolClass::from_byte(b'k'), StartKind::AllInput);
            a.set_report(s, 7);
        }
        let mut engine = NfaEngine::new(&a).unwrap();
        let mut sink = CollectSink::new();
        engine.scan(b"kk", &mut sink);
        assert_eq!(sink.reports().len(), 2); // one per offset, not four
    }

    #[test]
    fn distinct_codes_all_fire() {
        let mut a = Automaton::new();
        for code in 0..3 {
            let s = a.add_ste(SymbolClass::from_byte(b'k'), StartKind::AllInput);
            a.set_report(s, code);
        }
        let mut engine = NfaEngine::new(&a).unwrap();
        let mut sink = CollectSink::new();
        engine.scan(b"k", &mut sink);
        assert_eq!(sink.reports().len(), 3);
    }

    #[test]
    fn sparse_codes_deduplicate_per_cycle() {
        // Codes far apart (dense indexing, not direct indexing by code).
        let mut a = Automaton::new();
        for _ in 0..2 {
            let s = a.add_ste(SymbolClass::from_byte(b'k'), StartKind::AllInput);
            a.set_report(s, 3_000_000_000);
        }
        let s = a.add_ste(SymbolClass::from_byte(b'k'), StartKind::AllInput);
        a.set_report(s, 5);
        let mut engine = NfaEngine::new(&a).unwrap();
        let mut sink = CollectSink::new();
        engine.scan(b"k", &mut sink);
        assert_eq!(sink.reports().len(), 2);
    }

    #[test]
    fn wake_set_reflects_start_classes() {
        let mut a = Automaton::new();
        a.add_chain(
            &[SymbolClass::from_byte(b'a'), SymbolClass::from_byte(b'b')],
            StartKind::AllInput,
        );
        a.add_chain(&[SymbolClass::from_byte(b'c'); 2], StartKind::AllInput);
        let engine = NfaEngine::new(&a).unwrap();
        assert_eq!(engine.wake_set_size(), 2); // 'a' and 'c'; 'b' is not a start
    }

    #[test]
    fn quiescent_skip_is_exact() {
        // Sparse pattern over noisy input: skip on and off must agree,
        // including the activity profile.
        let mut a = Automaton::new();
        let classes: Vec<SymbolClass> = b"needle"
            .iter()
            .map(|&b| SymbolClass::from_byte(b))
            .collect();
        let (_, last) = a.add_chain(&classes, StartKind::AllInput);
        a.set_report(last, 0);
        let mut input = vec![b'.'; 4096];
        input[100..106].copy_from_slice(b"needle");
        input[4090..4096].copy_from_slice(b"needle");
        input[200..206].copy_from_slice(b"nexdle"); // partial arm then die
        let mut on = NfaEngine::new(&a).unwrap();
        let mut off = NfaEngine::new(&a).unwrap();
        off.set_quiescent_skip(false);
        let (mut s1, mut s2) = (CollectSink::new(), CollectSink::new());
        let p1 = on.scan_profiled(&input, &mut s1);
        let p2 = off.scan_profiled(&input, &mut s2);
        assert_eq!(s1.sorted_reports(), s2.sorted_reports());
        assert_eq!(s1.reports().len(), 2);
        assert_eq!(p1, p2);
        assert_eq!(p1.symbols, 4096);
    }

    #[test]
    fn quiescence_carries_across_feed_chunks() {
        let mut a = Automaton::new();
        let classes: Vec<SymbolClass> = b"ab".iter().map(|&b| SymbolClass::from_byte(b)).collect();
        let (_, last) = a.add_chain(&classes, StartKind::AllInput);
        a.set_report(last, 0);
        let mut input = vec![b'.'; 300];
        input[149] = b'a'; // straddles the 150-byte chunk boundary
        input[150] = b'b';
        let mut engine = NfaEngine::new(&a).unwrap();
        let mut sink = CollectSink::new();
        engine.scan_chunks([&input[..150], &input[150..]], &mut sink);
        let offsets: Vec<u64> = sink.reports().iter().map(|r| r.offset).collect();
        assert_eq!(offsets, vec![150]);
    }

    #[test]
    fn latched_counter_suppresses_skip() {
        // Once latched, the counter drives its successor every cycle —
        // skipping would silence the downstream report.
        let mut a = Automaton::new();
        let s = a.add_ste(SymbolClass::from_byte(b'k'), StartKind::AllInput);
        let c = a.add_counter(2, CounterMode::Latch);
        let t = a.add_ste(SymbolClass::from_byte(b'z'), StartKind::None);
        a.add_edge(s, c);
        a.add_edge(c, t);
        a.set_report(t, 1);
        let mut on = NfaEngine::new(&a).unwrap();
        let mut off = NfaEngine::new(&a).unwrap();
        off.set_quiescent_skip(false);
        let input = b"kk..z...z";
        let (mut s1, mut s2) = (CollectSink::new(), CollectSink::new());
        on.scan(input, &mut s1);
        off.scan(input, &mut s2);
        assert_eq!(s1.sorted_reports(), s2.sorted_reports());
        assert_eq!(s1.reports().len(), 2);
    }

    #[test]
    fn rolling_counter_in_a_combinational_loop_counts_once_per_cycle() {
        // A counter activating itself (found by the differential oracle,
        // seed 2040): the fire -> self-enable -> count -> fire cascade
        // used to loop forever inside a single symbol cycle. A counter
        // samples its enable line once per cycle, so it fires exactly
        // once per enabling symbol.
        let mut a = Automaton::new();
        let s = a.add_ste(SymbolClass::from_byte(b'a'), StartKind::AllInput);
        let c = a.add_counter(1, CounterMode::Roll);
        a.add_edge(s, c);
        a.add_edge(c, c); // combinational loop
        a.set_report(c, 5);
        a.validate().unwrap();
        let mut engine = NfaEngine::new(&a).unwrap();
        let mut sink = CollectSink::new();
        engine.scan(b"axa", &mut sink);
        let got: Vec<(u64, u32)> = sink
            .sorted_reports()
            .iter()
            .map(|r| (r.offset, r.code.0))
            .collect();
        assert_eq!(got, vec![(0, 5), (2, 5)]);
    }
}
