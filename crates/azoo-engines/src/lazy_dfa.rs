//! A Hyperscan/RE2-style lazy-DFA engine.
//!
//! Subset construction is performed on the fly: each distinct set of
//! dynamically enabled NFA states becomes a DFA state, and transitions are
//! built (and cached) the first time they are taken. Throughput is then
//! one table lookup per input symbol, independent of the NFA active set —
//! the property that makes DFA-based engines like Intel Hyperscan fast on
//! CPUs. A bounded state cache with RE2-style full flushes keeps memory
//! finite on automata that determinize badly.

use std::collections::HashMap;
use std::sync::Arc;

use azoo_core::{Automaton, StateId};

use crate::lower::{byte_classes, ByteClasses, Lowered};
use crate::sink::ReportSink;
use crate::stream::StreamingEngine;
use crate::{Engine, EngineError};

const UNBUILT: u32 = u32::MAX;

/// Lazily determinized automaton executor.
///
/// Does not support counter elements (extended automata are outside the
/// DFA model, as they are for production regex engines).
#[derive(Debug, Clone)]
pub struct LazyDfaEngine {
    // NFA side.
    net: Lowered,
    start_key: Arc<[u32]>,

    // Alphabet compression.
    alphabet: ByteClasses,

    // DFA cache. A state's NFA-state set is immutable once interned, so
    // `states` and `intern` share one allocation per key, and
    // `clone_session` copies pointers rather than the sets.
    max_states: usize,
    states: Vec<Arc<[u32]>>,
    intern: HashMap<Arc<[u32]>, u32>,
    trans: Vec<u32>,
    trans_rep: Vec<u32>,
    rep_lists: Vec<Vec<(u32, bool)>>,
    rep_intern: HashMap<Vec<(u32, bool)>, u32>,
    flushes: u64,
    stream_cur: u32,
    stream_offset: u64,
    /// End-of-data reports held back on the final symbol of a non-`eod`
    /// feed; an empty `eod` feed emits them, new data discards them.
    pending_eod: Vec<(u64, u32)>,
}

impl LazyDfaEngine {
    /// Default bound on cached DFA states before a full flush.
    pub const DEFAULT_MAX_STATES: usize = 1 << 15;

    /// Compiles `a` with the default cache bound.
    ///
    /// # Errors
    ///
    /// [`EngineError::CountersUnsupported`] if `a` has counters, or
    /// [`EngineError::Invalid`] if it fails validation.
    pub fn new(a: &Automaton) -> Result<Self, EngineError> {
        Self::with_max_states(a, Self::DEFAULT_MAX_STATES)
    }

    /// Compiles `a` with an explicit DFA-state cache bound.
    ///
    /// # Errors
    ///
    /// See [`LazyDfaEngine::new`].
    pub fn with_max_states(a: &Automaton, max_states: usize) -> Result<Self, EngineError> {
        let net = Lowered::new(a)?;
        if let Some(c) = net.counters.first() {
            return Err(EngineError::CountersUnsupported(StateId::new(
                c.elem as usize,
            )));
        }
        // Alphabet compression: bytes indistinguishable by every symbol
        // class share a DFA column.
        let mut engine = LazyDfaEngine {
            alphabet: byte_classes(&net.classes),
            start_key: net.sod.as_slice().into(),
            net,
            max_states: max_states.max(2),
            states: Vec::new(),
            intern: HashMap::new(),
            trans: Vec::new(),
            trans_rep: Vec::new(),
            rep_lists: vec![Vec::new()],
            rep_intern: HashMap::new(),
            flushes: 0,
            stream_cur: 0,
            stream_offset: 0,
            pending_eod: Vec::new(),
        };
        engine.rep_intern.insert(Vec::new(), 0);
        engine.start_state();
        Ok(engine)
    }

    /// Number of DFA states currently cached.
    pub fn cached_states(&self) -> usize {
        self.states.len()
    }

    /// Number of cache flushes performed so far.
    pub fn flush_count(&self) -> u64 {
        self.flushes
    }

    /// Number of compressed alphabet classes.
    pub fn alphabet_classes(&self) -> usize {
        self.alphabet.len()
    }

    fn flush(&mut self) {
        self.flushes += 1;
        self.states.clear();
        self.intern.clear();
        self.trans.clear();
        self.trans_rep.clear();
        let start = Arc::clone(&self.start_key);
        self.push_state(start);
    }

    fn push_state(&mut self, key: Arc<[u32]>) -> u32 {
        let id = self.states.len() as u32;
        self.intern.insert(Arc::clone(&key), id);
        self.states.push(key);
        let n_classes = self.alphabet.len();
        self.trans.extend(std::iter::repeat_n(UNBUILT, n_classes));
        self.trans_rep.extend(std::iter::repeat_n(0, n_classes));
        id
    }

    /// Interns the start state's key; returns its id.
    fn start_state(&mut self) -> u32 {
        let key = Arc::clone(&self.start_key);
        self.intern_state(&key)
    }

    /// Interns a state key, flushing the cache if full. Returns the id;
    /// the key is only allocated when it is new.
    fn intern_state(&mut self, key: &[u32]) -> u32 {
        if let Some(&id) = self.intern.get(key) {
            return id;
        }
        if self.states.len() >= self.max_states {
            self.flush();
            if let Some(&id) = self.intern.get(key) {
                return id; // key was the start state
            }
        }
        self.push_state(key.into())
    }

    /// Computes (and caches when possible) the transition out of `cur` on
    /// alphabet class `k`. Returns `(next_state, report_list)`.
    fn take_transition(&mut self, cur: u32, k: usize) -> (u32, u32) {
        let idx = cur as usize * self.alphabet.len() + k;
        if self.trans[idx] != UNBUILT {
            return (self.trans[idx], self.trans_rep[idx]);
        }
        let byte = self.alphabet.reps[k];
        let mut next: Vec<u32> = Vec::new();
        let mut reports: Vec<(u32, bool)> = Vec::new();
        let key = Arc::clone(&self.states[cur as usize]);
        let net = &self.net;
        for &s in key.iter().chain(net.always.iter()) {
            let si = s as usize;
            if !net.classes[si].contains(byte) {
                continue;
            }
            if net.has_report[si] {
                reports.push((net.report_code[si], net.report_eod[si]));
            }
            for &t in net.successors(si) {
                if !net.is_always[t as usize] {
                    next.push(t);
                }
            }
        }
        next.sort_unstable();
        next.dedup();
        reports.sort_unstable();
        reports.dedup();
        // An unconditional report subsumes an end-of-data-gated one with
        // the same code: keeping both would emit a duplicate
        // `(offset, code)` pair on the stream's last symbol, where the
        // NFA's per-cycle code dedup emits exactly one. Sorted order puts
        // `(code, false)` first, so keep the first entry per code.
        reports.dedup_by_key(|&mut (code, _)| code);
        let rep_id = if reports.is_empty() {
            0
        } else {
            match self.rep_intern.get(&reports) {
                Some(&id) => id,
                None => {
                    let id = self.rep_lists.len() as u32;
                    self.rep_intern.insert(reports.clone(), id);
                    self.rep_lists.push(reports);
                    id
                }
            }
        };
        let flushes_before = self.flushes;
        let next_id = self.intern_state(&next);
        if self.flushes == flushes_before {
            self.trans[idx] = next_id;
            self.trans_rep[idx] = rep_id;
        }
        (next_id, rep_id)
    }
}

impl LazyDfaEngine {
    /// Runs `input` from DFA state `cur`; returns the final state.
    fn process(
        &mut self,
        mut cur: u32,
        input: &[u8],
        base: u64,
        eod: bool,
        sink: &mut dyn ReportSink,
    ) -> u32 {
        let len = input.len();
        // New symbols invalidate held-back end-of-data candidates.
        if len > 0 {
            self.pending_eod.clear();
        }
        for (pos, &b) in input.iter().enumerate() {
            let k = self.alphabet.class_of[b as usize] as usize;
            let (next, rep) = self.take_transition(cur, k);
            if rep != 0 {
                let last = eod && pos + 1 == len;
                let maybe_last = !eod && pos + 1 == len;
                // Clone is cheap: report lists are tiny and rare.
                let list = self.rep_lists[rep as usize].clone();
                for (code, eod_only) in list {
                    if !eod_only || last {
                        sink.report(base + pos as u64, azoo_core::ReportCode(code));
                    } else if maybe_last {
                        // The list is deduped per code with the
                        // unconditional variant winning, so this code was
                        // not otherwise reported this cycle.
                        self.pending_eod.push((base + pos as u64, code));
                    }
                }
            }
            cur = next;
        }
        cur
    }
}

impl StreamingEngine for LazyDfaEngine {
    fn reset_stream(&mut self) {
        self.stream_cur = self.start_state();
        self.stream_offset = 0;
        self.pending_eod.clear();
    }

    fn stream_quiesced(&self) -> bool {
        self.stream_offset == 0
            && self.pending_eod.is_empty()
            && self
                .states
                .get(self.stream_cur as usize)
                .is_some_and(|key| **key == *self.start_key)
    }

    fn feed(&mut self, chunk: &[u8], eod: bool, sink: &mut dyn ReportSink) {
        let base = self.stream_offset;
        self.stream_cur = self.process(self.stream_cur, chunk, base, eod, sink);
        self.stream_offset = base + chunk.len() as u64;
        if eod {
            for i in 0..self.pending_eod.len() {
                let (off, code) = self.pending_eod[i];
                sink.report(off, azoo_core::ReportCode(code));
            }
            self.pending_eod.clear();
        }
    }
}

impl Engine for LazyDfaEngine {
    fn scan(&mut self, input: &[u8], sink: &mut dyn ReportSink) {
        let start = self.start_state();
        self.process(start, input, 0, true, sink);
    }

    fn name(&self) -> &'static str {
        "lazy-dfa"
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::sink::{CollectSink, Report};
    use azoo_core::{StartKind, SymbolClass};

    fn abc() -> Automaton {
        let mut a = Automaton::new();
        let classes: Vec<SymbolClass> = b"abc".iter().map(|&b| SymbolClass::from_byte(b)).collect();
        let (_, last) = a.add_chain(&classes, StartKind::AllInput);
        a.set_report(last, 0);
        a
    }

    #[test]
    fn alphabet_compression_groups_bytes() {
        let engine = LazyDfaEngine::new(&abc()).unwrap();
        // Classes: {a}, {b}, {c}, everything-else.
        assert_eq!(engine.alphabet_classes(), 4);
    }

    #[test]
    fn cache_grows_lazily() {
        let mut engine = LazyDfaEngine::new(&abc()).unwrap();
        assert_eq!(engine.cached_states(), 1); // just the start state
        let mut sink = CollectSink::new();
        engine.scan(b"ababcxyz", &mut sink);
        assert!(engine.cached_states() > 1);
        assert_eq!(engine.flush_count(), 0);
        assert_eq!(sink.reports().len(), 1);
    }

    #[test]
    fn tiny_cache_flushes_but_stays_correct() {
        let mut engine = LazyDfaEngine::with_max_states(&abc(), 2).unwrap();
        let mut sink = CollectSink::new();
        engine.scan(b"abcabcabc", &mut sink);
        assert_eq!(sink.reports().len(), 3);
        assert!(engine.flush_count() > 0);
    }

    /// Overlapping literals over a small alphabet: enough distinct DFA
    /// states to force flushes in a three-state cache.
    fn overlapping_words() -> Automaton {
        let mut a = Automaton::new();
        for (code, word) in [&b"abca"[..], b"bcab", b"cabd", b"aab"].iter().enumerate() {
            let classes: Vec<SymbolClass> =
                word.iter().map(|&b| SymbolClass::from_byte(b)).collect();
            let (_, last) = a.add_chain(&classes, StartKind::AllInput);
            a.set_report(last, code as u32);
        }
        a
    }

    fn block_and_chunked(engine: &mut dyn crate::SessionEngine, input: &[u8]) -> [Vec<Report>; 2] {
        let mut block = CollectSink::new();
        engine.scan(input, &mut block);
        engine.reset_stream();
        let mut chunked = CollectSink::new();
        let chunks: Vec<&[u8]> = input.chunks(997).collect();
        for (i, chunk) in chunks.iter().enumerate() {
            engine.feed(chunk, i + 1 == chunks.len(), &mut chunked);
        }
        [block, chunked].map(|sink| sink.reports().to_vec())
    }

    #[test]
    fn cloned_sessions_share_keys_and_survive_the_originals_flushes() {
        let a = overlapping_words();
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let input: Vec<u8> = (0..5_000)
            .map(|_| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                b"abcdx"[(rng % 5) as usize]
            })
            .collect();
        let mut want = CollectSink::new();
        crate::NfaEngine::new(&a).unwrap().scan(&input, &mut want);
        let want = want.reports().to_vec();
        assert!(!want.is_empty());

        let mut original = LazyDfaEngine::with_max_states(&a, 3).unwrap();
        let mut sink = CollectSink::new();
        original.scan(&input[..64], &mut sink);
        let mut clone = crate::SessionEngine::clone_session(&original);
        let before = original.flush_count();
        // The original flushes and re-interns while the clone still
        // holds the keys it was cloned with.
        assert_eq!(
            block_and_chunked(&mut original, &input),
            [want.clone(), want.clone()]
        );
        assert!(original.flush_count() > before);
        assert_eq!(
            block_and_chunked(clone.as_mut(), &input),
            [want.clone(), want.clone()]
        );
        assert_eq!(
            block_and_chunked(&mut original, &input),
            [want.clone(), want]
        );
    }

    #[test]
    fn full_class_automaton_compresses_to_one_class() {
        let mut a = Automaton::new();
        let s = a.add_ste(SymbolClass::FULL, StartKind::AllInput);
        a.set_report(s, 0);
        let engine = LazyDfaEngine::new(&a).unwrap();
        assert_eq!(engine.alphabet_classes(), 1);
    }
}
