//! Streaming (chunked) scanning.
//!
//! Real deployments of automata processing — deep packet inspection,
//! virus scanning — receive input in chunks, not as one block. The
//! [`StreamingEngine`] trait extends [`Engine`](crate::Engine) with a
//! reset/feed protocol whose cumulative report stream is identical to a
//! single [`Engine::scan`](crate::Engine::scan) over the concatenation
//! (which the property tests verify for every engine).

use crate::sink::ReportSink;

/// An engine that can consume input incrementally.
///
/// Protocol: call [`reset_stream`](StreamingEngine::reset_stream), then
/// [`feed`](StreamingEngine::feed) once per chunk, passing `eod = true`
/// on the final chunk (end-of-data-anchored reports are suppressed until
/// then). Report offsets are cumulative across chunks.
pub trait StreamingEngine {
    /// Restores the engine's initial stream state.
    fn reset_stream(&mut self);

    /// Recycles the engine for a new stream without recompiling or
    /// reallocating: [`reset_stream`](StreamingEngine::reset_stream)
    /// plus, in debug builds, an assertion that the mutable stream state
    /// really returned to its freshly-compiled shape
    /// ([`stream_quiesced`](StreamingEngine::stream_quiesced)). Session
    /// pools call this before parking an engine on the free list, so a
    /// reset that leaks state across streams trips in development
    /// instead of corrupting a later tenant's scan.
    fn reset(&mut self) {
        self.reset_stream();
        debug_assert!(
            self.stream_quiesced(),
            "stream state not quiesced after reset"
        );
    }

    /// Whether the engine's mutable stream state (active sets, counter
    /// values, held-back end-of-data reports, stream offset) equals the
    /// freshly-reset state. Engines override this; the default `true`
    /// keeps the check advisory for wrappers without inspectable state.
    fn stream_quiesced(&self) -> bool {
        true
    }

    /// Consumes one chunk. `eod` marks the final chunk of the stream.
    ///
    /// End-of-data-anchored (`$`) reports fire on the last symbol of the
    /// stream. When that symbol was consumed by an earlier feed (the
    /// `eod` chunk is empty), engines emit the reports they held back
    /// for it, so an empty final chunk matches block-mode output exactly.
    fn feed(&mut self, chunk: &[u8], eod: bool, sink: &mut dyn ReportSink);

    /// Convenience: scans a full stream given as chunks, passing
    /// `eod = true` on the last chunk (empty chunks included — `feed`
    /// handles an empty end-of-data chunk exactly).
    fn scan_chunks<'a, I>(&mut self, chunks: I, sink: &mut dyn ReportSink)
    where
        I: IntoIterator<Item = &'a [u8]>,
        Self: Sized,
    {
        self.reset_stream();
        let mut iter = chunks.into_iter().peekable();
        while let Some(chunk) = iter.next() {
            let eod = iter.peek().is_none();
            self.feed(chunk, eod, sink);
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::sink::CollectSink;
    use crate::{Engine, LazyDfaEngine, NfaEngine};
    use azoo_core::{Automaton, StartKind, SymbolClass};

    fn pattern() -> Automaton {
        let mut a = Automaton::new();
        let classes: Vec<SymbolClass> = b"abc".iter().map(|&b| SymbolClass::from_byte(b)).collect();
        let (_, last) = a.add_chain(&classes, StartKind::AllInput);
        a.set_report(last, 0);
        // A second, $-anchored pattern.
        let s = a.add_ste(SymbolClass::from_byte(b'z'), StartKind::AllInput);
        a.set_report(s, 1);
        a.set_report_eod_only(s, true);
        a
    }

    fn whole(engine: &mut dyn Engine, input: &[u8]) -> Vec<crate::Report> {
        let mut sink = CollectSink::new();
        engine.scan(input, &mut sink);
        sink.sorted_reports()
    }

    fn chunked<E: StreamingEngine>(engine: &mut E, input: &[u8], at: usize) -> Vec<crate::Report> {
        let mut sink = CollectSink::new();
        let at = at.min(input.len());
        engine.scan_chunks([&input[..at], &input[at..]], &mut sink);
        sink.sorted_reports()
    }

    #[test]
    fn chunked_equals_whole_for_all_engines() {
        let a = pattern();
        let input = b"xxabcxxabcxz";
        for cut in 0..=input.len() {
            let mut nfa = NfaEngine::new(&a).unwrap();
            assert_eq!(
                whole(&mut nfa, input),
                chunked(&mut NfaEngine::new(&a).unwrap(), input, cut),
                "nfa cut {cut}"
            );
            let mut dfa = LazyDfaEngine::new(&a).unwrap();
            assert_eq!(
                whole(&mut dfa, input),
                chunked(&mut LazyDfaEngine::new(&a).unwrap(), input, cut),
                "dfa cut {cut}"
            );
        }
    }

    #[test]
    fn matches_spanning_chunk_boundaries_survive() {
        let a = pattern();
        let mut sink = CollectSink::new();
        let mut engine = NfaEngine::new(&a).unwrap();
        engine.scan_chunks([&b"xa"[..], &b"b"[..], &b"cx"[..]], &mut sink);
        assert_eq!(sink.reports().len(), 1);
        assert_eq!(sink.reports()[0].offset, 3);
    }

    #[test]
    fn eod_report_waits_for_final_chunk() {
        let a = pattern();
        let mut engine = NfaEngine::new(&a).unwrap();
        let mut sink = CollectSink::new();
        engine.reset_stream();
        engine.feed(b"z", false, &mut sink);
        assert!(sink.reports().is_empty(), "z mid-stream must not report");
        engine.feed(b"z", true, &mut sink);
        assert_eq!(sink.reports().len(), 1);
        assert_eq!(sink.reports()[0].offset, 1);
    }

    #[test]
    fn reset_recycles_every_engine() {
        use crate::{ParallelScanner, PrefilterEngine};
        let a = pattern();
        let input = b"xxabcxxabcxz";

        fn check<E: StreamingEngine + Engine>(mut engine: E, input: &[u8]) {
            let name = engine.name();
            let expected = whole(&mut engine, input);
            // Dirty the stream state: a partial feed with pending work.
            engine.reset_stream();
            engine.feed(&input[..input.len() / 2], false, &mut CollectSink::new());
            // Recycle and rescan: the report stream must match a fresh
            // engine's block scan exactly.
            engine.reset();
            assert!(engine.stream_quiesced(), "{name}: not quiesced after reset");
            let mut sink = CollectSink::new();
            engine.feed(input, true, &mut sink);
            assert_eq!(sink.sorted_reports(), expected, "{name}: reuse diverged");
        }

        check(NfaEngine::new(&a).unwrap(), input);
        check(LazyDfaEngine::new(&a).unwrap(), input);
        check(PrefilterEngine::new(&a).unwrap(), input);
        check(ParallelScanner::new(&a, 2).unwrap(), input);
        // Counters need the NFA.
        let mut counted = Automaton::new();
        let s = counted.add_ste(SymbolClass::from_byte(b'a'), StartKind::AllInput);
        let c = counted.add_counter(2, azoo_core::CounterMode::Latch);
        counted.add_edge(s, c);
        counted.set_report(c, 3);
        check(NfaEngine::new(&counted).unwrap(), b"xaxaxa");
    }

    #[test]
    fn start_of_data_not_rearmed_by_later_chunks() {
        let mut a = Automaton::new();
        let s = a.add_ste(SymbolClass::from_byte(b'q'), StartKind::StartOfData);
        a.set_report(s, 0);
        let mut engine = NfaEngine::new(&a).unwrap();
        let mut sink = CollectSink::new();
        engine.scan_chunks([&b"q"[..], &b"q"[..]], &mut sink);
        assert_eq!(sink.reports().len(), 1);
    }
}
