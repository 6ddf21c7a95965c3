//! Regression tests for the parallel scanner's input-chunking edge
//! cases: a chunkable shard's input is cut at `len * c / threads`, each
//! worker re-scans a bounded overlap window before its chunk, and
//! ownership of an offset belongs to exactly one chunk. These tests pin
//! the boundary arithmetic with hand-placed matches.
//!
//! The second half pins *streaming* chunk semantics for every
//! [`StreamingEngine`]: how the input is split into `feed` calls —
//! empty chunks, one-byte chunks, end-of-data arriving on an empty
//! final chunk — must never change the report stream relative to a
//! single block-mode scan.

use automatazoo::core::{Automaton, CounterMode, StartKind, SymbolClass};
use automatazoo::engines::{
    CollectSink, Engine, LazyDfaEngine, NfaEngine, ParallelScanner, PrefilterEngine, Report,
    StreamingEngine,
};

/// One all-input chain per word, reporting `code = index`.
fn words(list: &[&[u8]]) -> Automaton {
    let mut a = Automaton::new();
    for (code, word) in list.iter().enumerate() {
        let classes: Vec<SymbolClass> = word.iter().map(|&b| SymbolClass::from_byte(b)).collect();
        let (_, last) = a.add_chain(&classes, StartKind::AllInput);
        a.set_report(last, code as u32);
    }
    a
}

fn nfa(a: &Automaton, input: &[u8]) -> Vec<Report> {
    let mut sink = CollectSink::new();
    NfaEngine::new(a).expect("valid").scan(input, &mut sink);
    sink.sorted_reports()
}

fn parallel(a: &Automaton, threads: usize, input: &[u8]) -> Vec<Report> {
    let mut sink = CollectSink::new();
    ParallelScanner::new(a, threads)
        .expect("valid")
        .scan(input, &mut sink);
    sink.reports().to_vec()
}

#[test]
fn match_spanning_adjacent_chunks_is_found_once() {
    // 16-byte input, 4 threads: chunk boundaries at 4, 8, 12. Place
    // "abcd" at offsets 6..10 so it starts in chunk 1 and ends in chunk
    // 2 — only the overlap window lets the chunk-2 worker see it.
    let a = words(&[b"abcd"]);
    let mut input = vec![b'x'; 16];
    input[6..10].copy_from_slice(b"abcd");
    let expected = nfa(&a, &input);
    assert_eq!(expected.len(), 1);
    assert_eq!(expected[0].offset, 9);
    assert_eq!(parallel(&a, 4, &input), expected);
}

#[test]
fn match_ending_exactly_at_chunk_boundary() {
    // Chunk boundary at 8 (16 bytes, 2 threads): a match whose last
    // byte is offset 7 belongs to chunk 0; one ending at offset 8
    // belongs to chunk 1 but starts inside chunk 0.
    let a = words(&[b"ab"]);
    let mut input = vec![b'x'; 16];
    input[6..8].copy_from_slice(b"ab"); // report at 7 (last byte of chunk 0)
    input[7] = b'a'; // overwrite: "a" at 7, "b" at 8 -> report at 8
    input[8] = b'b';
    let expected = nfa(&a, &input);
    assert_eq!(
        expected.iter().map(|r| r.offset).collect::<Vec<_>>(),
        vec![8]
    );
    for threads in [1, 2, 4, 8] {
        assert_eq!(parallel(&a, threads, &input), expected, "{threads} threads");
    }
    // Now a clean match ending exactly on the boundary's last owned
    // offset (7).
    let mut input = vec![b'x'; 16];
    input[6..8].copy_from_slice(b"ab");
    let expected = nfa(&a, &input);
    assert_eq!(
        expected.iter().map(|r| r.offset).collect::<Vec<_>>(),
        vec![7]
    );
    for threads in [1, 2, 4, 8] {
        assert_eq!(parallel(&a, threads, &input), expected, "{threads} threads");
    }
}

#[test]
fn every_cut_position_of_a_sliding_match_agrees() {
    // Slide a 3-byte pattern across every offset of a 24-byte input and
    // compare against the NFA at several worker counts: every possible
    // relation between match span and chunk boundary is covered.
    let a = words(&[b"abc"]);
    for pos in 0..=21 {
        let mut input = vec![b'.'; 24];
        input[pos..pos + 3].copy_from_slice(b"abc");
        let expected = nfa(&a, &input);
        assert_eq!(expected.len(), 1, "pattern at {pos}");
        for threads in [2, 3, 4, 8] {
            assert_eq!(
                parallel(&a, threads, &input),
                expected,
                "pattern at {pos}, {threads} threads"
            );
        }
    }
}

#[test]
fn input_shorter_than_thread_count() {
    let a = words(&[b"ab", b"b"]);
    for input in [&b"ab"[..], &b"b"[..], &b"a"[..]] {
        for threads in [4, 8, 16] {
            assert_eq!(
                parallel(&a, threads, input),
                nfa(&a, input),
                "input {input:?}, {threads} threads"
            );
        }
    }
}

#[test]
fn empty_input_yields_no_reports() {
    let a = words(&[b"ab"]);
    for threads in [1, 2, 8] {
        assert_eq!(parallel(&a, threads, b""), Vec::new(), "{threads} threads");
    }
}

#[test]
fn single_byte_patterns_at_every_boundary() {
    // Window = 1 (no overlap at all): every offset must still be owned
    // by exactly one chunk — a duplicated or dropped boundary byte would
    // change the count.
    let a = words(&[b"k"]);
    let input = vec![b'k'; 13]; // 13 is indivisible by 2, 4, 8
    for threads in [2, 4, 8] {
        let got = parallel(&a, threads, &input);
        assert_eq!(got.len(), 13, "{threads} threads");
        assert_eq!(got, nfa(&a, &input), "{threads} threads");
    }
}

// ---------------------------------------------------------------------
// Streaming chunk semantics: feed-call boundaries are invisible.
// ---------------------------------------------------------------------

/// Feeds `input` split per `plan` (chunk lengths; the last carries eod,
/// even when it is empty) and returns the sorted stream.
fn stream(engine: &mut dyn StreamingEngine, input: &[u8], plan: &[usize]) -> Vec<Report> {
    assert_eq!(plan.iter().sum::<usize>(), input.len(), "plan covers input");
    let mut sink = CollectSink::new();
    let mut pos = 0;
    for (i, &len) in plan.iter().enumerate() {
        let eod = i + 1 == plan.len();
        engine.feed(&input[pos..pos + len], eod, &mut sink);
        pos += len;
    }
    sink.sorted_reports()
}

/// Every chunk plan an engine must be indifferent to, for `len` bytes:
/// block, halves, all 1-byte chunks, empty chunks scattered between
/// real ones, and a trailing empty end-of-data chunk.
fn plans(len: usize) -> Vec<Vec<usize>> {
    let mut plans = vec![
        vec![len],
        vec![len / 2, len - len / 2],
        vec![1; len],
        vec![0, len / 2, 0, 0, len - len / 2, 0],
        vec![len, 0],
    ];
    if len >= 3 {
        plans.push(vec![1, 0, 1, len - 3, 0, 1, 0]);
    }
    plans
}

/// Asserts every streaming engine matches its own block-mode stream on
/// every plan. `$`-anchored machines make the trailing-empty-eod plans
/// load-bearing: the held-back report must flush on the empty feed.
fn assert_stream_invariant(a: &Automaton, input: &[u8]) {
    let plans = plans(input.len());
    let block = nfa(a, input);
    let mut engines: Vec<(&str, Box<dyn StreamingEngine>)> = vec![
        ("nfa", Box::new(NfaEngine::new(a).expect("nfa builds"))),
        (
            "prefilter",
            Box::new(PrefilterEngine::new(a).expect("prefilter builds")),
        ),
    ];
    let mut noskip = NfaEngine::new(a).expect("nfa builds");
    noskip.set_quiescent_skip(false);
    engines.push(("nfa-noskip", Box::new(noskip)));
    if a.counter_count() == 0 {
        for max_states in [2, 17] {
            engines.push((
                "lazydfa",
                Box::new(LazyDfaEngine::with_max_states(a, max_states).expect("dfa builds")),
            ));
        }
    }
    for (name, mut engine) in engines {
        for plan in &plans {
            let got = stream(engine.as_mut(), input, plan);
            assert_eq!(got, block, "{name} diverges on plan {plan:?}");
            engine.reset_stream();
        }
    }
}

#[test]
fn feed_boundaries_are_invisible_for_plain_chains() {
    let a = words(&[b"abc", b"bc", b"c"]);
    assert_stream_invariant(&a, b"xabcabxbcc");
}

#[test]
fn eod_on_an_empty_final_chunk_still_flushes_anchored_reports() {
    // `$`-anchored report: the final symbol is consumed by a non-final
    // feed, so the report is only emittable once eod arrives — on an
    // empty chunk. Dropping it (instead of holding it back) was a real
    // bug in every streaming engine, banked as `empty-eod-chunk-*`.
    let mut a = words(&[b"abz"]);
    let last = a.report_states()[0];
    a.set_report_eod_only(last, true);
    assert_stream_invariant(&a, b"xabz");
    // And when the input does NOT end in a match the anchored report
    // must stay silent on every plan.
    assert_stream_invariant(&a, b"xabzx");
}

#[test]
fn one_byte_chunks_preserve_counter_semantics_in_every_mode() {
    // A counter holds state across feeds; one-byte chunks force the
    // activation to cross a boundary on every symbol. Only the NFA
    // engine supports counters.
    for mode in [CounterMode::Latch, CounterMode::Pulse, CounterMode::Roll] {
        let mut a = Automaton::new();
        let trigger = a.add_ste(SymbolClass::from_byte(b'a'), StartKind::AllInput);
        let counter = a.add_counter(3, mode);
        a.add_edge(trigger, counter);
        a.set_report(counter, 9);
        let reset = a.add_ste(SymbolClass::from_byte(b'r'), StartKind::AllInput);
        a.add_reset_edge(reset, counter);
        a.validate().expect("valid");

        let input = b"aaaaarabaaaa";
        let block = nfa(&a, input);
        for engine_name in ["skip", "noskip"] {
            let mut e = NfaEngine::new(&a).expect("nfa builds");
            e.set_quiescent_skip(engine_name == "skip");
            for plan in plans(input.len()) {
                let got = stream(&mut e, input, &plan);
                assert_eq!(
                    got, block,
                    "{mode:?}/{engine_name} diverges on plan {plan:?}"
                );
                e.reset_stream();
            }
        }
    }
}

#[test]
fn quiescent_skip_agrees_across_chunk_plans() {
    // A machine that goes quiescent mid-input (no active states, narrow
    // wake set) exercises the skip fast path across feed boundaries.
    let a = words(&[b"zq"]);
    let mut input = vec![b'.'; 40];
    input[17] = b'z';
    input[18] = b'q';
    assert_stream_invariant(&a, &input);
}
