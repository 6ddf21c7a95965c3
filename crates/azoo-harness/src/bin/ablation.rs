//! Ablations for the design choices DESIGN.md §7 calls out:
//!
//! 1. **Prefix merging**: state count, active set, and NFA throughput
//!    before/after the optimization.
//! 2. **Engine choice**: the same benchmark on the sparse NFA engine vs
//!    the lazy DFA.
//! 3. **Striding**: the File Carving patterns executed as bit-level
//!    automata (8 bit-symbols per byte) vs the 8-strided byte automata.
//! 4. **Counters**: report volume of Sequence Matching with and without
//!    support counters.
//! 5. **Parallel scanning**: Snort throughput of the sharding/chunking
//!    [`ParallelScanner`] as the worker count doubles up to `--threads`.
//! 6. **Quiescence + prefilter**: sparse-benchmark throughput with the
//!    NFA's quiescent skip disabled/enabled, and again behind the
//!    literal-prefilter engine — reports identical in all three modes.
//!
//! Usage: `ablation [--scale tiny|small|full] [--threads N]`

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]

use azoo_core::{Automaton, CounterMode};
use azoo_engines::{CountSink, Engine, LazyDfaEngine, NfaEngine, ParallelScanner, PrefilterEngine};
use azoo_harness::{fmt_count, positive_arg, scale_from_args, time_scan, Table};
use azoo_passes::merge_prefixes;
use azoo_zoo::{sequence_match, BenchmarkId, Scale};

fn main() {
    let scale = scale_from_args();
    let args: Vec<String> = std::env::args().collect();
    // Sweep worker counts up to --threads (default: the machine, capped
    // at 8 so the table stays readable).
    let max_threads = positive_arg(
        &args,
        "--threads",
        std::thread::available_parallelism()
            .map_or(4, |n| n.get())
            .min(8),
    );
    println!("== Ablations (scale: {scale:?}) ==");
    prefix_merge_ablation(scale);
    engine_ablation(scale);
    striding_ablation(scale);
    counter_ablation(scale);
    parallel_ablation(scale, max_threads);
    prefilter_ablation(scale);
}

fn profile_and_speed(a: &Automaton, input: &[u8]) -> (f64, f64) {
    let mut engine = NfaEngine::new(a).expect("valid");
    let mut sink = azoo_engines::NullSink::new();
    let window = input.len().min(1 << 16);
    let profile = engine.scan_profiled(&input[..window], &mut sink);
    let (_, mbps) = time_scan(&mut engine, &input[..window]);
    (profile.active_set(), mbps)
}

fn prefix_merge_ablation(scale: Scale) {
    println!("\n-- 1. prefix merging (VASim's standard optimization) --\n");
    let table = Table::new(&[
        ("Benchmark", 18),
        ("States", 10),
        ("Merged", 10),
        ("AS before", 10),
        ("AS after", 10),
        ("MB/s before", 12),
        ("MB/s after", 11),
    ]);
    for id in [BenchmarkId::Snort, BenchmarkId::Brill, BenchmarkId::ClamAv] {
        let bench = id.build(scale);
        let (merged, _) = merge_prefixes(&bench.automaton);
        let (as_before, speed_before) = profile_and_speed(&bench.automaton, &bench.input);
        let (as_after, speed_after) = profile_and_speed(&merged, &bench.input);
        table.row(&[
            id.name().into(),
            fmt_count(bench.automaton.state_count()),
            fmt_count(merged.state_count()),
            format!("{as_before:.1}"),
            format!("{as_after:.1}"),
            format!("{speed_before:.1}"),
            format!("{speed_after:.1}"),
        ]);
    }
    println!("\nexpected: fewer states and a smaller active set -> higher NFA throughput.");
}

fn engine_ablation(scale: Scale) {
    println!("\n-- 2. engine choice on the same automaton --\n");
    let table = Table::new(&[
        ("Benchmark", 18),
        ("NFA MB/s", 10),
        ("LazyDFA MB/s", 13),
        ("DFA states", 11),
        ("Flushes", 8),
    ]);
    for id in [
        BenchmarkId::Brill,
        BenchmarkId::Protomata,
        BenchmarkId::EntityResolution,
    ] {
        let bench = id.build(scale);
        let window = bench.input.len().min(1 << 18);
        let input = &bench.input[..window];
        let mut nfa = NfaEngine::new(&bench.automaton).expect("valid");
        let (_, nfa_mbps) = time_scan(&mut nfa, input);
        let mut dfa =
            LazyDfaEngine::with_max_states(&bench.automaton, 1 << 16).expect("no counters");
        // Warm, then measure steady state.
        let mut sink = azoo_engines::NullSink::new();
        dfa.scan(&input[..window.min(1 << 15)], &mut sink);
        let (_, dfa_mbps) = time_scan(&mut dfa, input);
        table.row(&[
            id.name().into(),
            format!("{nfa_mbps:.1}"),
            format!("{dfa_mbps:.1}"),
            fmt_count(dfa.cached_states()),
            dfa.flush_count().to_string(),
        ]);
    }
    println!("\nexpected: the DFA wins where determinization stays small, and");
    println!("degrades (flushes) where subset construction explodes.");
}

fn striding_ablation(scale: Scale) {
    println!("\n-- 3. bit-level vs 8-strided File Carving --\n");
    use azoo_regex::{compile_pattern, Flags, Pattern};
    use azoo_zoo::file_carving;
    // Bit-level automaton for the zip local header.
    let bit_pattern = Pattern {
        ast: file_carving::zip_local_header_bits(),
        anchored_start: false,
        anchored_end: false,
        flags: Flags::default(),
    };
    let bit_nfa = compile_pattern(&bit_pattern, 0).expect("well-formed");
    let byte_nfa = azoo_passes::stride8(&bit_nfa).expect("strides");
    let input_len = match scale {
        Scale::Tiny => 1 << 16,
        Scale::Small => 1 << 18,
        Scale::Full => 1 << 20,
    };
    let byte_input = azoo_workloads::media::carving_stimulus(
        3,
        &azoo_workloads::media::CarvingConfig {
            len: input_len,
            ..Default::default()
        },
    );
    // The bit automaton consumes one symbol per *bit* (MSB first).
    let bit_input: Vec<u8> = byte_input
        .iter()
        .flat_map(|&b| (0..8).map(move |i| (b >> (7 - i)) & 1))
        .collect();
    let mut bit_engine = NfaEngine::new(&bit_nfa).expect("valid");
    let mut byte_engine = NfaEngine::new(&byte_nfa).expect("valid");
    let mut bit_sink = CountSink::new();
    let mut byte_sink = CountSink::new();
    let bit_secs = azoo_harness::time_scan_with(&mut bit_engine, &bit_input, &mut bit_sink);
    let byte_secs = azoo_harness::time_scan_with(&mut byte_engine, &byte_input, &mut byte_sink);
    println!(
        "bit-level:  {} states, {} reports, {:.3}s for {} bit-symbols ({:.2} MB/s of data)",
        fmt_count(bit_nfa.state_count()),
        bit_sink.count(),
        bit_secs,
        fmt_count(bit_input.len()),
        byte_input.len() as f64 / bit_secs / 1e6
    );
    println!(
        "8-strided:  {} states, {} reports, {:.3}s for {} byte-symbols ({:.2} MB/s of data)",
        fmt_count(byte_nfa.state_count()),
        byte_sink.count(),
        byte_secs,
        fmt_count(byte_input.len()),
        byte_input.len() as f64 / byte_secs / 1e6
    );
    assert_eq!(
        bit_sink.count(),
        byte_sink.count(),
        "striding must preserve the report stream"
    );
    println!(
        "-> striding trades {:.1}x states for {:.1}x data throughput (reports identical)",
        byte_nfa.state_count() as f64 / bit_nfa.state_count() as f64,
        bit_secs / byte_secs
    );
}

fn parallel_ablation(scale: Scale, max_threads: usize) {
    println!("\n-- 5. parallel scanning (automaton sharding + input chunking) --\n");
    let bench = BenchmarkId::Snort.build(scale);
    let window = bench.input.len().min(1 << 18);
    let input = &bench.input[..window];
    let table = Table::new(&[
        ("Workers", 8),
        ("Shards", 7),
        ("Chunkable", 10),
        ("MB/s", 9),
        ("Speedup", 8),
    ]);
    let mut baseline = None;
    let mut threads = 1;
    while threads <= max_threads {
        let mut engine = ParallelScanner::new(&bench.automaton, threads).expect("valid");
        // Warm once (page in the input), then measure.
        let mut sink = azoo_engines::NullSink::new();
        engine.scan(&input[..window.min(1 << 14)], &mut sink);
        let (_, mbps) = time_scan(&mut engine, input);
        let base = *baseline.get_or_insert(mbps);
        table.row(&[
            threads.to_string(),
            engine.shard_count().to_string(),
            format!(
                "{}/{}",
                engine.chunkable_shard_count(),
                engine.shard_count()
            ),
            format!("{mbps:.1}"),
            format!("{:.2}x", mbps / base),
        ]);
        threads *= 2;
    }
    println!("\nexpected: near-linear scaling while shards/chunks outnumber workers;");
    println!("the merged report stream is byte-identical at every worker count.");
}

fn prefilter_ablation(scale: Scale) {
    println!("\n-- 6. quiescent skip + literal prefilter --\n");
    let table = Table::new(&[
        ("Benchmark", 18),
        ("no-skip MB/s", 13),
        ("skip MB/s", 10),
        ("prefilter MB/s", 15),
        ("Coverage", 9),
        ("Reports", 8),
    ]);
    for id in [BenchmarkId::Snort, BenchmarkId::ClamAv, BenchmarkId::Brill] {
        let bench = id.build(scale);
        let window = bench.input.len().min(1 << 18);
        let input = &bench.input[..window];
        let mut base = NfaEngine::new(&bench.automaton).expect("valid");
        base.set_quiescent_skip(false);
        let (_, base_mbps) = time_scan(&mut base, input);
        let mut skip = NfaEngine::new(&bench.automaton).expect("valid");
        let mut skip_sink = CountSink::new();
        let skip_secs = azoo_harness::time_scan_with(&mut skip, input, &mut skip_sink);
        let skip_mbps = input.len() as f64 / skip_secs / 1e6;
        let mut pf = PrefilterEngine::new(&bench.automaton).expect("valid");
        let mut pf_sink = CountSink::new();
        let pf_secs = azoo_harness::time_scan_with(&mut pf, input, &mut pf_sink);
        let pf_mbps = input.len() as f64 / pf_secs / 1e6;
        assert_eq!(
            skip_sink.count(),
            pf_sink.count(),
            "prefilter must preserve the report stream"
        );
        table.row(&[
            id.name().into(),
            format!("{base_mbps:.1}"),
            format!("{skip_mbps:.1}"),
            format!("{pf_mbps:.1}"),
            format!("{:.0}%", pf.coverage() * 100.0),
            fmt_count(skip_sink.count() as usize),
        ]);
    }
    println!("\nexpected: the skip pays off while the automaton is quiescent between");
    println!("matches; the prefilter pays off when required literals gate most of");
    println!("the state space (coverage). Reports are identical in every mode.");
}

fn counter_ablation(scale: Scale) {
    println!("\n-- 4. counters vs counter-free Sequence Matching --\n");
    let filters = match scale {
        Scale::Tiny => 8,
        Scale::Small => 24,
        Scale::Full => 64,
    };
    let mut rng = azoo_workloads::rng(0xC0DE);
    let sequences: Vec<_> = (0..filters)
        .map(|_| sequence_match::generate_sequence(&mut rng, 3, 4))
        .collect();
    let mut plain = Automaton::new();
    let mut counted = Automaton::new();
    for (i, seq) in sequences.iter().enumerate() {
        sequence_match::append_filter(&mut plain, seq, i as u32, None, None);
        sequence_match::append_filter(
            &mut counted,
            seq,
            i as u32,
            Some((5, CounterMode::Latch)),
            None,
        );
    }
    // Drive with a stream that embeds each sequence repeatedly.
    let mut input = Vec::new();
    for (i, seq) in sequences.iter().enumerate() {
        input.extend(sequence_match::stream_with_sequence(i as u64, seq, 12));
    }
    let mut s1 = CountSink::new();
    let mut s2 = CountSink::new();
    NfaEngine::new(&plain).expect("valid").scan(&input, &mut s1);
    NfaEngine::new(&counted)
        .expect("valid")
        .scan(&input, &mut s2);
    println!(
        "plain:    {} reports over {} bytes",
        fmt_count(s1.count() as usize),
        fmt_count(input.len())
    );
    println!(
        "counters: {} reports (support >= 5, latched)",
        fmt_count(s2.count() as usize)
    );
    println!(
        "-> counters collapse the output stream {:.0}x (the paper's motivation \
         for the wC variants)",
        s1.count() as f64 / s2.count().max(1) as f64
    );
}
