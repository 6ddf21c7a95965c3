//! Regenerates **Table IV**: Random Forest classification throughput of
//! automata-based execution versus native decision-tree inference
//! (Section VIII's full-kernel comparison, possible only because the
//! benchmark computes the complete trained model).
//!
//! Rows:
//! * lazy-DFA engine (the Hyperscan stand-in, = 1x baseline)
//! * parallel scanner (sharded/chunked NFA across `--threads` workers)
//! * with `--prefilter`: the literal-prefilter engine, single-threaded
//!   (the parallel row also gates its shards behind the prefilter)
//! * native forest inference, single-threaded (the scikit-learn row)
//! * native forest inference, multi-threaded (scikit-learn MT)
//! * REAPR FPGA analytic model (clock x symbols, as the paper computes)
//!
//! Usage: `table4 [--scale tiny|small|full] [--threads N] [--prefilter]
//! [--metrics-json PATH]`
//!
//! `--metrics-json` exports the engine-row scan counters in the
//! `azoo-serve-metrics-v1` schema (each timed automata scan recorded as
//! one feed), so serve-side dashboards can ingest offline table runs.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]

use std::time::Instant;

use azoo_engines::{CountSink, Engine, LazyDfaEngine, ParallelScanner, PrefilterEngine};
use azoo_harness::{
    arg_value, flag_present, scale_from_args, time_scan_with, write_metrics_json, Table,
};
use azoo_ml::SpatialModel;
use azoo_serve::MetricsRegistry;
use azoo_zoo::random_forest::{build, RandomForestParams, Variant};
use azoo_zoo::Scale;

fn main() {
    let scale = scale_from_args();
    let args: Vec<String> = std::env::args().collect();
    let threads: usize = arg_value(&args, "--threads")
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(std::thread::available_parallelism().map_or(4, |n| n.get()));
    let prefilter = flag_present(&args, "--prefilter");
    let mut params = RandomForestParams::published(Variant::B);
    match scale {
        Scale::Tiny => {
            params.trees = 5;
            params.train_samples = 500;
            params.test_samples = 100;
        }
        Scale::Small => {
            params.trees = 10;
            params.train_samples = 2000;
            params.test_samples = 300;
        }
        Scale::Full => {}
    }
    println!(
        "== Table IV: Random Forest throughput (variant B, scale: {scale:?}, \
         {} test classifications, {threads} threads) ==\n",
        params.test_samples
    );
    let bench = build(&params);
    let n = bench.test.len();
    println!(
        "model: {} trees, {} chains, {} automaton states, {} symbols/classification, \
         accuracy {:.1}%\n",
        params.trees,
        bench.forest.total_leaves(),
        bench.fa.automaton.state_count(),
        bench.fa.symbols_per_classification,
        bench.accuracy * 100.0
    );

    let mut rows: Vec<(String, f64)> = Vec::new();
    let metrics = MetricsRegistry::new();
    let a = &bench.fa.automaton;
    let mut engines: Vec<(String, Box<dyn Engine>)> = vec![
        (
            "Lazy DFA (Hyperscan)".into(),
            Box::new(LazyDfaEngine::with_max_states(a, 1 << 16).expect("no counters")),
        ),
        // Sharded/chunked NFA across worker threads.
        (
            format!("Parallel NFA x{threads}"),
            Box::new(ParallelScanner::with_prefilter(a, threads, prefilter).expect("valid")),
        ),
    ];
    // Literal-prefilter engine (opt-in row; the RF chains carry narrow
    // feature-range classes, so this documents how much of the model the
    // literal analysis can actually gate).
    if prefilter {
        let pf = PrefilterEngine::new(a).expect("valid");
        let label = format!("Prefilter NFA ({:.0}% cov)", pf.coverage() * 100.0);
        engines.push((label, Box::new(pf)));
    }
    // Each timed automata scan is recorded as one "feed" so
    // --metrics-json exports the run in the serve schema.
    for (label, mut engine) in engines {
        let mut sink = CountSink::new();
        let secs = time_scan_with(engine.as_mut(), &bench.input, &mut sink);
        metrics.record_feed(bench.input.len() as u64, sink.count(), (secs * 1e9) as u64);
        rows.push((label, n as f64 / secs / 1e3));
    }
    // Native, single-threaded. Repeat to get a measurable duration.
    {
        let reps = (10_000 / n).max(1);
        let t = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(bench.forest.predict_batch(&bench.test));
        }
        let kcps = (n * reps) as f64 / t.elapsed().as_secs_f64() / 1e3;
        rows.push(("Native trees (Scikit)".into(), kcps));
    }
    // Native, multi-threaded.
    {
        let reps = (20_000 / n).max(1);
        let t = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(bench.forest.predict_batch_parallel(&bench.test, threads));
        }
        let kcps = (n * reps) as f64 / t.elapsed().as_secs_f64() / 1e3;
        rows.push((format!("Native trees MT x{threads}"), kcps));
    }
    // FPGA analytic model.
    {
        let model = SpatialModel::REAPR_KU060;
        let kcps = model.items_per_second_partitioned(
            bench.fa.symbols_per_classification,
            bench.fa.automaton.state_count(),
        ) / 1e3;
        rows.push((format!("{} (model)", model.name), kcps));
    }

    let baseline = rows[0].1;
    let table = Table::new(&[
        ("Engine / algorithm", 26),
        ("kClass/s", 10),
        ("Speedup", 9),
        ("Paper", 7),
    ]);
    let mut paper = vec!["1x", "-", "141.5x", "401.1x", "817.9x"];
    if prefilter {
        paper.insert(2, "-");
    }
    for ((name, kcps), paper_cell) in rows.iter().zip(paper) {
        table.row(&[
            name.clone(),
            format!("{kcps:.2}"),
            format!("{:.1}x", kcps / baseline),
            paper_cell.into(),
        ]);
    }
    println!(
        "\npaper shape to check: native decision trees dominate CPU automata \
         execution by orders of magnitude; the spatial architecture beats \
         CPU automata execution. (Our native rows are compiled Rust, not \
         Python scikit-learn, so the native-vs-FPGA crossover shifts — see \
         EXPERIMENTS.md.)"
    );
    write_metrics_json(&args, &metrics);
}
