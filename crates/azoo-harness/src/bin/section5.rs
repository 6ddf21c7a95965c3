//! Regenerates the **Section V** experiment: improving the Snort
//! benchmark's representative behaviour by excluding rules whose patterns
//! are only meaningful inside packet sub-buffers.
//!
//! The paper observes: the raw regex set reports on almost every input
//! byte; dropping rules with Snort-specific regex modifiers cuts the
//! report rate ~5x; additionally dropping `isdataat` rules (including one
//! extreme outlier responsible for over half of all reports) cuts a
//! further ~2x.
//!
//! Usage: `section5 [--scale tiny|small|full] [--threads N] [--prefilter]
//! [--metrics-json PATH]`
//!
//! `--metrics-json` exports the three ruleset scans as feeds in the
//! `azoo-serve-metrics-v1` schema shared with the serve binaries.
//!
//! With `--threads N` the rulesets are scanned by the multi-threaded
//! [`ParallelScanner`]; with `--prefilter` the scan runs behind the
//! literal-prefilter engine (per shard when threaded). The report stream
//! (and thus every number in the table) is identical in every mode.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]

use azoo_engines::{CollectSink, Engine, NfaEngine, ParallelScanner, PrefilterEngine};
use azoo_harness::{
    flag_present, fmt_count, positive_arg, scale_from_args, time_scan_with, write_metrics_json,
    Table,
};
use azoo_serve::MetricsRegistry;
use azoo_workloads::network::{pcap_like, PcapConfig};
use azoo_zoo::snort::{compile_rules, filter_rules, generate_ruleset};
use azoo_zoo::Scale;

fn main() {
    let scale = scale_from_args();
    let args: Vec<String> = std::env::args().collect();
    let threads = positive_arg(&args, "--threads", 1);
    let prefilter = flag_present(&args, "--prefilter");
    let (n_rules, input_len) = match scale {
        Scale::Tiny => (400, 1 << 16),
        Scale::Small => (1200, 1 << 18),
        Scale::Full => (3200, 1 << 20),
    };
    println!(
        "== Section V: Snort rule filtering (scale: {scale:?}, {n_rules} rules, \
         {input_len}-byte PCAP-like stream, {threads} scan thread{}{}) ==\n",
        if threads == 1 { "" } else { "s" },
        if prefilter { ", prefilter on" } else { "" }
    );
    let rules = generate_ruleset(0x5210, n_rules);
    let input = pcap_like(
        0xCAFE,
        &PcapConfig {
            len: input_len,
            ..PcapConfig::default()
        },
    );

    let stages: [(&str, bool, bool); 3] = [
        ("all compilable rules", false, false),
        ("- buffer-modifier rules", true, false),
        ("- isdataat rules too", true, true),
    ];
    let table = Table::new(&[
        ("Ruleset", 26),
        ("Rules", 7),
        ("Reports", 12),
        ("Rep/KB", 10),
        ("Drop", 7),
    ]);
    let metrics = MetricsRegistry::new();
    let mut prev_rate = None;
    let mut outlier_share = 0.0;
    for (name, no_buffer, no_isdataat) in stages {
        let kept = filter_rules(&rules, no_buffer, no_isdataat);
        let ruleset = compile_rules(&kept);
        let mut engine: Box<dyn Engine> = if threads > 1 {
            Box::new(
                ParallelScanner::with_prefilter(&ruleset.automaton, threads, prefilter)
                    .expect("valid"),
            )
        } else if prefilter {
            Box::new(PrefilterEngine::new(&ruleset.automaton).expect("valid"))
        } else {
            Box::new(NfaEngine::new(&ruleset.automaton).expect("valid"))
        };
        let mut sink = CollectSink::new();
        let nanos = (time_scan_with(engine.as_mut(), &input, &mut sink) * 1e9) as u64;
        let reports = sink.reports().len();
        metrics.record_feed(input.len() as u64, reports as u64, nanos);
        let rate = reports as f64 / (input.len() as f64 / 1024.0);
        let drop = prev_rate
            .map(|p: f64| format!("{:.1}x", p / rate.max(1e-9)))
            .unwrap_or_else(|| "-".into());
        table.row(&[
            name.into(),
            kept.len().to_string(),
            fmt_count(reports),
            format!("{rate:.1}"),
            drop,
        ]);
        prev_rate = Some(rate);
        if no_buffer && !no_isdataat {
            // Identify the single loudest rule (the paper's outlier,
            // observed after the buffer-modifier exclusion).
            let mut counts = std::collections::HashMap::new();
            for r in sink.reports() {
                *counts.entry(r.code).or_insert(0usize) += 1;
            }
            // Ties go to the lowest code so reruns print the same rule.
            if let Some((&code, &max)) = counts
                .iter()
                .max_by_key(|&(&code, &c)| (c, std::cmp::Reverse(code)))
            {
                outlier_share = max as f64 / reports.max(1) as f64;
                println!(
                    "  (loudest rule: #{code} with {} reports = {:.0}% of all)",
                    fmt_count(max),
                    outlier_share * 100.0
                );
            }
        }
    }
    println!(
        "\npaper shape to check: ~5x drop from excluding buffer-modifier \
         rules, a further ~2x from isdataat rules, and a single outlier \
         rule dominating the unfiltered report stream \
         (ours: {:.0}%).",
        outlier_share * 100.0
    );
    write_metrics_json(&args, &metrics);
}
