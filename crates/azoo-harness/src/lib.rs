//! Shared infrastructure for the table/figure regeneration binaries.
//!
//! Each binary regenerates one artifact of the AutomataZoo paper:
//!
//! | binary     | artifact |
//! |------------|----------|
//! | `table1`   | Table I — the 27-row benchmark-suite statistics table |
//! | `table2`   | Table II — Random Forest variant trade-offs |
//! | `table3`   | Table III — AP-padding overhead on CPU engines |
//! | `table4`   | Table IV — Random Forest throughput across engines |
//! | `fig1`     | Figure 1 + Table V — profile-driven mesh pruning |
//! | `section5` | Section V — Snort rule-filtering report-rate drops |
//! | `ablation` | DESIGN.md §7 — pass/engine/striding ablations |
//! | `summary`  | suite overview — every benchmark's domain and sizes |
//! | `azoo-serve` | the multi-tenant streaming scan server (README "Serving") |
//! | `azoo-loadgen` | load generator / smoke client for `azoo-serve` |
//!
//! `table4` and `section5` accept `--metrics-json <path>` to export
//! their scan counters in the same `azoo-serve-metrics-v1` schema the
//! service emits, so one set of tooling reads both offline runs and
//! server snapshots.
//!
//! All table/figure binaries accept `--scale tiny|small|full` (default `small`);
//! `table1`, `table4`, `section5`, and `ablation` also accept
//! `--threads N` (default 1 in `table1` and `section5`, the machine's
//! cores in `table4`, capped at 8 in `ablation`). Every numeric flag —
//! `--threads`, `table1 --profile-bytes`, `table3 --filters`, and
//! `azoo-loadgen --connections/--sessions/--chunk` — is read by
//! [`positive_arg`]: zero or a non-number prints a usage line and exits
//! 2, as an unknown `--scale` does. `table1` and `section5` scan on the
//! engine the server would pick,
//! [`select_session_engine_threaded`]`(a, threads)`: the portfolio's
//! tier at one thread, the [`ParallelScanner`] above; the report stream
//! is byte-identical at every thread count. `table4` keeps one row per
//! engine; its `--prefilter` flag adds the literal-prefilter row and
//! gates the parallel row's shards behind the prefilter.
//!
//! [`ParallelScanner`]: azoo_engines::ParallelScanner
//! [`select_session_engine_threaded`]: azoo_engines::select_session_engine_threaded

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]

use std::time::Instant;

use azoo_engines::{Engine, NullSink, ReportSink};
use azoo_zoo::Scale;

/// Parses `--scale` from argv; defaults to [`Scale::Small`]. An
/// unknown scale prints a usage line and exits 2.
pub fn scale_from_args() -> Scale {
    let args: Vec<String> = std::env::args().collect();
    parse_scale(&args).unwrap_or_else(|e| usage_exit(&e))
}

/// Parses the positive integer after `flag` in `args`; `default` when
/// the flag is absent. Zero and unparsable values print a usage line and
/// exit 2.
pub fn positive_arg(args: &[String], flag: &str, default: usize) -> usize {
    parse_positive(args, flag, default).unwrap_or_else(|e| usage_exit(&e))
}

fn parse_scale(args: &[String]) -> Result<Scale, String> {
    match arg_value(args, "--scale").as_deref() {
        Some("tiny") => Ok(Scale::Tiny),
        Some("full") => Ok(Scale::Full),
        Some("small") | None => Ok(Scale::Small),
        Some(other) => Err(format!("unknown --scale '{other}'")),
    }
}

fn parse_positive(args: &[String], flag: &str, default: usize) -> Result<usize, String> {
    match arg_value(args, flag) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| format!("{flag} expects a positive integer, got '{v}'")),
    }
}

fn usage_exit(error: &str) -> ! {
    eprintln!(
        "{error}\nusage: [--scale tiny|small|full] [--threads N] (numeric flags take N >= 1)"
    );
    std::process::exit(2);
}

/// Extracts the value following a `--flag` in argv.
pub fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// True when a bare `--flag` is present in argv.
pub fn flag_present(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Writes `registry` as `azoo-serve-metrics-v1` JSON to the path given
/// by `--metrics-json`, if the flag is present. Errors are reported to
/// stderr, not fatal: metrics export never fails a table run.
pub fn write_metrics_json(args: &[String], registry: &azoo_serve::MetricsRegistry) {
    if let Some(path) = arg_value(args, "--metrics-json") {
        let mut text = registry.to_json_string();
        text.push('\n');
        match std::fs::write(&path, text) {
            Ok(()) => eprintln!("metrics JSON written to {path}"),
            Err(e) => eprintln!("failed to write metrics JSON to {path}: {e}"),
        }
    }
}

/// Times one engine scan; returns `(seconds, MB/s)`.
pub fn time_scan(engine: &mut dyn Engine, input: &[u8]) -> (f64, f64) {
    let mut sink = NullSink::new();
    let t = Instant::now();
    engine.scan(input, &mut sink);
    let secs = t.elapsed().as_secs_f64();
    (secs, input.len() as f64 / secs / 1e6)
}

/// Times one engine scan with a custom sink; returns seconds.
pub fn time_scan_with(engine: &mut dyn Engine, input: &[u8], sink: &mut dyn ReportSink) -> f64 {
    let t = Instant::now();
    engine.scan(input, sink);
    t.elapsed().as_secs_f64()
}

/// A minimal fixed-width table printer.
pub struct Table {
    widths: Vec<usize>,
}

impl Table {
    /// Starts a table and prints the header row.
    pub fn new(headers: &[(&str, usize)]) -> Table {
        let widths: Vec<usize> = headers.iter().map(|(_, w)| *w).collect();
        let mut line = String::new();
        for ((h, _), w) in headers.iter().zip(&widths) {
            line.push_str(&format!("{h:>w$}  "));
        }
        println!("{line}");
        println!("{}", "-".repeat(line.len()));
        Table { widths }
    }

    /// Prints one row.
    pub fn row(&self, cells: &[String]) {
        let mut line = String::new();
        for (c, w) in cells.iter().zip(&self.widths) {
            line.push_str(&format!("{c:>w$}  "));
        }
        println!("{line}");
    }
}

/// Human-formats a count with thousands separators.
pub fn fmt_count(n: usize) -> String {
    let s = n.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn fmt_count_groups_thousands() {
        assert_eq!(fmt_count(5), "5");
        assert_eq!(fmt_count(1234), "1,234");
        assert_eq!(fmt_count(2374717), "2,374,717");
    }

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn threads_default_and_parse() {
        assert_eq!(
            positive_arg(&argv(&["bin", "--threads", "4"]), "--threads", 1),
            4
        );
        assert_eq!(positive_arg(&argv(&["bin"]), "--threads", 1), 1);
        assert_eq!(
            positive_arg(&argv(&["bin", "--chunk", "64"]), "--chunk", 7),
            64
        );
        // Bad values fail typed (the pub wrapper turns this into exit 2).
        for bad in ["0", "abc", "-3", ""] {
            assert!(parse_positive(&argv(&["bin", "--filters", bad]), "--filters", 16).is_err());
        }
    }

    #[test]
    fn unknown_scale_is_an_error_not_small() {
        assert_eq!(parse_scale(&argv(&["bin"])), Ok(Scale::Small));
        assert!(parse_scale(&argv(&["bin", "--scale", "huge"])).is_err());
    }

    #[test]
    fn arg_value_finds_flag() {
        let args: Vec<String> = ["bin", "--scale", "full"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(arg_value(&args, "--scale").as_deref(), Some("full"));
        assert_eq!(arg_value(&args, "--missing"), None);
    }

    #[test]
    fn flag_present_detects_bare_flags() {
        let args: Vec<String> = ["bin", "--prefilter", "--scale", "tiny"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(flag_present(&args, "--prefilter"));
        assert!(!flag_present(&args, "--profile"));
    }
}
