//! `azoo-perf`: the repository's one seeded benchmark. See README.md.
//!
//! ```text
//! azoo-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     One run of one workload (the form BENCHMARK.json names). The last
//!     stdout line is the result object; --trace 1 runs the traced pass
//!     and reports the per-layer metrics instead of the end-to-end ones.
//! azoo-perf run (--all | --workload <name>) [--seed <n>] [--seconds <s>]
//!               [--runs <r>] [--trace] [--out <file>]
//!     Runs each workload <r> times, each in a child process of its own,
//!     and writes one azoo-perf-v1 document.
//! azoo-perf compare <parent.json> <change.json>
//!     Applies each metric's bound per (workload, metric); exits 1 on any
//!     regression or any increase in failed operations.
//! azoo-perf bless
//!     Regenerates expected.json from the reference engine.
//!
//! Every measuring form also takes --inject-slowdown <factor>, which
//! busy-waits inside each timed operation (used to test `compare`).
//! ```

mod compare;
mod e2e;
mod expected;
mod inproc;
mod layers;
mod report;
mod roster;
mod schema;
mod serve;
mod setup;
mod stats;
#[cfg(test)]
mod tests;
mod trace;

use std::process::ExitCode;

use azoo_core::json::Json;
use azoo_zoo::Scale;

use crate::e2e::RunOpts;
use crate::report::RunRecord;
use crate::roster::{Workload, WORKLOADS};
use crate::stats::{compact, num, obj};

/// Measured seconds per run when `--seconds` is not given; the value
/// BENCHMARK.json names as `run_seconds`.
const DEFAULT_SECONDS: f64 = 12.0;

/// Extracts the value following `--flag`.
fn arg_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match arg_value(args, flag) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("{flag}: cannot read {v:?}")),
    }
}

fn run_opts(args: &[String]) -> Result<RunOpts, String> {
    let opts = RunOpts {
        scale: Scale::Small,
        seed: parsed(args, "--seed", 0)?,
        seconds: parsed(args, "--seconds", DEFAULT_SECONDS)?,
        slowdown: parsed(args, "--inject-slowdown", 1.0)?,
    };
    if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    if !(opts.slowdown >= 1.0 && opts.slowdown <= 100.0) {
        return Err("--inject-slowdown must be in [1, 100]".into());
    }
    Ok(opts)
}

fn named_workload(args: &[String]) -> Result<&'static Workload, String> {
    let name = arg_value(args, "--workload").ok_or("--workload is required")?;
    roster::workload(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; one of {}", names.join(", "))
    })
}

/// The result line the driver reads: exactly these four keys.
fn result_line(attempted: u64, failed: u64, metrics: &[(&str, &str, f64)]) -> String {
    let metrics = metrics
        .iter()
        .map(|&(name, unit, value)| {
            (
                name.to_string(),
                obj([("value", num(value)), ("unit", Json::Str(unit.into()))]),
            )
        })
        .collect();
    compact(&obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Int(attempted as i64)),
        ("failed", Json::Int(failed as i64)),
        ("metrics", Json::Obj(metrics)),
    ]))
}

/// One run of one workload in this process.
fn single(args: &[String]) -> Result<ExitCode, String> {
    let w = named_workload(args)?;
    let opts = run_opts(args)?;
    let trace = match arg_value(args, "--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    println!(
        "azoo-perf {}: seed {}, {} s measured, tracing {}",
        w.name,
        opts.seed,
        opts.seconds,
        if trace { "on" } else { "off" }
    );
    if trace {
        let run = layers::run(w, opts);
        println!("forced-tier warm MB/s: nfa, lazy_dfa, prefilter, bitpar, sheng");
        for row in &run.rows {
            println!("{row}");
        }
        run.print_self_times();
        let path = setup::scratch_dir().join(format!("azoo-perf-spans-{}.jsonl", w.name));
        match run.timer.write_spans(&path) {
            Ok(()) => println!(
                "{} spans written to {}",
                run.timer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("azoo-perf: cannot write {}: {e}", path.display()),
        }
        let metrics: Vec<(&str, &str, f64)> = run
            .metrics
            .iter()
            .zip(&schema::PER_LAYER)
            .map(|(&(name, value), def)| (name, def.unit, value))
            .collect();
        for (name, unit, value) in &metrics {
            println!("{name:<40} {value:>16.4} {unit}");
        }
        println!("{}", result_line(run.attempted, run.failed, &metrics));
    } else {
        let run = e2e::run(w, opts);
        run.print_rows(w);
        let metrics: Vec<(&str, &str, f64)> = run
            .metrics()
            .into_iter()
            .zip(&schema::END_TO_END)
            .map(|((name, value), def)| (name, def.unit, value))
            .collect();
        for (name, unit, value) in &metrics {
            println!("{name:<16} {value:>14.4} {unit}");
        }
        println!("detail {}", compact(&run.detail()));
        println!("{}", result_line(run.attempted(), run.failed(), &metrics));
    }
    Ok(ExitCode::SUCCESS)
}

/// Runs `single` in a child process (a fresh address space, so
/// `peak_rss_mb` is the workload's own) and returns its stdout.
fn child(w: &Workload, opts: RunOpts, trace: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = std::process::Command::new(exe)
        .args(["--workload", w.name])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--inject-slowdown", &opts.slowdown.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!("{} exited with {}", w.name, output.status));
    }
    String::from_utf8(output.stdout).map_err(|e| e.to_string())
}

/// Echoes a child's human-readable rows, leaving the two JSON lines out.
fn print_rows(stdout: &str) {
    for line in stdout.lines() {
        if !line.starts_with('{') && !line.starts_with("detail ") {
            println!("{line}");
        }
    }
}

/// `run`: several runs per workload, one document out.
fn run_set(args: &[String]) -> Result<ExitCode, String> {
    let workloads: Vec<&Workload> = if args.iter().any(|a| a == "--all") {
        WORKLOADS.iter().collect()
    } else {
        vec![named_workload(args)?]
    };
    let opts = run_opts(args)?;
    let runs: usize = parsed(args, "--runs", 1)?;
    let trace = args.iter().any(|a| a == "--trace");
    let mut entries = Vec::new();
    let mut failed = 0;
    for w in workloads {
        let mut records = Vec::new();
        for r in 0..runs {
            eprintln!("azoo-perf: {} run {}/{}", w.name, r + 1, runs);
            let stdout = child(w, opts, false)?;
            if r == 0 {
                // The rows of the first run; later runs only add values.
                print_rows(&stdout);
            }
            records.push(RunRecord::parse(&stdout)?);
        }
        let layers = if trace {
            eprintln!("azoo-perf: {} traced run", w.name);
            let stdout = child(w, opts, true)?;
            print_rows(&stdout);
            let record = RunRecord::parse(&stdout)?;
            failed += record.failed;
            Some(record.metrics)
        } else {
            None
        };
        failed += records.iter().map(|r| r.failed).sum::<u64>();
        entries.push(report::workload_entry(w, &records, layers.as_deref()));
    }
    let [warm, stream, cold] = inproc::MODE_SHARES;
    let settings = obj([
        ("seed", Json::Int(opts.seed as i64)),
        ("seconds", num(opts.seconds)),
        ("runs", Json::Int(runs as i64)),
        ("inject_slowdown", num(opts.slowdown)),
        ("setup_repetitions_min", Json::Int(e2e::SETUP_REPS.0 as i64)),
        ("setup_repetitions_max", Json::Int(e2e::SETUP_REPS.1 as i64)),
        ("rounds", Json::Int(i64::from(inproc::ROUNDS))),
        ("serve_windows", Json::Int(i64::from(e2e::SERVE_WINDOWS))),
        (
            "slice_shares",
            obj([
                ("warm", num(warm)),
                ("stream", num(stream)),
                ("cold", num(cold)),
            ]),
        ),
    ]);
    let doc = report::document(settings, entries).pretty() + "\n";
    match arg_value(args, "--out") {
        Some(path) => {
            std::fs::write(path, doc).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("azoo-perf: wrote {path}");
        }
        None => print!("{doc}"),
    }
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("azoo-perf: {failed} operations failed");
        ExitCode::FAILURE
    })
}

fn compare_docs(args: &[String]) -> Result<ExitCode, String> {
    let [parent, change] = args else {
        return Err("compare takes <parent.json> <change.json>".into());
    };
    let read = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| report::parse_document(&text).map_err(|e| format!("{path}: {e}")))
    };
    let rows = compare::compare(&read(parent)?, &read(change)?);
    if rows.is_empty() {
        return Err("the two documents share no workload".into());
    }
    Ok(if compare::print(&rows) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_set(&args[1..]),
        Some("compare") => compare_docs(&args[1..]),
        Some("bless") => expected::bless()
            .map(|()| ExitCode::SUCCESS)
            .map_err(|e| e.to_string()),
        _ => single(&args),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("azoo-perf: {message}");
        eprintln!("see the head of azoo-perf/src/main.rs for the command forms");
        ExitCode::from(2)
    })
}
