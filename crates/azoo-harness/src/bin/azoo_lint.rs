//! `azoo-lint` — static analysis over MNRL files and zoo benchmarks.
//!
//! ```text
//! azoo-lint [TARGETS] [OPTIONS]
//!
//! Targets (default: --bench all):
//!   --mnrl FILE     lint an MNRL JSON file (repeatable)
//!   --bench NAME    lint a generated zoo benchmark (repeatable; `all`
//!                   lints every benchmark; names match Table I rows,
//!                   case- and punctuation-insensitively: `snort`,
//!                   `random-forest-a`, `hamming-18x3`, ...)
//!
//! Options:
//!   --scale S       benchmark scale: tiny (default) | small | full
//!   --reduce        run the reduction tier first and lint the reduced
//!                   automaton (what a reduce-then-compile path serves)
//!   --json          machine-readable JSON report on stdout
//!   --allow RULE    suppress a rule (repeatable)
//!   --deny RULE     promote a rule to Error (repeatable)
//!   --list-rules    print the rule registry and exit
//!
//! Concurrency mode (replaces the MNRL targets):
//!   --lock-graph    exercise the workspace's concurrent subsystems
//!                   (database cache, scan service, parallel scanner)
//!                   in-process and dump the observed lock-acquisition
//!                   graph recorded by azoo-sync
//!   --check         with --lock-graph: exit 2 if the graph has a cycle
//!                   (a latent lock-ordering deadlock)
//!
//! Exit status: 0 clean (warnings allowed), 1 any Error-level finding,
//! 2 usage or I/O error (or an acquisition cycle under
//! `--lock-graph --check`).
//! ```

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]

use azoo_analyze::{analyze_with, rule, rule_for_core_error, Diagnostic, Severity};
use azoo_analyze::{Level, LintConfig, RULES};
use azoo_core::json::Json;
use azoo_core::mnrl;
use azoo_zoo::{BenchmarkId, Scale};

fn main() {
    std::process::exit(run());
}

fn fail(msg: &str) -> i32 {
    eprintln!("azoo-lint: {msg}");
    2
}

fn usage() -> String {
    "usage: azoo-lint [--mnrl FILE]... [--bench NAME|all]... \
     [--scale tiny|small|full] [--reduce] [--json] [--allow RULE]... \
     [--deny RULE]... [--list-rules] | --lock-graph [--check]"
        .into()
}

/// Case- and punctuation-insensitive benchmark name key.
fn slug(name: &str) -> String {
    name.chars()
        .filter(char::is_ascii_alphanumeric)
        .map(|c| c.to_ascii_lowercase())
        .collect()
}

fn find_benchmark(name: &str) -> Option<BenchmarkId> {
    BenchmarkId::ALL
        .into_iter()
        .find(|id| slug(id.name()) == slug(name))
}

enum Target {
    Mnrl(String),
    Bench(BenchmarkId),
}

fn run() -> i32 {
    let args: Vec<String> = std::env::args().collect();
    let mut targets: Vec<Target> = Vec::new();
    let mut cfg = LintConfig::new();
    let mut scale = Scale::Tiny;
    let mut json = false;
    let mut reduce = false;
    let mut lock_graph = false;
    let mut check = false;
    let mut i = 1;
    let value_of = |args: &[String], i: usize| -> Result<String, String> {
        args.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{} needs a value\n{}", args[i], usage()))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--mnrl" => {
                match value_of(&args, i) {
                    Ok(f) => targets.push(Target::Mnrl(f)),
                    Err(e) => return fail(&e),
                }
                i += 2;
            }
            "--bench" => {
                let name = match value_of(&args, i) {
                    Ok(n) => n,
                    Err(e) => return fail(&e),
                };
                if slug(&name) == "all" {
                    targets.extend(BenchmarkId::ALL.into_iter().map(Target::Bench));
                } else {
                    match find_benchmark(&name) {
                        Some(id) => targets.push(Target::Bench(id)),
                        None => return fail(&format!("unknown benchmark '{name}'")),
                    }
                }
                i += 2;
            }
            "--scale" => {
                scale = match value_of(&args, i).as_deref() {
                    Ok("tiny") => Scale::Tiny,
                    Ok("small") => Scale::Small,
                    Ok("full") => Scale::Full,
                    Ok(other) => return fail(&format!("unknown scale '{other}'")),
                    Err(e) => return fail(e),
                };
                i += 2;
            }
            "--json" => {
                json = true;
                i += 1;
            }
            "--reduce" => {
                reduce = true;
                i += 1;
            }
            "--lock-graph" => {
                lock_graph = true;
                i += 1;
            }
            "--check" => {
                check = true;
                i += 1;
            }
            "--allow" | "--deny" => {
                let level = if args[i] == "--allow" {
                    Level::Allow
                } else {
                    Level::Error
                };
                let id = match value_of(&args, i) {
                    Ok(r) => r,
                    Err(e) => return fail(&e),
                };
                if rule(&id).is_none() {
                    return fail(&format!("unknown rule '{id}' (try --list-rules)"));
                }
                cfg.set_level(&id, level);
                i += 2;
            }
            "--list-rules" => {
                for r in RULES {
                    println!("{:<7} {:<28} {}", r.severity.to_string(), r.id, r.summary);
                }
                return 0;
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return 0;
            }
            other => return fail(&format!("unknown argument '{other}'\n{}", usage())),
        }
    }
    if lock_graph {
        if !targets.is_empty() {
            return fail("--lock-graph takes no lint targets");
        }
        return run_lock_graph(check);
    }
    if check {
        return fail("--check requires --lock-graph");
    }
    if targets.is_empty() {
        targets.extend(BenchmarkId::ALL.into_iter().map(Target::Bench));
    }

    // With --reduce, lint what a reduce-then-compile path would
    // actually serve. Invalid machines are linted as-is: the reduction
    // passes assume well-formed input, and the validation findings are
    // the interesting diagnostics anyway.
    let lint = |a: &azoo_core::Automaton| -> Vec<Diagnostic> {
        if reduce && a.validate().is_ok() {
            analyze_with(&azoo_passes::reduce(a).0, &cfg)
        } else {
            analyze_with(a, &cfg)
        }
    };

    let mut json_targets: Vec<Json> = Vec::new();
    let mut total_errors = 0usize;
    let mut total_warnings = 0usize;
    for target in &targets {
        let (name, diags) = match target {
            Target::Mnrl(path) => {
                let diags = match std::fs::read_to_string(path) {
                    Err(e) => return fail(&format!("cannot read {path}: {e}")),
                    Ok(text) => match mnrl::from_json(&text) {
                        Ok(a) => lint(&a),
                        Err(e) => core_error_diagnostics(&e, &cfg),
                    },
                };
                (path.clone(), diags)
            }
            Target::Bench(id) => {
                let bench = id.build(scale);
                (id.name().to_owned(), lint(&bench.automaton))
            }
        };
        let errors = diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count();
        let warnings = diags.len() - errors;
        total_errors += errors;
        total_warnings += warnings;
        if json {
            json_targets.push(Json::Obj(vec![
                ("name".into(), Json::Str(name)),
                (
                    "diagnostics".into(),
                    Json::Arr(diags.iter().map(Diagnostic::to_json).collect()),
                ),
                ("errors".into(), Json::Int(errors as i64)),
                ("warnings".into(), Json::Int(warnings as i64)),
            ]));
        } else if diags.is_empty() {
            println!("{name}: clean");
        } else {
            println!("{name}: {errors} error(s), {warnings} warning(s)");
            for d in &diags {
                println!("  {d}");
            }
        }
    }
    if json {
        let doc = Json::Obj(vec![
            ("targets".into(), Json::Arr(json_targets)),
            ("errors".into(), Json::Int(total_errors as i64)),
            ("warnings".into(), Json::Int(total_warnings as i64)),
        ]);
        println!("{}", doc.pretty());
    } else {
        println!(
            "{} target(s): {total_errors} error(s), {total_warnings} warning(s)",
            targets.len()
        );
    }
    i32::from(total_errors > 0)
}

/// `--lock-graph`: drives every concurrent subsystem in-process so their
/// lock acquisitions land in azoo-sync's global registry, then dumps the
/// observed acquisition graph. With `--check`, a cycle (a latent
/// lock-ordering deadlock that no single run needs to hit) exits 2.
///
/// Edges are recorded in release builds too — enforcement (the
/// inversion panic) is debug-only, observation is not — so this works
/// on the optimized binary CI actually ships.
fn run_lock_graph(check: bool) -> i32 {
    exercise_concurrency();
    let g = azoo_sync::graph::snapshot();
    print!("{}", g.to_text());
    if check && !g.cycles().is_empty() {
        eprintln!("azoo-lint: lock-acquisition graph has a cycle");
        return 2;
    }
    0
}

/// Touches each lock-nesting path the workspace actually has: database
/// compile + engine pool churn, concurrent cache resolution, the scan
/// service's session lifecycle across threads (including the
/// feed-deadline cancellation path, which checks the executor back in
/// while the session lock is held), and the parallel scanner's shared
/// merge accumulator.
fn exercise_concurrency() {
    use azoo_engines::{CollectSink, Engine, ParallelScanner};
    use azoo_serve::{Db, DbCache, DbConfig, ScanService, ServeLimits};
    use std::sync::Arc;
    use std::time::Duration;

    let mut a = azoo_core::Automaton::new();
    let s = a.add_ste(
        azoo_core::SymbolClass::from_byte(b'a'),
        azoo_core::StartKind::AllInput,
    );
    let t = a.add_ste(
        azoo_core::SymbolClass::from_byte(b'b'),
        azoo_core::StartKind::None,
    );
    a.add_edge(s, t);
    a.set_report(t, 1);

    // Cache: concurrent artifact resolution (DB_CACHE, bare).
    let db = Db::compile(a.clone(), DbConfig::default()).expect("compile");
    let bytes = db.serialize();
    let cache = Arc::new(DbCache::new());
    let loaders: Vec<_> = (0..4)
        .map(|_| {
            let (cache, bytes) = (cache.clone(), bytes.clone());
            std::thread::spawn(move || {
                cache.get_or_load(&bytes).expect("artifact loads");
            })
        })
        .collect();
    for h in loaders {
        h.join().expect("loader thread");
    }

    // Service: full session lifecycle across threads. close() holds the
    // session lock across engine check-in (→ DB_POOL) and tenant
    // release (→ SERVE_TENANTS) — the workspace's two nested chains.
    let svc = ScanService::new(ServeLimits::default());
    let workers: Vec<_> = (0..4)
        .map(|w| {
            let (svc, db) = (svc.clone(), db.clone());
            std::thread::spawn(move || {
                let tenant = format!("tenant-{w}");
                let sid = svc.open(&tenant, &db).expect("open");
                svc.feed(sid, b"xabxab", false).expect("feed");
                svc.feed(sid, b"", true).expect("eod");
                svc.drain(sid).expect("drain");
                svc.close(sid).expect("close");
            })
        })
        .collect();
    for h in workers {
        h.join().expect("service thread");
    }

    // Deadline cancellation: a zero feed deadline forces the timeout
    // path, which also checks the executor in under the session lock.
    let strict = ScanService::new(ServeLimits {
        feed_deadline: Some(Duration::ZERO),
        ..ServeLimits::default()
    });
    let sid = strict.open("t", &db).expect("open");
    let _ = strict.feed(sid, b"ab", false); // TimedOut (or a 0ns feed)
    let _ = strict.close(sid);

    // Parallel scanner: workers append batches into the shared
    // ENGINE_MERGE accumulator.
    let mut scanner = ParallelScanner::new(&a, 4).expect("scanner");
    let mut sink = CollectSink::new();
    scanner.scan(&b"ab".repeat(512), &mut sink);
}

/// Renders a frontend (parse/validation) failure as diagnostics,
/// honouring rule overrides.
fn core_error_diagnostics(e: &azoo_core::CoreError, cfg: &LintConfig) -> Vec<Diagnostic> {
    let (rule_id, state) = rule_for_core_error(e);
    let default = rule(rule_id).map_or(Severity::Error, |r| r.severity);
    match cfg.effective(rule_id, default) {
        None => Vec::new(),
        Some(severity) => vec![Diagnostic {
            rule: rule_id,
            severity,
            state,
            message: e.to_string(),
        }],
    }
}
