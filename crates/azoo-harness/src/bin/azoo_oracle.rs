//! `azoo-oracle` — run the cross-engine differential oracle.
//!
//! ```text
//! azoo-oracle [--seeds N] [--start S] [--engines a,b,...] [--no-passes]
//!             [--fuzzy] [--shrink] [--save-bank DIR] [--mutation-check] [--json]
//! ```
//!
//! `--fuzzy` generates edit-distance meshes (azoo-fuzzy patterns at a
//! random budget `k <= 3` and edit profile) over inputs spliced with
//! near-miss copies, instead of random graphs; the bit-vector tier
//! (`bitpar`) applies only to those.
//!
//! Exit status is non-zero if any divergence is found, or if the
//! mutation self-check kills fewer than 8 of its 10 planted bugs.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]

use std::path::PathBuf;
use std::process::ExitCode;

use azoo_oracle::{
    kill_check, run_range, BugbankEntry, Divergence, EngineKind, Mutation, OracleConfig,
};

struct Args {
    seeds: u64,
    start: u64,
    shrink: bool,
    json: bool,
    mutation_check: bool,
    save_bank: Option<PathBuf>,
    cfg: OracleConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seeds: 100,
        start: 0,
        shrink: false,
        json: false,
        mutation_check: false,
        save_bank: None,
        cfg: OracleConfig::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--seeds" => {
                args.seeds = value("--seeds")?
                    .parse()
                    .map_err(|e| format!("--seeds: {e}"))?;
            }
            "--start" => {
                args.start = value("--start")?
                    .parse()
                    .map_err(|e| format!("--start: {e}"))?;
            }
            "--engines" => {
                args.cfg.engines = EngineKind::parse_list(&value("--engines")?)?;
            }
            "--no-passes" => args.cfg.check_passes = false,
            "--fuzzy" => args.cfg.gen.fuzzy = true,
            "--shrink" => args.shrink = true,
            "--json" => args.json = true,
            "--mutation-check" => args.mutation_check = true,
            "--save-bank" => args.save_bank = Some(PathBuf::from(value("--save-bank")?)),
            "--help" | "-h" => {
                println!(
                    "usage: azoo-oracle [--seeds N] [--start S] [--engines a,b,...] \
                     [--no-passes] [--fuzzy] [--shrink] [--save-bank DIR] [--mutation-check] \
                     [--json]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn reports_json(reps: &[(u64, u32)]) -> String {
    let items: Vec<String> = reps.iter().map(|(o, c)| format!("[{o},{c}]")).collect();
    format!("[{}]", items.join(","))
}

fn print_divergence(d: &Divergence, json: bool) {
    if json {
        let chunks = match &d.chunks {
            None => "null".to_string(),
            Some(p) => format!(
                "[{}]",
                p.iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        };
        println!(
            "{{\"seed\":{},\"subject\":\"{}\",\"states\":{},\"input_len\":{},\
             \"chunks\":{},\"expected\":{},\"got\":{}}}",
            d.seed,
            d.subject.label(),
            d.automaton.state_count(),
            d.input.len(),
            chunks,
            reports_json(&d.expected),
            reports_json(&d.got),
        );
    } else {
        println!(
            "DIVERGENCE seed {} on {}: {} state(s), {} input byte(s), chunks {:?}",
            d.seed,
            d.subject.label(),
            d.automaton.state_count(),
            d.input.len(),
            d.chunks,
        );
        println!("  expected {:?}", d.expected);
        println!("  got      {:?}", d.got);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("azoo-oracle: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = false;

    let report = run_range(args.start, args.seeds, &args.cfg, args.shrink);
    if args.json {
        println!(
            "{{\"seeds_run\":{},\"divergences\":{}}}",
            report.seeds_run,
            report.divergences.len()
        );
    } else {
        println!(
            "oracle: {} seed(s) run, {} divergence(s)",
            report.seeds_run,
            report.divergences.len()
        );
    }
    for d in &report.divergences {
        failed = true;
        print_divergence(d, args.json);
        if let Some(bank) = &args.save_bank {
            let name = format!("seed-{}-{}", d.seed, d.subject.label().replace(':', "-"));
            match BugbankEntry::from_divergence(&name, "found by azoo-oracle", d) {
                Some(entry) => {
                    if let Err(e) = entry.save(bank) {
                        eprintln!("azoo-oracle: failed to save {name}: {e}");
                    } else {
                        println!("  saved to {}", bank.join(&name).display());
                    }
                }
                None => eprintln!("azoo-oracle: {name} is not bankable"),
            }
        }
    }

    if args.mutation_check {
        let outcomes = kill_check(500, &args.cfg.gen);
        let killed = outcomes.iter().filter(|o| o.killed_by.is_some()).count();
        for o in &outcomes {
            match o.killed_by {
                Some(seed) => println!("mutation {:<26} killed by seed {seed}", o.mutation.name()),
                None => println!("mutation {:<26} SURVIVED", o.mutation.name()),
            }
        }
        println!(
            "mutation self-check: {killed}/{} killed",
            Mutation::ALL.len()
        );
        if killed < 8 {
            eprintln!("azoo-oracle: mutation self-check below threshold (8)");
            failed = true;
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
