//! Golden file for every per-component decision over the zoo.
//!
//! For each of the 27 benchmarks at Tiny scale this records the facts
//! that depend on the weakly-connected-component analysis: Table I's
//! subgraph statistics, the prefilter analysis verdicts and plan
//! coverage, the tier the engine portfolio selects, `ParallelScanner`'s
//! shard split, and the linter's per-rule finding counts. A refactor of that analysis must leave the file
//! byte-identical.
//!
//! To regenerate after an intentional behaviour change:
//! `BLESS=1 cargo test --test component_golden`.

use std::collections::BTreeMap;

use automatazoo::analyze::analyze;
use automatazoo::core::json::Json;
use automatazoo::core::stats::{longest_path_from_starts, PrefilterBlock};
use automatazoo::core::AutomatonStats;
use automatazoo::engines::{select_session_engine, ParallelScanner};
use automatazoo::passes::prefilter_plan;
use automatazoo::zoo::{BenchmarkId, Scale};

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("components_tiny.json")
}

fn int(n: usize) -> Json {
    Json::Int(i64::try_from(n).expect("small count"))
}

fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn record(id: BenchmarkId) -> Json {
    let a = id.build(Scale::Tiny).automaton;

    let s = AutomatonStats::compute(&a);
    let stats = obj(vec![
        ("states", int(s.states)),
        ("edges", int(s.edges)),
        ("subgraphs", int(s.subgraphs)),
        ("avg", Json::Float(s.avg_subgraph_size)),
        ("std", Json::Float(s.stddev_subgraph_size)),
    ]);

    let plan = prefilter_plan(&a);
    let mut verdicts: BTreeMap<&str, usize> = BTreeMap::new();
    for cp in &plan.analysis {
        let verdict = match (cp.block, &cp.literals) {
            (Some(PrefilterBlock::Counter), _) => "counter",
            (Some(PrefilterBlock::StartOfData), _) => "start_of_data",
            (Some(PrefilterBlock::Cycle), _) => "cycle",
            (Some(PrefilterBlock::WeakLiteral), _) => "weak_literal",
            // Only never-reporting components pass with no literal.
            (None, Some(lits)) if lits.is_empty() => "dropped",
            (None, _) => "ok",
        };
        *verdicts.entry(verdict).or_default() += 1;
    }
    let prefilter = obj(vec![
        (
            "verdicts",
            Json::Obj(
                verdicts
                    .into_iter()
                    .map(|(k, n)| (k.to_string(), int(n)))
                    .collect(),
            ),
        ),
        ("coverage", Json::Float(plan.coverage())),
        ("demoted", int(plan.demoted_components)),
    ]);

    let (choice, _) = select_session_engine(&a).expect("zoo automata are valid");

    let scanner = ParallelScanner::new(&a, 4).expect("zoo automata are valid");
    let parallel = obj(vec![
        ("shards", int(scanner.shard_count())),
        ("chunkable", int(scanner.chunkable_shard_count())),
        ("whole_input", int(scanner.whole_input_shard_count())),
    ]);

    let mut rules: BTreeMap<&str, usize> = BTreeMap::new();
    for d in analyze(&a) {
        *rules.entry(d.rule).or_default() += 1;
    }
    let lint = Json::Obj(
        rules
            .into_iter()
            .map(|(k, n)| (k.to_string(), int(n)))
            .collect(),
    );

    obj(vec![
        ("benchmark", Json::Str(id.name().to_string())),
        ("stats", stats),
        (
            "window",
            longest_path_from_starts(&a).map_or(Json::Null, int),
        ),
        ("prefilter", prefilter),
        ("engine", Json::Str(format!("{choice:?}"))),
        ("parallel", parallel),
        ("lint", lint),
    ])
}

#[test]
fn component_decisions_match_golden() {
    let doc = Json::Arr(BenchmarkId::ALL.into_iter().map(record).collect());
    let text = doc.pretty() + "\n";
    let path = golden_path();
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, &text).expect("write golden");
    }
    let golden =
        std::fs::read_to_string(&path).expect("golden file present (regenerate with BLESS=1)");
    assert!(
        text == golden,
        "per-component decisions drifted from {}; diff against a BLESS=1 run",
        path.display()
    );
}
