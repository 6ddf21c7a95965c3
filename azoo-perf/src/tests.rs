//! Tests that keep the benchmark itself from rotting: every roster
//! member still builds and matches its pinned digest, every workload and
//! the traced pass still run clean, BENCHMARK.json still says what the
//! code does, and `compare` still catches a slowed run.

use std::sync::{Mutex, MutexGuard, PoisonError};

use azoo_core::json::{self, Json};
use azoo_engines::select_session_engine_explained;
use azoo_zoo::Scale;

use crate::compare::{compare, Verdict};
use crate::e2e::{self, RunOpts};
use crate::report::{self, RunRecord};
use crate::roster::{self, WORKLOADS};
use crate::schema::{END_TO_END, PER_LAYER};
use crate::stats::{as_f64, Digest};
use crate::{expected, layers, setup};

/// Held by every test that times something: the harness runs tests on
/// parallel threads, and a timing taken while another test's server
/// threads compete for the two cores says nothing.
static MEASURING: Mutex<()> = Mutex::new(());

fn measuring() -> MutexGuard<'static, ()> {
    // A failed timing test must not fail the others through the lock.
    MEASURING.lock().unwrap_or_else(PoisonError::into_inner)
}

fn tiny(seconds: f64, slowdown: f64) -> RunOpts {
    RunOpts {
        scale: Scale::Tiny,
        seed: 0,
        seconds,
        slowdown,
    }
}

#[test]
fn every_member_builds_selects_and_matches_its_pinned_digest() {
    for id in roster::all_members() {
        let (a, input) = roster::build_member(id, Scale::Tiny, 0);
        // Seed 0 is the suite's own standard input.
        let published = id.build(Scale::Tiny);
        assert_eq!(
            a.state_count(),
            published.automaton.state_count(),
            "{}",
            id.name()
        );
        assert_eq!(input, published.input, "{}", id.name());

        let (_, _, mut engine) = select_session_engine_explained(&a).expect("selects");
        let mut digest = Digest::default();
        engine.scan(&input, &mut digest);
        assert_eq!(
            digest,
            setup::baseline(&a, &input),
            "{}: selected tier",
            id.name()
        );
        assert_eq!(
            Some(digest),
            expected::pinned(Scale::Tiny, id),
            "{}: expected.json is stale; run `azoo-perf bless`",
            id.name()
        );
        assert!(
            expected::pinned(Scale::Small, id).is_some(),
            "{}",
            id.name()
        );
    }
}

#[test]
fn other_seeds_give_other_inputs_and_the_same_seed_the_same() {
    let id = azoo_zoo::BenchmarkId::Snort;
    let (_, a) = roster::build_member(id, Scale::Tiny, 1);
    let (_, b) = roster::build_member(id, Scale::Tiny, 1);
    let (_, c) = roster::build_member(id, Scale::Tiny, 2);
    assert_eq!(a, b);
    assert_ne!(a, c);
}

#[test]
fn every_workload_runs_clean_and_reports_every_metric() {
    let _alone = measuring();
    for w in &WORKLOADS {
        let run = e2e::run(w, tiny(0.5, 1.0));
        assert_eq!(run.failed(), 0, "{}", w.name);
        assert!(run.attempted() > 0, "{}", w.name);
        let metrics = run.metrics();
        assert_eq!(metrics.len(), END_TO_END.len());
        for ((name, value), def) in metrics.iter().zip(&END_TO_END) {
            assert_eq!(*name, def.name);
            assert!(
                *value > 0.0 && value.is_finite(),
                "{} {name} = {value}",
                w.name
            );
        }
    }
}

#[test]
fn the_traced_pass_derives_every_per_layer_metric() {
    let _alone = measuring();
    let w = roster::workload("serve-chatty").expect("in the roster");
    let run = layers::run(w, tiny(1.0, 1.0));
    assert_eq!(run.failed, 0);
    assert_eq!(run.metrics.len(), PER_LAYER.len());
    let spans = run
        .metrics
        .iter()
        .find(|(n, _)| *n == "trace.spans")
        .expect("trace.spans");
    assert_eq!(spans.1, run.timer.spans().len() as f64);
    assert!(spans.1 > 100.0);
    // Self time never exceeds the span it belongs to.
    for (span, own) in run.timer.spans().iter().zip(run.timer.self_ns()) {
        assert!(own <= span.end_ns - span.start_ns, "{}", span.name);
    }
}

/// The ROADMAP's acceptance for the regression gate: a deliberately
/// slowed engine fails it. The slowdown is injected bench-side, so no
/// engine is touched. Every operation takes 1.5 times as long, which
/// lowers a rate by a third: beyond the 25% bound the rates carry.
#[test]
fn compare_flags_an_injected_slowdown() {
    let _alone = measuring();
    let w = roster::workload("serve-bulk").expect("in the roster");
    let document = |slowdown: f64| {
        let records: Vec<RunRecord> = (0..3)
            .map(|_| RunRecord::of(&e2e::run(w, tiny(1.0, slowdown))))
            .collect();
        let doc = report::document(Json::Null, vec![report::workload_entry(w, &records, None)]);
        report::parse_document(&doc.pretty()).expect("round trips")
    };
    let rows = compare(&document(1.0), &document(1.5));
    for metric in ["scan_mbps", "wire_mbps"] {
        let row = rows.iter().find(|r| r.metric == metric).expect(metric);
        assert_eq!(
            row.verdict,
            Verdict::Regressed,
            "{metric}: parent {} change {} spread {}",
            row.parent,
            row.change,
            row.spread
        );
    }
    assert!(rows
        .iter()
        .all(|r| r.metric != "error_rate" || r.verdict == Verdict::Ok));
}

/// BENCHMARK.json is written by hand; this keeps it saying what the
/// code does.
#[test]
fn benchmark_json_matches_the_schema_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON");
    let list = |key: &str| doc.get(key).and_then(Json::as_arr).expect(key).to_vec();
    let text = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).expect(key).to_string();

    assert_eq!(list("paths"), vec![Json::Str("azoo-perf".into())]);
    assert_eq!(
        doc.get("run_seconds").and_then(as_f64),
        Some(crate::DEFAULT_SECONDS)
    );
    let workloads = list("workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (j, w) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(text(j, "name"), w.name);
        assert_eq!(text(j, "why"), w.why);
        assert!(w.why.len() <= 200);
    }
    let end_to_end = list("end_to_end");
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (j, def) in end_to_end.iter().zip(&END_TO_END) {
        assert_eq!(text(j, "name"), def.name);
        assert_eq!(text(j, "unit"), def.unit);
        assert_eq!(text(j, "better"), def.better.as_str());
        assert_eq!(j.get("bound").and_then(as_f64), Some(def.bound));
        assert!(def.bound > 0.0 && def.bound <= 0.25);
    }
    let per_layer = list("per_layer");
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (j, def) in per_layer.iter().zip(&PER_LAYER) {
        assert_eq!(text(j, "name"), def.name);
        assert_eq!(text(j, "unit"), def.unit);
        assert_eq!(text(j, "better"), def.better.as_str());
    }
}
