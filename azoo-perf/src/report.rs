//! The `azoo-perf-v1` document: one file per set of runs, written by
//! `run` and read back by `compare`.

use std::collections::BTreeMap;

use azoo_core::json::{self, Json};

use crate::e2e::sample_stats;
use crate::roster::{Workload, WORKLOADS};
use crate::schema::{MetricDef, END_TO_END, PER_LAYER};
use crate::stats::{as_f64, num, obj};

/// Schema tag of the run document.
pub const SCHEMA: &str = "azoo-perf-v1";

/// What one run of one workload reported.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// End-to-end metric values by name.
    pub metrics: Vec<(String, f64)>,
    /// Operations checked.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Per-member rows and latency quartiles of this run.
    pub detail: Json,
}

impl RunRecord {
    /// The record of an in-process run.
    #[cfg(test)]
    pub fn of(run: &crate::e2e::E2e) -> RunRecord {
        RunRecord {
            metrics: run
                .metrics()
                .into_iter()
                .map(|(n, v)| (n.to_string(), v))
                .collect(),
            attempted: run.attempted(),
            failed: run.failed(),
            detail: run.detail(),
        }
    }

    /// Parses a child's stdout: the `detail` line and the result line.
    pub fn parse(stdout: &str) -> Result<RunRecord, String> {
        let last = stdout.lines().last().ok_or("no output")?;
        let result = json::parse(last).map_err(|e| format!("bad result line: {e}"))?;
        let detail = stdout
            .lines()
            .rev()
            .find_map(|l| l.strip_prefix("detail "))
            .and_then(|l| json::parse(l).ok())
            .unwrap_or(Json::Null);
        let metrics = match result.get("metrics") {
            Some(Json::Obj(members)) => members
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), as_f64(v.get("value")?)?)))
                .collect(),
            _ => return Err("result line has no metrics".into()),
        };
        let count = |key: &str| {
            result
                .get(key)
                .and_then(Json::as_i64)
                .ok_or(format!("result line has no {key}"))
        };
        Ok(RunRecord {
            metrics,
            attempted: count("attempted")? as u64,
            failed: count("failed")? as u64,
            detail,
        })
    }
}

fn metric_entry(def: &MetricDef, values: &[f64]) -> Json {
    let Json::Obj(mut members) = sample_stats(values) else {
        unreachable!("sample_stats returns an object")
    };
    members.insert(0, ("unit".into(), Json::Str(def.unit.into())));
    members.insert(1, ("better".into(), Json::Str(def.better.as_str().into())));
    members.push((
        "values".into(),
        Json::Arr(values.iter().map(|&v| num(v)).collect()),
    ));
    Json::Obj(members)
}

/// One workload's entry: every end-to-end metric over the runs, the
/// per-run detail, and the per-layer block when a traced run was made.
pub fn workload_entry(w: &Workload, runs: &[RunRecord], layers: Option<&[(String, f64)]>) -> Json {
    let end_to_end = END_TO_END
        .iter()
        .map(|def| {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| {
                    r.metrics
                        .iter()
                        .find(|(n, _)| n == def.name)
                        .map(|(_, v)| *v)
                })
                .collect();
            (def.name.to_string(), metric_entry(def, &values))
        })
        .collect();
    let per_layer = layers.map_or(Json::Null, |values| {
        Json::Obj(
            PER_LAYER
                .iter()
                .filter_map(|def| {
                    let (_, v) = values.iter().find(|(n, _)| n == def.name)?;
                    Some((
                        def.name.to_string(),
                        obj([("value", num(*v)), ("unit", Json::Str(def.unit.into()))]),
                    ))
                })
                .collect(),
        )
    });
    obj([
        ("name", Json::Str(w.name.into())),
        ("why", Json::Str(w.why.into())),
        (
            "attempted",
            Json::Int(runs.iter().map(|r| r.attempted).sum::<u64>() as i64),
        ),
        (
            "failed",
            Json::Int(runs.iter().map(|r| r.failed).sum::<u64>() as i64),
        ),
        ("end_to_end", Json::Obj(end_to_end)),
        (
            "runs",
            Json::Arr(runs.iter().map(|r| r.detail.clone()).collect()),
        ),
        ("per_layer", per_layer),
    ])
}

/// Host metadata: results are only comparable on the same host.
pub fn host() -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    obj([
        (
            "nproc",
            Json::Int(std::thread::available_parallelism().map_or(1, |n| n.get()) as i64),
        ),
        ("cpu_model", Json::Str(cpu_model)),
        ("simd_level", Json::Str(format!("{:?}", azoo_simd::level()))),
        ("commit", Json::Str(commit)),
    ])
}

/// The whole document.
pub fn document(settings: Json, workloads: Vec<Json>) -> Json {
    obj([
        ("schema", Json::Str(SCHEMA.into())),
        ("host", host()),
        ("settings", settings),
        ("workloads", Json::Arr(workloads)),
        ("claim", Json::Null),
    ])
}

/// What `compare` needs from one workload of a document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadValues {
    /// Run values per end-to-end metric.
    pub metrics: BTreeMap<String, Vec<f64>>,
    /// Operations checked over all runs.
    pub attempted: u64,
    /// Operations failed over all runs.
    pub failed: u64,
}

/// Reads a document back: workload name → values, in roster order.
pub fn parse_document(text: &str) -> Result<Vec<(String, WorkloadValues)>, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("not an {SCHEMA} document"));
    }
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("document has no workloads")?;
    let mut out = Vec::new();
    for w in workloads {
        let name = w
            .get("name")
            .and_then(Json::as_str)
            .ok_or("workload without a name")?;
        let mut values = WorkloadValues {
            attempted: w.get("attempted").and_then(Json::as_i64).unwrap_or(0) as u64,
            failed: w.get("failed").and_then(Json::as_i64).unwrap_or(0) as u64,
            ..WorkloadValues::default()
        };
        if let Some(Json::Obj(members)) = w.get("end_to_end") {
            for (metric, entry) in members {
                let runs = entry
                    .get("values")
                    .and_then(Json::as_arr)
                    .map(|a| a.iter().filter_map(as_f64).collect())
                    .unwrap_or_default();
                values.metrics.insert(metric.clone(), runs);
            }
        }
        out.push((name.to_string(), values));
    }
    out.sort_by_key(|(name, _)| WORKLOADS.iter().position(|w| w.name == name));
    Ok(out)
}
