//! `azoo-perf compare <parent.json> <change.json>`: the regression gate.
//!
//! One row per (workload, end-to-end metric): the change's median
//! against the parent's, judged by the bound the benchmark fixed for
//! that metric. A pairing whose run-to-run spread is wider than its
//! bound is reported as unresolved, not as unchanged.

use crate::report::WorkloadValues;
use crate::schema::{Better, END_TO_END};
use crate::stats::{median, spread};

/// Verdict on one (workload, metric) pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and the spread is narrow enough to say so.
    Ok,
    /// Worse than the parent by more than the bound and the spread.
    Regressed,
    /// The spread of either side exceeds the bound.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name (`error_rate` for the failure check).
    pub metric: &'static str,
    /// Parent median.
    pub parent: f64,
    /// Change median.
    pub change: f64,
    /// Share of the parent's median by which the change is worse
    /// (negative = better).
    pub worse_by: f64,
    /// The wider of the two sides' spreads.
    pub spread: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

fn error_rate(v: &WorkloadValues) -> f64 {
    v.failed as f64 / v.attempted.max(1) as f64
}

/// Compares every workload both documents hold.
pub fn compare(
    parent: &[(String, WorkloadValues)],
    change: &[(String, WorkloadValues)],
) -> Vec<Row> {
    let mut rows = Vec::new();
    for (name, p) in parent {
        let Some((_, c)) = change.iter().find(|(n, _)| n == name) else {
            continue;
        };
        for def in &END_TO_END {
            let (Some(pv), Some(cv)) = (p.metrics.get(def.name), c.metrics.get(def.name)) else {
                continue;
            };
            if pv.is_empty() || cv.is_empty() {
                continue;
            }
            let (pm, cm) = (median(pv), median(cv));
            let worse_by = match def.better {
                Better::Higher => (pm - cm) / pm,
                Better::Lower => (cm - pm) / pm,
            };
            let spread = spread(pv).max(spread(cv));
            let verdict = if worse_by > def.bound && worse_by > spread {
                Verdict::Regressed
            } else if spread > def.bound {
                Verdict::Unresolved
            } else {
                Verdict::Ok
            };
            rows.push(Row {
                workload: name.clone(),
                metric: def.name,
                parent: pm,
                change: cm,
                worse_by,
                spread,
                bound: def.bound,
                verdict,
            });
        }
        // Any increase in the share of failed operations is a regression.
        let (pe, ce) = (error_rate(p), error_rate(c));
        rows.push(Row {
            workload: name.clone(),
            metric: "error_rate",
            parent: pe,
            change: ce,
            worse_by: ce - pe,
            spread: 0.0,
            bound: 0.0,
            verdict: if ce > pe {
                Verdict::Regressed
            } else {
                Verdict::Ok
            },
        });
    }
    rows
}

/// Prints the rows; returns whether any pairing regressed.
pub fn print(rows: &[Row]) -> bool {
    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "parent", "change", "worse by", "spread", "bound"
    );
    for r in rows {
        println!(
            "{:<16} {:<16} {:>14.4} {:>14.4} {:>8.1}% {:>7.1}% {:>6.0}%  {}",
            r.workload,
            r.metric,
            r.parent,
            r.change,
            r.worse_by * 100.0,
            r.spread * 100.0,
            r.bound * 100.0,
            r.verdict.as_str()
        );
    }
    let regressed = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Regressed)
        .count();
    let unresolved = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Unresolved)
        .count();
    println!(
        "{} pairings: {} regressed, {} unresolved",
        rows.len(),
        regressed,
        unresolved
    );
    regressed > 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(scan: &[f64], failed: u64) -> Vec<(String, WorkloadValues)> {
        let mut v = WorkloadValues {
            attempted: 100,
            failed,
            ..WorkloadValues::default()
        };
        v.metrics.insert("scan_mbps".into(), scan.to_vec());
        v.metrics.insert("setup_s".into(), vec![1.0, 1.0, 1.0]);
        vec![("dfa-rulesets".into(), v)]
    }

    fn verdict(rows: &[Row], metric: &str) -> Verdict {
        rows.iter()
            .find(|r| r.metric == metric)
            .expect(metric)
            .verdict
    }

    #[test]
    fn flags_a_drop_beyond_the_bound() {
        let rows = compare(&doc(&[100.0, 101.0, 99.0], 0), &doc(&[70.0, 71.0, 69.0], 0));
        assert_eq!(verdict(&rows, "scan_mbps"), Verdict::Regressed);
        assert_eq!(verdict(&rows, "setup_s"), Verdict::Ok);
        assert_eq!(verdict(&rows, "error_rate"), Verdict::Ok);
    }

    #[test]
    fn a_gain_or_a_small_loss_is_ok() {
        let rows = compare(
            &doc(&[100.0, 101.0, 99.0], 0),
            &doc(&[120.0, 121.0, 119.0], 0),
        );
        assert_eq!(verdict(&rows, "scan_mbps"), Verdict::Ok);
        let rows = compare(&doc(&[100.0, 101.0, 99.0], 0), &doc(&[95.0, 96.0, 94.0], 0));
        assert_eq!(verdict(&rows, "scan_mbps"), Verdict::Ok);
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let rows = compare(&doc(&[100.0, 140.0, 60.0], 0), &doc(&[95.0, 96.0, 94.0], 0));
        assert_eq!(verdict(&rows, "scan_mbps"), Verdict::Unresolved);
    }

    #[test]
    fn any_new_failure_regresses() {
        let rows = compare(&doc(&[100.0], 0), &doc(&[100.0], 1));
        assert_eq!(verdict(&rows, "error_rate"), Verdict::Regressed);
    }
}
