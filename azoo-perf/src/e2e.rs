//! The untraced run: what a user of the suite and a client of
//! `azoo-serve` would see for one workload.

use std::time::{Duration, Instant};

use azoo_core::json::Json;
use azoo_zoo::Scale;

use crate::inproc::{self, MemberRun, Mode, Slices};
use crate::roster::{Workload, CONNECTIONS};
use crate::serve::{self, ServeRun};
use crate::setup::{self, Setup};
use crate::stats::{self, geomean, median, num, obj, quantile};
use crate::trace::Timer;

/// The whole set-up is repeated at least [`SETUP_REPS`].0 times, then
/// until [`SETUP_BUDGET_S`] seconds have gone into it or `.1` times are
/// done; `setup_s` is the median. A 0.15 s set-up is repeated nine times
/// (its median moved by a quarter between sets of runs at three), a
/// 1.4 s one three times.
pub const SETUP_REPS: (usize, usize) = (3, 9);

/// Seconds of set-up after which it is repeated no further.
pub const SETUP_BUDGET_S: f64 = 1.5;

/// The quantile a member's samples are summarised by: the lower quartile
/// of a rate, and (as `1 - SLOW_SIDE`) the upper quartile of a time.
///
/// The reference host alternates between a slower state, in which it
/// spends most of its time, and one about a fifth faster, and stays in
/// each for seconds. How much of a run falls into the faster state
/// varies from none to half, so a median lands in one state on one run
/// and in the other on the next; the quartile on the slow side stays
/// inside the slower state's samples either way.
pub const SLOW_SIDE: f64 = 0.25;

/// Parts the serve window is cut into: one between each two in-process
/// rounds of [`inproc::ROUNDS`].
pub const SERVE_WINDOWS: u32 = inproc::ROUNDS - 1;

/// Settings of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    /// Member scale (`Small` for measurements, `Tiny` in tests).
    pub scale: Scale,
    /// Offset added to every generator's published seed.
    pub seed: u64,
    /// Seconds of measured work (in-process slices plus serve window).
    pub seconds: f64,
    /// `--inject-slowdown` factor; 1.0 = none.
    pub slowdown: f64,
}

/// One member's row.
#[derive(Debug, Clone)]
pub struct MemberRow {
    /// Table I name.
    pub name: &'static str,
    /// Selected tier.
    pub tier: String,
    /// The selector's reason.
    pub reason: String,
    /// Samples per mode.
    pub run: MemberRun,
}

/// Everything the untraced run measured.
#[derive(Debug, Clone)]
pub struct E2e {
    /// Wall time of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Per-member samples.
    pub members: Vec<MemberRow>,
    /// The serve phase.
    pub serve: ServeRun,
    /// `VmHWM` at the end of the run.
    pub peak_rss_mb: f64,
    /// `(made, failed)` checks of the preparation step.
    pub prepared: (u64, u64),
}

/// Sets the workload up repeatedly (see [`SETUP_REPS`]), keeping the
/// last; returns it with the wall time of each repetition.
fn timed_setup(timer: &mut Timer, w: &Workload, opts: RunOpts) -> (Setup, Vec<f64>) {
    let mut times: Vec<f64> = Vec::new();
    loop {
        let t = Instant::now();
        let s = setup::setup(timer, w, opts.scale, opts.seed);
        times.push(t.elapsed().as_secs_f64());
        let enough = times.len() >= SETUP_REPS.0 && times.iter().sum::<f64>() >= SETUP_BUDGET_S;
        if enough || times.len() >= SETUP_REPS.1 {
            return (s, times);
        }
        // Dropped before the next one is built, so repetitions do not
        // add up in peak RSS.
        s.serve.shutdown();
    }
}

/// Runs one workload untraced.
pub fn run(w: &Workload, opts: RunOpts) -> E2e {
    let mut timer = Timer::new(Instant::now(), false, opts.slowdown);
    let (mut s, setup_s) = timed_setup(&mut timer, w, opts);
    let prepared = s.prepare(opts.scale, opts.seed);

    // In-process rounds with the parts of the serve window in between,
    // so every metric samples the whole run (see inproc.rs on why).
    let slices = Slices::split(opts.seconds * (1.0 - w.serve_share), s.members.len());
    let window = Duration::from_secs_f64(opts.seconds * w.serve_share / SERVE_WINDOWS as f64);
    let mut runs = vec![MemberRun::default(); s.members.len()];
    inproc::warm_up(&mut timer, &mut s.members, &mut runs);
    for m in &s.members {
        m.warm_pool(w.pool_engines());
    }
    let mut serve = ServeRun::new(s.members.len());
    let mut opened = [0; CONNECTIONS];
    for round in 0..inproc::ROUNDS {
        inproc::round(&mut timer, &mut s.members, &mut runs, slices, round);
        if round < SERVE_WINDOWS {
            s.serve.reconnect();
            let targets = serve::targets(&s.members);
            serve.merge(serve::run_serve(
                &mut timer,
                &mut s.serve.conns,
                &targets,
                w.traffic,
                window,
                &mut opened,
            ));
        }
    }
    s.serve.shutdown();
    let members = s
        .members
        .iter()
        .zip(runs)
        .map(|(m, run)| MemberRow {
            name: m.id.name(),
            tier: format!("{:?}", m.choice),
            reason: m.reason.clone(),
            run,
        })
        .collect();

    E2e {
        setup_s,
        members,
        serve,
        peak_rss_mb: stats::peak_rss_mb(),
        prepared,
    }
}

impl E2e {
    /// Operations checked against the reference.
    pub fn attempted(&self) -> u64 {
        self.members.iter().map(|m| m.run.attempted).sum::<u64>()
            + self.serve.attempted
            + self.prepared.0
    }

    /// Operations that failed, were refused, or mismatched.
    pub fn failed(&self) -> u64 {
        self.members.iter().map(|m| m.run.failed).sum::<u64>() + self.serve.failed + self.prepared.1
    }

    /// Geometric mean over members of the member's lower-quartile
    /// MB/s (see [`SLOW_SIDE`]).
    fn mode_geomean(&self, mode: impl Fn(&MemberRun) -> &Mode) -> f64 {
        let rates: Vec<f64> = self
            .members
            .iter()
            .map(|m| quantile(&mode(&m.run).mbps, SLOW_SIDE))
            .collect();
        geomean(&rates)
    }

    /// The end-to-end metrics, in [`crate::schema::END_TO_END`] order.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("setup_s", median(&self.setup_s)),
            ("scan_mbps", self.mode_geomean(|r| &r.warm)),
            ("cold_scan_mbps", self.mode_geomean(|r| &r.cold)),
            ("stream_mbps", self.mode_geomean(|r| &r.stream)),
            ("wire_mbps", self.serve.wire_mbps(SLOW_SIDE)),
            ("feed_p75_us", self.serve.feed_us(1.0 - SLOW_SIDE)),
            ("peak_rss_mb", self.peak_rss_mb),
        ]
    }

    /// Prints the per-member table and the serve summary.
    pub fn print_rows(&self, w: &Workload) {
        println!(
            "{:<22} {:<12} {:>10} {:>10} {:>10}  samples (warm/stream/cold)",
            "member", "tier", "warm MB/s", "strm MB/s", "cold MB/s"
        );
        for m in &self.members {
            println!(
                "{:<22} {:<12} {:>10.3} {:>10.3} {:>10.3}  {}/{}/{}   [{}]",
                m.name,
                m.tier,
                quantile(&m.run.warm.mbps, SLOW_SIDE),
                quantile(&m.run.stream.mbps, SLOW_SIDE),
                quantile(&m.run.cold.mbps, SLOW_SIDE),
                m.run.warm.mbps.len(),
                m.run.stream.mbps.len(),
                m.run.cold.mbps.len(),
                m.reason
            );
        }
        println!(
            "serve: {} connections x {} sessions, {}-byte feeds: {} feeds and {} sessions in {:.2} s",
            CONNECTIONS,
            w.traffic.interleave,
            w.traffic.chunk,
            self.serve.all_feed_us().len(),
            self.serve.attempted,
            self.serve.window_s
        );
    }

    /// The per-run detail object of the `azoo-perf-v1` document.
    pub fn detail(&self) -> Json {
        let members = self
            .members
            .iter()
            .map(|m| {
                obj([
                    ("name", Json::Str(m.name.into())),
                    ("tier", Json::Str(m.tier.clone())),
                    ("reason", Json::Str(m.reason.clone())),
                    ("warm_mbps", sample_stats(&m.run.warm.mbps)),
                    ("stream_mbps", sample_stats(&m.run.stream.mbps)),
                    ("cold_mbps", sample_stats(&m.run.cold.mbps)),
                ])
            })
            .collect();
        obj([
            ("members", Json::Arr(members)),
            ("setup_s", sample_stats(&self.setup_s)),
            ("feed_us", sample_stats(&self.serve.all_feed_us())),
            ("open_us", sample_stats(&self.serve.open_us)),
            ("close_us", sample_stats(&self.serve.close_us)),
            ("sessions", Json::Int(self.serve.attempted as i64)),
        ])
    }
}

/// Sample count, median and quartiles of a sample set.
pub fn sample_stats(samples: &[f64]) -> Json {
    obj([
        ("n", Json::Int(samples.len() as i64)),
        ("median", num(median(samples))),
        ("q1", num(quantile(samples, 0.25))),
        ("q3", num(quantile(samples, 0.75))),
    ])
}
