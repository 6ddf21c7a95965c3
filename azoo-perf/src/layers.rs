//! The traced run: one short slice per member per forced tier, a traced
//! and an untraced twin of the stream and serve phases, and a set of
//! fixed probes, all recorded as spans around calls into the crates'
//! public functions. Every per-layer metric is derived here.
//!
//! Slices in this pass are time-bounded *feeds* (1500-byte chunks until
//! the slice is over), not whole scans: a tier forced onto a member it
//! was not built for can be a thousand times slower than the selected
//! one, and the pass still has to end on time.

use std::collections::BTreeMap;
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

use azoo_core::json;
use azoo_core::Automaton;
use azoo_engines::{
    prefilter_gate, BitParallelEngine, CollectSink, CountSink, Engine, EngineChoice, LazyDfaEngine,
    NfaEngine, ParallelScanner, PrefilterEngine, SessionEngine, ShengEngine,
};
use azoo_fuzzy::{fuzzy_from_bytes, EditProfile};
use azoo_serve::proto::{read_frame, write_frame};
use azoo_serve::{DbRef, Request, Response, ScanService, MAX_FRAME};
use azoo_simd::{ByteFinder, SimdLevel, Teddy, TeddyMatch};
use azoo_zoo::{snort, BenchmarkId};

use crate::e2e::RunOpts;
use crate::roster::{self, Workload, CONNECTIONS, STREAM_CHUNK};
use crate::schema::PER_LAYER;
use crate::serve::{self, ServeRun};
use crate::setup::{self, Member};
use crate::stats::{as_f64, geomean, median, quantile, Digest};
use crate::trace::Timer;

/// The tiers forced onto every member that accepts them; the
/// discriminant is the tier's column in every per-tier array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    Nfa,
    LazyDfa,
    Prefilter,
    BitParallel,
    Sheng,
}

const TIERS: [Tier; 5] = [
    Tier::Nfa,
    Tier::LazyDfa,
    Tier::Prefilter,
    Tier::BitParallel,
    Tier::Sheng,
];

impl Tier {
    fn of(choice: EngineChoice) -> Option<Tier> {
        match choice {
            EngineChoice::Nfa => Some(Tier::Nfa),
            EngineChoice::LazyDfa => Some(Tier::LazyDfa),
            EngineChoice::Prefilter => Some(Tier::Prefilter),
            EngineChoice::BitParallel => Some(Tier::BitParallel),
            EngineChoice::Sheng => Some(Tier::Sheng),
            EngineChoice::Parallel { .. } => None,
        }
    }

    fn span(self) -> &'static str {
        match self {
            Tier::Nfa => "engines.nfa.feed",
            Tier::LazyDfa => "engines.lazy_dfa.feed",
            Tier::Prefilter => "engines.prefilter.feed",
            Tier::BitParallel => "engines.bitpar.feed",
            Tier::Sheng => "engines.sheng.feed",
        }
    }
}

/// What the traced run produced.
pub struct Layers {
    /// Every per-layer metric, in [`PER_LAYER`] order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Complete passes and sessions checked against the reference.
    pub attempted: u64,
    /// Those that mismatched or failed.
    pub failed: u64,
    /// The recorder, holding every span of the run.
    pub timer: Timer,
    /// One printable row per member: tier MB/s and regret.
    pub rows: Vec<String>,
}

/// Bytes fed and time spent by one time-bounded slice.
#[derive(Debug, Clone, Copy, Default)]
struct Fed {
    bytes: u64,
    secs: f64,
}

impl Fed {
    fn mbps(&self) -> f64 {
        self.bytes as f64 / 1e6 / self.secs
    }
}

/// Feeds one engine its input in [`STREAM_CHUNK`]-byte chunks, a slice
/// at a time, wrapping to the top when the input ends. A later slice
/// continues where the earlier one stopped, so on a machine the engine
/// cannot hold (a thrashing DFA cache, a long input) it measures what a
/// stream sees further in, not a replay of an already cached stretch.
struct Feeder<'a> {
    engine: &'a mut dyn SessionEngine,
    input: &'a [u8],
    /// Checked at the end of every complete pass when given.
    expected: Option<Digest>,
    pos: usize,
    digest: Digest,
    /// Furthest offset reached.
    covered: usize,
    /// Complete passes, and those whose digest mismatched.
    passes: u64,
    bad: u64,
}

impl<'a> Feeder<'a> {
    fn new(engine: &'a mut dyn SessionEngine, input: &'a [u8], expected: Option<Digest>) -> Self {
        engine.reset();
        Feeder {
            engine,
            input,
            expected,
            pos: 0,
            digest: Digest::default(),
            covered: 0,
            passes: 0,
            bad: 0,
        }
    }

    /// Feeds until `slice` is over (at least one chunk).
    fn run(&mut self, timer: &mut Timer, name: &'static str, op: u64, slice: Duration) -> Fed {
        let start = Instant::now();
        let mut fed = Fed::default();
        loop {
            let end = (self.pos + STREAM_CHUNK).min(self.input.len());
            let eod = end == self.input.len();
            let chunk = &self.input[self.pos..end];
            let ((), s) = timer.op(name, op, || self.engine.feed(chunk, eod, &mut self.digest));
            fed.bytes += chunk.len() as u64;
            fed.secs += s;
            self.pos = end;
            self.covered = self.covered.max(end);
            if eod {
                self.passes += 1;
                self.bad += u64::from(self.expected.is_some_and(|e| e != self.digest));
                self.engine.reset();
                self.digest = Digest::default();
                self.pos = 0;
            }
            if start.elapsed() >= slice {
                return fed;
            }
        }
    }
}

/// Accumulates the metric values as they are derived.
#[derive(Default)]
struct Sheet(BTreeMap<&'static str, f64>);

impl Sheet {
    fn set(&mut self, name: &'static str, value: f64) {
        let previous = self
            .0
            .insert(name, if value.is_finite() { value } else { 0.0 });
        debug_assert!(previous.is_none(), "{name} set twice");
    }

    /// In schema order; a metric the pass forgot is a bug.
    fn finish(self) -> Vec<(&'static str, f64)> {
        PER_LAYER
            .iter()
            .map(|def| {
                let value = self
                    .0
                    .get(def.name)
                    .unwrap_or_else(|| panic!("per-layer metric {} was never derived", def.name));
                (def.name, *value)
            })
            .collect()
    }
}

fn us(secs: &[f64]) -> Vec<f64> {
    secs.iter().map(|s| s * 1e6).collect()
}

/// Runs the traced pass for one workload.
pub fn run(w: &Workload, opts: RunOpts) -> Layers {
    let mut timer = Timer::new(Instant::now(), true, opts.slowdown);
    let mut sheet = Sheet::default();
    let mut checks = (0u64, 0u64);
    let mut rows = Vec::new();

    let mut s = setup::setup(&mut timer, w, opts.scale, opts.seed);
    let prepared = s.prepare(opts.scale, opts.seed);
    checks.0 += prepared.0;
    checks.1 += prepared.1;
    sheet.set(
        "zoo.generate_s",
        timer.durations("zoo.generate").iter().sum(),
    );
    sheet.set(
        "zoo.states",
        s.members
            .iter()
            .map(|m| m.automaton().state_count())
            .sum::<usize>() as f64,
    );
    sheet.set(
        "zoo.input_bytes",
        s.members.iter().map(|m| m.input.len()).sum::<usize>() as f64,
    );
    sheet.set(
        "engines.select_s",
        timer.durations("engines.select").iter().sum(),
    );
    sheet.set(
        "serve.db.compile_s",
        timer.durations("serve.db.compile").iter().sum(),
    );

    // 14 engine slices per member (5 tiers x cold/warm, 4 on the selected
    // engine) share 45% of the time; the serve twins get 30%; the probes
    // are sized by work, not time.
    let slice = Duration::from_secs_f64(opts.seconds * 0.45 / (14 * s.members.len()) as f64);
    engines(
        &mut timer,
        &mut sheet,
        &mut s.members,
        slice,
        &mut checks,
        &mut rows,
    );
    passes(&mut timer, &mut sheet, &s.members);
    for m in &s.members {
        m.warm_pool(w.pool_engines());
    }

    let window = Duration::from_secs_f64(opts.seconds * 0.15);
    let targets = serve::targets(&s.members);
    // Both twins start at the top of the roster, so they serve the same
    // members in the same order.
    let traced = serve::run_serve(
        &mut timer,
        &mut s.serve.conns,
        &targets,
        w.traffic,
        window,
        &mut [0; CONNECTIONS],
    );
    let untraced = serve::run_serve(
        &mut timer.untraced(),
        &mut s.serve.conns,
        &targets,
        w.traffic,
        window,
        &mut [0; CONNECTIONS],
    );
    drop(targets);
    checks.0 += traced.attempted + untraced.attempted;
    checks.1 += traced.failed + untraced.failed;
    sheet.set(
        "trace.wire_overhead_ratio",
        untraced.wire_mbps(0.5) / traced.wire_mbps(0.5),
    );
    metrics_probe(&mut timer, &mut sheet, &mut s.serve.conns[0]);
    let service_feed_us = service(
        &mut timer,
        &mut sheet,
        &s.serve.svc,
        &s.members,
        w.traffic.chunk,
        slice,
        &mut checks,
    );
    sheet.set(
        "serve.server.wire_overhead_us",
        median(&untraced.all_feed_us()) - service_feed_us,
    );
    let artifacts = db(&mut timer, &mut sheet, &s.serve.svc, &s.members);
    server(
        &mut timer,
        &mut sheet,
        &mut s.serve.conns[0],
        artifacts,
        &untraced,
    );
    s.serve.shutdown();

    proto_probe(&mut timer, &mut sheet);
    regex_probe(&mut timer, &mut sheet, opts);
    fuzzy_probe(&mut timer, &mut sheet, opts);
    sink_probe(&mut timer, &mut sheet, opts);
    parallel_probe(&mut timer, &mut sheet, opts);
    simd_probe(&mut timer, &mut sheet, opts);

    sheet.set("trace.spans", timer.spans().len() as f64);
    Layers {
        metrics: sheet.finish(),
        attempted: checks.0.max(1),
        failed: checks.1,
        timer,
        rows,
    }
}

/// Forces each tier onto each member, measures the selected engine as
/// block, traced stream and untraced stream, and derives the
/// `engines.*` and `trace.overhead_ratio` metrics.
fn engines(
    timer: &mut Timer,
    sheet: &mut Sheet,
    members: &mut [Member],
    slice: Duration,
    checks: &mut (u64, u64),
    rows: &mut Vec<String>,
) {
    // Per tier: second-slice MB/s of every member the tier accepted.
    let mut warm: [Vec<f64>; 5] = Default::default();
    let mut dfa_cold = Vec::new();
    let (mut dfa_states, mut dfa_flushes, mut dfa_mb) = (0usize, 0u64, 0.0f64);
    let mut prefilter_accepts = 0u32;
    let (mut enabled, mut symbols) = (0u64, 0u64);
    let mut regrets = Vec::new();
    let (mut block_ratios, mut overheads) = (Vec::new(), Vec::new());

    for m in members.iter_mut() {
        let op = m.id as u64;
        // Through its own handle on the database, so the automaton can be
        // read while the member's engine is borrowed mutably below.
        let db = m.db.clone();
        let a = db.automaton();
        let mut tier_mbps: [Option<f64>; 5] = [None; 5];
        for tier in TIERS {
            let t = tier as usize;
            let (built, _) = timer.op("engines.tier.new", op, || TierEngine::build(tier, a));
            let Some(mut built) = built else { continue };
            // First slice on the fresh engine, second carrying on from it.
            let mut feeder = Feeder::new(built.engine(), &m.input, Some(m.expected));
            let cold = feeder.run(timer, tier.span(), op, slice);
            let hot = feeder.run(timer, tier.span(), op, slice);
            checks.0 += feeder.passes;
            checks.1 += feeder.bad;
            tier_mbps[t] = Some(hot.mbps());
            warm[t].push(hot.mbps());
            match &built {
                TierEngine::LazyDfa(dfa) => {
                    dfa_cold.push(cold.mbps());
                    dfa_mb += (cold.bytes + hot.bytes) as f64 / 1e6;
                    dfa_states += dfa.cached_states();
                    dfa_flushes += dfa.flush_count();
                }
                TierEngine::Prefilter(pf) => {
                    prefilter_accepts += u32::from(pf.coverage() >= prefilter_gate(pf));
                }
                _ => {}
            }
        }

        // The paper's active-set metric, on a fixed-length prefix so the
        // count repeats exactly.
        let mut nfa = NfaEngine::new(a).expect("zoo automata are valid");
        let prefix = &m.input[..m.input.len().min(16 << 10)];
        let (profile, _) = timer.op("engines.nfa.scan_profiled", op, || {
            nfa.scan_profiled(prefix, &mut Digest::default())
        });
        enabled += profile.total_enabled;
        symbols += profile.symbols;

        // Regret against the same measurement of the selected tier, so a
        // member whose selected tier is the best one reads exactly 1.
        let selected = Tier::of(m.choice).and_then(|t| tier_mbps[t as usize]);
        let best = tier_mbps.iter().flatten().copied().fold(0.0f64, f64::max);
        let regret = selected.map_or(1.0, |sel| best / sel);
        regrets.push(regret);
        let cells: Vec<String> = tier_mbps
            .iter()
            .map(|v| v.map_or_else(|| format!("{:>9}", "-"), |x| format!("{x:>9.3}")))
            .collect();
        rows.push(format!(
            "{:<22} {:<12} {}  regret {:>7.2}   [{}]",
            m.id.name(),
            format!("{:?}", m.choice),
            cells.join(" "),
            regret,
            m.reason
        ));

        // The selected engine: warm it, then block scans, traced feeds
        // and untraced feeds over the stretch the warm-up covered.
        let mut warmup = Feeder::new(&mut *m.engine, &m.input, None);
        warmup.run(&mut timer.untraced(), "warmup", op, slice);
        let prefix = &m.input[..warmup.covered];
        let start = Instant::now();
        let (mut block_bytes, mut block_secs) = (0u64, 0.0);
        while block_bytes == 0 || start.elapsed() < slice {
            let ((), secs) = timer.op("engines.scan.warm", op, || {
                m.engine.scan(prefix, &mut Digest::default())
            });
            block_bytes += prefix.len() as u64;
            block_secs += secs;
        }
        let traced =
            Feeder::new(&mut *m.engine, prefix, None).run(timer, "engines.stream.feed", op, slice);
        let plain = Feeder::new(&mut *m.engine, prefix, None).run(
            &mut timer.untraced(),
            "engines.stream.feed",
            op,
            slice,
        );
        block_ratios.push(plain.mbps() / (block_bytes as f64 / 1e6 / block_secs));
        overheads.push(plain.mbps() / traced.mbps());
    }
    let feed_us = us(&timer.durations("engines.stream.feed"));

    sheet.set(
        "engines.select.regret_max",
        regrets.iter().copied().fold(1.0, f64::max),
    );
    sheet.set("engines.select.regret_geomean", geomean(&regrets));
    sheet.set("engines.nfa.scan_mbps", geomean(&warm[0]));
    sheet.set(
        "engines.nfa.active_set_mean",
        enabled as f64 / symbols.max(1) as f64,
    );
    sheet.set("engines.lazy_dfa.warm_mbps", geomean(&warm[1]));
    sheet.set("engines.lazy_dfa.cold_mbps", geomean(&dfa_cold));
    sheet.set("engines.lazy_dfa.cached_states", dfa_states as f64);
    sheet.set(
        "engines.lazy_dfa.flushes_per_mb",
        dfa_flushes as f64 / dfa_mb.max(1e-9),
    );
    sheet.set("engines.prefilter.scan_mbps", geomean(&warm[2]));
    sheet.set("engines.prefilter.accepts", f64::from(prefilter_accepts));
    sheet.set("engines.bitpar.scan_mbps", geomean(&warm[3]));
    sheet.set("engines.bitpar.accepts", warm[3].len() as f64);
    sheet.set("engines.sheng.scan_mbps", geomean(&warm[4]));
    sheet.set("engines.sheng.accepts", warm[4].len() as f64);
    sheet.set("engines.stream.feed_us_p50", median(&feed_us));
    sheet.set("engines.stream.block_ratio", geomean(&block_ratios));
    sheet.set("trace.overhead_ratio", geomean(&overheads));
}

/// One forced tier's engine, kept concrete so tier-specific counters
/// stay readable after the slices. One lives at a time, on the stack of
/// the loop that builds it: boxing the large variants would buy nothing.
#[allow(clippy::large_enum_variant)]
enum TierEngine {
    Nfa(NfaEngine),
    LazyDfa(LazyDfaEngine),
    Prefilter(PrefilterEngine),
    BitParallel(BitParallelEngine),
    Sheng(ShengEngine),
}

impl TierEngine {
    /// Builds `tier` over `a`, or `None` when the tier refuses the
    /// machine (counters, not chain-shaped, too many DFA states, no
    /// literal to gate on).
    fn build(tier: Tier, a: &Automaton) -> Option<TierEngine> {
        match tier {
            Tier::Nfa => NfaEngine::new(a).ok().map(TierEngine::Nfa),
            Tier::LazyDfa => LazyDfaEngine::new(a).ok().map(TierEngine::LazyDfa),
            Tier::Prefilter => PrefilterEngine::new(a)
                .ok()
                .filter(|pf| pf.component_count() > 0)
                .map(TierEngine::Prefilter),
            Tier::BitParallel => BitParallelEngine::new(a).ok().map(TierEngine::BitParallel),
            Tier::Sheng => ShengEngine::new(a).ok().map(TierEngine::Sheng),
        }
    }

    fn engine(&mut self) -> &mut dyn SessionEngine {
        match self {
            TierEngine::Nfa(e) => e,
            TierEngine::LazyDfa(e) => e,
            TierEngine::Prefilter(e) => e,
            TierEngine::BitParallel(e) => e,
            TierEngine::Sheng(e) => e,
        }
    }
}

/// `azoo_passes::{reduce, prefilter_plan}` over the roster: optional
/// compile-time work the default path does not run yet.
fn passes(timer: &mut Timer, sheet: &mut Sheet, members: &[Member]) {
    let (mut before, mut after) = (0usize, 0usize);
    let (mut spared, mut total) = (0usize, 0usize);
    for m in members {
        let op = m.id as u64;
        let ((_, stats), _) = timer.op("passes.reduce", op, || azoo_passes::reduce(m.automaton()));
        before += stats.states_before;
        after += stats.states_after;
        let (plan, _) = timer.op("passes.prefilter_plan", op, || {
            azoo_passes::prefilter_plan(m.automaton())
        });
        spared += plan.prefiltered_states + plan.dropped_states;
        total += plan.prefiltered_states + plan.dropped_states + plan.fallback_states;
    }
    sheet.set(
        "passes.reduce_s",
        timer.durations("passes.reduce").iter().sum(),
    );
    sheet.set(
        "passes.reduce_state_ratio",
        after as f64 / before.max(1) as f64,
    );
    sheet.set(
        "passes.prefilter_plan_s",
        timer.durations("passes.prefilter_plan").iter().sum(),
    );
    sheet.set(
        "passes.prefilter_coverage",
        spared as f64 / total.max(1) as f64,
    );
}

/// The session layer with no socket in front: the same chunking through
/// `ScanService::{open, feed, drain, close}`, one slice per member.
/// Returns the median feed-plus-drain time in microseconds.
fn service(
    timer: &mut Timer,
    sheet: &mut Sheet,
    svc: &ScanService,
    members: &[Member],
    chunk: usize,
    slice: Duration,
    checks: &mut (u64, u64),
) -> f64 {
    let (mut bytes, mut secs) = (0u64, 0.0f64);
    let mut feed_us = Vec::new();
    for m in members {
        let op = m.id as u64;
        let start = Instant::now();
        loop {
            let (sid, _) = timer.op("serve.service.open", op, || {
                svc.open("inproc", &m.db)
                    .expect("open an in-process session")
            });
            let mut digest = Digest::default();
            let mut complete = true;
            for (i, data) in m.input.chunks(chunk).enumerate() {
                let eod = (i + 1) * chunk >= m.input.len();
                let (fed, feed_s) = timer.op("serve.service.feed", op, || svc.feed(sid, data, eod));
                let (reports, drain_s) = timer.op("serve.service.drain", op, || svc.drain(sid));
                if fed.is_err() {
                    checks.1 += 1;
                }
                for r in reports.unwrap_or_default() {
                    digest.add(r.offset, r.code.0);
                }
                bytes += data.len() as u64;
                secs += feed_s + drain_s;
                feed_us.push((feed_s + drain_s) * 1e6);
                if !eod && start.elapsed() >= slice {
                    complete = false;
                    break;
                }
            }
            let (closed, _) = timer.op("serve.service.close", op, || svc.close(sid));
            if complete {
                checks.0 += 1;
                checks.1 += u64::from(closed.is_err() || digest != m.expected);
            }
            if start.elapsed() >= slice {
                break;
            }
        }
    }
    let snap = svc.metrics().snapshot();
    sheet.set(
        "serve.service.open_us",
        median(&us(&timer.durations("serve.service.open"))),
    );
    sheet.set("serve.service.feed_us_p50", median(&feed_us));
    sheet.set(
        "serve.service.close_us",
        median(&us(&timer.durations("serve.service.close"))),
    );
    sheet.set("serve.service.inproc_mbps", bytes as f64 / 1e6 / secs);
    sheet.set(
        "serve.service.rejected",
        (snap.rejected_feeds + snap.rejected_opens) as f64,
    );
    median(&feed_us)
}

/// One request, one reply, timed; `None` when the exchange broke.
fn roundtrip(
    timer: &mut Timer,
    name: &'static str,
    conn: &mut UnixStream,
    req: &Request,
) -> Option<(Response, f64)> {
    let (resp, secs) = timer.op(name, 0, || {
        write_frame(conn, &req.encode()).ok()?;
        Response::decode(&read_frame(conn).ok()?).ok()
    });
    resp.map(|r| (r, secs))
}

/// The socket front-end: what the untraced serve window saw, plus
/// direct probes of OPEN by artifact and of an empty FEED (a round trip
/// with no scanning in it, on an otherwise idle server).
fn server(
    timer: &mut Timer,
    sheet: &mut Sheet,
    conn: &mut UnixStream,
    artifacts: Vec<Vec<u8>>,
    untraced: &ServeRun,
) {
    let feed_us = untraced.all_feed_us();
    sheet.set("serve.server.feed_p50_us", median(&feed_us));
    sheet.set("serve.server.feed_p95_us", quantile(&feed_us, 0.95));
    sheet.set("serve.server.feed_p99_us", quantile(&feed_us, 0.99));
    sheet.set(
        "serve.server.feed_max_us",
        feed_us.iter().copied().fold(0.0, f64::max),
    );
    sheet.set("serve.server.open_bykey_us", median(&untraced.open_us));
    sheet.set("serve.server.close_us", median(&untraced.close_us));
    sheet.set(
        "serve.proto.client_encode_feed_us",
        median(&us(&timer.durations("serve.proto.encode_feed"))),
    );
    sheet.set(
        "serve.proto.client_decode_reports_us",
        median(&us(&timer.durations("serve.proto.decode_reports"))),
    );

    // OPEN by artifact: ships the serialized database in the frame, so a
    // member whose artifact exceeds the frame cap cannot be opened so.
    let mut open_artifact_us = Vec::new();
    let mut oversize = 0u32;
    let mut empty_feed_us = Vec::new();
    for artifact in artifacts {
        if artifact.len() + 64 > MAX_FRAME {
            oversize += 1;
            continue;
        }
        let req = Request::Open {
            tenant: "probe".into(),
            db: DbRef::Artifact(artifact),
            max_edits: 0,
        };
        let Some((Response::Opened { sid }, secs)) =
            roundtrip(timer, "serve.server.open_artifact", conn, &req)
        else {
            continue;
        };
        open_artifact_us.push(secs * 1e6);
        for _ in 0..200 {
            let req = Request::Feed {
                sid,
                eod: false,
                data: Vec::new(),
            };
            if let Some((_, secs)) = roundtrip(timer, "serve.server.empty_feed", conn, &req) {
                empty_feed_us.push(secs * 1e6);
            }
        }
        // CLOSE answers with two frames: the final drain, then `Closed`.
        let _ = roundtrip(timer, "serve.server.close", conn, &Request::Close { sid });
        let _ = read_frame(conn);
    }
    sheet.set("serve.server.open_artifact_us", median(&open_artifact_us));
    sheet.set("serve.server.oversize_artifacts", f64::from(oversize));
    sheet.set("serve.server.empty_feed_rtt_us", median(&empty_feed_us));
}

/// The server's own account, asked for over the wire right after the
/// serve windows so its feed histogram holds their feeds and nothing
/// else.
fn metrics_probe(timer: &mut Timer, sheet: &mut Sheet, conn: &mut UnixStream) {
    let mut metrics_us = Vec::new();
    let mut snapshot = json::Json::Null;
    for _ in 0..50 {
        if let Some((Response::MetricsJson(text), secs)) =
            roundtrip(timer, "serve.server.metrics", conn, &Request::Metrics)
        {
            metrics_us.push(secs * 1e6);
            snapshot = json::parse(&text).unwrap_or(json::Json::Null);
        }
    }
    sheet.set("serve.server.metrics_rtt_us", median(&metrics_us));
    let field = |path: &[&str]| {
        path.iter()
            .try_fold(&snapshot, |j, k| j.get(k))
            .and_then(as_f64)
            .unwrap_or(0.0)
    };
    sheet.set(
        "serve.metrics.server_feed_p50_us",
        field(&["feed_latency_us", "p50"]),
    );
    sheet.set("serve.metrics.rejected_feeds", field(&["rejected_feeds"]));
    sheet.set("serve.metrics.timed_out_feeds", field(&["timed_out_feeds"]));
}

/// Artifacts and the engine pool: `Db::{serialize, deserialize,
/// checkout, checkin}` and the cache-hit path of `db_from_artifact`.
/// Returns the serialized artifacts, in roster order.
fn db(timer: &mut Timer, sheet: &mut Sheet, svc: &ScanService, members: &[Member]) -> Vec<Vec<u8>> {
    let mut artifacts = Vec::with_capacity(members.len());
    for m in members {
        let op = m.id as u64;
        let (artifact, _) = timer.op("serve.db.serialize", op, || m.db.serialize());
        let (loaded, _) = timer.op("serve.db.deserialize", op, || {
            azoo_serve::Db::deserialize(&artifact)
        });
        debug_assert!(loaded.is_ok());
        drop(loaded);
        // Registered in set-up, so this is the hit path: header peek plus
        // a fingerprint of every artifact byte.
        let (hit, _) = timer.op("serve.db.cache_hit", op, || svc.db_from_artifact(&artifact));
        debug_assert!(hit.is_ok());
        for _ in 0..100 {
            let (engine, _) = timer.op("serve.db.checkout", op, || m.db.checkout());
            timer.op("serve.db.checkin", op, || m.db.checkin(engine));
        }
        artifacts.push(artifact);
    }
    sheet.set(
        "serve.db.serialize_s",
        timer.durations("serve.db.serialize").iter().sum(),
    );
    sheet.set(
        "serve.db.deserialize_s",
        timer.durations("serve.db.deserialize").iter().sum(),
    );
    sheet.set(
        "serve.db.artifact_bytes",
        artifacts.iter().map(Vec::len).sum::<usize>() as f64,
    );
    sheet.set(
        "serve.db.checkout_us",
        median(&us(&timer.durations("serve.db.checkout"))),
    );
    sheet.set(
        "serve.db.cache_hit_us",
        median(&us(&timer.durations("serve.db.cache_hit"))),
    );
    artifacts
}

/// Median microseconds of `reps` runs of `f`, each a span called `name`.
fn probe_us<R>(
    timer: &mut Timer,
    name: &'static str,
    reps: usize,
    mut f: impl FnMut() -> R,
) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let (r, secs) = timer.op(name, 0, &mut f);
            std::hint::black_box(r);
            secs * 1e6
        })
        .collect();
    median(&samples)
}

/// Frame encode/decode in isolation, at the two frame sizes the serve
/// workloads use: 1 KiB and 64 KiB.
fn proto_probe(timer: &mut Timer, sheet: &mut Sheet) {
    const REPS: usize = 200;
    let sizes: [(usize, [&'static str; 4]); 2] = [
        (
            1 << 10,
            [
                "serve.proto.encode_feed_1k_us",
                "serve.proto.decode_feed_1k_us",
                "serve.proto.encode_reports_1k_us",
                "serve.proto.decode_reports_1k_us",
            ],
        ),
        (
            64 << 10,
            [
                "serve.proto.encode_feed_64k_us",
                "serve.proto.decode_feed_64k_us",
                "serve.proto.encode_reports_64k_us",
                "serve.proto.decode_reports_64k_us",
            ],
        ),
    ];
    for (size, names) in sizes {
        let feed = Request::Feed {
            sid: 7,
            eod: false,
            data: (0..size).map(|i| i as u8).collect(),
        };
        // 12 bytes per report on the wire.
        let reports = Response::Reports {
            sid: 7,
            reports: (0..size / 12).map(|i| (i as u64 * 3, i as u32)).collect(),
        };
        let feed_frame = feed.encode();
        let reports_frame = reports.encode();
        sheet.set(
            names[0],
            probe_us(timer, "serve.proto.encode_feed.probe", REPS, || {
                feed.encode()
            }),
        );
        sheet.set(
            names[1],
            probe_us(timer, "serve.proto.decode_feed.probe", REPS, || {
                Request::decode(&feed_frame)
            }),
        );
        sheet.set(
            names[2],
            probe_us(timer, "serve.proto.encode_reports.probe", REPS, || {
                reports.encode()
            }),
        );
        sheet.set(
            names[3],
            probe_us(timer, "serve.proto.decode_reports.probe", REPS, || {
                Response::decode(&reports_frame)
            }),
        );
    }
}

/// Snort rule strings through `azoo_regex::compile_ruleset`.
fn regex_probe(timer: &mut Timer, sheet: &mut Sheet, opts: RunOpts) {
    let seed = snort::SnortParams::default().seed.wrapping_add(opts.seed);
    let rules = snort::generate_ruleset(seed, opts.scale.count(3200));
    let (ruleset, secs) = timer.op("regex.compile_ruleset", 0, || {
        azoo_regex::compile_ruleset(rules.iter().map(|r| r.pattern.as_str()))
    });
    std::hint::black_box(ruleset.compiled);
    sheet.set("regex.compile_ruleset_s", secs);
}

/// `azoo_fuzzy` mesh construction over Snort content strings at one and
/// two edits.
fn fuzzy_probe(timer: &mut Timer, sheet: &mut Sheet, opts: RunOpts) {
    let seed = azoo_zoo::fuzzy::FuzzyParams::published_snort(1)
        .seed
        .wrapping_add(opts.seed);
    let patterns = azoo_zoo::fuzzy::content_strings(seed, opts.scale.count(4000));
    let mut states = [0usize; 2];
    for (k, total) in states.iter_mut().enumerate() {
        for (i, p) in patterns.iter().enumerate() {
            let (built, _) = timer.op("fuzzy.compile", i as u64, || {
                fuzzy_from_bytes(p, k + 1, EditProfile::LEVENSHTEIN, i as u32)
            });
            *total += built.map_or(0, |(_, stats)| stats.states);
        }
    }
    sheet.set(
        "fuzzy.compile_s",
        timer.durations("fuzzy.compile").iter().sum(),
    );
    sheet.set(
        "fuzzy.states_per_edit",
        states[1].saturating_sub(states[0]) as f64 / patterns.len().max(1) as f64,
    );
}

/// Report delivery: the AP PRNG member (25 reports per byte) into a
/// counting and a collecting sink.
fn sink_probe(timer: &mut Timer, sheet: &mut Sheet, opts: RunOpts) {
    let (a, input) = roster::build_member(BenchmarkId::ApPrng4, opts.scale, opts.seed);
    let prefix = &input[..input.len().min(16 << 10)];
    let (_, _, mut engine) =
        azoo_engines::select_session_engine_explained(&a).expect("zoo automata are valid");
    engine.scan(prefix, &mut CountSink::new());
    let mut count = CountSink::new();
    let ((), count_s) = timer.op("engines.sink.count", 0, || engine.scan(prefix, &mut count));
    let mut collect = CollectSink::new();
    let ((), collect_s) = timer.op("engines.sink.collect", 0, || {
        engine.scan(prefix, &mut collect)
    });
    sheet.set(
        "engines.sink.reports_per_s",
        collect.reports().len() as f64 / collect_s,
    );
    sheet.set("engines.sink.collect_vs_count", collect_s / count_s);
    debug_assert_eq!(count.count(), collect.reports().len() as u64);
}

/// `ParallelScanner` at one and two threads on a rule set (Snort) and a
/// counter machine (Seq. Match 6w 6p wC). Per-layer only: two scan
/// workers beside the harness do not repeat within a tenth on two cores.
fn parallel_probe(timer: &mut Timer, sheet: &mut Sheet, opts: RunOpts) {
    let (mut t1, mut t2) = (Vec::new(), Vec::new());
    let (mut speculative, mut whole_input) = (0usize, 0usize);
    for id in [BenchmarkId::Snort, BenchmarkId::SeqMatch6w6pWc] {
        let (a, input) = roster::build_member(id, opts.scale, opts.seed);
        let expected = setup::baseline(&a, &input);
        for (threads, out) in [(1usize, &mut t1), (2, &mut t2)] {
            let (scanner, _) = timer.op("engines.parallel.new", id as u64, || {
                ParallelScanner::with_prefilter(&a, threads, true)
            });
            let Ok(mut scanner) = scanner else { continue };
            if threads == 2 {
                speculative += scanner.speculative_shard_count();
                whole_input += scanner.whole_input_shard_count();
            }
            let mut samples = Vec::new();
            for _ in 0..3 {
                let mut digest = Digest::default();
                let ((), secs) = timer.op("engines.parallel.scan", id as u64, || {
                    scanner.scan(&input, &mut digest)
                });
                debug_assert_eq!(digest, expected);
                samples.push(input.len() as f64 / 1e6 / secs);
            }
            out.push(median(&samples));
        }
    }
    sheet.set("engines.parallel.t1_mbps", geomean(&t1));
    sheet.set("engines.parallel.t2_mbps", geomean(&t2));
    sheet.set("engines.parallel.t2_speedup", geomean(&t2) / geomean(&t1));
    sheet.set("engines.parallel.speculative_shards", speculative as f64);
    sheet.set("engines.parallel.whole_input_shards", whole_input as f64);
}

/// The vector kernels through their `*_with` entry points, on 1 MiB of
/// seeded bytes that contain none of the needles.
fn simd_probe(timer: &mut Timer, sheet: &mut Sheet, opts: RunOpts) {
    let mut x = opts.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let hay: Vec<u8> = (0..1 << 20)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Lower-case letters only: the needles below never occur.
            b'a' + (x % 26) as u8
        })
        .collect();
    let mb = hay.len() as f64 / 1e6;
    let level = azoo_simd::level();
    sheet.set(
        "simd.level",
        match level {
            SimdLevel::Scalar => 0.0,
            SimdLevel::Ssse3 => 1.0,
            SimdLevel::Avx2 => 2.0,
        },
    );
    let finder = ByteFinder::from_bytes(b"#%&@");
    let us = probe_us(timer, "simd.bytefinder", 20, || {
        finder.find_with(level, &hay)
    });
    sheet.set("simd.bytefinder_mbps", mb / (us / 1e6));
    let needles = [
        "ADMIN", "SHELL", "EXPLOIT", "SELECT", "UNION", "PASSWD", "CMD.EXE", "SCRIPT",
    ];
    let mut teddy = Teddy::new(&needles).expect("eight 3+-byte needles suit Teddy");
    let mut out: Vec<TeddyMatch> = Vec::new();
    for (name, span, lvl) in [
        ("simd.teddy_mbps", "simd.teddy", level),
        (
            "simd.teddy_scalar_mbps",
            "simd.teddy_scalar",
            SimdLevel::Scalar,
        ),
    ] {
        let us = probe_us(timer, span, 10, || {
            out.clear();
            teddy.find_with(lvl, &hay, &mut out);
            out.len()
        });
        sheet.set(name, mb / (us / 1e6));
    }
}

impl Layers {
    /// Prints where the run's time went: self time (span minus child
    /// spans) summed by span name, largest first.
    pub fn print_self_times(&self) {
        let mut by_name: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (span, own) in self.timer.spans().iter().zip(self.timer.self_ns()) {
            let entry = by_name.entry(span.name).or_default();
            entry.0 += own;
            entry.1 += 1;
        }
        let mut rows: Vec<_> = by_name.into_iter().collect();
        rows.sort_by_key(|&(_, (ns, _))| std::cmp::Reverse(ns));
        println!("{:<36} {:>12} {:>10}", "span", "self time s", "spans");
        for (name, (ns, count)) in rows.iter().take(16) {
            println!("{:<36} {:>12.4} {:>10}", name, *ns as f64 / 1e9, count);
        }
    }
}
