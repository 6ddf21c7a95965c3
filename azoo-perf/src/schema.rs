//! Names, units, directions and regression bounds of every metric —
//! the one table `BENCHMARK.json`, the run output and `compare` agree on.

use Better::{Higher, Lower};

/// Whether a larger or a smaller value is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Throughputs, ratios of useful work.
    Higher,
    /// Times, sizes, waste.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric's fixed description.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, fixed for every later comparison.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression (end-to-end only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

/// The end-to-end metrics. Every workload reports all of them.
///
/// `error_rate` is not in this list: it is 0 on every passing run, and
/// a bound that is a share of 0 cannot be stated. It travels as the
/// `attempted` / `failed` / `correct` fields of every result instead,
/// and `compare` treats any increase as a regression.
pub const END_TO_END: [MetricDef; 7] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("scan_mbps", "MB/s", Better::Higher, 0.25),
    e2e("cold_scan_mbps", "MB/s", Better::Higher, 0.25),
    e2e("stream_mbps", "MB/s", Better::Higher, 0.25),
    e2e("wire_mbps", "MB/s", Better::Higher, 0.25),
    e2e("feed_p75_us", "us", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// The per-layer metrics of the traced run, grouped by crate. They carry
/// no bound: they explain a movement, they do not gate one.
pub const PER_LAYER: [MetricDef; 76] = [
    // zoo (+ workloads, regex): what set-up builds.
    layer("zoo.generate_s", "s", Lower),
    layer("zoo.states", "count", Lower),
    layer("zoo.input_bytes", "count", Higher),
    layer("regex.compile_ruleset_s", "s", Lower),
    // passes: optional compile-time work, not on the default path yet.
    layer("passes.reduce_s", "s", Lower),
    layer("passes.reduce_state_ratio", "ratio", Lower),
    layer("passes.prefilter_plan_s", "s", Lower),
    layer("passes.prefilter_coverage", "ratio", Higher),
    layer("fuzzy.compile_s", "s", Lower),
    layer("fuzzy.states_per_edit", "count", Lower),
    // engines: selection, then each tier forced on every member it accepts.
    layer("engines.select_s", "s", Lower),
    layer("engines.select.regret_max", "ratio", Lower),
    layer("engines.select.regret_geomean", "ratio", Lower),
    layer("engines.nfa.scan_mbps", "MB/s", Higher),
    layer("engines.nfa.active_set_mean", "count", Lower),
    layer("engines.lazy_dfa.warm_mbps", "MB/s", Higher),
    layer("engines.lazy_dfa.cold_mbps", "MB/s", Higher),
    layer("engines.lazy_dfa.cached_states", "count", Lower),
    layer("engines.lazy_dfa.flushes_per_mb", "1/MB", Lower),
    layer("engines.prefilter.scan_mbps", "MB/s", Higher),
    layer("engines.prefilter.accepts", "count", Higher),
    layer("engines.bitpar.scan_mbps", "MB/s", Higher),
    layer("engines.bitpar.accepts", "count", Higher),
    layer("engines.sheng.scan_mbps", "MB/s", Higher),
    layer("engines.sheng.accepts", "count", Higher),
    layer("engines.stream.feed_us_p50", "us", Lower),
    layer("engines.stream.block_ratio", "ratio", Higher),
    layer("engines.sink.reports_per_s", "1/s", Higher),
    layer("engines.sink.collect_vs_count", "ratio", Lower),
    layer("engines.parallel.t1_mbps", "MB/s", Higher),
    layer("engines.parallel.t2_mbps", "MB/s", Higher),
    layer("engines.parallel.t2_speedup", "ratio", Higher),
    layer("engines.parallel.speculative_shards", "count", Higher),
    layer("engines.parallel.whole_input_shards", "count", Lower),
    // simd: the kernels under the prefilter and Sheng tiers.
    layer("simd.level", "count", Higher),
    layer("simd.bytefinder_mbps", "MB/s", Higher),
    layer("simd.teddy_mbps", "MB/s", Higher),
    layer("simd.teddy_scalar_mbps", "MB/s", Higher),
    // serve.db: artifacts and the engine pool.
    layer("serve.db.compile_s", "s", Lower),
    layer("serve.db.serialize_s", "s", Lower),
    layer("serve.db.deserialize_s", "s", Lower),
    layer("serve.db.artifact_bytes", "count", Lower),
    layer("serve.db.checkout_us", "us", Lower),
    layer("serve.db.cache_hit_us", "us", Lower),
    // serve.service: the session layer with no socket in front.
    layer("serve.service.open_us", "us", Lower),
    layer("serve.service.feed_us_p50", "us", Lower),
    layer("serve.service.close_us", "us", Lower),
    layer("serve.service.inproc_mbps", "MB/s", Higher),
    layer("serve.service.rejected", "count", Lower),
    // serve.proto: frame encode/decode, in isolation and as the client pays it.
    layer("serve.proto.encode_feed_1k_us", "us", Lower),
    layer("serve.proto.encode_feed_64k_us", "us", Lower),
    layer("serve.proto.decode_feed_1k_us", "us", Lower),
    layer("serve.proto.decode_feed_64k_us", "us", Lower),
    layer("serve.proto.encode_reports_1k_us", "us", Lower),
    layer("serve.proto.encode_reports_64k_us", "us", Lower),
    layer("serve.proto.decode_reports_1k_us", "us", Lower),
    layer("serve.proto.decode_reports_64k_us", "us", Lower),
    layer("serve.proto.client_encode_feed_us", "us", Lower),
    layer("serve.proto.client_decode_reports_us", "us", Lower),
    // serve.server: the socket front-end.
    layer("serve.server.wire_overhead_us", "us", Lower),
    layer("serve.server.empty_feed_rtt_us", "us", Lower),
    layer("serve.server.open_bykey_us", "us", Lower),
    layer("serve.server.open_artifact_us", "us", Lower),
    layer("serve.server.oversize_artifacts", "count", Lower),
    layer("serve.server.close_us", "us", Lower),
    layer("serve.server.metrics_rtt_us", "us", Lower),
    layer("serve.server.feed_p50_us", "us", Lower),
    layer("serve.server.feed_p95_us", "us", Lower),
    layer("serve.server.feed_p99_us", "us", Lower),
    layer("serve.server.feed_max_us", "us", Lower),
    // serve.metrics: what the server says about itself.
    layer("serve.metrics.server_feed_p50_us", "us", Lower),
    layer("serve.metrics.rejected_feeds", "count", Lower),
    layer("serve.metrics.timed_out_feeds", "count", Lower),
    // trace: cost of the recorder itself.
    layer("trace.overhead_ratio", "ratio", Lower),
    layer("trace.wire_overhead_ratio", "ratio", Lower),
    layer("trace.spans", "count", Lower),
];
