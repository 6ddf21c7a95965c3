//! Regenerates **Table I**: the full benchmark-suite statistics table —
//! states, edges, edges/node, subgraph count, average subgraph size and
//! standard deviation, compressed states (after prefix merging), the
//! compression factor, and the dynamic active set measured with the
//! VASim-equivalent engine on the standard input.
//!
//! Usage: `table1 [--scale tiny|small|full] [--profile-bytes N] [--threads N] [--prefilter] [--reduce]`
//!
//! The `MB/s` column times an NFA scan over the profile window — with
//! `--threads N` it uses the sharding/chunking [`ParallelScanner`]
//! instead, whose report stream is identical. `--prefilter` routes the
//! timed scan through the literal-prefilter engine (per shard when
//! threaded); reports stay byte-identical. `--reduce` computes the
//! `Compr`/`CmprF` columns with the full reduction tier
//! (quotient + residual fold) instead of prefix merging alone.
//!
//! Paper reference values (states / active set) are printed alongside for
//! the rows the paper reports.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]

use azoo_engines::{Engine, NfaEngine, NullSink, ParallelScanner, PrefilterEngine};
use azoo_harness::{flag_present, fmt_count, positive_arg, scale_from_args, time_scan, Table};
use azoo_passes::merge_prefixes;
use azoo_zoo::{BenchmarkId, Scale};

/// Paper Table I values: (states, active set); `None` where not given.
fn paper_values(id: BenchmarkId) -> (usize, f64) {
    use BenchmarkId::*;
    match id {
        Snort => (202_043, 409.358),
        ClamAv => (2_374_717, 356.532),
        Protomata => (24_103, 712.884),
        Brill => (115_549, 78.2558),
        RandomForestA => (248_000, 862.504),
        RandomForestB => (248_000, 1_043.18),
        RandomForestC => (992_000, 2_334.97),
        Hamming18x3 => (108_000, 1_944.38),
        Hamming22x5 => (192_000, 6_324.49),
        Hamming31x10 => (451_000, 19_617.8),
        Levenshtein19x3 => (109_000, 4_528.69),
        Levenshtein24x5 => (204_000, 18_033.9),
        Levenshtein37x10 => (557_000, 85_866.1),
        SeqMatch6w6p => (51_570, 5_538.98),
        SeqMatch6w6pWc => (53_289, 5_555.98),
        SeqMatch6w10p => (85_950, 5_465.23),
        SeqMatch6w10pWc => (87_669, 5_497.23),
        EntityResolution => (413_352, 57.5615),
        CrisprCasOffinder => (74_000, 191.64),
        CrisprCasOt => (202_000, 953.753),
        Yara => (1_047_528, 579.739),
        YaraWide => (115_246, 123.964),
        FileCarving => (2_663, 15.6547),
        ApPrng4 => (20_000, 4_500.0),
        ApPrng8 => (72_000, 2_500.0),
        // Suite extensions: fuzzy content matching is not a Table I row
        // in the paper; zero marks "no published reference".
        FuzzySnort | FuzzyDna => (0, 0.0),
    }
}

fn main() {
    let scale = scale_from_args();
    let args: Vec<String> = std::env::args().collect();
    let profile_bytes = positive_arg(&args, "--profile-bytes", 16_384);
    let threads = positive_arg(&args, "--threads", 1);
    let prefilter = flag_present(&args, "--prefilter");
    let reduce = flag_present(&args, "--reduce");
    println!(
        "== Table I: AutomataZoo benchmark statistics (scale: {scale:?}, \
         active set over {profile_bytes} input symbols, {threads} scan \
         thread{}{}{}) ==\n",
        if threads == 1 { "" } else { "s" },
        if prefilter { ", prefilter on" } else { "" },
        if reduce {
            ", compression via reduction tier"
        } else {
            ""
        }
    );
    let table = Table::new(&[
        ("Benchmark", 20),
        ("States", 10),
        ("Edges", 10),
        ("E/N", 5),
        ("Subgr", 7),
        ("Avg", 7),
        ("Std", 6),
        ("Compr", 10),
        ("CmprF", 6),
        ("ActiveSet", 10),
        ("MB/s", 8),
        ("Paper-S", 10),
        ("Paper-AS", 9),
    ]);
    for id in BenchmarkId::ALL {
        let bench = id.build(scale);
        let stats = azoo_core::AutomatonStats::compute(&bench.automaton);
        let (compressed_states, compression) = if reduce {
            let (r, rstats) = azoo_passes::reduce(&bench.automaton);
            (r.state_count(), rstats.compression_factor())
        } else {
            let (m, mstats) = merge_prefixes(&bench.automaton);
            (m.state_count(), mstats.compression_factor())
        };
        let mut engine = NfaEngine::new(&bench.automaton).expect("valid benchmark");
        let mut sink = NullSink::new();
        let window = bench.input.len().min(profile_bytes);
        let profile = engine.scan_profiled(&bench.input[..window], &mut sink);
        let mut scan_engine: Box<dyn Engine> = if threads > 1 {
            Box::new(
                ParallelScanner::with_prefilter(&bench.automaton, threads, prefilter)
                    .expect("valid benchmark"),
            )
        } else if prefilter {
            Box::new(PrefilterEngine::new(&bench.automaton).expect("valid benchmark"))
        } else {
            Box::new(engine)
        };
        let (_, mbps) = time_scan(scan_engine.as_mut(), &bench.input[..window]);
        let (paper_states, paper_as) = paper_values(id);
        let scale_note = if scale == Scale::Full { "" } else { "~" };
        table.row(&[
            id.name().to_owned(),
            fmt_count(stats.states),
            fmt_count(stats.edges),
            format!("{:.2}", stats.edges_per_node),
            fmt_count(stats.subgraphs),
            format!("{:.1}", stats.avg_subgraph_size),
            format!("{:.1}", stats.stddev_subgraph_size),
            fmt_count(compressed_states),
            format!("{compression:.2}"),
            format!("{:.1}", profile.active_set()),
            format!("{mbps:.1}"),
            format!("{scale_note}{}", fmt_count(paper_states)),
            format!("{paper_as:.0}"),
        ]);
    }
    if scale != Scale::Full {
        println!(
            "\nnote: running below full scale; paper columns are full-scale \
             references (prefix ~)."
        );
    }
}
