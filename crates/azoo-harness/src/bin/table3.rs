//! Regenerates **Table III**: the CPU cost of Micron-AP-specific
//! soft-reconfiguration padding (Section VII).
//!
//! Two Sequence Matching benchmarks compute the identical kernel: native
//! size-6 filters, and capacity-10 filters soft-configured for size 6
//! (padded with states that never match). Both are run on the same input
//! with the VASim-equivalent NFA engine and the Hyperscan-style lazy-DFA
//! engine; the padding overhead is the slowdown of the padded variant.
//!
//! Usage: `table3 [--scale tiny|small|full] [--filters N]`

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]

use azoo_core::Automaton;
use azoo_engines::{Engine, LazyDfaEngine, NfaEngine};
use azoo_harness::{positive_arg, scale_from_args, time_scan_with, Table};
use azoo_passes::remove_dead;
use azoo_zoo::sequence_match::{append_filter, generate_sequence, transaction_stream};
use azoo_zoo::Scale;

fn main() {
    let scale = scale_from_args();
    let args: Vec<String> = std::env::args().collect();
    let filters = positive_arg(
        &args,
        "--filters",
        match scale {
            Scale::Tiny => 16,
            Scale::Small => 48,
            Scale::Full => 128,
        },
    );
    let transactions = match scale {
        Scale::Tiny => 2_000,
        Scale::Small => 10_000,
        Scale::Full => 40_000,
    };
    println!(
        "== Table III: impact of AP-specific padding on CPU engines \
         (scale: {scale:?}, {filters} filters, {transactions} transactions) ==\n"
    );

    // Identical sequences in both variants; only padding differs.
    let mut rng = azoo_workloads::rng(0x7AB3);
    let sequences: Vec<_> = (0..filters)
        .map(|_| generate_sequence(&mut rng, 6, 6))
        .collect();
    let mut native = Automaton::new();
    let mut padded = Automaton::new();
    for (i, seq) in sequences.iter().enumerate() {
        append_filter(&mut native, seq, i as u32, None, None);
        append_filter(&mut padded, seq, i as u32, None, Some(10));
    }
    println!(
        "native: {} states; padded: {} states (+{:.1}%)",
        native.state_count(),
        padded.state_count(),
        100.0 * (padded.state_count() as f64 / native.state_count() as f64 - 1.0)
    );
    let input = transaction_stream(0x17EA, transactions);
    println!("input: {} bytes\n", input.len());

    let table = Table::new(&[
        ("CPU Engine", 22),
        ("6 Wide (s)", 11),
        ("Padded (s)", 11),
        ("Overhead", 9),
        ("Paper", 7),
    ]);
    // Repeat scans until a measurable duration accumulates.
    fn steady(engine: &mut dyn Engine, input: &[u8]) -> f64 {
        let mut sink = azoo_engines::NullSink::new();
        engine.scan(input, &mut sink); // warm (and build DFA caches)
        let (mut total, mut reps) = (0.0, 0u32);
        while total <= 0.5 {
            total += time_scan_with(engine, input, &mut sink);
            reps += 1;
        }
        total / f64::from(reps)
    }
    let mut n1 = NfaEngine::new(&native).expect("valid");
    let mut n2 = NfaEngine::new(&padded).expect("valid");
    // Hyperscan-style row: the warm-up scan inside `steady` populates the
    // DFA cache, so the measured iterations run at cache-hit speed, as a
    // block-mode regex engine would deliver.
    let mut d1 = LazyDfaEngine::with_max_states(&native, 1 << 17).expect("no counters");
    let mut d2 = LazyDfaEngine::with_max_states(&padded, 1 << 17).expect("no counters");
    // Production regex compilers (Hyperscan) prune states that cannot
    // reach a report before codegen; pad states are exactly such states.
    let native_pruned = remove_dead(&native);
    let padded_pruned = remove_dead(&padded);
    let mut p1 = LazyDfaEngine::with_max_states(&native_pruned, 1 << 17).expect("no counters");
    let mut p2 = LazyDfaEngine::with_max_states(&padded_pruned, 1 << 17).expect("no counters");
    let rows: [(&str, &mut dyn Engine, &mut dyn Engine, &str); 3] = [
        ("NFA (VASim-equiv.)", &mut n1, &mut n2, "26.7%"),
        ("Lazy DFA (raw)", &mut d1, &mut d2, "-"),
        ("DFA+prune (Hyperscan)", &mut p1, &mut p2, "2.92%"),
    ];
    for (label, native_engine, padded_engine, paper) in rows {
        let t_native = steady(native_engine, &input);
        let t_padded = steady(padded_engine, &input);
        table.row(&[
            label.into(),
            format!("{t_native:.3}"),
            format!("{t_padded:.3}"),
            format!("{:+.1}%", 100.0 * (t_padded / t_native - 1.0)),
            paper.into(),
        ]);
    }
    println!(
        "\n(lazy-DFA diagnostics: native {} states / {} flushes, padded {} / {})",
        d1.cached_states(),
        d1.flush_count(),
        d2.cached_states(),
        d2.flush_count()
    );
    println!(
        "\npaper shape to check: the active-set engine pays a large \
         penalty for pad states; the DFA-based engine pays a small one."
    );
}
