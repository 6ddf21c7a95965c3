//! Quickstart: compile patterns to automata, scan input with the NFA
//! and lazy-DFA engines, and inspect automata statistics and transformations.
//!
//! Run with: `cargo run --release --example quickstart`

use automatazoo::core::AutomatonStats;
use automatazoo::engines::{CollectSink, Engine, LazyDfaEngine, NfaEngine};
use automatazoo::passes::{merge_prefixes, remove_dead};
use automatazoo::regex::compile_ruleset;

fn main() {
    // 1. Compile a small ruleset. Each rule reports with its index.
    let rules = [
        r"/virus_[0-9]{4}/i",
        r"/GET \/admin[a-z_\/]*\.php/",
        r"/\x90{8,16}/s", // NOP sled
        r"/suspicious|malicious/i",
    ];
    let ruleset = compile_ruleset(rules);
    println!(
        "compiled {} rules into {} states / {} edges",
        ruleset.compiled,
        ruleset.automaton.state_count(),
        ruleset.automaton.edge_count()
    );

    // 2. Static statistics (the AutomataZoo Table I columns).
    let stats = AutomatonStats::compute(&ruleset.automaton);
    println!(
        "subgraphs: {}, avg size {:.1} ± {:.1}, edges/node {:.2}",
        stats.subgraphs, stats.avg_subgraph_size, stats.stddev_subgraph_size, stats.edges_per_node
    );

    // 3. Optimize: prefix merging (the "compressed states" metric).
    let (merged, mstats) = merge_prefixes(&ruleset.automaton);
    let pruned = remove_dead(&merged);
    println!(
        "prefix merge: {} -> {} states ({:.0}% compression)",
        mstats.states_before,
        pruned.state_count(),
        100.0 * mstats.compression_factor()
    );

    // 4. Scan with the engine portfolio.
    let input: &[u8] = b"GET /admin/panel.php HTTP/1.1\r\n\
        payload=VIRUS_2024 this is SUSPICIOUS content \
        \x90\x90\x90\x90\x90\x90\x90\x90\x90\x90 shellcode";
    let mut nfa = NfaEngine::new(&ruleset.automaton).expect("valid automaton");
    let mut dfa = LazyDfaEngine::new(&ruleset.automaton).expect("no counters");
    let mut sink = CollectSink::new();
    let profile = nfa.scan_profiled(input, &mut sink);
    println!(
        "\nNFA engine: {} reports, active set {:.2} states/symbol",
        sink.reports().len(),
        profile.active_set()
    );
    for report in sink.reports() {
        println!(
            "  offset {:>3}  rule {}  ({})",
            report.offset, report.code, rules[report.code.0 as usize]
        );
    }
    let mut sink2 = CollectSink::new();
    dfa.scan(input, &mut sink2);
    assert_eq!(sink.sorted_reports(), sink2.sorted_reports());
    println!(
        "lazy-DFA engine agrees ({} cached DFA states, {} alphabet classes)",
        dfa.cached_states(),
        dfa.alphabet_classes()
    );
}
