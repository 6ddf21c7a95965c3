//! DNA string-similarity scenario (the Hamming / Levenshtein benchmark
//! domain): build mismatch-tolerant filters for guide sequences, scan a
//! genome stream, and run a miniature version of the paper's
//! profile-driven filter-length selection (Figure 1 / Table V).
//!
//! Run with: `cargo run --release --example dna_similarity`

use automatazoo::engines::{CollectSink, CountSink, Engine, NfaEngine};
use automatazoo::fuzzy::{fuzzy_from_bytes, EditProfile};
use automatazoo::workloads::dna;

fn main() {
    // A guide pattern and a genome with near-matches planted.
    let guide = dna::random_dna(42, 24);
    println!("guide: {}", String::from_utf8_lossy(&guide));

    let mut exact = guide.clone();
    let mut one_sub = guide.clone();
    one_sub[10] = flip(one_sub[10]);
    let mut one_del = guide.clone();
    one_del.remove(12);
    exact.truncate(24);
    let (genome, offsets) =
        dna::dna_with_planted(7, 200_000, &[exact, one_sub.clone(), one_del.clone()]);
    println!("genome: {} bp, planted sites at {offsets:?}", genome.len());

    // Hamming filter (substitutions only) vs Levenshtein (also indels).
    let (ham, _) = fuzzy_from_bytes(&guide, 2, EditProfile::HAMMING, 0).expect("2 < 24");
    let (lev, _) = fuzzy_from_bytes(&guide, 2, EditProfile::LEVENSHTEIN, 0).expect("2 < 24");
    println!(
        "\nhamming mesh: {} states / {} edges; levenshtein mesh: {} states / {} edges",
        ham.state_count(),
        ham.edge_count(),
        lev.state_count(),
        lev.edge_count()
    );
    for (name, automaton) in [("hamming", &ham), ("levenshtein", &lev)] {
        let mut engine = NfaEngine::new(automaton).expect("valid");
        let mut sink = CollectSink::new();
        let profile = engine.scan_profiled(&genome, &mut sink);
        println!(
            "{name:>12}: {} hits, active set {:.1} states/symbol",
            sink.reports().len(),
            profile.active_set()
        );
    }
    println!("(levenshtein also catches the deletion variant)");

    // Miniature profile-driven length selection (the Figure 1 sweep):
    // find the shortest pattern length whose filters report less than
    // once per million random base-pairs.
    println!("\nprofile-driven selection for d = 2:");
    let input = dna::random_dna(1, 200_000);
    for l in [8, 10, 12, 14, 16, 18] {
        let mut total = 0u64;
        let trials = 5;
        for t in 0..trials {
            let pattern = dna::random_dna(100 + t, l);
            let (f, _) = fuzzy_from_bytes(&pattern, 2, EditProfile::HAMMING, 0).expect("2 < l");
            let mut engine = NfaEngine::new(&f).expect("valid");
            let mut sink = CountSink::new();
            engine.scan(&input, &mut sink);
            total += sink.count();
        }
        let per_million = total as f64 * 1e6 / (trials as f64 * input.len() as f64);
        println!("  l = {l:>2}: {per_million:>10.2} reports / million bp");
    }
    println!("pick the first l below 1.0 — that is how Table V chose 18x3, 22x5, 31x10");
}

fn flip(base: u8) -> u8 {
    match base {
        b'A' => b'C',
        b'C' => b'G',
        b'G' => b'T',
        _ => b'A',
    }
}
