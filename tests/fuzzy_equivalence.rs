//! Equivalence pin: the general `azoo-fuzzy` construction at the
//! paper's (pattern, k) instances is report-identical — multiplicity
//! included — to azoo-zoo's hand-built Levenshtein and Hamming meshes
//! under NfaEngine, in block mode and in 997-byte streaming chunks.
//! Each profile's zoo family (fuzzy-Snort, fuzzy-DNA) must also accept
//! strictly more of one shared stimulus at `k = 1` than at `k = 0`.
//!
//! Any divergence is banked under `tests/bugbank/` (the same corpus the
//! differential oracle feeds) before the test fails, so the witness
//! outlives the run.

use std::path::Path;

use automatazoo::core::Automaton;
use automatazoo::fuzzy::{fuzzy_from_bytes, EditProfile, FuzzyStats};
use automatazoo::oracle::{BugbankEntry, Divergence, EngineKind, EngineUnderTest, Rep, Subject};
use automatazoo::workloads::dna;
use automatazoo::zoo::fuzzy::{build_dna, build_snort, FuzzyParams};
use automatazoo::zoo::hamming::{hamming_filter, HammingParams};
use automatazoo::zoo::levenshtein::{levenshtein_filter, LevenshteinParams};
use automatazoo::zoo::Scale;

const STREAM_CHUNK: usize = 997;
const INPUT_LEN: usize = 16 * 1024;
const FILTERS: usize = 3;

fn run_block(a: &Automaton, input: &[u8]) -> Vec<Rep> {
    EngineUnderTest::build(EngineKind::NfaNoSkip, a)
        .expect("valid automaton")
        .expect("NFA applies to every automaton")
        .run_block(input)
}

fn run_streamed(a: &Automaton, input: &[u8]) -> Vec<Rep> {
    let mut plan = vec![STREAM_CHUNK; input.len() / STREAM_CHUNK];
    let tail = input.len() % STREAM_CHUNK;
    if tail > 0 {
        plan.push(tail);
    }
    EngineUnderTest::build(EngineKind::NfaNoSkip, a)
        .expect("valid automaton")
        .expect("NFA applies to every automaton")
        .run_chunks(input, &plan)
}

/// Compares the hand-built and general meshes on one stimulus, banking
/// a bugbank witness on divergence.
fn pin(name: &str, hand: &Automaton, general: &Automaton, input: &[u8], seed: u64) {
    for (mode, expected, got) in [
        ("block", run_block(hand, input), run_block(general, input)),
        (
            "stream-997",
            run_streamed(hand, input),
            run_streamed(general, input),
        ),
    ] {
        if expected != got {
            let chunks = (mode != "block").then(|| {
                let mut plan = vec![STREAM_CHUNK; input.len() / STREAM_CHUNK];
                let tail = input.len() % STREAM_CHUNK;
                if tail > 0 {
                    plan.push(tail);
                }
                plan
            });
            let d = Divergence {
                seed,
                subject: Subject::Engine(EngineKind::NfaNoSkip),
                automaton: general.clone(),
                input: input.to_vec(),
                chunks,
                expected: expected.clone(),
                got: got.clone(),
            };
            let bank_name = format!("fuzzy-equivalence-{name}-{mode}");
            if let Some(entry) =
                BugbankEntry::from_divergence(&bank_name, "found by tests/fuzzy_equivalence.rs", &d)
            {
                let _ = entry.save(Path::new("tests/bugbank"));
            }
            panic!(
                "{name} ({mode}): general construction diverges from the \
                 hand-built mesh: expected {} reports, got {} (banked as {bank_name})",
                expected.len(),
                got.len()
            );
        }
    }
}

/// Containment gate for one zoo fuzzy family at tiny scale: budgets
/// `k = 0, 1, 2` over the same pattern set scan the `k = 1` stimulus
/// (exact plus 1-edit-mutated plants). A bigger budget accepts a
/// superset of the language, and the mutated plants need `k >= 1`, so
/// the mesh's error layers are doing real work.
fn assert_reports_grow_with_k(
    family: &str,
    published: FuzzyParams,
    build: fn(&FuzzyParams) -> (Automaton, Vec<u8>, FuzzyStats),
) {
    let params = |k| FuzzyParams {
        max_edits: k,
        patterns: Scale::Tiny.count(published.patterns),
        input_len: Scale::Tiny.input(published.input_len),
        ..published
    };
    let builds: Vec<_> = (0..=2).map(|k| build(&params(k))).collect();
    let stimulus = &builds[1].1;
    let counts: Vec<usize> = builds
        .iter()
        .enumerate()
        .map(|(k, (mesh, _, stats))| {
            assert_eq!(stats.layers, k + 1, "{family} k={k}");
            run_block(mesh, stimulus).len()
        })
        .collect();
    assert!(
        counts[0] < counts[1] && counts[1] <= counts[2],
        "{family}: report counts must grow with k, strictly from 0 to 1: {counts:?}"
    );
}

#[test]
fn levenshtein_published_variants_are_report_identical() {
    // Table V instances: 19x3, 24x5, 37x10.
    for (length, distance) in [(19usize, 3usize), (24, 5), (37, 10)] {
        let params = LevenshteinParams::published(length, distance);
        let mut hand = Automaton::new();
        let mut general = Automaton::new();
        for i in 0..FILTERS {
            let pattern = dna::random_dna(params.seed ^ (i as u64 + 1), length);
            hand.append(&levenshtein_filter(&pattern, distance, i as u32));
            let (f, stats) =
                fuzzy_from_bytes(&pattern, distance, EditProfile::LEVENSHTEIN, i as u32)
                    .expect("published instance is well-formed");
            assert_eq!(stats.layers, distance + 1);
            general.append(&f);
        }
        assert_eq!(general.validate_all(), Vec::new());
        let input = dna::random_dna(params.seed ^ 0xFFFF_0002, INPUT_LEN);
        pin(
            &format!("lev-{length}x{distance}"),
            &hand,
            &general,
            &input,
            params.seed,
        );
    }
    assert_reports_grow_with_k("fuzzy_snort", FuzzyParams::published_snort(1), build_snort);
}

#[test]
fn hamming_published_variants_are_report_identical() {
    // Table V instances: 18x3, 22x5, 31x10. Hamming = the
    // substitution-only edit profile.
    for (length, distance) in [(18usize, 3usize), (22, 5), (31, 10)] {
        let params = HammingParams::published(length, distance);
        let mut hand = Automaton::new();
        let mut general = Automaton::new();
        for i in 0..FILTERS {
            let pattern = dna::random_dna(params.seed ^ (i as u64 + 1), length);
            hand.append(&hamming_filter(&pattern, distance, i as u32));
            let (f, stats) = fuzzy_from_bytes(&pattern, distance, EditProfile::HAMMING, i as u32)
                .expect("published instance is well-formed");
            assert_eq!(stats.layers, distance + 1);
            general.append(&f);
        }
        assert_eq!(general.validate_all(), Vec::new());
        let input = dna::random_dna(params.seed ^ 0xFFFF_0001, INPUT_LEN);
        pin(
            &format!("ham-{length}x{distance}"),
            &hand,
            &general,
            &input,
            params.seed,
        );
    }
    assert_reports_grow_with_k("fuzzy_dna", FuzzyParams::published_dna(1), build_dna);
}

/// The Levenshtein construction is not merely report-equivalent: the
/// general mesh specializes to *exactly* the hand-built automaton,
/// state for state.
#[test]
fn levenshtein_profile_specializes_to_the_hand_built_mesh() {
    let pattern = dna::random_dna(0x1EE7, 19);
    let hand = levenshtein_filter(&pattern, 3, 42);
    let (general, _) =
        fuzzy_from_bytes(&pattern, 3, EditProfile::LEVENSHTEIN, 42).expect("well-formed");
    assert_eq!(hand, general);
}
