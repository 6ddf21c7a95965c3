//! The declarative roster: which zoo benchmarks each workload runs, and
//! how a member is generated from `--seed`.
//!
//! Rosters are split by *which tier does the work*, not by application
//! domain (README.md gives the probe numbers behind each choice).

use azoo_core::Automaton;
use azoo_zoo::{
    ap_prng, brill, clamav, crispr, entity, file_carving, fuzzy, levenshtein, protomata,
    random_forest, sequence_match, snort, yara, BenchmarkId, Scale,
};

/// How a serve phase drives the socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Traffic {
    /// Bytes per FEED frame.
    pub chunk: usize,
    /// Sessions each connection keeps open and feeds round-robin.
    pub interleave: usize,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name used on the command line and in every output row.
    pub name: &'static str,
    /// Why the workload exists, in one line (also in BENCHMARK.json).
    pub why: &'static str,
    /// Zoo benchmarks the workload runs.
    pub members: &'static [BenchmarkId],
    /// Shape of the traffic its serve phase sends.
    pub traffic: Traffic,
    /// Share of the measured time given to the serve phase; the rest
    /// goes to the in-process slices.
    pub serve_share: f64,
}

impl Workload {
    /// Engines each member's serve pool is warmed with: one per session
    /// the clients can have open at once, so the window never draws a
    /// cold one.
    pub fn pool_engines(&self) -> usize {
        CONNECTIONS * self.traffic.interleave
    }
}

/// Packet-sized chunks, as in the in-process stream mode.
pub const STREAM_CHUNK: usize = 1500;

/// Client connections of every serve phase (= `nproc` on the reference
/// host; the load comes from one process).
pub const CONNECTIONS: usize = 2;

const SERVE_DBS: &[BenchmarkId] = &[
    BenchmarkId::Snort,
    BenchmarkId::EntityResolution,
    BenchmarkId::FileCarving,
];

/// The five workloads, in the order `run --all` executes them.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "dfa-rulesets",
        why: "six rule sets that all select the lazy DFA: its hot loop (warm) and its construction (cold, up to 200x slower) do the work, the NFA none",
        members: &[
            BenchmarkId::Snort,
            BenchmarkId::Brill,
            BenchmarkId::EntityResolution,
            BenchmarkId::YaraWide,
            BenchmarkId::FileCarving,
            BenchmarkId::CrisprCasOffinder,
        ],
        // Bulk feeds: behind engines this fast, packet-sized feeds would
        // time the socket wake-up (which serve-chatty is there for), not
        // the rule sets.
        traffic: Traffic {
            chunk: 64 << 10,
            interleave: 1,
        },
        serve_share: 0.25,
    },
    Workload {
        name: "heavy-rulesets",
        why: "five rule sets whose selected tier runs under 0.3 MB/s: selection, prefilter, DFA cache policy and report delivery dominate",
        members: &[
            BenchmarkId::ClamAv,
            BenchmarkId::Yara,
            BenchmarkId::Protomata,
            BenchmarkId::SeqMatch6w6p,
            BenchmarkId::ApPrng4,
        ],
        traffic: Traffic {
            chunk: STREAM_CHUNK,
            interleave: 1,
        },
        serve_share: 0.25,
    },
    Workload {
        name: "meshes",
        why: "edit-distance meshes, counters and chains: the sparse NFA and bit-parallel tiers do the work, the DFA tier none",
        members: &[
            BenchmarkId::Levenshtein19x3,
            BenchmarkId::CrisprCasOt,
            BenchmarkId::FuzzySnort,
            BenchmarkId::FuzzyDna,
            BenchmarkId::SeqMatch6w6pWc,
            BenchmarkId::RandomForestB,
        ],
        traffic: Traffic {
            chunk: STREAM_CHUNK,
            interleave: 1,
        },
        serve_share: 0.25,
    },
    Workload {
        name: "serve-bulk",
        why: "three fast databases behind the socket in 64 KiB feeds: bandwidth-bound serving (copies, frame encode/decode, report draining)",
        members: SERVE_DBS,
        traffic: Traffic {
            chunk: 64 << 10,
            interleave: 1,
        },
        serve_share: 0.7,
    },
    Workload {
        name: "serve-chatty",
        why: "the same databases in 1 KiB feeds over 16 interleaved sessions per connection: latency-bound serving (syscalls, locks, per-feed allocation)",
        members: SERVE_DBS,
        traffic: Traffic {
            chunk: 1 << 10,
            interleave: 16,
        },
        serve_share: 0.7,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Every distinct member of any roster, in first-use order.
pub fn all_members() -> Vec<BenchmarkId> {
    let mut out = Vec::new();
    for w in &WORKLOADS {
        for &id in w.members {
            if !out.contains(&id) {
                out.push(id);
            }
        }
    }
    out
}

/// Input length for the members whose generators take one.
///
/// At `Small`, the four members whose selected tier is the sparse NFA at
/// under 0.15 MB/s get a shorter stream, sized so one scan takes about
/// half a second on the reference host: the run must fit the driver's
/// time cap with five scans per member (reference, warm-up, and one per
/// mode), and sparse-NFA throughput does not depend on stream length.
/// The automata keep their `Small` sizes.
fn input_len(id: BenchmarkId, scale: Scale, full: usize) -> usize {
    let capped = match id {
        BenchmarkId::ClamAv | BenchmarkId::CrisprCasOt => 32 << 10,
        BenchmarkId::Yara => 64 << 10,
        BenchmarkId::Levenshtein19x3 => 16 << 10,
        _ => usize::MAX,
    };
    match scale {
        Scale::Small => scale.input(full).min(capped),
        _ => scale.input(full),
    }
}

/// Builds one roster member at `scale` with every generator seed moved
/// by `seed` (`0` = the suite's published inputs, identical to
/// [`BenchmarkId::build`]).
///
/// # Panics
///
/// On an id no roster uses.
pub fn build_member(id: BenchmarkId, scale: Scale, seed: u64) -> (Automaton, Vec<u8>) {
    match id {
        BenchmarkId::Snort => {
            let d = snort::SnortParams::default();
            snort::build(&snort::SnortParams {
                rules: scale.count(3200),
                input_len: input_len(id, scale, 1 << 20),
                seed: d.seed.wrapping_add(seed),
            })
        }
        BenchmarkId::ClamAv => {
            let d = clamav::ClamAvParams::default();
            clamav::build(&clamav::ClamAvParams {
                signatures: scale.count(33_000),
                input_len: input_len(id, scale, 1 << 20),
                seed: d.seed.wrapping_add(seed),
            })
        }
        BenchmarkId::Protomata => {
            let d = protomata::ProtomataParams::default();
            protomata::build(&protomata::ProtomataParams {
                motifs: scale.count(1309),
                input_len: input_len(id, scale, 1 << 20),
                seed: d.seed.wrapping_add(seed),
            })
        }
        BenchmarkId::Brill => {
            let d = brill::BrillParams::default();
            brill::build(&brill::BrillParams {
                rules: scale.count(5000),
                input_tokens: scale.count(150_000),
                seed: d.seed.wrapping_add(seed),
            })
        }
        BenchmarkId::EntityResolution => {
            let d = entity::EntityParams::default();
            entity::build(&entity::EntityParams {
                names: scale.count(10_000),
                records: scale.count(100_000),
                seed: d.seed.wrapping_add(seed),
            })
        }
        BenchmarkId::FileCarving => {
            let d = file_carving::FileCarvingParams::default();
            file_carving::build(&file_carving::FileCarvingParams {
                input_len: input_len(id, scale, 1 << 20),
                seed: d.seed.wrapping_add(seed),
            })
        }
        BenchmarkId::Yara | BenchmarkId::YaraWide => {
            let mut p = yara::YaraParams::published(id == BenchmarkId::YaraWide);
            p.rules = scale.count(p.rules);
            p.input_len = input_len(id, scale, p.input_len);
            p.seed = p.seed.wrapping_add(seed);
            yara::build(&p)
        }
        BenchmarkId::CrisprCasOffinder | BenchmarkId::CrisprCasOt => {
            let design = if id == BenchmarkId::CrisprCasOt {
                crispr::CrisprDesign::CasOt
            } else {
                crispr::CrisprDesign::OffFinder
            };
            let mut p = crispr::CrisprParams::published(design);
            p.guides = scale.count(p.guides);
            p.input_len = input_len(id, scale, p.input_len);
            p.seed = p.seed.wrapping_add(seed);
            crispr::build(&p)
        }
        BenchmarkId::Levenshtein19x3 => {
            let mut p = levenshtein::LevenshteinParams::published(19, 3);
            p.filters = scale.count(p.filters);
            p.input_len = input_len(id, scale, p.input_len);
            p.seed = p.seed.wrapping_add(seed);
            levenshtein::build(&p)
        }
        BenchmarkId::SeqMatch6w6p | BenchmarkId::SeqMatch6w6pWc => {
            let mut p =
                sequence_match::SeqMatchParams::published(6, id == BenchmarkId::SeqMatch6w6pWc);
            p.filters = scale.count(p.filters);
            p.transactions = scale.count(p.transactions);
            p.seed = p.seed.wrapping_add(seed);
            sequence_match::build(&p)
        }
        BenchmarkId::ApPrng4 => {
            let mut p = ap_prng::ApPrngParams::published(4);
            p.chains = scale.count(p.chains);
            p.input_len = input_len(id, scale, p.input_len);
            p.seed = p.seed.wrapping_add(seed);
            ap_prng::build(&p)
        }
        BenchmarkId::FuzzySnort | BenchmarkId::FuzzyDna => {
            let snort = id == BenchmarkId::FuzzySnort;
            let mut p = if snort {
                fuzzy::FuzzyParams::published_snort(1)
            } else {
                fuzzy::FuzzyParams::published_dna(2)
            };
            p.patterns = scale.count(p.patterns);
            p.input_len = input_len(id, scale, p.input_len);
            p.seed = p.seed.wrapping_add(seed);
            let (a, input, _) = if snort {
                fuzzy::build_snort(&p)
            } else {
                fuzzy::build_dna(&p)
            };
            (a, input)
        }
        BenchmarkId::RandomForestB => {
            let mut p = random_forest::RandomForestParams::published(random_forest::Variant::B);
            p.train_samples = scale.count(p.train_samples);
            p.test_samples = scale.count(p.test_samples);
            if scale != Scale::Full {
                p.trees = 5;
            }
            p.seed = p.seed.wrapping_add(seed);
            let bench = random_forest::build(&p);
            (bench.fa.automaton, bench.input)
        }
        other => panic!("{} is in no azoo-perf roster", other.name()),
    }
}
