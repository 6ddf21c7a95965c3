//! # azoo-fuzzy
//!
//! Bounded edit-distance (Levenshtein-automaton) construction: compile
//! *any* pattern — raw bytes or a symbol-class sequence — together with a
//! maximum edit budget `k` and an [`EditProfile`] into a validated
//! homogeneous [`Automaton`] of `k + 1` error layers, the way noodle's
//! `nx.c` scans with per-error state layers.
//!
//! The construction is the classic Levenshtein NFA over configurations
//! `(consumed, edits)` with deletion ε-moves pre-expanded by closure and
//! two homogeneous tracks per configuration:
//!
//! * **track 0** — entered by *matching* position `i` (class `p[i]`);
//! * **track 1** — entered by an *edit* that consumes an input symbol.
//!   When insertions are enabled this track is shared by insertions and
//!   substitutions and must carry class `Σ` (any byte can be inserted);
//!   when only substitutions consume input it carries `¬p[i]`.
//!
//! Disabling edit kinds specializes the mesh: `EditProfile::HAMMING`
//! (substitutions only) and `EditProfile::LEVENSHTEIN` are the two
//! profiles azoo-zoo builds its Hamming, Levenshtein and CRISPR
//! benchmarks from; this crate is the zoo's only mesh builder.
//!
//! Besides building meshes from scratch ([`fuzzy_automaton`],
//! [`fuzzy_from_bytes`]), [`fuzzify`] lifts an existing *chain-shaped*
//! automaton (e.g. a compiled literal database) to edit distance `k`,
//! preserving anchoring (`StartOfData`) and end-of-data report flags —
//! this is what azoo-serve's per-session `max_edits` OPEN parameter uses
//! to open one compiled pattern database at distance 0/1/2.
//!
//! Every constructor returns [`FuzzyStats`] alongside the automaton:
//! state/edge counts, the number of error layers, and the estimated
//! active-set width `(k + 1) × pattern_len` that azoo-analyze's
//! `fuzzy-blowup` rule warns on.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]

use std::fmt;

use azoo_core::{Automaton, ElementKind, Port, StartKind, StateId, SymbolClass};

/// Largest `max_edits` accepted by the serve protocol and the oracle
/// generator. The core constructors accept any `edits < pattern_len`;
/// this cap is the *wire-level* bound and the range the acceptance
/// campaign certifies.
pub const MAX_EDITS: u8 = 3;

/// Longest supported pattern, in symbol positions. The mesh holds at
/// most `2 (l + 1)(k + 1)` states; this cap keeps a single fuzzified
/// pattern well under engine-tier limits.
pub const MAX_PATTERN_LEN: usize = 4096;

/// Which edit kinds the mesh may spend its budget on.
///
/// Each toggle admits one kind of down-edge between error layers:
///
/// * `substitutions` — consume one input symbol in place of position `i`;
/// * `insertions` — consume one input symbol without advancing the
///   pattern;
/// * `deletions` — advance the pattern without consuming input
///   (ε-closure, pre-expanded).
///
/// Hamming distance falls out as the substitution-only profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EditProfile {
    /// Allow substituted symbols.
    pub substitutions: bool,
    /// Allow inserted symbols.
    pub insertions: bool,
    /// Allow deleted symbols.
    pub deletions: bool,
}

impl EditProfile {
    /// Full edit distance: substitutions, insertions, and deletions.
    pub const LEVENSHTEIN: EditProfile = EditProfile {
        substitutions: true,
        insertions: true,
        deletions: true,
    };

    /// Hamming distance: substitutions only.
    pub const HAMMING: EditProfile = EditProfile {
        substitutions: true,
        insertions: false,
        deletions: false,
    };

    /// Number of enabled edit kinds.
    pub fn kinds(&self) -> usize {
        usize::from(self.substitutions) + usize::from(self.insertions) + usize::from(self.deletions)
    }
}

/// Construction metadata returned alongside every fuzzy automaton.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzyStats {
    /// States in the pruned mesh.
    pub states: usize,
    /// Activation edges in the pruned mesh.
    pub edges: usize,
    /// Error layers, always `max_edits + 1`.
    pub layers: usize,
    /// Pattern length in symbol positions (longest pattern for
    /// multi-chain [`fuzzify`] builds).
    pub pattern_len: usize,
    /// Estimated active-set width: `Σ layers × pattern_len` over all
    /// patterns. This is the quantity azoo-analyze's `fuzzy-blowup`
    /// rule compares against its budget.
    pub est_active_width: usize,
}

/// Typed construction failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FuzzyError {
    /// The pattern has no positions.
    EmptyPattern,
    /// The pattern exceeds [`MAX_PATTERN_LEN`].
    PatternTooLong {
        /// Offending length.
        len: usize,
        /// The cap ([`MAX_PATTERN_LEN`]).
        max: usize,
    },
    /// `edits >= pattern_len`: the mesh would accept the empty string.
    EditsExceedPattern {
        /// Requested budget.
        edits: usize,
        /// Pattern length.
        pattern_len: usize,
    },
    /// A non-zero edit budget with every edit kind disabled.
    NoEditKinds {
        /// Requested budget.
        edits: usize,
    },
    /// A pattern position has an empty symbol class and can never match.
    UnmatchablePosition {
        /// Offending position index.
        index: usize,
    },
    /// [`fuzzify`] requires chain-shaped components (literal runs); this
    /// state breaks the shape.
    NotChainShaped {
        /// Offending state.
        state: StateId,
        /// What about the state breaks the chain shape.
        reason: &'static str,
    },
}

impl fmt::Display for FuzzyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FuzzyError::EmptyPattern => write!(f, "empty pattern"),
            FuzzyError::PatternTooLong { len, max } => {
                write!(f, "pattern length {len} exceeds maximum {max}")
            }
            FuzzyError::EditsExceedPattern { edits, pattern_len } => {
                write!(
                    f,
                    "edit budget {edits} must be below pattern length {pattern_len}"
                )
            }
            FuzzyError::NoEditKinds { edits } => {
                write!(f, "edit budget {edits} with every edit kind disabled")
            }
            FuzzyError::UnmatchablePosition { index } => {
                write!(f, "pattern position {index} has an empty symbol class")
            }
            FuzzyError::NotChainShaped { state, reason } => {
                write!(
                    f,
                    "state {} is not part of a literal chain: {reason}",
                    state.index()
                )
            }
        }
    }
}

impl std::error::Error for FuzzyError {}

fn check_pattern(
    classes: &[SymbolClass],
    edits: usize,
    profile: EditProfile,
) -> Result<(), FuzzyError> {
    let l = classes.len();
    if l == 0 {
        return Err(FuzzyError::EmptyPattern);
    }
    if l > MAX_PATTERN_LEN {
        return Err(FuzzyError::PatternTooLong {
            len: l,
            max: MAX_PATTERN_LEN,
        });
    }
    if edits >= l {
        return Err(FuzzyError::EditsExceedPattern {
            edits,
            pattern_len: l,
        });
    }
    if edits > 0 && profile.kinds() == 0 {
        return Err(FuzzyError::NoEditKinds { edits });
    }
    if let Some(index) = classes.iter().position(SymbolClass::is_empty) {
        return Err(FuzzyError::UnmatchablePosition { index });
    }
    Ok(())
}

/// Appends one `(i, e, track)` mesh for `classes` into `a`. The caller
/// prunes with `remove_dead` once all meshes are in place.
#[allow(clippy::needless_range_loop)] // index loops mirror the (i, e, track) mesh
fn mesh_into(
    a: &mut Automaton,
    classes: &[SymbolClass],
    d: usize,
    profile: EditProfile,
    code: u32,
    start_kind: StartKind,
    eod_only: bool,
) {
    let l = classes.len();
    // With insertions the edit-entered track is shared by insertions and
    // substitutions and must match any byte; substitution-only meshes
    // narrow it to the complement class (azoo-zoo's Hamming mesh).
    let track1_full = profile.insertions;
    let mut ids = vec![vec![[None::<StateId>; 2]; d + 1]; l + 1];
    // With deletions, trailing pattern positions may be deleted for free;
    // without them, only the final column accepts.
    let accepting = |i: usize, e: usize| {
        if profile.deletions {
            l - i <= d - e
        } else {
            i == l
        }
    };
    for i in 0..=l {
        for e in 0..=d {
            if i >= 1 {
                let s = a.add_ste(classes[i - 1], StartKind::None);
                ids[i][e][0] = Some(s);
                if accepting(i, e) {
                    a.set_report(s, code);
                    a.set_report_eod_only(s, eod_only);
                }
            }
            if e >= 1 {
                let class = if track1_full {
                    Some(SymbolClass::FULL)
                } else if profile.substitutions && i >= 1 {
                    // A substitution of a Σ-class position cannot
                    // mismatch; skip the unmatchable state.
                    Some(classes[i - 1].complement()).filter(|c| !c.is_empty())
                } else {
                    None
                };
                if let Some(class) = class {
                    let s = a.add_ste(class, StartKind::None);
                    ids[i][e][1] = Some(s);
                    if accepting(i, e) {
                        a.set_report(s, code);
                        a.set_report_eod_only(s, eod_only);
                    }
                }
            }
        }
    }
    // Deletion closure of configuration (i, e); the identity when
    // deletions are disabled.
    let closure = |i: usize, e: usize| -> Vec<(usize, usize)> {
        if profile.deletions {
            (0..=(l - i).min(d - e)).map(|j| (i + j, e + j)).collect()
        } else {
            vec![(i, e)]
        }
    };
    // Symbol successors of a configuration set, as homogeneous targets.
    let targets_of = |cfg: (usize, usize)| -> Vec<StateId> {
        let mut out = Vec::new();
        for (i, e) in closure(cfg.0, cfg.1) {
            if i < l {
                if let Some(m) = ids[i + 1][e][0] {
                    out.push(m);
                }
                if profile.substitutions && e < d {
                    if let Some(s) = ids[i + 1][e + 1][1] {
                        out.push(s);
                    }
                }
            }
            if profile.insertions && e < d {
                if let Some(ins) = ids[i][e + 1][1] {
                    out.push(ins);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    };
    for i in 0..=l {
        for e in 0..=d {
            for track in 0..2 {
                let Some(s) = ids[i][e][track] else { continue };
                for t in targets_of((i, e)) {
                    a.add_edge(s, t);
                }
            }
        }
    }
    // Start states: symbol successors of the initial configuration (0,0).
    for t in targets_of((0, 0)) {
        if let ElementKind::Ste { start, .. } = &mut a.element_mut(t).kind {
            *start = start_kind;
        }
    }
}

/// Compiles a symbol-class sequence into a fuzzy mesh reporting `code`
/// at every offset where some stream suffix is within `edits` edits
/// (per `profile`) of the pattern.
///
/// Matching is unanchored (`AllInput` starts); use [`fuzzify`] to carry
/// anchoring over from an existing automaton.
pub fn fuzzy_automaton(
    classes: &[SymbolClass],
    edits: usize,
    profile: EditProfile,
    code: u32,
) -> Result<(Automaton, FuzzyStats), FuzzyError> {
    check_pattern(classes, edits, profile)?;
    let mut a = Automaton::new();
    mesh_into(
        &mut a,
        classes,
        edits,
        profile,
        code,
        StartKind::AllInput,
        false,
    );
    // The uniform (i, e) grid creates configurations no path can reach
    // (e.g. high-edit cells next to the start); prune them.
    let a = azoo_passes::remove_dead(&a);
    let stats = FuzzyStats {
        states: a.state_count(),
        edges: a.edge_count(),
        layers: edits + 1,
        pattern_len: classes.len(),
        est_active_width: (edits + 1) * classes.len(),
    };
    Ok((a, stats))
}

/// Byte-pattern convenience wrapper over [`fuzzy_automaton`].
pub fn fuzzy_from_bytes(
    pattern: &[u8],
    edits: usize,
    profile: EditProfile,
    code: u32,
) -> Result<(Automaton, FuzzyStats), FuzzyError> {
    let classes: Vec<SymbolClass> = pattern
        .iter()
        .copied()
        .map(SymbolClass::from_byte)
        .collect();
    fuzzy_automaton(&classes, edits, profile, code)
}

/// One literal chain recovered from an automaton by [`fuzzify`].
struct Chain {
    classes: Vec<SymbolClass>,
    code: u32,
    start: StartKind,
    eod_only: bool,
}

/// Decomposes `a` into literal chains: every component must be a single
/// start-headed run of STEs with fan-out ≤ 1, no counters, no reset
/// edges, no cycles, and exactly one report at the tail.
fn extract_chains(a: &Automaton) -> Result<Vec<Chain>, FuzzyError> {
    let n = a.state_count();
    let mut visited = vec![false; n];
    let mut chains = Vec::new();
    for (id, element) in a.iter() {
        let start = match &element.kind {
            ElementKind::Ste { start, .. } => *start,
            ElementKind::Counter { .. } => {
                return Err(FuzzyError::NotChainShaped {
                    state: id,
                    reason: "counter element",
                })
            }
        };
        if start == StartKind::None {
            continue;
        }
        let mut classes = Vec::new();
        let mut cur = id;
        let (code, eod_only) = loop {
            if visited[cur.index()] {
                return Err(FuzzyError::NotChainShaped {
                    state: cur,
                    reason: "cycle or state shared between chains",
                });
            }
            visited[cur.index()] = true;
            let element = a.element(cur);
            match &element.kind {
                ElementKind::Ste { class, .. } => classes.push(*class),
                ElementKind::Counter { .. } => {
                    return Err(FuzzyError::NotChainShaped {
                        state: cur,
                        reason: "counter element",
                    })
                }
            }
            let succ = a.successors(cur);
            if let Some(edge) = succ.iter().find(|e| e.port != Port::Activate) {
                return Err(FuzzyError::NotChainShaped {
                    state: edge.to,
                    reason: "reset edge",
                });
            }
            if succ.len() > 1 {
                return Err(FuzzyError::NotChainShaped {
                    state: cur,
                    reason: "fan-out above one",
                });
            }
            match succ.first() {
                None => match element.report {
                    Some(code) => break (code.0, element.report_eod_only),
                    None => {
                        return Err(FuzzyError::NotChainShaped {
                            state: cur,
                            reason: "tail without a report",
                        })
                    }
                },
                Some(edge) => {
                    if element.report.is_some() {
                        return Err(FuzzyError::NotChainShaped {
                            state: cur,
                            reason: "mid-chain report",
                        });
                    }
                    cur = edge.to;
                }
            }
        };
        chains.push(Chain {
            classes,
            code,
            start,
            eod_only,
        });
    }
    if let Some(i) = visited.iter().position(|v| !v) {
        return Err(FuzzyError::NotChainShaped {
            state: StateId::new(i),
            reason: "unreachable from any start head",
        });
    }
    Ok(chains)
}

/// Lifts a chain-shaped automaton (a compiled literal database) to edit
/// distance `edits`: each chain becomes a `(edits + 1)`-layer mesh with
/// its original report code, start anchoring, and end-of-data flag.
///
/// `edits == 0` returns a pruned copy unchanged in behaviour. Fails with
/// [`FuzzyError::NotChainShaped`] on counters, fan-out, cycles, reset
/// edges, or mid-chain reports, and with the usual pattern errors when a
/// chain is too short for the budget.
pub fn fuzzify(
    a: &Automaton,
    edits: usize,
    profile: EditProfile,
) -> Result<(Automaton, FuzzyStats), FuzzyError> {
    let chains = extract_chains(a)?;
    if chains.is_empty() {
        return Err(FuzzyError::EmptyPattern);
    }
    let mut out = Automaton::new();
    let mut pattern_len = 0;
    let mut est_active_width = 0;
    for chain in &chains {
        check_pattern(&chain.classes, edits, profile)?;
        mesh_into(
            &mut out,
            &chain.classes,
            edits,
            profile,
            chain.code,
            chain.start,
            chain.eod_only,
        );
        pattern_len = pattern_len.max(chain.classes.len());
        est_active_width += (edits + 1) * chain.classes.len();
    }
    let out = azoo_passes::remove_dead(&out);
    let stats = FuzzyStats {
        states: out.state_count(),
        edges: out.edge_count(),
        layers: edits + 1,
        pattern_len,
        est_active_width,
    };
    Ok((out, stats))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use azoo_engines::{CollectSink, Engine, NfaEngine};
    use rand::{RngExt, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    const INF: usize = usize::MAX / 2;

    /// Profile-gated Sellers DP: offsets where some stream suffix is
    /// within `d` profile-edits of the pattern.
    fn naive_fuzzy(pattern: &[u8], d: usize, profile: EditProfile, input: &[u8]) -> Vec<u64> {
        let l = pattern.len();
        let mut prev: Vec<usize> = if profile.deletions {
            (0..=l).collect()
        } else {
            let mut v = vec![INF; l + 1];
            v[0] = 0;
            v
        };
        let mut out = Vec::new();
        for (o, &c) in input.iter().enumerate() {
            let mut cur = vec![INF; l + 1];
            cur[0] = 0;
            for j in 1..=l {
                let step = if c == pattern[j - 1] {
                    prev[j - 1]
                } else if profile.substitutions {
                    prev[j - 1].saturating_add(1)
                } else {
                    INF
                };
                let ins = if profile.insertions {
                    prev[j].saturating_add(1)
                } else {
                    INF
                };
                let del = if profile.deletions {
                    cur[j - 1].saturating_add(1)
                } else {
                    INF
                };
                cur[j] = step.min(ins).min(del);
            }
            if cur[l] <= d {
                out.push(o as u64);
            }
            prev = cur;
        }
        out
    }

    fn scan_offsets(a: &Automaton, input: &[u8]) -> Vec<u64> {
        let mut engine = NfaEngine::new(a).unwrap();
        let mut sink = CollectSink::new();
        engine.scan(input, &mut sink);
        let mut got: Vec<u64> = sink.reports().iter().map(|r| r.offset).collect();
        got.sort_unstable();
        got.dedup();
        got
    }

    const PROFILES: [EditProfile; 7] = [
        EditProfile::LEVENSHTEIN,
        EditProfile::HAMMING,
        EditProfile {
            substitutions: true,
            insertions: true,
            deletions: false,
        },
        EditProfile {
            substitutions: true,
            insertions: false,
            deletions: true,
        },
        EditProfile {
            substitutions: false,
            insertions: true,
            deletions: true,
        },
        EditProfile {
            substitutions: false,
            insertions: true,
            deletions: false,
        },
        EditProfile {
            substitutions: false,
            insertions: false,
            deletions: true,
        },
    ];

    #[test]
    fn every_profile_agrees_with_gated_sellers_dp() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xF022);
        for profile in PROFILES {
            for d in 0..=3usize {
                for _ in 0..8 {
                    let l = rng.random_range(d + 1..=d + 7);
                    let pattern: Vec<u8> = (0..l)
                        .map(|_| b"abc"[rng.random_range(0..3usize)])
                        .collect();
                    let input: Vec<u8> = (0..rng.random_range(0..80usize))
                        .map(|_| b"abc"[rng.random_range(0..3usize)])
                        .collect();
                    let (a, _) = fuzzy_from_bytes(&pattern, d, profile, 0).unwrap();
                    assert_eq!(a.validate_all(), Vec::new());
                    assert_eq!(
                        scan_offsets(&a, &input),
                        naive_fuzzy(&pattern, d, profile, &input),
                        "profile {profile:?} d {d} pattern {pattern:?} input {input:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn levenshtein_profile_detects_each_edit_kind() {
        let (a, stats) = fuzzy_from_bytes(b"ACGTACGT", 1, EditProfile::LEVENSHTEIN, 0).unwrap();
        assert_eq!(stats.layers, 2);
        assert_eq!(stats.est_active_width, 2 * 8);
        for (mutated, kind) in [
            (&b"ACGTACGT"[..], "exact"),
            (&b"ACGAACGT"[..], "substitution"),
            (&b"ACGACGT"[..], "deletion"),
            (&b"ACGTTACGT"[..], "insertion"),
        ] {
            let mut padded = b"CCCC".to_vec();
            padded.extend_from_slice(mutated);
            padded.extend_from_slice(b"CCCC");
            assert!(!scan_offsets(&a, &padded).is_empty(), "{kind} not detected");
        }
    }

    #[test]
    fn hamming_profile_rejects_shifted_occurrences() {
        // Substitution-only: a deleted middle symbol shifts the tail and
        // must not be tolerated, while one substitution is.
        let (a, _) = fuzzy_from_bytes(b"ABCDEFGH", 1, EditProfile::HAMMING, 0).unwrap();
        assert!(scan_offsets(&a, b"TTTABCDFGHTTT").is_empty());
        assert_eq!(scan_offsets(&a, b"TTTABCDXFGHTTT"), vec![10]);
    }

    #[test]
    fn class_patterns_fold_case_and_complement_correctly() {
        // Case-insensitive "ab" at Hamming distance 1: the substitution
        // track for position 0 must exclude both 'a' and 'A'.
        let classes = [
            SymbolClass::from_bytes(b"aA"),
            SymbolClass::from_bytes(b"bB"),
        ];
        let (a, _) = fuzzy_automaton(&classes, 1, EditProfile::HAMMING, 9).unwrap();
        assert_eq!(a.validate_all(), Vec::new());
        assert_eq!(scan_offsets(&a, b"xAB Ab aX xb"), vec![2, 5, 8, 11]);
    }

    #[test]
    fn full_class_positions_skip_the_empty_substitution_track() {
        // A Σ position cannot mismatch; its substitution states vanish
        // rather than surviving as unmatchable empty-class STEs.
        let classes = [
            SymbolClass::from_byte(b'a'),
            SymbolClass::FULL,
            SymbolClass::from_byte(b'c'),
        ];
        let (a, _) = fuzzy_automaton(&classes, 1, EditProfile::HAMMING, 0).unwrap();
        assert_eq!(a.validate_all(), Vec::new());
        assert_eq!(scan_offsets(&a, b"azc abc zzc"), vec![2, 6, 10]);
    }

    #[test]
    fn validates_clean_up_to_64_bytes_at_k_3() {
        // Acceptance: construction validates clean for patterns up to 64
        // bytes at k <= 3, across every profile.
        let mut rng = ChaCha8Rng::seed_from_u64(0x64);
        let pattern: Vec<u8> = (0..64)
            .map(|_| b"ACGT"[rng.random_range(0..4usize)])
            .collect();
        for profile in PROFILES {
            for d in 0..=3usize {
                let (a, stats) = fuzzy_from_bytes(&pattern, d, profile, 7).unwrap();
                assert_eq!(a.validate_all(), Vec::new(), "profile {profile:?} d {d}");
                assert_eq!(stats.layers, d + 1);
                assert_eq!(stats.pattern_len, 64);
            }
        }
    }

    #[test]
    fn construction_errors_are_typed() {
        assert_eq!(
            fuzzy_from_bytes(b"", 0, EditProfile::LEVENSHTEIN, 0).err(),
            Some(FuzzyError::EmptyPattern)
        );
        assert_eq!(
            fuzzy_from_bytes(b"ab", 2, EditProfile::LEVENSHTEIN, 0).err(),
            Some(FuzzyError::EditsExceedPattern {
                edits: 2,
                pattern_len: 2
            })
        );
        let none = EditProfile {
            substitutions: false,
            insertions: false,
            deletions: false,
        };
        assert_eq!(
            fuzzy_from_bytes(b"abc", 1, none, 0).err(),
            Some(FuzzyError::NoEditKinds { edits: 1 })
        );
        // k = 0 with no kinds is an exact matcher, not an error.
        let (a, _) = fuzzy_from_bytes(b"abc", 0, none, 0).unwrap();
        assert_eq!(scan_offsets(&a, b"xabcx"), vec![3]);
        assert_eq!(
            fuzzy_automaton(&[SymbolClass::EMPTY], 0, EditProfile::HAMMING, 0).err(),
            Some(FuzzyError::UnmatchablePosition { index: 0 })
        );
        let long = vec![SymbolClass::FULL; MAX_PATTERN_LEN + 1];
        assert_eq!(
            fuzzy_automaton(&long, 0, EditProfile::HAMMING, 0).err(),
            Some(FuzzyError::PatternTooLong {
                len: MAX_PATTERN_LEN + 1,
                max: MAX_PATTERN_LEN
            })
        );
    }

    #[test]
    fn fuzzify_lifts_chains_and_preserves_anchoring() {
        let mut base = Automaton::new();
        let (_, tail) = base.add_chain(
            &[
                SymbolClass::from_byte(b'c'),
                SymbolClass::from_byte(b'a'),
                SymbolClass::from_byte(b't'),
            ],
            StartKind::StartOfData,
        );
        base.set_report(tail, 1);
        let (_, tail2) = base.add_chain(
            &[
                SymbolClass::from_byte(b'd'),
                SymbolClass::from_byte(b'o'),
                SymbolClass::from_byte(b'g'),
            ],
            StartKind::AllInput,
        );
        base.set_report(tail2, 2);
        let (fuzzy, stats) = fuzzify(&base, 1, EditProfile::HAMMING).unwrap();
        assert_eq!(fuzzy.validate_all(), Vec::new());
        assert_eq!(stats.layers, 2);
        assert_eq!(stats.est_active_width, 2 * 3 + 2 * 3);
        // Anchored chain: one substitution tolerated, but only at data
        // start; the unanchored chain matches anywhere.
        let offsets = |input: &[u8]| scan_offsets(&fuzzy, input);
        assert_eq!(offsets(b"cut dug"), vec![2, 6]);
        assert_eq!(offsets(b"x cut dug"), vec![8]);
    }

    #[test]
    fn fuzzify_preserves_eod_only_reports() {
        let mut base = Automaton::new();
        let (_, tail) = base.add_chain(
            &[SymbolClass::from_byte(b'h'), SymbolClass::from_byte(b'i')],
            StartKind::AllInput,
        );
        base.set_report(tail, 0);
        base.set_report_eod_only(tail, true);
        let (fuzzy, _) = fuzzify(&base, 1, EditProfile::HAMMING).unwrap();
        assert_eq!(scan_offsets(&fuzzy, b"hi there hx"), vec![10]);
    }

    #[test]
    fn fuzzify_at_zero_edits_is_behaviour_preserving() {
        let mut base = Automaton::new();
        let (_, tail) = base.add_chain(
            &[
                SymbolClass::from_byte(b'a'),
                SymbolClass::from_byte(b'b'),
                SymbolClass::from_byte(b'c'),
            ],
            StartKind::AllInput,
        );
        base.set_report(tail, 5);
        let (fuzzy, stats) = fuzzify(&base, 0, EditProfile::LEVENSHTEIN).unwrap();
        assert_eq!(stats.layers, 1);
        assert_eq!(
            scan_offsets(&fuzzy, b"zabcz"),
            scan_offsets(&base, b"zabcz")
        );
    }

    #[test]
    fn fuzzify_rejects_non_chain_shapes() {
        let reason = |a: &Automaton| match fuzzify(a, 1, EditProfile::HAMMING) {
            Err(FuzzyError::NotChainShaped { reason, .. }) => reason,
            other => panic!("expected NotChainShaped, got {other:?}"),
        };

        let mut counters = Automaton::new();
        let s = counters.add_ste(SymbolClass::FULL, StartKind::AllInput);
        let c = counters.add_counter(3, azoo_core::CounterMode::Latch);
        counters.add_edge(s, c);
        counters.set_report(c, 0);
        assert_eq!(reason(&counters), "counter element");

        let mut fanout = Automaton::new();
        let h = fanout.add_ste(SymbolClass::from_byte(b'a'), StartKind::AllInput);
        let x = fanout.add_ste(SymbolClass::from_byte(b'b'), StartKind::None);
        let y = fanout.add_ste(SymbolClass::from_byte(b'c'), StartKind::None);
        fanout.add_edge(h, x);
        fanout.add_edge(h, y);
        fanout.set_report(x, 0);
        fanout.set_report(y, 1);
        assert_eq!(reason(&fanout), "fan-out above one");

        let mut cyclic = Automaton::new();
        let h = cyclic.add_ste(SymbolClass::from_byte(b'a'), StartKind::AllInput);
        let t = cyclic.add_ste(SymbolClass::from_byte(b'b'), StartKind::None);
        cyclic.add_edge(h, t);
        cyclic.add_edge(t, h);
        assert_eq!(reason(&cyclic), "cycle or state shared between chains");

        let mut mid = Automaton::new();
        let h = mid.add_ste(SymbolClass::from_byte(b'a'), StartKind::AllInput);
        let t = mid.add_ste(SymbolClass::from_byte(b'b'), StartKind::None);
        mid.add_edge(h, t);
        mid.set_report(h, 0);
        mid.set_report(t, 1);
        assert_eq!(reason(&mid), "mid-chain report");

        assert_eq!(
            fuzzify(&Automaton::new(), 1, EditProfile::HAMMING).err(),
            Some(FuzzyError::EmptyPattern)
        );
    }

    #[test]
    fn stats_grow_linearly_in_layers() {
        let pattern = b"ACGTACGTACGTACGT";
        let (a1, s1) = fuzzy_from_bytes(pattern, 1, EditProfile::LEVENSHTEIN, 0).unwrap();
        let (a2, s2) = fuzzy_from_bytes(pattern, 2, EditProfile::LEVENSHTEIN, 0).unwrap();
        assert!(a2.state_count() > a1.state_count());
        assert_eq!(s2.layers, 3);
        assert!(s2.est_active_width > s1.est_active_width);
        assert_eq!(s1.states, a1.state_count());
        assert_eq!(s1.edges, a1.edge_count());
    }
}
