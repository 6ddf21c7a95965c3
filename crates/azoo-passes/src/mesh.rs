//! Bounded edit-distance meshes: the one builder and its recogniser.
//!
//! [`mesh_into`] compiles a symbol-class pattern, an edit budget `k` and
//! an [`EditProfile`] into the classic Levenshtein NFA over
//! configurations `(consumed, edits)`, with deletion ε-moves
//! pre-expanded by closure and two homogeneous tracks per configuration:
//!
//! * **track 0** — entered by *matching* position `i` (class `p[i]`);
//! * **track 1** — entered by an *edit* that consumes an input symbol.
//!   When insertions are enabled this track is shared by insertions and
//!   substitutions and must carry class `Σ` (any byte can be inserted);
//!   when only substitutions consume input it carries `¬p[i]`.
//!
//! azoo-fuzzy's constructors and azoo-zoo's Hamming, Levenshtein and
//! CRISPR benchmarks all build through it.
//!
//! [`recognize`] inverts the builder: it splits an automaton into its
//! connected components, recovers each component's [`MeshSpec`] from
//! its structure, rebuilds the component from that spec and admits it
//! only if the rebuild is identical (`Automaton ==`). A recognised
//! machine is therefore *exactly* the union of its specs' meshes, which
//! is what lets azoo-engines run it on Myers / Shift-Add bit vectors.

use std::fmt;

use azoo_core::stats::component_profiles;
use azoo_core::{Automaton, ElementKind, Port, StartKind, StateId, SymbolClass};

use crate::remove_dead;

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

    /// Whether the builder creates cells no path reaches, which
    /// [`prune_mesh`] then removes. Substitution-only meshes are built
    /// with their live cells only.
    fn builds_dead_cells(&self) -> bool {
        self.insertions || self.deletions
    }
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
    /// azoo-fuzzy's `fuzzify` requires chain-shaped components (literal
    /// runs); this state breaks the shape.
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

/// Checks that `classes` at budget `edits` under `profile` is a pattern
/// [`mesh_into`] may build.
///
/// # Errors
///
/// Returns the first violated bound: an empty or over-long pattern, a
/// budget not below the pattern length, a non-zero budget with no edit
/// kind, or an empty class.
pub fn check_pattern(
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

/// Appends one `(i, e, track)` mesh for `classes` into `a`, reporting
/// `code` (end-of-data gated when `eod_only`) and starting with
/// `start_kind`. Pass the result through [`prune_mesh`] once all meshes
/// are in place. The caller checks the pattern with [`check_pattern`].
#[allow(clippy::needless_range_loop)] // index loops mirror the (i, e, track) mesh
pub fn mesh_into(
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
    // Substitution-only meshes get states for live cells only: (i, e) is
    // reachable iff the first i positions can hold e mismatches, and
    // every reachable cell reaches the last column by matching. The
    // other profiles build the uniform grid and leave the pruning to
    // `prune_mesh`.
    let mut reach = vec![d; l + 1];
    if !profile.builds_dead_cells() {
        reach[0] = 0;
        for i in 1..=l {
            let mismatchable = profile.substitutions && !classes[i - 1].is_full();
            reach[i] = d.min(reach[i - 1] + usize::from(mismatchable));
        }
    }
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
            if i >= 1 && e <= reach[i - 1] {
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
                } else if profile.substitutions && i >= 1 && e - 1 <= reach[i - 1] {
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

/// Finishes meshes appended by [`mesh_into`] under `profile`: profiles
/// with insertions or deletions build a uniform grid whose unreachable
/// cells (e.g. high-edit cells next to the start) are removed here;
/// substitution-only meshes are already live and pass through.
pub fn prune_mesh(a: Automaton, profile: EditProfile) -> Automaton {
    if profile.builds_dead_cells() {
        remove_dead(&a)
    } else {
        a
    }
}

/// Everything [`mesh_into`] needs to build one component: the pattern's
/// classes, the edit budget `edits`, the edit profile, the report code,
/// the start anchoring, and the end-of-data gate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeshSpec {
    /// One class per pattern position.
    pub classes: Vec<SymbolClass>,
    /// Edit budget `k`.
    pub edits: usize,
    /// Edit kinds the budget may be spent on.
    pub profile: EditProfile,
    /// Report code of every accepting state.
    pub code: u32,
    /// `AllInput` (search anywhere) or `StartOfData` (anchored).
    pub start: StartKind,
    /// Whether reports fire only on the stream's final symbol.
    pub eod_only: bool,
}

impl MeshSpec {
    /// The pruned mesh for this spec, exactly as azoo-fuzzy builds it.
    pub fn build(&self) -> Automaton {
        let mut a = Automaton::new();
        mesh_into(
            &mut a,
            &self.classes,
            self.edits,
            self.profile,
            self.code,
            self.start,
            self.eod_only,
        );
        prune_mesh(a, self.profile)
    }
}

/// Recovers the [`MeshSpec`] of every connected component of `a`, in
/// component order (by smallest state id), when every component is a
/// [`EditProfile::LEVENSHTEIN`] or [`EditProfile::HAMMING`] mesh.
///
/// Each component's spec is read off its structure, then checked by
/// rebuilding the component from it with [`MeshSpec::build`]: a
/// component is admitted only if the rebuild equals it state for state
/// and edge for edge. The walk stops at the first component that fails,
/// so a machine that is not a mesh costs one component-labelling pass
/// plus one component.
///
/// A zero-budget mesh is a plain literal chain and builds identically
/// under both profiles; it is reported as [`EditProfile::HAMMING`]. A
/// mesh that falls apart into several components is not recognised: a
/// Hamming mesh of two positions, or one whose Σ positions keep the
/// mismatch layers from rejoining the match spine.
///
/// # Errors
///
/// Returns the smallest state of the first component whose rebuild
/// differs.
pub fn recognize(a: &Automaton) -> Result<Vec<MeshSpec>, StateId> {
    let n = a.state_count();
    let comps = component_profiles(a);
    // States of each component, in id order (CSR over the labels).
    let mut off = vec![0usize; comps.profiles.len() + 1];
    for &label in &comps.labels {
        off[label + 1] += 1;
    }
    for c in 0..comps.profiles.len() {
        off[c + 1] += off[c];
    }
    let mut cursor = off.clone();
    let mut members = vec![StateId::new(0); n];
    for (id, _) in a.iter() {
        let label = comps.labels[id.index()];
        members[cursor[label]] = id;
        cursor[label] += 1;
    }
    let mut local = vec![0usize; n];
    let mut specs = Vec::with_capacity(comps.profiles.len());
    for (c, profile) in comps.profiles.iter().enumerate() {
        let states = &members[off[c]..off[c + 1]];
        let spec = (!profile.has_counter)
            .then(|| component(a, states, &mut local))
            .flatten()
            .and_then(|sub| spec_of(&sub));
        match spec {
            Some(spec) => specs.push(spec),
            None => return Err(profile.first_state),
        }
    }
    Ok(specs)
}

/// Copies the component `states` (ascending ids) of `a` into its own
/// automaton, numbering states by rank; `None` on a reset edge, which
/// no mesh has.
fn component(a: &Automaton, states: &[StateId], local: &mut [usize]) -> Option<Automaton> {
    for (j, s) in states.iter().enumerate() {
        local[s.index()] = j;
    }
    let mut sub = Automaton::with_capacity(states.len());
    for &s in states {
        sub.add_element(a.element(s).clone());
    }
    for (j, &s) in states.iter().enumerate() {
        for edge in a.successors(s) {
            if edge.port != Port::Activate {
                return None;
            }
            sub.add_edge(StateId::new(j), StateId::new(local[edge.to.index()]));
        }
    }
    Some(sub)
}

/// The spec `sub` was built from, if any: candidate `(profile, k)`
/// pairs come from the start and report counts, the classes from the
/// track-0, zero-edit spine each candidate's layout places, and the
/// rebuild decides.
fn spec_of(sub: &Automaton) -> Option<MeshSpec> {
    // Both layouts begin with a start state: Levenshtein's first
    // insertion cell, or the first match cell.
    let start = sub.element(StateId::new(0)).start_kind();
    if start == StartKind::None {
        return None;
    }
    let (code, eod_only) = sub
        .iter()
        .find_map(|(_, e)| e.report.map(|code| (code.0, e.report_eod_only)))?;
    let starts = sub
        .iter()
        .filter(|(_, e)| e.start_kind() != StartKind::None)
        .count();
    let reports = sub.iter().filter(|(_, e)| e.report.is_some()).count();
    // A Levenshtein mesh at budget k starts in 3k + 1 cells. A Hamming
    // mesh reports from 2k + 1 cells, 2r + 2 when fewer than k
    // mismatches fit before the last position, and r + 1 when that
    // position is Σ.
    let mut candidates = Vec::with_capacity(4);
    if starts > 1 && (starts - 1) % 3 == 0 {
        candidates.push((EditProfile::LEVENSHTEIN, (starts - 1) / 3));
    }
    for k in [(reports - 1) / 2, reports / 2, reports - 1] {
        if !candidates.contains(&(EditProfile::HAMMING, k)) {
            candidates.push((EditProfile::HAMMING, k));
        }
    }
    candidates.into_iter().find_map(|(profile, edits)| {
        let classes = spine(sub, profile, edits)?;
        check_pattern(&classes, edits, profile).ok()?;
        let spec = MeshSpec {
            classes,
            edits,
            profile,
            code,
            start,
            eod_only,
        };
        (spec.build() == *sub).then_some(spec)
    })
}

/// Reads the pattern off the first state of each column of the
/// `(profile, d)` layout (the track-0, zero-edit cell), or `None` when
/// the layout does not tile `sub`'s states.
fn spine(sub: &Automaton, profile: EditProfile, d: usize) -> Option<Vec<SymbolClass>> {
    let n = sub.state_count();
    let class_at = |i: usize| match sub.element(StateId::new(i)).kind {
        ElementKind::Ste { class, .. } => Some(class),
        ElementKind::Counter { .. } => None,
    };
    if profile == EditProfile::LEVENSHTEIN {
        // Every cell is live: k insertion cells in column 0, then 2k + 1
        // per column.
        let width = 2 * d + 1;
        let body = n.checked_sub(d)?;
        if body == 0 || body % width != 0 {
            return None;
        }
        return (0..body / width).map(|i| class_at(d + i * width)).collect();
    }
    // Hamming columns hold r + 1 match cells and min(k, r + 1) mismatch
    // cells, where r mismatches fit before the column.
    let mut classes = Vec::new();
    let (mut at, mut r) = (0usize, 0usize);
    while at < n {
        let class = class_at(at)?;
        let mismatchable = d > 0 && !class.is_full();
        at += r + 1 + if mismatchable { d.min(r + 1) } else { 0 };
        r = d.min(r + usize::from(mismatchable));
        classes.push(class);
    }
    (at == n).then_some(classes)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use rand::{RngExt, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn spec(pattern: &[u8], edits: usize, profile: EditProfile) -> MeshSpec {
        MeshSpec {
            classes: pattern.iter().map(|&b| SymbolClass::from_byte(b)).collect(),
            edits,
            profile,
            code: 7,
            start: StartKind::AllInput,
            eod_only: false,
        }
    }

    #[test]
    fn hamming_meshes_are_built_live() {
        // Skipping the pruning pass is sound only if the live build is
        // exactly what pruning the uniform grid would leave.
        let mut rng = ChaCha8Rng::seed_from_u64(0x64);
        for _ in 0..200 {
            let l = rng.random_range(1..12usize);
            let classes: Vec<SymbolClass> = (0..l)
                .map(|_| match rng.random_range(0..6u8) {
                    0 => SymbolClass::FULL,
                    1 => SymbolClass::from_bytes(b"ab"),
                    b => SymbolClass::from_byte(b'a' + b),
                })
                .collect();
            let s = MeshSpec {
                classes,
                edits: rng.random_range(0..l),
                ..spec(b"x", 0, EditProfile::HAMMING)
            };
            let built = s.build();
            assert_eq!(built, remove_dead(&built), "{s:?}");
        }
    }

    #[test]
    fn recognize_recovers_every_spec() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xA11);
        for round in 0..300 {
            let mut a = Automaton::new();
            let mut want = Vec::new();
            let hamming = round % 2 == 1;
            for code in 0..rng.random_range(1..4u32) {
                let l = rng.random_range(if hamming { 3 } else { 1 }..30usize);
                let mut s = spec(&[b'a'; 1], 0, EditProfile::HAMMING);
                s.classes = (0..l)
                    .map(|_| match rng.random_range(0..9u8) {
                        // Σ positions can cut a Hamming mesh in two.
                        0 if !hamming => SymbolClass::FULL,
                        1 => SymbolClass::from_bytes(b"gG"),
                        b => SymbolClass::from_byte(b"ACGT"[usize::from(b % 4)]),
                    })
                    .collect();
                s.edits = rng.random_range(0..l.min(11));
                s.profile = if hamming {
                    EditProfile::HAMMING
                } else {
                    EditProfile::LEVENSHTEIN
                };
                s.code = code;
                s.start = if rng.random_range(0..4u8) == 0 {
                    StartKind::StartOfData
                } else {
                    StartKind::AllInput
                };
                s.eod_only = rng.random_range(0..5u8) == 0;
                a.append(&s.build());
                want.push(s);
            }
            let got = recognize(&a).unwrap_or_else(|e| panic!("{e:?}: {want:?}"));
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                // A zero-budget mesh is the same chain under both
                // profiles, and a Hamming budget no pattern prefix can
                // spend builds the same mesh as the smallest one that
                // fits; what must hold is that the rebuild is exact.
                assert_eq!(g.build(), w.build(), "{w:?}");
                assert_eq!(g.classes, w.classes);
                if w.edits > 0 && w.profile == EditProfile::LEVENSHTEIN {
                    assert_eq!((g.edits, g.profile), (w.edits, w.profile));
                }
            }
        }
    }

    #[test]
    fn recognize_rejects_a_perturbed_mesh() {
        let base = spec(b"ACGTACGTAC", 2, EditProfile::LEVENSHTEIN).build();
        assert!(recognize(&base).is_ok());
        let mut extra_edge = base.clone();
        let last = StateId::new(base.state_count() - 1);
        extra_edge.add_edge(last, StateId::new(0));
        assert_eq!(recognize(&extra_edge), Err(StateId::new(0)));
        let mut reclassed = base.clone();
        let spine = StateId::new(2 + 3 * 5);
        if let ElementKind::Ste { class, .. } = &mut reclassed.element_mut(spine).kind {
            class.insert(b'Z');
        }
        assert!(recognize(&reclassed).is_err());
        let mut counter = Automaton::new();
        counter.add_counter(2, azoo_core::CounterMode::Latch);
        assert!(recognize(&counter).is_err());
    }
}
