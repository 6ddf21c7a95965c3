//! The bit-vector tier: edit-distance meshes run as Myers / Shift-Add
//! lanes.
//!
//! A Levenshtein mesh *is* Myers' bit-vector recurrence (Hyyrö's
//! formulation of Sellers' search DP) and a Hamming mesh *is*
//! Baeza-Yates–Gonnet Shift-Add, so a machine that is a union of such
//! meshes needs no active set at all: each pattern gets one `u64` lane,
//! and each input byte costs a fixed handful of word operations per
//! lane, however many error-layer states the mesh would have enabled.
//!
//! Admission is exact by construction: [`BitParallelEngine::new`] asks
//! `azoo_passes::recognize` for every component's spec, which it returns
//! only when rebuilding the component from that spec reproduces it state
//! for state. The lanes then compute, per spec, the same predicate the
//! mesh computes: "some suffix of the stream (the whole stream, when
//! anchored) is within `k` edits of the pattern".

use std::collections::HashMap;

use azoo_core::{Automaton, ReportCode, StartKind, SymbolClass};
use azoo_passes::mesh::{EditProfile, MeshSpec};

use crate::sink::ReportSink;
use crate::stream::StreamingEngine;
use crate::{Engine, EngineError};

/// Bit-vector engine for unions of edit-distance meshes.
///
/// Every component of the machine must rebuild exactly as an
/// [`EditProfile::LEVENSHTEIN`] or [`EditProfile::HAMMING`] mesh, all
/// with the same profile, and at least one with a non-zero budget
/// (zero-budget components, plain literal chains, fit either profile).
/// Levenshtein lanes run Myers' recurrence and need a pattern of at
/// most 64 positions; Hamming lanes run Shift-Add with
/// `⌈log2(k + 1)⌉ + 1`-bit counters and need `m` such fields to fit 64
/// bits. `StartOfData` meshes are anchored by what the lane shifts in
/// at its first position.
///
/// Lanes are laid out as structure-of-arrays: one row of per-lane match
/// (Myers) or mismatch (Shift-Add) masks per byte class, where a byte
/// class is a set of bytes no pattern position tells apart.
///
/// Reports are canonical: at most one per `(offset, code)`, whichever
/// lanes share the code.
#[derive(Debug, Clone)]
pub struct BitParallelEngine {
    kernel: Kernel,
    lanes: usize,
    /// Row of `rows` each byte value selects.
    class_of: [u16; 256],
    /// `lanes` words per byte class.
    rows: Vec<u64>,
    code: Vec<u32>,
    /// Dense index of each lane's code, for the per-offset dedup.
    code_idx: Vec<u32>,
    eod_only: Vec<bool>,
    any_eod_only: bool,
    /// Per dense code: 1 + the offset it last reported at.
    stamp: Vec<u64>,
    /// End-of-data reports held back because the final symbol of a
    /// non-`eod` feed may turn out to be the last of the stream.
    pending_eod: Vec<(u64, u32)>,
    stream_offset: u64,
}

#[derive(Debug, Clone)]
enum Kernel {
    Myers(Myers),
    ShiftAdd(ShiftAdd),
}

/// A run of lanes sharing pattern length `m`, budget `k` and anchoring,
/// so that the hot loops read per-lane state only.
#[derive(Debug, Clone, Copy)]
struct Group {
    start: usize,
    end: usize,
    m: u32,
    k: u64,
    anchored: bool,
}

impl Group {
    /// Splits `specs`, sorted by [`group_key`], into runs of equal keys.
    fn runs(specs: &[MeshSpec]) -> Vec<Group> {
        let mut groups: Vec<Group> = Vec::new();
        for (j, s) in specs.iter().enumerate() {
            match groups.last_mut() {
                Some(g) if group_key(&specs[g.start]) == group_key(s) => g.end = j + 1,
                _ => groups.push(Group {
                    start: j,
                    end: j + 1,
                    m: s.classes.len() as u32,
                    k: s.edits as u64,
                    anchored: anchored(s),
                }),
            }
        }
        groups
    }

    fn width(&self) -> u32 {
        field_width(self.k as usize)
    }

    /// The top bit of each of the `m` Shift-Add fields.
    fn field_tops(&self) -> u64 {
        let w = self.width();
        (0..self.m).map(|i| 1u64 << (i * w + w - 1)).sum()
    }

    /// The top bit of the last field (Shift-Add) or position (Myers).
    fn last(&self, width: u32) -> u64 {
        1u64 << (self.m * width - 1)
    }
}

/// Myers/Hyyrö lanes: the vertical delta vectors of the search DP's
/// current column, plus its last cell.
#[derive(Debug, Clone)]
struct Myers {
    groups: Vec<Group>,
    /// Edit budget per lane.
    k: Vec<u64>,
    pv: Vec<u64>,
    mv: Vec<u64>,
    /// Distance of the best alignment ending at the current symbol.
    score: Vec<u64>,
}

/// Shift-Add lanes: one mismatch counter per pattern position, each in
/// a field whose top bit flags an overflow past `k`.
#[derive(Debug, Clone)]
struct ShiftAdd {
    groups: Vec<Group>,
    /// The top bit of each lane's last field: its whole-pattern alignment.
    top: Vec<u64>,
    counters: Vec<u64>,
    overflow: Vec<u64>,
}

impl Myers {
    fn new(specs: &[MeshSpec]) -> Myers {
        let lanes = specs.len();
        let mut myers = Myers {
            groups: Group::runs(specs),
            k: specs.iter().map(|s| s.edits as u64).collect(),
            pv: vec![0; lanes],
            mv: vec![0; lanes],
            score: vec![0; lanes],
        };
        myers.reset();
        myers
    }

    fn reset(&mut self) {
        for g in &self.groups {
            // Row j of the column before any input holds j: all vertical
            // deltas +1, last cell m.
            self.pv[g.start..g.end].fill(ones(g.last(1)));
            self.mv[g.start..g.end].fill(0);
            self.score[g.start..g.end].fill(u64::from(g.m));
        }
    }

    fn quiesced(&self) -> bool {
        self.groups.iter().all(|g| {
            let r = g.start..g.end;
            self.pv[r.clone()].iter().all(|&p| p == ones(g.last(1)))
                && self.mv[r.clone()].iter().all(|&m| m == 0)
                && self.score[r].iter().all(|&s| s == u64::from(g.m))
        })
    }

    fn hit(&self, j: usize) -> bool {
        self.score[j] <= self.k[j]
    }

    /// Advances every lane by one symbol whose match masks are `eqs`;
    /// returns whether any lane is within its budget.
    #[inline]
    fn step(&mut self, eqs: &[u64]) -> bool {
        let mut any = 0u64;
        for g in &self.groups {
            let r = g.start..g.end;
            let shift = g.m - 1;
            let limit = g.k + 1;
            // Anchored lanes' DP top row grows by one per symbol; search
            // lanes' stays at zero.
            let hin = u64::from(g.anchored);
            let lanes = eqs[r.clone()]
                .iter()
                .zip(&mut self.pv[r.clone()])
                .zip(&mut self.mv[r.clone()])
                .zip(&mut self.score[r]);
            for (((&eq, pv), mv), score) in lanes {
                let (p, m) = (*pv, *mv);
                let xv = eq | m;
                let xh = ((eq & p).wrapping_add(p) ^ p) | eq;
                let ph = m | !(xh | p);
                let mh = p & xh;
                let s = *score + ((ph >> shift) & 1) - ((mh >> shift) & 1);
                *score = s;
                let ph = (ph << 1) | hin;
                let mh = mh << 1;
                *pv = mh | !(xv | ph);
                *mv = ph & xv;
                // The sign bit of s - (k + 1) is set iff s <= k.
                any |= s.wrapping_sub(limit) >> 63;
            }
        }
        any != 0
    }
}

impl ShiftAdd {
    fn new(specs: &[MeshSpec]) -> ShiftAdd {
        let groups = Group::runs(specs);
        let mut top = vec![0; specs.len()];
        for g in &groups {
            top[g.start..g.end].fill(g.last(g.width()));
        }
        let mut shift_add = ShiftAdd {
            groups,
            top,
            counters: vec![0; specs.len()],
            overflow: vec![0; specs.len()],
        };
        shift_add.reset();
        shift_add
    }

    fn reset(&mut self) {
        self.counters.fill(0);
        // No alignment exists before the first symbol.
        for g in &self.groups {
            self.overflow[g.start..g.end].fill(g.field_tops());
        }
    }

    fn quiesced(&self) -> bool {
        self.counters.iter().all(|&c| c == 0)
            && self.groups.iter().all(|g| {
                self.overflow[g.start..g.end]
                    .iter()
                    .all(|&o| o == g.field_tops())
            })
    }

    fn hit(&self, j: usize) -> bool {
        self.overflow[j] & self.top[j] == 0
    }

    /// Advances every lane by one symbol whose mismatch masks are
    /// `miss`; `first` marks the stream's first symbol. Returns whether
    /// any lane's whole-pattern alignment is within its budget.
    #[inline]
    fn step(&mut self, miss: &[u64], first: bool) -> bool {
        let mut any = 0u64;
        for g in &self.groups {
            let r = g.start..g.end;
            let width = g.width();
            let hi = g.field_tops();
            let top = g.last(width);
            let low = ones(top) & !hi;
            // A fresh counter starts at 2^(width - 1) - 1 - k, so its top
            // bit sets exactly on the (k + 1)-th mismatch.
            let fresh = (1u64 << (width - 1)) - 1 - g.k;
            // Anchored lanes' alignments may only start at the first
            // symbol: later ones are shifted in already overflowed.
            let stale = if g.anchored && !first {
                1u64 << (width - 1)
            } else {
                0
            };
            let lanes = miss[r.clone()]
                .iter()
                .zip(&mut self.counters[r.clone()])
                .zip(&mut self.overflow[r]);
            for ((&miss, counters), overflow) in lanes {
                // Each field gains at most one per symbol, so a count
                // below the top bit never carries into the next field.
                let c = ((*counters << width) | fresh) + miss;
                let o = (*overflow << width) | stale | (c & hi);
                *counters = c & low;
                *overflow = o;
                any |= !o & top;
            }
        }
        any != 0
    }
}

/// The low `m` bits set, for `top = 1 << (m - 1)`.
fn ones(top: u64) -> u64 {
    top | (top - 1)
}

/// Lanes with equal keys share a [`Group`].
fn group_key(s: &MeshSpec) -> (usize, usize, bool) {
    (s.classes.len(), s.edits, anchored(s))
}

impl BitParallelEngine {
    /// Compiles `a` for the bit-vector tier.
    ///
    /// # Errors
    ///
    /// [`EngineError::Invalid`] if `a` fails validation,
    /// [`EngineError::NotAMesh`] if some component does not rebuild
    /// exactly as a Levenshtein or Hamming mesh,
    /// [`EngineError::NoEditBudget`] if every component is a plain chain,
    /// and
    /// [`EngineError::LaneUnsupported`] if a component's pattern does not
    /// fit one lane or its profile differs from the others'.
    pub fn new(a: &Automaton) -> Result<Self, EngineError> {
        a.validate()?;
        let mut specs = azoo_passes::recognize(a).map_err(EngineError::NotAMesh)?;
        // Plain chains alone are Shift-And, which loses to the other
        // tiers on them (Random Forest's range chains run faster on the
        // NFA); zero-budget lanes only ride along with real meshes.
        let profile = specs
            .iter()
            .find(|s| s.edits > 0)
            .ok_or(EngineError::NoEditBudget)?
            .profile;
        for (component, s) in specs.iter().enumerate() {
            let reason = if s.edits > 0 && s.profile != profile {
                "mixes edit profiles"
            } else if s.classes.len() * position_bits(s, profile) as usize > 64 {
                "pattern does not fit one 64-bit lane"
            } else {
                continue;
            };
            return Err(EngineError::LaneUnsupported { component, reason });
        }

        // Lane order is free (lanes are independent and reports are
        // deduplicated per code); grouping equal shapes hoists the
        // kernels' constants out of their hot loops.
        specs.sort_by_key(group_key);

        // Byte classes: bytes every pattern position treats alike.
        let mut distinct: Vec<SymbolClass> = specs.iter().flat_map(|s| s.classes.clone()).collect();
        distinct.sort_unstable_by_key(|c| *c.as_words());
        distinct.dedup();
        let mut signatures: HashMap<Vec<bool>, u16> = HashMap::new();
        let mut reps: Vec<u8> = Vec::new();
        let mut class_of = [0u16; 256];
        for b in 0..=255u8 {
            let sig: Vec<bool> = distinct.iter().map(|c| c.contains(b)).collect();
            class_of[usize::from(b)] = *signatures.entry(sig).or_insert_with(|| {
                reps.push(b);
                reps.len() as u16 - 1
            });
        }

        let lanes = specs.len();
        let mut rows = Vec::with_capacity(reps.len() * lanes);
        for &b in &reps {
            for s in &specs {
                rows.push(lane_row(s, profile, b));
            }
        }
        let kernel = if profile == EditProfile::LEVENSHTEIN {
            Kernel::Myers(Myers::new(&specs))
        } else {
            Kernel::ShiftAdd(ShiftAdd::new(&specs))
        };

        let mut codes: Vec<u32> = specs.iter().map(|s| s.code).collect();
        codes.sort_unstable();
        codes.dedup();
        let code_idx = specs
            .iter()
            .map(|s| codes.binary_search(&s.code).map_or(0, |i| i as u32))
            .collect();
        let eod_only: Vec<bool> = specs.iter().map(|s| s.eod_only).collect();
        Ok(BitParallelEngine {
            kernel,
            lanes,
            class_of,
            rows,
            code: specs.iter().map(|s| s.code).collect(),
            code_idx,
            any_eod_only: eod_only.contains(&true),
            eod_only,
            stamp: vec![0; codes.len()],
            pending_eod: Vec::new(),
            stream_offset: 0,
        })
    }

    /// Number of lanes (one per mesh component).
    pub(crate) fn lane_count(&self) -> usize {
        self.lanes
    }

    /// Which recurrence the lanes run: `"myers"` or `"shift-add"`.
    pub(crate) fn kernel_name(&self) -> &'static str {
        match self.kernel {
            Kernel::Myers(_) => "myers",
            Kernel::ShiftAdd(_) => "shift-add",
        }
    }

    fn reset_lanes(&mut self) {
        match &mut self.kernel {
            Kernel::Myers(k) => k.reset(),
            Kernel::ShiftAdd(k) => k.reset(),
        }
        self.stamp.fill(0);
        self.pending_eod.clear();
    }

    fn process(&mut self, input: &[u8], base: u64, eod: bool, sink: &mut dyn ReportSink) {
        // New symbols mean the held-back end-of-data candidates were not
        // at the end of the stream after all.
        if !input.is_empty() {
            self.pending_eod.clear();
        }
        let n = self.lanes;
        for (pos, &c) in input.iter().enumerate() {
            let at = usize::from(self.class_of[usize::from(c)]) * n;
            let row = &self.rows[at..at + n];
            let offset = base + pos as u64;
            let hit = match &mut self.kernel {
                Kernel::Myers(k) => k.step(row),
                Kernel::ShiftAdd(k) => k.step(row, offset == 0),
            };
            if hit {
                let final_symbol = pos + 1 == input.len();
                self.emit(offset, eod && final_symbol, !eod && final_symbol, sink);
            }
        }
    }

    /// Reports the lanes within budget at `offset`: unconditional lanes
    /// first, then end-of-data lanes whose code is still unclaimed —
    /// emitted on the stream's last symbol, held back on the last symbol
    /// of a non-`eod` feed.
    fn emit(&mut self, offset: u64, last: bool, maybe_last: bool, sink: &mut dyn ReportSink) {
        let tag = offset + 1;
        let hit = |kernel: &Kernel, j: usize| match kernel {
            Kernel::Myers(k) => k.hit(j),
            Kernel::ShiftAdd(k) => k.hit(j),
        };
        for j in 0..self.lanes {
            if !self.eod_only[j] && hit(&self.kernel, j) {
                let idx = self.code_idx[j] as usize;
                if self.stamp[idx] != tag {
                    self.stamp[idx] = tag;
                    sink.report(offset, ReportCode(self.code[j]));
                }
            }
        }
        if !(self.any_eod_only && (last || maybe_last)) {
            return;
        }
        for j in 0..self.lanes {
            if self.eod_only[j] && hit(&self.kernel, j) {
                let idx = self.code_idx[j] as usize;
                if self.stamp[idx] != tag {
                    self.stamp[idx] = tag;
                    if last {
                        sink.report(offset, ReportCode(self.code[j]));
                    } else {
                        self.pending_eod.push((offset, self.code[j]));
                    }
                }
            }
        }
    }
}

fn anchored(s: &MeshSpec) -> bool {
    s.start == StartKind::StartOfData
}

/// Shift-Add field width for budget `k`: `⌈log2(k + 1)⌉ + 1` bits.
fn field_width(k: usize) -> u32 {
    usize::BITS - k.leading_zeros() + 1
}

/// Bits per pattern position in a lane of `s` under the engine's
/// `profile`: one match bit (Myers) or one counter field (Shift-Add).
fn position_bits(s: &MeshSpec, profile: EditProfile) -> u32 {
    if profile == EditProfile::LEVENSHTEIN {
        1
    } else {
        field_width(s.edits)
    }
}

/// Lane word of `s` for byte `b`: position `i`'s match bit (Myers) or
/// its field's mismatch unit (Shift-Add).
fn lane_row(s: &MeshSpec, profile: EditProfile, b: u8) -> u64 {
    let width = position_bits(s, profile);
    let wanted = profile == EditProfile::LEVENSHTEIN;
    s.classes
        .iter()
        .enumerate()
        .filter(|(_, c)| c.contains(b) == wanted)
        .map(|(i, _)| 1u64 << (i as u32 * width))
        .sum()
}

impl Engine for BitParallelEngine {
    fn scan(&mut self, input: &[u8], sink: &mut dyn ReportSink) {
        self.reset_lanes();
        self.process(input, 0, true, sink);
    }

    fn name(&self) -> &'static str {
        "bitpar"
    }
}

impl StreamingEngine for BitParallelEngine {
    fn reset_stream(&mut self) {
        self.reset_lanes();
        self.stream_offset = 0;
    }

    fn stream_quiesced(&self) -> bool {
        let lanes = match &self.kernel {
            Kernel::Myers(k) => k.quiesced(),
            Kernel::ShiftAdd(k) => k.quiesced(),
        };
        lanes
            && self.stream_offset == 0
            && self.pending_eod.is_empty()
            && self.stamp.iter().all(|&s| s == 0)
    }

    fn feed(&mut self, chunk: &[u8], eod: bool, sink: &mut dyn ReportSink) {
        let base = self.stream_offset;
        self.process(chunk, base, eod, sink);
        self.stream_offset = base + chunk.len() as u64;
        if eod {
            // End of data on an empty chunk: the last symbol was consumed
            // by an earlier feed — emit the reports it held back.
            for &(offset, code) in &self.pending_eod {
                sink.report(offset, ReportCode(code));
            }
            self.pending_eod.clear();
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::sink::{CollectSink, Report};
    use crate::NfaEngine;
    use rand::{RngExt, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn spec(pattern: &[u8], edits: usize, profile: EditProfile, code: u32) -> MeshSpec {
        MeshSpec {
            classes: pattern.iter().map(|&b| SymbolClass::from_byte(b)).collect(),
            edits,
            profile,
            code,
            start: StartKind::AllInput,
            eod_only: false,
        }
    }

    fn machine(specs: &[MeshSpec]) -> Automaton {
        let mut a = Automaton::new();
        for s in specs {
            a.append(&s.build());
        }
        a
    }

    fn block(engine: &mut dyn Engine, input: &[u8]) -> Vec<Report> {
        let mut sink = CollectSink::new();
        engine.scan(input, &mut sink);
        sink.sorted_reports()
    }

    fn chunked<E: StreamingEngine>(engine: &mut E, input: &[u8], size: usize) -> Vec<Report> {
        let mut sink = CollectSink::new();
        let mut chunks: Vec<&[u8]> = input.chunks(size.max(1)).collect();
        // An empty end-of-data chunk exercises the held-back `$` reports.
        chunks.push(&[]);
        engine.scan_chunks(chunks, &mut sink);
        sink.sorted_reports()
    }

    /// Block, 1-byte and 1500-byte streams of the tier all equal the
    /// NFA's block stream; returns it.
    fn assert_agrees(a: &Automaton, input: &[u8]) -> Vec<Report> {
        let want = block(&mut NfaEngine::new(a).unwrap(), input);
        let mut engine = BitParallelEngine::new(a).unwrap();
        assert_eq!(block(&mut engine, input), want, "block");
        for size in [1, 7, 1500] {
            assert_eq!(
                chunked(&mut engine, input, size),
                want,
                "{size}-byte chunks"
            );
            engine.reset();
        }
        want
    }

    fn dna(rng: &mut ChaCha8Rng, len: usize) -> Vec<u8> {
        (0..len)
            .map(|_| b"ACGT"[rng.random_range(0..4usize)])
            .collect()
    }

    #[test]
    fn random_meshes_agree_with_the_nfa() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xB17);
        let mut reported = 0;
        for round in 0..120 {
            let profile = if round % 2 == 0 {
                EditProfile::LEVENSHTEIN
            } else {
                EditProfile::HAMMING
            };
            let eod_only = round % 5 == 0;
            let mut specs = Vec::new();
            let mut patterns = Vec::new();
            for i in 0..rng.random_range(1..6u32) {
                let len = rng.random_range(3..12usize);
                let pattern = dna(&mut rng, len);
                // Zero-budget lanes ride along with at least one mesh.
                let edits = rng.random_range(usize::from(i == 0)..4usize.min(len));
                let mut s = spec(&pattern, edits, profile, i);
                // Shared codes must still report once per offset.
                s.code = i % 3;
                s.eod_only = eod_only;
                if rng.random_range(0..4u8) == 0 {
                    s.start = StartKind::StartOfData;
                }
                specs.push(s);
                patterns.push(pattern);
            }
            let a = machine(&specs);
            // Noise with planted copies of the patterns, one per slot.
            let noise = rng.random_range(0..300usize);
            let mut input = dna(&mut rng, noise);
            for p in &patterns {
                let at = rng.random_range(0..=input.len());
                input.splice(at..at, p.iter().copied());
            }
            if rng.random_range(0..3u8) == 0 {
                input.splice(0..0, patterns[0].iter().copied());
            }
            reported += assert_agrees(&a, &input).len();
        }
        assert!(
            reported > 500,
            "only {reported} reports: the check is vacuous"
        );
    }

    #[test]
    fn anchored_and_eod_gated_meshes_agree_on_short_streams() {
        for profile in [EditProfile::LEVENSHTEIN, EditProfile::HAMMING] {
            for (start, eod_only) in [
                (StartKind::AllInput, false),
                (StartKind::StartOfData, false),
                (StartKind::AllInput, true),
                (StartKind::StartOfData, true),
            ] {
                let mut s = spec(b"GATTACA", 2, profile, 4);
                s.start = start;
                s.eod_only = eod_only;
                let a = machine(&[s]);
                for input in [
                    &b""[..],
                    b"GATTACA",
                    b"GATTAC",
                    b"CGATTACA",
                    b"GATXACAT",
                    b"TTGATTACATT",
                ] {
                    assert_agrees(&a, input);
                }
            }
        }
    }

    #[test]
    fn lanes_span_the_full_word() {
        // m = 64 (Myers) and m * width = 64 (Shift-Add, k = 1: 2 bits).
        let mut rng = ChaCha8Rng::seed_from_u64(64);
        let long = dna(&mut rng, 64);
        let half = dna(&mut rng, 32);
        let mut input = dna(&mut rng, 500);
        input.splice(100..100, long.iter().copied());
        input.splice(300..300, half.iter().copied());
        input[120] = b'N';
        input[310] = b'N';
        let lev = machine(&[spec(&long, 3, EditProfile::LEVENSHTEIN, 0)]);
        assert!(!assert_agrees(&lev, &input).is_empty());
        let ham = machine(&[spec(&half, 1, EditProfile::HAMMING, 0)]);
        assert!(!assert_agrees(&ham, &input).is_empty());
    }

    #[test]
    fn machines_it_cannot_run_are_refused_with_a_typed_error() {
        let too_long = machine(&[spec(&[b'A'; 65], 1, EditProfile::LEVENSHTEIN, 0)]);
        assert_eq!(
            BitParallelEngine::new(&too_long).err(),
            Some(EngineError::LaneUnsupported {
                component: 0,
                reason: "pattern does not fit one 64-bit lane"
            })
        );
        // 22 positions at k = 5 need 22 four-bit fields.
        let too_wide = machine(&[spec(&[b'A'; 22], 5, EditProfile::HAMMING, 0)]);
        assert!(matches!(
            BitParallelEngine::new(&too_wide),
            Err(EngineError::LaneUnsupported { component: 0, .. })
        ));
        let chains = machine(&[spec(b"ACGT", 0, EditProfile::HAMMING, 0)]);
        assert_eq!(
            BitParallelEngine::new(&chains).err(),
            Some(EngineError::NoEditBudget)
        );
        let mixed = machine(&[
            spec(b"ACGTACGT", 0, EditProfile::HAMMING, 0),
            spec(b"ACGTACGT", 1, EditProfile::LEVENSHTEIN, 1),
            spec(b"ACGTACGT", 1, EditProfile::HAMMING, 2),
        ]);
        assert!(matches!(
            BitParallelEngine::new(&mixed),
            Err(EngineError::LaneUnsupported { component: 2, .. })
        ));
        let mut chain = Automaton::new();
        let (_, last) = chain.add_chain(&[SymbolClass::from_byte(b'x'); 3], StartKind::AllInput);
        chain.set_report(last, 0);
        chain.add_edge(last, last);
        assert_eq!(
            BitParallelEngine::new(&chain).err(),
            Some(EngineError::NotAMesh(azoo_core::StateId::new(0)))
        );
    }

    #[test]
    fn reset_quiesces_and_clones_are_independent() {
        let mut s = spec(b"ACGTTGCA", 2, EditProfile::HAMMING, 1);
        s.eod_only = true;
        let a = machine(&[s, spec(b"TTTTACGT", 1, EditProfile::HAMMING, 1)]);
        let mut engine = BitParallelEngine::new(&a).unwrap();
        assert!(engine.stream_quiesced());
        engine.reset_stream();
        engine.feed(b"CCACGTTGCA", false, &mut CollectSink::new());
        assert!(!engine.stream_quiesced());
        let clone = engine.clone();
        engine.reset();
        assert!(engine.stream_quiesced());
        assert!(!clone.stream_quiesced());
    }
}
