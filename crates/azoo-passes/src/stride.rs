//! 8-striding of bit-level automata (Section IX-B of the AutomataZoo
//! paper).
//!
//! Bit-level automata (alphabet `{0, 1}`, one transition per input bit) are
//! the natural medium for file-metadata patterns with sub-byte and
//! cross-byte bit-fields. Striding converts them to ordinary byte-level
//! automata that consume 8 bits per symbol, executable by any automata
//! engine.
//!
//! The construction:
//!
//! 1. For every *boundary state* `s` (a bit state that can be enabled at a
//!    byte boundary) and every byte `b`, simulate the 8 bit-steps of `b`
//!    (MSB first) from `{s}`. This yields the byte-transition relation
//!    `T(s, b)` and the byte-report relation `R(s, code, b)`.
//! 2. Build a homogeneous byte automaton: one state per distinct
//!    `(target, label)` pair, whose class is the label (the set of bytes
//!    that reach the target), plus one *report companion* state per
//!    `(state, code)` whose class is the set of bytes on which the code
//!    fires.
//!
//! Bit-level start states are interpreted as **byte-aligned**: an
//! `AllInput` bit start may begin matching at any byte boundary (not any
//! bit). Reports that fire mid-byte are attributed to the byte containing
//! them.

use std::collections::{BTreeMap, HashMap, HashSet};

use azoo_core::{Automaton, ElementKind, StartKind, StateId, SymbolClass};

use crate::PassError;

/// Converts a bit-level automaton into a byte-level automaton consuming
/// 8 bits per symbol. Equivalent to [`stride_bits`] with `k = 8`.
///
/// # Errors
///
/// * [`PassError::NotBitLevel`] if any symbol class contains a symbol
///   other than `0` or `1`.
/// * [`PassError::CountersUnsupported`] if the automaton has counters.
///
/// # Example
///
/// ```
/// use azoo_core::{Automaton, StartKind, SymbolClass};
/// use azoo_passes::stride8;
///
/// // Bit-level pattern for the single byte 0x41 ('A'), MSB first.
/// let mut bits = Automaton::new();
/// let classes: Vec<SymbolClass> = (0..8)
///     .map(|i| SymbolClass::from_byte((0x41 >> (7 - i)) & 1))
///     .collect();
/// let (_, last) = bits.add_chain(&classes, StartKind::AllInput);
/// bits.set_report(last, 7);
/// let bytes = stride8(&bits)?;
/// assert_eq!(bytes.state_count(), 1);
/// let report = bytes.element(bytes.report_states()[0]);
/// assert!(report.class().unwrap().contains(0x41));
/// assert_eq!(report.class().unwrap().len(), 1);
/// # Ok::<(), azoo_passes::PassError>(())
/// ```
pub fn stride8(a: &Automaton) -> Result<Automaton, PassError> {
    stride_bits(a, 8)
}

/// Converts a bit-level automaton into a `k`-bit-strided automaton: each
/// output symbol packs `k` input bits, MSB first, into the low bits of a
/// byte (alphabet `0..2^k`). `k = 8` is the byte-striding of Section
/// IX-B; smaller strides let architects trade alphabet width for state
/// count (Becchi's general striding transformation).
///
/// # Panics
///
/// Panics unless `k` is 1, 2, 4, or 8.
///
/// # Errors
///
/// As [`stride8`].
pub fn stride_bits(a: &Automaton, k: usize) -> Result<Automaton, PassError> {
    assert!(matches!(k, 1 | 2 | 4 | 8), "stride must be 1, 2, 4, or 8");
    let bit_alphabet = SymbolClass::from_bytes(&[0, 1]);
    for (id, e) in a.iter() {
        match &e.kind {
            ElementKind::Counter { .. } => return Err(PassError::CountersUnsupported(id)),
            ElementKind::Ste { class, .. } => {
                if !class.intersect(&bit_alphabet.complement()).is_empty() {
                    return Err(PassError::NotBitLevel(id));
                }
            }
        }
    }

    // Phase 1: byte-level relation from each boundary state.
    // labels[s] : target -> byte label; reports[s] : code -> byte label.
    // Ordered maps: phase 2 numbers output states in iteration order, so
    // the output is a function of the input alone.
    let mut labels: BTreeMap<u32, BTreeMap<u32, SymbolClass>> = BTreeMap::new();
    let mut reports: BTreeMap<u32, BTreeMap<u32, SymbolClass>> = BTreeMap::new();
    let starts: Vec<(StateId, StartKind)> = a
        .iter()
        .filter(|(_, e)| e.start_kind() != StartKind::None)
        .map(|(id, e)| (id, e.start_kind()))
        .collect();
    let mut worklist: Vec<u32> = starts.iter().map(|(id, _)| id.index() as u32).collect();
    worklist.sort_unstable();
    worklist.dedup();
    let mut visited: HashSet<u32> = worklist.iter().copied().collect();

    while let Some(s) = worklist.pop() {
        let entry = labels.entry(s).or_default();
        let rentry = reports.entry(s).or_default();
        let mut new_targets = Vec::new();
        for byte in 0..(1u16 << k) {
            let byte = byte as u8;
            let mut enabled: Vec<u32> = vec![s];
            for step in 0..k {
                let bit = (byte >> (k - 1 - step)) & 1;
                let mut next: Vec<u32> = Vec::new();
                for &x in &enabled {
                    let xe = a.element(StateId::new(x as usize));
                    let class = xe.class().expect("counters rejected above");
                    if class.contains(bit) {
                        if let Some(code) = xe.report {
                            rentry.entry(code.0).or_default().insert(byte);
                        }
                        for edge in a.successors(StateId::new(x as usize)) {
                            next.push(edge.to.index() as u32);
                        }
                    }
                }
                next.sort_unstable();
                next.dedup();
                enabled = next;
                if enabled.is_empty() && step + 1 < k {
                    break;
                }
            }
            for &t in &enabled {
                entry.entry(t).or_default().insert(byte);
                if !visited.contains(&t) {
                    new_targets.push(t);
                }
            }
        }
        for t in new_targets {
            if visited.insert(t) {
                worklist.push(t);
            }
        }
    }

    // Phase 2: homogenize. One state per distinct (target, label); one
    // report companion per (boundary state, code).
    let mut out = Automaton::new();
    let mut state_of: HashMap<(u32, SymbolClass), StateId> = HashMap::new();
    // copies[s]: every homogeneous copy (s, K) of s, in creation order.
    let mut copies: HashMap<u32, Vec<StateId>> = HashMap::new();
    let mut rep_of: HashMap<(u32, u32), StateId> = HashMap::new();

    // Create (target, label) states and report companions.
    for targets in labels.values() {
        for (&t, label) in targets {
            state_of.entry((t, *label)).or_insert_with(|| {
                let id = out.add_ste(*label, StartKind::None);
                copies.entry(t).or_default().push(id);
                id
            });
        }
    }
    for (&s, codes) in &reports {
        for (&code, label) in codes {
            let id = *rep_of
                .entry((s, code))
                .or_insert_with(|| out.add_ste(*label, StartKind::None));
            out.set_report(id, code);
        }
    }

    // Wire edges. A homogeneous copy (s, K) matching the current byte
    // means "s is byte-enabled for the next byte", so each copy of s
    // activates (t, L) for every byte-edge (s, L, t) and arms s's own
    // report companions for the next byte.
    let mut edge_seen = HashSet::new();
    for (&s, targets) in &labels {
        let copies = copies.get(&s).map_or(&[][..], Vec::as_slice);
        for (&t, label) in targets {
            let to = state_of[&(t, *label)];
            for &from in copies {
                if edge_seen.insert((from, to)) {
                    out.add_edge(from, to);
                }
            }
        }
        if let Some(codes) = reports.get(&s) {
            for &code in codes.keys() {
                let rep = rep_of[&(s, code)];
                for &from in copies {
                    if edge_seen.insert((from, rep)) {
                        out.add_edge(from, rep);
                    }
                }
            }
        }
    }

    // Start handling: targets of bit-start s0 become byte starts of s0's
    // kind; report companions of s0 are starts too.
    for (s0, kind) in &starts {
        let s = s0.index() as u32;
        if let Some(targets) = labels.get(&s) {
            for (&t, label) in targets {
                let id = state_of[&(t, *label)];
                promote_start(&mut out, id, *kind);
            }
        }
        if let Some(codes) = reports.get(&s) {
            for &code in codes.keys() {
                let id = rep_of[&(s, code)];
                promote_start(&mut out, id, *kind);
            }
        }
    }

    Ok(out)
}

fn promote_start(a: &mut Automaton, id: StateId, kind: StartKind) {
    let e = a.element_mut(id);
    if let ElementKind::Ste { start, .. } = &mut e.kind {
        *start = match (*start, kind) {
            (StartKind::AllInput, _) | (_, StartKind::AllInput) => StartKind::AllInput,
            (StartKind::StartOfData, _) | (_, StartKind::StartOfData) => StartKind::StartOfData,
            (StartKind::None, StartKind::None) => StartKind::None,
        };
    }
}

/// Builds a bit-level chain automaton from a pattern of bits, where `None`
/// is a wildcard bit. Bits are MSB-first within each byte. The final state
/// reports with `code`. Useful for constructing file-format bit patterns.
pub fn bit_pattern_chain(bits: &[Option<bool>], code: u32, start: StartKind) -> Automaton {
    let zero_one = SymbolClass::from_bytes(&[0, 1]);
    let classes: Vec<SymbolClass> = bits
        .iter()
        .map(|b| match b {
            Some(true) => SymbolClass::from_byte(1),
            Some(false) => SymbolClass::from_byte(0),
            None => zero_one,
        })
        .collect();
    let mut a = Automaton::new();
    let (_, last) = a.add_chain(&classes, start);
    a.set_report(last, code);
    a
}

/// Expands bytes into MSB-first fixed bits for [`bit_pattern_chain`].
pub fn bits_of_bytes(bytes: &[u8]) -> Vec<Option<bool>> {
    let mut out = Vec::with_capacity(bytes.len() * 8);
    for &b in bytes {
        for i in 0..8 {
            out.push(Some((b >> (7 - i)) & 1 == 1));
        }
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn single_byte_pattern_becomes_single_state() {
        let bits = bit_pattern_chain(&bits_of_bytes(&[0x41]), 5, StartKind::AllInput);
        let b = stride8(&bits).unwrap();
        assert_eq!(b.state_count(), 1);
        let rep = b.element(b.report_states()[0]);
        assert_eq!(rep.class().unwrap().len(), 1);
        assert!(rep.class().unwrap().contains(0x41));
        assert_eq!(rep.start_kind(), StartKind::AllInput);
        b.validate().unwrap();
    }

    #[test]
    fn two_byte_pattern_becomes_two_state_chain() {
        let bits = bit_pattern_chain(&bits_of_bytes(b"AB"), 1, StartKind::AllInput);
        let b = stride8(&bits).unwrap();
        assert_eq!(b.state_count(), 2);
        assert_eq!(b.edge_count(), 1);
        let starts = b.start_states();
        assert_eq!(starts.len(), 1);
        assert!(b.element(starts[0]).class().unwrap().contains(b'A'));
        let reps = b.report_states();
        assert_eq!(reps.len(), 1);
        assert!(b.element(reps[0]).class().unwrap().contains(b'B'));
        b.validate().unwrap();
    }

    #[test]
    fn low_nibble_wildcard_expands_to_sixteen_bytes() {
        // 0100 ???? : matches 0x40..=0x4f.
        let mut bits: Vec<Option<bool>> = vec![Some(false), Some(true), Some(false), Some(false)];
        bits.extend([None; 4]);
        let a = bit_pattern_chain(&bits, 0, StartKind::AllInput);
        let b = stride8(&a).unwrap();
        assert_eq!(b.state_count(), 1);
        let class = b.element(b.report_states()[0]).class().unwrap();
        assert_eq!(*class, SymbolClass::from_range(0x40, 0x4f));
    }

    #[test]
    fn cross_byte_bitfield_splits_targets() {
        // 16 bits: byte 0 fixed 0x12, then 3 wildcard bits, then fixed
        // 10110 — a field crossing the byte boundary... here the wildcards
        // are entirely in byte 1; use a pattern whose byte-1 constraint
        // depends on byte-0 wildcards instead:
        // bits: 4 fixed (0001), 8 wildcard, 4 fixed (0010) — the wildcard
        // run straddles the byte 0 / byte 1 boundary.
        let mut bits: Vec<Option<bool>> = vec![Some(false), Some(false), Some(false), Some(true)];
        bits.extend([None; 8]);
        bits.extend([Some(false), Some(false), Some(true), Some(false)]);
        let a = bit_pattern_chain(&bits, 9, StartKind::StartOfData);
        let b = stride8(&a).unwrap();
        b.validate().unwrap();
        // Byte 0 must be 0x10..=0x1f; byte 1 must be ????0010 = 0x02 mod 16.
        assert!(!b.report_states().is_empty());
        let starts = b.start_states();
        assert!(!starts.is_empty());
        for s in starts {
            let class = b.element(s).class().unwrap();
            for byte in class.iter() {
                assert_eq!(byte >> 4, 0x1);
            }
            assert_eq!(b.element(s).start_kind(), StartKind::StartOfData);
        }
        for r in b.report_states() {
            let class = b.element(r).class().unwrap();
            for byte in class.iter() {
                assert_eq!(byte & 0x0f, 0x2);
            }
        }
    }

    #[test]
    fn rejects_non_bit_alphabet() {
        let mut a = Automaton::new();
        a.add_ste(SymbolClass::from_byte(b'a'), StartKind::AllInput);
        assert!(matches!(stride8(&a), Err(PassError::NotBitLevel(_))));
    }

    #[test]
    fn rejects_counters() {
        let mut a = Automaton::new();
        let s = a.add_ste(SymbolClass::from_byte(1), StartKind::AllInput);
        let c = a.add_counter(2, azoo_core::CounterMode::Latch);
        a.add_edge(s, c);
        assert!(matches!(
            stride8(&a),
            Err(PassError::CountersUnsupported(_))
        ));
    }

    #[test]
    fn stride_bits_nibble_matches_bit_simulation() {
        use azoo_engines::{CollectSink, Engine, NfaEngine};
        // Pattern: the 12 bits 0xAB 0b1100 (one and a half bytes), with a
        // couple of wildcards.
        let mut bits = bits_of_bytes(&[0xAB]);
        bits.extend([Some(true), Some(true), None, Some(false)]);
        let bit_nfa = bit_pattern_chain(&bits, 4, StartKind::AllInput);
        let nib_nfa = stride_bits(&bit_nfa, 4).unwrap();
        nib_nfa.validate().unwrap();
        // Nibble stream: symbols 0..16, e.g. the pattern A B C/D 4..7 etc.
        let nib_input: Vec<u8> = vec![0x1, 0xA, 0xB, 0xC, 0x4, 0x9, 0xA, 0xB, 0xD, 0x6];
        let bit_input: Vec<u8> = nib_input
            .iter()
            .flat_map(|&n| (0..4).map(move |i| (n >> (3 - i)) & 1))
            .collect();
        let run = |a: &Automaton, input: &[u8]| -> Vec<u64> {
            let mut engine = NfaEngine::new(a).unwrap();
            let mut sink = CollectSink::new();
            engine.scan(input, &mut sink);
            sink.reports().iter().map(|r| r.offset).collect()
        };
        // Bit matches must start nibble-aligned to compare.
        let bit_hits: Vec<u64> = run(&bit_nfa, &bit_input)
            .into_iter()
            .filter(|o| (o + 1) % 4 == 0)
            .map(|o| o / 4)
            .collect();
        let nib_hits = run(&nib_nfa, &nib_input);
        assert_eq!(bit_hits, nib_hits);
        assert!(!nib_hits.is_empty(), "pattern should occur in the stream");
    }

    #[test]
    fn stride_one_is_identity_language() {
        use azoo_engines::{CollectSink, Engine, NfaEngine};
        let a = bit_pattern_chain(
            &[Some(true), Some(false), Some(true)],
            0,
            StartKind::AllInput,
        );
        let b = stride_bits(&a, 1).unwrap();
        let input = [1u8, 0, 1, 1, 0, 1, 0, 1];
        let run = |a: &Automaton| -> Vec<u64> {
            let mut engine = NfaEngine::new(a).unwrap();
            let mut sink = CollectSink::new();
            engine.scan(&input, &mut sink);
            sink.reports().iter().map(|r| r.offset).collect()
        };
        assert_eq!(run(&a), run(&b));
    }

    #[test]
    fn wider_strides_trade_states_for_alphabet() {
        let bits = bit_pattern_chain(&bits_of_bytes(b"PK"), 0, StartKind::AllInput);
        let s2 = stride_bits(&bits, 2).unwrap();
        let s4 = stride_bits(&bits, 4).unwrap();
        let s8 = stride_bits(&bits, 8).unwrap();
        assert!(s2.state_count() > s4.state_count());
        assert!(s4.state_count() > s8.state_count());
    }

    #[test]
    #[should_panic(expected = "stride must be")]
    fn stride_three_rejected() {
        let a = bit_pattern_chain(&[Some(true)], 0, StartKind::AllInput);
        let _ = stride_bits(&a, 3);
    }

    #[test]
    fn bits_of_bytes_is_msb_first() {
        let bits = bits_of_bytes(&[0b1000_0001]);
        assert_eq!(bits[0], Some(true));
        assert_eq!(bits[7], Some(true));
        assert!(bits[1..7].iter().all(|b| *b == Some(false)));
    }
}
