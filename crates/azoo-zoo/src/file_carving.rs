//! The File Carving benchmark (Section IX-B).
//!
//! File carving recovers files from raw byte streams by recognizing
//! header/footer patterns. Simple exact-match headers produce floods of
//! false positives, so AutomataZoo's benchmark validates the *bit-fields*
//! inside headers — e.g. the MS-DOS timestamp in a PKZip local file
//! header, whose seconds/minutes/hours fields cross byte boundaries.
//! Those patterns are authored as **bit-level automata** (alphabet
//! `{0, 1}`) and automatically 8-strided into byte automata.
//!
//! The benchmark is nine patterns: PKZip local header (with full
//! timestamp validation), PKZip end-of-central-directory, MPEG-2 pack
//! header (with marker-bit validation), MPEG-2 video PES header, MPEG-2
//! system header, MPEG program end, MP4 `ftyp` box, e-mail addresses,
//! and SSNs.

use azoo_core::{Automaton, SymbolClass};
use azoo_passes::stride8;
use azoo_regex::{compile, compile_pattern, Ast, Flags, Pattern};
use azoo_workloads::media::{carving_stimulus, CarvingConfig};

/// Parameters for the File Carving benchmark.
#[derive(Debug, Clone, Copy)]
pub struct FileCarvingParams {
    /// Input stream size in bytes.
    pub input_len: usize,
    /// Generation seed.
    pub seed: u64,
}

impl Default for FileCarvingParams {
    fn default() -> Self {
        FileCarvingParams {
            input_len: 1 << 20,
            seed: 0xF11E,
        }
    }
}

/// Report codes for the nine carved patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Carved {
    /// PKZip local file header with validated DOS timestamp.
    ZipLocalHeader = 0,
    /// PKZip end-of-central-directory record.
    ZipEndOfDirectory = 1,
    /// MPEG-2 program-stream pack header with '01' marker bits.
    Mpeg2Pack = 2,
    /// MPEG-2 video PES start code (0xE0-0xEF).
    Mpeg2VideoPes = 3,
    /// MPEG-2 system header start code.
    Mpeg2System = 4,
    /// MPEG program-end code.
    MpegProgramEnd = 5,
    /// MP4 `ftyp` box with known brands.
    Mp4Ftyp = 6,
    /// E-mail address.
    Email = 7,
    /// Social security number.
    Ssn = 8,
}

// ---- bit-level AST helpers ------------------------------------------------

fn bit(v: bool) -> Ast {
    Ast::Class(SymbolClass::from_byte(v as u8))
}

fn any_bit() -> Ast {
    Ast::Class(SymbolClass::from_bytes(&[0, 1]))
}

fn any_bits(n: usize) -> Vec<Ast> {
    (0..n).map(|_| any_bit()).collect()
}

/// The 8 bits of a byte, MSB first.
fn byte_bits(b: u8) -> Vec<Ast> {
    (0..8).map(|i| bit((b >> (7 - i)) & 1 == 1)).collect()
}

fn bytes_bits(bytes: &[u8]) -> Vec<Ast> {
    bytes.iter().flat_map(|&b| byte_bits(b)).collect()
}

/// `width`-bit field (MSB first) constrained to `value <= max`.
fn le_field(width: usize, max: u32) -> Ast {
    assert!(width <= 32 && max < (1u64 << width) as u32);
    // One branch per 1-bit of `max` (higher bits equal, this bit 0, rest
    // free), plus the exact value.
    let mut branches = Vec::new();
    for pos in (0..width).rev() {
        if max >> pos & 1 == 1 {
            let mut bits = Vec::with_capacity(width);
            for p in (0..width).rev() {
                use std::cmp::Ordering;
                match p.cmp(&pos) {
                    Ordering::Greater => bits.push(bit(max >> p & 1 == 1)),
                    Ordering::Equal => bits.push(bit(false)),
                    Ordering::Less => bits.push(any_bit()),
                }
            }
            branches.push(Ast::Concat(bits));
        }
    }
    branches.push(Ast::Concat(
        (0..width).rev().map(|p| bit(max >> p & 1 == 1)).collect(),
    ));
    Ast::Alt(branches)
}

/// `width`-bit field constrained to `value >= 1` (not all zeros): one
/// branch per position of the first 1-bit.
fn nonzero_field(width: usize) -> Ast {
    let branches = (0..width)
        .map(|first_one| {
            let mut bits = vec![bit(false); first_one];
            bits.push(bit(true));
            bits.extend(any_bits(width - first_one - 1));
            Ast::Concat(bits)
        })
        .collect();
    Ast::Alt(branches)
}

/// Bit-level pattern for a valid little-endian MS-DOS time: stream order
/// is low byte then high byte, MSB-first within each byte. Fields of the
/// 16-bit value `v`: seconds/2 = v4..v0 (<= 29), minutes = v10..v5
/// (<= 59), hours = v15..v11 (<= 23). The minutes field crosses the byte
/// boundary — the case byte-level regexes cannot express.
fn dos_time_bits() -> Ast {
    // Stream positions: byte0 = v7..v0, byte1 = v15..v8.
    // minutes = v10..v5: v10,v9,v8 live in byte1 (last 3 stream bits),
    // v7,v6,v5 lead byte0. Constraint "minutes <= 59" means
    // NOT(v10 v9 v8 = 111 AND v7 = 1). Factor into branches over the
    // coupled bits, with seconds (v4..v0, contiguous in byte0) and hours
    // (v15..v11, contiguous in byte1) nested inside.
    let sec = le_field(5, 29);
    let hours = le_field(5, 23);
    let branch = |v7: Option<bool>, high3: Vec<Ast>| -> Ast {
        let mut bits = Vec::new();
        bits.push(v7.map_or_else(any_bit, bit)); // v7
        bits.extend(any_bits(2)); // v6 v5 free
        bits.push(sec.clone()); // v4..v0
        bits.push(hours.clone()); // v15..v11
        bits.extend(high3); // v10 v9 v8
        Ast::Concat(bits)
    };
    Ast::Alt(vec![
        // v7 = 0: minutes <= 59 regardless of the high bits' value,
        // as long as v10..v8 themselves don't exceed: 0b111 with v7=0 is
        // minutes 56..59 — still valid. So high bits free.
        branch(Some(false), any_bits(3)),
        // v7 = 1: need v10 v9 v8 != 111.
        branch(Some(true), vec![bit(false), any_bit(), any_bit()]),
        branch(Some(true), vec![bit(true), bit(false), any_bit()]),
        branch(Some(true), vec![bit(true), bit(true), bit(false)]),
    ])
}

/// Bit-level pattern for a valid little-endian MS-DOS date: day = v4..v0
/// (>= 1), month = v8..v5 (1..=12, crossing the byte boundary), year =
/// v15..v9 (free).
fn dos_date_bits() -> Ast {
    let day = nonzero_field(5);
    // month = v8 v7 v6 v5; v8 is the last stream bit of byte1, v7..v5
    // lead byte0. Enumerate the twelve valid values.
    let branches = (1u8..=12)
        .map(|m| {
            let mut bits = Vec::new();
            for p in [2usize, 1, 0] {
                bits.push(bit(m >> p & 1 == 1)); // v7 v6 v5
            }
            bits.push(day.clone()); // v4..v0
            bits.extend(any_bits(7)); // v15..v9 year
            bits.push(bit(m >> 3 & 1 == 1)); // v8
            Ast::Concat(bits)
        })
        .collect();
    Ast::Alt(branches)
}

/// The PKZip local-file-header bit pattern: magic, 2 free version bytes,
/// 2 free flag bytes, method ∈ {stored, deflate}, then a fully validated
/// DOS time and date.
pub fn zip_local_header_bits() -> Ast {
    let mut bits = bytes_bits(b"PK\x03\x04");
    bits.extend(any_bits(16)); // version needed
    bits.extend(any_bits(16)); // flags
    bits.push(Ast::Alt(vec![
        Ast::Concat(bytes_bits(&[0x00, 0x00])), // stored
        Ast::Concat(bytes_bits(&[0x08, 0x00])), // deflate
    ]));
    bits.push(dos_time_bits());
    bits.push(dos_date_bits());
    Ast::Concat(bits)
}

/// The MPEG-2 pack header bit pattern: pack start code then the
/// `01` marker bits introducing the system clock reference.
pub fn mpeg2_pack_bits() -> Ast {
    let mut bits = bytes_bits(&[0x00, 0x00, 0x01, 0xBA]);
    bits.push(bit(false));
    bits.push(bit(true));
    bits.extend(any_bits(6));
    Ast::Concat(bits)
}

/// MPEG-2 video PES start code: `00 00 01 1110xxxx`.
pub fn mpeg2_pes_bits() -> Ast {
    let mut bits = bytes_bits(&[0x00, 0x00, 0x01]);
    bits.extend([bit(true), bit(true), bit(true), bit(false)]);
    bits.extend(any_bits(4));
    Ast::Concat(bits)
}

fn bit_automaton(ast: Ast, code: u32) -> Automaton {
    let pattern = Pattern {
        ast,
        anchored_start: false,
        anchored_end: false,
        flags: Flags::default(),
    };
    compile_pattern(&pattern, code).expect("bit patterns are well-formed")
}

fn compile_bit_pattern(ast: Ast, code: u32) -> Automaton {
    stride8(&bit_automaton(ast, code)).expect("bit patterns stride cleanly")
}

/// Builds the nine-pattern File Carving automaton.
pub fn build_automaton() -> Automaton {
    let mut a = Automaton::new();
    // Bit-level patterns, 8-strided.
    a.append(&compile_bit_pattern(
        zip_local_header_bits(),
        Carved::ZipLocalHeader as u32,
    ));
    a.append(&compile_bit_pattern(
        mpeg2_pack_bits(),
        Carved::Mpeg2Pack as u32,
    ));
    a.append(&compile_bit_pattern(
        mpeg2_pes_bits(),
        Carved::Mpeg2VideoPes as u32,
    ));
    // Byte-level patterns.
    let byte_patterns: [(&str, Carved); 6] = [
        (r"/PK\x05\x06/s", Carved::ZipEndOfDirectory),
        (r"/\x00\x00\x01\xbb/s", Carved::Mpeg2System),
        (r"/\x00\x00\x01\xb9/s", Carved::MpegProgramEnd),
        (r"/\x00\x00\x00.ftyp(isom|mp42|avc1)/s", Carved::Mp4Ftyp),
        (
            r"/[a-z0-9_]{1,16}@[a-z0-9_]{1,12}\.(com|net|org|edu)/",
            Carved::Email,
        ),
        (
            r"/[0-8][0-9][0-9]-[0-9][0-9]-[0-9][0-9][0-9][0-9]/",
            Carved::Ssn,
        ),
    ];
    for (pattern, code) in byte_patterns {
        a.append(&compile(pattern, code as u32).expect("carving patterns are well-formed"));
    }
    a
}

/// Builds the benchmark: the automaton plus the corrupted-filesystem
/// stimulus.
pub fn build(params: &FileCarvingParams) -> (Automaton, Vec<u8>) {
    let a = build_automaton();
    let input = carving_stimulus(
        params.seed,
        &CarvingConfig {
            len: params.input_len,
            ..CarvingConfig::default()
        },
    );
    (a, input)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use azoo_engines::{CollectSink, Engine, NfaEngine};
    use azoo_workloads::media::{dos_date, dos_time, zip_local_header};

    #[test]
    fn stride8_numbers_states_deterministically() {
        for ast in [zip_local_header_bits(), mpeg2_pack_bits(), mpeg2_pes_bits()] {
            let bits = bit_automaton(ast, 0);
            let once = azoo_core::mnrl::to_json(&stride8(&bits).unwrap(), "fc");
            let twice = azoo_core::mnrl::to_json(&stride8(&bits).unwrap(), "fc");
            assert_eq!(once, twice);
        }
    }

    fn codes_in(a: &Automaton, input: &[u8]) -> std::collections::HashSet<u32> {
        let mut engine = NfaEngine::new(a).unwrap();
        let mut sink = CollectSink::new();
        engine.scan(input, &mut sink);
        sink.reports().iter().map(|r| r.code.0).collect()
    }

    fn zip_header_with(time: u16, date: u16) -> Vec<u8> {
        let mut h = b"PK\x03\x04".to_vec();
        h.extend_from_slice(&[0x14, 0x00]); // version
        h.extend_from_slice(&[0x00, 0x00]); // flags
        h.extend_from_slice(&[0x08, 0x00]); // deflate
        h.extend_from_slice(&time.to_le_bytes());
        h.extend_from_slice(&date.to_le_bytes());
        h
    }

    #[test]
    fn valid_zip_header_carved() {
        let a = compile_bit_pattern(zip_local_header_bits(), 0);
        a.validate().unwrap();
        let header = zip_header_with(dos_time(13, 45, 28), dos_date(2019, 11, 4));
        assert!(codes_in(&a, &header).contains(&0));
        // Edge timestamps.
        for (h, m, s) in [(0, 0, 0), (23, 59, 58)] {
            let header = zip_header_with(dos_time(h, m, s), dos_date(1999, 1, 1));
            assert!(codes_in(&a, &header).contains(&0), "time {h}:{m}:{s}");
        }
    }

    #[test]
    fn invalid_timestamps_rejected() {
        let a = compile_bit_pattern(zip_local_header_bits(), 0);
        // seconds/2 = 30 and 31 are invalid.
        for bad_secs in [30u16, 31] {
            let time = (13 << 11) | (45 << 5) | bad_secs;
            let header = zip_header_with(time, dos_date(2019, 11, 4));
            assert!(!codes_in(&a, &header).contains(&0), "secs field {bad_secs}");
        }
        // minutes 60..63 invalid.
        for bad_min in [60u16, 63] {
            let time = (13 << 11) | (bad_min << 5) | 10;
            let header = zip_header_with(time, dos_date(2019, 11, 4));
            assert!(!codes_in(&a, &header).contains(&0), "min field {bad_min}");
        }
        // hours 24..31 invalid.
        let time = (29 << 11) | (45 << 5) | 10;
        assert!(!codes_in(&a, &zip_header_with(time, dos_date(2019, 11, 4))).contains(&0));
        // month 0 and 13 invalid; day 0 invalid.
        for (y, m, d) in [(2019u16, 0u16, 4u16), (2019, 13, 4), (2019, 11, 0)] {
            let date = ((y - 1980) << 9) | (m << 5) | d;
            let header = zip_header_with(dos_time(1, 2, 4), date);
            assert!(!codes_in(&a, &header).contains(&0), "date {y}-{m}-{d}");
        }
    }

    #[test]
    fn generated_zip_headers_always_carve() {
        // The workload generator emits valid timestamps by construction.
        let a = compile_bit_pattern(zip_local_header_bits(), 0);
        let mut r = azoo_workloads::rng(4);
        for i in 0..10 {
            let h = zip_local_header(&mut r, "x.bin");
            assert!(codes_in(&a, &h).contains(&0), "header {i} rejected");
        }
    }

    #[test]
    fn mpeg_marker_bits_validated() {
        let a = compile_bit_pattern(mpeg2_pack_bits(), 2);
        assert!(codes_in(&a, &[0, 0, 1, 0xBA, 0b0100_0000]).contains(&2));
        assert!(codes_in(&a, &[0, 0, 1, 0xBA, 0b0111_1111]).contains(&2));
        // Wrong marker (MPEG-1 uses 0010).
        assert!(!codes_in(&a, &[0, 0, 1, 0xBA, 0b0010_0000]).contains(&2));
        assert!(!codes_in(&a, &[0, 0, 1, 0xBA, 0b1100_0000]).contains(&2));
    }

    #[test]
    fn pes_range_is_e0_to_ef() {
        let a = compile_bit_pattern(mpeg2_pes_bits(), 3);
        assert!(codes_in(&a, &[0, 0, 1, 0xE0]).contains(&3));
        assert!(codes_in(&a, &[0, 0, 1, 0xEF]).contains(&3));
        assert!(!codes_in(&a, &[0, 0, 1, 0xDF]).contains(&3));
        assert!(!codes_in(&a, &[0, 0, 1, 0xF0]).contains(&3));
    }

    #[test]
    fn nine_subgraphs() {
        let a = build_automaton();
        let stats = azoo_core::AutomatonStats::compute(&a);
        assert_eq!(stats.subgraphs, 9);
        a.validate().unwrap();
    }

    #[test]
    fn stimulus_triggers_every_pattern_class() {
        let (a, input) = build(&FileCarvingParams {
            input_len: 400_000,
            seed: 2,
        });
        let codes = codes_in(&a, &input);
        for expected in [
            Carved::ZipLocalHeader,
            Carved::Mpeg2Pack,
            Carved::Mp4Ftyp,
            Carved::Email,
            Carved::Ssn,
        ] {
            assert!(
                codes.contains(&(expected as u32)),
                "{expected:?} never carved; found {codes:?}"
            );
        }
    }
}
