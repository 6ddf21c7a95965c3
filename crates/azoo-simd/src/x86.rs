//! The audited x86-64 intrinsic kernels.
//!
//! This is the only module in the workspace permitted to use `unsafe`, and
//! the only one permitted to touch `std::arch` (CI greps for both). The
//! audit surface is kept deliberately small:
//!
//! * every `unsafe` block is either an unaligned vector load from a slice
//!   range the surrounding safe code already bounds-checked, or a call into
//!   a `#[target_feature]` function;
//! * every public function asserts the CPU feature it needs before entering
//!   the intrinsic path, so the wrappers are sound to call from safe code
//!   regardless of what the dispatcher decided;
//! * no raw-pointer arithmetic beyond `as_ptr().add(i)` with `i + width`
//!   asserted in bounds, no transmutes, no aliasing games.
//!
//! Each kernel's semantics are defined by its scalar twin in
//! [`crate::scalar`] / the scalar paths of the callers; the differential
//! tests assert byte-identical behaviour on both sides.
#![allow(unsafe_code)]
// Intrinsic idiom, not data-loss hazards: `u8 as i8` reinterpretation for
// `set1`/`shuffle` lanes, sign-agnostic `movemask` extractions masked to
// lane width, and `loadu`/`storeu` pointer casts that carry no
// alignment requirement.
#![allow(
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss,
    clippy::cast_possible_truncation,
    clippy::cast_ptr_alignment
)]

use std::arch::is_x86_feature_detected;
use std::arch::x86_64::{
    __m128i, __m256i, _mm256_alignr_epi8, _mm256_and_si256, _mm256_cmpeq_epi8, _mm256_loadu_si256,
    _mm256_movemask_epi8, _mm256_permute2x128_si256, _mm256_set1_epi8, _mm256_set_m128i,
    _mm256_setzero_si256, _mm256_shuffle_epi8, _mm256_srli_epi16, _mm256_storeu_si256,
    _mm_alignr_epi8, _mm_and_si128, _mm_cmpeq_epi8, _mm_loadu_si128, _mm_movemask_epi8,
    _mm_or_si128, _mm_set1_epi8, _mm_setzero_si128, _mm_shuffle_epi8, _mm_srli_epi16,
    _mm_storeu_si128, _mm_xor_si128,
};

/// A 16-byte unaligned load from `hay[at..at + 16]`.
///
/// # Panics
///
/// Panics (in debug) if the range is out of bounds; callers pass ranges
/// they have already sized.
#[inline]
fn load16(hay: &[u8], at: usize) -> __m128i {
    debug_assert!(at + 16 <= hay.len());
    // SAFETY: `at + 16 <= hay.len()` is checked above and guaranteed by all
    // callers (they iterate full 16-byte blocks only); `loadu` has no
    // alignment requirement.
    unsafe { _mm_loadu_si128(hay.as_ptr().add(at).cast::<__m128i>()) }
}

/// A 32-byte unaligned load from `hay[at..at + 32]`.
#[inline]
fn load32(hay: &[u8], at: usize) -> __m256i {
    debug_assert!(at + 32 <= hay.len());
    // SAFETY: as in `load16`, with a 32-byte width.
    unsafe { _mm256_loadu_si256(hay.as_ptr().add(at).cast::<__m256i>()) }
}

#[inline]
fn m128_from(bytes: &[u8; 16]) -> __m128i {
    // SAFETY: the source is exactly 16 readable bytes; `loadu` has no
    // alignment requirement.
    unsafe { _mm_loadu_si128(bytes.as_ptr().cast::<__m128i>()) }
}

#[inline]
#[target_feature(enable = "avx")]
fn m256_broadcast(bytes: &[u8; 16]) -> __m256i {
    let v = m128_from(bytes);
    _mm256_set_m128i(v, v)
}

// ---------------------------------------------------------------------------
// memchr1/2/3
// ---------------------------------------------------------------------------

#[target_feature(enable = "sse2")]
unsafe fn memchr1_sse2(hay: &[u8], n0: u8) -> Option<usize> {
    let v0 = _mm_set1_epi8(n0 as i8);
    let mut at = 0;
    while at + 16 <= hay.len() {
        let v = load16(hay, at);
        let m = _mm_movemask_epi8(_mm_cmpeq_epi8(v, v0)) as u32;
        if m != 0 {
            return Some(at + m.trailing_zeros() as usize);
        }
        at += 16;
    }
    hay[at..].iter().position(|&b| b == n0).map(|i| at + i)
}

#[target_feature(enable = "sse2")]
unsafe fn memchr2_sse2(hay: &[u8], n0: u8, n1: u8) -> Option<usize> {
    let v0 = _mm_set1_epi8(n0 as i8);
    let v1 = _mm_set1_epi8(n1 as i8);
    let mut at = 0;
    while at + 16 <= hay.len() {
        let v = load16(hay, at);
        let hit = _mm_or_si128(_mm_cmpeq_epi8(v, v0), _mm_cmpeq_epi8(v, v1));
        let m = _mm_movemask_epi8(hit) as u32;
        if m != 0 {
            return Some(at + m.trailing_zeros() as usize);
        }
        at += 16;
    }
    hay[at..]
        .iter()
        .position(|&b| b == n0 || b == n1)
        .map(|i| at + i)
}

#[target_feature(enable = "sse2")]
unsafe fn memchr3_sse2(hay: &[u8], n0: u8, n1: u8, n2: u8) -> Option<usize> {
    let v0 = _mm_set1_epi8(n0 as i8);
    let v1 = _mm_set1_epi8(n1 as i8);
    let v2 = _mm_set1_epi8(n2 as i8);
    let mut at = 0;
    while at + 16 <= hay.len() {
        let v = load16(hay, at);
        let hit = _mm_or_si128(
            _mm_or_si128(_mm_cmpeq_epi8(v, v0), _mm_cmpeq_epi8(v, v1)),
            _mm_cmpeq_epi8(v, v2),
        );
        let m = _mm_movemask_epi8(hit) as u32;
        if m != 0 {
            return Some(at + m.trailing_zeros() as usize);
        }
        at += 16;
    }
    hay[at..]
        .iter()
        .position(|&b| b == n0 || b == n1 || b == n2)
        .map(|i| at + i)
}

/// Vector `memchr` for up to three needles. `needles` beyond the first
/// three are ignored (callers never pass more).
///
/// # Panics
///
/// Panics if the host lacks SSE2 (x86-64 baselines it) or `needles` is
/// empty or longer than three.
pub fn memchr_up_to3(needles: &[u8], hay: &[u8]) -> Option<usize> {
    assert!(is_x86_feature_detected!("sse2"), "x86-64 baselines sse2");
    // SAFETY: sse2 support was just asserted.
    unsafe {
        match *needles {
            [a] => memchr1_sse2(hay, a),
            [a, b] => memchr2_sse2(hay, a, b),
            [a, b, c] => memchr3_sse2(hay, a, b, c),
            _ => panic!("memchr_up_to3 takes 1..=3 needles"),
        }
    }
}

// ---------------------------------------------------------------------------
// Truffle byte-set search
// ---------------------------------------------------------------------------

/// `BITS[h] = 1 << (h & 7)`: the probe bit for high nibble `h`.
const BITS: [u8; 16] = [1, 2, 4, 8, 16, 32, 64, 128, 1, 2, 4, 8, 16, 32, 64, 128];

#[target_feature(enable = "ssse3")]
unsafe fn truffle_ssse3(lo_half: &[u8; 16], hi_half: &[u8; 16], hay: &[u8]) -> Option<usize> {
    let a = m128_from(lo_half);
    let b = m128_from(hi_half);
    let bits = m128_from(&BITS);
    let top = _mm_set1_epi8(0x80u8 as i8);
    let nib = _mm_set1_epi8(0x0f);
    let mut at = 0;
    while at + 16 <= hay.len() {
        let v = load16(hay, at);
        // Bytes < 0x80 index `a` by their low nibble (pshufb zeroes lanes
        // whose index has the top bit set); bytes >= 0x80 index `b` after
        // flipping the top bit. Each lookup yields the set-membership
        // column for the byte's low nibble within its half of the space.
        let cols = _mm_or_si128(
            _mm_shuffle_epi8(a, v),
            _mm_shuffle_epi8(b, _mm_xor_si128(v, top)),
        );
        let hi = _mm_and_si128(_mm_srli_epi16::<4>(v), nib);
        let probe = _mm_shuffle_epi8(bits, hi);
        let member = _mm_and_si128(cols, probe);
        // Non-members compare equal to zero; invert the mask.
        let miss = _mm_cmpeq_epi8(member, _mm_setzero_si128());
        let m = !(_mm_movemask_epi8(miss) as u32) & 0xffff;
        if m != 0 {
            return Some(at + m.trailing_zeros() as usize);
        }
        at += 16;
    }
    hay[at..]
        .iter()
        .position(|&c| {
            let col = if c < 0x80 {
                lo_half[(c & 0x0f) as usize]
            } else {
                hi_half[(c & 0x0f) as usize]
            };
            col & (1 << ((c >> 4) & 7)) != 0
        })
        .map(|i| at + i)
}

/// Truffle search: first index of a byte whose set-membership bit is set.
///
/// `lo_half[l]` holds bit `h` for byte `(h << 4) | l` with `h < 8`;
/// `hi_half` covers `h >= 8`.
///
/// # Panics
///
/// Panics if the host lacks SSSE3; gate on [`crate::supported`].
pub fn truffle(lo_half: &[u8; 16], hi_half: &[u8; 16], hay: &[u8]) -> Option<usize> {
    assert!(is_x86_feature_detected!("ssse3"), "truffle requires ssse3");
    // SAFETY: ssse3 support was just asserted.
    unsafe { truffle_ssse3(lo_half, hi_half, hay) }
}

// ---------------------------------------------------------------------------
// Teddy candidate scan
// ---------------------------------------------------------------------------

/// Per-position nibble masks for up to three pattern bytes; see
/// [`crate::teddy`] for construction.
#[derive(Debug, Clone)]
pub struct TeddyMasks {
    /// `lo[j][n]` = bucket bits whose patterns have low nibble `n` at
    /// position `j`.
    pub lo: [[u8; 16]; 3],
    /// High-nibble companion of `lo`.
    pub hi: [[u8; 16]; 3],
    /// Number of mask positions in use (2 or 3).
    pub mask_len: usize,
}

#[target_feature(enable = "ssse3")]
unsafe fn teddy_ssse3(masks: &TeddyMasks, hay: &[u8], out: &mut Vec<(usize, u8)>) -> usize {
    let nib = _mm_set1_epi8(0x0f);
    let lo: Vec<__m128i> = masks.lo[..masks.mask_len].iter().map(m128_from).collect();
    let hi: Vec<__m128i> = masks.hi[..masks.mask_len].iter().map(m128_from).collect();
    let ml = masks.mask_len;
    // `prev[j]`: position-j byte-class vector of the previous block. Zero
    // means "no match before the start", which correctly suppresses
    // candidates whose start would be negative.
    let mut prev = [_mm_setzero_si128(); 3];
    let mut at = 0;
    while at + 16 <= hay.len() {
        let v = load16(hay, at);
        let vlo = _mm_and_si128(v, nib);
        let vhi = _mm_and_si128(_mm_srli_epi16::<4>(v), nib);
        // cand[p] = AND over j of C_j[p - (ml-1-j)]: the candidate is
        // anchored at the *last* mask byte, shifting earlier positions up
        // through the previous block's carry.
        let c_last = _mm_and_si128(
            _mm_shuffle_epi8(lo[ml - 1], vlo),
            _mm_shuffle_epi8(hi[ml - 1], vhi),
        );
        let mut cand = c_last;
        for j in 0..ml - 1 {
            let c_j = _mm_and_si128(_mm_shuffle_epi8(lo[j], vlo), _mm_shuffle_epi8(hi[j], vhi));
            let shift = ml - 1 - j;
            let shifted = match shift {
                1 => _mm_alignr_epi8::<15>(c_j, prev[j]),
                _ => _mm_alignr_epi8::<14>(c_j, prev[j]),
            };
            cand = _mm_and_si128(cand, shifted);
            prev[j] = c_j;
        }
        let nz = !(_mm_movemask_epi8(_mm_cmpeq_epi8(cand, _mm_setzero_si128())) as u32) & 0xffff;
        if nz != 0 {
            let mut buf = [0u8; 16];
            // SAFETY: `buf` is exactly 16 writable bytes.
            unsafe {
                _mm_storeu_si128(buf.as_mut_ptr().cast::<__m128i>(), cand);
            }
            let mut m = nz;
            while m != 0 {
                let lane = m.trailing_zeros() as usize;
                out.push((at + lane, buf[lane]));
                m &= m - 1;
            }
        }
        at += 16;
    }
    at
}

#[target_feature(enable = "avx2")]
unsafe fn teddy_avx2(masks: &TeddyMasks, hay: &[u8], out: &mut Vec<(usize, u8)>) -> usize {
    let nib = _mm256_set1_epi8(0x0f);
    let lo: Vec<__m256i> = masks.lo[..masks.mask_len]
        .iter()
        .map(|m| m256_broadcast(m))
        .collect();
    let hi: Vec<__m256i> = masks.hi[..masks.mask_len]
        .iter()
        .map(|m| m256_broadcast(m))
        .collect();
    let ml = masks.mask_len;
    let mut prev = [_mm256_setzero_si256(); 3];
    let mut at = 0;
    while at + 32 <= hay.len() {
        let v = load32(hay, at);
        let vlo = _mm256_and_si256(v, nib);
        let vhi = _mm256_and_si256(_mm256_srli_epi16::<4>(v), nib);
        let c_last = _mm256_and_si256(
            _mm256_shuffle_epi8(lo[ml - 1], vlo),
            _mm256_shuffle_epi8(hi[ml - 1], vhi),
        );
        let mut cand = c_last;
        for j in 0..ml - 1 {
            let c_j = _mm256_and_si256(
                _mm256_shuffle_epi8(lo[j], vlo),
                _mm256_shuffle_epi8(hi[j], vhi),
            );
            // `vpalignr` shifts within 128-bit lanes; splice the carry so
            // lane 1 shifts in lane 0's top bytes and lane 0 shifts in the
            // previous block's.
            let spliced = _mm256_permute2x128_si256::<0x21>(prev[j], c_j);
            let shift = ml - 1 - j;
            let shifted = match shift {
                1 => _mm256_alignr_epi8::<15>(c_j, spliced),
                _ => _mm256_alignr_epi8::<14>(c_j, spliced),
            };
            cand = _mm256_and_si256(cand, shifted);
            prev[j] = c_j;
        }
        let nz = !(_mm256_movemask_epi8(_mm256_cmpeq_epi8(cand, _mm256_setzero_si256())) as u32);
        if nz != 0 {
            let mut buf = [0u8; 32];
            // SAFETY: `buf` is exactly 32 writable bytes.
            unsafe {
                _mm256_storeu_si256(buf.as_mut_ptr().cast::<__m256i>(), cand);
            }
            let mut m = nz;
            while m != 0 {
                let lane = m.trailing_zeros() as usize;
                out.push((at + lane, buf[lane]));
                m &= m - 1;
            }
        }
        at += 32;
    }
    at
}

/// SSSE3 Teddy candidate scan over the full 16-byte blocks of `hay`.
///
/// Pushes `(position_of_last_mask_byte, bucket_bits)` for every candidate
/// and returns the number of bytes covered (a multiple of 16); the caller
/// finishes the tail with the scalar twin.
///
/// # Panics
///
/// Panics if the host lacks SSSE3; gate on [`crate::supported`].
pub fn teddy_candidates_ssse3(masks: &TeddyMasks, hay: &[u8], out: &mut Vec<(usize, u8)>) -> usize {
    assert!(is_x86_feature_detected!("ssse3"), "teddy requires ssse3");
    // SAFETY: ssse3 support was just asserted.
    unsafe { teddy_ssse3(masks, hay, out) }
}

/// AVX2 Teddy candidate scan; as [`teddy_candidates_ssse3`] with 32-byte
/// blocks.
///
/// # Panics
///
/// Panics if the host lacks AVX2; gate on [`crate::supported`].
pub fn teddy_candidates_avx2(masks: &TeddyMasks, hay: &[u8], out: &mut Vec<(usize, u8)>) -> usize {
    assert!(is_x86_feature_detected!("avx2"), "teddy avx2 requires avx2");
    // SAFETY: avx2 support was just asserted.
    unsafe { teddy_avx2(masks, hay, out) }
}
