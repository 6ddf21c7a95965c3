//! Vectorized scanning kernels with runtime CPU dispatch.
//!
//! Wake-byte search, the NFA engine's inner loop while it is quiescent, is
//! memory-light and branch-light, which makes it the natural place to spend
//! SIMD. This crate packages two kernels:
//!
//! * [`ByteFinder`] — the quiescent-skip wake-byte search: `memchr`-style
//!   scans for 1–3 bytes, and a Truffle-style two-`pshufb` classifier for
//!   arbitrary byte sets.
//! * [`Teddy`] — a Teddy-style multi-literal prefilter: the first bytes of up
//!   to 64 literals are packed into per-position nibble masks (≤ 8 buckets),
//!   scanned 16 (SSSE3) or 32 (AVX2) bytes per step with `pshufb`, and
//!   candidates are verified in place. No engine runs it — the
//!   literal-prefilter engine triggers on Aho–Corasick at every level — but
//!   azoo-perf's `simd.teddy_*` rows time it, so it stays until that
//!   benchmark changes.
//!
//! # Dispatch and the scalar twins
//!
//! Every vector kernel has a safe, portable scalar twin that computes the
//! same function byte-identically; which implementation runs is chosen once
//! per process by [`level`], which probes CPU features at runtime
//! (`is_x86_feature_detected!`) and honours the `AZOO_FORCE_SCALAR=1`
//! environment variable. Differential tests drive both paths explicitly
//! through the `*_with` entry points, so the twins can be compared within a
//! single process regardless of the ambient level.
//!
//! # Unsafe policy
//!
//! The workspace forbids `unsafe` everywhere else; this crate alone relaxes
//! that to `deny(unsafe_code)` with narrow `#[allow]`s inside the
//! target-feature-gated intrinsic module (`x86`). The auditable surface is
//! exactly: unaligned vector loads from in-bounds slices, and calls into
//! `#[target_feature]` functions that were gated by a runtime feature check.
//! Nothing else in the crate may use `unsafe`.

#![deny(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::pedantic)]
#![allow(clippy::must_use_candidate, clippy::missing_panics_doc)]

pub mod byteset;
pub mod scalar;
pub mod teddy;
#[cfg(target_arch = "x86_64")]
pub(crate) mod x86;

pub use byteset::ByteFinder;
pub use teddy::{Teddy, TeddyMatch, TEDDY_MAX_PATTERNS};

use std::sync::OnceLock;

/// Vector capability tiers, in increasing order.
///
/// `x86_64` baselines SSE2, so anything below SSSE3 (the first tier with
/// `pshufb`) runs the scalar twins outright; other architectures always
/// report [`SimdLevel::Scalar`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Portable scalar twins only.
    Scalar,
    /// 16-byte `pshufb` kernels (x86-64 with SSSE3).
    Ssse3,
    /// 32-byte kernels (x86-64 with AVX2).
    Avx2,
}

static LEVEL: OnceLock<SimdLevel> = OnceLock::new();

/// The dispatch level active for this process.
///
/// Computed once on first call: `AZOO_FORCE_SCALAR=1` in the environment
/// forces [`SimdLevel::Scalar`]; otherwise the best supported tier is probed
/// with `is_x86_feature_detected!`. The result is cached, so changing the
/// environment variable mid-process has no effect.
pub fn level() -> SimdLevel {
    *LEVEL.get_or_init(detect)
}

fn detect() -> SimdLevel {
    if std::env::var_os("AZOO_FORCE_SCALAR").is_some_and(|v| v == "1") {
        return SimdLevel::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return SimdLevel::Avx2;
        }
        if std::arch::is_x86_feature_detected!("ssse3") {
            return SimdLevel::Ssse3;
        }
    }
    SimdLevel::Scalar
}

/// Clamps a requested level to what the host can actually execute.
///
/// The `*_with` entry points take an explicit level so differential tests
/// can pin both sides of a comparison; clamping keeps a pinned `Avx2`
/// request safe on a host without AVX2.
pub fn supported(requested: SimdLevel) -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        let mut l = requested;
        if l == SimdLevel::Avx2 && !std::arch::is_x86_feature_detected!("avx2") {
            l = SimdLevel::Ssse3;
        }
        if l == SimdLevel::Ssse3 && !std::arch::is_x86_feature_detected!("ssse3") {
            l = SimdLevel::Scalar;
        }
        l
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = requested;
        SimdLevel::Scalar
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_is_stable_and_supported() {
        let l = level();
        assert_eq!(l, level());
        assert_eq!(supported(l), l);
    }

    #[test]
    fn supported_never_exceeds_request() {
        assert_eq!(supported(SimdLevel::Scalar), SimdLevel::Scalar);
        assert!(supported(SimdLevel::Ssse3) <= SimdLevel::Ssse3);
        assert!(supported(SimdLevel::Avx2) <= SimdLevel::Avx2);
    }
}
