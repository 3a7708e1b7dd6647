//! # numarck-simd — lane kernels for the encode/decode hot loops
//!
//! Five kernels dominate NUMARCK's runtime: the change-ratio transform
//! (`(cur − prev) / prev`), bin quantization against the sorted
//! representative table, bitmap popcount rank, bit-unpacking packed
//! index codes into centroid lookups, and the CRC-32 that guards every
//! stored container, journal record and wire frame. This crate provides
//! each of them at two implementation levels:
//!
//! * **scalar** — the portable reference, run on every host without
//!   AVX2. The AVX2 level is required (and tested) to be *bit-identical*
//!   to it: same escape decisions, same midpoint-tie rule, same IEEE
//!   results, same CRC.
//! * **avx2** — explicit `std::arch` x86_64 intrinsics (4×f64 / 4×u64
//!   lanes), compiled unconditionally on x86_64 behind
//!   `#[target_feature]` and selected only when the CPU reports AVX2,
//!   POPCNT and PCLMULQDQ at runtime.
//!
//! Bin quantization ([`quantize`]) is the exception: it has one portable
//! kernel, run at every level. For the CRC ([`crc`]) the levels are:
//! scalar = slice-by-16 (sixteen table lookups per 16-byte step),
//! avx2 = a PCLMULQDQ fold of four 128-bit lanes with a slice-by-16 tail
//! (which is why `Avx2` requires PCLMULQDQ).
//!
//! The dispatch decision is made once per process ([`active_level`]) and
//! recorded in the global observability registry as the
//! `simd_dispatch_level` gauge (0 = scalar, 2 = avx2) so benchmark
//! numbers are interpretable across hosts. One environment knob
//! overrides detection: `NUMARCK_SIMD=scalar` pins the scalar level; any
//! other value is ignored.
//!
//! Every kernel but quantize has a `*_with(level, …)` variant taking an
//! explicit [`Level`], which is what the oracle-equivalence tests sweep;
//! the per-level functions themselves are private.

pub mod crc;
pub mod popcount;
pub mod quantize;
pub mod transform;
pub mod unpack;

use std::sync::OnceLock;

/// Sentinel marking an escaped (incompressible) point in a code array.
///
/// Must match `numarck::encode::ESCAPE`; the equality is pinned by a test
/// in the `numarck` crate.
pub const ESCAPE: u32 = u32::MAX;

/// Implementation level of a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Portable reference implementation (the oracle).
    Scalar = 0,
    /// x86_64 AVX2 intrinsics (4-wide f64/u64 lanes), plus POPCNT and
    /// PCLMULQDQ.
    Avx2 = 2,
}

impl Level {
    /// Stable lower-case name, used in BENCH JSON and metrics.
    pub fn name(self) -> &'static str {
        match self {
            Level::Scalar => "scalar",
            Level::Avx2 => "avx2",
        }
    }

    /// All levels this host can execute, in ascending order. `Avx2` is
    /// included only when the CPU supports it.
    pub fn all_supported() -> Vec<Level> {
        let mut v = vec![Level::Scalar];
        if avx2_available() {
            v.push(Level::Avx2);
        }
        v
    }
}

/// Whether the AVX2 kernel variants can run on this host (requires the
/// AVX2, POPCNT and PCLMULQDQ CPU features; only ever true on x86_64).
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("popcnt")
            && std::arch::is_x86_feature_detected!("pclmulqdq")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

static ACTIVE: OnceLock<Level> = OnceLock::new();

/// The level every dispatched kernel entry point uses. Resolved once per
/// process: `NUMARCK_SIMD=scalar` pins the scalar level, otherwise CPU
/// feature detection picks AVX2 where the host has it. The resolution
/// is recorded in the `simd_dispatch_level` gauge of the global metrics
/// registry.
pub fn active_level() -> Level {
    *ACTIVE.get_or_init(|| {
        let level = resolve_level();
        numarck_obs::Registry::global().gauge("simd_dispatch_level").set(level as i64);
        level
    })
}

fn resolve_level() -> Level {
    match std::env::var("NUMARCK_SIMD").as_deref() {
        Ok("scalar") => Level::Scalar,
        _ if avx2_available() => Level::Avx2,
        _ => Level::Scalar,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn supported_levels_start_with_the_oracle() {
        let all = Level::all_supported();
        assert_eq!(all[0], Level::Scalar);
        assert_eq!(all.len(), 1 + avx2_available() as usize);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Level::Scalar.name(), "scalar");
        assert_eq!(Level::Avx2.name(), "avx2");
        // The `simd_dispatch_level` gauge reads the discriminant.
        assert_eq!(Level::Scalar as i64, 0);
        assert_eq!(Level::Avx2 as i64, 2);
    }

    #[test]
    fn active_level_is_cached_and_gauged() {
        let a = active_level();
        let b = active_level();
        assert_eq!(a, b);
        let g = numarck_obs::Registry::global().gauge("simd_dispatch_level");
        assert_eq!(g.get(), a as i64);
    }
}
