//! # numarck-simd — lane kernels for the encode/decode hot loops
//!
//! Five kernels dominate NUMARCK's runtime: the change-ratio transform
//! (`(cur − prev) / prev`), bin quantization against the sorted
//! representative table, bitmap popcount rank, bit-unpacking packed
//! index codes into centroid lookups, and the CRC-32 that guards every
//! stored container, journal record and wire frame. This crate provides
//! each of them at three implementation levels:
//!
//! * **scalar** — the straight-line reference. Every other level is
//!   required (and tested) to be *bit-identical* to it: same escape
//!   decisions, same midpoint-tie rule, same IEEE results, same CRC.
//! * **unrolled** — portable chunks-of-8 scalar unrolling; no
//!   architecture-specific code, but enough independent work per
//!   iteration for the compiler to vectorize and for the CPU to pipeline.
//! * **avx2** — explicit `std::arch` x86_64 intrinsics (4×f64 / 4×u64
//!   lanes), compiled unconditionally on x86_64 behind
//!   `#[target_feature]` and selected only when the CPU reports AVX2,
//!   POPCNT and PCLMULQDQ at runtime.
//!
//! Bin quantization ([`quantize`]) is the exception: it has one portable
//! kernel, run at every level. For the CRC ([`crc`]) the levels are:
//! scalar = one 256-entry table lookup per byte, unrolled =
//! slice-by-16, avx2 = a PCLMULQDQ fold of four 128-bit lanes (which is
//! why `Avx2` requires PCLMULQDQ).
//!
//! The dispatch decision is made once per process ([`active_level`]) and
//! recorded in the global observability registry as the
//! `simd_dispatch_level` gauge (0 = scalar, 1 = unrolled, 2 = avx2) so
//! benchmark numbers are interpretable across hosts. One environment
//! knob overrides detection: `NUMARCK_SIMD=scalar|unrolled|avx2` pins a
//! level (`avx2` silently degrades to `unrolled` when unsupported; any
//! other value is ignored).
//!
//! Every other kernel also has a `*_with(level, …)` variant taking an
//! explicit [`Level`], which is what the oracle-equivalence tests sweep.

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
    /// Straight-line reference implementation (the oracle).
    Scalar = 0,
    /// Portable chunks-of-8 scalar unrolling.
    Unrolled = 1,
    /// x86_64 AVX2 intrinsics (4-wide f64/u64 lanes), plus POPCNT and
    /// PCLMULQDQ.
    Avx2 = 2,
}

impl Level {
    /// Stable lower-case name, used in BENCH JSON and metrics.
    pub fn name(self) -> &'static str {
        match self {
            Level::Scalar => "scalar",
            Level::Unrolled => "unrolled",
            Level::Avx2 => "avx2",
        }
    }

    /// All levels this host can execute, in ascending order. `Avx2` is
    /// included only when the CPU supports it.
    pub fn all_supported() -> Vec<Level> {
        let mut v = vec![Level::Scalar, Level::Unrolled];
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
/// process: the `NUMARCK_SIMD` override first, then CPU feature
/// detection. The resolution is recorded in the `simd_dispatch_level`
/// gauge of the global metrics registry.
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
        Ok("unrolled") => Level::Unrolled,
        // A pinned avx2 on a host without it degrades rather than
        // crashing on an illegal instruction.
        _ if avx2_available() => Level::Avx2,
        _ => Level::Unrolled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn supported_levels_start_with_the_oracle() {
        let all = Level::all_supported();
        assert_eq!(all[0], Level::Scalar);
        assert_eq!(all[1], Level::Unrolled);
        assert!(all.len() <= 3);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Level::Scalar.name(), "scalar");
        assert_eq!(Level::Unrolled.name(), "unrolled");
        assert_eq!(Level::Avx2.name(), "avx2");
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
