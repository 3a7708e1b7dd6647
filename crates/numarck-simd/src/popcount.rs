//! Kernel 3: bitmap popcount, the primitive behind decode's block-rank
//! index (`chunked_popcount_ranks`) and bitmap validation.
//!
//! Integer bit counts have one exact answer, so both levels are trivially
//! bit-identical; they differ only in throughput. The `avx2` level
//! is compiled with `popcnt` enabled so `count_ones` lowers to the
//! hardware instruction instead of the portable SWAR sequence — the
//! feature check in [`crate::avx2_available`] requires POPCNT alongside
//! AVX2 for exactly this reason.

use crate::Level;

/// Dispatched sum of set bits over `words`.
#[inline]
pub fn popcount_sum(words: &[u64]) -> u64 {
    popcount_sum_with(crate::active_level(), words)
}

/// [`popcount_sum`] at an explicit level (oracle sweeps).
pub fn popcount_sum_with(level: Level, words: &[u64]) -> u64 {
    match level {
        Level::Scalar => popcount_sum_scalar(words),
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 => unsafe { popcount_sum_avx2(words) },
        #[cfg(not(target_arch = "x86_64"))]
        Level::Avx2 => popcount_sum_scalar(words),
    }
}

/// Scalar reference implementation (the oracle).
fn popcount_sum_scalar(words: &[u64]) -> u64 {
    words.iter().map(|w| w.count_ones() as u64).sum()
}

/// POPCNT-enabled variant: four independent accumulators break the add
/// dependency chain, and `count_ones` compiles to one `popcnt` per word.
///
/// # Safety
/// Requires the `avx2` and `popcnt` CPU features.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,popcnt")]
unsafe fn popcount_sum_avx2(words: &[u64]) -> u64 {
    let mut w8 = words.chunks_exact(8);
    let (mut a, mut b, mut c, mut d) = (0u64, 0u64, 0u64, 0u64);
    for w in &mut w8 {
        a += (w[0].count_ones() + w[1].count_ones()) as u64;
        b += (w[2].count_ones() + w[3].count_ones()) as u64;
        c += (w[4].count_ones() + w[5].count_ones()) as u64;
        d += (w[6].count_ones() + w[7].count_ones()) as u64;
    }
    let mut tail = 0u64;
    for &w in w8.remainder() {
        tail += w.count_ones() as u64;
    }
    a + b + c + d + tail
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i << 7)).collect()
    }

    #[test]
    fn levels_agree_across_lane_boundaries() {
        for n in [0usize, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 1000] {
            let w = words(n);
            let oracle = popcount_sum_scalar(&w);
            for level in Level::all_supported() {
                assert_eq!(
                    popcount_sum_with(level, &w),
                    oracle,
                    "level {} n {n}",
                    level.name()
                );
            }
        }
    }

    #[test]
    fn known_values() {
        for level in Level::all_supported() {
            assert_eq!(popcount_sum_with(level, &[]), 0);
            assert_eq!(popcount_sum_with(level, &[u64::MAX; 9]), 9 * 64);
            assert_eq!(popcount_sum_with(level, &[1, 2, 4, 8, 16, 32, 64, 128, 256]), 9);
        }
    }

    mod properties {
        use super::*;
        use numarck_prop::prelude::*;

        proptest! {
            #[test]
            fn levels_match_oracle(w in numarck_prop::collection::vec(any::<u64>(), 0..200)) {
                let oracle = popcount_sum_scalar(&w);
                for level in Level::all_supported() {
                    prop_assert_eq!(popcount_sum_with(level, &w), oracle);
                }
            }
        }
    }
}
