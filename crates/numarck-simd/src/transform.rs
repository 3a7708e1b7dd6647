//! Kernel 1: the change-ratio transform `(cur − prev) / prev`.
//!
//! Writes the raw IEEE ratio for every point — a zero or tiny previous
//! value produces `±inf`/`NaN`, which downstream classification treats as
//! "undefined, store exactly", so no special-casing is needed in the lane
//! code itself. What *is* checked in the same pass is input validity: the
//! encoder rejects non-finite *inputs* with the offending index, and
//! fusing that check here removes the two dedicated validation sweeps the
//! transform used to make over `prev` and `curr`.
//!
//! IEEE subtraction and division are exactly rounded, so both levels
//! produce bit-identical ratios by construction; the oracle tests pin it.

use crate::Level;

/// First non-finite input found in a block, reported per source array so
/// the caller can preserve "first bad index in `prev`, else first bad
/// index in `curr`" error ordering across blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NonFinite {
    /// Block-local index of the first non-finite value in `prev`.
    pub prev: Option<usize>,
    /// Block-local index of the first non-finite value in `curr`.
    pub curr: Option<usize>,
}

/// Dispatched change-ratio transform: `out[i] = (curr[i] − prev[i]) /
/// prev[i]`. Returns `Some(NonFinite)` if any input is non-finite (the
/// ratios written in that case are unspecified).
///
/// # Panics
/// Panics if the three slices differ in length.
#[inline]
pub fn change_ratios(prev: &[f64], curr: &[f64], out: &mut [f64]) -> Option<NonFinite> {
    change_ratios_with(crate::active_level(), prev, curr, out)
}

/// [`change_ratios`] at an explicit level (oracle sweeps).
pub fn change_ratios_with(
    level: Level,
    prev: &[f64],
    curr: &[f64],
    out: &mut [f64],
) -> Option<NonFinite> {
    assert_eq!(prev.len(), curr.len(), "prev and curr must align");
    assert_eq!(prev.len(), out.len(), "output must align with input");
    match level {
        Level::Scalar => change_ratios_scalar(prev, curr, out),
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 => unsafe { change_ratios_avx2(prev, curr, out) },
        #[cfg(not(target_arch = "x86_64"))]
        Level::Avx2 => change_ratios_scalar(prev, curr, out),
    }
}

/// Scan both inputs for their first non-finite entries (bad path only).
fn find_non_finite(prev: &[f64], curr: &[f64]) -> Option<NonFinite> {
    let p = prev.iter().position(|x| !x.is_finite());
    let c = curr.iter().position(|x| !x.is_finite());
    if p.is_none() && c.is_none() {
        None
    } else {
        Some(NonFinite { prev: p, curr: c })
    }
}

/// Scalar reference implementation (the oracle).
fn change_ratios_scalar(prev: &[f64], curr: &[f64], out: &mut [f64]) -> Option<NonFinite> {
    let mut any_bad = false;
    for ((&p, &c), o) in prev.iter().zip(curr).zip(out.iter_mut()) {
        any_bad |= !p.is_finite() || !c.is_finite();
        *o = (c - p) / p;
    }
    if any_bad {
        find_non_finite(prev, curr)
    } else {
        None
    }
}

/// AVX2 variant: 4 f64 lanes per step.
///
/// # Safety
/// Requires the `avx2` CPU feature.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn change_ratios_avx2(
    prev: &[f64],
    curr: &[f64],
    out: &mut [f64],
) -> Option<NonFinite> {
    use std::arch::x86_64::*;
    let n = prev.len();
    let lanes = n - n % 4;
    let abs_mask = _mm256_castsi256_pd(_mm256_set1_epi64x(0x7FFF_FFFF_FFFF_FFFFu64 as i64));
    let inf = _mm256_set1_pd(f64::INFINITY);
    let mut bad = 0i32;
    let mut i = 0;
    while i < lanes {
        let p = _mm256_loadu_pd(prev.as_ptr().add(i));
        let c = _mm256_loadu_pd(curr.as_ptr().add(i));
        // finite(x) ⇔ |x| < inf (ordered compare: false for NaN too).
        let p_fin = _mm256_cmp_pd::<_CMP_LT_OQ>(_mm256_and_pd(p, abs_mask), inf);
        let c_fin = _mm256_cmp_pd::<_CMP_LT_OQ>(_mm256_and_pd(c, abs_mask), inf);
        bad |= _mm256_movemask_pd(_mm256_and_pd(p_fin, c_fin)) ^ 0xF;
        let r = _mm256_div_pd(_mm256_sub_pd(c, p), p);
        _mm256_storeu_pd(out.as_mut_ptr().add(i), r);
        i += 4;
    }
    let mut any_bad = bad != 0;
    for j in lanes..n {
        let (p, c) = (prev[j], curr[j]);
        any_bad |= !p.is_finite() || !c.is_finite();
        out[j] = (c - p) / p;
    }
    if any_bad {
        find_non_finite(prev, curr)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(n: usize) -> (Vec<f64>, Vec<f64>) {
        let prev: Vec<f64> = (0..n)
            .map(|i| if i % 13 == 0 { 0.0 } else { 1.0 + ((i * 37) % 101) as f64 / 7.0 })
            .collect();
        let curr: Vec<f64> =
            prev.iter().enumerate().map(|(i, v)| v * (1.0 + 0.003 * ((i % 9) as f64 - 4.0))).collect();
        (prev, curr)
    }

    #[test]
    fn all_levels_are_bit_identical_across_lane_boundaries() {
        for n in [0usize, 1, 3, 4, 5, 7, 8, 9, 31, 32, 33, 63, 64, 65, 1000, 1024, 1025] {
            let (prev, curr) = data(n);
            let mut oracle = vec![0.0f64; n];
            assert_eq!(change_ratios_scalar(&prev, &curr, &mut oracle), None);
            for level in Level::all_supported() {
                let mut got = vec![f64::NAN; n];
                assert_eq!(change_ratios_with(level, &prev, &curr, &mut got), None);
                for j in 0..n {
                    assert_eq!(
                        got[j].to_bits(),
                        oracle[j].to_bits(),
                        "level {} n {n} point {j}",
                        level.name()
                    );
                }
            }
        }
    }

    #[test]
    fn zero_prev_yields_non_finite_ratio_not_an_error() {
        let prev = [0.0, 1.0, 0.0];
        let curr = [5.0, 1.1, 0.0];
        for level in Level::all_supported() {
            let mut out = [0.0f64; 3];
            assert_eq!(change_ratios_with(level, &prev, &curr, &mut out), None);
            assert!(!out[0].is_finite());
            assert!(out[2].is_nan(), "0/0 is NaN");
        }
    }

    #[test]
    fn non_finite_inputs_reported_per_array() {
        let n = 70; // spans the lane remainder
        let (mut prev, mut curr) = data(n);
        prev[41] = f64::NAN;
        curr[7] = f64::INFINITY;
        for level in Level::all_supported() {
            let mut out = vec![0.0f64; n];
            let bad = change_ratios_with(level, &prev, &curr, &mut out).unwrap();
            assert_eq!(bad.prev, Some(41), "level {}", level.name());
            assert_eq!(bad.curr, Some(7), "level {}", level.name());
        }
    }

    #[test]
    fn non_finite_in_tail_remainder_is_caught() {
        for n in [5usize, 9, 65] {
            let (mut prev, curr) = data(n);
            prev[n - 1] = f64::NEG_INFINITY;
            for level in Level::all_supported() {
                let mut out = vec![0.0f64; n];
                let bad = change_ratios_with(level, &prev, &curr, &mut out).unwrap();
                assert_eq!(bad.prev, Some(n - 1), "level {} n {n}", level.name());
            }
        }
    }

    mod properties {
        use super::*;
        use numarck_prop::prelude::*;

        proptest! {
            #[test]
            fn levels_match_oracle(
                pairs in numarck_prop::collection::vec((-1e9f64..1e9, -1e9f64..1e9), 0..300)
            ) {
                let prev: Vec<f64> = pairs.iter().map(|p| p.0).collect();
                let curr: Vec<f64> = pairs.iter().map(|p| p.1).collect();
                let mut oracle = vec![0.0f64; prev.len()];
                let r0 = change_ratios_scalar(&prev, &curr, &mut oracle);
                for level in Level::all_supported() {
                    let mut got = vec![0.0f64; prev.len()];
                    let r = change_ratios_with(level, &prev, &curr, &mut got);
                    prop_assert_eq!(r, r0);
                    for j in 0..prev.len() {
                        prop_assert_eq!(got[j].to_bits(), oracle[j].to_bits());
                    }
                }
            }
        }
    }
}
