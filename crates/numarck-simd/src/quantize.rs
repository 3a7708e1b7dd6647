//! Kernel 2: bin quantization — the encoder's fused classify+quantize
//! pass over a dense change-ratio array.
//!
//! Per point, [`classify_quantize`] makes the encoder's whole decision:
//! small/large/undefined classification, a lower bound over the sorted
//! representatives, a pick between the two enclosing neighbours with
//! midpoint ties resolving to the *lower* index (the rule of
//! `BinTable::quantize` in the core crate), and the escape decision
//! against the tolerance.
//!
//! Unlike the other kernels this one has a single implementation, run at
//! every [`Level`](crate::Level). Only a large finite ratio searches the
//! table (`slice::partition_point`, which steps without a data-dependent
//! branch), and the tolerance check is masks, not a branch. A
//! hand-unrolled search and a four-lane AVX2 kernel were deleted: on
//! real change ratios this kernel beat both, except that the AVX2
//! gathers won on climate `rlds` (99 % large ratios), and there the
//! end-to-end put latency did not change (EXPERIMENTS.md "One path per
//! encoder kernel").

use crate::ESCAPE;

/// Per-point result of the fused pass.
///
/// Mirrors the encoder's decision table exactly:
///
/// | ratio                         | code        | error         |
/// |-------------------------------|-------------|---------------|
/// | non-finite (undefined)        | [`ESCAPE`]  | 0.0 (none)    |
/// | `\|r\| < tol` (small)         | 0           | `\|r\|`       |
/// | quantizes within tol          | `idx + 1`   | `\|rep − r\|` |
/// | misses tol, or empty table    | [`ESCAPE`]  | 0.0 (none)    |
///
/// Only large finite points search the table: on FLASH ratios, where
/// about nine points in ten are small, searching every point ran the
/// kernel at a quarter of this speed.
#[inline(always)]
fn classify_point(reps: &[f64], tol: f64, r: f64) -> (u32, f64) {
    if !r.is_finite() {
        return (ESCAPE, 0.0);
    }
    let a = r.abs();
    if a < tol {
        return (0, a);
    }
    if reps.is_empty() {
        return (ESCAPE, 0.0);
    }
    let pp = reps.partition_point(|&c| c < r);
    // The nearest-of-two pick from `BinTable::quantize`: midpoint ties
    // resolve to the lower index because the comparison is strict.
    let lo = pp.saturating_sub(1);
    let hi = pp.min(reps.len() - 1);
    let idx = lo + usize::from((reps[hi] - r).abs() < (r - reps[lo]).abs()) * (hi - lo);
    let err = (reps[idx] - r).abs();
    // The tolerance check as masks, not a branch: whether a large ratio
    // misses is unpredictable, and without the branch the kernel ran
    // about 1.4× faster on climate `rlus`. A miss turns the code into
    // `ESCAPE` (all ones) and the error's bits into +0.0 (even when the
    // subtraction overflowed to infinity).
    let hit = err <= tol;
    let miss = u32::from(!hit).wrapping_neg();
    (
        (idx as u32 + 1) | miss,
        f64::from_bits(err.to_bits() & u64::from(hit).wrapping_neg()),
    )
}

/// Fused classify+quantize over a dense ratio array.
///
/// For each point: `codes[j]` gets 0 (small change), `idx + 1` (table
/// entry `idx`), or [`ESCAPE`]; `errs[j]` gets the incurred ratio-space
/// error, with exactly 0.0 for escaped points so callers can accumulate
/// unconditionally in point order (adding 0.0 is a Neumaier no-op).
///
/// `reps` must be sorted (it comes from `SortedCenters`).
///
/// # Panics
/// Panics if the slice lengths disagree or `reps` has ≥ `u32::MAX`
/// entries.
#[inline]
pub fn classify_quantize(
    ratios: &[f64],
    reps: &[f64],
    tol: f64,
    codes: &mut [u32],
    errs: &mut [f64],
) {
    assert_eq!(ratios.len(), codes.len(), "codes must align with ratios");
    assert_eq!(ratios.len(), errs.len(), "errs must align with ratios");
    assert!(
        u32::try_from(reps.len()).is_ok(),
        "table too large for u32 codes"
    );
    for ((&r, code), err) in ratios.iter().zip(codes.iter_mut()).zip(errs.iter_mut()) {
        let (c, e) = classify_point(reps, tol, r);
        *code = c;
        *err = e;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIZES: [usize; 14] = [0, 1, 3, 4, 7, 8, 9, 31, 63, 64, 65, 100, 1024, 1025];

    /// The decision table by exhaustive search: the nearest entry over the
    /// whole table, the first one on a tie (so midpoints take the lower
    /// index).
    fn reference(reps: &[f64], tol: f64, r: f64) -> (u32, f64) {
        if !r.is_finite() {
            return (ESCAPE, 0.0);
        }
        if r.abs() < tol {
            return (0, r.abs());
        }
        let mut best: Option<(usize, f64)> = None;
        for (i, &c) in reps.iter().enumerate() {
            let d = (c - r).abs();
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((i, d));
            }
        }
        match best {
            Some((i, d)) if d <= tol => (i as u32 + 1, d),
            _ => (ESCAPE, 0.0),
        }
    }

    fn assert_matches_reference(ratios: &[f64], table: &[f64], tol: f64, ctx: &str) {
        let n = ratios.len();
        let mut codes = vec![1u32; n];
        let mut errs = vec![f64::NAN; n];
        classify_quantize(ratios, table, tol, &mut codes, &mut errs);
        for j in 0..n {
            let (c, e) = reference(table, tol, ratios[j]);
            assert_eq!(codes[j], c, "code: {ctx} j={j} r={}", ratios[j]);
            assert_eq!(
                errs[j].to_bits(),
                e.to_bits(),
                "err: {ctx} j={j} r={}",
                ratios[j]
            );
        }
    }

    fn reps(k: usize) -> Vec<f64> {
        // Sorted, irregular spacing, mixed signs; dyadic values keep
        // midpoints exact.
        (0..k)
            .map(|i| (i as f64) * 0.0625 - (k as f64) * 0.03125 + ((i % 3) as f64) * 0.015625)
            .collect::<Vec<_>>()
            .into_iter()
            .scan(f64::NEG_INFINITY, |prev, x| {
                let v = if x <= *prev { *prev + 0.0078125 } else { x };
                *prev = v;
                Some(v)
            })
            .collect()
    }

    fn queries(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| match i % 17 {
                0 => 0.0,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => f64::NAN,
                4 => 1e-12, // deep small
                5 => 1e6,   // far above the table: escapes
                _ => ((i * 29) % 257) as f64 / 64.0 - 2.0,
            })
            .collect()
    }

    #[test]
    fn classify_matches_exhaustive_search_across_sizes_and_tables() {
        for k in [0usize, 1, 2, 7, 255] {
            let table = reps(k);
            for n in SIZES {
                assert_matches_reference(&queries(n), &table, 0.05, &format!("k={k} n={n}"));
            }
        }
    }

    #[test]
    fn midpoint_tie_takes_lower_index() {
        // Dyadic reps make the midpoint exact: 0.5 is equidistant from
        // 0.25 and 0.75 and must map to index 0 (code 1).
        let table = [0.25, 0.75];
        let ratios = [0.5; 5];
        let mut codes = [0u32; 5];
        let mut errs = [0.0f64; 5];
        classify_quantize(&ratios, &table, 0.3, &mut codes, &mut errs);
        assert_eq!(codes, [1; 5]);
    }

    #[test]
    fn decision_table_is_honoured() {
        let table = [-0.5, 0.5];
        let tol = 0.1;
        let ratios = [
            0.0,           // small: |r| < tol
            0.05,          // small
            0.55,          // large, err 0.05 ≤ tol: code 2
            -0.45,         // large, err 0.05 ≤ tol: code 1
            2.0,           // large, err 1.5 > tol: escape
            f64::NAN,      // undefined: escape
            f64::INFINITY, // undefined: escape
        ];
        let mut codes = [9u32; 7];
        let mut errs = [9.0f64; 7];
        classify_quantize(&ratios, &table, tol, &mut codes, &mut errs);
        assert_eq!(codes, [0, 0, 2, 1, ESCAPE, ESCAPE, ESCAPE]);
        assert_eq!(errs[0], 0.0);
        assert_eq!(errs[1], 0.05);
        assert!((errs[2] - 0.05).abs() < 1e-15);
        assert_eq!(errs[4], 0.0, "escapes carry no error");
        assert_eq!(errs[5], 0.0);

        // At the boundaries (dyadic values keep them exact): an error of
        // exactly the tolerance still quantizes, one ulp more escapes, and
        // `|r| = tol` is not small.
        let ratios = [0.625, f64::from_bits(0.625f64.to_bits() + 1), 0.125];
        let mut codes = [9u32; 3];
        let mut errs = [9.0f64; 3];
        classify_quantize(&ratios, &table, 0.125, &mut codes, &mut errs);
        assert_eq!(codes, [2, ESCAPE, ESCAPE]);
        assert_eq!(errs, [0.125, 0.0, 0.0]);

        // An error that overflows to infinity escapes with error +0.0.
        let mut codes = [9u32; 1];
        let mut errs = [9.0f64; 1];
        classify_quantize(&[f64::MAX], &[-f64::MAX], tol, &mut codes, &mut errs);
        assert_eq!(codes, [ESCAPE]);
        assert_eq!(errs[0].to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn empty_table_escapes_every_large_point() {
        let ratios = [0.0, 0.5, f64::NAN];
        let mut codes = [9u32; 3];
        let mut errs = [9.0f64; 3];
        classify_quantize(&ratios, &[], 0.1, &mut codes, &mut errs);
        assert_eq!(codes, [0, ESCAPE, ESCAPE]);
    }

    mod properties {
        use super::*;
        use numarck_prop::prelude::*;

        fn sorted_table(mut v: Vec<f64>) -> Vec<f64> {
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v.dedup();
            v
        }

        proptest! {
            #[test]
            fn classify_matches_exhaustive_search(
                raw_table in numarck_prop::collection::vec(-2.0f64..2.0, 0..64),
                ratios in numarck_prop::collection::vec(-3.0f64..3.0, 0..200),
                tol in 1e-4f64..0.5
            ) {
                let table = sorted_table(raw_table);
                let mut codes = vec![0u32; ratios.len()];
                let mut errs = vec![0.0f64; ratios.len()];
                classify_quantize(&ratios, &table, tol, &mut codes, &mut errs);
                for (j, &r) in ratios.iter().enumerate() {
                    let (c, e) = reference(&table, tol, r);
                    prop_assert_eq!(codes[j], c);
                    prop_assert_eq!(errs[j].to_bits(), e.to_bits());
                }
            }
        }
    }
}
