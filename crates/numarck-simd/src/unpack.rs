//! Kernel 4: bulk bit-unpack of packed `B`-bit index codes, and the
//! centroid-lookup apply step that turns codes into reconstructed values.
//!
//! The packed layout is the core crate's `BitWriter` format: values
//! packed LSB-first into little-endian `u64` words, value `i` occupying
//! bits `[i·B, (i+1)·B)`. The scalar level replicates `read_at` from the
//! core crate field-for-field (word shift, straddle OR from the next
//! word, mask); the AVX2 level produces identical codes by construction
//! and by test.
//!
//! [`apply_codes`] is the decode inner loop on top of the unpacked codes:
//! `out[j] = prev[j] · rep1[code]` with `rep1[t+1] = 1.0 + rep[t]`
//! precomputed by the caller, and code 0 copying `prev[j]` verbatim
//! (blended, never multiplied, so the identity holds bit-exactly even for
//! non-finite `prev` chains).

use crate::Level;

#[inline(always)]
fn code_mask(bits: u8) -> u32 {
    debug_assert!((1..=32).contains(&bits));
    if bits == 32 {
        u32::MAX
    } else {
        (1u32 << bits) - 1
    }
}

/// Dispatched bulk unpack: `out[j]` gets packed value `start + j`.
///
/// # Panics
/// Panics if `bits` is 0 or > 32; debug-panics if the requested range
/// overruns `words`.
#[inline]
pub fn unpack(words: &[u64], bits: u8, start: usize, out: &mut [u32]) {
    unpack_with(crate::active_level(), words, bits, start, out)
}

/// [`unpack`] at an explicit level (oracle sweeps).
pub fn unpack_with(level: Level, words: &[u64], bits: u8, start: usize, out: &mut [u32]) {
    assert!((1..=32).contains(&bits), "bits must be in 1..=32");
    debug_assert!(
        (start + out.len()) * bits as usize <= words.len() * 64,
        "unpack range overruns the word buffer"
    );
    match level {
        Level::Scalar => unpack_scalar(words, bits, start, out),
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 => unsafe { unpack_avx2(words, bits, start, out) },
        #[cfg(not(target_arch = "x86_64"))]
        Level::Avx2 => unpack_scalar(words, bits, start, out),
    }
}

/// Scalar reference: the core crate's `read_at` per code (the oracle).
fn unpack_scalar(words: &[u64], bits: u8, start: usize, out: &mut [u32]) {
    let mask = code_mask(bits);
    for (j, slot) in out.iter_mut().enumerate() {
        let pos = (start + j) * bits as usize;
        let wi = pos / 64;
        let off = pos % 64;
        let mut v = words[wi] >> off;
        if bits as usize > 64 - off {
            v |= words[wi + 1] << (64 - off);
        }
        *slot = (v as u32) & mask;
    }
}

/// AVX2 variant: per group of 4 codes, gather the straddling word pair
/// and funnel-shift with `srlv`/`sllv`.
///
/// The vector body gathers `words[wi + 1]` unconditionally (an `sllv`
/// shift of 64 — the `off == 0` case — yields 0, and bits landing at or
/// above `B` are masked off), so it only runs while `wi + 1` is in
/// bounds; trailing codes fall back to the scalar path.
///
/// # Safety
/// Requires the `avx2` CPU feature.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn unpack_avx2(words: &[u64], bits: u8, start: usize, out: &mut [u32]) {
    use std::arch::x86_64::*;
    let b = bits as usize;
    // Last absolute code index whose word pair is gather-safe.
    let safe = if words.len() < 2 {
        0
    } else {
        let last_ok = ((words.len() - 1) * 64 - 1) / b;
        (last_ok + 1).saturating_sub(start).min(out.len())
    };
    let vec_n = safe - safe % 4;
    let mask = _mm256_set1_epi64x(code_mask(bits) as i64);
    let c63 = _mm256_set1_epi64x(63);
    let c64 = _mm256_set1_epi64x(64);
    let step = _mm256_set1_epi64x((4 * b) as i64);
    let sb = start * b;
    let mut pos = _mm256_set_epi64x(
        (sb + 3 * b) as i64,
        (sb + 2 * b) as i64,
        (sb + b) as i64,
        sb as i64,
    );
    let mut i = 0;
    while i < vec_n {
        let wi = _mm256_srli_epi64::<6>(pos);
        let off = _mm256_and_si256(pos, c63);
        let lo = _mm256_i64gather_epi64::<8>(words.as_ptr().cast(), wi);
        let hi = _mm256_i64gather_epi64::<8>(
            words.as_ptr().cast(),
            _mm256_add_epi64(wi, _mm256_set1_epi64x(1)),
        );
        let v = _mm256_or_si256(
            _mm256_srlv_epi64(lo, off),
            _mm256_sllv_epi64(hi, _mm256_sub_epi64(c64, off)),
        );
        let code = _mm256_and_si256(v, mask);
        let mut tmp = [0i64; 4];
        _mm256_storeu_si256(tmp.as_mut_ptr().cast(), code);
        for (k, &c) in tmp.iter().enumerate() {
            out[i + k] = c as u32;
        }
        pos = _mm256_add_epi64(pos, step);
        i += 4;
    }
    unpack_scalar(words, bits, start + vec_n, &mut out[vec_n..]);
}

/// Dispatched centroid-lookup apply: `out[j] = prev[j] * rep1[codes[j]]`,
/// except code 0 copies `prev[j]` verbatim. `rep1` is the caller's
/// `1 + representative` table indexed directly by code (`rep1[0]` is
/// never read).
///
/// # Panics
/// Panics if the slice lengths disagree; debug-panics on a code outside
/// `rep1` (release callers must have validated the stream).
#[inline]
pub fn apply_codes(codes: &[u32], rep1: &[f64], prev: &[f64], out: &mut [f64]) {
    apply_codes_with(crate::active_level(), codes, rep1, prev, out)
}

/// [`apply_codes`] at an explicit level (oracle sweeps).
pub fn apply_codes_with(level: Level, codes: &[u32], rep1: &[f64], prev: &[f64], out: &mut [f64]) {
    assert_eq!(codes.len(), prev.len(), "prev must align with codes");
    assert_eq!(codes.len(), out.len(), "out must align with codes");
    match level {
        Level::Scalar => apply_codes_scalar(codes, rep1, prev, out),
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 => unsafe { apply_codes_avx2(codes, rep1, prev, out) },
        #[cfg(not(target_arch = "x86_64"))]
        Level::Avx2 => apply_codes_scalar(codes, rep1, prev, out),
    }
}

/// Scalar reference implementation (the oracle).
fn apply_codes_scalar(codes: &[u32], rep1: &[f64], prev: &[f64], out: &mut [f64]) {
    for ((&c, &p), o) in codes.iter().zip(prev).zip(out.iter_mut()) {
        *o = if c == 0 { p } else { p * rep1[c as usize] };
    }
}

/// AVX2 variant: gather the factors, multiply, blend code-0 lanes back
/// to `prev` (`x · 1.0` would perturb a NaN payload; the blend never
/// does).
///
/// # Safety
/// Requires the `avx2` CPU feature. Every code must index into `rep1`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn apply_codes_avx2(codes: &[u32], rep1: &[f64], prev: &[f64], out: &mut [f64]) {
    use std::arch::x86_64::*;
    let n = codes.len();
    let lanes = n - n % 4;
    let zero = _mm256_setzero_si256();
    let mut i = 0;
    while i < lanes {
        let c32 = _mm_loadu_si128(codes.as_ptr().add(i).cast());
        let idx = _mm256_cvtepu32_epi64(c32);
        let factor = _mm256_i64gather_pd::<8>(rep1.as_ptr(), idx);
        let p = _mm256_loadu_pd(prev.as_ptr().add(i));
        let prod = _mm256_mul_pd(p, factor);
        let is_zero = _mm256_castsi256_pd(_mm256_cmpeq_epi64(idx, zero));
        _mm256_storeu_pd(out.as_mut_ptr().add(i), _mm256_blendv_pd(prod, p, is_zero));
        i += 4;
    }
    for j in lanes..n {
        let c = codes[j];
        out[j] = if c == 0 { prev[j] } else { prev[j] * rep1[c as usize] };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test-local packer replicating the core `BitWriter` layout.
    fn pack(values: &[u32], bits: u8) -> Vec<u64> {
        let mut words = vec![0u64; (values.len() * bits as usize).div_ceil(64).max(1)];
        for (i, &v) in values.iter().enumerate() {
            let pos = i * bits as usize;
            let (wi, off) = (pos / 64, pos % 64);
            words[wi] |= (v as u64) << off;
            if off + bits as usize > 64 {
                words[wi + 1] |= (v as u64) >> (64 - off);
            }
        }
        words
    }

    fn values(n: usize, bits: u8) -> Vec<u32> {
        let mask = code_mask(bits);
        (0..n as u32).map(|i| i.wrapping_mul(2654435761) & mask).collect()
    }

    #[test]
    fn levels_agree_for_all_widths_offsets_and_sizes() {
        for bits in [1u8, 3, 7, 8, 9, 11, 13, 16, 24, 32] {
            let vals = values(300, bits);
            let words = pack(&vals, bits);
            for start in [0usize, 1, 5, 63, 64, 65, 131] {
                for n in [0usize, 1, 3, 4, 7, 8, 9, 63, 64, 65, 100] {
                    if start + n > vals.len() {
                        continue;
                    }
                    for level in Level::all_supported() {
                        let mut out = vec![u32::MAX; n];
                        unpack_with(level, &words, bits, start, &mut out);
                        assert_eq!(
                            out,
                            &vals[start..start + n],
                            "level {} bits {bits} start {start} n {n}",
                            level.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn apply_codes_levels_are_bit_identical() {
        let rep1: Vec<f64> = std::iter::once(1.0)
            .chain((0..31).map(|t| 1.0 + (t as f64 - 15.0) / 97.0))
            .collect();
        for n in [0usize, 1, 3, 4, 5, 7, 8, 9, 63, 64, 65, 513] {
            let codes: Vec<u32> = (0..n as u32).map(|i| (i * 7) % 32).collect();
            let prev: Vec<f64> = (0..n).map(|i| -3.0 + (i as f64) * 0.37).collect();
            let mut oracle = vec![0.0f64; n];
            apply_codes_scalar(&codes, &rep1, &prev, &mut oracle);
            for level in Level::all_supported() {
                let mut got = vec![f64::NAN; n];
                apply_codes_with(level, &codes, &rep1, &prev, &mut got);
                for j in 0..n {
                    assert_eq!(
                        got[j].to_bits(),
                        oracle[j].to_bits(),
                        "level {} n {n} j {j}",
                        level.name()
                    );
                }
            }
        }
    }

    #[test]
    fn code_zero_preserves_prev_bitwise() {
        // −0.0 and a NaN payload survive only if code 0 is a copy, not a
        // multiply.
        let rep1 = [1.0, 1.5];
        let prev = [-0.0f64, f64::from_bits(0x7FF8_0000_DEAD_BEEF), 2.0, -0.0, 1.0];
        let codes = [0u32, 0, 1, 0, 1];
        for level in Level::all_supported() {
            let mut out = [0.0f64; 5];
            apply_codes_with(level, &codes, &rep1, &prev, &mut out);
            assert_eq!(out[0].to_bits(), (-0.0f64).to_bits(), "level {}", level.name());
            assert_eq!(out[1].to_bits(), prev[1].to_bits(), "level {}", level.name());
            assert_eq!(out[2], 3.0);
        }
    }

    mod properties {
        use super::*;
        use numarck_prop::prelude::*;

        proptest! {
            #[test]
            fn unpack_inverts_pack(
                raw in numarck_prop::collection::vec(any::<u32>(), 0..500),
                bits in 1u8..=16,
                start_frac in 0.0f64..1.0
            ) {
                let mask = code_mask(bits);
                let vals: Vec<u32> = raw.iter().map(|&v| v & mask).collect();
                let words = pack(&vals, bits);
                let start = (start_frac * vals.len() as f64) as usize;
                let n = vals.len() - start;
                for level in Level::all_supported() {
                    let mut out = vec![0u32; n];
                    unpack_with(level, &words, bits, start, &mut out);
                    prop_assert_eq!(&out[..], &vals[start..]);
                }
            }

            #[test]
            fn apply_matches_oracle(
                pts in numarck_prop::collection::vec((0u32..16, -100.0f64..100.0), 0..300)
            ) {
                let rep1: Vec<f64> =
                    std::iter::once(1.0).chain((0..15).map(|t| 1.0 + t as f64 * 0.01)).collect();
                let codes: Vec<u32> = pts.iter().map(|p| p.0).collect();
                let prev: Vec<f64> = pts.iter().map(|p| p.1).collect();
                let mut oracle = vec![0.0f64; pts.len()];
                apply_codes_scalar(&codes, &rep1, &prev, &mut oracle);
                for level in Level::all_supported() {
                    let mut got = vec![0.0f64; pts.len()];
                    apply_codes_with(level, &codes, &rep1, &prev, &mut got);
                    for j in 0..pts.len() {
                        prop_assert_eq!(got[j].to_bits(), oracle[j].to_bits());
                    }
                }
            }
        }
    }
}
