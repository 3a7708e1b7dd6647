//! Kernel 5: CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`),
//! the checksum behind every stored container, journal record and wire
//! frame.
//!
//! A checksum has one exact answer, so both levels are bit-identical by
//! definition; they differ only in throughput:
//!
//! * **scalar** — slice-by-16: sixteen tables, sixteen independent
//!   lookups per 16-byte step.
//! * **avx2** — a carry-less-multiply (`PCLMULQDQ`) fold of four 128-bit
//!   lanes, 64 bytes per step, reduced to 32 bits by a Barrett step.
//!   Inputs shorter than two folds and the last < 16 bytes go through
//!   slice-by-16. [`crate::avx2_available`] requires `pclmulqdq`
//!   alongside AVX2 for exactly this kernel.
//!
//! The classic one-lookup-per-byte loop finishes slice-by-16's last
//! < 16 bytes, and the tests compare both levels against it.
//!
//! Every level has the streaming form `crc32_update(crc, bytes)`, with
//! `crc32(a‖b) == crc32_update(crc32(a), b)` and `crc32(x) ==
//! crc32_update(0, x)`: the running value is always a finished CRC.

use crate::Level;

/// The reflected generator polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte table; `TABLES[k][b]` is the CRC
/// contribution of byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 16] = build_tables();

const fn build_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 == 1 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Dispatched CRC-32 of `bytes`.
#[inline]
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

/// Dispatched streaming CRC-32: extend the finished CRC `crc` of some
/// prefix by `bytes`.
#[inline]
pub fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    crc32_update_with(crate::active_level(), crc, bytes)
}

/// [`crc32_update`] at an explicit level (oracle sweeps).
pub fn crc32_update_with(level: Level, crc: u32, bytes: &[u8]) -> u32 {
    match level {
        Level::Scalar => crc32_update_scalar(crc, bytes),
        // SAFETY: `Level::Avx2` is only handed out when
        // `avx2_available()` saw AVX2, POPCNT and PCLMULQDQ.
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 => unsafe { crc32_update_avx2(crc, bytes) },
        #[cfg(not(target_arch = "x86_64"))]
        Level::Avx2 => crc32_update_scalar(crc, bytes),
    }
}

/// One table lookup per byte: slice-by-16's tail, and the reference the
/// tests hold both levels to.
fn crc32_update_bytewise(crc: u32, bytes: &[u8]) -> u32 {
    let mut c = !crc;
    for &b in bytes {
        c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Portable slice-by-16: each step folds 16 input bytes with 16
/// independent table lookups.
fn crc32_update_scalar(crc: u32, bytes: &[u8]) -> u32 {
    let mut c = !crc;
    let mut chunks = bytes.chunks_exact(16);
    for s in &mut chunks {
        let lo = c ^ u32::from_le_bytes([s[0], s[1], s[2], s[3]]);
        c = TABLES[15][(lo & 0xFF) as usize]
            ^ TABLES[14][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[13][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[12][(lo >> 24) as usize]
            ^ TABLES[11][s[4] as usize]
            ^ TABLES[10][s[5] as usize]
            ^ TABLES[9][s[6] as usize]
            ^ TABLES[8][s[7] as usize]
            ^ TABLES[7][s[8] as usize]
            ^ TABLES[6][s[9] as usize]
            ^ TABLES[5][s[10] as usize]
            ^ TABLES[4][s[11] as usize]
            ^ TABLES[3][s[12] as usize]
            ^ TABLES[2][s[13] as usize]
            ^ TABLES[1][s[14] as usize]
            ^ TABLES[0][s[15] as usize];
    }
    crc32_update_bytewise(!c, chunks.remainder())
}

// Folding constants for the reflected polynomial: each is `x^n mod P(x)`,
// bit-reflected and shifted left by one. The test
// `fold_constants_derive_from_the_polynomial` recomputes them.
/// `x^(4·128+32)`: fold a lane forward by 64 bytes (low half).
const K1: i64 = 0x1_5444_2BD4;
/// `x^(4·128−32)`: fold a lane forward by 64 bytes (high half).
const K2: i64 = 0x1_C6E4_1596;
/// `x^(128+32)`: fold forward by 16 bytes (low half).
const K3: i64 = 0x1_7519_97D0;
/// `x^(128−32)`: fold forward by 16 bytes (high half).
const K4: i64 = 0x0_CCAA_009E;
/// `x^64`: reduce 96 bits to 64.
const K5: i64 = 0x1_63CD_6124;
/// `P(x)`, reflected, 33 bits.
const P_X: i64 = 0x1_DB71_0641;
/// `μ = ⌊x^64 / P(x)⌋`, reflected, 33 bits (Barrett reduction).
const MU: i64 = 0x1_F701_1641;

/// PCLMULQDQ fold (Gopal et al., "Fast CRC Computation for Generic
/// Polynomials Using PCLMULQDQ Instruction", Intel 2009): four 128-bit
/// accumulators fold 64 bytes per step, collapse into one, fold the
/// remaining 16-byte blocks, then reduce 128 → 64 → 32 bits.
///
/// # Safety
/// Requires the `avx2` and `pclmulqdq` CPU features.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,pclmulqdq")]
unsafe fn crc32_update_avx2(crc: u32, bytes: &[u8]) -> u32 {
    use std::arch::x86_64::*;

    // Below two folds' worth the setup does not pay for itself.
    if bytes.len() < 128 {
        return crc32_update_scalar(crc, bytes);
    }

    /// `(a.lo ⊗ k.lo) ⊕ (a.hi ⊗ k.hi) ⊕ b`: `a` moved forward onto `b`.
    #[inline(always)]
    unsafe fn fold(a: __m128i, b: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(a, k);
        let hi = _mm_clmulepi64_si128::<0x11>(a, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), b)
    }

    let mut blocks = bytes.chunks_exact(16);
    // SAFETY: every chunk is exactly 16 bytes; `loadu` has no alignment
    // requirement.
    let mut next = || unsafe {
        let block = blocks.next().expect("the fold takes no more blocks than the input holds");
        _mm_loadu_si128(block.as_ptr() as *const __m128i)
    };

    // The running CRC enters as the complement XORed into the first
    // four input bytes, exactly as the byte-wise loop seeds its register.
    let mut x3 = _mm_xor_si128(next(), _mm_cvtsi32_si128(!crc as i32));
    let mut x2 = next();
    let mut x1 = next();
    let mut x0 = next();

    let mut left = bytes.len() / 16 - 4;
    let k1k2 = _mm_set_epi64x(K2, K1);
    while left >= 4 {
        x3 = fold(x3, next(), k1k2);
        x2 = fold(x2, next(), k1k2);
        x1 = fold(x1, next(), k1k2);
        x0 = fold(x0, next(), k1k2);
        left -= 4;
    }

    let k3k4 = _mm_set_epi64x(K4, K3);
    let mut x = fold(x3, x2, k3k4);
    x = fold(x, x1, k3k4);
    x = fold(x, x0, k3k4);
    while left > 0 {
        x = fold(x, next(), k3k4);
        left -= 1;
    }

    // 128 → 96 → 64 bits.
    let low32 = _mm_set_epi32(0, 0, 0, !0);
    x = _mm_xor_si128(_mm_clmulepi64_si128::<0x10>(x, k3k4), _mm_srli_si128::<8>(x));
    x = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
        _mm_srli_si128::<4>(x),
    );

    // Barrett reduction, 64 → 32 bits (bit-reflected variant: the
    // result is the upper half of the low 64 bits).
    let pu = _mm_set_epi64x(MU, P_X);
    let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pu);
    let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pu);
    let folded = !(_mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32);

    crc32_update_scalar(folded, blocks.remainder())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic bytes with no short period.
    fn bytes(n: usize, seed: u64) -> Vec<u8> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (s >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors_at_every_level() {
        for level in Level::all_supported() {
            assert_eq!(crc32_update_with(level, 0, b""), 0, "{}", level.name());
            assert_eq!(crc32_update_with(level, 0, b"123456789"), 0xCBF4_3926, "{}", level.name());
            // Long enough to take the fold path, and its own known value.
            let a = vec![b'a'; 1000];
            assert_eq!(crc32_update_with(level, 0, &a), 0x9A38_DA03, "{}", level.name());
        }
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        // The byte-wise reference the other tests compare against.
        assert_eq!(crc32_update_bytewise(0, b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_update_bytewise(0, &[b'a'; 1000]), 0x9A38_DA03);
    }

    #[test]
    fn levels_agree_on_every_length_through_three_folds() {
        let data = bytes(4097 + 16, 7);
        for start in [0usize, 1, 3, 8, 15] {
            for n in 0..=400 {
                let s = &data[start..start + n];
                let oracle = crc32_update_bytewise(0, s);
                for level in Level::all_supported() {
                    assert_eq!(
                        crc32_update_with(level, 0, s),
                        oracle,
                        "level {} start {start} n {n}",
                        level.name()
                    );
                }
            }
        }
    }

    #[test]
    fn fold_constants_derive_from_the_polynomial() {
        // Normal-form polynomial with the x^32 term.
        const P: u64 = 0x1_04C1_1DB7;
        let xpow_mod = |n: u32| {
            let mut r: u64 = 1;
            for _ in 0..n {
                r <<= 1;
                if r & (1 << 32) != 0 {
                    r ^= P;
                }
            }
            r
        };
        let reflect = |v: u64, bits: u32| v.reverse_bits() >> (64 - bits);
        let k = |n: u32| (reflect(xpow_mod(n), 32) << 1) as i64;
        assert_eq!(k(4 * 128 + 32), K1);
        assert_eq!(k(4 * 128 - 32), K2);
        assert_eq!(k(128 + 32), K3);
        assert_eq!(k(128 - 32), K4);
        assert_eq!(k(64), K5);
        assert_eq!(reflect(P, 33) as i64, P_X);
        // μ = ⌊x^64 / P⌋ by long division over GF(2).
        let (mut rem, mut mu) = (1u128 << 64, 0u128);
        while 128 - rem.leading_zeros() >= 33 {
            let shift = 128 - rem.leading_zeros() - 33;
            mu |= 1 << shift;
            rem ^= (P as u128) << shift;
        }
        assert_eq!(reflect(mu as u64, 33) as i64, MU);
    }

    mod properties {
        use super::*;
        use numarck_prop::prelude::*;

        proptest! {
            /// Every level equals the byte table on random contents,
            /// lengths 0..=4096 and start offsets 0..16.
            #[test]
            fn levels_match_oracle(
                data in numarck_prop::collection::vec(any::<u8>(), 0..4097 + 16),
                start in 0usize..16,
                crc in any::<u32>(),
            ) {
                let s = &data[start.min(data.len())..];
                let oracle = crc32_update_bytewise(crc, s);
                for level in Level::all_supported() {
                    prop_assert_eq!(crc32_update_with(level, crc, s), oracle);
                }
            }

            /// `crc32_update(crc32(a), b) == crc32(a‖b)` at any split.
            #[test]
            fn streaming_split_matches_one_shot(
                data in numarck_prop::collection::vec(any::<u8>(), 0..4097),
                split in any::<usize>(),
            ) {
                let at = split % (data.len() + 1);
                let (a, b) = data.split_at(at);
                for level in Level::all_supported() {
                    let whole = crc32_update_with(level, 0, &data);
                    let head = crc32_update_with(level, 0, a);
                    prop_assert_eq!(crc32_update_with(level, head, b), whole);
                }
            }
        }
    }
}
