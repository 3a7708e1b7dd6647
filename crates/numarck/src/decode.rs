//! Reconstruction (the paper's restart equation, §II-D).
//!
//! Given the previous iteration's values (exact or themselves
//! reconstructed) and a compressed block, each point is rebuilt as
//!
//! ```text
//! ε_ij = D_ij                      if point j is incompressible (ζ = 0)
//!      = D'_{i−1,j}                if index = 0 (change below E)
//!      = D'_{i−1,j} · (1 + Δ'_ij)  otherwise
//! ```
//!
//! A restart applies a chain of such blocks to a full checkpoint, and
//! [`replay`] does that in one pass. Decoding is chunk-parallel and
//! mirrors the encoder's rank-partitioned packer: chunks are aligned to
//! 64 points so each owns whole bitmap words, and a chunk-granularity
//! rank index (prefix popcount at chunk starts only — O(chunks) memory,
//! not O(words)) tells each chunk where every hop's indices and exact
//! values start. Inside a chunk, each 1024-point block goes through
//! every hop while it is L1-resident, so the field crosses memory once
//! however long the chain is. [`reconstruct`] is the one-hop case.

use std::time::Instant;

use numarck_par::chunk::chunk_size_aligned;
use numarck_par::par_map;
use numarck_par::scan::chunked_popcount_ranks;
use numarck_simd::popcount::popcount_sum_with;
use numarck_simd::unpack::{apply_codes_with, unpack_with};
use numarck_simd::Level;

use crate::encode::CompressedIteration;
use crate::error::NumarckError;

/// Points decoded per cache block: a block's codes are bulk-unpacked
/// into a stack buffer (4 KiB) once per hop, and its values (8 KiB)
/// stay L1-resident while every hop of the chain is applied to them.
const DECODE_BLOCK: usize = 1024;

/// A borrowed view of one compressed block: everything the decoder
/// needs, as plain slices.
///
/// [`CompressedIteration::block_ref`] produces one over the owned
/// in-memory layout; the v2 container's mapped reader produces one whose
/// slices point straight into the mapped file (its sections are
/// 64-byte-aligned precisely so `bitmap`/`index_words`/`exact_values`
/// can be reinterpreted in place), which is what makes zero-copy decode
/// possible without a second decode implementation.
#[derive(Debug, Clone, Copy)]
pub struct BlockRef<'a> {
    /// Index width `B` in bits.
    pub bits: u8,
    /// Number of data points.
    pub num_points: usize,
    /// Number of compressible (index-coded) points.
    pub num_compressible: usize,
    /// Sorted representative ratios (the centroid table).
    pub table: &'a [f64],
    /// Compressibility bitmap, one bit per point.
    pub bitmap: &'a [u64],
    /// Bit-packed `B`-bit indices of the compressible points.
    pub index_words: &'a [u64],
    /// Exact values of the incompressible points, point order.
    pub exact_values: &'a [f64],
}

impl BlockRef<'_> {
    /// Whether point `j` is index-coded.
    #[inline]
    pub fn is_compressible(&self, j: usize) -> bool {
        (self.bitmap[j / 64] >> (j % 64)) & 1 == 1
    }
}

impl CompressedIteration {
    /// Borrow this block as the slice view the decoders run on.
    pub fn block_ref(&self) -> BlockRef<'_> {
        BlockRef {
            bits: self.bits,
            num_points: self.num_points,
            num_compressible: self.num_compressible,
            table: self.table.representatives(),
            bitmap: &self.bitmap,
            index_words: &self.index_words,
            exact_values: &self.exact_values,
        }
    }
}

/// Reconstruct the current iteration from `prev` and a compressed block.
///
/// `prev` may be exact data or a previous reconstruction (the restart
/// chain case); length must equal the block's `num_points`.
pub fn reconstruct(prev: &[f64], block: &CompressedIteration) -> Result<Vec<f64>, NumarckError> {
    reconstruct_ref(prev, &block.block_ref())
}

/// [`reconstruct`] over a borrowed [`BlockRef`]: a one-hop [`replay`].
pub fn reconstruct_ref(prev: &[f64], block: &BlockRef<'_>) -> Result<Vec<f64>, NumarckError> {
    replay(prev, std::slice::from_ref(block))
}

/// Apply `hops` in order to `base` and return the final state — the
/// restart chain in one pass, bit-identical to applying
/// [`reconstruct`] once per hop.
///
/// Every hop is checked before its codes are used: its length must
/// match `base` ([`NumarckError::LengthMismatch`]), and its counts,
/// bitmap population and every index code must agree with its header
/// and table ([`NumarckError::Corrupt`]). A hop that fails any check
/// fails the replay; nothing panics on malformed input.
///
/// Telemetry counts one decode per hop and records the elapsed time as
/// one `numarck_decode_ns` sample per hop (equal shares summing to the
/// wall time), so the histogram's mean stays the cost of one block.
pub fn replay(base: &[f64], hops: &[BlockRef<'_>]) -> Result<Vec<f64>, NumarckError> {
    replay_with(numarck_simd::active_level(), base, hops)
}

/// [`replay`] at an explicit lane-kernel level (oracle sweeps).
pub fn replay_with(
    level: Level,
    base: &[f64],
    hops: &[BlockRef<'_>],
) -> Result<Vec<f64>, NumarckError> {
    let h = hops.len() as u64;
    crate::obs::decodes_total().add(h);
    let start = numarck_obs::timing_enabled().then(Instant::now);
    let out = replay_chunks(level, base, hops);
    if let Some(t0) = start.filter(|_| h > 0) {
        // Equal shares, the remainder spread one nanosecond at a time,
        // so the recorded sum is exactly the elapsed time.
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let hist = crate::obs::decode_ns();
        for k in 0..h {
            hist.record(ns / h + u64::from(k < ns % h));
        }
    }
    out
}

fn replay_chunks(
    level: Level,
    base: &[f64],
    hops: &[BlockRef<'_>],
) -> Result<Vec<f64>, NumarckError> {
    let n = base.len();
    for hop in hops {
        check_frame(n, hop)?;
    }
    if hops.is_empty() || n == 0 {
        return Ok(base.to_vec());
    }

    // One sweep counts every hop's compressible points per chunk: the
    // ranks give each chunk where each hop's codes start, and the totals
    // check each bitmap against its header.
    let chunk = chunk_size_aligned(n, 64);
    let bitmaps: Vec<&[u64]> = hops.iter().map(|hop| hop.bitmap).collect();
    let (ranks, totals) = chunked_popcount_ranks(&bitmaps, chunk / 64);
    for (hop, &total) in hops.iter().zip(&totals) {
        if total != hop.num_compressible as u64 {
            return Err(NumarckError::Corrupt(format!(
                "bitmap has {total} set bits but header claims {}",
                hop.num_compressible
            )));
        }
    }

    // `1 + Δ'` per code, per hop, shared read-only across chunks. Entry
    // 0 pairs with the small-change code and is never multiplied in
    // (those lanes blend `prev` through verbatim — NaN payloads and
    // signed zeros in `prev` survive bit-exactly, which `prev * 1.0`
    // would not promise).
    let rep1: Vec<Vec<f64>> = hops
        .iter()
        .map(|hop| std::iter::once(1.0).chain(hop.table.iter().map(|&r| 1.0 + r)).collect())
        .collect();

    let mut out = vec![0.0f64; n];
    let results = par_map(
        out.chunks_mut(chunk).zip(ranks.chunks_exact(hops.len())),
        |ci, (points, chunk_ranks)| -> Result<(), NumarckError> {
            let first = ci * chunk;
            // Each hop's read position starts at its chunk ranks: codes
            // before the chunk, and exact values = points before the
            // chunk minus codes before it.
            let mut cursors: Vec<Cursor> = chunk_ranks
                .iter()
                .map(|&comp| Cursor { comp: comp as usize, exact: first - comp as usize })
                .collect();
            // Pre-sized scratch per chunk task, reused by every block and
            // hop in the chunk — no per-block heap traffic.
            let mut scratch = Scratch { codes: [0; DECODE_BLOCK], lanes: [0; 64] };
            let mut prev = [0.0f64; DECODE_BLOCK];
            for (bi, block) in points.chunks_mut(DECODE_BLOCK).enumerate() {
                let start = first + bi * DECODE_BLOCK;
                let len = block.len();
                let items = hops.iter().zip(&rep1).zip(cursors.iter_mut());
                for (k, ((hop, rep1), cursor)) in items.enumerate() {
                    // The first hop reads `base`; every later one reads
                    // the block's state after the hop before it.
                    let prev = if k == 0 {
                        &base[start..start + len]
                    } else {
                        prev[..len].copy_from_slice(block);
                        &prev[..len]
                    };
                    decode_block(level, hop, rep1, start, prev, block, cursor, &mut scratch)?;
                }
            }
            Ok(())
        },
    );
    results.into_iter().collect::<Result<(), _>>()?;
    Ok(out)
}

/// A hop's read position inside one chunk.
struct Cursor {
    /// Index codes consumed.
    comp: usize,
    /// Exact values consumed.
    exact: usize,
}

/// Per-chunk scratch: one block's unpacked codes, and the 64 lanes a
/// mixed word's codes are scattered to.
struct Scratch {
    codes: [u32; DECODE_BLOCK],
    lanes: [u32; 64],
}

/// Apply one hop to one block: `prev` (the block's previous state) to
/// `out`, both `len ≤ DECODE_BLOCK` points starting at point `start`.
#[allow(clippy::too_many_arguments)]
fn decode_block(
    level: Level,
    hop: &BlockRef<'_>,
    rep1: &[f64],
    start: usize,
    prev: &[f64],
    out: &mut [f64],
    cursor: &mut Cursor,
    scratch: &mut Scratch,
) -> Result<(), NumarckError> {
    let word0 = start / 64;
    let words = &hop.bitmap[word0..word0 + out.len().div_ceil(64)];
    // All of this block's codes in one bulk unpack, then checked against
    // the table before any of them reaches a gather.
    let ncomp = popcount_sum_with(level, words) as usize;
    let codes = &mut scratch.codes[..ncomp];
    unpack_with(level, hop.index_words, hop.bits, cursor.comp, codes);
    cursor.comp += ncomp;
    let max_code = codes.iter().copied().max().unwrap_or(0);
    if max_code as usize > hop.table.len() {
        return Err(NumarckError::Corrupt(format!(
            "index {max_code} exceeds table length {}",
            hop.table.len()
        )));
    }

    // Lanes left over from another hop were checked against another
    // table: start this hop's block from code 0.
    let lanes = &mut scratch.lanes;
    lanes.fill(0);
    let mut cpos = 0usize;
    for ((&word, prev), out) in words.iter().zip(prev.chunks(64)).zip(out.chunks_mut(64)) {
        let m = out.len();
        if word == u64::MAX {
            // Fully compressible word (always 64 lanes: bits past the
            // last point were rejected): codes are already contiguous.
            apply_codes_with(level, &codes[cpos..cpos + 64], rep1, prev, out);
            cpos += 64;
        } else if word == 0 {
            // Fully escaped word: straight copy.
            out.copy_from_slice(&hop.exact_values[cursor.exact..cursor.exact + m]);
            cursor.exact += m;
        } else {
            // Mixed word: scatter the codes to their lanes, apply over
            // every lane, then overwrite the escaped lanes with their
            // exact values. An escaped lane holds 0 or a stale code from
            // an earlier word of this block — checked, so in range.
            let mut set = word;
            while set != 0 {
                lanes[set.trailing_zeros() as usize] = codes[cpos];
                cpos += 1;
                set &= set - 1;
            }
            apply_codes_with(level, &lanes[..m], rep1, prev, out);
            let mut escaped = !word & lane_mask(m);
            while escaped != 0 {
                out[escaped.trailing_zeros() as usize] = hop.exact_values[cursor.exact];
                cursor.exact += 1;
                escaped &= escaped - 1;
            }
        }
    }
    Ok(())
}

/// The low `m` bits set (`1 ≤ m ≤ 64`).
#[inline]
fn lane_mask(m: usize) -> u64 {
    if m == 64 {
        u64::MAX
    } else {
        (1u64 << m) - 1
    }
}

/// Sequential reference decoder (kept as the oracle the parallel path is
/// tested against; also used for tiny blocks in hot loops).
pub fn reconstruct_seq(
    prev: &[f64],
    block: &CompressedIteration,
) -> Result<Vec<f64>, NumarckError> {
    reconstruct_seq_ref(prev, &block.block_ref())
}

/// [`reconstruct_seq`] over a borrowed [`BlockRef`].
pub fn reconstruct_seq_ref(prev: &[f64], block: &BlockRef<'_>) -> Result<Vec<f64>, NumarckError> {
    check_frame(prev.len(), block)?;
    let set_bits: usize = block.bitmap.iter().map(|w| w.count_ones() as usize).sum();
    if set_bits != block.num_compressible {
        return Err(NumarckError::Corrupt(format!(
            "bitmap has {set_bits} set bits but header claims {}",
            block.num_compressible
        )));
    }
    let mut out = Vec::with_capacity(block.num_points);
    let mut reader = crate::bitstream::BitReader::new(
        block.index_words,
        block.num_compressible * block.bits as usize,
    );
    let mut exacts = block.exact_values.iter();
    for j in 0..block.num_points {
        if block.is_compressible(j) {
            let code = reader
                .read(block.bits)
                .ok_or_else(|| NumarckError::Corrupt("index stream exhausted".into()))?;
            if code as usize > block.table.len() {
                return Err(NumarckError::Corrupt(format!(
                    "index {code} exceeds table length {}",
                    block.table.len()
                )));
            }
            if code == 0 {
                out.push(prev[j]);
            } else {
                out.push(prev[j] * (1.0 + block.table[code as usize - 1]));
            }
        } else {
            let v = exacts
                .next()
                .ok_or_else(|| NumarckError::Corrupt("exact values exhausted".into()))?;
            out.push(*v);
        }
    }
    Ok(out)
}

/// The checks that need no pass over the data: the hop's length and
/// that its section sizes agree with its counts, so every slice the
/// decoders take is in bounds. The bitmap population and the code range
/// are checked while decoding.
fn check_frame(n: usize, block: &BlockRef<'_>) -> Result<(), NumarckError> {
    if block.num_points != n {
        return Err(NumarckError::LengthMismatch { prev: n, curr: block.num_points });
    }
    if !(1..=32).contains(&block.bits) {
        return Err(NumarckError::Corrupt(format!("index width {} out of range", block.bits)));
    }
    let nc = block.num_compressible;
    if nc > n || block.exact_values.len() != n - nc {
        return Err(NumarckError::Corrupt(
            "compressible + exact counts do not cover all points".into(),
        ));
    }
    if block.bitmap.len() != n.div_ceil(64) {
        return Err(NumarckError::Corrupt(format!(
            "bitmap has {} words for {n} points",
            block.bitmap.len()
        )));
    }
    if !n.is_multiple_of(64) && block.bitmap[n / 64] >> (n % 64) != 0 {
        return Err(NumarckError::Corrupt("bitmap marks points past the end".into()));
    }
    if block.index_words.len() < (nc * block.bits as usize).div_ceil(64) {
        return Err(NumarckError::Corrupt("index stream shorter than its codes".into()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::encode::encode;
    use crate::strategy::Strategy;

    fn roundtrip(prev: &[f64], curr: &[f64], cfg: &Config) -> Vec<f64> {
        let (block, _) = encode(prev, curr, cfg).unwrap();
        let par = reconstruct(prev, &block).unwrap();
        let seq = reconstruct_seq(prev, &block).unwrap();
        assert_eq!(par, seq, "parallel and sequential decoders must agree");
        par
    }

    #[test]
    fn roundtrip_respects_error_bound() {
        let n = 10_000;
        let prev: Vec<f64> = (0..n).map(|i| 1.0 + ((i * 31) % 1009) as f64 / 100.0).collect();
        let curr: Vec<f64> =
            prev.iter().enumerate().map(|(i, v)| v * (1.0 + 0.004 * ((i % 11) as f64 - 5.0) / 5.0)).collect();
        for s in Strategy::all() {
            let cfg = Config::new(8, 0.001, s).unwrap();
            let restored = roundtrip(&prev, &curr, &cfg);
            for (j, (&r, &c)) in restored.iter().zip(&curr).enumerate() {
                // Value-space bound: E · |prev/curr| (changes here are at
                // most 0.4%, so the factor is ≤ 1/0.996).
                let rel = ((r - c) / c).abs();
                assert!(rel <= 0.001 / 0.996 + 1e-12, "{s} point {j}: rel err {rel}");
            }
        }
    }

    #[test]
    fn exact_points_are_bit_exact() {
        let prev = vec![0.0, 0.0, 1.0];
        let curr = vec![std::f64::consts::PI, -7.25, 1.0];
        let cfg = Config::new(8, 0.001, Strategy::Clustering).unwrap();
        let restored = roundtrip(&prev, &curr, &cfg);
        assert_eq!(restored[0], std::f64::consts::PI);
        assert_eq!(restored[1], -7.25);
        assert_eq!(restored[2], 1.0);
    }

    #[test]
    fn small_change_points_carry_previous_value() {
        let prev = vec![2.0, 3.0];
        let curr = vec![2.0001, 3.0]; // 0.005% and 0% — both below E = 0.1%
        let cfg = Config::new(8, 0.001, Strategy::EqualWidth).unwrap();
        let restored = roundtrip(&prev, &curr, &cfg);
        assert_eq!(restored, prev);
    }

    #[test]
    fn small_change_passthrough_is_bitwise_even_for_odd_payloads() {
        // Restart chains may feed a *reconstruction* as `prev`, and the
        // small-change rule is "previous value verbatim" — a blend, not a
        // multiply. NaN payloads and signed zeros must survive decode
        // bit-exactly through both the vector fast path (whole bitmap
        // word compressible) and the scalar mixed path.
        let n = 192; // 3 whole bitmap words
        let prev: Vec<f64> = vec![2.0; n];
        let curr: Vec<f64> = prev.clone(); // zero change everywhere -> all code 0
        let cfg = Config::new(8, 0.001, Strategy::Clustering).unwrap();
        let (block, _) = encode(&prev, &curr, &cfg).unwrap();
        let weird = f64::from_bits(0x7ff8_0000_dead_beef); // NaN payload
        let mut prev2 = prev.clone();
        prev2[0] = -0.0;
        prev2[67] = weird;
        prev2[191] = f64::from_bits(0xfff0_0000_0000_0001); // -sNaN-ish
        let par = reconstruct(&prev2, &block).unwrap();
        let seq = reconstruct_seq(&prev2, &block).unwrap();
        for j in [0usize, 67, 191] {
            assert_eq!(par[j].to_bits(), prev2[j].to_bits(), "par point {j}");
            assert_eq!(seq[j].to_bits(), prev2[j].to_bits(), "seq point {j}");
        }
    }

    #[test]
    fn mixed_word_decode_matches_oracle_across_escape_densities() {
        // Force bitmap words of every flavour — all-ones (vector path),
        // all-zero (exact copy), mixed (lane scatter) — across
        // lane-boundary lengths, over 3-hop chains, and hold every
        // prefix of the fused replay to the sequential oracle applied
        // hop by hop, bit for bit.
        let cfg = Config::new(8, 0.001, Strategy::Clustering).unwrap();
        for n in [1usize, 63, 64, 65, 127, 128, 1023, 1024, 1025, 4097, 9000] {
            for escape_period in [0usize, 2, 7, 64, 129] {
                let mut states: Vec<Vec<f64>> = vec![(0..n)
                    .map(|i| {
                        if escape_period != 0 && i % escape_period == 0 {
                            0.0 // prev == 0 -> escaped
                        } else {
                            1.0 + (i % 19) as f64
                        }
                    })
                    .collect()];
                for step in 1..=3usize {
                    let next: Vec<f64> = states[step - 1]
                        .iter()
                        .enumerate()
                        .map(|(i, &v)| {
                            if escape_period != 0 && (i + step) % escape_period == 0 {
                                0.0
                            } else if v == 0.0 {
                                4.25
                            } else {
                                v * (1.0 + 0.01 * (((i + step) % 6) as f64))
                            }
                        })
                        .collect();
                    states.push(next);
                }
                let blocks: Vec<CompressedIteration> =
                    states.windows(2).map(|w| encode(&w[0], &w[1], &cfg).unwrap().0).collect();
                let refs: Vec<BlockRef<'_>> = blocks.iter().map(|b| b.block_ref()).collect();
                let mut oracle = states[0].clone();
                for hops in 1..=refs.len() {
                    oracle = reconstruct_seq_ref(&oracle, &refs[hops - 1]).unwrap();
                    let fused = replay(&states[0], &refs[..hops]).unwrap();
                    let fb: Vec<u64> = fused.iter().map(|v| v.to_bits()).collect();
                    let ob: Vec<u64> = oracle.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(fb, ob, "n={n} escape_period={escape_period} hops={hops}");
                }
            }
        }
    }

    #[test]
    fn replay_records_one_decode_sample_per_hop() {
        let n = 5000;
        let prev: Vec<f64> = (0..n).map(|i| 1.0 + (i % 13) as f64).collect();
        let cfg = Config::new(8, 0.001, Strategy::Clustering).unwrap();
        let curr: Vec<f64> = prev.iter().map(|v| v * 1.01).collect();
        let (block, _) = encode(&prev, &curr, &cfg).unwrap();
        let hops = vec![block.block_ref(); 6];
        // Other tests decode concurrently into the same registry
        // histogram; the run is repeated until no other decode
        // interleaved.
        for _ in 0..100 {
            let (count0, sum0) = (crate::obs::decode_ns().count(), crate::obs::decode_ns().sum());
            let decodes0 = crate::obs::decodes_total().get();
            let t0 = std::time::Instant::now();
            replay(&prev, &hops).unwrap();
            let wall = t0.elapsed().as_nanos() as u64;
            let (count1, sum1) = (crate::obs::decode_ns().count(), crate::obs::decode_ns().sum());
            // This replay's 6 decodes and 6 samples always land in the
            // window; exactly 6 of each means nothing else did.
            if crate::obs::decodes_total().get() - decodes0 != 6 || count1 - count0 != 6 {
                continue;
            }
            assert!(sum1 - sum0 <= wall, "recorded {} ns > wall {wall} ns", sum1 - sum0);
            assert!(sum1 > sum0, "replay time was recorded");
            return;
        }
        panic!("every replay overlapped another decode");
    }

    #[test]
    fn empty_block() {
        let cfg = Config::new(8, 0.001, Strategy::Clustering).unwrap();
        let (block, _) = encode(&[], &[], &cfg).unwrap();
        assert!(reconstruct(&[], &block).unwrap().is_empty());
    }

    #[test]
    fn length_mismatch_rejected() {
        let cfg = Config::new(8, 0.001, Strategy::Clustering).unwrap();
        let (block, _) = encode(&[1.0, 2.0], &[1.0, 2.0], &cfg).unwrap();
        assert!(matches!(
            reconstruct(&[1.0], &block),
            Err(NumarckError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn corrupt_bitmap_detected() {
        let cfg = Config::new(8, 0.001, Strategy::Clustering).unwrap();
        let prev = vec![1.0; 100];
        let curr: Vec<f64> = (0..100).map(|i| 1.0 + 0.01 * (i % 3) as f64).collect();
        let (mut block, _) = encode(&prev, &curr, &cfg).unwrap();
        block.bitmap[0] ^= 1; // flip one compressibility bit
        assert!(matches!(reconstruct(&prev, &block), Err(NumarckError::Corrupt(_))));
    }

    #[test]
    fn chain_reconstruction_accumulates_bounded_error() {
        // Apply 5 compressed deltas in sequence starting from the exact
        // base; relative error compounds roughly additively (paper §II-D).
        let n = 2000;
        let steps = 5usize;
        let tol = 0.001;
        let cfg = Config::new(8, tol, Strategy::Clustering).unwrap();
        let mut truth: Vec<Vec<f64>> = vec![(0..n).map(|i| 1.0 + (i % 97) as f64).collect()];
        for s in 1..=steps {
            let prev = truth.last().unwrap();
            let next: Vec<f64> = prev
                .iter()
                .enumerate()
                .map(|(i, v)| v * (1.0 + 0.003 * (((i + s) % 7) as f64 - 3.0) / 3.0))
                .collect();
            truth.push(next);
        }
        let mut reconstructed = truth[0].clone();
        for s in 1..=steps {
            let (block, _) = encode(&truth[s - 1], &truth[s], &cfg).unwrap();
            reconstructed = reconstruct(&reconstructed, &block).unwrap();
        }
        let budget = (1.0 + tol).powi(steps as i32) - 1.0 + 1e-9;
        for (r, t) in reconstructed.iter().zip(&truth[steps]) {
            let rel = ((r - t) / t).abs();
            assert!(rel <= budget, "rel {rel} > budget {budget}");
        }
    }

    mod properties {
        use super::*;
        use numarck_par::pool::with_threads;
        use numarck_par::rng::Xoshiro256PlusPlus;
        use numarck_prop::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn roundtrip_error_bounded(
                prev in numarck_prop::collection::vec(0.5f64..50.0, 1..400),
                rates in numarck_prop::collection::vec(-0.3f64..0.3, 1..400),
                bits in 3u8..10
            ) {
                let n = prev.len().min(rates.len());
                let prev = &prev[..n];
                let curr: Vec<f64> = (0..n).map(|i| prev[i] * (1.0 + rates[i])).collect();
                for s in crate::strategy::Strategy::all() {
                    let cfg = Config::new(bits, 0.005, s).unwrap();
                    let (block, _) = encode(prev, &curr, &cfg).unwrap();
                    let rp = reconstruct(prev, &block).unwrap();
                    let rs = reconstruct_seq(prev, &block).unwrap();
                    prop_assert_eq!(&rp, &rs);
                    for (i, (r, c)) in rp.iter().zip(&curr).enumerate() {
                        // The guarantee is on the change ratio:
                        // |Δ' − Δ| ≤ E. In value space that is
                        // |r − c| ≤ E · |prev|, i.e. a relative error of
                        // E · |prev/curr| w.r.t. the current value.
                        let bound = 0.005 * (prev[i] / c).abs() + 1e-12;
                        prop_assert!(
                            ((r - c) / c).abs() <= bound,
                            "rel {} > bound {bound}",
                            ((r - c) / c).abs()
                        );
                    }
                }
            }
        }

        /// One random hop: (bits, table, packed sections).
        type Hop = (u8, Vec<f64>, crate::encode::PackedSections);

        /// A base or exact value: mostly ordinary, with NaN payloads and
        /// both signed zeros mixed in.
        fn odd_value(rng: &mut Xoshiro256PlusPlus) -> f64 {
            match rng.below(20) {
                0 => f64::from_bits(0x7ff8_0000_0000_0000 | (rng.next_u64() >> 13)),
                1 => -0.0,
                2 => 0.0,
                _ => rng.uniform(-100.0, 100.0),
            }
        }

        /// A hop over `n` points with a random width and table, whose
        /// points escape with probability `escape`.
        fn random_hop(rng: &mut Xoshiro256PlusPlus, n: usize, escape: f64) -> Hop {
            let bits = 2 + rng.below(9) as u8;
            let table_len = 1 + rng.below((1usize << bits) - 2);
            let mut table: Vec<f64> = (0..table_len).map(|_| rng.uniform(-0.5, 0.5)).collect();
            table.sort_by(f64::total_cmp);
            let codes: Vec<u32> = (0..n)
                .map(|_| {
                    if rng.next_f64() < escape {
                        crate::encode::ESCAPE
                    } else {
                        rng.below(table_len + 1) as u32
                    }
                })
                .collect();
            let exacts: Vec<f64> = (0..n).map(|_| odd_value(rng)).collect();
            (bits, table, crate::encode::pack_codes_serial(&codes, &exacts, bits))
        }

        /// `h` as a block over `n` points.
        fn hop_ref(h: &Hop, n: usize) -> BlockRef<'_> {
            BlockRef {
                bits: h.0,
                num_points: n,
                num_compressible: h.2.num_compressible,
                table: &h.1,
                bitmap: &h.2.bitmap,
                index_words: &h.2.index_words,
                exact_values: &h.2.exact_values,
            }
        }

        const ESCAPE_RATES: [f64; 4] = [0.0, 0.05, 0.3, 1.0];

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(40))]

            #[test]
            fn replay_is_bit_identical_to_hop_by_hop_oracle(
                n in 1usize..20_000,
                nhops in 0usize..17,
                rate in 0usize..4,
                seed in any::<u64>()
            ) {
                let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
                let base: Vec<f64> = (0..n).map(|_| odd_value(&mut rng)).collect();
                let hops: Vec<Hop> =
                    (0..nhops).map(|_| random_hop(&mut rng, n, ESCAPE_RATES[rate])).collect();
                let refs: Vec<BlockRef<'_>> = hops.iter().map(|h| hop_ref(h, n)).collect();
                let mut oracle = base.clone();
                for r in &refs {
                    oracle = reconstruct_seq_ref(&oracle, r).unwrap();
                }
                let want: Vec<u64> = oracle.iter().map(|v| v.to_bits()).collect();
                for level in Level::all_supported() {
                    for threads in [1usize, 2, 8] {
                        let got = with_threads(threads, || replay_with(level, &base, &refs)).unwrap();
                        let got: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
                        prop_assert!(
                            got == want,
                            "n={n} hops={nhops} escape={} level={} threads={threads}",
                            ESCAPE_RATES[rate],
                            level.name()
                        );
                    }
                }
            }

            #[test]
            fn malformed_hop_is_an_error_at_every_level(
                n in 1usize..12_000,
                nhops in 1usize..7,
                bad_at in 0usize..7,
                kind in 0usize..3,
                seed in any::<u64>()
            ) {
                let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
                let base: Vec<f64> = (0..n).map(|_| odd_value(&mut rng)).collect();
                let bad_at = bad_at % nhops;
                let mut hops: Vec<Hop> = Vec::new();
                let mut lens = vec![n; nhops];
                for k in 0..nhops {
                    let hop = if k != bad_at {
                        random_hop(&mut rng, n, 0.3)
                    } else {
                        match kind {
                            // Codes up to one past the table: the top
                            // code is forced in at a random point.
                            0 => {
                                let mut hop = random_hop(&mut rng, n, 0.3);
                                let top = hop.1.len() as u32 + 1;
                                let j = rng.below(n);
                                let mut codes: Vec<u32> = (0..n)
                                    .map(|i| {
                                        if (hop.2.bitmap[i / 64] >> (i % 64)) & 1 == 1 {
                                            1
                                        } else {
                                            crate::encode::ESCAPE
                                        }
                                    })
                                    .collect();
                                codes[j] = top;
                                let exacts: Vec<f64> = (0..n).map(|_| 1.0).collect();
                                hop.2 = crate::encode::pack_codes_serial(&codes, &exacts, hop.0);
                                hop
                            }
                            // A bitmap whose population disagrees with
                            // the header.
                            1 => {
                                let mut hop = random_hop(&mut rng, n, 0.3);
                                let j = rng.below(n);
                                hop.2.bitmap[j / 64] ^= 1 << (j % 64);
                                hop
                            }
                            // A hop over a different number of points.
                            _ => {
                                lens[k] = n + 1 + rng.below(70);
                                random_hop(&mut rng, lens[k], 0.3)
                            }
                        }
                    };
                    hops.push(hop);
                }
                let refs: Vec<BlockRef<'_>> = hops
                    .iter()
                    .zip(&lens)
                    .map(|(h, &len)| hop_ref(h, len))
                    .collect();
                for level in Level::all_supported() {
                    for threads in [1usize, 2, 8] {
                        let got = with_threads(threads, || replay_with(level, &base, &refs));
                        let ok = matches!(
                            (kind, &got),
                            (0 | 1, Err(NumarckError::Corrupt(_)))
                                | (2, Err(NumarckError::LengthMismatch { .. }))
                        );
                        prop_assert!(
                            ok,
                            "kind {kind} at hop {bad_at}/{nhops}, n={n}, level={} threads={threads}: {:?}",
                            level.name(),
                            got.map(|v| v.len())
                        );
                    }
                }
            }
        }
    }
}
