//! Parallel prefix sums (scans).
//!
//! The decoder needs, for every 64-point bitmap word, the number of
//! compressible points before it — an exclusive prefix sum of popcounts.
//! For the multi-million-word bitmaps of large checkpoint variables the
//! classic two-pass blocked scan (per-block sums, scan the block sums
//! sequentially, then offset each block in parallel) is worthwhile;
//! below the threshold a simple sequential scan wins.

use crate::chunk::{chunk_ranges, chunk_size_for};
use crate::pool::{par_for_each, par_map};

/// Minimum length for the parallel path (two passes over the data must
/// beat one sequential pass).
pub const PAR_THRESHOLD: usize = 1 << 16;

/// Sequential exclusive prefix sum: `out[i] = Σ_{j<i} f(in[j])`.
/// Returns the vector and the grand total.
pub fn exclusive_scan_seq<T, F>(input: &[T], f: F) -> (Vec<u64>, u64)
where
    F: Fn(&T) -> u64,
{
    let mut out = Vec::with_capacity(input.len());
    let mut acc = 0u64;
    for x in input {
        out.push(acc);
        acc += f(x);
    }
    (out, acc)
}

/// Parallel exclusive prefix sum with the same contract as
/// [`exclusive_scan_seq`]. `f` must be pure.
pub fn exclusive_scan<T, F>(input: &[T], f: F) -> (Vec<u64>, u64)
where
    T: Sync,
    F: Fn(&T) -> u64 + Sync,
{
    if input.len() < PAR_THRESHOLD {
        return exclusive_scan_seq(input, f);
    }
    let chunk = chunk_size_for(input.len());
    let ranges: Vec<(usize, usize)> = chunk_ranges(input.len(), chunk).collect();
    // Pass 1: per-block totals.
    let block_sums: Vec<u64> = par_map(&ranges, |_, &(s, e)| input[s..e].iter().map(&f).sum());
    // Scan the (few) block sums sequentially.
    let (block_offsets, total) = exclusive_scan_seq(&block_sums, |&x| x);
    // Pass 2: per-block local scans shifted by the block offset.
    let mut out = vec![0u64; input.len()];
    let windows = out.chunks_mut(chunk).zip(&ranges).zip(&block_offsets);
    par_for_each(windows, |_, ((o, &(s, e)), &offset)| {
        let mut acc = offset;
        for (slot, x) in o.iter_mut().zip(&input[s..e]) {
            *slot = acc;
            acc += f(x);
        }
    });
    (out, total)
}

/// Exclusive prefix popcount over bitmap words — the decoder's rank
/// index: `rank[w]` = set bits in words `0..w`.
pub fn popcount_ranks(bitmap: &[u64]) -> (Vec<u64>, u64) {
    exclusive_scan(bitmap, |w| w.count_ones() as u64)
}

/// Exclusive prefix popcount at block granularity over several bitmaps
/// of one length: `ranks[c * m + b]` = set bits of bitmap `b` (of `m`)
/// in words `0..c*words_per_block`, and `totals[b]` = all of bitmap
/// `b`'s set bits. This is the decoder's rank index when it decodes one
/// block of points per parallel task through a chain of `m` hops — it
/// needs only each hop's rank at each block start (O(blocks × hops)
/// memory), not at every word (O(words) memory like
/// [`popcount_ranks`]). One parallel sweep counts every bitmap's
/// blocks; the scan over the (few) block sums is sequential.
///
/// # Panics
/// Panics if a bitmap is shorter than the first.
pub fn chunked_popcount_ranks(bitmaps: &[&[u64]], words_per_block: usize) -> (Vec<u64>, Vec<u64>) {
    let words = bitmaps.first().map_or(0, |b| b.len());
    let sums: Vec<Vec<u64>> = par_map(chunk_ranges(words, words_per_block), |_, (s, e)| {
        bitmaps.iter().map(|b| numarck_simd::popcount::popcount_sum(&b[s..e])).collect()
    });
    let mut ranks = Vec::with_capacity(sums.len() * bitmaps.len());
    let mut totals = vec![0u64; bitmaps.len()];
    for block in &sums {
        for (total, &c) in totals.iter_mut().zip(block) {
            ranks.push(*total);
            *total += c;
        }
    }
    (ranks, totals)
}

/// Exclusive scan over `(u64, u64)` tally pairs, scanning both components
/// independently. The encoder's rank-partitioned packer feeds it per-chunk
/// `(num_compressible, num_escaped)` counts; the result gives every chunk
/// its exact start rank in the bit-packed index stream and in the escaped
/// exact-value array. Sequential on purpose: the input has one entry per
/// parallel chunk, so its length is O(threads), not O(points).
pub fn exclusive_scan_pairs(input: &[(u64, u64)]) -> (Vec<(u64, u64)>, (u64, u64)) {
    let mut out = Vec::with_capacity(input.len());
    let mut acc = (0u64, 0u64);
    for &(a, b) in input {
        out.push(acc);
        acc.0 += a;
        acc.1 += b;
    }
    (out, acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_scan_basic() {
        let (scan, total) = exclusive_scan_seq(&[1u64, 2, 3, 4], |&x| x);
        assert_eq!(scan, vec![0, 1, 3, 6]);
        assert_eq!(total, 10);
    }

    #[test]
    fn empty_scan() {
        let (scan, total) = exclusive_scan::<u64, _>(&[], |&x| x);
        assert!(scan.is_empty());
        assert_eq!(total, 0);
    }

    #[test]
    fn par_matches_seq_across_threshold() {
        let input: Vec<u64> = (0..PAR_THRESHOLD as u64 + 1000).map(|i| i % 7).collect();
        let (par, pt) = exclusive_scan(&input, |&x| x);
        let (seq, st) = exclusive_scan_seq(&input, |&x| x);
        assert_eq!(par, seq);
        assert_eq!(pt, st);
    }

    #[test]
    fn popcount_ranks_hand_checked() {
        let bitmap = [0b1011u64, 0, u64::MAX, 0b1];
        let (ranks, total) = popcount_ranks(&bitmap);
        assert_eq!(ranks, vec![0, 3, 3, 67]);
        assert_eq!(total, 68);
    }

    #[test]
    fn chunked_popcount_ranks_matches_per_word_ranks() {
        let bitmaps: Vec<Vec<u64>> = (1..4u64)
            .map(|k| (0..1000u64).map(|i| (i * k).wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect())
            .collect();
        let views: Vec<&[u64]> = bitmaps.iter().map(Vec::as_slice).collect();
        for wpb in [1usize, 3, 7, 64, 1000, 5000] {
            let (block_ranks, totals) = chunked_popcount_ranks(&views, wpb);
            assert_eq!(block_ranks.len(), 1000usize.div_ceil(wpb) * views.len(), "wpb={wpb}");
            for (b, bitmap) in views.iter().enumerate() {
                let (word_ranks, word_total) = popcount_ranks(bitmap);
                assert_eq!(totals[b], word_total, "wpb={wpb} bitmap={b}");
                for (c, r) in block_ranks.chunks(views.len()).enumerate() {
                    assert_eq!(r[b], word_ranks[c * wpb], "wpb={wpb} block={c} bitmap={b}");
                }
            }
        }
    }

    #[test]
    fn chunked_popcount_ranks_empty_bitmaps() {
        let (ranks, totals) = chunked_popcount_ranks(&[&[], &[]], 64);
        assert!(ranks.is_empty());
        assert_eq!(totals, vec![0, 0]);
        let (ranks, totals) = chunked_popcount_ranks(&[], 64);
        assert!(ranks.is_empty() && totals.is_empty());
    }

    #[test]
    fn pair_scan_scans_components_independently() {
        let input = [(1u64, 10u64), (2, 0), (0, 5), (7, 7)];
        let (scan, total) = exclusive_scan_pairs(&input);
        assert_eq!(scan, vec![(0, 0), (1, 10), (3, 10), (3, 15)]);
        assert_eq!(total, (10, 22));
        let (empty, zero) = exclusive_scan_pairs(&[]);
        assert!(empty.is_empty());
        assert_eq!(zero, (0, 0));
    }

    #[test]
    fn scan_is_deterministic() {
        let input: Vec<u64> = (0..200_000).map(|i| (i * 31) % 13).collect();
        let a = exclusive_scan(&input, |&x| x);
        let b = exclusive_scan(&input, |&x| x);
        assert_eq!(a, b);
    }

    mod properties {
        use super::*;
        use numarck_prop::prelude::*;

        proptest! {
            #[test]
            fn scan_invariant(xs in numarck_prop::collection::vec(0u64..1000, 0..500)) {
                let (scan, total) = exclusive_scan(&xs, |&x| x);
                prop_assert_eq!(scan.len(), xs.len());
                let mut acc = 0u64;
                for (s, x) in scan.iter().zip(&xs) {
                    prop_assert_eq!(*s, acc);
                    acc += x;
                }
                prop_assert_eq!(total, acc);
            }
        }
    }
}
