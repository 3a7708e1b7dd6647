//! Prefix sums over per-chunk tallies.
//!
//! Both scans here run over one entry per parallel chunk or block, not
//! one per point, so the scan itself is sequential; the per-block counts
//! that feed it are gathered in parallel where they are expensive.
//!
//! * [`chunked_popcount_ranks`] — the decoder's bitmap rank index: the
//!   number of compressible points before each decode block, per hop.
//! * [`exclusive_scan_pairs`] — the encoder's placement offsets: each
//!   chunk's start rank in the packed index stream and the exact-value
//!   array.

use crate::chunk::chunk_ranges;
use crate::pool::par_map;

/// Exclusive prefix popcount at block granularity over several bitmaps
/// of one length: `ranks[c * m + b]` = set bits of bitmap `b` (of `m`)
/// in words `0..c*words_per_block`, and `totals[b]` = all of bitmap
/// `b`'s set bits. This is the decoder's rank index when it decodes one
/// block of points per parallel task through a chain of `m` hops — it
/// needs only each hop's rank at each block start (O(blocks × hops)
/// memory), not at every word. One parallel sweep counts every bitmap's
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
/// independently. The encoder feeds it per-chunk `(num_compressible,
/// num_escaped)` counts; the result gives every chunk its exact start
/// rank in the bit-packed index stream and in the escaped exact-value
/// array. Sequential on purpose: the input has one entry per parallel
/// chunk, so its length is O(threads), not O(points).
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

    /// Per-word reference rank index: `ranks[w]` = set bits in words
    /// `0..w`, plus the total.
    fn word_ranks(bitmap: &[u64]) -> (Vec<u64>, u64) {
        let mut ranks = Vec::with_capacity(bitmap.len());
        let mut acc = 0u64;
        for w in bitmap {
            ranks.push(acc);
            acc += u64::from(w.count_ones());
        }
        (ranks, acc)
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
                let (ranks, total) = word_ranks(bitmap);
                assert_eq!(totals[b], total, "wpb={wpb} bitmap={b}");
                for (c, r) in block_ranks.chunks(views.len()).enumerate() {
                    assert_eq!(r[b], ranks[c * wpb], "wpb={wpb} block={c} bitmap={b}");
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
}
