//! The representative-ratio table (the paper's "index table of size
//! `2^B`").
//!
//! Every approximation strategy reduces to the same artefact: a sorted set
//! of at most `2^B − 1` representative change ratios. A point's index is
//! the nearest representative; index 0 is reserved by the encoder for
//! "change below tolerance", so table entry `t` is addressed by the stored
//! index `t + 1`.
//!
//! Assignment is a single `partition_point` binary search over the sorted
//! representatives followed by a branchless pick between the two
//! enclosing neighbours (ties at bin midpoints resolve to the lower
//! index, matching [`numarck_kmeans::lloyd1d::SortedCenters`]): for the
//! equal-width and log-scale strategies, nearest-representative assignment
//! dominates (never loses to) the "containing bin" rule the paper
//! describes, while keeping all three strategies on one encoder path.

use numarck_kmeans::lloyd1d::SortedCenters;

/// A learned table of representative change ratios.
#[derive(Debug, Clone, PartialEq)]
pub struct BinTable {
    centers: SortedCenters,
}

impl BinTable {
    /// Build from representative ratios (sorted/deduplicated internally).
    ///
    /// # Panics
    /// Panics if any representative is non-finite.
    pub fn new(representatives: Vec<f64>) -> Self {
        Self { centers: SortedCenters::new(representatives) }
    }

    /// The sorted representatives.
    #[inline]
    pub fn representatives(&self) -> &[f64] {
        self.centers.centers()
    }

    /// Number of representatives.
    #[inline]
    pub fn len(&self) -> usize {
        self.centers.len()
    }

    /// True when the table is empty (no large changes existed).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.centers.is_empty()
    }

    /// Index of the representative nearest to `ratio`, or `None` for an
    /// empty table.
    #[inline]
    pub fn nearest(&self, ratio: f64) -> Option<usize> {
        self.quantize(ratio).map(|(idx, _, _)| idx)
    }

    /// Nearest representative and its approximation error, or `None` for
    /// an empty table.
    ///
    /// This is the encoder's per-point hot path: one `partition_point`
    /// over the representatives, then a branchless pick between the two
    /// enclosing neighbours. A ratio exactly at the midpoint of two
    /// representatives resolves to the lower index.
    #[inline]
    pub fn quantize(&self, ratio: f64) -> Option<(usize, f64, f64)> {
        let reps = self.centers.centers();
        if reps.is_empty() {
            return None;
        }
        let pp = reps.partition_point(|&r| r < ratio);
        let lo = pp.saturating_sub(1);
        let hi = pp.min(reps.len() - 1);
        // Ties (d_hi == d_lo) keep the lower index; ends clamp because
        // lo == hi there.
        let idx = lo + usize::from((reps[hi] - ratio).abs() < (ratio - reps[lo]).abs()) * (hi - lo);
        let rep = reps[idx];
        Some((idx, rep, (rep - ratio).abs()))
    }

    /// Representative at `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is out of range.
    #[inline]
    pub fn representative(&self, idx: usize) -> f64 {
        self.centers.centers()[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_returns_nearest_and_error() {
        let t = BinTable::new(vec![-0.1, 0.0, 0.1]);
        let (idx, rep, err) = t.quantize(0.08).unwrap();
        assert_eq!(idx, 2);
        assert_eq!(rep, 0.1);
        assert!((err - 0.02).abs() < 1e-15);
    }

    #[test]
    fn empty_table_quantizes_nothing() {
        let t = BinTable::new(vec![]);
        assert!(t.is_empty());
        assert_eq!(t.nearest(0.5), None);
        assert_eq!(t.quantize(0.5), None);
    }

    #[test]
    fn representatives_are_sorted_unique() {
        let t = BinTable::new(vec![0.3, -0.2, 0.3, 0.0]);
        assert_eq!(t.representatives(), &[-0.2, 0.0, 0.3]);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn extreme_ratios_clamp_to_end_representatives() {
        let t = BinTable::new(vec![-0.5, 0.5]);
        assert_eq!(t.nearest(-100.0), Some(0));
        assert_eq!(t.nearest(100.0), Some(1));
    }

    #[test]
    fn midpoint_ties_resolve_to_the_lower_index() {
        // 2.0 is exactly halfway between 1.0 and 3.0: the lower
        // representative wins, as it does in the K-means fit.
        let t = BinTable::new(vec![1.0, 3.0]);
        let (idx, rep, err) = t.quantize(2.0).unwrap();
        assert_eq!(idx, 0);
        assert_eq!(rep, 1.0);
        assert_eq!(err, 1.0);
        // Same at interior midpoints of a longer table, including
        // negative ones (dyadic values so the midpoints are exact in
        // binary floating point).
        let t = BinTable::new(vec![-0.5, -0.25, 0.25, 0.75]);
        assert_eq!(t.nearest(-0.375), Some(0));
        assert_eq!(t.nearest(0.0), Some(1));
        assert_eq!(t.nearest(0.5), Some(2));
        // A nudge above the midpoint flips to the upper neighbour.
        assert_eq!(t.nearest(0.5 + 1e-9), Some(3));
    }

    #[test]
    fn quantize_matches_linear_scan() {
        let reps = vec![-3.0, -1.0, 0.5, 2.0, 8.0, 8.5];
        let t = BinTable::new(reps.clone());
        for i in -100..200 {
            let x = i as f64 * 0.1;
            let (idx, rep, err) = t.quantize(x).unwrap();
            // Linear scan with ties to the lower index.
            let mut best = 0;
            for (j, &r) in reps.iter().enumerate() {
                if (r - x).abs() < (reps[best] - x).abs() {
                    best = j;
                }
            }
            assert_eq!(idx, best, "x = {x}");
            assert_eq!(rep, reps[best]);
            assert!((err - (reps[best] - x).abs()).abs() < 1e-15);
        }
    }
}
