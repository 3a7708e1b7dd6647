//! Parallel fixed-bin histograms.
//!
//! The histogram-seeded K-means initialisation (paper §II-C) and the
//! anomaly detector's quantile bracketing both need a histogram over
//! millions of change ratios. Each worker fills a private count vector
//! over its chunk; the partials are merged bin-wise at the end, so there
//! is no shared mutable state and the result is independent of
//! scheduling.


use crate::chunk::chunk_size_for;
use crate::pool::par_map;

/// Describes a uniform binning of the closed interval `[lo, hi]` into
/// `bins` equal-width bins.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSpec {
    /// Inclusive lower edge of the first bin.
    pub lo: f64,
    /// Inclusive upper edge of the last bin.
    pub hi: f64,
    /// Number of bins (>= 1).
    pub bins: usize,
}

impl HistogramSpec {
    /// Create a spec; panics on invalid arguments (`bins == 0`, non-finite
    /// edges, or `hi < lo`). A degenerate `lo == hi` interval is allowed and
    /// maps everything to bin 0.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins >= 1, "histogram needs at least one bin");
        assert!(lo.is_finite() && hi.is_finite(), "histogram edges must be finite");
        assert!(hi >= lo, "histogram hi must be >= lo");
        Self { lo, hi, bins }
    }

    /// Width of each bin (0 for a degenerate interval).
    #[inline]
    pub fn width(&self) -> f64 {
        (self.hi - self.lo) / self.bins as f64
    }

    /// Bin index for `x`, or `None` when `x` lies outside `[lo, hi]` or is
    /// NaN. The upper edge is inclusive (last bin is closed).
    #[inline]
    pub fn bin_of(&self, x: f64) -> Option<usize> {
        if x.is_nan() || x < self.lo || x > self.hi {
            return None;
        }
        if self.hi == self.lo {
            return Some(0);
        }
        let t = (x - self.lo) / (self.hi - self.lo);
        let idx = (t * self.bins as f64) as usize;
        Some(idx.min(self.bins - 1))
    }

    /// Centre of bin `i`.
    #[inline]
    pub fn center(&self, i: usize) -> f64 {
        debug_assert!(i < self.bins);
        self.lo + (i as f64 + 0.5) * self.width()
    }

    /// Lower edge of bin `i`.
    #[inline]
    pub fn edge(&self, i: usize) -> f64 {
        self.lo + i as f64 * self.width()
    }
}

/// A filled histogram: the spec plus per-bin counts and the number of
/// out-of-range (or NaN) values encountered. Fill it with
/// [`FixedHistogram::fill_par`]; [`FixedHistogram::fill_seq`] is the
/// per-chunk fill and the test oracle.
#[derive(Debug, Clone, PartialEq)]
pub struct FixedHistogram {
    /// The binning this histogram was filled with.
    pub spec: HistogramSpec,
    /// Count per bin.
    pub counts: Vec<u64>,
    /// Values that fell outside `[lo, hi]` or were NaN.
    pub out_of_range: u64,
}

impl FixedHistogram {
    /// Empty histogram for `spec`.
    pub fn empty(spec: HistogramSpec) -> Self {
        Self { spec, counts: vec![0; spec.bins], out_of_range: 0 }
    }

    /// Fold one value in.
    #[inline]
    pub fn add(&mut self, x: f64) {
        match self.spec.bin_of(x) {
            Some(i) => self.counts[i] += 1,
            None => self.out_of_range += 1,
        }
    }

    /// Merge another histogram filled with the same spec.
    pub fn merge(&mut self, other: &FixedHistogram) {
        assert_eq!(self.spec, other.spec, "cannot merge histograms with different specs");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.out_of_range += other.out_of_range;
    }

    /// Total in-range count.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Sequential fill (used for small inputs and as a test oracle).
    pub fn fill_seq(spec: HistogramSpec, data: &[f64]) -> Self {
        let mut h = Self::empty(spec);
        for &x in data {
            h.add(x);
        }
        h
    }

    /// Parallel fill: per-chunk private histograms merged bin-wise.
    pub fn fill_par(spec: HistogramSpec, data: &[f64]) -> Self {
        if data.len() < 2 * crate::chunk::MIN_CHUNK {
            return Self::fill_seq(spec, data);
        }
        let chunk = chunk_size_for(data.len());
        let mut total = Self::empty(spec);
        for part in par_map(data.chunks(chunk), |_, c| Self::fill_seq(spec, c)) {
            total.merge(&part);
        }
        total
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> HistogramSpec {
        HistogramSpec::new(0.0, 10.0, 10)
    }

    #[test]
    fn bin_of_interior_points() {
        let s = spec();
        assert_eq!(s.bin_of(0.5), Some(0));
        assert_eq!(s.bin_of(9.99), Some(9));
        assert_eq!(s.bin_of(5.0), Some(5));
    }

    #[test]
    fn bin_of_edges() {
        let s = spec();
        assert_eq!(s.bin_of(0.0), Some(0));
        // Upper edge is closed: 10.0 belongs to the last bin.
        assert_eq!(s.bin_of(10.0), Some(9));
        assert_eq!(s.bin_of(-0.0001), None);
        assert_eq!(s.bin_of(10.0001), None);
        assert_eq!(s.bin_of(f64::NAN), None);
    }

    #[test]
    fn degenerate_interval_maps_to_bin_zero() {
        let s = HistogramSpec::new(3.0, 3.0, 5);
        assert_eq!(s.bin_of(3.0), Some(0));
        assert_eq!(s.bin_of(3.1), None);
        assert_eq!(s.width(), 0.0);
    }

    #[test]
    fn centers_and_edges() {
        let s = spec();
        assert!((s.center(0) - 0.5).abs() < 1e-12);
        assert!((s.center(9) - 9.5).abs() < 1e-12);
        assert!((s.edge(3) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn seq_fill_counts() {
        let data = [0.1, 0.2, 5.5, 9.9, 10.0, -1.0, f64::NAN];
        let h = FixedHistogram::fill_seq(spec(), &data);
        assert_eq!(h.counts[0], 2);
        assert_eq!(h.counts[5], 1);
        assert_eq!(h.counts[9], 2);
        assert_eq!(h.out_of_range, 2);
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn par_fill_matches_seq() {
        let data: Vec<f64> = (0..200_000).map(|i| (i % 1000) as f64 / 100.0).collect();
        let s = spec();
        let hp = FixedHistogram::fill_par(s, &data);
        let hs = FixedHistogram::fill_seq(s, &data);
        assert_eq!(hp, hs);
    }

    #[test]
    fn merge_adds_counts() {
        let s = spec();
        let mut a = FixedHistogram::fill_seq(s, &[1.0, 2.0]);
        let b = FixedHistogram::fill_seq(s, &[1.5, 11.0]);
        a.merge(&b);
        assert_eq!(a.counts[1], 2);
        assert_eq!(a.counts[2], 1);
        assert_eq!(a.out_of_range, 1);
    }

    #[test]
    #[should_panic(expected = "different specs")]
    fn merge_spec_mismatch_panics() {
        let mut a = FixedHistogram::empty(HistogramSpec::new(0.0, 1.0, 2));
        let b = FixedHistogram::empty(HistogramSpec::new(0.0, 2.0, 2));
        a.merge(&b);
    }

    mod properties {
        use super::*;
        use numarck_prop::prelude::*;

        proptest! {
            #[test]
            fn every_finite_value_lands_in_exactly_one_bucket(
                xs in numarck_prop::collection::vec(-1e6f64..1e6, 0..500)
            ) {
                let s = HistogramSpec::new(-1e6, 1e6, 37);
                let h = FixedHistogram::fill_seq(s, &xs);
                prop_assert_eq!(h.total() + h.out_of_range, xs.len() as u64);
                prop_assert_eq!(h.out_of_range, 0);
            }

            #[test]
            fn bin_of_respects_edges(x in -100.0f64..100.0) {
                let s = HistogramSpec::new(-50.0, 50.0, 10);
                match s.bin_of(x) {
                    Some(i) => {
                        prop_assert!(i < s.bins);
                        // x must lie inside (or on the boundary of) bin i.
                        let lo = s.edge(i);
                        let hi = s.edge(i + 1).max(s.hi);
                        prop_assert!(x >= lo - 1e-9 && x <= hi + 1e-9);
                    }
                    None => prop_assert!(!(-50.0..=50.0).contains(&x)),
                }
            }

            #[test]
            fn par_equals_seq(xs in numarck_prop::collection::vec(-10.0f64..10.0, 0..2000)) {
                let s = HistogramSpec::new(-10.0, 10.0, 16);
                prop_assert_eq!(
                    FixedHistogram::fill_par(s, &xs),
                    FixedHistogram::fill_seq(s, &xs)
                );
            }
        }
    }
}
