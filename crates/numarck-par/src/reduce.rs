//! Deterministic parallel reductions over `f64` slices.
//!
//! Floating-point addition is not associative, so a naive parallel sum gives
//! run-to-run different results depending on how the work was stolen. The
//! reductions here fix the chunk decomposition up front (see
//! [`crate::chunk`]) and combine per-chunk partials in chunk order, so a
//! given input and thread-count always produces the same bits. Per-chunk
//! sums use Neumaier's compensated summation, which keeps the error of the
//! change-ratio statistics well below the 0.1% tolerances NUMARCK works at.

use crate::chunk::{chunk_size_for, chunk_ranges};
use crate::pool::par_map;

/// Neumaier (improved Kahan) compensated accumulator.
#[derive(Debug, Clone, Copy, Default)]
pub struct Neumaier {
    sum: f64,
    comp: f64,
}

impl Neumaier {
    /// Fresh accumulator at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one term.
    #[inline]
    pub fn add(&mut self, x: f64) {
        let t = self.sum + x;
        if self.sum.abs() >= x.abs() {
            self.comp += (self.sum - t) + x;
        } else {
            self.comp += (x - t) + self.sum;
        }
        self.sum = t;
    }

    /// Merge another accumulator into this one.
    #[inline]
    pub fn merge(&mut self, other: &Neumaier) {
        self.add(other.sum);
        self.comp += other.comp;
    }

    /// Final compensated value.
    #[inline]
    pub fn value(&self) -> f64 {
        self.sum + self.comp
    }
}

/// Minimum and maximum of a slice, ignoring NaNs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MinMax {
    /// Smallest non-NaN value seen (`f64::INFINITY` if none).
    pub min: f64,
    /// Largest non-NaN value seen (`f64::NEG_INFINITY` if none).
    pub max: f64,
    /// Number of non-NaN values.
    pub count: usize,
}

impl MinMax {
    /// Identity element for the min/max reduction.
    pub fn empty() -> Self {
        Self { min: f64::INFINITY, max: f64::NEG_INFINITY, count: 0 }
    }

    /// Fold one value in.
    #[inline]
    pub fn add(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        self.count += 1;
    }

    /// Combine two partial results.
    #[inline]
    pub fn merge(&self, other: &MinMax) -> MinMax {
        MinMax {
            min: self.min.min(other.min),
            max: self.max.max(other.max),
            count: self.count + other.count,
        }
    }

    /// `max - min`; zero for empty input.
    pub fn range(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max - self.min
        }
    }
}

/// Parallel NaN-ignoring min/max.
pub fn par_min_max(data: &[f64]) -> MinMax {
    if data.is_empty() {
        return MinMax::empty();
    }
    let chunk = chunk_size_for(data.len());
    par_map(data.chunks(chunk), |_, c| {
        let mut mm = MinMax::empty();
        for &x in c {
            mm.add(x);
        }
        mm
    })
    .iter()
    .fold(MinMax::empty(), |a, b| a.merge(b))
}

/// First and second moments (compensated), plus extrema of `|x|`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Moments {
    /// Number of values folded in.
    pub count: usize,
    sum: Neumaier,
    sum_sq: Neumaier,
    /// Largest absolute value.
    pub max_abs: f64,
}

impl Moments {
    /// Identity element.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Fold one value in.
    #[inline]
    pub fn add(&mut self, x: f64) {
        self.count += 1;
        self.sum.add(x);
        self.sum_sq.add(x * x);
        let a = x.abs();
        if a > self.max_abs {
            self.max_abs = a;
        }
    }

    /// Combine two partials (chunk-ordered merge keeps determinism).
    pub fn merge(&mut self, other: &Moments) {
        self.count += other.count;
        self.sum.merge(&other.sum);
        self.sum_sq.merge(&other.sum_sq);
        self.max_abs = self.max_abs.max(other.max_abs);
    }

    /// Arithmetic mean (0 for empty input).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum.value() / self.count as f64
        }
    }

    /// Population variance (0 for empty input). Clamped at zero to absorb
    /// rounding when all values are identical.
    pub fn variance(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let n = self.count as f64;
        let m = self.mean();
        (self.sum_sq.value() / n - m * m).max(0.0)
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

/// Parallel moment accumulation over a slice.
pub fn par_moments(data: &[f64]) -> Moments {
    if data.is_empty() {
        return Moments::empty();
    }
    let chunk = chunk_size_for(data.len());
    let partials: Vec<Moments> = par_map(data.chunks(chunk), |_, c| {
        let mut m = Moments::empty();
        for &x in c {
            m.add(x);
        }
        m
    });
    let mut total = Moments::empty();
    for p in &partials {
        total.merge(p);
    }
    total
}

/// Parallel dot-product-style reduction of two equal-length slices with a
/// per-element map. Used for RMSE / Pearson accumulations in the metrics
/// module. Panics if lengths differ.
pub fn par_zip_sum(a: &[f64], b: &[f64], f: impl Fn(f64, f64) -> f64 + Sync) -> f64 {
    assert_eq!(a.len(), b.len(), "par_zip_sum requires equal-length slices");
    if a.is_empty() {
        return 0.0;
    }
    let chunk = chunk_size_for(a.len());
    let partials: Vec<Neumaier> = par_map(chunk_ranges(a.len(), chunk), |_, (s, e)| {
        let mut acc = Neumaier::new();
        for i in s..e {
            acc.add(f(a[i], b[i]));
        }
        acc
    });
    let mut total = Neumaier::new();
    for p in &partials {
        total.merge(p);
    }
    total.value()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neumaier_beats_naive_on_cancellation() {
        // 1 + 1e100 + 1 - 1e100 == 2 exactly under Neumaier, 0 naively.
        let data = [1.0, 1e100, 1.0, -1e100];
        let mut acc = Neumaier::new();
        for x in data {
            acc.add(x);
        }
        assert_eq!(acc.value(), 2.0);
        let naive: f64 = data.iter().sum();
        assert_eq!(naive, 0.0);
    }

    #[test]
    fn min_max_ignores_nan() {
        let data = [3.0, f64::NAN, -1.0, 7.5, f64::NAN];
        let mm = par_min_max(&data);
        assert_eq!(mm.min, -1.0);
        assert_eq!(mm.max, 7.5);
        assert_eq!(mm.count, 3);
    }

    #[test]
    fn min_max_empty() {
        let mm = par_min_max(&[]);
        assert_eq!(mm.count, 0);
        assert_eq!(mm.range(), 0.0);
    }

    #[test]
    fn moments_mean_variance() {
        let data: Vec<f64> = (1..=5).map(|i| i as f64).collect();
        let m = par_moments(&data);
        assert_eq!(m.count, 5);
        assert!((m.mean() - 3.0).abs() < 1e-12);
        assert!((m.variance() - 2.0).abs() < 1e-12);
        assert_eq!(m.max_abs, 5.0);
    }

    #[test]
    fn moments_constant_data_zero_variance() {
        let data = vec![4.25; 10_000];
        let m = par_moments(&data);
        assert_eq!(m.variance(), 0.0);
        assert_eq!(m.mean(), 4.25);
    }

    #[test]
    fn zip_sum_squared_diff() {
        let a = [1.0, 2.0, 3.0];
        let b = [1.0, 0.0, 6.0];
        let s = par_zip_sum(&a, &b, |x, y| (x - y) * (x - y));
        assert!((s - (0.0 + 4.0 + 9.0)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn zip_sum_length_mismatch_panics() {
        par_zip_sum(&[1.0], &[1.0, 2.0], |x, y| x + y);
    }
}
