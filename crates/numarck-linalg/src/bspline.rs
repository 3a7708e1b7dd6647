//! Clamped uniform cubic B-splines: evaluation and least-squares fitting.
//!
//! Both baseline compressors store a data vector as the control points of
//! a cubic B-spline curve over `t ∈ [0, 1]` and reconstruct by sampling
//! the curve back at the original parameter positions. The knot vector is
//! clamped (multiplicity 4 at both ends) and uniform inside, so a curve
//! with `m` control points has knots `[0,0,0,0, 1/(m−3), …, 1,1,1,1]`.
//!
//! Fitting minimises `Σ_i (S(t_i) − y_i)²` with `t_i = i/(n−1)`; since
//! each basis row has 4 non-zeros, the normal equations are symmetric
//! banded with bandwidth 3 and solved by [`crate::banded`] in O(m).

use crate::banded::SymBanded;

/// Minimum number of control points for a cubic curve.
pub const MIN_CONTROL_POINTS: usize = 4;

/// A fitted clamped uniform cubic B-spline.
#[derive(Debug, Clone, PartialEq)]
pub struct CubicBSpline {
    coeffs: Vec<f64>,
}

/// Why a fit failed.
#[derive(Debug, Clone, PartialEq)]
pub enum FitError {
    /// Fewer than [`MIN_CONTROL_POINTS`] control points requested.
    TooFewControlPoints(usize),
    /// The data vector was empty.
    EmptyData,
    /// The (ridge-regularised) normal equations were not positive
    /// definite — should not happen for finite inputs.
    Singular,
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::TooFewControlPoints(m) => {
                write!(f, "cubic B-spline needs >= {MIN_CONTROL_POINTS} control points, got {m}")
            }
            Self::EmptyData => write!(f, "cannot fit a spline to empty data"),
            Self::Singular => write!(f, "normal equations not positive definite"),
        }
    }
}

impl std::error::Error for FitError {}

impl CubicBSpline {
    /// The control points.
    pub fn coeffs(&self) -> &[f64] {
        &self.coeffs
    }

    /// Number of control points `m`.
    pub fn num_coeffs(&self) -> usize {
        self.coeffs.len()
    }

    /// Least-squares fit of `data` sampled at `t_i = i/(n−1)` using `m`
    /// control points.
    pub fn fit(data: &[f64], m: usize) -> Result<Self, FitError> {
        if m < MIN_CONTROL_POINTS {
            return Err(FitError::TooFewControlPoints(m));
        }
        if data.is_empty() {
            return Err(FitError::EmptyData);
        }
        let n = data.len();
        let mut normal = SymBanded::zeros(m, 3);
        let mut rhs = vec![0.0; m];
        for (i, &y) in data.iter().enumerate() {
            let t = param_of(i, n);
            let (span, basis) = basis_at(t, m);
            let first = span - 3;
            for a in 0..4 {
                rhs[first + a] += basis[a] * y;
                for b in a..4 {
                    normal.add(first + b, first + a, basis[a] * basis[b]);
                }
            }
        }
        // Ridge term: keeps the system SPD when m ≳ n leaves some control
        // points under-determined. The shift is far below the fit error
        // scale so it does not bias well-posed fits measurably.
        let max_diag = (0..m).map(|i| normal.get(i, i)).fold(0.0f64, f64::max).max(1.0);
        let ridge = 1e-10 * max_diag;
        for i in 0..m {
            normal.add(i, i, ridge);
        }
        let chol = normal.cholesky().ok_or(FitError::Singular)?;
        Ok(Self { coeffs: chol.solve(&rhs) })
    }

    /// Evaluate the curve at `t ∈ [0, 1]` (clamped outside).
    pub fn eval(&self, t: f64) -> f64 {
        let t = t.clamp(0.0, 1.0);
        let (span, basis) = basis_at(t, self.coeffs.len());
        let first = span - 3;
        let mut v = 0.0;
        for a in 0..4 {
            v += basis[a] * self.coeffs[first + a];
        }
        v
    }

    /// Sample the curve at the `n` original parameter positions —
    /// the decompression step of both baselines.
    pub fn sample(&self, n: usize) -> Vec<f64> {
        (0..n).map(|i| self.eval(param_of(i, n))).collect()
    }
}

/// Parameter of the `i`-th of `n` samples: uniform in `[0, 1]`.
#[inline]
fn param_of(i: usize, n: usize) -> f64 {
    if n <= 1 {
        0.0
    } else {
        i as f64 / (n - 1) as f64
    }
}

/// Knot value at index `k` of the clamped uniform vector for `m` control
/// points (degree 3, `m + 4` knots).
#[inline]
fn knot(k: usize, m: usize) -> f64 {
    let seg = (m - 3) as f64;
    ((k as f64 - 3.0) / seg).clamp(0.0, 1.0)
}

/// Knot span index and the 4 non-zero cubic basis values at `t`.
///
/// Uses the standard Cox–de Boor "basis functions" algorithm (Piegl &
/// Tiller, *The NURBS Book*, A2.2) restricted to degree 3.
fn basis_at(t: f64, m: usize) -> (usize, [f64; 4]) {
    debug_assert!((0.0..=1.0).contains(&t));
    let seg = m - 3;
    // Span k satisfies knot(k) <= t < knot(k+1); clamp to the last
    // non-degenerate span so t = 1 works.
    let span = (3 + ((t * seg as f64) as usize)).min(m - 1);
    let mut left = [0.0f64; 4];
    let mut right = [0.0f64; 4];
    let mut n = [0.0f64; 4];
    n[0] = 1.0;
    for j in 1..=3 {
        left[j] = t - knot(span + 1 - j, m);
        right[j] = knot(span + j, m) - t;
        let mut saved = 0.0;
        for r in 0..j {
            let denom = right[r + 1] + left[j - r];
            let tmp = if denom == 0.0 { 0.0 } else { n[r] / denom };
            n[r] = saved + right[r + 1] * tmp;
            saved = left[j - r] * tmp;
        }
        n[j] = saved;
    }
    (span, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basis_is_a_partition_of_unity() {
        for m in [4usize, 5, 8, 30, 100] {
            for i in 0..=200 {
                let t = i as f64 / 200.0;
                let (span, n) = basis_at(t, m);
                assert!(span >= 3 && span < m, "m={m} t={t} span={span}");
                let sum: f64 = n.iter().sum();
                assert!((sum - 1.0).abs() < 1e-12, "m={m} t={t}: sum {sum}");
                assert!(n.iter().all(|&v| v >= -1e-12), "negative basis at t={t}");
            }
        }
    }

    #[test]
    fn constant_data_fits_exactly() {
        let data = vec![5.5; 100];
        let s = CubicBSpline::fit(&data, 10).unwrap();
        for &c in s.coeffs() {
            assert!((c - 5.5).abs() < 1e-6);
        }
        for v in s.sample(100) {
            assert!((v - 5.5).abs() < 1e-6);
        }
    }

    #[test]
    fn linear_data_reproduced_closely() {
        let data: Vec<f64> = (0..200).map(|i| 3.0 * i as f64 + 1.0).collect();
        let s = CubicBSpline::fit(&data, 20).unwrap();
        for (i, v) in s.sample(200).iter().enumerate() {
            assert!((v - data[i]).abs() < 1e-6, "i={i}: {v} vs {}", data[i]);
        }
    }

    #[test]
    fn cubic_polynomial_is_in_the_span() {
        // A single cubic needs only 4 control points.
        let f = |x: f64| 2.0 * x * x * x - x * x + 0.5 * x - 3.0;
        let n = 50;
        let data: Vec<f64> = (0..n).map(|i| f(i as f64 / (n - 1) as f64)).collect();
        let s = CubicBSpline::fit(&data, 4).unwrap();
        for (i, v) in s.sample(n).iter().enumerate() {
            assert!((v - data[i]).abs() < 1e-8, "i={i}");
        }
    }

    #[test]
    fn more_control_points_fit_better() {
        let n = 400;
        let data: Vec<f64> =
            (0..n).map(|i| (10.0 * std::f64::consts::PI * i as f64 / n as f64).sin()).collect();
        let err = |m: usize| {
            let s = CubicBSpline::fit(&data, m).unwrap();
            s.sample(n)
                .iter()
                .zip(&data)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt()
        };
        let e8 = err(8);
        let e32 = err(32);
        let e128 = err(128);
        assert!(e32 < e8 * 0.5, "e8={e8} e32={e32}");
        assert!(e128 < e32 * 0.5, "e32={e32} e128={e128}");
    }

    #[test]
    fn sorted_data_fits_tightly_with_few_coeffs() {
        // The ISABELA insight: sorted (monotone) data is near-linear and
        // fits with ~30 coefficients regardless of the original entropy.
        let mut data: Vec<f64> = (0..512)
            .map(|i| ((i as f64 * 2654435761.0).sin() * 1000.0).fract() * 50.0)
            .collect();
        data.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let s = CubicBSpline::fit(&data, 30).unwrap();
        let restored = s.sample(512);
        let range = data.last().unwrap() - data.first().unwrap();
        for (a, b) in restored.iter().zip(&data) {
            assert!((a - b).abs() < 0.05 * range, "{a} vs {b}");
        }
    }

    #[test]
    fn fit_errors() {
        assert_eq!(CubicBSpline::fit(&[1.0], 3), Err(FitError::TooFewControlPoints(3)));
        assert_eq!(CubicBSpline::fit(&[], 8), Err(FitError::EmptyData));
    }

    #[test]
    fn overparameterised_fit_is_stable() {
        // m > n: ridge keeps it solvable and interpolating.
        let data = vec![1.0, 4.0, 2.0, 8.0, 3.0];
        let s = CubicBSpline::fit(&data, 12).unwrap();
        let restored = s.sample(5);
        for (a, b) in restored.iter().zip(&data) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn eval_clamps_outside_domain() {
        let s = CubicBSpline::fit(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0], 4).unwrap();
        assert_eq!(s.eval(-0.5), s.eval(0.0));
        assert_eq!(s.eval(1.5), s.eval(1.0));
    }

    #[test]
    fn single_point_data() {
        let s = CubicBSpline::fit(&[7.0], 4).unwrap();
        assert!((s.eval(0.0) - 7.0).abs() < 1e-6);
    }
}
