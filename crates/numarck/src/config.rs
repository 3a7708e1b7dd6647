//! Compressor configuration: the paper's two user parameters `B` and `E`
//! plus the strategy selection.

use crate::error::NumarckError;
use crate::strategy::Strategy;

/// Options for the clustering strategy's K-means run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusteringOptions {
    /// Cap on Lloyd iterations.
    pub max_iterations: usize,
    /// Convergence threshold on the fraction of points changing cluster.
    pub change_threshold: f64,
    /// Seed for randomised initialisers (histogram seeding ignores it).
    pub seed: u64,
}

impl Default for ClusteringOptions {
    fn default() -> Self {
        Self { max_iterations: 30, change_threshold: 1e-3, seed: 0x5EED_CAFE }
    }
}

/// User-facing compressor configuration.
///
/// * `bits` is the paper's `B`: each compressible point is stored as a
///   `B`-bit index, and the representative table holds up to `2^B − 1`
///   entries (index 0 is reserved for "change below tolerance").
/// * `tolerance` is the paper's `E`: the guaranteed per-point bound on the
///   absolute difference between true and approximated change ratio.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Config {
    bits: u8,
    tolerance: f64,
    strategy: Strategy,
    clustering: ClusteringOptions,
}

impl Config {
    /// Validate and build a configuration.
    ///
    /// `bits` must be in `1..=16`; `tolerance` must be finite and positive.
    /// (The paper evaluates `B ∈ {8, 9, 10}` and `E ∈ [0.1%, 0.5%]`; wider
    /// ranges are accepted but 16 bits is the hard cap of the index
    /// encoding.)
    pub fn new(bits: u8, tolerance: f64, strategy: Strategy) -> Result<Self, NumarckError> {
        if !(1..=16).contains(&bits) {
            return Err(NumarckError::InvalidConfig(format!(
                "bits must be in 1..=16, got {bits}"
            )));
        }
        if !tolerance.is_finite() || tolerance <= 0.0 {
            return Err(NumarckError::InvalidConfig(format!(
                "tolerance must be finite and positive, got {tolerance}"
            )));
        }
        Ok(Self { bits, tolerance, strategy, clustering: ClusteringOptions::default() })
    }

    /// The approximation precision `B` in bits.
    #[inline]
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// The user tolerance `E` on the change-ratio error.
    #[inline]
    pub fn tolerance(&self) -> f64 {
        self.tolerance
    }

    /// The selected approximation strategy.
    #[inline]
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Clustering options.
    #[inline]
    pub fn clustering(&self) -> ClusteringOptions {
        self.clustering
    }

    /// Maximum number of representative ratios: `2^B − 1`.
    #[inline]
    pub fn max_table_len(&self) -> usize {
        (1usize << self.bits) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_configs() {
        for b in 1..=16 {
            assert!(Config::new(b, 0.001, Strategy::EqualWidth).is_ok());
        }
    }

    #[test]
    fn rejects_bad_bits() {
        assert!(Config::new(0, 0.001, Strategy::EqualWidth).is_err());
        assert!(Config::new(17, 0.001, Strategy::EqualWidth).is_err());
    }

    #[test]
    fn rejects_bad_tolerance() {
        for t in [0.0, -0.1, f64::NAN, f64::INFINITY] {
            assert!(Config::new(8, t, Strategy::LogScale).is_err(), "tolerance {t}");
        }
    }

    #[test]
    fn table_len_is_2b_minus_1() {
        let c = Config::new(8, 0.001, Strategy::Clustering).unwrap();
        assert_eq!(c.max_table_len(), 255);
        let c = Config::new(10, 0.001, Strategy::Clustering).unwrap();
        assert_eq!(c.max_table_len(), 1023);
        let c = Config::new(1, 0.001, Strategy::Clustering).unwrap();
        assert_eq!(c.max_table_len(), 1);
    }
}
