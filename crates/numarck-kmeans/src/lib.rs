//! One-dimensional K-means for NUMARCK's change-ratio table.
//!
//! NUMARCK's best-performing approximation strategy (SC'14 §II-C.3) runs
//! K-means over the one-dimensional change-ratio stream with
//! `k = 2^B − 1` clusters, seeded from the equal-width histogram to avoid
//! the classic sensitivity of Lloyd's algorithm to its initial centres.
//! The paper uses the authors' MPI-parallel K-means package; this crate
//! fits in one process instead, and its 1-D fit follows the sort-once,
//! prefix-sum form of Yuan et al. (arXiv:1703.02438). The histogram and
//! min/max passes of the seeding run in parallel; the fit itself is
//! sequential and bit-identical for any thread count.
//!
//! * [`lloyd1d`] — the production path. Exploits the 1-D structure: with
//!   centres kept sorted, every cluster is an interval between adjacent
//!   midpoints. The fit sorts the sample once and builds prefix sums, so
//!   a Lloyd iteration is `k − 1` binary searches over the sorted sample
//!   plus O(k) prefix-sum differences, O(k log n) instead of a pass over
//!   all `n` points; nearest-centre queries are a binary search over the
//!   midpoints (O(log k) per point instead of O(k)).
//!
//! Initialisation methods live in [`init`]: histogram seeding (the paper's
//! choice), k-means++, and uniform-spread; an ablation test in [`lloyd1d`]
//! pins the paper's claim that seeding matters.

pub mod init;
pub mod lloyd1d;

pub use init::Init1D;
pub use lloyd1d::{KMeans1D, KMeans1DResult};

/// Options controlling a Lloyd's-algorithm run.
#[derive(Debug, Clone, Copy)]
pub struct KMeansOptions {
    /// Hard cap on Lloyd iterations.
    pub max_iterations: usize,
    /// Converged when the fraction of points that changed cluster in an
    /// iteration drops below this. The paper's package uses the same
    /// membership-change criterion.
    pub change_threshold: f64,
    /// Seed for randomised initialisers (ignored by deterministic ones).
    pub seed: u64,
}

impl Default for KMeansOptions {
    fn default() -> Self {
        Self { max_iterations: 50, change_threshold: 1e-3, seed: 0x5EED_CAFE }
    }
}
