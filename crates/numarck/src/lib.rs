//! # NUMARCK — error-bounded lossy checkpoint compression
//!
//! A from-scratch Rust implementation of *NUMARCK: Machine Learning
//! Algorithm for Resiliency and Checkpointing* (Chen et al., SC 2014).
//!
//! Scientific checkpoint data is high-entropy: the raw floating-point
//! snapshots of a simulation have few repeated bit patterns and resist
//! lossless compression. NUMARCK's observation is that the *relative
//! change* of each data point between two consecutive checkpoints is
//! highly structured — most points change by a small amount drawn from a
//! narrow, learnable distribution. The algorithm therefore:
//!
//! 1. computes the **change ratio** `Δ_ij = (D_i,j − D_{i−1,j}) / D_{i−1,j}`
//!    for every point (forward predictive coding, [`ratio`]);
//! 2. **learns the distribution** of the ratios with one of three
//!    strategies — equal-width binning, log-scale binning, or K-means
//!    clustering seeded from the equal-width histogram ([`strategy`]) —
//!    producing at most `2^B − 1` representative ratios;
//! 3. **encodes** each point as a `B`-bit index into that table
//!    ([`encode`]). Index 0 means `|Δ| < E` (carry the previous value).
//!    Any point whose best representative misses the true ratio by more
//!    than the user tolerance `E` is escaped to exact 8-byte storage, so
//!    the per-point error bound holds *by construction*;
//! 4. **restarts** a simulation by replaying the compressed delta chain on
//!    top of the last full checkpoint ([`decode`]).
//!
//! ## Quick start
//!
//! ```
//! use numarck::{Compressor, Config, Strategy};
//!
//! // Two consecutive checkpoints of the same variable.
//! let prev: Vec<f64> = (0..4096).map(|i| 1.0 + (i as f64 * 0.01).sin()).collect();
//! let curr: Vec<f64> = prev.iter().map(|v| v * 1.002).collect(); // 0.2% growth
//!
//! let config = Config::new(8, 0.001, Strategy::Clustering).unwrap();
//! let compressor = Compressor::new(config);
//! let (compressed, stats) = compressor.compress(&prev, &curr).unwrap();
//!
//! // Per-point error bound holds by construction.
//! let restored = numarck::decode::reconstruct(&prev, &compressed).unwrap();
//! for (r, c) in restored.iter().zip(&curr) {
//!     assert!(((r - c) / c).abs() <= 0.001 + 1e-12);
//! }
//! assert!(stats.compression_ratio_eq3 > 0.5);
//! ```

pub mod anomaly;
pub mod autotune;
pub mod bitstream;
pub mod config;
pub mod decode;
pub mod drift;
pub mod encode;
pub mod error;
pub mod group;
pub mod huffman;
pub mod metrics;
pub mod obs;
pub mod pipeline;
pub mod ratio;
pub mod serialize;
pub mod strategy;
pub mod table;

pub use config::{ClusteringOptions, Config};
pub use encode::{CompressedIteration, IterationStats};
pub use error::NumarckError;
pub use pipeline::{Compressor, DeltaChain, ReferenceMode};
pub use strategy::Strategy;
pub use table::BinTable;
