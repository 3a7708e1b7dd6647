//! Parallel primitives used throughout the NUMARCK workspace.
//!
//! NUMARCK's design goal (SC'14, §I) is to perform as much work as possible
//! *in place* and *locally*: the change-ratio transform, classification,
//! packing, histogramming and decoding are all embarrassingly parallel
//! over the data points, with small per-thread partial results merged at
//! the end. This crate provides those building blocks once, on
//! `std::thread::scope` and nothing else, so every other crate in the
//! workspace expresses its parallelism the same way:
//!
//! * [`reduce`] — compensated (Neumaier) accumulators and parallel
//!   min/max, moment and zipped-sum reductions that are deterministic for
//!   a fixed chunk size.
//! * [`histogram`] — fixed-bin parallel histograms with mergeable partials.
//! * [`scan`] — prefix sums over per-chunk tallies: the decoder's bitmap
//!   rank index and the encoder's placement offsets.
//! * [`quantile`] — streaming P² quantile sketches (the anomaly monitor).
//! * [`rng`] — seeded generators for data, tests and the k-means++
//!   initialiser.
//! * [`chunk`] — chunk-size selection heuristics shared by all crates.
//! * [`pool`] — the executor every parallel sweep runs on: [`par_for_each`]
//!   and [`par_map`] over pre-split work items.
//!
//! All entry points accept plain slices and are safe to call from inside a
//! running parallel region (nested regions run inline on the caller).

pub mod chunk;
pub mod histogram;
pub mod pool;
pub mod quantile;
pub mod reduce;
pub mod rng;
pub mod scan;

pub use chunk::chunk_size_for;
pub use pool::{par_for_each, par_map};
pub use histogram::{FixedHistogram, HistogramSpec};
pub use reduce::{par_min_max, par_moments, Moments, MinMax};
