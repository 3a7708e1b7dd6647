//! # numarck-compact — chain-shape policy engine
//!
//! Restart cost in a NUMARCK checkpoint chain grows linearly with the
//! distance to the last full checkpoint (the paper's §II-D replay).
//! This crate owns the three policies that bound it, generalising the
//! repair path's "materialize a fresh full" trick into background
//! maintenance:
//!
//! * [`merge`] — **compaction**: k consecutive deltas become one merged
//!   delta whose replay is bit-exact equal to the original chain's, by
//!   construction (exact composed ratios where the float math is
//!   invertible, exact escaped copies where it is not) and verified end
//!   to end through the serialised bytes before anything is written.
//!   Merged deltas record their span in the container header, and the
//!   restart engine's backward walk follows spans natively.
//! * [`chain`] + [`policy`] — **tiered full placement**: a linear
//!   [`chain::CostModel`] (seeded from measured `numarck_decode_ns`
//!   timings) models each iteration's restart latency over the path
//!   numarck-checkpoint's `ChainIndex` resolves; fulls are promoted until
//!   the worst case meets a configurable SLO.
//! * [`gc`] — **retention GC**: keep-last-N-fulls / keep-every-kth /
//!   min-age rules compute the retained iterations, reachability over
//!   the span graph computes liveness, and deletion happens only after
//!   every live replacement is CRC-verified on disk.
//!
//! Every write goes through numarck-checkpoint's
//! [`IntentJournal::write_ahead`](numarck_checkpoint::IntentJournal::write_ahead),
//! the write-ahead bracket serve's ingest uses too, plus the store's
//! atomic-rename discipline, so a crash at any instruction boundary
//! leaves the chain either untouched or verifiably advanced. See
//! DESIGN.md "Compaction & placement policy" for the error-composition
//! rule and the GC safety invariants.

pub mod chain;
pub mod gc;
pub mod merge;
pub mod obs;
pub mod policy;

pub use chain::{plain_runs, CostModel};
pub use gc::GcReport;
pub use merge::{build_merged_block, merge_window, MergeStats, MergedDelta};
pub use policy::{CompactionConfig, CompactionReport, Compactor, PassPlan};
