//! High-level compression pipeline: the [`Compressor`] front-end and the
//! [`DeltaChain`] that models a full-checkpoint-plus-deltas sequence
//! (Algorithm 1 in the paper).

use crate::config::Config;
use crate::decode;
use crate::encode::{self, CompressedIteration, IterationStats};
use crate::error::NumarckError;

/// The user-facing compressor: holds a validated [`Config`] and encodes
/// iteration pairs.
#[derive(Debug, Clone)]
pub struct Compressor {
    config: Config,
}

impl Compressor {
    /// Build from a validated config.
    pub fn new(config: Config) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Compress the transition `prev → curr`.
    pub fn compress(
        &self,
        prev: &[f64],
        curr: &[f64],
    ) -> Result<(CompressedIteration, IterationStats), NumarckError> {
        encode::encode(prev, curr, &self.config)
    }
}

/// Which previous iteration the encoder computes change ratios against.
///
/// The paper encodes between *true* consecutive iterations
/// ([`ReferenceMode::TrueValues`]): cheap in memory and deterministic,
/// but the decoder replays deltas against *reconstructions*, so restart
/// error compounds with chain length (§II-D, Fig. 8). The closed-loop
/// alternative ([`ReferenceMode::Reconstructed`]) encodes against the
/// decoder's own previous reconstruction — exactly what video codecs do
/// to stop drift — so the reconstruction error of *every* iteration is
/// bounded by a single `E`, at the cost of running the decode path
/// in-situ at encode time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReferenceMode {
    /// Paper-faithful open loop: ratios between true iterations.
    #[default]
    TrueValues,
    /// Closed loop: ratios against the previous reconstruction; error
    /// does not accumulate along the chain.
    Reconstructed,
}

/// A full checkpoint followed by a chain of compressed deltas — the
/// on-storage shape of a NUMARCK checkpoint sequence for one variable.
///
/// `base` is iteration `S` stored exactly (the paper's `D_0`); each delta
/// `d` reconstructs iteration `S + d + 1` from the *reconstruction* of the
/// previous iteration. With the default [`ReferenceMode::TrueValues`]
/// restart error accumulates exactly as in the paper's §II-D.
#[derive(Debug, Clone)]
pub struct DeltaChain {
    base: Vec<f64>,
    deltas: Vec<CompressedIteration>,
    /// Stats of each appended delta, aligned with `deltas`.
    pub stats: Vec<IterationStats>,
    config: Config,
    mode: ReferenceMode,
    /// The encoding reference for the next append: the latest true
    /// iteration (open loop) or its reconstruction (closed loop).
    reference: Vec<f64>,
}

impl DeltaChain {
    /// Start a chain from a full (exact) checkpoint, open-loop (the
    /// paper's scheme).
    pub fn new(base: Vec<f64>, config: Config) -> Self {
        Self::with_mode(base, config, ReferenceMode::TrueValues)
    }

    /// Start a chain with an explicit reference mode.
    pub fn with_mode(base: Vec<f64>, config: Config, mode: ReferenceMode) -> Self {
        let reference = base.clone();
        Self { base, deltas: Vec::new(), stats: Vec::new(), config, mode, reference }
    }

    /// The reference mode this chain encodes with.
    pub fn mode(&self) -> ReferenceMode {
        self.mode
    }

    /// The exact base checkpoint.
    pub fn base(&self) -> &[f64] {
        &self.base
    }

    /// Number of deltas appended.
    pub fn len(&self) -> usize {
        self.deltas.len()
    }

    /// True when no deltas have been appended.
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }

    /// The compressed deltas.
    pub fn deltas(&self) -> &[CompressedIteration] {
        &self.deltas
    }

    /// Append the next iteration. Open loop computes change ratios
    /// against the *true* previous iteration (faithful to the paper);
    /// closed loop computes them against the previous *reconstruction*,
    /// so the decoder's state never drifts from the encoder's.
    pub fn append(&mut self, next: &[f64]) -> Result<IterationStats, NumarckError> {
        let (block, stats) = encode::encode(&self.reference, next, &self.config)?;
        self.reference = match self.mode {
            ReferenceMode::TrueValues => next.to_vec(),
            // Mirror the decoder: reconstruct against the previous
            // reference (which is itself a reconstruction).
            ReferenceMode::Reconstructed => decode::reconstruct(&self.reference, &block)?,
        };
        self.deltas.push(block);
        self.stats.push(stats);
        Ok(stats)
    }

    /// Reconstruct iteration `idx` (0 = base, `len()` = latest) by
    /// replaying the delta chain.
    pub fn reconstruct(&self, idx: usize) -> Result<Vec<f64>, NumarckError> {
        if idx > self.deltas.len() {
            return Err(NumarckError::Corrupt(format!(
                "iteration {idx} beyond chain length {}",
                self.deltas.len()
            )));
        }
        let hops: Vec<_> = self.deltas[..idx].iter().map(CompressedIteration::block_ref).collect();
        decode::replay(&self.base, &hops)
    }

    /// Reconstruct every iteration 0..=len(), reusing the running state
    /// (O(chain) instead of O(chain²) for callers that need them all).
    pub fn reconstruct_all(&self) -> Result<Vec<Vec<f64>>, NumarckError> {
        let mut out = Vec::with_capacity(self.deltas.len() + 1);
        let mut state = self.base.clone();
        out.push(state.clone());
        for block in &self.deltas {
            state = decode::reconstruct(&state, block)?;
            out.push(state.clone());
        }
        Ok(out)
    }

    /// Total serialized bytes of the chain (base stored raw + deltas).
    pub fn storage_bytes(&self) -> usize {
        self.base.len() * 8
            + self.deltas.iter().map(crate::serialize::serialized_len).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Strategy;

    fn cfg() -> Config {
        Config::new(8, 0.001, Strategy::Clustering).unwrap()
    }

    fn evolve(state: &[f64], step: usize) -> Vec<f64> {
        state
            .iter()
            .enumerate()
            .map(|(i, v)| v * (1.0 + 0.002 * (((i + step) % 5) as f64 - 2.0)))
            .collect()
    }

    #[test]
    fn chain_reconstructs_base_exactly() {
        let base: Vec<f64> = (0..500).map(|i| 1.0 + i as f64).collect();
        let chain = DeltaChain::new(base.clone(), cfg());
        assert_eq!(chain.reconstruct(0).unwrap(), base);
    }

    #[test]
    fn chain_error_stays_within_compound_budget() {
        let base: Vec<f64> = (0..2000).map(|i| 1.0 + (i % 37) as f64).collect();
        let mut chain = DeltaChain::new(base.clone(), cfg());
        let mut truth = vec![base];
        for s in 1..=6 {
            let next = evolve(truth.last().unwrap(), s);
            chain.append(&next).unwrap();
            truth.push(next);
        }
        for idx in 0..=6usize {
            let rec = chain.reconstruct(idx).unwrap();
            let budget = (1.0f64 + 0.001).powi(idx as i32) - 1.0 + 1e-9;
            for (r, t) in rec.iter().zip(&truth[idx]) {
                let rel = ((r - t) / t).abs();
                assert!(rel <= budget, "iter {idx}: rel {rel} > {budget}");
            }
        }
    }

    #[test]
    fn reconstruct_all_matches_pointwise() {
        let base: Vec<f64> = (0..300).map(|i| 2.0 + (i % 11) as f64).collect();
        let mut chain = DeltaChain::new(base, cfg());
        for s in 1..=4 {
            let next = evolve(&chain.reconstruct(s - 1).unwrap(), s);
            // Note: evolving the reconstruction, not truth — still a valid
            // sequence for this equivalence test.
            chain.append(&next).unwrap();
        }
        let all = chain.reconstruct_all().unwrap();
        assert_eq!(all.len(), 5);
        for (i, rec) in all.iter().enumerate() {
            assert_eq!(rec, &chain.reconstruct(i).unwrap());
        }
    }

    #[test]
    fn out_of_range_iteration_rejected() {
        let chain = DeltaChain::new(vec![1.0], cfg());
        assert!(chain.reconstruct(1).is_err());
    }

    #[test]
    fn storage_is_much_smaller_than_raw() {
        let n = 50_000;
        let base: Vec<f64> = (0..n).map(|i| 1.0 + ((i * 7) % 101) as f64).collect();
        let mut chain = DeltaChain::new(base, cfg());
        let mut state = chain.base().to_vec();
        let steps = 10;
        for s in 1..=steps {
            state = evolve(&state, s);
            chain.append(&state).unwrap();
        }
        let raw = n * 8 * (steps + 1);
        let stored = chain.storage_bytes();
        assert!(
            (stored as f64) < raw as f64 * 0.25,
            "chain storage {stored} should be far below raw {raw}"
        );
    }

    #[test]
    fn closed_loop_error_does_not_accumulate() {
        // Open loop: error budget grows with chain length. Closed loop:
        // every iteration's reconstruction is within ~E of truth no
        // matter how long the chain is.
        let tol = 0.001;
        let config = Config::new(8, tol, Strategy::Clustering).unwrap();
        let base: Vec<f64> = (0..1500).map(|i| 1.0 + (i % 23) as f64).collect();
        let mut open = DeltaChain::new(base.clone(), config);
        let mut closed = DeltaChain::with_mode(base.clone(), config, ReferenceMode::Reconstructed);
        let steps = 20usize;
        let mut truth = vec![base];
        for s in 1..=steps {
            let next = evolve(truth.last().unwrap(), s);
            open.append(&next).unwrap();
            closed.append(&next).unwrap();
            truth.push(next);
        }
        let max_rel = |rec: &[f64], exact: &[f64]| {
            rec.iter()
                .zip(exact)
                .map(|(r, t)| ((r - t) / t).abs())
                .fold(0.0f64, f64::max)
        };
        let closed_rec = closed.reconstruct(steps).unwrap();
        let closed_err = max_rel(&closed_rec, &truth[steps]);
        // Single-step bound (ratio error E transfers with a prev/curr
        // factor; changes here are ≤ 0.4%).
        assert!(
            closed_err <= tol / 0.99 + 1e-12,
            "closed-loop error {closed_err} exceeds single-step bound"
        );
        // And the closed loop is at least as accurate as the open loop at
        // the end of a long chain.
        let open_rec = open.reconstruct(steps).unwrap();
        let open_err = max_rel(&open_rec, &truth[steps]);
        assert!(
            closed_err <= open_err + 1e-12,
            "closed {closed_err} should not exceed open {open_err}"
        );
    }

    #[test]
    fn closed_loop_reconstruction_matches_encoder_reference() {
        // The decoder's chain state must equal the encoder's running
        // reference bit-for-bit — that is the closed-loop invariant.
        let config = Config::new(8, 0.002, Strategy::LogScale).unwrap();
        let base: Vec<f64> = (0..400).map(|i| 2.0 + (i % 13) as f64).collect();
        let mut chain = DeltaChain::with_mode(base, config, ReferenceMode::Reconstructed);
        let mut state = chain.base().to_vec();
        for s in 1..=6 {
            state = evolve(&state, s);
            chain.append(&state).unwrap();
        }
        let rec = chain.reconstruct(6).unwrap();
        assert_eq!(rec, chain.reference);
    }

    #[test]
    fn mode_and_accessors() {
        let chain = DeltaChain::with_mode(vec![1.0], cfg(), ReferenceMode::Reconstructed);
        assert_eq!(chain.mode(), ReferenceMode::Reconstructed);
        assert!(chain.is_empty());
        assert_eq!(chain.len(), 0);
        assert!(chain.deltas().is_empty());
        let open = DeltaChain::new(vec![1.0], cfg());
        assert_eq!(open.mode(), ReferenceMode::TrueValues);
    }

    #[test]
    fn compressor_front_end_equals_encode() {
        let prev: Vec<f64> = (0..100).map(|i| 1.0 + i as f64).collect();
        let curr: Vec<f64> = prev.iter().map(|v| v * 1.01).collect();
        let c = Compressor::new(cfg());
        let (a, _) = c.compress(&prev, &curr).unwrap();
        let (b, _) = crate::encode::encode(&prev, &curr, c.config()).unwrap();
        assert_eq!(a, b);
    }
}
