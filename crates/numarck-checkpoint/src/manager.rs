//! Write-side checkpointing policy (the paper's Algorithm 1).
//!
//! Every `full_interval` iterations a full checkpoint is stored; in
//! between, each variable's transition from the *exact* previous
//! iteration is NUMARCK-compressed into a delta checkpoint. The manager
//! therefore keeps one copy of the previous exact state — the in-situ
//! memory cost the paper's scheme pays for avoiding error feedback in
//! the encoder.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use numarck::drift::{ChangeDistribution, DriftTracker};
use numarck::encode::IterationStats;
use numarck::error::NumarckError;
use numarck::{Compressor, Config};

use crate::format::{CheckpointFile, CheckpointKind};
use crate::store::CheckpointStore;
use crate::VariableSet;

/// Time source for retry backoff. Production uses [`SystemClock`]; tests
/// inject a recording clock so backoff is asserted, not slept.
pub trait Clock: std::fmt::Debug + Send + Sync {
    /// Block the caller for `d`.
    fn sleep(&self, d: Duration);
}

/// The real wall clock ([`std::thread::sleep`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct SystemClock;

impl Clock for SystemClock {
    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

/// Bounded exponential-backoff retry for transient checkpoint-write
/// faults (ENOSPC while a reaper frees space, EIO blips, interrupted
/// syscalls). Attempt `n` (0-based) sleeps `base_backoff * 2^n`, capped
/// at `max_backoff`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = fail fast).
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Ceiling on any single backoff.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 3,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
        }
    }
}

impl RetryPolicy {
    /// Fail fast: no retries, no sleeping.
    pub fn none() -> Self {
        Self { max_retries: 0, base_backoff: Duration::ZERO, max_backoff: Duration::ZERO }
    }

    /// Backoff before retry number `retry` (0-based): exponential from
    /// `base_backoff`, saturating at `max_backoff`.
    pub fn backoff_for(&self, retry: u32) -> Duration {
        let factor = 1u32.checked_shl(retry.min(20)).unwrap_or(u32::MAX);
        self.base_backoff.saturating_mul(factor).min(self.max_backoff)
    }

    /// Run `op` until it succeeds, fails with an I/O error that will not
    /// clear on its own (permission denied, read-only filesystem, invalid
    /// path, ...), or `max_retries` retries are spent; returns the
    /// last error in the last two cases. Before retry `n` (1-based) it
    /// sleeps `backoff_for(n − 1)` on `clock`, then calls
    /// `on_retry(n, delay, &error)` with the error that caused the retry,
    /// so each caller keeps its own counters and events.
    pub fn run<T>(
        &self,
        clock: &dyn Clock,
        mut op: impl FnMut() -> std::io::Result<T>,
        mut on_retry: impl FnMut(u32, Duration, &std::io::Error),
    ) -> std::io::Result<T> {
        let mut attempt: u32 = 0;
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) if is_transient(&e) && attempt < self.max_retries => {
                    let delay = self.backoff_for(attempt);
                    clock.sleep(delay);
                    attempt += 1;
                    on_retry(attempt, delay, &e);
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Is this I/O error worth retrying? Permanent conditions (permission
/// denied, read-only filesystem, invalid path) are not; conditions that
/// plausibly clear on their own are. Callers writing *around* the manager
/// (e.g. an intent journal) get the same judgement through
/// [`RetryPolicy::run`].
fn is_transient(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::StorageFull
            | std::io::ErrorKind::Interrupted
            | std::io::ErrorKind::TimedOut
            | std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::Other
    ) || e.raw_os_error() == Some(5) // EIO
}

/// What one checkpoint call actually cost: the policy outcome plus how
/// hard the storage layer had to be pushed to land it.
#[derive(Debug, Clone)]
pub struct CheckpointReport {
    /// The policy-level outcome (full / drift full / delta).
    pub outcome: CheckpointOutcome,
    /// Write retries that were needed (0 = first attempt succeeded).
    pub retries: u32,
}

/// Adaptive full-checkpoint triggering (the paper's §V future-work item:
/// "determining dynamic checkpointing frequency based on how evolving
/// distributions change").
///
/// When the L1 distance between consecutive iterations' change-ratio
/// distributions exceeds `drift_threshold` for any variable, the regime
/// has shifted — the learned representatives are getting stale and
/// restart chains through the shift accumulate error faster — so a full
/// checkpoint is written immediately, resetting the chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptivePolicy {
    /// L1 drift (0..=2) above which a full checkpoint is forced.
    pub drift_threshold: f64,
    /// Support half-width for the distribution summaries.
    pub cap: f64,
}

impl Default for AdaptivePolicy {
    fn default() -> Self {
        Self { drift_threshold: 0.5, cap: 0.5 }
    }
}

/// Checkpointing policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ManagerPolicy {
    /// A full checkpoint at least every this many iterations (the first
    /// is always full). Must be >= 1.
    pub full_interval: u64,
    /// Optional drift-triggered early fulls.
    pub adaptive: Option<AdaptivePolicy>,
}

impl ManagerPolicy {
    /// Fixed-interval policy (the paper's baseline behaviour).
    pub fn fixed(full_interval: u64) -> Self {
        Self { full_interval, adaptive: None }
    }

    /// Fixed interval plus drift-triggered early fulls.
    pub fn adaptive(full_interval: u64, adaptive: AdaptivePolicy) -> Self {
        Self { full_interval, adaptive: Some(adaptive) }
    }
}

impl Default for ManagerPolicy {
    fn default() -> Self {
        Self::fixed(10)
    }
}

/// Outcome of one [`CheckpointManager::checkpoint`] call.
#[derive(Debug, Clone)]
pub enum CheckpointOutcome {
    /// A full checkpoint was written (on schedule, or forced by shape
    /// change / iteration gap).
    Full,
    /// A full checkpoint was written early because the change
    /// distribution drifted past the adaptive threshold.
    FullOnDrift {
        /// The variable whose drift tripped the trigger.
        variable: String,
        /// Its measured L1 drift.
        drift_l1: f64,
    },
    /// A delta checkpoint was written; per-variable compression stats.
    Delta(BTreeMap<String, IterationStats>),
}

/// A checkpoint that has been fully encoded but not yet written.
///
/// Produced by [`CheckpointManager::prepare`]: the policy decision,
/// compression, and serialization have all happened, so the exact bytes
/// that will land on disk — and their content hash, the CRC trailer the
/// serializer wrote ([`format::content_crc`](crate::format::content_crc))
/// — are known *before* the store mutates. A write-ahead journal can
/// therefore record an intent (iteration + content hash) with nothing to
/// lie about, then [`CheckpointManager::commit`] makes the bytes durable.
#[derive(Debug)]
pub struct PreparedCheckpoint {
    iteration: u64,
    is_full: bool,
    outcome: CheckpointOutcome,
    bytes: Vec<u8>,
    vars: VariableSet,
}

impl PreparedCheckpoint {
    /// The iteration this checkpoint captures.
    pub fn iteration(&self) -> u64 {
        self.iteration
    }

    /// True when the encoded file is a full checkpoint.
    pub fn is_full(&self) -> bool {
        self.is_full
    }

    /// The content hash of the exact bytes [`CheckpointManager::commit`]
    /// will write: their CRC trailer, which tells this file apart from
    /// any other intact checkpoint at the same path.
    pub fn content_crc(&self) -> u32 {
        crate::format::content_crc(&self.bytes)
    }

    /// Serialized size of the encoded file.
    pub fn len_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// The policy-level outcome this checkpoint will report on commit.
    pub fn outcome(&self) -> &CheckpointOutcome {
        &self.outcome
    }

    /// What a [`ChainIndex`](crate::ChainIndex) records for the file
    /// [`CheckpointManager::commit`] will write, so an owner of a live
    /// index can insert it once the commit lands.
    pub fn stored_file(&self) -> crate::StoredFile {
        crate::StoredFile::of(&self.bytes)
    }
}

/// The write-side manager.
#[derive(Debug)]
pub struct CheckpointManager {
    store: CheckpointStore,
    compressor: Compressor,
    policy: ManagerPolicy,
    retry: RetryPolicy,
    clock: Arc<dyn Clock>,
    previous: Option<(u64, VariableSet)>,
    drift_trackers: BTreeMap<String, DriftTracker>,
}

impl CheckpointManager {
    /// Create over `store`, compressing deltas with `config`, with the
    /// default [`RetryPolicy`] on the system clock.
    ///
    /// # Panics
    /// Panics if `policy.full_interval == 0`.
    pub fn new(store: CheckpointStore, config: Config, policy: ManagerPolicy) -> Self {
        Self::with_retry(store, config, policy, RetryPolicy::default(), Arc::new(SystemClock))
    }

    /// Create with an explicit retry policy and clock (tests pass a
    /// recording clock so no real time is slept).
    ///
    /// # Panics
    /// Panics if `policy.full_interval == 0`.
    pub fn with_retry(
        store: CheckpointStore,
        config: Config,
        policy: ManagerPolicy,
        retry: RetryPolicy,
        clock: Arc<dyn Clock>,
    ) -> Self {
        assert!(policy.full_interval >= 1, "full_interval must be >= 1");
        Self {
            store,
            compressor: Compressor::new(config),
            policy,
            retry,
            clock,
            previous: None,
            drift_trackers: BTreeMap::new(),
        }
    }

    /// The underlying store.
    pub fn store(&self) -> &CheckpointStore {
        &self.store
    }

    /// How many variables the last checkpoint carried (0 before the
    /// first). Delta replay cost scales with this, so maintenance uses
    /// it to seed restart cost models from per-block decode timings.
    pub fn variable_count(&self) -> usize {
        self.previous.as_ref().map(|(_, vars)| vars.len()).unwrap_or(0)
    }

    /// Checkpoint `vars` as iteration `iteration`.
    ///
    /// Writes a full checkpoint when the policy says so (or when this is
    /// the first call, or the variable shapes changed); otherwise writes
    /// a NUMARCK delta against the previous exact state.
    pub fn checkpoint(
        &mut self,
        iteration: u64,
        vars: &VariableSet,
    ) -> Result<CheckpointOutcome, NumarckError> {
        self.checkpoint_with_report(iteration, vars).map(|r| r.outcome)
    }

    /// Like [`Self::checkpoint`], but also reports how many write
    /// retries the storage layer needed.
    pub fn checkpoint_with_report(
        &mut self,
        iteration: u64,
        vars: &VariableSet,
    ) -> Result<CheckpointReport, NumarckError> {
        let prepared = self.prepare(iteration, vars)?;
        self.commit(prepared)
    }

    /// Encode `vars` as iteration `iteration` without touching the
    /// store: policy decision, compression, and serialization all
    /// happen, but no byte lands on disk until [`Self::commit`].
    ///
    /// The returned [`PreparedCheckpoint`] exposes the content hash of the
    /// exact bytes `commit` will write, so a caller can record a
    /// write-ahead intent (iteration + content hash) *before* the store
    /// mutates.
    /// Dropping a prepared checkpoint without committing is safe: the
    /// manager's chain state only advances on commit, so the next call
    /// re-encodes from the last committed iteration.
    pub fn prepare(
        &mut self,
        iteration: u64,
        vars: &VariableSet,
    ) -> Result<PreparedCheckpoint, NumarckError> {
        let needs_full = match &self.previous {
            None => true,
            Some((prev_iter, prev_vars)) => {
                iteration.is_multiple_of(self.policy.full_interval)
                    || iteration != prev_iter + 1
                    || !same_shape(prev_vars, vars)
            }
        };
        // Adaptive trigger: compare each variable's change distribution
        // with its previous one; any drift past the threshold forces a
        // full. (The trackers are fed regardless of which kind of
        // checkpoint ends up being written.)
        let mut drift_trigger: Option<(String, f64)> = None;
        if let (Some(adaptive), Some((prev_iter, prev_vars))) =
            (self.policy.adaptive, &self.previous)
        {
            if iteration == prev_iter + 1 && same_shape(prev_vars, vars) {
                let tolerance = self.compressor.config().tolerance();
                for (name, curr) in vars {
                    let dist = ChangeDistribution::from_iterations(
                        &prev_vars[name],
                        curr,
                        tolerance,
                        adaptive.cap,
                    )?;
                    let tracker = self.drift_trackers.entry(name.clone()).or_default();
                    if let Some(report) = tracker.observe(dist) {
                        if report.l1 > adaptive.drift_threshold
                            && drift_trigger
                                .as_ref()
                                .map(|(_, best)| report.l1 > *best)
                                .unwrap_or(true)
                        {
                            drift_trigger = Some((name.clone(), report.l1));
                        }
                    }
                }
            } else {
                // Chain break: distribution history no longer describes
                // consecutive iterations.
                self.drift_trackers.clear();
            }
        }
        let (outcome, kind) = if needs_full || drift_trigger.is_some() {
            let outcome = match (needs_full, drift_trigger) {
                (false, Some((variable, drift_l1))) => {
                    // The regime changed; drop the distribution history
                    // so the *next* transition (new regime vs new
                    // regime) is judged fresh instead of against the
                    // jump itself.
                    self.drift_trackers.clear();
                    CheckpointOutcome::FullOnDrift { variable, drift_l1 }
                }
                _ => CheckpointOutcome::Full,
            };
            (outcome, CheckpointKind::Full(vars.clone()))
        } else {
            let (_, prev_vars) = self.previous.as_ref().expect("checked above");
            // Group-encode the iteration: the fit samples of every
            // variable are pooled into one shared centroid table, which
            // the v2 container then persists exactly once as the
            // per-iteration dictionary instead of once per variable.
            let pairs: Vec<(&[f64], &[f64])> = vars
                .iter()
                .map(|(name, curr)| (prev_vars[name].as_slice(), curr.as_slice()))
                .collect();
            let (group_blocks, group_stats) =
                numarck::group::encode_group(&pairs, self.compressor.config())?;
            let mut stats = BTreeMap::new();
            let mut blocks = BTreeMap::new();
            for ((name, block), st) in
                vars.keys().zip(group_blocks).zip(group_stats.per_variable)
            {
                blocks.insert(name.clone(), block);
                stats.insert(name.clone(), st);
            }
            (CheckpointOutcome::Delta(stats), CheckpointKind::Delta(blocks))
        };
        let is_full = matches!(kind, CheckpointKind::Full(_));
        let file = CheckpointFile::new(iteration, kind);
        let bytes = file.to_bytes();
        Ok(PreparedCheckpoint { iteration, is_full, outcome, bytes, vars: vars.clone() })
    }

    /// Write a [`PreparedCheckpoint`] to the store (with the manager's
    /// retry policy) and advance the chain state. Only after this
    /// returns `Ok` is the checkpoint part of the chain; the bytes on
    /// disk are exactly those whose content hash
    /// [`PreparedCheckpoint::content_crc`] reported.
    pub fn commit(
        &mut self,
        prepared: PreparedCheckpoint,
    ) -> Result<CheckpointReport, NumarckError> {
        let PreparedCheckpoint { iteration, is_full, outcome, bytes, vars } = prepared;
        let retries = self.write_with_retry(iteration, is_full, &bytes)?;
        match &outcome {
            CheckpointOutcome::Full => crate::obs::fulls_total().inc(),
            CheckpointOutcome::FullOnDrift { .. } => crate::obs::drift_fulls_total().inc(),
            CheckpointOutcome::Delta(_) => crate::obs::deltas_total().inc(),
        }
        self.previous = Some((iteration, vars));
        Ok(CheckpointReport { outcome, retries })
    }

    /// Write checkpoint bytes to the store, retrying transient I/O
    /// errors with exponential backoff per the manager's [`RetryPolicy`],
    /// and return the retries the write needed. Permanent errors and
    /// exhausted retries surface as [`NumarckError::Io`]. Every retry and
    /// its backoff land in the global registry
    /// (`ckpt_write_retries_total`, `ckpt_backoff_ns_total`) — including
    /// those of calls that ultimately fail.
    fn write_with_retry(
        &self,
        iteration: u64,
        is_full: bool,
        bytes: &[u8],
    ) -> Result<u32, NumarckError> {
        let mut retries = 0;
        let written = self.retry.run(
            self.clock.as_ref(),
            || {
                crate::obs::write_attempts_total().inc();
                let _span = crate::obs::write_ns().span();
                self.store.write_raw(iteration, is_full, bytes)
            },
            |attempt, delay, e| {
                retries = attempt;
                crate::obs::write_retries_total().inc();
                crate::obs::backoff_ns_total()
                    .add(u64::try_from(delay.as_nanos()).unwrap_or(u64::MAX));
                numarck_obs::Registry::global().events().push(
                    numarck_obs::Level::Warn,
                    format!("ckpt write retry #{attempt} iter={iteration}: {e}"),
                );
            },
        );
        written.map(|_| retries).map_err(|e| {
            let attempts = retries + 1;
            numarck_obs::Registry::global().events().push(
                numarck_obs::Level::Error,
                format!("ckpt write failed iter={iteration} after {attempts} attempt(s): {e}"),
            );
            NumarckError::Io(format!(
                "checkpoint {iteration} write failed after {attempts} attempt(s): {e}"
            ))
        })
    }
}

fn same_shape(a: &VariableSet, b: &VariableSet) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|((na, va), (nb, vb))| na == nb && va.len() == vb.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::testutil::TempDir;
    use numarck::Strategy;

    fn vars_at(iter: u64, n: usize) -> VariableSet {
        let mut vars = VariableSet::new();
        let f = 1.0 + iter as f64 * 0.002;
        vars.insert("a".into(), (0..n).map(|i| f * (1.0 + (i % 5) as f64)).collect());
        vars.insert("b".into(), (0..n).map(|i| f * (2.0 + (i % 3) as f64)).collect());
        vars
    }

    fn manager(tmp: &TempDir, interval: u64) -> CheckpointManager {
        let store = CheckpointStore::open(&tmp.0).unwrap();
        let cfg = Config::new(8, 0.001, Strategy::Clustering).unwrap();
        CheckpointManager::new(store, cfg, ManagerPolicy::fixed(interval))
    }

    #[test]
    fn first_checkpoint_is_full_then_deltas() {
        let tmp = TempDir::new("mgr-basic");
        let mut mgr = manager(&tmp, 10);
        assert!(matches!(mgr.checkpoint(1, &vars_at(1, 200)).unwrap(), CheckpointOutcome::Full));
        for i in 2..=5 {
            let out = mgr.checkpoint(i, &vars_at(i, 200)).unwrap();
            assert!(matches!(out, CheckpointOutcome::Delta(_)), "iteration {i}");
        }
        let list = mgr.store().list().unwrap();
        assert_eq!(list.len(), 5);
        assert_eq!(list.iter().filter(|e| e.is_full).count(), 1);
    }

    #[test]
    fn full_interval_is_honoured() {
        let tmp = TempDir::new("mgr-interval");
        let mut mgr = manager(&tmp, 4);
        for i in 1..=9 {
            mgr.checkpoint(i, &vars_at(i, 100)).unwrap();
        }
        let fulls: Vec<u64> = mgr
            .store()
            .list()
            .unwrap()
            .into_iter()
            .filter(|e| e.is_full)
            .map(|e| e.iteration)
            .collect();
        // Iteration 1 (first) plus multiples of 4.
        assert_eq!(fulls, vec![1, 4, 8]);
    }

    #[test]
    fn gap_in_iterations_forces_full() {
        let tmp = TempDir::new("mgr-gap");
        let mut mgr = manager(&tmp, 100);
        mgr.checkpoint(1, &vars_at(1, 50)).unwrap();
        mgr.checkpoint(2, &vars_at(2, 50)).unwrap();
        // Skip to 10: the delta chain would be wrong, so a full is forced.
        let out = mgr.checkpoint(10, &vars_at(10, 50)).unwrap();
        assert!(matches!(out, CheckpointOutcome::Full));
    }

    #[test]
    fn shape_change_forces_full() {
        let tmp = TempDir::new("mgr-shape");
        let mut mgr = manager(&tmp, 100);
        mgr.checkpoint(1, &vars_at(1, 50)).unwrap();
        let out = mgr.checkpoint(2, &vars_at(2, 60)).unwrap();
        assert!(matches!(out, CheckpointOutcome::Full));
    }

    #[test]
    fn delta_stats_cover_all_variables() {
        let tmp = TempDir::new("mgr-stats");
        let mut mgr = manager(&tmp, 10);
        mgr.checkpoint(1, &vars_at(1, 300)).unwrap();
        match mgr.checkpoint(2, &vars_at(2, 300)).unwrap() {
            CheckpointOutcome::Delta(stats) => {
                assert_eq!(stats.len(), 2);
                for (name, st) in stats {
                    assert_eq!(st.num_points, 300, "{name}");
                    assert!(st.max_error_rate <= 0.001 + 1e-12);
                }
            }
            CheckpointOutcome::Full | CheckpointOutcome::FullOnDrift { .. } => panic!("expected delta"),
        }
    }

    #[test]
    #[should_panic(expected = "full_interval")]
    fn zero_interval_rejected() {
        let tmp = TempDir::new("mgr-zero");
        manager(&tmp, 0);
    }

    /// Evolve with a given uniform growth rate.
    fn grow(vars: &VariableSet, rate: f64) -> VariableSet {
        vars.iter()
            .map(|(k, v)| (k.clone(), v.iter().map(|x| x * (1.0 + rate)).collect()))
            .collect()
    }

    #[test]
    fn adaptive_policy_fires_on_regime_change() {
        let tmp = TempDir::new("mgr-adaptive");
        let store = CheckpointStore::open(&tmp.0).unwrap();
        let cfg = Config::new(8, 0.001, Strategy::Clustering).unwrap();
        let policy = ManagerPolicy::adaptive(
            1000, // fixed interval effectively disabled
            AdaptivePolicy { drift_threshold: 0.5, cap: 0.5 },
        );
        let mut mgr = CheckpointManager::new(store, cfg, policy);
        let mut vars = vars_at(0, 400);
        mgr.checkpoint(0, &vars).unwrap(); // initial full
        // Steady regime: constant 0.4% growth — distributions identical,
        // deltas only. (Drift needs two observations, so the earliest
        // possible trigger is iteration 3.)
        for it in 1..=6u64 {
            vars = grow(&vars, 0.004);
            let out = mgr.checkpoint(it, &vars).unwrap();
            if it >= 2 {
                assert!(
                    matches!(out, CheckpointOutcome::Delta(_)),
                    "steady regime at {it} must stay delta"
                );
            }
        }
        // Regime change: sudden 30% jump — change distribution teleports.
        vars = grow(&vars, 0.30);
        let out = mgr.checkpoint(7, &vars).unwrap();
        match out {
            CheckpointOutcome::FullOnDrift { drift_l1, .. } => {
                assert!(drift_l1 > 0.5, "reported drift {drift_l1}");
            }
            other => panic!("expected FullOnDrift, got {other:?}"),
        }
        // Back to steady: deltas resume after one more observation.
        vars = grow(&vars, 0.004);
        mgr.checkpoint(8, &vars).unwrap();
        vars = grow(&vars, 0.004);
        let out = mgr.checkpoint(9, &vars).unwrap();
        assert!(matches!(out, CheckpointOutcome::Delta(_)), "steady regime resumes deltas");
    }

    #[test]
    fn the_chain_index_and_degraded_restart_track_the_store() {
        use crate::{ChainIndex, RestartEngine};
        let tmp = TempDir::new("mgr-queries");
        let mut mgr = manager(&tmp, 4);
        let store = mgr.store().clone();
        let engine = RestartEngine::new(store.clone());
        // The newest iteration that restarts cleanly, by actually
        // replaying it: a guarantee, not a guess from file names.
        let latest_restartable = || {
            let newest = ChainIndex::load(&store).unwrap().latest()?;
            engine.restart_at_or_before(newest).ok().map(|d| d.achieved())
        };
        assert!(ChainIndex::load(&store).unwrap().is_empty());
        assert_eq!(latest_restartable(), None);
        for i in 1..=6 {
            mgr.checkpoint(i, &vars_at(i, 100)).unwrap();
        }
        let index = ChainIndex::load(&store).unwrap();
        assert_eq!(index.iterations().collect::<Vec<_>>(), vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(index.file_count(), 6);
        assert_eq!(latest_restartable(), Some(6));
        // Damage the newest delta: the answer falls back to the newest
        // iteration whose chain still replays.
        crate::fault::inject(
            &store.path_of(6, false),
            crate::fault::Fault::BitFlip { offset: 40, mask: 0x08 },
        )
        .unwrap();
        assert_eq!(latest_restartable(), Some(5));
    }

    /// A clock that records requested sleeps instead of performing them.
    #[derive(Debug, Default)]
    struct RecordingClock(std::sync::Mutex<Vec<Duration>>);

    impl Clock for RecordingClock {
        fn sleep(&self, d: Duration) {
            self.0.lock().unwrap().push(d);
        }
    }

    fn retrying_manager(
        tmp: &TempDir,
        schedule: crate::backend::FaultSchedule,
        retry: RetryPolicy,
    ) -> (CheckpointManager, Arc<RecordingClock>, Arc<crate::backend::FaultyBackend>) {
        let backend = Arc::new(crate::backend::FaultyBackend::new(schedule));
        let store = CheckpointStore::open_with(&tmp.0, backend.clone()).unwrap();
        let cfg = Config::new(8, 0.001, Strategy::Clustering).unwrap();
        let clock = Arc::new(RecordingClock::default());
        let mgr = CheckpointManager::with_retry(
            store,
            cfg,
            ManagerPolicy::fixed(10),
            retry,
            clock.clone(),
        );
        (mgr, clock, backend)
    }

    #[test]
    fn transient_enospc_is_retried_with_exponential_backoff() {
        use crate::backend::{FaultSchedule, WriteFault};
        let tmp = TempDir::new("mgr-retry-enospc");
        // Writes 1 and 2 fail with ENOSPC; write 3 (second retry) lands.
        let schedule = FaultSchedule::new()
            .fail_write(1, WriteFault::Error(std::io::ErrorKind::StorageFull))
            .fail_write(2, WriteFault::Error(std::io::ErrorKind::StorageFull));
        let (mut mgr, clock, backend) =
            retrying_manager(&tmp, schedule, RetryPolicy::default());
        let report = mgr.checkpoint_with_report(1, &vars_at(1, 100)).unwrap();
        assert!(matches!(report.outcome, CheckpointOutcome::Full));
        assert_eq!(report.retries, 2);
        assert_eq!(backend.writes_attempted(), 3);
        // Backoff doubled: 10ms then 20ms, recorded not slept.
        let sleeps = clock.0.lock().unwrap().clone();
        assert_eq!(sleeps, vec![Duration::from_millis(10), Duration::from_millis(20)]);
        // The checkpoint is genuinely on disk and readable.
        assert!(mgr.store().read(1, true).is_ok());
    }

    #[test]
    fn torn_write_is_retried_and_the_retry_overwrites_the_partial() {
        use crate::backend::{FaultSchedule, WriteFault};
        let tmp = TempDir::new("mgr-retry-torn");
        let schedule = FaultSchedule::new().fail_write(1, WriteFault::Torn { keep: 7 });
        let (mut mgr, _clock, _backend) =
            retrying_manager(&tmp, schedule, RetryPolicy::default());
        let report = mgr.checkpoint_with_report(1, &vars_at(1, 100)).unwrap();
        assert_eq!(report.retries, 1);
        assert!(mgr.store().read(1, true).is_ok());
    }

    #[test]
    fn exhausted_retries_surface_as_io_error() {
        use crate::backend::{FaultSchedule, WriteFault};
        let tmp = TempDir::new("mgr-retry-exhausted");
        let schedule = (1..=4).fold(FaultSchedule::new(), |s, n| {
            s.fail_write(n, WriteFault::Error(std::io::ErrorKind::StorageFull))
        });
        let (mut mgr, clock, _backend) =
            retrying_manager(&tmp, schedule, RetryPolicy::default());
        let err = mgr.checkpoint_with_report(1, &vars_at(1, 100)).unwrap_err();
        assert!(matches!(err, NumarckError::Io(_)), "got {err:?}");
        assert!(err.to_string().contains("4 attempt(s)"), "got: {err}");
        assert_eq!(clock.0.lock().unwrap().len(), 3);
    }

    #[test]
    fn permanent_errors_fail_fast_without_sleeping() {
        use crate::backend::{FaultSchedule, WriteFault};
        let tmp = TempDir::new("mgr-retry-permanent");
        let schedule = FaultSchedule::new()
            .fail_write(1, WriteFault::Error(std::io::ErrorKind::PermissionDenied));
        let (mut mgr, clock, backend) =
            retrying_manager(&tmp, schedule, RetryPolicy::default());
        let err = mgr.checkpoint_with_report(1, &vars_at(1, 100)).unwrap_err();
        assert!(matches!(err, NumarckError::Io(_)));
        assert_eq!(backend.writes_attempted(), 1, "no retry on permanent error");
        assert!(clock.0.lock().unwrap().is_empty(), "no backoff slept");
    }

    #[test]
    fn retry_none_fails_on_first_transient_error() {
        use crate::backend::{FaultSchedule, WriteFault};
        let tmp = TempDir::new("mgr-retry-none");
        let schedule = FaultSchedule::new()
            .fail_write(1, WriteFault::Error(std::io::ErrorKind::StorageFull));
        let (mut mgr, clock, _backend) = retrying_manager(&tmp, schedule, RetryPolicy::none());
        assert!(mgr.checkpoint_with_report(1, &vars_at(1, 100)).is_err());
        assert!(clock.0.lock().unwrap().is_empty());
    }

    #[test]
    fn backoff_is_capped_at_max_backoff() {
        let policy = RetryPolicy {
            max_retries: 40,
            base_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_secs(2),
        };
        assert_eq!(policy.backoff_for(0), Duration::from_millis(100));
        assert_eq!(policy.backoff_for(3), Duration::from_millis(800));
        assert_eq!(policy.backoff_for(10), Duration::from_secs(2));
        // Shift amounts far past the cap don't overflow.
        assert_eq!(policy.backoff_for(39), Duration::from_secs(2));
    }

    #[test]
    fn prepare_commit_crc_matches_the_bytes_on_disk() {
        let tmp = TempDir::new("mgr-prepare-crc");
        let mut mgr = manager(&tmp, 4);
        mgr.checkpoint(1, &vars_at(1, 100)).unwrap();
        let prepared = mgr.prepare(2, &vars_at(2, 100)).unwrap();
        assert_eq!(prepared.iteration(), 2);
        assert!(!prepared.is_full(), "second call in the interval is a delta");
        assert!(prepared.len_bytes() > 0);
        let crc = prepared.content_crc();
        // Nothing on disk yet.
        assert_eq!(mgr.store().list().unwrap().len(), 1);
        mgr.commit(prepared).unwrap();
        // The content hash is the trailer of the file that landed: the
        // CRC-32 of everything before it.
        let bytes = mgr.store().read_raw(2, false).unwrap();
        let (body, trailer) = bytes.split_at(bytes.len() - 4);
        assert_eq!(trailer, crc.to_le_bytes());
        assert_eq!(numarck::serialize::crc32(body), crc);
        assert!(mgr.store().read(2, false).is_ok());
    }

    #[test]
    fn dropped_prepare_leaves_the_chain_consistent() {
        let tmp = TempDir::new("mgr-prepare-drop");
        let mut mgr = manager(&tmp, 100);
        mgr.checkpoint(1, &vars_at(1, 100)).unwrap();
        // Prepare iteration 2 and abandon it: the chain must not have
        // advanced, so re-preparing 2 still yields a valid delta...
        drop(mgr.prepare(2, &vars_at(2, 100)).unwrap());
        let out = mgr.checkpoint(2, &vars_at(2, 100)).unwrap();
        assert!(matches!(out, CheckpointOutcome::Delta(_)));
        // ...and after abandoning 3, the gap to 4 forces a full, exactly
        // as if the encode had never happened.
        drop(mgr.prepare(3, &vars_at(3, 100)).unwrap());
        let out = mgr.checkpoint(4, &vars_at(4, 100)).unwrap();
        assert!(matches!(out, CheckpointOutcome::Full));
    }

    #[test]
    fn fixed_policy_never_reports_drift() {
        let tmp = TempDir::new("mgr-fixed-nodrift");
        let mut mgr = manager(&tmp, 50);
        let mut vars = vars_at(0, 200);
        mgr.checkpoint(0, &vars).unwrap();
        for it in 1..=5u64 {
            // Wild swings, but no adaptive policy configured.
            vars = grow(&vars, if it % 2 == 0 { 0.5 } else { -0.3 });
            let out = mgr.checkpoint(it, &vars).unwrap();
            assert!(
                !matches!(out, CheckpointOutcome::FullOnDrift { .. }),
                "fixed policy must not drift-trigger"
            );
        }
    }
}

/// Small helpers shared with sibling modules' tests.
#[cfg(test)]
pub(crate) mod test_support {
    use numarck::{Config, Strategy};

    /// A valid default config for building trivial deltas in tests.
    pub fn trivial_config() -> Config {
        Config::new(8, 0.001, Strategy::Clustering).expect("valid test config")
    }
}
