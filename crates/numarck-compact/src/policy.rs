//! The maintenance pass: compaction → placement → GC, journaled.
//!
//! [`Compactor::run`] executes one pass over a store. Every write goes
//! through the same write-ahead bracket as live ingest,
//! [`IntentJournal::write_ahead`]: the exact bytes are built and
//! **verified in memory first**, their content hash (the CRC trailer
//! they end in) is recorded in the store's intent journal, the store
//! write lands atomically (temp file, rename, dir fsync), the bytes are
//! read back and compared with the bytes written, and only then is the
//! intent committed. A crash at any boundary leaves either the
//! old artefact (rename not yet landed) or the new, verified one —
//! never a torn file — and the outstanding intent tells recovery which
//! it must be. A read-back mismatch (storage corruption between write
//! and verify) quarantines the damaged file so the existing
//! scrub/re-anchor machinery repairs the chain.
//!
//! A pass has two halves. [`Compactor::plan`] builds and verifies the
//! merged deltas from a chain index: it reads the store and writes
//! nothing. [`Compactor::apply`] writes them, then runs placement and GC.
//! [`Compactor::run`] is the one after the other; a caller that shares
//! the store with writers may plan from a snapshot of its index without
//! its lock, and apply under it (see `apply` for what it must check).

use numarck::error::NumarckError;
use numarck_checkpoint::chain::{ChainIndex, StoredFile};
use numarck_checkpoint::format::{content_crc, CheckpointFile, CheckpointKind, CheckpointView};
use numarck_checkpoint::restart::{Head, RestartEngine};
use numarck_checkpoint::store::CheckpointStore;
use numarck_checkpoint::{IntentJournal, RetryPolicy};
use numarck_obs::Span;

use crate::chain::{plain_runs, CostModel};
use crate::gc::{self, GcReport};
use crate::merge::{self, MergeStats, MergedDelta};
use crate::obs;

/// Knobs for one maintenance pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactionConfig {
    /// Merge this many consecutive plain deltas into one. 0 or 1
    /// disables compaction.
    pub merge_window: u64,
    /// Modeled worst-case restart latency target; `None` disables the
    /// placement policy.
    pub restart_slo_ns: Option<u64>,
    /// Retention: keep the newest N full checkpoints restartable. 0
    /// disables GC entirely.
    pub keep_last_fulls: usize,
    /// Retention: additionally keep every iteration divisible by this.
    /// 0 keeps only chain-needed iterations.
    pub keep_every: u64,
    /// Retention: never delete a file younger than this.
    pub min_age_secs: u64,
    /// The restart cost model placement decisions use.
    pub cost: CostModel,
}

impl Default for CompactionConfig {
    fn default() -> Self {
        Self {
            merge_window: 4,
            restart_slo_ns: None,
            keep_last_fulls: 0,
            keep_every: 0,
            min_age_secs: 0,
            cost: CostModel::default(),
        }
    }
}

/// What one maintenance pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CompactionReport {
    /// Merged delta files written.
    pub merges: u64,
    /// Plain deltas those merges superseded.
    pub deltas_merged: u64,
    /// Per-point accounting across all merges.
    pub merge_stats: MergeStats,
    /// Full checkpoints materialised by the placement policy.
    pub fulls_promoted: u64,
    /// Files deleted by retention GC.
    pub gc: GcReport,
    /// Store bytes freed by the whole pass (compaction + GC).
    pub bytes_reclaimed: u64,
    /// Worst modeled restart cost after the pass, over resolvable
    /// iterations.
    pub worst_case_cost_ns: Option<u64>,
}

/// The merged deltas of one maintenance pass, built and verified by
/// [`Compactor::plan`] and not yet written.
#[derive(Debug)]
pub struct PassPlan {
    /// `(end, span, bytes, stats)` of each merged delta, in chain order.
    merges: Vec<(u64, u64, Vec<u8>, MergeStats)>,
    /// The pass's wall time, from planning through applying.
    _span: Span<'static>,
}

/// Runs maintenance passes under a [`CompactionConfig`].
#[derive(Debug, Clone)]
pub struct Compactor {
    config: CompactionConfig,
}

impl Compactor {
    /// A compactor with `config`.
    pub fn new(config: CompactionConfig) -> Self {
        Self { config }
    }

    /// One full maintenance pass: merge plain-delta windows, promote
    /// fulls until the modeled worst-case restart cost meets the SLO,
    /// then collect superseded artefacts.
    ///
    /// The pass works on the caller's `index`, which must describe
    /// `store` as it is (a fresh [`ChainIndex::load`], or an index its
    /// owner keeps current), and keeps it current as its own writes and
    /// deletes land; the pass itself never lists the store. After an
    /// error the store may have changed partway, so the caller must
    /// reload `index` before trusting it again. GC deletes only files it
    /// has just CRC-verified a live cover for, so a stale entry makes it
    /// abort, never delete what a restart needs. The caller owns mutual
    /// exclusion with ingest, scrub and restart pinning (the serve
    /// worker holds the session lock, exactly as scrub does).
    pub fn run(
        &self,
        store: &CheckpointStore,
        journal: &mut IntentJournal,
        index: &mut ChainIndex,
    ) -> Result<CompactionReport, NumarckError> {
        let plan = self.plan(store, index)?;
        self.apply(plan, store, journal, index)
    }

    /// The first half of a pass: merge every complete
    /// `merge_window`-sized window of consecutive plain deltas in
    /// `index`, each verified bit-exact against the chain's replay, and
    /// write nothing. Files are mapped and checked against `index`, so a
    /// file replaced since `index` was taken fails the plan rather than
    /// feed it. The windows are one forward walk: each continues from the
    /// state the one before it built (a [`Head`]), so the pass maps each
    /// file it merges once.
    pub fn plan(
        &self,
        store: &CheckpointStore,
        index: &ChainIndex,
    ) -> Result<PassPlan, NumarckError> {
        obs::runs_total().inc();
        let span = obs::run_ns().span();
        let w = self.config.merge_window;
        let mut merges = Vec::new();
        self.walk(store, index, |end, merged| merges.push((end, w, merged.bytes, merged.stats)))?;
        Ok(PassPlan { merges, _span: span })
    }

    /// [`Self::plan`]'s windows, each handed to `each` with its end. A
    /// window of plain span-1 deltas is the tail of its end's chain, so
    /// its replay onto a restart of its first iteration is a restart of
    /// its end; a head at that iteration pins and decodes nothing.
    fn walk(
        &self,
        store: &CheckpointStore,
        index: &ChainIndex,
        mut each: impl FnMut(u64, MergedDelta),
    ) -> Result<(), NumarckError> {
        let w = self.config.merge_window;
        if w < 2 {
            return Ok(());
        }
        let engine = RestartEngine::new(store.clone());
        let mut head = None;
        for (a, b) in plain_runs(index) {
            let mut first = a.max(1) - 1;
            while first + w <= b {
                let end = first + w;
                let base = engine.restart_with(index, first, head.take().as_ref())?.vars;
                let window = (first + 1..=end)
                    .map(|it| CheckpointView::parse(index.map_file(store, it, false)?, it, false))
                    .collect::<Result<Vec<_>, _>>()?;
                let merged = merge::merge_window(&base, &window)?;
                head = Some(Head { iteration: end, vars: merged.expected.clone() });
                each(end, merged);
                first = end;
            }
        }
        Ok(())
    }

    /// The second half of a pass: write `plan`'s merged deltas, each
    /// replacing the plain delta at its window's end (the window's other
    /// plain deltas stay on disk for GC to judge), then promote fulls and
    /// collect, exactly as [`Self::run`] does.
    ///
    /// `plan` must come from an index that agrees with the store as it
    /// is now on every iteration up to its last window: the chain may
    /// only have grown past its newest iteration since. A caller that
    /// planned without its lock checks that nothing else changed the
    /// store in between (a re-put, a reload after a failed write, a
    /// scrub or a repair) and plans again if anything did. The rest of
    /// [`Self::run`]'s contract holds here too.
    pub fn apply(
        &self,
        plan: PassPlan,
        store: &CheckpointStore,
        journal: &mut IntentJournal,
        index: &mut ChainIndex,
    ) -> Result<CompactionReport, NumarckError> {
        let PassPlan { merges, _span } = plan;
        let mut report = CompactionReport::default();
        let bytes_before = index.total_bytes();

        for (end, span, bytes, stats) in merges {
            write_checked(store, journal, end, false, &bytes)?;
            index.insert(end, false, StoredFile::of(&bytes));
            report.merges += 1;
            report.deltas_merged += span;
            report.merge_stats.absorb(stats);
            obs::merges_total().inc();
            obs::deltas_merged_total().add(span);
        }
        if let Some(slo) = self.config.restart_slo_ns {
            self.place(store, journal, index, slo, &mut report)?;
        }
        if self.config.keep_last_fulls > 0 {
            report.gc = gc::collect_in(
                store,
                index,
                self.config.keep_last_fulls,
                self.config.keep_every,
                self.config.min_age_secs,
            )?;
            obs::gc_files_removed_total().add(report.gc.removed);
        }

        report.bytes_reclaimed = bytes_before.saturating_sub(index.total_bytes());
        obs::bytes_reclaimed_total().add(report.bytes_reclaimed);
        report.worst_case_cost_ns = self.config.cost.worst_case_cost_ns(index);
        Ok(report)
    }

    /// Promote full checkpoints until every resolvable iteration's
    /// modeled restart cost is within `slo` — walking iterations in
    /// order and materialising a full at the first offender, exactly
    /// the "materialize a fresh full" trick repair uses, but as policy
    /// rather than emergency. Each promotion enters the index, so later
    /// iterations resolve to it.
    fn place(
        &self,
        store: &CheckpointStore,
        journal: &mut IntentJournal,
        index: &mut ChainIndex,
        slo: u64,
        report: &mut CompactionReport,
    ) -> Result<(), NumarckError> {
        let model = &self.config.cost;
        let engine = RestartEngine::new(store.clone());
        for it in index.iterations().collect::<Vec<_>>() {
            let Ok(path) = index.resolve(it) else { continue };
            let hops = path.deltas.len() as u64;
            // Promote only when a full would actually fix it: if the
            // full-decode cost alone already blows the SLO, promotion
            // per iteration would bloat the store without meeting it.
            if model.cost_ns(path.base_bytes, hops) > slo
                && hops >= 1
                && model.cost_ns(path.base_bytes, 0) <= slo
            {
                let vars = engine.restart_with(index, it, None)?.vars;
                let bytes = CheckpointFile::new(it, CheckpointKind::Full(vars)).to_bytes();
                write_checked(store, journal, it, true, &bytes)?;
                index.insert(it, true, StoredFile::of(&bytes));
                report.fulls_promoted += 1;
                obs::fulls_promoted_total().inc();
            }
        }
        Ok(())
    }
}

/// One compaction write through the journal's bracket, failing fast: the
/// intent of `bytes`' content hash, the store write, then a read-back
/// byte compare that quarantines a mismatch (for scrub to re-anchor) and
/// leaves its intent outstanding.
fn write_checked(
    store: &CheckpointStore,
    journal: &mut IntentJournal,
    iteration: u64,
    is_full: bool,
    bytes: &[u8],
) -> Result<(), NumarckError> {
    let write = || {
        store
            .write_raw(iteration, is_full, bytes)
            .map_err(|e| NumarckError::Io(format!("compaction write failed: {e}")))?;
        let back = store
            .read_raw(iteration, is_full)
            .map_err(|e| NumarckError::Io(format!("compaction read-back failed: {e}")))?;
        if back != bytes {
            let _ = store.quarantine(iteration, is_full);
            return Err(NumarckError::Corrupt(format!(
                "compaction write of iteration {iteration} failed read-back verification; \
                 quarantined"
            )));
        }
        Ok(())
    };
    journal.write_ahead(iteration, is_full, content_crc(bytes), RetryPolicy::none(), || {}, write)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::vars_bits_equal;
    use numarck::{Config, Strategy};
    use numarck_checkpoint::{CheckpointManager, ManagerPolicy, VariableSet};
    use numarck_prop::prelude::*;

    /// Removes its directory on drop, pass or fail.
    struct TempDir(std::path::PathBuf);

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// Iteration `it` of a smooth variable and one that pops to zero.
    fn vars(it: u64) -> VariableSet {
        let x = (0..64).map(|i| (1.0 + (i % 13) as f64) * (1.0 + 0.003 * it as f64)).collect();
        let z = (0..64u64)
            .map(|i| {
                if (i + it).is_multiple_of(4) {
                    0.0
                } else {
                    ((i * 7919 + it * 104_729) % 1000) as f64
                }
            })
            .collect();
        VariableSet::from([("x".to_string(), x), ("z".to_string(), z)])
    }

    /// A full at 0, then one segment after another: a run of `len` plain
    /// deltas (kind 0), a promoted full beside a plain delta (kind 1), or
    /// a merged delta over `len` clamped to 2..=4 iterations (kind 2).
    fn build(dir: &std::path::Path, segments: &[(u8, u64)]) -> CheckpointStore {
        let store = CheckpointStore::open(dir).unwrap();
        let widths: Vec<u64> = segments
            .iter()
            .map(|&(kind, len)| match kind {
                0 => len,
                1 => 1,
                _ => len.clamp(2, 4),
            })
            .collect();
        let cfg = Config::new(8, 0.001, Strategy::Clustering).unwrap();
        let mut mgr = CheckpointManager::new(store.clone(), cfg, ManagerPolicy::fixed(u64::MAX));
        for it in 0..=widths.iter().sum::<u64>() {
            mgr.checkpoint(it, &vars(it)).unwrap();
        }
        let engine = RestartEngine::new(store.clone());
        let mut last = 0;
        for (&(kind, _), &width) in segments.iter().zip(&widths) {
            let end = last + width;
            if kind == 1 {
                let vars = engine.restart_at(end).unwrap().vars;
                store.write(&CheckpointFile::new(end, CheckpointKind::Full(vars))).unwrap();
            } else if kind == 2 {
                let index = ChainIndex::load(&store).unwrap();
                let base = engine.restart_at(last).unwrap().vars;
                let window: Vec<CheckpointView> = (last + 1..=end)
                    .map(|it| {
                        CheckpointView::parse(index.map_file(&store, it, false)?, it, false)
                    })
                    .collect::<Result<_, _>>()
                    .unwrap();
                let merged = merge::merge_window(&base, &window).unwrap();
                store.write_raw(end, false, &merged.bytes).unwrap();
                (last + 1..end).for_each(|it| store.remove(it, false).unwrap());
            }
            last = end;
        }
        store
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Every window of a pass's forward walk is the merge a cold
        /// restart of its first iteration gives, byte for byte, and the
        /// state it hands on is a cold restart of its end, bit for bit.
        #[test]
        fn the_walk_merges_exactly_what_cold_merges_give(
            segments in numarck_prop::collection::vec((0u8..3, 1u64..14), 1..7),
            w in 2u64..6
        ) {
            static CASE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let case = CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let dir = std::env::temp_dir()
                .join(format!("numarck-walk-{}-{case}", std::process::id()));
            let _guard = TempDir(dir.clone());
            let store = build(&dir, &segments);
            let index = ChainIndex::load(&store).unwrap();
            let compactor = Compactor::new(CompactionConfig { merge_window: w, ..Default::default() });
            let mut walked = Vec::new();
            compactor.walk(&store, &index, |end, merged| walked.push((end, merged))).unwrap();

            let windows: u64 = plain_runs(&index).iter().map(|&(a, b)| (b + 1 - a) / w).sum();
            prop_assert_eq!(walked.len() as u64, windows);
            let engine = RestartEngine::new(store.clone());
            for (end, merged) in &walked {
                let first = end - w;
                let base = engine.restart_at(first).unwrap().vars;
                let window: Vec<CheckpointView> = (first + 1..=*end)
                    .map(|it| CheckpointView::parse(index.map_file(&store, it, false)?, it, false))
                    .collect::<Result<_, _>>()
                    .unwrap();
                let cold = merge::merge_window(&base, &window).unwrap();
                prop_assert!(merged.bytes == cold.bytes, "window ending at {end}");
                let restart = engine.restart_at(*end).unwrap().vars;
                prop_assert!(vars_bits_equal(&merged.expected, &restart), "state at {end}");
            }
        }
    }
}
