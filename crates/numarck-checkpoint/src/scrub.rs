//! Offline integrity scrubbing and chain repair.
//!
//! [`scrub`] is the detector: it re-reads every stored file, validates
//! it end to end (CRC, header, iteration/extension agreement) and moves
//! anything damaged into the store's `quarantine/` directory — never
//! deleting, so post-mortems keep their evidence.
//!
//! [`repair`] is the responder: after scrubbing it quarantines the
//! now-orphaned chain segments (intact deltas whose base or predecessor
//! is gone), then *re-anchors* the store by materializing a fresh full
//! checkpoint at the newest restartable iteration, so future deltas and
//! prunes have a sound base. The materialized full is built by chain
//! replay, so it carries the chain's accumulated (tolerance-bounded)
//! error — see DESIGN.md's failure-model section.

use std::path::PathBuf;
use std::sync::Arc;

use numarck::error::NumarckError;

use crate::chain::ChainIndex;
use crate::fault::diagnose_index;
use crate::format::{CheckpointFile, CheckpointKind, CheckpointView};
use crate::mmapio::AlignedBytes;
use crate::replicated::plurality;
use crate::restart::{Head, LostIteration, RestartEngine};
use crate::store::{CheckpointStore, StoreEntry};

/// One file the scrubber pulled out of service.
#[derive(Debug, Clone)]
pub struct ScrubFinding {
    /// The damaged entry.
    pub entry: StoreEntry,
    /// What the validation failure was.
    pub reason: String,
    /// Where the file now lives.
    pub quarantined_to: PathBuf,
}

/// Cross-replica findings from scrubbing a store whose backend is a
/// [`ReplicatedBackend`](crate::replicated::ReplicatedBackend).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicaScrubReport {
    /// Files whose replica copies were cross-compared.
    pub files_compared: usize,
    /// Replica copies rewritten from a quorum-agreeing peer (read-repair).
    pub repaired: usize,
    /// Files where no replica held a valid copy; these fall through to
    /// the ordinary quarantine path.
    pub quorum_failures: usize,
}

/// Result of a [`scrub`] pass.
#[derive(Debug, Clone)]
pub struct ScrubReport {
    /// Files examined.
    pub checked: usize,
    /// Files that failed validation and were quarantined.
    pub quarantined: Vec<ScrubFinding>,
    /// Cross-replica comparison results — `None` unless the store sits
    /// on a replicated backend.
    pub replicas: Option<ReplicaScrubReport>,
}

impl ScrubReport {
    /// True when every stored file validated. Read-repaired replica
    /// copies don't count against cleanliness: after the repair the
    /// store *is* clean, and the repair itself is visible in
    /// [`ScrubReport::replicas`].
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty()
    }
}

/// Validate every stored checkpoint file; quarantine the ones that fail.
///
/// A file fails when its bytes don't parse (bad magic, bad CRC, torn
/// tail, a section that fails its own CRC or geometry), when its header
/// claims a different iteration than its name, or when its payload kind
/// contradicts its extension — exactly what
/// [`CheckpointStore::open_file`] plus [`CheckpointView::verify`]
/// reject. Damaged files are *moved* to `quarantine/`, not deleted.
///
/// On a replicated backend a cross-replica pass runs first: every
/// replica's copy of every file is validated independently, and copies
/// that are missing or diverge from the quorum-agreeing content are
/// rewritten from a healthy peer (read-repair), so one scrub restores
/// full replication after a replica loses or corrupts files. Only when
/// *no* replica holds a valid copy does the file fall through to
/// quarantine.
pub fn scrub(store: &CheckpointStore) -> Result<ScrubReport, NumarckError> {
    let entries = store
        .list()
        .map_err(|e| NumarckError::Io(format!("store listing failed: {e}")))?;
    let checked = entries.len();
    crate::obs::scrub_runs_total().inc();
    crate::obs::scrub_checked_total().add(checked as u64);
    let replicas = match store.backend().as_replicated() {
        Some(rb) => Some(scrub_replicas(store, rb, &entries)?),
        None => None,
    };
    let mut quarantined = Vec::new();
    for entry in entries {
        let Some(reason) = validate(store, entry) else { continue };
        let quarantined_to = store
            .quarantine(entry.iteration, entry.is_full)
            .map_err(|e| NumarckError::Io(format!("quarantine failed: {e}")))?;
        crate::obs::quarantined_total().inc();
        numarck_obs::Registry::global().events().push(
            numarck_obs::Level::Error,
            format!("ckpt scrub quarantined iter={}: {reason}", entry.iteration),
        );
        quarantined.push(ScrubFinding { entry, reason, quarantined_to });
    }
    Ok(ScrubReport { checked, quarantined, replicas })
}

/// Cross-compare every replica's copy of every listed file, rewriting
/// missing/divergent copies from the plurality of *validating* copies.
///
/// When no copy validates, the replicas are still aligned to the
/// byte-plurality of whatever copies exist — corrupt bytes, but
/// identical corrupt bytes, so the quarantine rename that follows can
/// reach its write quorum instead of wedging the scrub.
fn scrub_replicas(
    store: &CheckpointStore,
    rb: &crate::replicated::ReplicatedBackend,
    entries: &[StoreEntry],
) -> Result<ReplicaScrubReport, NumarckError> {
    let mut report = ReplicaScrubReport::default();
    for entry in entries {
        report.files_compared += 1;
        let path = store.path_of(entry.iteration, entry.is_full);
        let copies: Vec<Option<Vec<u8>>> =
            (0..rb.replica_count()).map(|i| rb.read_replica(i, &path).ok()).collect();
        let valid = |bytes: &[u8]| {
            CheckpointView::parse(AlignedBytes::copy_from(bytes), entry.iteration, entry.is_full)
                .and_then(|view| view.verify())
                .is_ok()
        };
        let reference =
            plurality(copies.iter().filter_map(|c| c.as_deref()).filter(|b| valid(b)));
        match reference {
            Some(reference) => {
                let mut fixed = 0usize;
                for (i, copy) in copies.iter().enumerate() {
                    if copy.as_deref() == Some(reference) {
                        continue;
                    }
                    rb.write_replica(i, &path, reference).map_err(|e| {
                        NumarckError::Io(format!("read-repair of replica {i} failed: {e}"))
                    })?;
                    crate::obs::replica_repairs_total().inc();
                    report.repaired += 1;
                    fixed += 1;
                }
                if fixed > 0 {
                    numarck_obs::Registry::global().events().push(
                        numarck_obs::Level::Warn,
                        format!(
                            "ckpt scrub read-repaired {fixed} replica cop{} of iter={}",
                            if fixed == 1 { "y" } else { "ies" },
                            entry.iteration
                        ),
                    );
                }
            }
            None => {
                report.quorum_failures += 1;
                crate::obs::replica_quorum_failures_total().inc();
                numarck_obs::Registry::global().events().push(
                    numarck_obs::Level::Error,
                    format!("ckpt scrub: no replica holds a valid copy of iter={}", entry.iteration),
                );
                let best = plurality(copies.iter().filter_map(|c| c.as_deref())).map(<[u8]>::to_vec);
                if let Some(best) = best {
                    for (i, copy) in copies.iter().enumerate() {
                        if copy.as_deref() != Some(best.as_slice()) {
                            rb.write_replica(i, &path, &best).map_err(|e| {
                                NumarckError::Io(format!(
                                    "replica {i} alignment before quarantine failed: {e}"
                                ))
                            })?;
                        }
                    }
                }
            }
        }
    }
    Ok(report)
}

/// `None` when the entry validates; otherwise why it doesn't.
fn validate(store: &CheckpointStore, entry: StoreEntry) -> Option<String> {
    store
        .open_file(entry.iteration, entry.is_full)
        .and_then(|view| view.verify())
        .err()
        .map(|e| e.to_string())
}

/// Result of a [`repair`] pass.
#[derive(Debug, Clone)]
pub struct RepairReport {
    /// The scrub that ran first.
    pub scrub: ScrubReport,
    /// The iteration the store was re-anchored at (newest restartable),
    /// or `None` when nothing in the store is restartable.
    pub anchored_at: Option<u64>,
    /// Whether a fresh full checkpoint was materialized at the anchor
    /// (false when the anchor already was a full checkpoint).
    pub wrote_full: bool,
    /// Iterations given up during repair: their files were intact but
    /// their restart chains ran through quarantined data.
    pub lost: Vec<LostIteration>,
}

/// Scrub, then put the store back into a fully-restartable state.
///
/// After the scrub pass, intact files can still be unrestartable — a
/// delta whose base full or predecessor delta got quarantined is an
/// orphan. `repair` quarantines those orphans (recording them in
/// `lost`), then writes a fresh full checkpoint at the newest
/// restartable iteration if that iteration only had a delta, so the
/// store ends with every listed iteration restartable and a full
/// checkpoint at its head.
///
/// Loads one [`ChainIndex`] after the scrub and diagnoses every
/// iteration with it in one forward walk; the walk's last successful
/// restart is the anchor's state, so the anchor is not replayed again.
pub fn repair(store: &CheckpointStore) -> Result<RepairReport, NumarckError> {
    let scrub_report = scrub(store)?;
    let index =
        ChainIndex::load(store).map_err(|e| NumarckError::Io(format!("diagnosis failed: {e}")))?;
    let (diagnosis, head) = diagnose_index(&RestartEngine::new(store.clone()), &index);
    let mut lost = Vec::new();
    for d in &diagnosis {
        if let Some(reason) = &d.error {
            store
                .quarantine(d.iteration, d.is_full)
                .map_err(|e| NumarckError::Io(format!("quarantine failed: {e}")))?;
            lost.push(LostIteration { iteration: d.iteration, reason: reason.clone() });
        }
    }
    // Newest-first reads better in reports (mirrors degraded restart).
    lost.sort_by_key(|l| std::cmp::Reverse(l.iteration));
    let anchored_at = head.as_ref().map(|h| h.iteration);
    let wrote_full = match head.filter(|h| index.file(h.iteration, true).is_none()) {
        Some(Head { iteration, vars }) => {
            let kind = CheckpointKind::Full(Arc::unwrap_or_clone(vars));
            let file = CheckpointFile::new(iteration, kind);
            store
                .write(&file)
                .map_err(|e| NumarckError::Io(format!("anchor write failed: {e}")))?;
            true
        }
        None => false,
    };
    crate::obs::repairs_total().inc();
    crate::obs::repair_lost_total().add(lost.len() as u64);
    if !lost.is_empty() || wrote_full {
        numarck_obs::Registry::global().events().push(
            numarck_obs::Level::Info,
            format!(
                "ckpt repair anchored_at={anchored_at:?} wrote_full={wrote_full} lost={}",
                lost.len()
            ),
        );
    }
    Ok(RepairReport { scrub: scrub_report, anchored_at, wrote_full, lost })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::StorageBackend;
    use crate::fault::{inject, verify_store, Fault};
    use crate::manager::{CheckpointManager, ManagerPolicy};
    use crate::replicated::ReplicatedBackend;
    use crate::store::testutil::TempDir;
    use crate::VariableSet;
    use numarck::{Config, Strategy};
    use std::sync::Arc;

    fn fill(store: &CheckpointStore, iters: u64, full_interval: u64) {
        let cfg = Config::new(8, 0.001, Strategy::Clustering).unwrap();
        let mut mgr =
            CheckpointManager::new(store.clone(), cfg, ManagerPolicy::fixed(full_interval));
        let mut state: Vec<f64> = (0..150).map(|i| 1.0 + (i % 9) as f64).collect();
        for it in 0..iters {
            if it > 0 {
                for v in state.iter_mut() {
                    *v *= 1.002;
                }
            }
            let mut vars = VariableSet::new();
            vars.insert("x".into(), state.clone());
            mgr.checkpoint(it, &vars).unwrap();
        }
    }

    fn build(tmp: &TempDir, iters: u64, full_interval: u64) -> CheckpointStore {
        let store = CheckpointStore::open(&tmp.0).unwrap();
        fill(&store, iters, full_interval);
        store
    }

    /// A store over three fs replicas (write quorum 2) plus the backend
    /// handle for poking at individual replicas.
    fn build_replicated(
        tmp: &TempDir,
        iters: u64,
        full_interval: u64,
    ) -> (CheckpointStore, Arc<ReplicatedBackend>) {
        let rb = Arc::new(ReplicatedBackend::with_fs_replicas(&tmp.0, 3, 2).unwrap());
        let store =
            CheckpointStore::open_with(&tmp.0, rb.clone() as Arc<dyn StorageBackend>).unwrap();
        fill(&store, iters, full_interval);
        (store, rb)
    }

    /// Physical on-disk path of replica `i`'s copy of an entry.
    fn replica_path(tmp: &TempDir, i: usize, store: &CheckpointStore, it: u64, full: bool) -> PathBuf {
        let name = store.path_of(it, full);
        tmp.0.join(format!("@replica-{i}")).join(name.file_name().unwrap())
    }

    #[test]
    fn scrub_of_healthy_store_is_clean_and_touches_nothing() {
        let tmp = TempDir::new("scrub-clean");
        let store = build(&tmp, 10, 4);
        let report = scrub(&store).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.checked, 10);
        assert_eq!(store.list().unwrap().len(), 10);
    }

    #[test]
    fn scrub_quarantines_exactly_the_damaged_files() {
        let tmp = TempDir::new("scrub-quarantine");
        let store = build(&tmp, 12, 4);
        inject(&store.path_of(5, false), Fault::BitFlip { offset: 33, mask: 0x40 }).unwrap();
        inject(&store.path_of(9, false), Fault::Truncate { keep: 12 }).unwrap();
        let report = scrub(&store).unwrap();
        assert_eq!(report.checked, 12);
        let bad: Vec<u64> = report.quarantined.iter().map(|f| f.entry.iteration).collect();
        assert_eq!(bad, vec![5, 9]);
        for f in &report.quarantined {
            assert!(f.quarantined_to.starts_with(store.quarantine_dir()));
            assert!(std::fs::metadata(&f.quarantined_to).unwrap().is_file());
            assert!(!f.reason.is_empty());
        }
        // The ten healthy files are still in service.
        assert_eq!(store.list().unwrap().len(), 10);
        // A second scrub finds nothing left to do.
        assert!(scrub(&store).unwrap().is_clean());
    }

    #[test]
    fn scrub_catches_name_header_mismatch() {
        let tmp = TempDir::new("scrub-mismatch");
        let store = build(&tmp, 2, 10);
        // Copy iteration 0's full under iteration 7's name: valid CRC,
        // lying name.
        let bytes = store.read_raw(0, true).unwrap();
        std::fs::write(store.path_of(7, true), bytes).unwrap();
        let report = scrub(&store).unwrap();
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].entry.iteration, 7);
        assert!(report.quarantined[0].reason.contains("claims iteration 0"));
    }

    #[test]
    fn repair_reanchors_after_mid_chain_damage() {
        let tmp = TempDir::new("repair-anchor");
        // Fulls at 0, 4, 8; deltas to 10.
        let store = build(&tmp, 11, 4);
        inject(&store.path_of(9, false), Fault::BitFlip { offset: 50, mask: 0x02 }).unwrap();
        let report = repair(&store).unwrap();
        assert_eq!(report.scrub.quarantined.len(), 1);
        // Iteration 10's file was intact but orphaned by losing 9.
        let lost: Vec<u64> = report.lost.iter().map(|l| l.iteration).collect();
        assert_eq!(lost, vec![10]);
        // Newest restartable was 8 — already a full, so nothing written.
        assert_eq!(report.anchored_at, Some(8));
        assert!(!report.wrote_full);
        // The store is fully restartable again.
        assert!(verify_store(&store).unwrap().iter().all(|h| h.restartable));
    }

    #[test]
    fn repair_materializes_a_full_when_the_anchor_was_a_delta() {
        let tmp = TempDir::new("repair-full");
        // Fulls at 0, 4, 8; deltas to 10; newest restartable (10) is a
        // delta, so repair must write a full there.
        let store = build(&tmp, 11, 4);
        inject(&store.path_of(2, false), Fault::Truncate { keep: 8 }).unwrap();
        let report = repair(&store).unwrap();
        assert_eq!(report.anchored_at, Some(10));
        assert!(report.wrote_full);
        // Iterations 2 and 3 rode on the truncated delta.
        let lost: Vec<u64> = report.lost.iter().map(|l| l.iteration).collect();
        assert_eq!(lost, vec![3]);
        assert!(std::fs::metadata(store.path_of(10, true)).unwrap().is_file());
        assert!(verify_store(&store).unwrap().iter().all(|h| h.restartable));
        // The materialized full carries only the chain's bounded error:
        // restarting at 10 is now a zero-delta read of it.
        let r = RestartEngine::new(store.clone()).restart_at(10).unwrap();
        assert_eq!(r.base_iteration, 10);
        assert_eq!(r.deltas_applied, 0);
    }

    #[test]
    fn repair_of_unrecoverable_store_reports_no_anchor() {
        let tmp = TempDir::new("repair-empty");
        let store = build(&tmp, 3, 10);
        // Destroy the only full: nothing restarts.
        inject(&store.path_of(0, true), Fault::Truncate { keep: 4 }).unwrap();
        let report = repair(&store).unwrap();
        assert_eq!(report.anchored_at, None);
        assert!(!report.wrote_full);
        assert_eq!(report.lost.len(), 2, "both orphan deltas recorded");
        assert!(store.list().unwrap().is_empty());
    }

    #[test]
    fn replica_scrub_of_healthy_store_repairs_nothing() {
        let tmp = TempDir::new("repl-scrub-clean");
        let (store, _rb) = build_replicated(&tmp, 6, 3);
        let report = scrub(&store).unwrap();
        assert!(report.is_clean());
        let rep = report.replicas.expect("replicated store must get a replica pass");
        assert_eq!(rep, ReplicaScrubReport { files_compared: 6, repaired: 0, quorum_failures: 0 });
    }

    #[test]
    fn replica_scrub_repairs_a_deleted_copy() {
        let tmp = TempDir::new("repl-scrub-del");
        let (store, rb) = build_replicated(&tmp, 6, 3);
        std::fs::remove_file(replica_path(&tmp, 0, &store, 1, false)).unwrap();
        // Majority reads keep the chain restartable even before scrub.
        assert!(verify_store(&store).unwrap().iter().all(|h| h.restartable));
        let before = crate::obs::replica_repairs_total().get();
        let report = scrub(&store).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.replicas.unwrap().repaired, 1);
        assert!(crate::obs::replica_repairs_total().get() > before);
        // Replica 0's copy is back and byte-identical to its peers.
        let path = store.path_of(1, false);
        assert_eq!(rb.read_replica(0, &path).unwrap(), rb.read_replica(1, &path).unwrap());
        // A second pass finds nothing left to repair.
        assert_eq!(scrub(&store).unwrap().replicas.unwrap().repaired, 0);
    }

    #[test]
    fn replica_scrub_repairs_a_bit_rotted_copy() {
        let tmp = TempDir::new("repl-scrub-rot");
        let (store, rb) = build_replicated(&tmp, 6, 3);
        inject(&replica_path(&tmp, 1, &store, 3, true), Fault::BitFlip { offset: 40, mask: 0x10 })
            .unwrap();
        let report = scrub(&store).unwrap();
        assert!(report.is_clean(), "rot on one replica is repaired, not quarantined");
        assert_eq!(report.replicas.unwrap().repaired, 1);
        let path = store.path_of(3, true);
        let copies: Vec<_> = (0..3).map(|i| rb.read_replica(i, &path).unwrap()).collect();
        assert!(copies.windows(2).all(|w| w[0] == w[1]));
        assert!(verify_store(&store).unwrap().iter().all(|h| h.restartable));
    }

    #[test]
    fn replica_scrub_restores_a_wiped_replica() {
        let tmp = TempDir::new("repl-scrub-wipe");
        let (store, rb) = build_replicated(&tmp, 6, 3);
        // Lose replica 2's entire contents.
        for e in store.list().unwrap() {
            std::fs::remove_file(replica_path(&tmp, 2, &store, e.iteration, e.is_full)).unwrap();
        }
        let report = scrub(&store).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.replicas.unwrap().repaired, 6, "one rewrite per lost file");
        for e in store.list().unwrap() {
            let path = store.path_of(e.iteration, e.is_full);
            assert_eq!(rb.read_replica(2, &path).unwrap(), rb.read_replica(0, &path).unwrap());
        }
    }

    #[test]
    fn replica_scrub_quarantines_when_no_copy_is_valid() {
        let tmp = TempDir::new("repl-scrub-allbad");
        let (store, _rb) = build_replicated(&tmp, 6, 3);
        // Damage every replica's copy of the same delta — no quorum of
        // valid bytes exists anywhere.
        for i in 0..3 {
            inject(&replica_path(&tmp, i, &store, 4, false), Fault::Truncate { keep: 10 + i })
                .unwrap();
        }
        let before = crate::obs::replica_quorum_failures_total().get();
        let report = scrub(&store).unwrap();
        assert_eq!(report.replicas.unwrap().quorum_failures, 1);
        assert!(crate::obs::replica_quorum_failures_total().get() > before);
        let bad: Vec<u64> = report.quarantined.iter().map(|f| f.entry.iteration).collect();
        assert_eq!(bad, vec![4]);
        // The evidence survives in (every replica's) quarantine dir.
        assert!(std::fs::metadata(
            tmp.0.join("@replica-0").join(crate::store::QUARANTINE_DIR).join("ckpt_0000000004.delta")
        )
        .unwrap()
        .is_file());
        // Repair re-anchors around the loss.
        let rep = repair(&store).unwrap();
        assert!(verify_store(&store).unwrap().iter().all(|h| h.restartable));
        assert!(rep.lost.iter().all(|l| l.iteration == 5), "only the orphaned follower is lost");
    }

    #[test]
    fn repair_of_healthy_store_is_a_noop() {
        let tmp = TempDir::new("repair-noop");
        let store = build(&tmp, 9, 4);
        let report = repair(&store).unwrap();
        assert!(report.scrub.is_clean());
        assert!(report.lost.is_empty());
        // Fulls land at 0, 4, 8, so the anchor is already a full.
        assert_eq!(report.anchored_at, Some(8));
        assert!(!report.wrote_full);
        assert_eq!(store.list().unwrap().len(), 9);
    }
}
