//! Crash recovery: make a store directory consistent with its intent
//! journal before anything writes to it again (a serve session before
//! it takes traffic, `numarck compact` before its pass).
//!
//! The invariant the journal buys us: **an acknowledged iteration is
//! always restartable after a crash at any instruction boundary.** A
//! writer only acknowledges a checkpoint after the store rename landed,
//! so a crash can leave behind exactly three kinds of debris, all of
//! which this pass cleans up:
//!
//! 1. A stray `*.tmp` file — the crash hit between the temp-file write
//!    and the rename. The rename never happened, the iteration was
//!    never acknowledged: delete the temp file.
//! 2. An outstanding intent whose file verifies and carries the
//!    journaled content hash — the crash hit between the rename and the
//!    commit append. The write *completed*; mark it so and move on.
//! 3. An outstanding intent whose file is missing, stale (a valid file
//!    with another content hash: an earlier write at the same path), or
//!    damaged — the write never finished and was never acknowledged.
//!    Roll it back: leave a stale-but-valid file alone, quarantine a
//!    damaged one and run [`scrub::repair`] to re-anchor the chain.
//!
//! Each intent is judged by one parse-and-verify of the file at its
//! path. A file is valid when it opens as a [`CheckpointView`] under its
//! own name and verifies — so one whose header names another iteration,
//! or whose payload kind contradicts its extension, is damaged. The
//! content hash is the file's CRC trailer ([`content_crc`]), the value
//! the writer journaled; it tells two intact files apart, where the
//! CRC-32 of a whole intact file is one residue constant for every file.
//! An intent journaled by a build that recorded that whole-file CRC
//! (`0x2144DF1C`) therefore matches no trailer: it resolves as rolled
//! back and a valid file at its path is kept.
//!
//! Either way the journal ends empty and every acknowledged iteration
//! restarts. The session's first post-recovery checkpoint is a forced
//! full (the manager starts with no previous iteration), so chain
//! integrity never depends on recovery guessing delta lineage.

use std::sync::Arc;

use numarck::error::NumarckError;

use crate::format::content_crc;
use crate::journal::IntentJournal;
use crate::{scrub, CheckpointStore, CheckpointView};

/// What a recovery pass found and did for one store directory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Outstanding (uncommitted) intents replayed from the journal.
    pub replayed: usize,
    /// Intents whose store write is verifiably on disk (crash landed
    /// between the rename and the commit record).
    pub completed: usize,
    /// Intents rolled back: the write never finished and the iteration
    /// was never acknowledged.
    pub rolled_back: usize,
    /// Stray `*.tmp` files removed.
    pub tmp_removed: usize,
    /// Whether a half-applied write was quarantined and the chain
    /// re-anchored via [`scrub::repair`].
    pub repaired: bool,
}

impl RecoveryReport {
    /// True when the pass found nothing to do — a clean shutdown.
    pub fn is_noop(&self) -> bool {
        self.replayed == 0 && self.tmp_removed == 0
    }
}

/// Recover one store directory: sweep temp files, replay the intent
/// journal, resolve every outstanding intent, and hand back the (now
/// empty) journal for the caller to keep writing through.
pub fn recover_session(
    store: &CheckpointStore,
) -> Result<(IntentJournal, RecoveryReport), NumarckError> {
    let backend = Arc::clone(store.backend());
    let mut report = RecoveryReport::default();

    // 1. Stray temp files: writes that never reached their rename.
    let names = backend
        .list_dir(store.dir())
        .map_err(|e| NumarckError::Io(format!("recovery listing failed: {e}")))?;
    for name in names {
        if name.ends_with(".tmp") {
            backend
                .remove_file(&store.dir().join(&name))
                .map_err(|e| NumarckError::Io(format!("removing {name} failed: {e}")))?;
            report.tmp_removed += 1;
        }
    }

    // 2. Replay the journal and resolve every outstanding intent.
    let (mut journal, outstanding) = IntentJournal::open(store.dir(), Arc::clone(&backend))
        .map_err(|e| NumarckError::Io(format!("journal replay failed: {e}")))?;
    report.replayed = outstanding.len();
    let mut need_repair = false;
    for intent in &outstanding {
        match store.map_raw(intent.iteration, intent.is_full) {
            Ok(bytes) => {
                let intended = bytes.len() >= 4 && content_crc(&bytes) == intent.content_crc;
                match CheckpointView::parse(bytes, intent.iteration, intent.is_full)
                    .and_then(|view| view.verify())
                {
                    // Rename landed, commit record didn't. The write is done.
                    Ok(()) if intended => report.completed += 1,
                    // A valid earlier write at the same path; the intended
                    // overwrite never happened. Keep it.
                    Ok(()) => report.rolled_back += 1,
                    Err(_) => {
                        // Neither the intended bytes nor a valid older
                        // file: half-applied. Quarantine and re-anchor.
                        report.rolled_back += 1;
                        store.quarantine(intent.iteration, intent.is_full).map_err(|e| {
                            NumarckError::Io(format!(
                                "quarantining iter={} failed: {e}",
                                intent.iteration
                            ))
                        })?;
                        need_repair = true;
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                // The write never started. Nothing on disk to undo.
                report.rolled_back += 1;
            }
            Err(e) => {
                return Err(NumarckError::Io(format!(
                    "recovery read of iter={} failed: {e}",
                    intent.iteration
                )));
            }
        }
    }

    // 3. If we quarantined a half-applied file, downstream deltas may
    // now be orphaned; repair re-anchors the chain at the newest
    // restartable iteration.
    if need_repair {
        scrub::repair(store)?;
        report.repaired = true;
    }

    // 4. Every intent is resolved: start the journal fresh. An already
    // empty journal is left untouched — recovery of a clean session
    // must not write at all.
    if !journal.is_empty() {
        journal
            .reset()
            .map_err(|e| NumarckError::Io(format!("journal reset failed: {e}")))?;
    }

    Ok((journal, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::{CheckpointManager, ManagerPolicy};
    use crate::store::testutil::TempDir;
    use crate::{CheckpointFile, CheckpointKind, FsBackend, RestartEngine, VariableSet};
    use numarck::{Config, Strategy};

    fn vars(iteration: u64) -> VariableSet {
        let mut v = VariableSet::new();
        v.insert(
            "x".into(),
            (0..150).map(|j| (j as f64 + 1.0) * 1.002f64.powi(iteration as i32)).collect(),
        );
        v
    }

    fn config() -> Config {
        Config::new(8, 0.001, Strategy::Clustering).unwrap()
    }

    /// A store with iterations 0..=n ingested through the journal the
    /// way the server does it: prepare → begin → commit → commit.
    fn build(tmp: &TempDir, n: u64) -> (CheckpointStore, IntentJournal) {
        let store = CheckpointStore::open_with(&tmp.0, Arc::new(FsBackend)).unwrap();
        let (mut journal, outstanding) =
            IntentJournal::open(store.dir(), Arc::clone(store.backend())).unwrap();
        assert!(outstanding.is_empty());
        let mut manager =
            CheckpointManager::new(store.clone(), config(), ManagerPolicy::fixed(4));
        for i in 0..=n {
            let prepared = manager.prepare(i, &vars(i)).unwrap();
            let seq = journal
                .begin(prepared.iteration(), prepared.is_full(), prepared.content_crc())
                .unwrap();
            manager.commit(prepared).unwrap();
            journal.commit(seq).unwrap();
        }
        (store, journal)
    }

    #[test]
    fn clean_shutdown_recovers_to_a_noop() {
        let tmp = TempDir::new("recovery-clean");
        let (store, journal) = build(&tmp, 5);
        drop(journal);
        let (_, report) = recover_session(&store).unwrap();
        assert!(report.is_noop(), "unexpected work: {report:?}");
        assert_eq!(report.completed, 0);
    }

    #[test]
    fn stray_tmp_file_is_swept() {
        let tmp = TempDir::new("recovery-tmp");
        let (store, _) = build(&tmp, 3);
        std::fs::write(tmp.0.join("ckpt_0000000004.tmp"), b"half a write").unwrap();
        let (_, report) = recover_session(&store).unwrap();
        assert_eq!(report.tmp_removed, 1);
        assert!(!tmp.0.join("ckpt_0000000004.tmp").exists());
    }

    #[test]
    fn intent_with_landed_write_counts_as_completed() {
        let tmp = TempDir::new("recovery-landed");
        let (store, mut journal) = build(&tmp, 3);
        // Crash between rename and commit append: write iteration 4 by
        // hand, journal the intent, skip the commit record.
        let mut manager =
            CheckpointManager::new(store.clone(), config(), ManagerPolicy::fixed(4));
        let prepared = manager.prepare(4, &vars(4)).unwrap();
        journal
            .begin(prepared.iteration(), prepared.is_full(), prepared.content_crc())
            .unwrap();
        manager.commit(prepared).unwrap();
        drop(journal);

        let (_, report) = recover_session(&store).unwrap();
        assert_eq!(report.replayed, 1);
        assert_eq!(report.completed, 1);
        assert_eq!(report.rolled_back, 0);
        assert!(!report.repaired);
        // The iteration the crash interrupted is restartable.
        let engine = RestartEngine::new(store);
        assert!(engine.restart_at(4).is_ok());
    }

    #[test]
    fn intent_with_no_write_rolls_back() {
        let tmp = TempDir::new("recovery-missing");
        let (store, mut journal) = build(&tmp, 3);
        // Crash right after the intent append: nothing on disk.
        journal.begin(4, false, 0xDEAD_BEEF).unwrap();
        drop(journal);
        let (_, report) = recover_session(&store).unwrap();
        assert_eq!(report.replayed, 1);
        assert_eq!(report.rolled_back, 1);
        assert!(!report.repaired);
        // Iterations 0..=3 are untouched.
        let engine = RestartEngine::new(store);
        assert!(engine.restart_at(3).is_ok());
    }

    #[test]
    fn half_applied_write_is_quarantined_and_chain_repaired() {
        let tmp = TempDir::new("recovery-torn");
        let (store, mut journal) = build(&tmp, 3);
        journal.begin(4, false, 0xDEAD_BEEF).unwrap();
        // A torn rename: the destination exists but holds garbage that
        // matches neither the journaled CRC nor any valid checkpoint.
        std::fs::write(tmp.0.join("ckpt_0000000004.delta"), b"torn garbage").unwrap();
        drop(journal);

        let (_, report) = recover_session(&store).unwrap();
        assert_eq!(report.rolled_back, 1);
        assert!(report.repaired);
        // The garbage is gone from the chain and 0..=3 still restart.
        let engine = RestartEngine::new(store.clone());
        assert!(engine.restart_at(3).is_ok());
        assert!(store.read_raw(4, false).is_err());
    }

    /// The content hash a writer journals for a rewrite of delta 5 that
    /// differs from the one [`build`] stores: prepared in a throwaway
    /// store, never written.
    fn rewrite_of_5_crc() -> u32 {
        let tmp = TempDir::new("recovery-rewrite");
        let store = CheckpointStore::open_with(&tmp.0, Arc::new(FsBackend)).unwrap();
        let mut manager = CheckpointManager::new(store, config(), ManagerPolicy::fixed(4));
        manager.checkpoint(4, &vars(4)).unwrap();
        let prepared = manager.prepare(5, &vars(7)).unwrap();
        assert!(!prepared.is_full());
        prepared.content_crc()
    }

    #[test]
    fn stale_valid_file_under_an_intent_is_left_alone() {
        let tmp = TempDir::new("recovery-stale");
        // Iterations 0..=5 exist and committed; journal an uncommitted
        // *re-write* of iteration 5 (a delta) that never happened. The
        // old valid file must survive.
        let (store, mut journal) = build(&tmp, 5);
        let old = store.read_raw(5, false).unwrap();
        journal.begin(5, false, rewrite_of_5_crc()).unwrap();
        drop(journal);

        let (_, report) = recover_session(&store).unwrap();
        assert_eq!((report.rolled_back, report.completed), (1, 0));
        assert!(!report.repaired);
        assert_eq!(store.read_raw(5, false).unwrap(), old);
    }

    #[test]
    fn whole_file_crc_intent_rolls_back_and_keeps_the_file() {
        // A build that journaled the CRC-32 of the whole file recorded
        // the residue constant for every write. Its landed write is
        // counted rolled back, and the valid file stays in service.
        let tmp = TempDir::new("recovery-residue");
        let (store, mut journal) = build(&tmp, 5);
        let landed = store.read_raw(5, false).unwrap();
        assert_eq!(numarck::serialize::crc32(&landed), 0x2144_DF1C);
        journal.begin(5, false, 0x2144_DF1C).unwrap();
        drop(journal);

        let (_, report) = recover_session(&store).unwrap();
        assert_eq!((report.rolled_back, report.completed), (1, 0));
        assert!(!report.repaired);
        assert_eq!(store.read_raw(5, false).unwrap(), landed);
        assert!(RestartEngine::new(store).restart_at(5).is_ok());
    }

    #[test]
    fn file_contradicting_its_name_under_an_intent_is_quarantined() {
        // Valid bytes at the intended path whose header contradicts the
        // name — another iteration, or a full payload under `.delta` —
        // are damage, not a stale earlier write.
        let crc = rewrite_of_5_crc();
        for case in ["iteration", "kind"] {
            let tmp = TempDir::new(&format!("recovery-{case}"));
            let (store, mut journal) = build(&tmp, 5);
            journal.begin(5, false, crc).unwrap();
            let bytes = match case {
                "iteration" => store.read_raw(3, false).unwrap(),
                _ => CheckpointFile::new(5, CheckpointKind::Full(vars(5))).to_bytes(),
            };
            std::fs::write(store.path_of(5, false), bytes).unwrap();
            drop(journal);

            let (_, report) = recover_session(&store).unwrap();
            assert_eq!(report.rolled_back, 1, "{case}");
            assert!(report.repaired, "{case}");
            assert!(store.read_raw(5, false).is_err(), "{case}: file left in service");
            assert!(store.quarantine_dir().join("ckpt_0000000005.delta").is_file(), "{case}");
            assert!(RestartEngine::new(store).restart_at(4).is_ok(), "{case}");
        }
    }

    #[test]
    fn recovered_journal_is_empty_and_usable() {
        let tmp = TempDir::new("recovery-reuse");
        let (store, mut journal) = build(&tmp, 2);
        journal.begin(3, false, 0x1).unwrap();
        drop(journal);
        let (mut journal, _) = recover_session(&store).unwrap();
        assert_eq!(journal.outstanding(), 0);
        // Sequence numbering keeps working after reset.
        let seq = journal.begin(3, false, 0x2).unwrap();
        journal.commit(seq).unwrap();
    }
}
