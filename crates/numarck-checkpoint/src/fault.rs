//! Fault injection for recovery testing.
//!
//! Checkpointing exists to survive faults, so the test suite must
//! exercise the failure paths: torn writes, bit rot, vanished files.
//! These helpers mutate stored checkpoint files in controlled ways and
//! [`verify_store`] reports which iterations remain restartable,
//! restarting them oldest first, each from the last success (a [`Head`]).

use std::fs;
use std::path::Path;
use std::sync::Arc;

use crate::chain::ChainIndex;
use crate::restart::{Head, RestartEngine};
use crate::store::CheckpointStore;

/// A way to damage a checkpoint file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Truncate the file to `keep` bytes.
    Truncate {
        /// Bytes to keep.
        keep: usize,
    },
    /// XOR the byte at `offset` with `mask`.
    BitFlip {
        /// Byte offset (clamped to the file).
        offset: usize,
        /// Mask to XOR in (0 is a no-op).
        mask: u8,
    },
    /// Delete the file entirely.
    Delete,
}

/// Apply `fault` to the file at `path`.
pub fn inject(path: &Path, fault: Fault) -> std::io::Result<()> {
    match fault {
        Fault::Truncate { keep } => {
            let data = fs::read(path)?;
            fs::write(path, &data[..keep.min(data.len())])
        }
        Fault::BitFlip { offset, mask } => {
            let mut data = fs::read(path)?;
            if data.is_empty() {
                return Ok(());
            }
            let o = offset.min(data.len() - 1);
            data[o] ^= mask;
            fs::write(path, data)
        }
        Fault::Delete => fs::remove_file(path),
    }
}

/// Health report for one iteration in a store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IterationHealth {
    /// Iteration number.
    pub iteration: u64,
    /// Whether [`RestartEngine::restart_at`] succeeds for it.
    pub restartable: bool,
}

/// Try to restart at every checkpointed iteration and report which ones
/// survive. Fault-tolerant diagnosis: one damaged delta makes every
/// later iteration (up to the next full) unrestartable, which this
/// report makes visible.
pub fn verify_store(store: &CheckpointStore) -> std::io::Result<Vec<IterationHealth>> {
    Ok(diagnose_store(store)?
        .into_iter()
        .map(|d| IterationHealth { iteration: d.iteration, restartable: d.error.is_none() })
        .collect())
}

/// [`IterationHealth`] with the *reason* an iteration is broken — what
/// the CLI's `verify --store` prints so an operator knows whether to
/// reach for `scrub`/`repair` or for the backups.
#[derive(Debug, Clone)]
pub struct IterationDiagnosis {
    /// Iteration number.
    pub iteration: u64,
    /// Whether this iteration's own file is a full checkpoint.
    pub is_full: bool,
    /// `None` when the iteration restarts cleanly; otherwise the error
    /// that stops it.
    pub error: Option<String>,
}

/// Like [`verify_store`], but keeps the error text per broken iteration.
///
/// Loads one [`ChainIndex`] and resolves every stored iteration with
/// it: one listing and one header read per file, then the walk.
pub fn diagnose_store(store: &CheckpointStore) -> std::io::Result<Vec<IterationDiagnosis>> {
    let index = ChainIndex::load(store)?;
    Ok(diagnose_index(&RestartEngine::new(store.clone()), &index).0)
}

/// [`diagnose_store`] over an index already loaded: one diagnosis per
/// file `index` holds, in store-listing order (fulls before deltas at
/// the same iteration), and the newest restartable iteration's state.
pub(crate) fn diagnose_index(
    engine: &RestartEngine,
    index: &ChainIndex,
) -> (Vec<IterationDiagnosis>, Option<Head>) {
    let mut out = Vec::with_capacity(index.file_count());
    let mut head = None;
    for iteration in index.iterations() {
        let restarted = engine.restart_with(index, iteration, head.as_ref());
        let error = restarted.as_ref().err().map(ToString::to_string);
        if let Ok(result) = restarted {
            head = Some(Head { iteration, vars: Arc::new(result.vars) });
        }
        let entry = index.entry(iteration).expect("iterated key");
        for (is_full, file) in [(true, entry.full), (false, entry.delta)] {
            if file.is_some() {
                out.push(IterationDiagnosis { iteration, is_full, error: error.clone() });
            }
        }
    }
    (out, head)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::{CheckpointManager, ManagerPolicy};
    use crate::store::testutil::TempDir;
    use crate::VariableSet;
    use numarck::{Config, Strategy};

    fn build(tmp: &TempDir, iters: u64, full_interval: u64) -> CheckpointStore {
        let store = CheckpointStore::open(&tmp.0).unwrap();
        let cfg = Config::new(8, 0.001, Strategy::Clustering).unwrap();
        let mut mgr =
            CheckpointManager::new(store.clone(), cfg, ManagerPolicy::fixed(full_interval));
        let mut state: Vec<f64> = (0..200).map(|i| 1.0 + (i % 9) as f64).collect();
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
        store
    }

    #[test]
    fn healthy_store_is_fully_restartable() {
        let tmp = TempDir::new("fault-healthy");
        let store = build(&tmp, 10, 4);
        let health = verify_store(&store).unwrap();
        assert_eq!(health.len(), 10);
        assert!(health.iter().all(|h| h.restartable));
    }

    #[test]
    fn corrupt_delta_breaks_only_its_chain_segment() {
        let tmp = TempDir::new("fault-delta");
        let store = build(&tmp, 12, 4);
        // Corrupt delta at iteration 5 (fulls at 0, 4, 8).
        inject(&store.path_of(5, false), Fault::BitFlip { offset: 40, mask: 0x08 }).unwrap();
        let health = verify_store(&store).unwrap();
        let map: std::collections::BTreeMap<u64, bool> =
            health.iter().map(|h| (h.iteration, h.restartable)).collect();
        // 0..=4 fine; 5..=7 broken; 8.. fine again.
        for it in 0..=4u64 {
            assert!(map[&it], "iteration {it} should survive");
        }
        for it in 5..=7u64 {
            assert!(!map[&it], "iteration {it} should be broken");
        }
        for it in 8..=11u64 {
            assert!(map[&it], "iteration {it} should survive");
        }
    }

    #[test]
    fn truncated_full_breaks_until_next_full() {
        let tmp = TempDir::new("fault-full");
        let store = build(&tmp, 9, 4);
        inject(&store.path_of(4, true), Fault::Truncate { keep: 64 }).unwrap();
        let health = verify_store(&store).unwrap();
        let map: std::collections::BTreeMap<u64, bool> =
            health.iter().map(|h| (h.iteration, h.restartable)).collect();
        for it in 0..=3u64 {
            assert!(map[&it]);
        }
        for it in 4..=7u64 {
            assert!(!map[&it], "iteration {it} depends on the damaged full");
        }
        assert!(map[&8]);
    }

    #[test]
    fn deleted_base_detected() {
        let tmp = TempDir::new("fault-delete");
        let store = build(&tmp, 4, 10);
        inject(&store.path_of(0, true), Fault::Delete).unwrap();
        let health = verify_store(&store).unwrap();
        assert!(health.iter().all(|h| !h.restartable));
    }

    #[test]
    fn diagnosis_carries_the_reason() {
        let tmp = TempDir::new("fault-diagnose");
        let store = build(&tmp, 6, 10);
        inject(&store.path_of(2, false), Fault::Truncate { keep: 10 }).unwrap();
        let report = diagnose_store(&store).unwrap();
        assert_eq!(report.len(), 6);
        assert!(report[0].is_full && report[0].error.is_none());
        assert!(report[1].error.is_none());
        for d in &report[2..] {
            let err = d.error.as_ref().expect("chain through truncated delta is broken");
            assert!(!err.is_empty());
            assert!(!d.is_full);
        }
    }

    #[test]
    fn a_diagnosis_maps_each_stored_file_once() {
        use crate::backend::{FaultSchedule, FaultyBackend};
        let tmp = TempDir::new("fault-reads");
        let backend = std::sync::Arc::new(FaultyBackend::new(FaultSchedule::new()));
        let store = CheckpointStore::open_with(&tmp.0, backend.clone()).unwrap();
        let cfg = Config::new(8, 0.001, Strategy::Clustering).unwrap();
        // Fulls at 0, 8, 16, 24, 32.
        let mut mgr = CheckpointManager::new(store.clone(), cfg, ManagerPolicy::fixed(8));
        let mut state: Vec<f64> = (0..200).map(|i| 1.0 + (i % 9) as f64).collect();
        for it in 0..40 {
            state.iter_mut().for_each(|v| *v *= 1.002);
            let mut vars = VariableSet::new();
            vars.insert("x".into(), state.clone());
            mgr.checkpoint(it, &vars).unwrap();
        }
        let reads = backend.reads_attempted();
        let report = diagnose_store(&store).unwrap();
        assert!(report.iter().all(|d| d.error.is_none()));
        assert_eq!(backend.reads_attempted() - reads, 40);
    }

    #[test]
    fn zero_mask_bitflip_is_harmless() {
        let tmp = TempDir::new("fault-noop");
        let store = build(&tmp, 3, 10);
        inject(&store.path_of(1, false), Fault::BitFlip { offset: 10, mask: 0 }).unwrap();
        assert!(verify_store(&store).unwrap().iter().all(|h| h.restartable));
    }
}
