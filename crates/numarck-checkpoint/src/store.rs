//! A directory of checkpoint files.
//!
//! Files are named `ckpt_<iteration>.<full|delta>`. Writes go through a
//! temp file + rename + parent-directory fsync so a crash mid-write (or
//! just after the rename) never loses or half-applies an entry; the CRC
//! catches torn writes that slip below the rename discipline anyway.
//!
//! All filesystem traffic goes through a
//! [`crate::backend::StorageBackend`], so tests inject
//! faults at the syscall boundary instead of mutating files after the
//! fact. Files that fail validation can be moved into a `quarantine/`
//! subdirectory (see [`scrub`](mod@crate::scrub)) rather than deleted, so no byte
//! of operator data is ever destroyed by the recovery machinery.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use numarck::error::NumarckError;

use crate::backend::{FsBackend, StorageBackend};
use crate::format::{CheckpointFile, CheckpointView};

/// Name of the subdirectory corrupt files are moved into.
pub const QUARANTINE_DIR: &str = "quarantine";

/// Directory-backed checkpoint store.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    backend: Arc<dyn StorageBackend>,
}

/// A store listing entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct StoreEntry {
    /// Iteration the file captures.
    pub iteration: u64,
    /// True for full checkpoints.
    pub is_full: bool,
}

impl CheckpointStore {
    /// Open (creating if needed) a store at `dir` on the real filesystem.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<Self> {
        Self::open_with(dir, Arc::new(FsBackend))
    }

    /// Open (creating if needed) a store at `dir` over an explicit
    /// backend — the fault-injection entry point.
    pub fn open_with(
        dir: impl AsRef<Path>,
        backend: Arc<dyn StorageBackend>,
    ) -> std::io::Result<Self> {
        backend.create_dir_all(dir.as_ref())?;
        Ok(Self { dir: dir.as_ref().to_path_buf(), backend })
    }

    /// The backing directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The storage backend.
    pub fn backend(&self) -> &Arc<dyn StorageBackend> {
        &self.backend
    }

    /// Path of the file for `iteration`.
    pub fn path_of(&self, iteration: u64, is_full: bool) -> PathBuf {
        let ext = if is_full { "full" } else { "delta" };
        self.dir.join(format!("ckpt_{iteration:010}.{ext}"))
    }

    /// The quarantine subdirectory.
    pub fn quarantine_dir(&self) -> PathBuf {
        self.dir.join(QUARANTINE_DIR)
    }

    /// Write a checkpoint atomically (temp file + rename + dir fsync).
    pub fn write(&self, file: &CheckpointFile) -> std::io::Result<PathBuf> {
        self.write_raw(file.iteration, file.is_full(), &file.to_bytes())
    }

    /// Write pre-serialized checkpoint bytes atomically (temp file +
    /// rename + dir fsync) — the commit half of a prepare/commit
    /// checkpoint, where the caller has already recorded the exact
    /// bytes' CRC in a write-ahead intent journal.
    pub fn write_raw(
        &self,
        iteration: u64,
        is_full: bool,
        bytes: &[u8],
    ) -> std::io::Result<PathBuf> {
        let path = self.path_of(iteration, is_full);
        write_atomic(self.backend.as_ref(), &path, bytes)?;
        Ok(path)
    }

    /// Read the raw bytes of the checkpoint for `iteration`, without
    /// validation.
    pub fn read_raw(&self, iteration: u64, is_full: bool) -> std::io::Result<Vec<u8>> {
        self.backend.read(&self.path_of(iteration, is_full))
    }

    /// Read the checkpoint for `iteration` as aligned bytes, memory-
    /// mapped when the backend supports it (plain filesystem stores do;
    /// replicated and fault-injected backends fall back to an aligned
    /// copy so their read semantics keep applying). No validation —
    /// callers hand the bytes to [`CheckpointView::parse`].
    pub fn map_raw(&self, iteration: u64, is_full: bool) -> std::io::Result<crate::AlignedBytes> {
        self.backend.map(&self.path_of(iteration, is_full))
    }

    /// Map the checkpoint for `iteration` and open it as a
    /// [`CheckpointView`], which checks it against its name: the
    /// iteration, and a full or delta payload as `is_full` says.
    pub fn open_file(&self, iteration: u64, is_full: bool) -> Result<CheckpointView, NumarckError> {
        let bytes = self.map_raw(iteration, is_full).map_err(|e| {
            let path = self.path_of(iteration, is_full);
            NumarckError::Io(format!("cannot read {}: {e}", path.display()))
        })?;
        CheckpointView::parse(bytes, iteration, is_full)
    }

    /// Read and validate the checkpoint for `iteration`, every section
    /// included, into an owned copy.
    pub fn read(&self, iteration: u64, is_full: bool) -> Result<CheckpointFile, NumarckError> {
        self.open_file(iteration, is_full)?.into_file()
    }

    /// List all checkpoints, sorted by iteration (fulls before deltas at
    /// the same iteration). Quarantined files are not listed.
    pub fn list(&self) -> std::io::Result<Vec<StoreEntry>> {
        let mut entries = Vec::new();
        for name in self.backend.list_dir(&self.dir)? {
            let Some(rest) = name.strip_prefix("ckpt_") else { continue };
            let (digits, ext) = match rest.split_once('.') {
                Some(parts) => parts,
                None => continue,
            };
            let Ok(iteration) = digits.parse::<u64>() else { continue };
            let is_full = match ext {
                "full" => true,
                "delta" => false,
                _ => continue,
            };
            entries.push(StoreEntry { iteration, is_full });
        }
        entries.sort_by_key(|e| (e.iteration, !e.is_full));
        Ok(entries)
    }

    /// Delete the file for `iteration`.
    pub fn remove(&self, iteration: u64, is_full: bool) -> std::io::Result<()> {
        self.backend.remove_file(&self.path_of(iteration, is_full))
    }

    /// Move the file for `iteration` into the quarantine subdirectory
    /// (creating it if needed) and return its new path. The file keeps
    /// its name, so a later post-mortem can tell exactly what it was.
    pub fn quarantine(&self, iteration: u64, is_full: bool) -> std::io::Result<PathBuf> {
        let from = self.path_of(iteration, is_full);
        let qdir = self.quarantine_dir();
        self.backend.create_dir_all(&qdir)?;
        let to = qdir.join(from.file_name().expect("checkpoint paths have file names"));
        self.backend.rename(&from, &to)?;
        self.backend.sync_dir(&self.dir)?;
        Ok(to)
    }

    /// Delete everything in the store (test hygiene).
    pub fn clear(&self) -> std::io::Result<()> {
        for e in self.list()? {
            let _ = self.remove(e.iteration, e.is_full);
        }
        Ok(())
    }
}

/// Replace the file at `path` with `bytes` atomically: a temp file beside
/// it (recovery sweeps `*.tmp`), a rename over it, and a sync of its
/// directory — a rename is only durable once the directory entry is;
/// without it a crash just after the rename can lose the file.
pub(crate) fn write_atomic(
    backend: &dyn StorageBackend,
    path: &Path,
    bytes: &[u8],
) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    backend.write(&tmp, bytes)?;
    backend.rename(&tmp, path)?;
    backend.sync_dir(path.parent().expect("store files live in a directory"))
}

#[cfg(test)]
pub(crate) mod testutil {
    use std::path::PathBuf;

    /// Self-cleaning unique temp directory.
    pub struct TempDir(pub PathBuf);

    impl TempDir {
        pub fn new(tag: &str) -> Self {
            let unique = format!(
                "numarck-test-{tag}-{}-{}",
                std::process::id(),
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .expect("clock after epoch")
                    .as_nanos()
            );
            let path = std::env::temp_dir().join(unique);
            std::fs::create_dir_all(&path).expect("create temp dir");
            Self(path)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::TempDir;
    use super::*;
    use crate::backend::{FaultSchedule, FaultyBackend, WriteFault};
    use crate::format::CheckpointKind;
    use crate::VariableSet;

    fn full(iter: u64) -> CheckpointFile {
        let mut vars = VariableSet::new();
        vars.insert("x".into(), vec![iter as f64; 16]);
        CheckpointFile::new(iter, CheckpointKind::Full(vars))
    }

    #[test]
    fn write_read_roundtrip() {
        let tmp = TempDir::new("store-rt");
        let store = CheckpointStore::open(&tmp.0).unwrap();
        let f = full(3);
        store.write(&f).unwrap();
        let back = store.read(3, true).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn listing_is_sorted_and_filtered() {
        let tmp = TempDir::new("store-list");
        let store = CheckpointStore::open(&tmp.0).unwrap();
        for i in [5u64, 1, 3] {
            store.write(&full(i)).unwrap();
        }
        // Noise files are ignored.
        std::fs::write(tmp.0.join("README"), b"hello").unwrap();
        std::fs::write(tmp.0.join("ckpt_bogus.full"), b"zzz").unwrap();
        let list = store.list().unwrap();
        let iters: Vec<u64> = list.iter().map(|e| e.iteration).collect();
        assert_eq!(iters, vec![1, 3, 5]);
        assert!(list.iter().all(|e| e.is_full));
    }

    #[test]
    fn reading_missing_file_errors() {
        let tmp = TempDir::new("store-missing");
        let store = CheckpointStore::open(&tmp.0).unwrap();
        assert!(store.read(9, true).is_err());
    }

    #[test]
    fn iteration_mismatch_detected() {
        let tmp = TempDir::new("store-mismatch");
        let store = CheckpointStore::open(&tmp.0).unwrap();
        // Hand-write a file whose name disagrees with its header.
        let f = full(7);
        std::fs::write(store.path_of(9, true), f.to_bytes()).unwrap();
        assert!(store.read(9, true).is_err());
    }

    #[test]
    fn open_file_checks_the_name_in_both_versions() {
        let tmp = TempDir::new("store-names");
        let store = CheckpointStore::open(&tmp.0).unwrap();
        let cfg = numarck::Config::new(8, 0.001, numarck::Strategy::Clustering).unwrap();
        let prev = vec![1.0; 16];
        let curr: Vec<f64> = (0..16).map(|i| 1.0 + i as f64 * 0.01).collect();
        let (block, _) = numarck::encode::encode(&prev, &curr, &cfg).unwrap();
        let delta = |it| {
            CheckpointFile::new(
                it,
                CheckpointKind::Delta([("x".to_string(), block.clone())].into()),
            )
        };
        for v1 in [false, true] {
            let bytes = |f: &CheckpointFile| if v1 { f.to_bytes_v1() } else { f.to_bytes() };
            store.write_raw(9, true, &bytes(&full(3))).unwrap();
            store.write_raw(10, false, &bytes(&full(10))).unwrap();
            store.write_raw(11, true, &bytes(&delta(11))).unwrap();
            for (it, is_full, says) in [
                (9, true, "claims iteration 3, expected 9"),
                (10, false, "holds a full payload, expected a delta"),
                (11, true, "holds a delta payload, expected a full"),
            ] {
                match store.open_file(it, is_full) {
                    Err(NumarckError::Corrupt(msg)) => {
                        assert!(msg.contains(says), "v1={v1}: {msg}")
                    }
                    other => panic!("v1={v1}: {it} opened as {other:?}"),
                }
                assert!(store.read(it, is_full).is_err(), "v1={v1}: read {it}");
            }
            // The same payloads under their own names open.
            store.write_raw(3, true, &bytes(&full(3))).unwrap();
            store.write_raw(11, false, &bytes(&delta(11))).unwrap();
            assert_eq!(store.read(3, true).unwrap(), full(3));
            assert_eq!(store.read(11, false).unwrap(), delta(11));
        }
    }

    #[test]
    fn write_through_faulty_backend_surfaces_the_injected_error() {
        let tmp = TempDir::new("store-faulty");
        let backend = Arc::new(FaultyBackend::new(
            FaultSchedule::new()
                .fail_write(1, WriteFault::Error(std::io::ErrorKind::StorageFull)),
        ));
        let store = CheckpointStore::open_with(&tmp.0, backend).unwrap();
        let err = store.write(&full(1)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::StorageFull);
        // Nothing was renamed into place.
        assert!(store.list().unwrap().is_empty());
        // The next write (no fault scheduled) succeeds.
        store.write(&full(1)).unwrap();
        assert_eq!(store.list().unwrap().len(), 1);
    }

    #[test]
    fn quarantine_moves_the_file_aside() {
        let tmp = TempDir::new("store-quarantine");
        let store = CheckpointStore::open(&tmp.0).unwrap();
        store.write(&full(2)).unwrap();
        store.write(&full(5)).unwrap();
        let to = store.quarantine(2, true).unwrap();
        assert!(to.starts_with(store.quarantine_dir()));
        assert!(to.ends_with("ckpt_0000000002.full"));
        assert!(std::fs::metadata(&to).unwrap().is_file());
        // Listing no longer sees it; the healthy file remains.
        let iters: Vec<u64> = store.list().unwrap().iter().map(|e| e.iteration).collect();
        assert_eq!(iters, vec![5]);
    }

    #[test]
    fn clear_empties_the_store() {
        let tmp = TempDir::new("store-clear");
        let store = CheckpointStore::open(&tmp.0).unwrap();
        store.write(&full(1)).unwrap();
        store.clear().unwrap();
        assert!(store.list().unwrap().is_empty());
    }
}
