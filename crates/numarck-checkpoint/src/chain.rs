//! The chain index: the one model of chain shape in the tree.
//!
//! A restart (the paper's §II-D) reads the newest full checkpoint, then
//! applies the deltas after it in order. With merged deltas that is a
//! backward walk: a full ends it, a delta steps back by its span.
//! [`ChainIndex`] holds everything that walk needs and nothing more —
//! for each stored file its name (iteration, full or delta), its length,
//! and the kind and span its header declares — gathered from one store
//! listing plus one [`HEADER_PREFIX_LEN`]-byte prefix read per file. No
//! payload is read or CRC-checked.
//!
//! [`ChainIndex::resolve`] is the only backward walk: restart,
//! compaction, placement, GC and the `numarck chain` inspector all
//! resolve through it, so they cannot disagree about which files a
//! restart reads.
//!
//! An index is a snapshot of the store. A caller on its own store loads
//! one ([`ChainIndex::load`]: one listing plus a header read per file).
//! A long-lived owner that changes the store under a lock — a
//! numarck-serve session — loads it once and keeps it current instead:
//! every writer holding the lock records its own writes and deletes
//! with [`ChainIndex::insert`] and [`ChainIndex::remove`], and reloads
//! only after a failure that may have left the store changed partway. A
//! reader that must not race deletion then resolves against that index
//! and opens the files it names under the same lock (see
//! [`RestartEngine::restart_at_or_before_locked`]). Every file opened is
//! checked against its entry, so a stale entry reads as
//! [`NumarckError::Corrupt`], never as wrong data.
//!
//! [`RestartEngine::restart_at_or_before_locked`]:
//!     crate::restart::RestartEngine::restart_at_or_before_locked

use std::collections::BTreeMap;
use std::io;

use numarck::error::NumarckError;

use crate::format::{kind_mismatch, peek_header, HeaderFacts, HEADER_PREFIX_LEN};
use crate::mmapio::AlignedBytes;
use crate::store::CheckpointStore;

/// What the index knows about one stored file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoredFile {
    /// File length in bytes.
    pub bytes: u64,
    /// The header's kind and span; `None` when the header is unreadable
    /// (opening the file then reports why).
    pub header: Option<HeaderFacts>,
}

impl StoredFile {
    /// The facts of a file holding exactly `bytes`.
    pub fn of(bytes: &[u8]) -> Self {
        Self { bytes: bytes.len() as u64, header: peek_header(bytes) }
    }

    /// How far back a walk steps from this file as a delta: the header's
    /// span, or 1 when the header is unreadable.
    pub fn span(&self) -> u64 {
        self.header.map_or(1, |h| h.span)
    }
}

/// The files stored at one iteration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexEntry {
    /// The `.full` file, if one is stored.
    pub full: Option<StoredFile>,
    /// The `.delta` file, if one is stored.
    pub delta: Option<StoredFile>,
}

/// A resolved restart path: the base the walk ended at and the deltas
/// on the way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainPath {
    /// The iteration the path restarts.
    pub target: u64,
    /// Iteration of the base full checkpoint.
    pub base: u64,
    /// Length of the base file in bytes.
    pub base_bytes: u64,
    /// Delta iterations on the path, newest first.
    pub deltas: Vec<u64>,
}

impl ChainPath {
    /// Every file on the path as `(iteration, is_full)`, in replay
    /// order: the base, then the deltas oldest first.
    pub fn files(&self) -> impl Iterator<Item = (u64, bool)> + '_ {
        std::iter::once((self.base, true)).chain(self.deltas.iter().rev().map(|&d| (d, false)))
    }

    /// The deltas the path applies after iteration `node`, newest
    /// first, when `node` is one of the path's nodes (its base or one
    /// of its deltas); `None` otherwise.
    pub fn deltas_after(&self, node: u64) -> Option<&[u64]> {
        if node == self.base {
            return Some(&self.deltas);
        }
        let at = self.deltas.iter().position(|&d| d == node)?;
        Some(&self.deltas[..at])
    }
}

/// Header-level snapshot of a store's chain shape.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChainIndex {
    entries: BTreeMap<u64, IndexEntry>,
}

impl ChainIndex {
    /// Index `store`: one listing, then a header prefix read per file.
    /// A file deleted between the listing and its read is simply not
    /// part of the snapshot.
    pub fn load(store: &CheckpointStore) -> io::Result<Self> {
        crate::obs::index_loads_total().inc();
        let mut index = Self::default();
        for e in store.list()? {
            let path = store.path_of(e.iteration, e.is_full);
            let (prefix, bytes) = match store.backend().read_prefix(&path, HEADER_PREFIX_LEN) {
                Ok(read) => read,
                Err(err) if err.kind() == io::ErrorKind::NotFound => continue,
                Err(err) => return Err(err),
            };
            let file = StoredFile { bytes, header: peek_header(&prefix) };
            index.insert(e.iteration, e.is_full, file);
        }
        Ok(index)
    }

    /// Record that `file` is now stored at (`iteration`, `is_full`) —
    /// how a writer keeps its snapshot current without reloading it.
    pub fn insert(&mut self, iteration: u64, is_full: bool, file: StoredFile) {
        let entry = self.entries.entry(iteration).or_default();
        *if is_full { &mut entry.full } else { &mut entry.delta } = Some(file);
    }

    /// Record that (`iteration`, `is_full`) is no longer stored.
    pub fn remove(&mut self, iteration: u64, is_full: bool) {
        if let Some(entry) = self.entries.get_mut(&iteration) {
            *if is_full { &mut entry.full } else { &mut entry.delta } = None;
            if entry.full.is_none() && entry.delta.is_none() {
                self.entries.remove(&iteration);
            }
        }
    }

    /// True when the store holds no checkpoint files at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// How many checkpoint files the store holds.
    pub fn file_count(&self) -> usize {
        self.entries
            .values()
            .map(|e| usize::from(e.full.is_some()) + usize::from(e.delta.is_some()))
            .sum()
    }

    /// Iterations with at least one stored file, ascending.
    pub fn iterations(&self) -> impl Iterator<Item = u64> + '_ {
        self.entries.keys().copied()
    }

    /// Iterations at or before `bound` with at least one stored file,
    /// ascending.
    pub fn iterations_at_or_before(&self, bound: u64) -> impl DoubleEndedIterator<Item = u64> + '_ {
        self.entries.range(..=bound).map(|(&it, _)| it)
    }

    /// The files stored at `iteration`, if any.
    pub fn entry(&self, iteration: u64) -> Option<&IndexEntry> {
        self.entries.get(&iteration)
    }

    /// The file stored at (`iteration`, `is_full`), if any.
    pub fn file(&self, iteration: u64, is_full: bool) -> Option<StoredFile> {
        let entry = self.entries.get(&iteration)?;
        if is_full {
            entry.full
        } else {
            entry.delta
        }
    }

    /// Map the file at (`iteration`, `is_full`) from `store` and check
    /// it against its entry here: a missing entry, or bytes whose length
    /// or header differ from it, is [`NumarckError::Corrupt`]. Parsing
    /// is left to [`CheckpointView::parse`](crate::format::CheckpointView::parse),
    /// so a caller under a lock can map here and parse after releasing it.
    pub fn map_file(
        &self,
        store: &CheckpointStore,
        iteration: u64,
        is_full: bool,
    ) -> Result<AlignedBytes, NumarckError> {
        let name = store.path_of(iteration, is_full);
        let bytes = store
            .map_raw(iteration, is_full)
            .map_err(|e| NumarckError::Io(format!("cannot read {}: {e}", name.display())))?;
        if self.file(iteration, is_full) != Some(StoredFile::of(&bytes)) {
            return Err(NumarckError::Corrupt(format!(
                "{} does not match its chain index entry",
                name.display()
            )));
        }
        Ok(bytes)
    }

    /// The newest stored iteration.
    pub fn latest(&self) -> Option<u64> {
        self.entries.keys().next_back().copied()
    }

    /// Iterations holding a `.full` file, ascending.
    pub fn fulls(&self) -> Vec<u64> {
        self.entries.iter().filter(|(_, e)| e.full.is_some()).map(|(&it, _)| it).collect()
    }

    /// Total bytes stored across all checkpoint files.
    pub fn total_bytes(&self) -> u64 {
        self.entries
            .values()
            .flat_map(|e| [e.full, e.delta])
            .map(|f| f.map_or(0, |f| f.bytes))
            .sum()
    }

    /// Resolve the restart path of `target`, walking backwards: a
    /// `.full` file at the cursor ends the walk; a `.delta` file is
    /// collected and the cursor steps back by its span.
    ///
    /// Fails with [`NumarckError::Corrupt`] when the walk reaches an
    /// iteration with no stored file, a span points before iteration 0,
    /// or a file's header declares the other payload kind than its name
    /// — with the reason [`CheckpointView::parse`] gives, so scrub and
    /// restart report such a file alike.
    ///
    /// [`CheckpointView::parse`]: crate::format::CheckpointView::parse
    pub fn resolve(&self, target: u64) -> Result<ChainPath, NumarckError> {
        let mut deltas = Vec::new();
        let mut cur = target;
        loop {
            let entry = self.entries.get(&cur).copied().unwrap_or_default();
            let (file, is_full) = match (entry.full, entry.delta) {
                (Some(full), _) => (full, true),
                (None, Some(delta)) => (delta, false),
                (None, None) => {
                    return Err(NumarckError::Corrupt(format!(
                        "chain to {target} broken at iteration {cur}: no checkpoint file stored"
                    )))
                }
            };
            if let Some(header) = file.header.filter(|h| h.is_full != is_full) {
                return Err(kind_mismatch(cur, header.is_full, is_full));
            }
            if is_full {
                return Ok(ChainPath { target, base: cur, base_bytes: file.bytes, deltas });
            }
            let span = file.span();
            if span > cur {
                return Err(NumarckError::Corrupt(format!(
                    "delta {cur} spans {span} iterations, past the start of the chain"
                )));
            }
            deltas.push(cur);
            cur -= span;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::path::Path;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    use super::*;
    use crate::backend::{FsBackend, StorageBackend};
    use crate::manager::{CheckpointManager, ManagerPolicy};
    use crate::mmapio::AlignedBytes;
    use crate::store::testutil::TempDir;
    use crate::VariableSet;

    /// Counts whole-file reads and maps on top of the real filesystem.
    #[derive(Debug, Default)]
    struct CountingBackend {
        reads: AtomicU64,
        maps: AtomicU64,
        prefixes: AtomicU64,
    }

    impl StorageBackend for CountingBackend {
        fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
            FsBackend.create_dir_all(dir)
        }
        fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
            FsBackend.write(path, bytes)
        }
        fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
            FsBackend.append(path, bytes)
        }
        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            FsBackend.rename(from, to)
        }
        fn sync_dir(&self, dir: &Path) -> io::Result<()> {
            FsBackend.sync_dir(dir)
        }
        fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
            self.reads.fetch_add(1, Ordering::Relaxed);
            FsBackend.read(path)
        }
        fn read_prefix(&self, path: &Path, len: usize) -> io::Result<(Vec<u8>, u64)> {
            self.prefixes.fetch_add(1, Ordering::Relaxed);
            FsBackend.read_prefix(path, len)
        }
        fn map(&self, path: &Path) -> io::Result<AlignedBytes> {
            self.maps.fetch_add(1, Ordering::Relaxed);
            FsBackend.map(path)
        }
        fn remove_file(&self, path: &Path) -> io::Result<()> {
            FsBackend.remove_file(path)
        }
        fn list_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
            FsBackend.list_dir(dir)
        }
    }

    #[test]
    fn load_reads_headers_only() {
        let tmp = TempDir::new("chain-index-headers");
        let backend = Arc::new(CountingBackend::default());
        let store = CheckpointStore::open_with(&tmp.0, backend.clone()).unwrap();
        let cfg = crate::manager::test_support::trivial_config();
        let mut mgr = CheckpointManager::new(store.clone(), cfg, ManagerPolicy::fixed(4));
        for it in 0..10u64 {
            let mut vars = VariableSet::new();
            vars.insert("x".into(), (0..64).map(|j| 1.0 + j as f64 + it as f64 * 0.01).collect());
            mgr.checkpoint(it, &vars).unwrap();
        }
        let (reads, maps) =
            (backend.reads.load(Ordering::Relaxed), backend.maps.load(Ordering::Relaxed));

        let index = ChainIndex::load(&store).unwrap();
        assert_eq!(backend.reads.load(Ordering::Relaxed), reads, "no whole-file read");
        assert_eq!(backend.maps.load(Ordering::Relaxed), maps, "no map");
        assert_eq!(backend.prefixes.load(Ordering::Relaxed), 10, "one header read per file");
        assert_eq!(index.file_count(), 10);

        // The header facts and lengths are the files' own.
        assert_eq!(index.fulls(), vec![0, 4, 8]);
        for it in 0..10u64 {
            let is_full = it % 4 == 0;
            let bytes = std::fs::read(store.path_of(it, is_full)).unwrap();
            assert_eq!(index.file(it, is_full), Some(StoredFile::of(&bytes)));
        }
        let path = index.resolve(7).unwrap();
        assert_eq!((path.base, path.deltas.clone()), (4, vec![7, 6, 5]));
        let files: Vec<_> = path.files().collect();
        assert_eq!(files, vec![(4, true), (5, false), (6, false), (7, false)]);
    }

    fn delta(span: u64) -> StoredFile {
        StoredFile { bytes: 10, header: Some(HeaderFacts { is_full: false, span }) }
    }

    fn full() -> StoredFile {
        StoredFile { bytes: 100, header: Some(HeaderFacts { is_full: true, span: 0 }) }
    }

    #[test]
    fn insert_and_remove_track_a_writer() {
        let mut index = ChainIndex::default();
        index.insert(0, true, full());
        for it in 1..=4 {
            index.insert(it, false, delta(1));
        }
        assert_eq!(index.resolve(4).unwrap().deltas, vec![4, 3, 2, 1]);
        index.insert(4, false, delta(4));
        assert_eq!(index.resolve(4).unwrap().deltas, vec![4]);
        index.remove(2, false);
        assert!(index.resolve(3).is_err(), "hole at 2");
        assert_eq!(index.total_bytes(), 130);
        index.remove(0, true);
        assert_eq!(index.iterations().collect::<Vec<_>>(), vec![1, 3, 4]);
        assert_eq!(index.file_count(), 3);
    }

    #[test]
    fn a_full_name_with_a_delta_header_is_corrupt() {
        let mut index = ChainIndex::default();
        index.insert(0, true, delta(1));
        assert!(matches!(index.resolve(0), Err(NumarckError::Corrupt(_))));
    }

    mod properties {
        use super::*;
        use crate::format::{CheckpointFile, CheckpointKind};
        use numarck_prop::prelude::*;

        /// Write one random chain shape: per iteration, a hole, a full,
        /// a delta of random span (possibly past iteration 0), a plain
        /// delta, a full payload under a delta name, or a full plus a
        /// delta.
        fn write_shape(store: &CheckpointStore, cells: &[(u8, u64)]) {
            let cfg = crate::manager::test_support::trivial_config();
            let prev = vec![1.0, 2.0, 3.0, 4.0];
            let curr = vec![1.001, 2.002, 2.997, 4.004];
            let (block, _) = numarck::encode::encode(&prev, &curr, &cfg).unwrap();
            let blocks: std::collections::BTreeMap<_, _> = [("x".to_string(), block)].into();
            let full = |it: u64| {
                let vars: VariableSet = [("x".to_string(), prev.clone())].into();
                CheckpointFile::new(it, CheckpointKind::Full(vars))
            };
            for (it, &(kind, span)) in cells.iter().enumerate() {
                let it = it as u64;
                let plain = CheckpointFile::new(it, CheckpointKind::Delta(blocks.clone()));
                match kind {
                    0 => {}
                    1 => drop(store.write(&full(it)).unwrap()),
                    2 => {
                        let merged = CheckpointFile::merged_delta(it, blocks.clone(), span as u32);
                        store.write(&merged).unwrap();
                    }
                    3 => drop(store.write(&plain).unwrap()),
                    4 => drop(store.write_raw(it, false, &full(it).to_bytes()).unwrap()),
                    _ => {
                        store.write(&full(it)).unwrap();
                        store.write(&plain).unwrap();
                    }
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn resolve_and_restart_agree_on_every_shape(
                cells in numarck_prop::collection::vec((0u8..6, 1u64..6), 1..10)
            ) {
                let tmp = TempDir::new("chain-index-prop");
                let store = CheckpointStore::open(&tmp.0).unwrap();
                write_shape(&store, &cells);
                let index = ChainIndex::load(&store).unwrap();
                let engine = crate::restart::RestartEngine::new(store);
                for target in 0..=cells.len() as u64 {
                    let resolved = index.resolve(target);
                    let restarted = engine.restart_at(target);
                    prop_assert_eq!(resolved.is_ok(), restarted.is_ok());
                    if let (Ok(path), Ok(result)) = (resolved, restarted) {
                        prop_assert_eq!(path.base, result.base_iteration);
                        prop_assert_eq!(path.deltas.len() as u64, result.deltas_applied);
                    }
                }
            }
        }
    }
}
