//! A counting storage backend and a small variable sequence, shared by
//! the tests that count what a request reads from the store.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use numarck_checkpoint::{AlignedBytes, FsBackend, StorageBackend, VariableSet};

/// The real filesystem, counting the two calls an index load makes
/// (`list_dir`, `read_prefix`) and the files a restart maps.
#[derive(Debug, Default)]
pub struct CountingBackend {
    pub list_dirs: AtomicU64,
    pub prefixes: AtomicU64,
    pub maps: AtomicU64,
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
        FsBackend.read(path)
    }
    fn read_prefix(&self, path: &Path, len: usize) -> io::Result<(Vec<u8>, u64)> {
        self.prefixes.fetch_add(1, Ordering::SeqCst);
        FsBackend.read_prefix(path, len)
    }
    fn map(&self, path: &Path) -> io::Result<AlignedBytes> {
        self.maps.fetch_add(1, Ordering::SeqCst);
        FsBackend.map(path)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        FsBackend.remove_file(path)
    }
    fn list_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.list_dirs.fetch_add(1, Ordering::SeqCst);
        FsBackend.list_dir(dir)
    }
}

/// One 128-point variable growing 0.2% per iteration.
pub fn vars(iteration: u64) -> VariableSet {
    let mut v = VariableSet::new();
    v.insert(
        "x".into(),
        (0..128).map(|j| (j as f64 + 1.0) * 1.002f64.powi(iteration as i32)).collect(),
    );
    v
}
