//! Storage backends: the syscall boundary of the checkpoint store.
//!
//! [`CheckpointStore`](crate::store::CheckpointStore) performs every
//! filesystem operation through a [`StorageBackend`], so recovery tests
//! can inject faults *at the I/O layer* — ENOSPC on the Nth write, a
//! write torn at byte K, bit rot on a read — instead of mutating files
//! after the fact. [`FsBackend`] is the real thing; [`FaultyBackend`]
//! wraps it with a deterministic [`FaultSchedule`].

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::mmapio::AlignedBytes;

/// The set of filesystem operations the checkpoint store needs.
///
/// Implementations must be usable from `&self` (the store is cloned
/// freely), hence the interior counters in [`FaultyBackend`].
pub trait StorageBackend: std::fmt::Debug + Send + Sync {
    /// Create `dir` and any missing parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;

    /// Create (truncating) `path`, write all of `bytes`, fsync the file.
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Append `bytes` to `path` (creating it if needed) and fsync — the
    /// write-ahead journal's primitive. Unlike [`Self::write`] this must
    /// never truncate existing content.
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Atomically rename `from` to `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Fsync the directory itself so a completed rename survives a
    /// crash (a rename is only durable once its directory entry is).
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;

    /// Read the entire file at `path`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Read at most `len` leading bytes of the file at `path`, plus the
    /// file's total length: what the chain index needs from each file.
    /// The default reads the whole file through [`Self::read`]; a
    /// backend that owns a real file (e.g. [`FsBackend`]) reads only the
    /// prefix and takes the length from the file's metadata.
    fn read_prefix(&self, path: &Path, len: usize) -> io::Result<(Vec<u8>, u64)> {
        let mut bytes = self.read(path)?;
        let total = bytes.len() as u64;
        bytes.truncate(len);
        Ok((bytes, total))
    }

    /// Read the file at `path` as [`AlignedBytes`], mapping it into
    /// memory when the backend can. The default routes through
    /// [`Self::read`] into an aligned copy — deliberately, so wrappers
    /// (fault injection, replication quorums) keep intercepting mapped
    /// reads exactly like plain ones. Only backends that own a real
    /// file (e.g. [`FsBackend`]) should override this with `mmap`.
    fn map(&self, path: &Path) -> io::Result<AlignedBytes> {
        self.read(path).map(AlignedBytes::from_vec)
    }

    /// Delete the file at `path`.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// File names (not paths) of the entries in `dir`.
    fn list_dir(&self, dir: &Path) -> io::Result<Vec<String>>;

    /// Downcast hook: `Some` when this backend (or the backend a
    /// pass-through wrapper delegates to) is a
    /// [`ReplicatedBackend`](crate::replicated::ReplicatedBackend), so
    /// layered tooling (scrub's cross-replica repair pass) can reach the
    /// per-replica API behind the trait-object boundary.
    fn as_replicated(&self) -> Option<&crate::replicated::ReplicatedBackend> {
        None
    }
}

/// The real filesystem.
#[derive(Debug, Clone, Copy, Default)]
pub struct FsBackend;

impl StorageBackend for FsBackend {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut f = fs::File::create(path)?;
        f.write_all(bytes)?;
        f.sync_all()
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut f = fs::OpenOptions::new().create(true).append(true).open(path)?;
        f.write_all(bytes)?;
        f.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        // Directories can be opened and fsynced on unix; elsewhere the
        // rename discipline alone is the best available.
        #[cfg(unix)]
        {
            fs::File::open(dir)?.sync_all()
        }
        #[cfg(not(unix))]
        {
            let _ = dir;
            Ok(())
        }
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn read_prefix(&self, path: &Path, len: usize) -> io::Result<(Vec<u8>, u64)> {
        let file = fs::File::open(path)?;
        let total = file.metadata()?.len();
        let mut prefix = Vec::with_capacity(len);
        file.take(len as u64).read_to_end(&mut prefix)?;
        Ok((prefix, total))
    }

    fn map(&self, path: &Path) -> io::Result<AlignedBytes> {
        AlignedBytes::map_file(path)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in fs::read_dir(dir)? {
            if let Some(name) = entry?.file_name().to_str() {
                names.push(name.to_string());
            }
        }
        Ok(names)
    }
}

/// A way for a backend write to go wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// Fail with this error kind; nothing reaches the disk.
    Error(io::ErrorKind),
    /// Write only the first `keep` bytes, then report failure — the
    /// partial temp file is left behind for a retry to overwrite.
    Torn {
        /// Bytes that reach the disk before the failure.
        keep: usize,
    },
    /// Write only the first `keep` bytes but *report success*: a torn
    /// write below the rename discipline. The resulting file survives
    /// the rename and is only caught later by CRC validation (scrub).
    SilentTorn {
        /// Bytes that reach the disk.
        keep: usize,
    },
}

/// A way for a backend read to go wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadFault {
    /// Fail with this error kind.
    Error(io::ErrorKind),
    /// XOR `mask` into the byte at `offset` (clamped to the file) of the
    /// data returned — bit rot between the platters and the caller.
    BitRot {
        /// Byte offset to damage.
        offset: usize,
        /// Mask XORed into that byte (0 is a no-op).
        mask: u8,
    },
}

/// Deterministic fault plan: which write/read/directory-sync operation
/// (1-based, in the order they are made) misbehaves, and how.
#[derive(Debug, Clone, Default)]
pub struct FaultSchedule {
    write_faults: BTreeMap<u64, WriteFault>,
    read_faults: BTreeMap<u64, ReadFault>,
    sync_faults: BTreeMap<u64, io::ErrorKind>,
    kill_after_ops: Option<u64>,
}

impl FaultSchedule {
    /// An empty schedule (behaves exactly like [`FsBackend`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Make the `nth` write (1-based) suffer `fault`.
    pub fn fail_write(mut self, nth: u64, fault: WriteFault) -> Self {
        self.write_faults.insert(nth, fault);
        self
    }

    /// Make the `nth` read (1-based) suffer `fault`.
    pub fn fail_read(mut self, nth: u64, fault: ReadFault) -> Self {
        self.read_faults.insert(nth, fault);
        self
    }

    /// Make the `nth` directory sync (1-based) fail with `kind` without
    /// syncing. A store write syncs its directory after the rename, so
    /// this fails a write whose file has already landed under its final
    /// name.
    pub fn fail_sync_dir(mut self, nth: u64, kind: io::ErrorKind) -> Self {
        self.sync_faults.insert(nth, kind);
        self
    }

    /// Fail-stop mode: let the first `ops` backend operations (of any
    /// kind) complete, then abort the whole process at the entry of the
    /// next one — equivalent to SIGKILL at that instruction boundary.
    /// `ops = 0` dies before the very first operation.
    pub fn die_after_ops(mut self, ops: u64) -> Self {
        self.kill_after_ops = Some(ops);
        self
    }
}

/// A [`StorageBackend`] wrapper that misbehaves on schedule.
///
/// `write`/`append` and `read` suffer scheduled faults — they carry the
/// payload bytes, which is where ENOSPC, torn writes and bit rot live —
/// and so does `sync_dir`, the one metadata operation that can fail
/// after a rename has landed. The other metadata operations, header
/// prefix reads included, pass straight through, but *every* operation
/// counts toward
/// [`FaultSchedule::die_after_ops`], so a kill sweep covers
/// rename/sync/list boundaries too.
#[derive(Debug)]
pub struct FaultyBackend {
    inner: Arc<dyn StorageBackend>,
    schedule: FaultSchedule,
    writes: AtomicU64,
    reads: AtomicU64,
    syncs: AtomicU64,
    ops: AtomicU64,
}

impl Default for FaultyBackend {
    fn default() -> Self {
        Self::new(FaultSchedule::default())
    }
}

impl FaultyBackend {
    /// Backend over the real filesystem following `schedule`.
    pub fn new(schedule: FaultSchedule) -> Self {
        Self::wrapping(Arc::new(FsBackend), schedule)
    }

    /// Wrap an arbitrary backend (e.g. a
    /// [`ReplicatedBackend`](crate::replicated::ReplicatedBackend))
    /// with `schedule`.
    pub fn wrapping(inner: Arc<dyn StorageBackend>, schedule: FaultSchedule) -> Self {
        Self {
            inner,
            schedule,
            writes: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
            ops: AtomicU64::new(0),
        }
    }

    /// Number of write operations issued so far.
    pub fn writes_attempted(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// Number of read operations issued so far.
    pub fn reads_attempted(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Count one operation toward the fail-stop allowance, aborting the
    /// process (fail-stop, not unwind — destructors must not run, just
    /// as they would not under SIGKILL) once it is exhausted.
    fn count_op(&self) {
        let nth = self.ops.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(allowed) = self.schedule.kill_after_ops {
            if nth > allowed {
                eprintln!("faulty backend: fail-stop after {allowed} ops");
                std::process::abort();
            }
        }
    }
}

fn injected(kind: io::ErrorKind, what: &str) -> io::Error {
    io::Error::new(kind, format!("injected fault: {what}"))
}

impl StorageBackend for FaultyBackend {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.count_op();
        self.inner.create_dir_all(dir)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.count_op();
        let nth = self.writes.fetch_add(1, Ordering::Relaxed) + 1;
        match self.schedule.write_faults.get(&nth) {
            None => self.inner.write(path, bytes),
            Some(WriteFault::Error(kind)) => Err(injected(*kind, "write error")),
            Some(WriteFault::Torn { keep }) => {
                self.inner.write(path, &bytes[..(*keep).min(bytes.len())])?;
                Err(injected(io::ErrorKind::Other, "torn write"))
            }
            Some(WriteFault::SilentTorn { keep }) => {
                self.inner.write(path, &bytes[..(*keep).min(bytes.len())])
            }
        }
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.count_op();
        let nth = self.writes.fetch_add(1, Ordering::Relaxed) + 1;
        match self.schedule.write_faults.get(&nth) {
            None => self.inner.append(path, bytes),
            Some(WriteFault::Error(kind)) => Err(injected(*kind, "append error")),
            Some(WriteFault::Torn { keep }) => {
                self.inner.append(path, &bytes[..(*keep).min(bytes.len())])?;
                Err(injected(io::ErrorKind::Other, "torn append"))
            }
            Some(WriteFault::SilentTorn { keep }) => {
                self.inner.append(path, &bytes[..(*keep).min(bytes.len())])
            }
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.count_op();
        self.inner.rename(from, to)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.count_op();
        let nth = self.syncs.fetch_add(1, Ordering::Relaxed) + 1;
        match self.schedule.sync_faults.get(&nth) {
            None => self.inner.sync_dir(dir),
            Some(kind) => Err(injected(*kind, "directory sync error")),
        }
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.count_op();
        let nth = self.reads.fetch_add(1, Ordering::Relaxed) + 1;
        match self.schedule.read_faults.get(&nth) {
            None => self.inner.read(path),
            Some(ReadFault::Error(kind)) => Err(injected(*kind, "read error")),
            Some(ReadFault::BitRot { offset, mask }) => {
                let mut data = self.inner.read(path)?;
                if !data.is_empty() {
                    let o = (*offset).min(data.len() - 1);
                    data[o] ^= mask;
                }
                Ok(data)
            }
        }
    }

    fn read_prefix(&self, path: &Path, len: usize) -> io::Result<(Vec<u8>, u64)> {
        self.count_op();
        self.inner.read_prefix(path, len)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.count_op();
        self.inner.remove_file(path)
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.count_op();
        self.inner.list_dir(dir)
    }

    fn as_replicated(&self) -> Option<&crate::replicated::ReplicatedBackend> {
        self.inner.as_replicated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::testutil::TempDir;

    #[test]
    fn fs_backend_roundtrip_and_listing() {
        let tmp = TempDir::new("backend-fs");
        let b = FsBackend;
        let p = tmp.0.join("a.bin");
        b.write(&p, b"hello").unwrap();
        assert_eq!(b.read(&p).unwrap(), b"hello");
        let q = tmp.0.join("b.bin");
        b.rename(&p, &q).unwrap();
        b.sync_dir(&tmp.0).unwrap();
        let mut names = b.list_dir(&tmp.0).unwrap();
        names.sort();
        assert_eq!(names, vec!["b.bin"]);
        b.remove_file(&q).unwrap();
        assert!(b.list_dir(&tmp.0).unwrap().is_empty());
    }

    #[test]
    fn read_prefix_returns_the_head_and_the_whole_length() {
        let tmp = TempDir::new("backend-prefix");
        let p = tmp.0.join("x");
        FsBackend.write(&p, b"abcdefgh").unwrap();
        assert_eq!(FsBackend.read_prefix(&p, 3).unwrap(), (b"abc".to_vec(), 8));
        assert_eq!(FsBackend.read_prefix(&p, 64).unwrap(), (b"abcdefgh".to_vec(), 8));
        // A replicated store answers with the plurality prefix.
        let replicated =
            crate::replicated::ReplicatedBackend::with_fs_replicas(&tmp.0, 1, 1).unwrap();
        let q = tmp.0.join("y");
        replicated.write(&q, b"abcdefgh").unwrap();
        assert_eq!(replicated.read_prefix(&q, 3).unwrap(), (b"abc".to_vec(), 8));
        assert!(FsBackend.read_prefix(&tmp.0.join("missing"), 3).is_err());
    }

    #[test]
    fn faulty_backend_fails_the_scheduled_write_only() {
        let tmp = TempDir::new("backend-nth");
        let b = FaultyBackend::new(
            FaultSchedule::new().fail_write(2, WriteFault::Error(io::ErrorKind::StorageFull)),
        );
        let p = tmp.0.join("x");
        b.write(&p, b"one").unwrap();
        let err = b.write(&p, b"two").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        // Third attempt (the retry) succeeds.
        b.write(&p, b"two").unwrap();
        assert_eq!(b.read(&p).unwrap(), b"two");
        assert_eq!(b.writes_attempted(), 3);
    }

    #[test]
    fn failed_directory_sync_leaves_the_rename_in_place() {
        let tmp = TempDir::new("backend-sync");
        let b = FaultyBackend::new(
            FaultSchedule::new().fail_sync_dir(2, io::ErrorKind::PermissionDenied),
        );
        let (tmp_path, path) = (tmp.0.join("x.tmp"), tmp.0.join("x"));
        b.sync_dir(&tmp.0).unwrap();
        b.write(&tmp_path, b"one").unwrap();
        b.rename(&tmp_path, &path).unwrap();
        let err = b.sync_dir(&tmp.0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
        assert_eq!(b.read(&path).unwrap(), b"one");
        b.sync_dir(&tmp.0).unwrap();
    }

    #[test]
    fn torn_write_leaves_partial_bytes_and_errors() {
        let tmp = TempDir::new("backend-torn");
        let b = FaultyBackend::new(FaultSchedule::new().fail_write(1, WriteFault::Torn { keep: 3 }));
        let p = tmp.0.join("x");
        assert!(b.write(&p, b"abcdef").is_err());
        assert_eq!(b.read(&p).unwrap(), b"abc");
    }

    #[test]
    fn silent_torn_write_reports_success() {
        let tmp = TempDir::new("backend-silent");
        let b = FaultyBackend::new(
            FaultSchedule::new().fail_write(1, WriteFault::SilentTorn { keep: 2 }),
        );
        let p = tmp.0.join("x");
        b.write(&p, b"abcdef").unwrap();
        assert_eq!(b.read(&p).unwrap(), b"ab");
    }

    #[test]
    fn append_accumulates_without_truncating() {
        let tmp = TempDir::new("backend-append");
        let b = FsBackend;
        let p = tmp.0.join("log");
        b.append(&p, b"one").unwrap();
        b.append(&p, b"two").unwrap();
        assert_eq!(b.read(&p).unwrap(), b"onetwo");
        // A faulty wrapper counts appends as write-class operations.
        let f = FaultyBackend::new(
            FaultSchedule::new().fail_write(2, WriteFault::Error(io::ErrorKind::StorageFull)),
        );
        f.append(&p, b"a").unwrap();
        let err = f.append(&p, b"b").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert_eq!(f.read(&p).unwrap(), b"onetwoa");
    }

    #[test]
    fn wrapping_delegates_to_inner_backend() {
        let tmp = TempDir::new("backend-wrap");
        let inner: Arc<dyn StorageBackend> = Arc::new(FsBackend);
        let b = FaultyBackend::wrapping(
            inner,
            FaultSchedule::new().fail_write(1, WriteFault::Error(io::ErrorKind::StorageFull)),
        );
        let p = tmp.0.join("x");
        assert!(b.write(&p, b"nope").is_err());
        b.write(&p, b"yes").unwrap();
        assert_eq!(b.read(&p).unwrap(), b"yes");
    }

    #[test]
    fn map_is_real_on_fs_and_faultable_through_wrappers() {
        let tmp = TempDir::new("backend-map");
        let p = tmp.0.join("x");
        FsBackend.write(&p, b"abcdefgh").unwrap();
        let mapped = FsBackend.map(&p).unwrap();
        assert_eq!(&*mapped, b"abcdefgh");
        #[cfg(unix)]
        assert!(mapped.is_mapped());

        // The default map() routes through read(), so scheduled read
        // faults hit mapped reads too — zero-copy must not become a
        // fault-injection blind spot.
        let b = FaultyBackend::new(
            FaultSchedule::new().fail_read(1, ReadFault::BitRot { offset: 0, mask: 0xFF }),
        );
        let rotted = b.map(&p).unwrap();
        assert!(!rotted.is_mapped());
        assert_eq!(rotted[0], b'a' ^ 0xFF);
        assert_eq!(&b.map(&p).unwrap()[..], b"abcdefgh");
    }

    #[test]
    fn bit_rot_damages_one_read_not_the_file() {
        let tmp = TempDir::new("backend-rot");
        let b = FaultyBackend::new(
            FaultSchedule::new().fail_read(1, ReadFault::BitRot { offset: 1, mask: 0xFF }),
        );
        let p = tmp.0.join("x");
        b.write(&p, b"abc").unwrap();
        let rotted = b.read(&p).unwrap();
        assert_eq!(rotted, vec![b'a', b'b' ^ 0xFF, b'c']);
        // The file on disk is intact; the next read is clean.
        assert_eq!(b.read(&p).unwrap(), b"abc");
    }
}
