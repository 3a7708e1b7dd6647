//! Quorum-replicated storage: one logical [`StorageBackend`] over N
//! replica backends.
//!
//! Every mutating operation fans out to all replicas and succeeds once a
//! write quorum `W` of them has acknowledged (each replica's own `write`
//! fsyncs, so quorum success means the bytes are durable on `W`
//! devices). Reads consult *every* replica and return the plurality
//! byte-content, so with `N = 3, W = 2` a single missing or bit-rotted
//! replica is simply outvoted — the chain stays restartable without
//! waiting for a scrub. Scrub's replica pass
//! ([`crate::scrub::scrub`]) then restores full replication by
//! rewriting divergent copies from a quorum-agreeing peer (read-repair).
//!
//! Replica directories live *under* the logical root, named
//! `@replica-0`, `@replica-1`, … — `@` is outside the session-name
//! charset enforced by numarck-serve, so a replica dir can never collide
//! with a session. Incoming paths (always under the logical root) are
//! rebased onto each replica root, and `list_dir` of the logical root
//! lists the replica roots instead, so the `@replica-*` names themselves
//! never leak into listings.

use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::backend::{FsBackend, StorageBackend};
use crate::obs;

/// One replica: a backend plus the root directory the logical tree is
/// rebased onto.
#[derive(Debug, Clone)]
pub struct ReplicaSpec {
    /// The backend performing this replica's I/O.
    pub backend: Arc<dyn StorageBackend>,
    /// Directory that mirrors the logical root for this replica.
    pub root: PathBuf,
}

/// N-way replicated [`StorageBackend`] with quorum-acknowledged writes.
#[derive(Debug)]
pub struct ReplicatedBackend {
    logical_root: PathBuf,
    replicas: Vec<ReplicaSpec>,
    write_quorum: usize,
    errors: Vec<AtomicU64>,
}

impl ReplicatedBackend {
    /// Compose `replicas` behind the logical root `logical_root`.
    ///
    /// `write_quorum` is clamped into `1..=replicas.len()`; panics if
    /// `replicas` is empty.
    pub fn new(logical_root: PathBuf, replicas: Vec<ReplicaSpec>, write_quorum: usize) -> Self {
        assert!(!replicas.is_empty(), "ReplicatedBackend needs at least one replica");
        let write_quorum = write_quorum.clamp(1, replicas.len());
        let errors = replicas.iter().map(|_| AtomicU64::new(0)).collect();
        Self { logical_root, replicas, write_quorum, errors }
    }

    /// Convenience: `n` [`FsBackend`] replicas under
    /// `root/@replica-{i}`, creating the directories now so a majority
    /// read never trips over a missing root.
    pub fn with_fs_replicas(root: &Path, n: usize, write_quorum: usize) -> io::Result<Self> {
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "replica count must be >= 1"));
        }
        let mut replicas = Vec::with_capacity(n);
        for i in 0..n {
            let replica_root = root.join(format!("@replica-{i}"));
            std::fs::create_dir_all(&replica_root)?;
            replicas.push(ReplicaSpec {
                backend: Arc::new(FsBackend) as Arc<dyn StorageBackend>,
                root: replica_root,
            });
        }
        Ok(Self::new(root.to_path_buf(), replicas, write_quorum))
    }

    /// Number of replicas.
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// Writes must reach this many replicas to succeed.
    pub fn write_quorum(&self) -> usize {
        self.write_quorum
    }

    /// The logical root all incoming paths are relative to.
    pub fn logical_root(&self) -> &Path {
        &self.logical_root
    }

    /// Per-replica count of failed operations since construction.
    pub fn error_counts(&self) -> Vec<u64> {
        self.errors.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    }

    /// Rebase a logical path onto replica `i`'s root.
    fn rebase(&self, i: usize, path: &Path) -> io::Result<PathBuf> {
        let rel = path.strip_prefix(&self.logical_root).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("path {} is outside logical root {}", path.display(), self.logical_root.display()),
            )
        })?;
        Ok(self.replicas[i].root.join(rel))
    }

    /// Read the logical `path` from replica `i` only.
    pub fn read_replica(&self, i: usize, path: &Path) -> io::Result<Vec<u8>> {
        let p = self.rebase(i, path)?;
        self.replicas[i].backend.read(&p)
    }

    /// Overwrite the logical `path` on replica `i` only (write + parent
    /// dir fsync) — the read-repair primitive.
    pub fn write_replica(&self, i: usize, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let p = self.rebase(i, path)?;
        if let Some(parent) = p.parent() {
            self.replicas[i].backend.create_dir_all(parent)?;
        }
        self.replicas[i].backend.write(&p, bytes)?;
        if let Some(parent) = p.parent() {
            self.replicas[i].backend.sync_dir(parent)?;
        }
        Ok(())
    }

    /// Run a read on every replica and return the [`plurality`] result.
    /// Failed replicas are counted and only surface when no replica
    /// answered.
    fn read_plurality<T: PartialEq>(
        &self,
        what: &str,
        op: impl Fn(usize) -> io::Result<T>,
    ) -> io::Result<T> {
        let mut first_err: Option<io::Error> = None;
        let mut answers = Vec::with_capacity(self.replicas.len());
        for i in 0..self.replicas.len() {
            match op(i) {
                Ok(data) => answers.push(data),
                Err(e) => {
                    self.errors[i].fetch_add(1, Ordering::Relaxed);
                    first_err.get_or_insert(e);
                }
            }
        }
        plurality(answers).ok_or_else(|| {
            first_err.unwrap_or_else(|| io::Error::other(format!("{what}: no replicas")))
        })
    }

    /// Fan a mutating operation out to every replica; succeed iff at
    /// least `write_quorum` replicas succeed, otherwise surface the
    /// first error. Per-replica failures are counted regardless.
    fn fan_out(&self, what: &str, op: impl Fn(usize, &dyn StorageBackend) -> io::Result<()>) -> io::Result<()> {
        let mut ok = 0usize;
        let mut first_err: Option<io::Error> = None;
        for (i, spec) in self.replicas.iter().enumerate() {
            match op(i, spec.backend.as_ref()) {
                Ok(()) => ok += 1,
                Err(e) => {
                    self.errors[i].fetch_add(1, Ordering::Relaxed);
                    obs::replica_write_errors_total().inc();
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        if ok >= self.write_quorum {
            Ok(())
        } else {
            obs::replica_quorum_failures_total().inc();
            Err(first_err
                .unwrap_or_else(|| io::Error::other(format!("{what}: no replica succeeded"))))
        }
    }
}

/// The most common value among `candidates`; a tie goes to the group
/// seen first, so with candidates in replica order the lowest replica
/// index wins and the vote is deterministic. `None` when there are no
/// candidates. Quorum reads and scrub's read-repair both vote with it.
pub(crate) fn plurality<T: PartialEq>(candidates: impl IntoIterator<Item = T>) -> Option<T> {
    let mut groups: Vec<(T, usize)> = Vec::new();
    for c in candidates {
        match groups.iter_mut().find(|(d, _)| *d == c) {
            Some(g) => g.1 += 1,
            None => groups.push((c, 1)),
        }
    }
    // Strictly greater keeps the earliest group in front on a tie.
    groups.into_iter().reduce(|best, g| if g.1 > best.1 { g } else { best }).map(|(d, _)| d)
}

impl StorageBackend for ReplicatedBackend {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.fan_out("create_dir_all", |i, b| {
            let p = self.rebase(i, dir)?;
            b.create_dir_all(&p)
        })
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.fan_out("write", |i, b| {
            let p = self.rebase(i, path)?;
            b.write(&p, bytes)
        })
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.fan_out("append", |i, b| {
            let p = self.rebase(i, path)?;
            b.append(&p, bytes)
        })
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.fan_out("rename", |i, b| {
            let f = self.rebase(i, from)?;
            let t = self.rebase(i, to)?;
            b.rename(&f, &t)
        })
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.fan_out("sync_dir", |i, b| {
            let p = self.rebase(i, dir)?;
            b.sync_dir(&p)
        })
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.read_plurality("read", |i| self.read_replica(i, path))
    }

    fn read_prefix(&self, path: &Path, len: usize) -> io::Result<(Vec<u8>, u64)> {
        self.read_plurality("read_prefix", |i| {
            self.replicas[i].backend.read_prefix(&self.rebase(i, path)?, len)
        })
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        // A replica that never had the file has trivially "removed" it.
        self.fan_out("remove_file", |i, b| {
            let p = self.rebase(i, path)?;
            match b.remove_file(&p) {
                Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
                _ => Ok(()),
            }
        })
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut names = BTreeSet::new();
        let mut first_err: Option<io::Error> = None;
        let mut ok = 0usize;
        for (i, spec) in self.replicas.iter().enumerate() {
            let p = self.rebase(i, dir)?;
            match spec.backend.list_dir(&p) {
                Ok(list) => {
                    ok += 1;
                    names.extend(list);
                }
                Err(e) => {
                    self.errors[i].fetch_add(1, Ordering::Relaxed);
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        if ok == 0 {
            Err(first_err.unwrap_or_else(|| io::Error::other("list_dir: no replicas")))
        } else {
            Ok(names.into_iter().collect())
        }
    }

    fn as_replicated(&self) -> Option<&ReplicatedBackend> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{FaultSchedule, FaultyBackend, WriteFault};
    use crate::store::testutil::TempDir;

    fn three_way(root: &Path) -> ReplicatedBackend {
        ReplicatedBackend::with_fs_replicas(root, 3, 2).unwrap()
    }

    #[test]
    fn write_lands_on_all_replicas() {
        let tmp = TempDir::new("repl-write");
        let b = three_way(&tmp.0);
        let p = tmp.0.join("sess").join("a.bin");
        b.create_dir_all(p.parent().unwrap()).unwrap();
        b.write(&p, b"payload").unwrap();
        for i in 0..3 {
            assert_eq!(b.read_replica(i, &p).unwrap(), b"payload");
        }
        assert_eq!(b.read(&p).unwrap(), b"payload");
    }

    #[test]
    fn majority_read_outvotes_one_bad_replica() {
        let tmp = TempDir::new("repl-vote");
        let b = three_way(&tmp.0);
        let p = tmp.0.join("a.bin");
        b.write(&p, b"good").unwrap();
        // Corrupt replica 0's copy; the plurality of replicas 1 and 2 wins.
        b.write_replica(0, &p, b"BAD!").unwrap();
        assert_eq!(b.read(&p).unwrap(), b"good");
        // Delete replica 1's copy entirely; 0 and 2 now disagree — the
        // tie goes to the lowest replica index.
        std::fs::remove_file(tmp.0.join("@replica-1").join("a.bin")).unwrap();
        assert_eq!(b.read(&p).unwrap(), b"BAD!");
    }

    #[test]
    fn quorum_write_survives_one_dead_replica() {
        let tmp = TempDir::new("repl-quorum");
        let always_full = (1..=64).fold(FaultSchedule::new(), |s, n| {
            s.fail_write(n, WriteFault::Error(io::ErrorKind::StorageFull))
        });
        let mut replicas = Vec::new();
        for i in 0..3usize {
            let root = tmp.0.join(format!("@replica-{i}"));
            std::fs::create_dir_all(&root).unwrap();
            let backend: Arc<dyn StorageBackend> = if i == 0 {
                Arc::new(FaultyBackend::new(always_full.clone()))
            } else {
                Arc::new(FsBackend)
            };
            replicas.push(ReplicaSpec { backend, root });
        }
        let b = ReplicatedBackend::new(tmp.0.clone(), replicas, 2);
        let p = tmp.0.join("a.bin");
        b.write(&p, b"x").unwrap(); // 2 of 3 suffice
        assert_eq!(b.error_counts(), vec![1, 0, 0]);
        assert_eq!(b.read(&p).unwrap(), b"x");
    }

    #[test]
    fn write_below_quorum_fails() {
        let tmp = TempDir::new("repl-noquorum");
        let mut replicas = Vec::new();
        for i in 0..2usize {
            let root = tmp.0.join(format!("@replica-{i}"));
            std::fs::create_dir_all(&root).unwrap();
            let schedule = (1..=8).fold(FaultSchedule::new(), |s, n| {
                s.fail_write(n, WriteFault::Error(io::ErrorKind::StorageFull))
            });
            replicas.push(ReplicaSpec {
                backend: Arc::new(FaultyBackend::new(schedule)) as Arc<dyn StorageBackend>,
                root,
            });
        }
        let b = ReplicatedBackend::new(tmp.0.clone(), replicas, 2);
        let err = b.write(&tmp.0.join("a.bin"), b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
    }

    #[test]
    fn list_dir_unions_and_skips_replica_dirs() {
        let tmp = TempDir::new("repl-list");
        let b = three_way(&tmp.0);
        let p = tmp.0.join("a.bin");
        b.write(&p, b"x").unwrap();
        // A file present on only one replica still shows up.
        b.write_replica(2, &tmp.0.join("only2.bin"), b"y").unwrap();
        let names = b.list_dir(&tmp.0).unwrap();
        assert_eq!(names, vec!["a.bin".to_string(), "only2.bin".to_string()]);
        assert!(!names.iter().any(|n| n.starts_with("@replica")));
    }

    #[test]
    fn paths_outside_logical_root_are_rejected() {
        let tmp = TempDir::new("repl-outside");
        let b = three_way(&tmp.0);
        let err = b.write(Path::new("/definitely/elsewhere"), b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn remove_file_tolerates_missing_copies() {
        let tmp = TempDir::new("repl-remove");
        let b = three_way(&tmp.0);
        let p = tmp.0.join("a.bin");
        b.write(&p, b"x").unwrap();
        std::fs::remove_file(tmp.0.join("@replica-0").join("a.bin")).unwrap();
        b.remove_file(&p).unwrap();
        for i in 0..3 {
            assert!(b.read_replica(i, &p).is_err());
        }
    }
}
