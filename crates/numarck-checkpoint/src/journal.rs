//! The write-ahead intent journal of a store directory.
//!
//! Every checkpoint write that ingest or compaction makes runs inside
//! [`IntentJournal::write_ahead`]: an *intent* record — sequence number,
//! iteration, checkpoint kind, and the content hash of the exact bytes
//! about to be written — is fsynced **before** the store mutates, and a
//! *commit* record follows best-effort. The content hash is the CRC
//! trailer those bytes already end in ([`crate::format::content_crc`]),
//! so journaling costs no pass over the file. After a crash,
//! [`IntentJournal::open`] replays the journal and reports the intents
//! that never committed, so recovery ([`crate::recovery`]) can decide per
//! intent whether the write completed, never started, or was
//! half-applied.
//!
//! Record framing, little-endian, one record per append:
//!
//! ```text
//! [0..4)  payload length (u32)
//! [4..8)  crc32 of the payload (u32)
//! [8..)   payload
//! ```
//!
//! Intent payload: tag `1`, seq (u64), iteration (u64), is_full (u8),
//! content hash (u32). Commit payload: tag `2`, seq (u64). Replay stops
//! at the first record that fails the length or CRC check, so a crash
//! mid-append loses only the record being written, and a failed append
//! is cut back to the last whole record, atomically, before the next one
//! is written. The journal lives in the store directory under a name the
//! store listing ignores, and is truncated whenever every recorded intent
//! is known to be resolved (recovery, or the in-memory outstanding count
//! reaching zero past a size threshold), so it cannot grow without bound.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use numarck::error::NumarckError;
use numarck::serialize as nser;

use crate::backend::StorageBackend;
use crate::manager::{RetryPolicy, SystemClock};
use crate::store::write_atomic;

/// File name of the journal inside a store directory. No `ckpt_`
/// prefix, so `CheckpointStore::list` never mistakes it for a
/// checkpoint.
pub const JOURNAL_FILE: &str = "intent.journal";

/// Once the journal passes this size with no outstanding intents, it is
/// compacted back to empty.
const COMPACT_BYTES: u64 = 64 * 1024;

const TAG_INTENT: u8 = 1;
const TAG_COMMIT: u8 = 2;

/// One journaled intent: a checkpoint a writer promised to write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntentRecord {
    /// Monotonic per-journal sequence number.
    pub seq: u64,
    /// The iteration the checkpoint captures.
    pub iteration: u64,
    /// Whether the file is a full checkpoint (`.full`) or a delta.
    pub is_full: bool,
    /// Content hash — the CRC trailer — of the exact bytes the store
    /// write will produce.
    pub content_crc: u32,
}

/// A store directory's write-ahead intent journal.
#[derive(Debug)]
pub struct IntentJournal {
    backend: Arc<dyn StorageBackend>,
    path: PathBuf,
    /// The journal file holds records under a synced directory entry.
    /// Until it does (the journal opened empty), the next append syncs
    /// the store directory.
    on_disk: bool,
    next_seq: u64,
    outstanding: usize,
    /// Length of the journal's whole records.
    len: u64,
    /// The file holds bytes past `len` (a failed append, or a torn tail
    /// found on open), to cut away before the next append.
    torn: bool,
}

impl IntentJournal {
    /// Open the journal in `store_dir`, replaying whatever it holds.
    ///
    /// Returns the journal (positioned after the highest recorded
    /// sequence number) and the intents that have no commit record — in
    /// append order — for recovery to resolve. A missing file is an
    /// empty journal; a torn tail is tolerated (see module docs).
    pub fn open(
        store_dir: &Path,
        backend: Arc<dyn StorageBackend>,
    ) -> io::Result<(Self, Vec<IntentRecord>)> {
        let path = store_dir.join(JOURNAL_FILE);
        let bytes = read_or_empty(backend.as_ref(), &path)?;
        let mut outstanding: Vec<IntentRecord> = Vec::new();
        let mut next_seq = 1u64;
        let mut cursor = &bytes[..];
        while cursor.len() >= 8 {
            let len = u32::from_le_bytes(cursor[0..4].try_into().expect("4 bytes")) as usize;
            let stored_crc = u32::from_le_bytes(cursor[4..8].try_into().expect("4 bytes"));
            if cursor.len() < 8 + len {
                break; // torn tail: the append that died mid-record
            }
            let payload = &cursor[8..8 + len];
            if nser::crc32(payload) != stored_crc {
                break; // torn or corrupt tail; nothing after it is trusted
            }
            match parse_payload(payload) {
                Some(Entry::Intent(rec)) => {
                    next_seq = next_seq.max(rec.seq + 1);
                    outstanding.push(rec);
                }
                Some(Entry::Commit { seq }) => {
                    next_seq = next_seq.max(seq + 1);
                    outstanding.retain(|r| r.seq != seq);
                }
                None => break, // unknown tag: written by a future version
            }
            cursor = &cursor[8 + len..];
        }
        let journal = Self {
            backend,
            path,
            on_disk: !bytes.is_empty(),
            next_seq,
            outstanding: outstanding.len(),
            len: (bytes.len() - cursor.len()) as u64,
            torn: !cursor.is_empty(),
        };
        Ok((journal, outstanding))
    }

    /// Intents appended but not yet committed (in-memory view).
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// True when the journal holds no bytes at all — nothing to replay,
    /// nothing worth truncating.
    pub fn is_empty(&self) -> bool {
        self.len == 0 && !self.torn
    }

    /// Record the intent to write a checkpoint: append + fsync, then
    /// return the sequence number to pass to [`Self::commit`]. Must be
    /// called **before** the store write it describes.
    pub fn begin(&mut self, iteration: u64, is_full: bool, content_crc: u32) -> io::Result<u64> {
        let seq = self.next_seq;
        let mut payload = Vec::with_capacity(22);
        payload.push(TAG_INTENT);
        payload.extend_from_slice(&seq.to_le_bytes());
        payload.extend_from_slice(&iteration.to_le_bytes());
        payload.push(u8::from(is_full));
        payload.extend_from_slice(&content_crc.to_le_bytes());
        self.append_record(&payload)?;
        self.next_seq = seq + 1;
        self.outstanding += 1;
        Ok(seq)
    }

    /// Record that the store write for `seq` landed (rename + dir sync
    /// done). Compacts the journal when nothing is outstanding and it
    /// has grown past the size threshold.
    pub fn commit(&mut self, seq: u64) -> io::Result<()> {
        let mut payload = Vec::with_capacity(9);
        payload.push(TAG_COMMIT);
        payload.extend_from_slice(&seq.to_le_bytes());
        self.append_record(&payload)?;
        self.outstanding = self.outstanding.saturating_sub(1);
        if self.outstanding == 0 && self.len > COMPACT_BYTES {
            self.reset()?;
        }
        Ok(())
    }

    /// The write-ahead bracket ingest and compaction write through:
    /// append and fsync the intent of `content_crc` at (`iteration`,
    /// `is_full`), retrying a transient failure under `retry` on
    /// [`SystemClock`] (`on_retry` runs before each retry); then run
    /// `write`, which leaves the file durable under its name; then
    /// append the commit record best-effort — the file has landed and its
    /// content hash is journaled, so recovery marks a commit-less intent
    /// completed.
    /// A failed intent append returns before `write` runs; a failed
    /// `write` returns with its intent outstanding for recovery.
    pub fn write_ahead<T>(
        &mut self,
        iteration: u64,
        is_full: bool,
        content_crc: u32,
        retry: RetryPolicy,
        mut on_retry: impl FnMut(),
        write: impl FnOnce() -> Result<T, NumarckError>,
    ) -> Result<T, NumarckError> {
        let begin = || self.begin(iteration, is_full, content_crc);
        let seq = retry
            .run(&SystemClock, begin, |_, _, _| on_retry())
            .map_err(|e| NumarckError::Io(format!("intent journal append failed: {e}")))?;
        let written = write()?;
        let _ = self.commit(seq);
        Ok(written)
    }

    /// Truncate the journal to empty. Only safe when every recorded
    /// intent is known to be resolved (committed, completed by recovery,
    /// or rolled back).
    pub fn reset(&mut self) -> io::Result<()> {
        self.backend.write(&self.path, &[])?;
        self.outstanding = 0;
        self.len = 0;
        self.torn = false;
        Ok(())
    }

    fn append_record(&mut self, payload: &[u8]) -> io::Result<()> {
        if self.torn {
            self.cut_back()?;
        }
        let mut record = Vec::with_capacity(8 + payload.len());
        record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        record.extend_from_slice(&nser::crc32(payload).to_le_bytes());
        record.extend_from_slice(payload);
        if let Err(e) = self.backend.append(&self.path, &record) {
            // Cut away what the failed append left; if that fails too,
            // the next append tries again first.
            self.torn = true;
            let _ = self.cut_back();
            return Err(e);
        }
        self.len += record.len() as u64;
        if !self.on_disk {
            // The append may have created the file: its record is durable
            // only once the directory entry is, and an intent must be
            // durable before the store write it guards.
            self.backend.sync_dir(self.path.parent().expect("journal lives in a directory"))?;
            self.on_disk = true;
        }
        Ok(())
    }

    /// Rewrite the journal as its whole records only, atomically as the
    /// store writes a checkpoint: truncating in place could lose good
    /// intents to a crash in between.
    fn cut_back(&mut self) -> io::Result<()> {
        let mut bytes = read_or_empty(self.backend.as_ref(), &self.path)?;
        bytes.truncate(self.len as usize);
        write_atomic(self.backend.as_ref(), &self.path, &bytes)?;
        self.torn = false;
        self.on_disk = true;
        Ok(())
    }
}

/// The journal's bytes; a missing file is an empty journal.
fn read_or_empty(backend: &dyn StorageBackend, path: &Path) -> io::Result<Vec<u8>> {
    match backend.read(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
        read => read,
    }
}

enum Entry {
    Intent(IntentRecord),
    Commit { seq: u64 },
}

fn parse_payload(payload: &[u8]) -> Option<Entry> {
    match *payload.first()? {
        TAG_INTENT if payload.len() == 22 => Some(Entry::Intent(IntentRecord {
            seq: u64::from_le_bytes(payload[1..9].try_into().expect("8 bytes")),
            iteration: u64::from_le_bytes(payload[9..17].try_into().expect("8 bytes")),
            is_full: payload[17] != 0,
            content_crc: u32::from_le_bytes(payload[18..22].try_into().expect("4 bytes")),
        })),
        TAG_COMMIT if payload.len() == 9 => Some(Entry::Commit {
            seq: u64::from_le_bytes(payload[1..9].try_into().expect("8 bytes")),
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{FaultSchedule, FaultyBackend, FsBackend, WriteFault};
    use crate::store::testutil::TempDir;

    fn open(dir: &Path) -> (IntentJournal, Vec<IntentRecord>) {
        IntentJournal::open(dir, Arc::new(FsBackend)).unwrap()
    }

    /// The real filesystem, logging each append, write and directory
    /// sync as `op name`.
    #[derive(Debug, Default)]
    struct Recording(std::sync::Mutex<Vec<String>>);

    impl Recording {
        fn log(&self, op: &str, path: &Path) {
            let name = path.file_name().unwrap().to_string_lossy();
            self.0.lock().unwrap().push(format!("{op} {name}"));
        }
    }

    impl StorageBackend for Recording {
        fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
            FsBackend.create_dir_all(dir)
        }
        fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
            self.log("write", path);
            FsBackend.write(path, bytes)
        }
        fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
            self.log("append", path);
            FsBackend.append(path, bytes)
        }
        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            FsBackend.rename(from, to)
        }
        fn sync_dir(&self, dir: &Path) -> io::Result<()> {
            self.log("sync_dir", dir);
            FsBackend.sync_dir(dir)
        }
        fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
            FsBackend.read(path)
        }
        fn map(&self, path: &Path) -> io::Result<crate::mmapio::AlignedBytes> {
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
    fn the_append_that_creates_the_journal_syncs_the_store_directory() {
        use crate::manager::{CheckpointManager, ManagerPolicy, RetryPolicy};
        use crate::store::CheckpointStore;

        let tmp = TempDir::new("journal-create-sync");
        let dir = tmp.0.join("store");
        let backend = Arc::new(Recording::default());
        let store = CheckpointStore::open_with(&dir, backend.clone()).unwrap();
        let cfg = numarck::Config::new(8, 0.001, numarck::Strategy::Clustering).unwrap();
        let mut manager = CheckpointManager::new(store, cfg, ManagerPolicy::fixed(4));
        let (mut journal, _) = IntentJournal::open(&dir, backend.clone()).unwrap();
        // Two puts through serve's bracket: prepare, then commit inside
        // the journal's write-ahead.
        for it in 0..2u64 {
            let mut vars = crate::VariableSet::new();
            vars.insert("x".into(), (0..64).map(|j| (j + 1) as f64 * (1.0 + it as f64 / 100.0)).collect());
            let prepared = manager.prepare(it, &vars).unwrap();
            let (is_full, crc) = (prepared.is_full(), prepared.content_crc());
            journal
                .write_ahead(it, is_full, crc, RetryPolicy::none(), || {}, || manager.commit(prepared))
                .unwrap();
        }
        let ops = backend.0.lock().unwrap().clone();
        let first = |op: &str| ops.iter().position(|o| o.starts_with(op)).unwrap_or_else(|| panic!("no {op}: {ops:?}"));
        let append = first("append intent.journal");
        let sync = first("sync_dir store");
        let write = first("write ckpt_");
        assert!(append < sync && sync < write, "the first intent is not durable before its write: {ops:?}");
        // Only the creating append syncs: each later record costs its
        // append alone.
        let syncs_before_write = ops[..write].iter().filter(|o| o.starts_with("sync_dir")).count();
        assert_eq!(syncs_before_write, 1, "{ops:?}");
        let appends_after = ops[write..].iter().filter(|o| o.starts_with("append")).count();
        let syncs_after = ops[write..].iter().filter(|o| o.starts_with("sync_dir")).count();
        assert_eq!((appends_after, syncs_after), (3, 2), "one sync per store write: {ops:?}");
    }

    #[test]
    fn empty_journal_has_no_outstanding_intents() {
        let tmp = TempDir::new("journal-empty");
        let (journal, outstanding) = open(&tmp.0);
        assert!(outstanding.is_empty());
        assert_eq!(journal.outstanding(), 0);
    }

    #[test]
    fn committed_intents_are_not_replayed() {
        let tmp = TempDir::new("journal-committed");
        {
            let (mut journal, _) = open(&tmp.0);
            let s1 = journal.begin(0, true, 0xAAAA).unwrap();
            journal.commit(s1).unwrap();
            let s2 = journal.begin(1, false, 0xBBBB).unwrap();
            journal.commit(s2).unwrap();
        }
        let (journal, outstanding) = open(&tmp.0);
        assert!(outstanding.is_empty());
        assert_eq!(journal.outstanding(), 0);
    }

    #[test]
    fn uncommitted_intent_survives_reopen() {
        let tmp = TempDir::new("journal-uncommitted");
        {
            let (mut journal, _) = open(&tmp.0);
            let s1 = journal.begin(0, true, 0x1111).unwrap();
            journal.commit(s1).unwrap();
            journal.begin(1, false, 0x2222).unwrap();
            // Process "dies" before commit.
        }
        let (mut journal, outstanding) = open(&tmp.0);
        assert_eq!(
            outstanding,
            vec![IntentRecord { seq: 2, iteration: 1, is_full: false, content_crc: 0x2222 }]
        );
        // Sequence numbers continue past everything recorded.
        assert_eq!(journal.begin(2, false, 0x3333).unwrap(), 3);
    }

    #[test]
    fn torn_tail_is_ignored_but_earlier_records_survive() {
        let tmp = TempDir::new("journal-torn");
        {
            let (mut journal, _) = open(&tmp.0);
            journal.begin(5, true, 0x5555).unwrap();
        }
        // Simulate a crash mid-append: half a record of garbage.
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(tmp.0.join(JOURNAL_FILE))
            .unwrap();
        f.write_all(&[22, 0, 0, 0, 0xDE, 0xAD]).unwrap();
        drop(f);
        let (_, outstanding) = open(&tmp.0);
        assert_eq!(outstanding.len(), 1);
        assert_eq!(outstanding[0].iteration, 5);
    }

    #[test]
    fn corrupt_record_crc_stops_replay_at_the_damage() {
        let tmp = TempDir::new("journal-crc");
        {
            let (mut journal, _) = open(&tmp.0);
            let s = journal.begin(0, true, 0x1).unwrap();
            journal.commit(s).unwrap();
            journal.begin(1, false, 0x2).unwrap();
        }
        // Flip a payload byte of the *last* record.
        let path = tmp.0.join(JOURNAL_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (_, outstanding) = open(&tmp.0);
        // The damaged intent is not trusted; the committed one stays
        // resolved.
        assert!(outstanding.is_empty());
    }

    #[test]
    fn reset_empties_the_journal() {
        let tmp = TempDir::new("journal-reset");
        {
            let (mut journal, _) = open(&tmp.0);
            journal.begin(0, true, 0x1).unwrap();
            journal.reset().unwrap();
        }
        let (_, outstanding) = open(&tmp.0);
        assert!(outstanding.is_empty());
    }

    #[test]
    fn journal_compacts_once_everything_is_committed() {
        let tmp = TempDir::new("journal-compact");
        let (mut journal, _) = open(&tmp.0);
        // Push well past the threshold; every intent is committed, so
        // the size must come back down instead of growing forever.
        for i in 0..3000u64 {
            let s = journal.begin(i, false, i as u32).unwrap();
            journal.commit(s).unwrap();
        }
        let len = std::fs::metadata(tmp.0.join(JOURNAL_FILE)).unwrap().len();
        assert!(len < COMPACT_BYTES, "journal did not compact: {len} bytes");
    }

    #[test]
    fn a_failed_append_is_cut_back_before_the_next_record() {
        // The journal's third write, the intent of iteration 1, lands
        // torn. Replay stops at torn bytes, so the retried intent must
        // not be appended after them.
        let tmp = TempDir::new("journal-torn-retry");
        let schedule = FaultSchedule::new().fail_write(3, WriteFault::Torn { keep: 11 });
        let (mut journal, _) =
            IntentJournal::open(&tmp.0, Arc::new(FaultyBackend::new(schedule))).unwrap();
        let s = journal.begin(0, true, 0x1).unwrap();
        journal.commit(s).unwrap();
        journal.begin(1, false, 0x2).expect_err("the injected torn append");
        let retried = journal.begin(1, false, 0x2).unwrap();
        drop(journal);

        let (_, outstanding) = open(&tmp.0);
        assert_eq!(
            outstanding,
            vec![IntentRecord { seq: retried, iteration: 1, is_full: false, content_crc: 0x2 }]
        );
        assert!(!tmp.0.join("intent.tmp").exists(), "the rewrite's temp file was renamed");
    }
}
