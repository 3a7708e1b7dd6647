//! Checkpoint/restart machinery built on NUMARCK compression.
//!
//! This crate is the storage side of the paper's Algorithm 1 and §II-D:
//!
//! * [`format`](mod@format) — an on-disk container for one checkpoint: either a
//!   *full* checkpoint (raw `f64` arrays per variable, the paper's `D_0`)
//!   or a *delta* checkpoint (one NUMARCK-compressed block per
//!   variable). CRC-protected, length-validated, and read through one
//!   checked view ([`format::CheckpointView`]) whatever its version.
//! * [`backend`] — the syscall boundary: every filesystem operation the
//!   store performs goes through a [`backend::StorageBackend`], so tests
//!   inject faults (ENOSPC on the Nth write, torn writes, read bit rot)
//!   exactly where real hardware would produce them.
//! * [`store`] — a directory of checkpoint files indexed by iteration,
//!   with atomic writes (temp file + rename + directory fsync) and a
//!   `quarantine/` area for damaged files.
//! * [`manager`] — the write-side policy: a full checkpoint every `K`
//!   iterations, NUMARCK deltas in between (change ratios computed
//!   against the *exact* previous iteration, as in the paper), plus
//!   bounded exponential-backoff retry for transient write faults.
//! * [`chain`] — the chain index: every stored file's kind, span and
//!   length from its header alone, and the one backward walk
//!   ([`chain::ChainIndex::resolve`]) that names the files a restart
//!   reads. Restart, compaction, placement and GC all resolve through
//!   it.
//! * [`restart`] — the read side: resolve the requested iteration's path
//!   to its base full checkpoint, pin those files, and replay the delta
//!   chain on top, reproducing the paper's restart equation (including
//!   its error accumulation behaviour). Degraded restart
//!   ([`restart::RestartEngine::restart_at_or_before`]) falls back to
//!   the newest intact iteration when the requested one is damaged.
//! * [`scrub`](mod@scrub) — offline integrity pass: CRC-verify every stored file,
//!   quarantine the damaged ones, and repair the chain by re-anchoring a
//!   fresh full checkpoint at the newest restartable iteration.
//! * [`journal`] + [`recovery`] — the crash contract: ingest and
//!   compaction write through [`IntentJournal::write_ahead`], and
//!   [`recover_session`] resolves what a crash left half-applied.
//! * [`replicated`] — N-way replica composition behind one logical
//!   backend: quorum-acknowledged writes, majority-content reads, and
//!   per-replica error accounting; scrub read-repairs divergent copies.
//! * [`fault`] — fault injection used by the recovery tests: truncate or
//!   bit-flip stored files and assert the reader degrades loudly, never
//!   silently.

pub mod backend;
pub mod chain;
pub mod fault;
pub mod format;
pub mod journal;
pub mod manager;
pub mod mmapio;
pub mod obs;
pub mod recovery;
pub mod replicated;
pub mod restart;
pub mod scrub;
pub mod store;

pub use backend::{FaultSchedule, FaultyBackend, FsBackend, ReadFault, StorageBackend, WriteFault};
pub use chain::{ChainIndex, StoredFile};
pub use format::{
    describe, sniff_version, CheckpointFile, CheckpointKind, CheckpointView, ContainerInfo, Hop,
    MappedCheckpoint, SectionInfo, VERSION_V1, VERSION_V2, WRITE_VERSION,
};
pub use journal::{IntentJournal, IntentRecord};
pub use mmapio::AlignedBytes;
pub use manager::{
    AdaptivePolicy, CheckpointManager, CheckpointOutcome, CheckpointReport, Clock, ManagerPolicy,
    PreparedCheckpoint, RetryPolicy, SystemClock,
};
pub use recovery::{recover_session, RecoveryReport};
pub use replicated::{ReplicaSpec, ReplicatedBackend};
pub use restart::{DegradedRestart, Head, LostIteration, RestartEngine};
pub use scrub::{repair, scrub, RepairReport, ReplicaScrubReport, ScrubFinding, ScrubReport};
pub use store::{CheckpointStore, StoreEntry};

/// Variables are keyed by name; every variable is an `f64` array of the
/// same length within one checkpoint stream.
pub type VariableSet = std::collections::BTreeMap<String, Vec<f64>>;
