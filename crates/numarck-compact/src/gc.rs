//! Retention GC: delete superseded chain artefacts, provably safely.
//!
//! Retention names the iterations that must stay restartable:
//!
//! * the newest stored iteration (always),
//! * the newest `keep_last_fulls` full checkpoints,
//! * every stored iteration divisible by `keep_every` (when set).
//!
//! *Liveness* is then reachability: a file is live iff it lies on the
//! resolved restart path of some retained iteration — resolved by
//! [`ChainIndex::resolve`], the walk restart itself performs, so GC can
//! never delete a file restart would read. Everything else is dead:
//! plain deltas a merged delta superseded, deltas shadowed by a promoted
//! full, whole chains older than the retention horizon.
//!
//! Safety invariants, in order:
//!
//! 1. If any retained iteration's chain fails to resolve, **nothing**
//!    is deleted. A hole (quarantined or missing file) means the store
//!    needs scrub/repair, not a GC making it worse.
//! 2. Every live file is verified (a scrub-grade read: the whole-file
//!    CRC, every section's CRC and geometry, and its name) before the
//!    first delete. Deleting a dead file is only safe because a live
//!    replacement covers it — so the replacement must be proven intact
//!    first. Replacements were written fsync-durable (temp file +
//!    rename + dir fsync) by the store. A pass that deletes nothing
//!    proves nothing and reads no file.
//! 3. A dead file younger than `min_age_secs` survives; unknown age
//!    (metadata error) counts as young. This is a retention setting, not
//!    a reader guard: in-flight restarts are protected by pinning their
//!    files under the same lock GC runs under (numarck-serve's session
//!    lock), so a file on a pinned path is already mapped or copied
//!    before GC can unlink it.
//!
//! The removals become durable with one sync of the store directory
//! after the last of them, before the pass reports them; a failed sync
//! fails the pass.

use std::collections::HashSet;
use std::time::{Duration, SystemTime};

use numarck::error::NumarckError;
use numarck_checkpoint::chain::ChainIndex;
use numarck_checkpoint::store::CheckpointStore;

/// What one GC pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Files deleted.
    pub removed: u64,
    /// Bytes those files occupied.
    pub bytes_removed: u64,
    /// Files kept because they are live on a retained chain.
    pub live: u64,
    /// Dead files kept by the `min_age_secs` rule.
    pub kept_young: u64,
    /// Retained iterations whose chain failed to resolve. Non-zero
    /// means the pass deleted nothing (invariant 1).
    pub unresolvable: u64,
}

/// Run one retention pass. `keep_last_fulls` must be ≥ 1 — a GC that
/// may delete every full checkpoint is a GC that can destroy the store.
pub fn collect(
    store: &CheckpointStore,
    keep_last_fulls: usize,
    keep_every: u64,
    min_age_secs: u64,
) -> Result<GcReport, NumarckError> {
    let mut index = ChainIndex::load(store)
        .map_err(|e| NumarckError::Io(format!("chain index load failed: {e}")))?;
    collect_in(store, &mut index, keep_last_fulls, keep_every, min_age_secs)
}

/// [`collect`] over an index that describes the store as it is (just
/// loaded, or kept current by its owner); every file the pass deletes
/// leaves `index` too.
pub(crate) fn collect_in(
    store: &CheckpointStore,
    index: &mut ChainIndex,
    keep_last_fulls: usize,
    keep_every: u64,
    min_age_secs: u64,
) -> Result<GcReport, NumarckError> {
    assert!(keep_last_fulls >= 1, "retention must keep at least one full checkpoint");
    let mut report = GcReport::default();
    let Some(latest) = index.latest() else {
        return Ok(report); // empty store: nothing to retain, nothing to delete
    };

    // Retained iterations.
    let mut retained: HashSet<u64> = HashSet::new();
    retained.insert(latest);
    let fulls = index.fulls();
    for &f in fulls.iter().rev().take(keep_last_fulls) {
        retained.insert(f);
    }
    if keep_every > 0 {
        for it in index.iterations() {
            if it % keep_every == 0 {
                retained.insert(it);
            }
        }
    }

    // Live set = union of retained chains. Any unresolvable retained
    // chain aborts the pass (invariant 1).
    let mut live: HashSet<(u64, bool)> = HashSet::new();
    for &t in &retained {
        match index.resolve(t) {
            Ok(path) => live.extend(path.files()),
            Err(_) => report.unresolvable += 1,
        }
    }
    if report.unresolvable > 0 {
        return Ok(report);
    }

    report.live = live.len() as u64;

    // Dead files old enough to be settled.
    let now = SystemTime::now();
    let min_age = Duration::from_secs(min_age_secs);
    let mut doomed = Vec::new();
    for it in index.iterations() {
        let entry = index.entry(it).expect("iterated key");
        for (is_full, file) in [(true, entry.full), (false, entry.delta)] {
            let Some(file) = file else { continue };
            if live.contains(&(it, is_full)) {
                continue;
            }
            if min_age_secs > 0 && !old_enough(store, it, is_full, now, min_age) {
                report.kept_young += 1;
                continue;
            }
            doomed.push((it, is_full, file.bytes));
        }
    }
    if doomed.is_empty() {
        return Ok(report);
    }

    // Invariant 2: prove every live file intact before deleting its
    // superseded cover.
    for &(it, is_full) in &live {
        store.open_file(it, is_full).and_then(|view| view.verify()).map_err(|e| {
            NumarckError::Corrupt(format!(
                "gc aborted: live file (iteration {it}, full={is_full}) failed verification: {e}"
            ))
        })?;
    }

    for (it, is_full, bytes) in doomed {
        match store.remove(it, is_full) {
            Ok(()) => {
                report.removed += 1;
                report.bytes_removed += bytes;
            }
            // Already gone (e.g. a concurrent pass): that is the goal.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => {
                return Err(NumarckError::Io(format!(
                    "gc delete of iteration {it} (full={is_full}) failed: {e}"
                )))
            }
        }
        index.remove(it, is_full);
    }
    // A removal is durable only once its directory entry is: report the
    // files as gone only after that.
    store
        .backend()
        .sync_dir(store.dir())
        .map_err(|e| NumarckError::Io(format!("gc directory sync failed: {e}")))?;
    Ok(report)
}

/// Invariant 3: age unknown counts as young.
fn old_enough(
    store: &CheckpointStore,
    iteration: u64,
    is_full: bool,
    now: SystemTime,
    min_age: Duration,
) -> bool {
    std::fs::metadata(store.path_of(iteration, is_full))
        .and_then(|m| m.modified())
        .ok()
        .and_then(|mtime| now.duration_since(mtime).ok())
        .is_some_and(|age| age >= min_age)
}
