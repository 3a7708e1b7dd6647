//! Kill-anywhere crash injection against `numarck compact`.
//!
//! The contract under test: **compaction never loses state.** Every
//! merged-delta write goes through the write-ahead intent journal and
//! the store's atomic-rename discipline, and superseded plain deltas
//! are removed only after their replacement is fsync-durable and
//! CRC-verified — so fail-stopping the compactor at *any* storage
//! operation boundary and then running a clean pass must leave every
//! iteration restartable to exactly the bits it restarted to before
//! compaction ever ran.
//!
//! The kill mechanism is the same `--die-after-ops K` knob the serve
//! sweep uses: the storage backend aborts the whole process (observably
//! identical to `kill -9`) at the entry of storage operation K+1,
//! walking the kill point through journal appends, temp writes, renames
//! and directory fsyncs of the maintenance pass.
//!
//! Environment knobs (for CI):
//!
//! - `NUMARCK_CRASH_POINTS=N` — sweep kill points `0..N` (default 96:
//!   a full pass over this chain is 38 storage operations, so the
//!   default walks every boundary and the budget-outlives-work tail).
//! - `NUMARCK_CRASH_REPORT=PATH` — append one JSON line per kill point.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

use numarck_checkpoint::{
    CheckpointManager, CheckpointStore, ManagerPolicy, RestartEngine, VariableSet,
};

const BIN: &str = env!("CARGO_BIN_EXE_numarck");
/// Iterations in the chain each kill point compacts.
const ITERS: u64 = 12;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "numarck-compact-crash-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("after epoch")
                .as_nanos()
        ));
        std::fs::create_dir_all(&path).expect("mkdir");
        Self(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn vars(iteration: u64) -> VariableSet {
    let mut v = VariableSet::new();
    v.insert(
        "x".into(),
        (0..96).map(|j| (j as f64 + 1.0) * 1.004f64.powi(iteration as i32)).collect(),
    );
    v
}

/// One full at iteration 0 plus a long plain-delta run.
fn build_store(dir: &Path) {
    let store = CheckpointStore::open(dir).expect("open store");
    let cfg = numarck::Config::new(8, 0.001, numarck::Strategy::Clustering).expect("config");
    let mut mgr = CheckpointManager::new(store, cfg, ManagerPolicy::fixed(1000));
    for it in 0..ITERS {
        mgr.checkpoint(it, &vars(it)).expect("checkpoint");
    }
}

/// Restart every iteration, returning the exact variable bits.
fn restart_all(dir: &Path) -> Vec<VariableSet> {
    let store = CheckpointStore::open(dir).expect("open store");
    let engine = RestartEngine::new(store);
    (0..ITERS).map(|it| engine.restart_at(it).expect("restart").vars).collect()
}

/// Run `numarck compact` on `dir`; returns whether it exited cleanly
/// (an exhausted `--die-after-ops` budget aborts the process instead).
fn run_compact(dir: &Path, extra: &[&str]) -> bool {
    let status = Command::new(BIN)
        .arg("compact")
        .arg(dir)
        .args(["--window", "4"])
        .args(extra)
        .output()
        .expect("spawn numarck compact")
        .status;
    status.success()
}

fn sweep_points() -> u64 {
    std::env::var("NUMARCK_CRASH_POINTS").ok().and_then(|v| v.parse().ok()).unwrap_or(96)
}

/// Append one JSON line per kill point when `NUMARCK_CRASH_REPORT` is
/// set — the surviving-chain report CI uploads as an artifact.
fn report_line(kill_after_ops: u64, died: bool) {
    let Ok(path) = std::env::var("NUMARCK_CRASH_REPORT") else {
        return;
    };
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .expect("open crash report");
    writeln!(
        f,
        "{{\"suite\":\"compact-fail-stop\",\"kill_after_ops\":{kill_after_ops},\
         \"died_mid_pass\":{died},\"iterations\":{ITERS},\"bit_exact\":true}}",
    )
    .expect("append crash report");
}

/// The deterministic sweep: fail-stop the compactor at storage
/// operation K+1 for every K, run a clean pass over the debris (which
/// replays the intent journal first), and demand that every iteration
/// still restarts to exactly its pre-compaction bits.
#[test]
fn compaction_kill_sweep_stays_bit_exact() {
    for k in 0..sweep_points() {
        let tmp = TempDir::new(&format!("sweep-{k}"));
        let dir = tmp.0.join("store");
        std::fs::create_dir_all(&dir).expect("store dir");
        build_store(&dir);
        let truth = restart_all(&dir);

        let die = k.to_string();
        let died = !run_compact(&dir, &["--die-after-ops", &die]);

        // The clean pass must cope with whatever the crash left behind:
        // outstanding intents, stray temp files, a half-advanced chain.
        assert!(run_compact(&dir, &[]), "kill point {k}: recovery pass failed");

        let after = restart_all(&dir);
        for (it, (a, b)) in truth.iter().zip(&after).enumerate() {
            assert!(
                vars_bits_equal(a, b),
                "kill point {k}: iteration {it} diverged after crashed compaction"
            );
        }

        // And the surviving files all validate.
        let scrub = Command::new(BIN)
            .arg("scrub")
            .arg(&dir)
            .output()
            .expect("spawn numarck scrub")
            .status;
        assert!(scrub.success(), "kill point {k}: store must scrub clean after recovery");

        report_line(k, died);
    }
}

/// Bit-level equality (`==` on f64 treats -0.0 == 0.0 and NaN != NaN).
fn vars_bits_equal(a: &VariableSet, b: &VariableSet) -> bool {
    a.len() == b.len()
        && a.iter().zip(b.iter()).all(|((na, va), (nb, vb))| {
            na == nb
                && va.len() == vb.len()
                && va.iter().zip(vb.iter()).all(|(x, y)| x.to_bits() == y.to_bits())
        })
}
