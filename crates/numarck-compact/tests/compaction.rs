//! Integration proof for the compaction subsystem: restart from a
//! compacted chain is bit-exact equal to restart from the original,
//! placement bounds the modeled worst-case restart cost, and GC never
//! deletes a file a retained restart would read.

use std::path::PathBuf;
use std::sync::Arc;

use numarck::{Config, Strategy};
use numarck_checkpoint::format::CheckpointView;
use numarck_checkpoint::manager::{CheckpointManager, ManagerPolicy};
use numarck_checkpoint::restart::RestartEngine;
use numarck_checkpoint::store::CheckpointStore;
use numarck_checkpoint::{
    recover_session, repair, ChainIndex, FaultSchedule, FaultyBackend, FsBackend, IntentJournal,
    VariableSet, WriteFault,
};
use numarck_compact::merge::vars_bits_equal;
use numarck_compact::{gc, CompactionConfig, CompactionReport, Compactor, CostModel};

/// Self-cleaning unique temp directory (store::testutil is crate-private).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let unique = format!(
            "numarck-compact-test-{tag}-{}-{}",
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

/// A simulation truth with both compaction regimes in one chain:
/// variable `x` evolves by smooth clustered ratios (the composed-ratio
/// path), variable `z` has values popping in and out of zero and
/// per-point noise (the escape/re-encode path).
fn truth_sequence(iters: u64, n: usize) -> Vec<VariableSet> {
    let mut x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 13) as f64).collect();
    let mut out = Vec::new();
    for it in 0..iters {
        if it > 0 {
            for (i, v) in x.iter_mut().enumerate() {
                *v *= 1.0 + 0.004 * (((i as u64 + it) % 5) as f64 - 2.0) / 2.0;
            }
        }
        let z: Vec<f64> = (0..n)
            .map(|i| {
                if (i as u64 + it).is_multiple_of(4) {
                    0.0
                } else {
                    // Per-point, per-iteration values: ratios rarely repeat,
                    // so most points overflow the table and escape.
                    ((i as u64 * 2654435761 + it * 40503) % 100_000) as f64 + 0.5
                }
            })
            .collect();
        let mut vars = VariableSet::new();
        vars.insert("x".into(), x.clone());
        vars.insert("z".into(), z);
        out.push(vars);
    }
    out
}

fn build_store(dir: &PathBuf, truth: &[VariableSet], full_interval: u64) -> CheckpointStore {
    let store = CheckpointStore::open(dir).unwrap();
    let cfg = Config::new(8, 0.001, Strategy::Clustering).unwrap();
    let mut mgr = CheckpointManager::new(store.clone(), cfg, ManagerPolicy::fixed(full_interval));
    for (it, vars) in truth.iter().enumerate() {
        mgr.checkpoint(it as u64, vars).unwrap();
    }
    store
}

fn restart_all(store: &CheckpointStore, iters: u64) -> Vec<VariableSet> {
    let engine = RestartEngine::new(store.clone());
    (0..iters).map(|it| engine.restart_at(it).unwrap().vars).collect()
}

/// The store's intent journal, opened on a plain [`FsBackend`] so that a
/// [`FaultyBackend`] under the store numbers and counts only the store's
/// own operations.
fn journal(store: &CheckpointStore) -> IntentJournal {
    IntentJournal::open(store.dir(), Arc::new(FsBackend)).unwrap().0
}

/// One maintenance pass over a freshly loaded index, as a caller
/// without a session (the CLI) runs it.
fn run_pass(
    compactor: &Compactor,
    store: &CheckpointStore,
) -> Result<CompactionReport, numarck::NumarckError> {
    compactor.run(store, &mut journal(store), &mut ChainIndex::load(store).unwrap())
}

#[test]
fn compacted_chain_restarts_bit_exact_everywhere() {
    let tmp = TempDir::new("bit-exact");
    let iters = 56u64;
    let truth = truth_sequence(iters, 300);
    // One full at 0, then 55 plain deltas: maximal compaction surface.
    let store = build_store(&tmp.0, &truth, 1000);
    let before = restart_all(&store, iters);

    let compactor = Compactor::new(CompactionConfig {
        merge_window: 4,
        restart_slo_ns: None,
        keep_last_fulls: 0,
        ..CompactionConfig::default()
    });
    let report = run_pass(&compactor, &store).unwrap();

    // 55 plain deltas (1..=55) yield 13 complete 4-windows.
    assert_eq!(report.merges, 13, "report: {report:?}");
    assert_eq!(report.deltas_merged, 52);
    // The acceptance criterion demands proof for BOTH the
    // ratio-composition path and the re-encode (escape) path.
    assert!(report.merge_stats.ratio_coded > 0, "no composed ratios: {:?}", report.merge_stats);
    assert!(report.merge_stats.escaped > 0, "no escapes: {:?}", report.merge_stats);

    // Every iteration — including ones mid-window, whose chains now pass
    // through merged deltas — restarts to bit-identical state.
    let after = restart_all(&store, iters);
    for (it, (a, b)) in before.iter().zip(&after).enumerate() {
        assert!(vars_bits_equal(a, b), "iteration {it} diverged after compaction");
    }

    // Merged deltas break plain runs, so a second pass finds nothing new.
    let second = run_pass(&compactor, &store).unwrap();
    assert_eq!(second.merges, 0, "compaction must be idempotent: {second:?}");
}

/// A pass planned from a snapshot of the index and applied after the
/// chain grew past the snapshot's newest iteration (how the serve
/// worker runs it, planning without the session lock) writes exactly the
/// merged files a pass run at the snapshot writes, and every iteration,
/// the appended ones included, still restarts bit-exact.
#[test]
fn a_plan_applied_after_appends_writes_what_a_run_writes() {
    let truth = truth_sequence(20, 200);
    let compactor = Compactor::new(CompactionConfig {
        merge_window: 4,
        restart_slo_ns: None,
        keep_last_fulls: 0,
        ..CompactionConfig::default()
    });
    let (a, b) = (TempDir::new("plan-run"), TempDir::new("plan-apply"));
    let run_store = build_store(&a.0, &truth[..13], 1000);
    let planned_store = build_store(&b.0, &truth[..13], 1000);
    let ran = run_pass(&compactor, &run_store).unwrap();

    let snapshot = ChainIndex::load(&planned_store).unwrap();
    let plan = compactor.plan(&planned_store, &snapshot).unwrap();
    // Appends land between the plan and its apply: a full at 13, then
    // deltas.
    let grown = planned_store;
    let cfg = Config::new(8, 0.001, Strategy::Clustering).unwrap();
    let mut mgr = CheckpointManager::new(grown.clone(), cfg, ManagerPolicy::fixed(1000));
    for (it, vars) in truth.iter().enumerate().skip(13) {
        mgr.checkpoint(it as u64, vars).unwrap();
    }
    let want = restart_all(&grown, 20);
    let mut index = ChainIndex::load(&grown).unwrap();
    let applied = compactor.apply(plan, &grown, &mut journal(&grown), &mut index).unwrap();

    assert_eq!((applied.merges, applied.deltas_merged), (ran.merges, ran.deltas_merged));
    assert_eq!(applied.merges, 3, "12 plain deltas, three 4-windows");
    for end in [4, 8, 12] {
        assert_eq!(grown.read_raw(end, false).unwrap(), run_store.read_raw(end, false).unwrap());
    }
    assert_eq!(index, ChainIndex::load(&grown).unwrap(), "apply keeps the index current");
    let engine = RestartEngine::new(grown.clone());
    for (it, want) in want.iter().enumerate() {
        assert!(vars_bits_equal(&engine.restart_at(it as u64).unwrap().vars, want));
    }
}

#[test]
fn escape_heavy_delta_compacts_bit_exact() {
    let tmp = TempDir::new("escape-heavy");
    let iters = 9u64;
    let n = 1200;
    // Pure noise: nearly every changing point has a unique ratio, far
    // overflowing the 255-entry table, so the deltas being merged are
    // escape-dominated — the ISSUE's "escaped-value-heavy delta" edge
    // case. Static zeros exercise the unchanged path alongside.
    let truth: Vec<VariableSet> = (0..iters)
        .map(|it| {
            let z: Vec<f64> = (0..n)
                .map(|i| {
                    if i % 3 == 0 {
                        0.0
                    } else {
                        ((i as u64 * 48271 + it * 69621) % 999_983) as f64 * 1e-3 + 1e-6
                    }
                })
                .collect();
            let mut vars = VariableSet::new();
            vars.insert("z".into(), z);
            vars
        })
        .collect();
    let store = build_store(&tmp.0, &truth, 1000);
    let before = restart_all(&store, iters);

    let report = Compactor::new(CompactionConfig {
        merge_window: 8,
        keep_last_fulls: 0,
        ..CompactionConfig::default()
    })
    .run(&store, &mut journal(&store), &mut ChainIndex::load(&store).unwrap())
    .unwrap();
    assert_eq!(report.merges, 1);
    assert!(
        report.merge_stats.escaped > report.merge_stats.ratio_coded
            && report.merge_stats.unchanged > 0,
        "expected an escape-dominated merge: {:?}",
        report.merge_stats
    );

    let after = restart_all(&store, iters);
    for (it, (a, b)) in before.iter().zip(&after).enumerate() {
        assert!(vars_bits_equal(a, b), "iteration {it} diverged");
    }
}

#[test]
fn placement_bounds_worst_case_cost_under_slo() {
    let tmp = TempDir::new("placement-slo");
    let iters = 56u64;
    let truth = truth_sequence(iters, 200);
    // 55-deep delta chain behind a single full at 0.
    let store = build_store(&tmp.0, &truth, 1000);
    let before = restart_all(&store, iters);

    // Synthetic model: replaying a delta costs 1 ms, decoding a full is
    // free. SLO of 5 ms allows at most 5 hops to the nearest full.
    let cost = CostModel { full_ns_per_byte: 0.0, delta_replay_ns: 1_000_000.0 };
    let slo = 5_000_000u64;
    let index = ChainIndex::load(&store).unwrap();
    assert!(cost.worst_case_cost_ns(&index).unwrap() > slo, "chain must start in violation");

    let report = Compactor::new(CompactionConfig {
        merge_window: 0, // isolate the placement policy
        restart_slo_ns: Some(slo),
        keep_last_fulls: 0,
        cost,
        ..CompactionConfig::default()
    })
    .run(&store, &mut journal(&store), &mut ChainIndex::load(&store).unwrap())
    .unwrap();

    assert!(report.fulls_promoted >= 8, "expected a full every ~6 iterations: {report:?}");
    let worst = report.worst_case_cost_ns.expect("chain resolvable");
    assert!(worst <= slo, "worst case {worst} ns still exceeds SLO {slo} ns");

    // Promoted fulls are materialised replay states, so every restart
    // stays bit-identical.
    let after = restart_all(&store, iters);
    for (it, (a, b)) in before.iter().zip(&after).enumerate() {
        assert!(vars_bits_equal(a, b), "iteration {it} diverged after placement");
    }
}

#[test]
fn gc_removes_superseded_deltas_and_keeps_retained_chains() {
    let tmp = TempDir::new("gc-supersede");
    let iters = 21u64;
    let truth = truth_sequence(iters, 200);
    let store = build_store(&tmp.0, &truth, 1000);
    let engine = RestartEngine::new(store.clone());
    let latest_before = engine.restart_at(iters - 1).unwrap().vars;
    let kept_before = engine.restart_at(4).unwrap().vars;

    let mut index = ChainIndex::load(&store).unwrap();
    let report = Compactor::new(CompactionConfig {
        merge_window: 4,
        keep_last_fulls: 1,
        keep_every: 4,
        min_age_secs: 0,
        ..CompactionConfig::default()
    })
    .run(&store, &mut journal(&store), &mut index)
    .unwrap();
    // The pass kept the caller's index current through its merges and
    // deletes.
    assert_eq!(index, ChainIndex::load(&store).unwrap());
    assert!(report.merges > 0);
    assert!(report.gc.removed > 0, "superseded plain deltas should be collected: {report:?}");
    assert_eq!(report.gc.unresolvable, 0);
    assert!(report.bytes_reclaimed > 0);

    // Iteration 4's chain is now [full 0, merged delta 4]; the plain
    // deltas 1..3 it superseded are gone.
    assert!(!store.path_of(1, false).exists(), "superseded delta 1 should be deleted");
    assert!(!store.path_of(2, false).exists(), "superseded delta 2 should be deleted");
    // Retained iterations still restart to bit-identical state.
    assert!(vars_bits_equal(&engine.restart_at(iters - 1).unwrap().vars, &latest_before));
    let r4 = engine.restart_at(4).unwrap();
    assert!(vars_bits_equal(&r4.vars, &kept_before));
    assert_eq!(r4.deltas_applied, 1, "iteration 4 should resolve through the merged delta");
    // Non-retained mid-window iterations are genuinely gone.
    assert!(engine.restart_at(2).is_err(), "collected iteration must fail loudly");
}

/// The real filesystem, logging each removal and directory sync.
#[derive(Debug, Default)]
struct Recording(std::sync::Mutex<Vec<String>>);

impl Recording {
    fn log(&self, op: &str, path: &std::path::Path) {
        let name = path.file_name().unwrap().to_string_lossy();
        self.0.lock().unwrap().push(format!("{op} {name}"));
    }
}

impl numarck_checkpoint::StorageBackend for Recording {
    fn create_dir_all(&self, dir: &std::path::Path) -> std::io::Result<()> {
        FsBackend.create_dir_all(dir)
    }
    fn write(&self, path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
        FsBackend.write(path, bytes)
    }
    fn append(&self, path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
        FsBackend.append(path, bytes)
    }
    fn rename(&self, from: &std::path::Path, to: &std::path::Path) -> std::io::Result<()> {
        FsBackend.rename(from, to)
    }
    fn sync_dir(&self, dir: &std::path::Path) -> std::io::Result<()> {
        self.log("sync_dir", dir);
        FsBackend.sync_dir(dir)
    }
    fn read(&self, path: &std::path::Path) -> std::io::Result<Vec<u8>> {
        FsBackend.read(path)
    }
    fn map(&self, path: &std::path::Path) -> std::io::Result<numarck_checkpoint::AlignedBytes> {
        FsBackend.map(path)
    }
    fn remove_file(&self, path: &std::path::Path) -> std::io::Result<()> {
        self.log("remove", path);
        FsBackend.remove_file(path)
    }
    fn list_dir(&self, dir: &std::path::Path) -> std::io::Result<Vec<String>> {
        FsBackend.list_dir(dir)
    }
}

#[test]
fn gc_syncs_the_store_directory_before_it_reports_removals() {
    let tmp = TempDir::new("gc-sync");
    let dir = tmp.0.join("store");
    // Fulls at 0, 4 and 8: with one full kept, the chains before 8 die.
    build_store(&dir, &truth_sequence(10, 100), 4);
    let backend = Arc::new(Recording::default());
    let store = CheckpointStore::open_with(&dir, backend.clone()).unwrap();
    let report = gc::collect(&store, 1, 0, 0).unwrap();
    assert_eq!(report.removed, 8);
    let ops = backend.0.lock().unwrap().clone();
    let removes: Vec<usize> =
        ops.iter().enumerate().filter(|(_, o)| o.starts_with("remove")).map(|(i, _)| i).collect();
    assert_eq!(removes.len(), 8, "{ops:?}");
    assert_eq!(ops[removes[7] + 1..], ["sync_dir store".to_string()], "{ops:?}");

    // A pass whose directory sync fails reports an error, not removals.
    let dir = tmp.0.join("store-sync-fails");
    build_store(&dir, &truth_sequence(10, 100), 4);
    let schedule = FaultSchedule::new().fail_sync_dir(1, std::io::ErrorKind::PermissionDenied);
    let store = CheckpointStore::open_with(&dir, Arc::new(FaultyBackend::new(schedule))).unwrap();
    let err = gc::collect(&store, 1, 0, 0).unwrap_err();
    assert!(err.to_string().contains("gc directory sync failed"), "{err}");
}

#[test]
fn gc_on_empty_store_is_a_noop() {
    let tmp = TempDir::new("gc-empty");
    let store = CheckpointStore::open(&tmp.0).unwrap();
    let report = gc::collect(&store, 1, 0, 0).unwrap();
    assert_eq!(report, Default::default());
}

#[test]
fn gc_with_every_iteration_quarantined_is_a_noop() {
    let tmp = TempDir::new("gc-quarantined");
    let truth = truth_sequence(6, 100);
    let store = build_store(&tmp.0, &truth, 3);
    for entry in store.list().unwrap() {
        store.quarantine(entry.iteration, entry.is_full).unwrap();
    }
    let report = gc::collect(&store, 1, 0, 0).unwrap();
    assert_eq!(report, Default::default(), "quarantined store must be left alone");
    // The quarantined files themselves are untouched.
    assert!(store.quarantine_dir().read_dir().unwrap().count() >= 6);
}

#[test]
fn gc_aborts_whole_pass_when_a_retained_chain_is_broken() {
    let tmp = TempDir::new("gc-broken-chain");
    let truth = truth_sequence(10, 100);
    let store = build_store(&tmp.0, &truth, 1000);
    // Break the latest (always-retained) chain mid-way.
    store.quarantine(7, false).unwrap();
    let files_before = store.list().unwrap().len();
    let report = gc::collect(&store, 1, 0, 0).unwrap();
    assert!(report.unresolvable >= 1);
    assert_eq!(report.removed, 0, "a broken retained chain must abort deletion");
    assert_eq!(store.list().unwrap().len(), files_before);
}

#[test]
fn gc_min_age_keeps_young_dead_files() {
    let tmp = TempDir::new("gc-min-age");
    let truth = truth_sequence(12, 100);
    // Fulls every 4 iterations: deltas behind old fulls are dead under
    // keep_last_fulls=1, but everything was written milliseconds ago.
    let store = build_store(&tmp.0, &truth, 4);
    let files_before = store.list().unwrap().len();
    let report = gc::collect(&store, 1, 0, 3600).unwrap();
    assert_eq!(report.removed, 0);
    assert!(report.kept_young > 0, "young dead files must be counted: {report:?}");
    assert_eq!(store.list().unwrap().len(), files_before);
}

#[test]
fn gc_with_a_damaged_live_cover_deletes_nothing() {
    let tmp = TempDir::new("gc-damaged-cover");
    let truth = truth_sequence(12, 100);
    // Fulls at 0, 4, 8: under keep_last_fulls=1 the live chain is
    // [full 8, deltas 9..=11] and every older file is dead.
    let store = build_store(&tmp.0, &truth, 4);
    let path = store.path_of(10, false);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&path, &bytes).unwrap();
    let files_before = store.list().unwrap().len();
    match gc::collect(&store, 1, 0, 0) {
        Err(numarck::NumarckError::Corrupt(msg)) => assert!(msg.contains("iteration 10"), "{msg}"),
        other => panic!("a damaged live file must abort the pass: {other:?}"),
    }
    assert_eq!(store.list().unwrap().len(), files_before, "nothing may be deleted");
}

#[test]
fn gc_pass_with_nothing_to_delete_reads_no_file() {
    let tmp = TempDir::new("gc-no-reads");
    let backend = Arc::new(FaultyBackend::new(FaultSchedule::new()));
    let store = CheckpointStore::open_with(&tmp.0, backend.clone()).unwrap();
    let cfg = Config::new(8, 0.001, Strategy::Clustering).unwrap();
    let mut mgr = CheckpointManager::new(store.clone(), cfg, ManagerPolicy::fixed(4));
    for (it, vars) in truth_sequence(12, 100).iter().enumerate() {
        mgr.checkpoint(it as u64, vars).unwrap();
    }
    let files_before = store.list().unwrap().len();

    // Every dead file is young, so the pass deletes nothing and must not
    // read a single file to prove it.
    let reads = backend.reads_attempted();
    let report = gc::collect(&store, 1, 0, 3600).unwrap();
    assert_eq!(report.removed, 0);
    assert!(report.kept_young > 0, "{report:?}");
    assert_eq!(backend.reads_attempted(), reads, "a pass that deletes nothing read a file");

    // Every iteration retained, so nothing is dead: no reads either.
    let report = gc::collect(&store, 1, 1, 0).unwrap();
    assert_eq!((report.removed, report.kept_young), (0, 0), "{report:?}");
    assert_eq!(backend.reads_attempted(), reads, "a pass with no dead file read a file");

    // A pass that deletes verifies every live file first.
    let report = gc::collect(&store, 1, 0, 0).unwrap();
    assert!(report.removed > 0, "{report:?}");
    assert_eq!(backend.reads_attempted(), reads + report.live);
    assert_eq!(store.list().unwrap().len() as u64, files_before as u64 - report.removed);
}

#[test]
fn gc_keeps_the_reanchor_point_alive() {
    let tmp = TempDir::new("gc-reanchor");
    let iters = 10u64;
    let truth = truth_sequence(iters, 100);
    let store = build_store(&tmp.0, &truth, 1000);
    // Corrupt the newest delta, then repair: scrub quarantines it and
    // re-anchors a fresh full at the newest restartable iteration.
    let path = store.path_of(iters - 1, false);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    let rep = repair(&store).unwrap();
    assert!(rep.anchored_at.is_some(), "repair should re-anchor: {rep:?}");
    let anchor = rep.anchored_at.unwrap();
    let engine = RestartEngine::new(store.clone());
    let anchored_state = engine.restart_at(anchor).unwrap().vars;

    // Aggressive retention must still keep the re-anchor full — it is
    // both the newest full and on the latest iteration's chain.
    let report = gc::collect(&store, 1, 0, 0).unwrap();
    assert_eq!(report.unresolvable, 0, "re-anchored store must resolve: {report:?}");
    assert!(store.path_of(anchor, true).exists(), "re-anchor full must survive GC");
    let r = engine.restart_at(anchor).unwrap();
    assert!(vars_bits_equal(&r.vars, &anchored_state));
    assert_eq!(r.deltas_applied, 0, "anchor restarts straight from its full");
}

#[test]
fn gc_racing_concurrent_restart_reads_never_breaks_them() {
    let tmp = TempDir::new("gc-race");
    let iters = 24u64;
    let truth = truth_sequence(iters, 150);
    let store = build_store(&tmp.0, &truth, 1000);
    let compactor = Compactor::new(CompactionConfig {
        merge_window: 4,
        keep_last_fulls: 1,
        keep_every: 8,
        min_age_secs: 0,
        ..CompactionConfig::default()
    });

    // Readers hammer retained iterations (the latest and a keep_every
    // multiple) while maintenance merges and collects. GC only deletes
    // files off retained chains, so every read must keep succeeding.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let readers: Vec<_> = [iters - 1, 16u64]
        .into_iter()
        .map(|target| {
            let engine = RestartEngine::new(store.clone());
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut reads = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    engine
                        .restart_at(target)
                        .unwrap_or_else(|e| panic!("restart at {target} broke during gc: {e}"));
                    reads += 1;
                }
                reads
            })
        })
        .collect();

    for _ in 0..4 {
        run_pass(&compactor, &store).unwrap();
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for reader in readers {
        assert!(reader.join().expect("reader must not panic") > 0);
    }
}

#[test]
fn failed_compaction_write_leaves_the_chain_intact() {
    let tmp = TempDir::new("fault-write");
    let iters = 10u64;
    let truth = truth_sequence(iters, 150);
    let store = build_store(&tmp.0, &truth, 1000);
    let before = restart_all(&store, iters);

    // First compaction write (the merged delta's temp file) fails: the
    // rename never happens, so the original chain must be untouched.
    let schedule =
        FaultSchedule::new().fail_write(1, WriteFault::Error(std::io::ErrorKind::Other));
    let faulty =
        CheckpointStore::open_with(&tmp.0, Arc::new(FaultyBackend::wrapping(Arc::new(FsBackend), schedule)))
            .unwrap();
    let compactor = Compactor::new(CompactionConfig {
        merge_window: 4,
        keep_last_fulls: 0,
        ..CompactionConfig::default()
    });
    run_pass(&compactor, &faulty).expect_err("injected write fault must surface");

    let after = restart_all(&store, iters);
    for (it, (a, b)) in before.iter().zip(&after).enumerate() {
        assert!(vars_bits_equal(a, b), "iteration {it} changed after failed compaction");
    }

    // Once the fault clears, the same pass completes and stays bit-exact.
    let report = run_pass(&compactor, &store).unwrap();
    assert!(report.merges > 0);
    let healed = restart_all(&store, iters);
    for (it, (a, b)) in before.iter().zip(&healed).enumerate() {
        assert!(vars_bits_equal(a, b), "iteration {it} diverged after retry");
    }
}

#[test]
fn torn_compaction_write_quarantines_and_repair_reanchors() {
    let tmp = TempDir::new("fault-torn");
    let iters = 10u64;
    let truth = truth_sequence(iters, 150);
    let store = build_store(&tmp.0, &truth, 1000);
    let engine = RestartEngine::new(store.clone());
    let safe_state = engine.restart_at(3).unwrap().vars;

    // The write "succeeds" but lands torn (silent storage corruption):
    // the read-back byte compare catches it, quarantines the damaged
    // merged delta, and errors out with the intent left outstanding.
    let schedule = FaultSchedule::new().fail_write(1, WriteFault::SilentTorn { keep: 40 });
    let faulty =
        CheckpointStore::open_with(&tmp.0, Arc::new(FaultyBackend::wrapping(Arc::new(FsBackend), schedule)))
            .unwrap();
    let compactor = Compactor::new(CompactionConfig {
        merge_window: 4,
        keep_last_fulls: 0,
        ..CompactionConfig::default()
    });
    let err = run_pass(&compactor, &faulty).expect_err("torn write must be caught");
    assert!(format!("{err}").contains("read-back"), "unexpected error: {err}");

    // The torn merged delta replaced plain delta 4 in place, so the
    // chain is now broken at 4 — exactly what the scrub/re-anchor
    // machinery exists for. Repair brings the store back to a
    // restartable state, bit-exact below the damage.
    assert!(engine.restart_at(iters - 1).is_err());
    let rep = repair(&store).unwrap();
    assert!(rep.anchored_at.is_some(), "repair should re-anchor: {rep:?}");
    assert!(vars_bits_equal(&engine.restart_at(3).unwrap().vars, &safe_state));
}

/// Each way the write-ahead bracket can fail under a maintenance pass,
/// injected by a [`FaultyBackend`] under the store and its journal: what
/// the pass returns, and what the journal and recovery make of it.
#[test]
fn the_compaction_bracket_fails_as_the_journal_contract_says() {
    // The pass's first merge (window 1..=4, written at 4) appends its
    // intent (write 1), writes the merged delta's temp file (write 2)
    // and appends the commit record (write 3).
    let denied = WriteFault::Error(std::io::ErrorKind::PermissionDenied);
    let cases = [
        ("intent", 1, denied),
        ("store write", 2, denied),
        ("read-back", 2, WriteFault::SilentTorn { keep: 40 }),
        ("commit", 3, denied),
    ];
    for (case, nth, fault) in cases {
        let tmp = TempDir::new("bracket");
        let store = build_store(&tmp.0, &truth_sequence(10, 150), 1000);
        let plain = std::fs::read(store.path_of(4, false)).unwrap();
        let backend = Arc::new(FaultyBackend::new(FaultSchedule::new().fail_write(nth, fault)));
        let faulty = CheckpointStore::open_with(&tmp.0, backend.clone()).unwrap();
        let (mut journal, _) = IntentJournal::open(&tmp.0, backend).unwrap();
        let compactor = Compactor::new(CompactionConfig {
            merge_window: 4,
            keep_last_fulls: 0,
            ..CompactionConfig::default()
        });
        let result =
            compactor.run(&faulty, &mut journal, &mut ChainIndex::load(&faulty).unwrap());
        drop(journal);

        let unchanged = std::fs::read(store.path_of(4, false)).ok().as_ref() == Some(&plain);
        let (_, outstanding) = IntentJournal::open(&tmp.0, Arc::new(FsBackend)).unwrap();
        let outstanding: Vec<u64> = outstanding.iter().map(|r| r.iteration).collect();
        let (_, report) = recover_session(&store).unwrap();
        match case {
            "intent" => {
                assert!(matches!(result, Err(numarck::NumarckError::Io(_))), "{result:?}");
                assert!(unchanged, "{case}: the store was written");
                assert!(outstanding.is_empty(), "{case}: {outstanding:?}");
                assert!(report.is_noop(), "{case}: {report:?}");
            }
            "store write" => {
                assert!(matches!(result, Err(numarck::NumarckError::Io(_))), "{result:?}");
                assert!(unchanged, "{case}: the store was written");
                assert_eq!(outstanding, vec![4], "{case}");
                // The plain delta at 4 is intact but is not the merged
                // delta the intent names: rolled back, and kept.
                assert_eq!((report.replayed, report.repaired), (1, false), "{case}");
                assert_eq!((report.rolled_back, report.completed), (1, 0), "{case}");
                assert_eq!(std::fs::read(store.path_of(4, false)).ok(), Some(plain), "{case}");
            }
            "read-back" => {
                assert!(matches!(result, Err(numarck::NumarckError::Corrupt(_))), "{result:?}");
                assert!(store.quarantine_dir().join("ckpt_0000000004.delta").is_file(), "{case}");
                assert_eq!(outstanding, vec![4], "{case}");
                assert_eq!((report.rolled_back, report.completed), (1, 0), "{case}");
            }
            _ => {
                assert_eq!(result.expect("a lost commit record fails nothing").merges, 2);
                assert_eq!(outstanding, vec![4], "{case}");
                assert_eq!((report.rolled_back, report.completed), (0, 1), "{case}");
            }
        }
    }
}

#[test]
fn merge_window_replays_the_window_onto_its_base_as_a_restart_of_its_end() {
    let tmp = TempDir::new("merge-window-tail");
    let truth = truth_sequence(8, 300);
    let store = build_store(&tmp.0, &truth, 1000);
    let engine = RestartEngine::new(store.clone());
    let open = |index: &ChainIndex, its: std::ops::RangeInclusive<u64>| -> Vec<CheckpointView> {
        its.map(|it| CheckpointView::parse(index.map_file(&store, it, false).unwrap(), it, false))
            .collect::<Result<_, _>>()
            .unwrap()
    };
    let mut index = ChainIndex::load(&store).unwrap();

    // The window (2, 5] replayed onto the restart of 2 is exactly what a
    // restart of 5 reproduces.
    let base = engine.restart_at(2).unwrap().vars;
    let merged = numarck_compact::merge_window(&base, &open(&index, 3..=5)).unwrap();
    assert!(vars_bits_equal(&merged.expected, &engine.restart_at(5).unwrap().vars));
    store.write_raw(5, false, &merged.bytes).unwrap();
    index.insert(5, false, numarck_checkpoint::StoredFile::of(&merged.bytes));
    assert!(vars_bits_equal(&merged.expected, &engine.restart_at(5).unwrap().vars));

    // The next window continues from that state, not from a restart.
    let next = numarck_compact::merge_window(&merged.expected, &open(&index, 6..=7)).unwrap();
    assert!(vars_bits_equal(&next.expected, &engine.restart_at(7).unwrap().vars));

    // Fewer than two deltas are no window.
    let err = numarck_compact::merge_window(&base, &open(&index, 3..=3)).unwrap_err();
    assert!(matches!(err, numarck::error::NumarckError::InvalidConfig(_)), "{err}");
    let err = numarck_compact::merge_window(&base, &[]).unwrap_err();
    assert!(matches!(err, numarck::error::NumarckError::InvalidConfig(_)), "{err}");
}

/// A pass maps each file it merges once: the first window's base is the
/// full, every later window continues from the state the one before it
/// built, and nothing is read twice.
#[test]
fn a_plan_maps_each_stored_file_once() {
    let tmp = TempDir::new("plan-reads");
    let backend = Arc::new(FaultyBackend::new(FaultSchedule::new()));
    let store = CheckpointStore::open_with(&tmp.0, backend.clone()).unwrap();
    let cfg = Config::new(8, 0.001, Strategy::Clustering).unwrap();
    let mut mgr = CheckpointManager::new(store.clone(), cfg, ManagerPolicy::fixed(1000));
    for (it, vars) in truth_sequence(17, 100).iter().enumerate() {
        mgr.checkpoint(it as u64, vars).unwrap();
    }
    let index = ChainIndex::load(&store).unwrap();
    let compactor = Compactor::new(CompactionConfig { merge_window: 4, ..Default::default() });
    let reads = backend.reads_attempted();
    compactor.plan(&store, &index).unwrap();
    // The full at 0 and the plain deltas 1..=16, once each.
    assert_eq!(backend.reads_attempted() - reads, 17);
}
