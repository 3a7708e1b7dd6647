//! `repair` loads one chain index per call: its diagnosis resolves every
//! iteration with it, and the re-anchor full is rebuilt along it.
//!
//! `ckpt_index_loads_total` is process-global, so this file holds one
//! test and nothing else moves the counter while it counts.

use numarck::{Config, Strategy};
use numarck_checkpoint::fault::{inject, verify_store, Fault};
use numarck_checkpoint::{repair, CheckpointManager, CheckpointStore, ManagerPolicy, VariableSet};
use numarck_obs::Registry;

fn index_loads() -> u64 {
    Registry::global().counter("ckpt_index_loads_total").get()
}

#[test]
fn repair_loads_one_index_per_call() {
    let dir = std::env::temp_dir().join(format!("numarck-repair-loads-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::open(&dir).unwrap();
    let cfg = Config::new(8, 0.001, Strategy::Clustering).unwrap();
    // Fulls at 0, 4, 8; deltas up to 10.
    let mut mgr = CheckpointManager::new(store.clone(), cfg, ManagerPolicy::fixed(4));
    let mut state: Vec<f64> = (0..150).map(|i| 1.0 + (i % 9) as f64).collect();
    for it in 0..11u64 {
        for v in state.iter_mut() {
            *v *= 1.002;
        }
        let mut vars = VariableSet::new();
        vars.insert("x".into(), state.clone());
        mgr.checkpoint(it, &vars).unwrap();
    }

    // Flip a bit in delta 2: scrub quarantines it, iteration 3 is an
    // orphan, and the newest restartable iteration (10) is a delta, so
    // repair must rebuild a full there.
    inject(&store.path_of(2, false), Fault::BitFlip { offset: 50, mask: 0x02 }).unwrap();
    let before = index_loads();
    let report = repair(&store).unwrap();
    assert_eq!(index_loads(), before + 1, "repair loaded more than one index");
    assert_eq!(report.scrub.quarantined.len(), 1);
    assert_eq!(report.lost.iter().map(|l| l.iteration).collect::<Vec<_>>(), vec![3]);
    assert_eq!(report.anchored_at, Some(10));
    assert!(report.wrote_full);
    assert!(verify_store(&store).unwrap().iter().all(|h| h.restartable));

    let _ = std::fs::remove_dir_all(&dir);
}
