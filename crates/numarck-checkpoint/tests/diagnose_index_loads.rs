//! `diagnose_store` loads one chain index per call, whatever the number
//! of stored iterations, and reports what a per-iteration restart
//! reports.
//!
//! `ckpt_index_loads_total` is process-global, so this file holds one
//! test and nothing else moves the counter while it counts.

use numarck::{Config, Strategy};
use numarck_checkpoint::fault::{diagnose_store, inject, Fault};
use numarck_checkpoint::{
    CheckpointManager, CheckpointStore, ManagerPolicy, RestartEngine, VariableSet,
};
use numarck_obs::Registry;

fn index_loads() -> u64 {
    Registry::global().counter("ckpt_index_loads_total").get()
}

#[test]
fn diagnosis_loads_one_index_per_call() {
    let dir = std::env::temp_dir().join(format!("numarck-diagnose-loads-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::open(&dir).unwrap();
    let cfg = Config::new(8, 0.001, Strategy::Clustering).unwrap();
    let mut mgr = CheckpointManager::new(store.clone(), cfg, ManagerPolicy::fixed(8));
    let mut state: Vec<f64> = (0..200).map(|i| 1.0 + (i % 9) as f64).collect();
    let iters = 40u64;
    for it in 0..iters {
        for v in state.iter_mut() {
            *v *= 1.002;
        }
        let mut vars = VariableSet::new();
        vars.insert("x".into(), state.clone());
        mgr.checkpoint(it, &vars).unwrap();
    }

    let before = index_loads();
    let healthy = diagnose_store(&store).unwrap();
    assert_eq!(index_loads(), before + 1, "a healthy diagnosis loaded more than one index");
    assert_eq!(healthy.len() as u64, iters);
    assert!(healthy.iter().all(|d| d.error.is_none()));

    // Break the chain segment 17..=23 (fulls at 0, 8, 16, 24, 32).
    inject(&store.path_of(17, false), Fault::BitFlip { offset: 40, mask: 0x08 }).unwrap();
    let before = index_loads();
    let damaged = diagnose_store(&store).unwrap();
    assert_eq!(index_loads(), before + 1, "a damaged diagnosis loaded more than one index");

    // Each verdict is the one a restart from a fresh index gives.
    let engine = RestartEngine::new(store.clone());
    for d in &damaged {
        let reference = engine.restart_at(d.iteration).err().map(|e| e.to_string());
        assert_eq!(d.error, reference, "iteration {}", d.iteration);
        let broken = (17..=23).contains(&d.iteration);
        assert_eq!(d.error.is_some(), broken, "iteration {}", d.iteration);
    }

    let _ = std::fs::remove_dir_all(&dir);
}
