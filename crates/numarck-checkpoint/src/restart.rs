//! Read-side restart engine (the paper's §II-D).
//!
//! "NUMARCK first reads the latest uncompressed, complete full
//! checkpoint ... then reads the intermediate checkpoint files and
//! applies each of them to the full checkpoint data in order to build
//! the restart file." Replaying deltas against *reconstructed* state is
//! what accumulates error with distance from the full checkpoint — the
//! effect Fig. 8 measures.
//!
//! A restart runs in two steps. It *pins* the path — resolves it with a
//! [`ChainIndex`] and maps every file on it, the only step that touches
//! the store — and then works from the pinned bytes alone: it opens
//! every file as a [`CheckpointView`] first, and then replays each
//! variable once, handing its base values (lent in place from the base
//! full) and all of its hops to [`decode::replay`], which applies the
//! whole chain in one pass over the field and allocates only its
//! output. A caller that shares the store with writers pins under their
//! lock, from the index those writers keep current, and decodes after
//! releasing it ([`RestartEngine::restart_at_or_before_locked`]).
//!
//! A restart may also continue from a [`Head`]: the result of an
//! earlier restart, bit-identical to a cold restart of its iteration.
//! When the head's iteration is a node of the target's resolved path,
//! only the files after it are pinned, and each variable is replayed
//! from the head's values through the remaining hops. Files before the
//! head are neither read nor verified again. Serve keeps one per
//! session; compaction and diagnosis walk forward through one.

use std::sync::Arc;

use numarck::decode::{self, BlockRef};
use numarck::error::NumarckError;

use crate::chain::{ChainIndex, ChainPath};
use crate::format::{CheckpointView, Hop};
use crate::mmapio::AlignedBytes;
use crate::store::CheckpointStore;
use crate::VariableSet;

/// How many times [`RestartEngine::restart_at`] re-resolves after a
/// failure that coincided with a change to the store.
const STALE_INDEX_RETRIES: usize = 4;

/// A restart result kept to start later restarts from: the state at
/// `iteration`, bit-identical to a cold restart of it.
#[derive(Debug, Clone)]
pub struct Head {
    /// The iteration the state belongs to.
    pub iteration: u64,
    /// The reconstructed variables.
    pub vars: Arc<VariableSet>,
}

/// A resolved restart path with every file it replays held: mapped on
/// filesystem stores (a mapping survives a later unlink), copied on
/// other backends. Replaying it reads nothing more from the store.
#[derive(Debug)]
struct PinnedChain {
    path: ChainPath,
    /// The head the replay continues from; `None` starts it at the
    /// path's base full, the first pinned file.
    head: Option<Head>,
    /// Each file the replay reads, in replay order, under its name.
    files: Vec<((u64, bool), AlignedBytes)>,
}

impl PinnedChain {
    /// Open every pinned file as a [`CheckpointView`] under its name,
    /// then replay each variable from its start — the head's values, or
    /// the base full's, lent in place — through all of its remaining
    /// deltas in one pass.
    fn replay(self) -> Result<RestartResult, NumarckError> {
        let Self { path, head, files } = self;
        let views: Vec<CheckpointView> = files
            .into_iter()
            .map(|((it, is_full), bytes)| CheckpointView::parse(bytes, it, is_full))
            .collect::<Result<_, _>>()?;
        let (base, deltas) = match &head {
            Some(head) => {
                let vars = head.vars.iter().map(|(name, values)| (name.as_str(), values.as_slice()));
                (vars.collect(), &views[..])
            }
            None => {
                let (base, deltas) = views.split_first().expect("a path starts at its base");
                (base.full_sections()?, deltas)
            }
        };
        let hops: Vec<Vec<Hop<'_>>> = deltas
            .iter()
            .map(|file| file.hops(base.iter().map(|(name, _)| *name)))
            .collect::<Result<_, _>>()?;
        let mut vars = VariableSet::new();
        for (v, (name, values)) in base.iter().enumerate() {
            let chain: Vec<BlockRef<'_>> = hops.iter().map(|file| file[v].block_ref()).collect();
            let values =
                if chain.is_empty() { values.to_vec() } else { decode::replay(values, &chain)? };
            vars.insert(name.to_string(), values);
        }
        Ok(RestartResult {
            vars,
            iteration: path.target,
            base_iteration: path.base,
            deltas_applied: path.deltas.len() as u64,
        })
    }
}

/// Replays checkpoint chains out of a store.
#[derive(Debug, Clone)]
pub struct RestartEngine {
    store: CheckpointStore,
}

/// A successful restart.
#[derive(Debug, Clone)]
pub struct RestartResult {
    /// The reconstructed variables at the requested iteration.
    pub vars: VariableSet,
    /// The iteration that was restarted.
    pub iteration: u64,
    /// Iteration of the full checkpoint the chain started from.
    pub base_iteration: u64,
    /// The path's hop count: the delta files between the base and
    /// `iteration`. With merged deltas in the chain this can be less
    /// than `iteration - base_iteration`: each merged file replays
    /// several original iterations in one step. A restart that continues
    /// from a [`Head`] decodes only the hops after it, and still reports
    /// the whole path's count.
    pub deltas_applied: u64,
}

/// An iteration that could not be recovered during a degraded restart,
/// and why.
#[derive(Debug, Clone)]
pub struct LostIteration {
    /// The unrecoverable iteration.
    pub iteration: u64,
    /// The error that made it unrecoverable.
    pub reason: String,
}

/// Outcome of [`RestartEngine::restart_at_or_before`]: the best
/// recoverable state, plus an account of what was given up to get it.
#[derive(Debug, Clone)]
pub struct DegradedRestart {
    /// The iteration originally asked for.
    pub requested: u64,
    /// The restart that actually succeeded.
    pub result: RestartResult,
    /// Iterations between `requested` and the achieved one (inclusive of
    /// `requested` when it failed), newest first, with reasons.
    pub lost: Vec<LostIteration>,
}

impl DegradedRestart {
    /// The iteration actually recovered. (Not derivable from the delta
    /// count: a merged delta replays several iterations in one file.)
    pub fn achieved(&self) -> u64 {
        self.result.iteration
    }

    /// True when the requested iteration itself was recovered.
    pub fn is_exact(&self) -> bool {
        self.lost.is_empty()
    }
}

impl RestartEngine {
    /// Engine over `store`.
    pub fn new(store: CheckpointStore) -> Self {
        Self { store }
    }

    /// Rebuild the state at `target` iteration.
    ///
    /// Loads a [`ChainIndex`], resolves `target`'s path with
    /// [`ChainIndex::resolve`] (a full ends the backward walk, a delta
    /// steps back by its span, so a compacted chain skips the iterations
    /// a merged delta superseded), pins the files on it and replays them
    /// forwards from the base full.
    ///
    /// Fails loudly if the chain hits an iteration with no stored file,
    /// any file is corrupt or disagrees with its index entry, a span
    /// points before iteration 0, or variable sets don't line up. With
    /// no lock against writers, a failure is only reported once a fresh
    /// index shows the store stood still across the attempt; otherwise
    /// the path is resolved again.
    pub fn restart_at(&self, target: u64) -> Result<RestartResult, NumarckError> {
        let mut index = self.index()?;
        let mut retries = 0;
        loop {
            let err = match self.restart_with(&index, target, None) {
                Ok(result) => return Ok(result),
                Err(err) => err,
            };
            let now = self.index()?;
            if now == index || retries == STALE_INDEX_RETRIES {
                return Err(err);
            }
            index = now;
            retries += 1;
        }
    }

    /// Rebuild the state at `target` along the path `index` resolves,
    /// continuing from `head` when its iteration is a node of that path.
    /// The result, or the error, is the cold restart's.
    pub fn restart_with(
        &self,
        index: &ChainIndex,
        target: u64,
        head: Option<&Head>,
    ) -> Result<RestartResult, NumarckError> {
        self.pin(index, target, head)?.replay()
    }

    /// Resolve `target` with `index` and map every file its replay
    /// reads, each checked against its index entry
    /// ([`ChainIndex::map_file`]): the files after `head` when the
    /// head's iteration is a node of the path, else the whole path.
    fn pin(
        &self,
        index: &ChainIndex,
        target: u64,
        head: Option<&Head>,
    ) -> Result<PinnedChain, NumarckError> {
        let path = index.resolve(target)?;
        let (head, files): (_, Vec<(u64, bool)>) =
            match head.and_then(|h| Some((h, path.deltas_after(h.iteration)?))) {
                Some((head, after)) => {
                    (Some(head.clone()), after.iter().rev().map(|&d| (d, false)).collect())
                }
                None => (None, path.files().collect()),
            };
        let files = files
            .into_iter()
            .map(|(it, is_full)| Ok(((it, is_full), index.map_file(&self.store, it, is_full)?)))
            .collect::<Result<_, NumarckError>>()?;
        Ok(PinnedChain { path, head, files })
    }

    pub(crate) fn index(&self) -> Result<ChainIndex, NumarckError> {
        ChainIndex::load(&self.store)
            .map_err(|e| NumarckError::Io(format!("store listing failed: {e}")))
    }

    /// Degraded restart: recover the newest intact iteration at or
    /// before `target`.
    ///
    /// Tries `target` first; on failure walks backwards through the
    /// stored iterations, recording each unrecoverable one with the
    /// error that disqualified it. Succeeds with a [`DegradedRestart`]
    /// describing what was achieved and what was lost; errs only when
    /// *no* iteration at or before `target` can be rebuilt.
    ///
    /// Loads one [`ChainIndex`] and resolves every candidate with it.
    pub fn restart_at_or_before(&self, target: u64) -> Result<DegradedRestart, NumarckError> {
        let index = self.index()?;
        self.restart_at_or_before_locked(target, || &index, |index| index, |_| None)
    }

    /// [`Self::restart_at_or_before`] against a store that writers
    /// change under a lock, resolving with the index those writers keep
    /// current: `lock()` is held while `index(&guard)` resolves the
    /// chosen chain and its files are pinned, and released before
    /// anything is parsed or decoded. Nothing here lists the store or
    /// reads a header. A writer that removes files only under the same
    /// lock (numarck-serve's ingest and maintenance) can then never
    /// delete a file between the resolve and the open, so the restart
    /// never degrades because a file vanished; a stale index entry fails
    /// its pin check and reads as lost, never as wrong data. A pinned
    /// chain that fails to replay is recorded as lost, and the next
    /// older candidate is pinned under the lock again.
    ///
    /// `head(&guard)` is the caller's cached [`Head`], if any, read
    /// under the same lock. A candidate whose resolved path runs through
    /// the head's iteration pins and decodes only the hops after it; the
    /// result, `deltas_applied` included, is the cold one. The caller
    /// owns the head's validity: it must drop the head whenever the
    /// store changes in a way that could change a restart of its
    /// iteration.
    pub fn restart_at_or_before_locked<G>(
        &self,
        target: u64,
        lock: impl Fn() -> G,
        index: impl Fn(&G) -> &ChainIndex,
        head: impl Fn(&G) -> Option<Head>,
    ) -> Result<DegradedRestart, NumarckError> {
        let mut lost = Vec::new();
        let mut bound = Some(target);
        while let Some(b) = bound {
            let pinned = {
                let guard = lock();
                let index = index(&guard);
                if b == target && index.entry(target).is_none() {
                    lost.push(LostIteration {
                        iteration: target,
                        reason: "no checkpoint file stored for this iteration".into(),
                    });
                }
                self.pin_newest(index, head(&guard).as_ref(), b, &mut lost)
            };
            let Some(pinned) = pinned else { break };
            if pinned.head.is_some() {
                crate::obs::restart_head_hits_total().inc();
            }
            let it = pinned.path.target;
            match pinned.replay() {
                Ok(result) => return Ok(DegradedRestart { requested: target, result, lost }),
                Err(e) => lost.push(LostIteration { iteration: it, reason: e.to_string() }),
            }
            bound = it.checked_sub(1);
        }
        Err(NumarckError::Io(format!(
            "no restartable iteration at or before {target}: {} candidate(s) failed",
            lost.len()
        )))
    }

    /// Pin the newest iteration at or before `bound` whose path resolves
    /// and maps, recording every candidate passed over in `lost`.
    fn pin_newest(
        &self,
        index: &ChainIndex,
        head: Option<&Head>,
        bound: u64,
        lost: &mut Vec<LostIteration>,
    ) -> Option<PinnedChain> {
        for it in index.iterations_at_or_before(bound).rev() {
            match self.pin(index, it, head) {
                Ok(pinned) => return Some(pinned),
                Err(e) => lost.push(LostIteration { iteration: it, reason: e.to_string() }),
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::{CheckpointManager, ManagerPolicy};
    use crate::store::testutil::TempDir;
    use numarck::{Config, Strategy};

    fn truth_sequence(iters: u64, n: usize) -> Vec<VariableSet> {
        let mut out = Vec::new();
        let mut state: Vec<f64> = (0..n).map(|i| 1.0 + (i % 11) as f64).collect();
        for it in 0..iters {
            if it > 0 {
                for (i, v) in state.iter_mut().enumerate() {
                    *v *= 1.0 + 0.003 * (((i as u64 + it) % 7) as f64 - 3.0) / 3.0;
                }
            }
            let mut vars = VariableSet::new();
            vars.insert("x".into(), state.clone());
            out.push(vars);
        }
        out
    }

    fn build_store(tmp: &TempDir, truth: &[VariableSet], full_interval: u64) -> CheckpointStore {
        let store = CheckpointStore::open(&tmp.0).unwrap();
        let cfg = Config::new(8, 0.001, Strategy::Clustering).unwrap();
        let mut mgr =
            CheckpointManager::new(store.clone(), cfg, ManagerPolicy::fixed(full_interval));
        for (it, vars) in truth.iter().enumerate() {
            mgr.checkpoint(it as u64, vars).unwrap();
        }
        store
    }

    #[test]
    fn restart_at_full_checkpoint_is_exact() {
        let tmp = TempDir::new("restart-exact");
        let truth = truth_sequence(12, 500);
        let store = build_store(&tmp, &truth, 5);
        let engine = RestartEngine::new(store);
        for full_iter in [0u64, 5, 10] {
            let r = engine.restart_at(full_iter).unwrap();
            assert_eq!(r.deltas_applied, 0);
            assert_eq!(r.base_iteration, full_iter);
            assert_eq!(r.vars["x"], truth[full_iter as usize]["x"]);
        }
    }

    #[test]
    fn restart_mid_chain_is_error_bounded() {
        let tmp = TempDir::new("restart-bounded");
        let truth = truth_sequence(12, 500);
        let store = build_store(&tmp, &truth, 5);
        let engine = RestartEngine::new(store);
        for target in 0..12u64 {
            let r = engine.restart_at(target).unwrap();
            let exact = &truth[target as usize]["x"];
            let rebuilt = &r.vars["x"];
            let budget = (1.0f64 + 0.0011).powi(r.deltas_applied as i32) - 1.0 + 1e-12;
            for (a, b) in exact.iter().zip(rebuilt) {
                let rel = ((a - b) / a).abs();
                assert!(rel <= budget, "iter {target}: rel {rel} > {budget}");
            }
        }
    }

    #[test]
    fn deltas_applied_counts_distance_from_base() {
        let tmp = TempDir::new("restart-count");
        let truth = truth_sequence(9, 100);
        let store = build_store(&tmp, &truth, 4);
        let engine = RestartEngine::new(store);
        assert_eq!(engine.restart_at(6).unwrap().base_iteration, 4);
        assert_eq!(engine.restart_at(6).unwrap().deltas_applied, 2);
        assert_eq!(engine.restart_at(3).unwrap().base_iteration, 0);
        assert_eq!(engine.restart_at(3).unwrap().deltas_applied, 3);
    }

    #[test]
    fn restart_follows_merged_delta_spans() {
        let tmp = TempDir::new("restart-span");
        let truth = truth_sequence(8, 200);
        // Full at 0, plain deltas 1..=7.
        let store = build_store(&tmp, &truth, 8);
        let engine = RestartEngine::new(store.clone());
        let base_vars = match store.read(0, true).unwrap().kind {
            crate::format::CheckpointKind::Full(v) => v,
            _ => unreachable!(),
        };
        let state3 = engine.restart_at(3).unwrap().vars;
        // Replace deltas 1..=3 with one merged delta at 3 spanning 3.
        let cfg = Config::new(8, 0.001, Strategy::Clustering).unwrap();
        let (block, _) = numarck::encode::encode(&base_vars["x"], &state3["x"], &cfg).unwrap();
        let mut blocks = std::collections::BTreeMap::new();
        blocks.insert("x".to_string(), block);
        store.write(&crate::format::CheckpointFile::merged_delta(3, blocks, 3)).unwrap();
        store.remove(1, false).unwrap();
        store.remove(2, false).unwrap();
        // The chain to 3 is now one hop; to 5 it is merged + two plain.
        let r3 = engine.restart_at(3).unwrap();
        assert_eq!((r3.base_iteration, r3.deltas_applied), (0, 1));
        let r5 = engine.restart_at(5).unwrap();
        assert_eq!((r5.base_iteration, r5.deltas_applied), (0, 3));
        // `achieved` must report the restarted iteration, not
        // base + delta count (those diverge across merged deltas).
        assert_eq!(r5.iteration, 5);
        let d = engine.restart_at_or_before(5).unwrap();
        assert_eq!(d.achieved(), 5);
        assert!(d.is_exact());
        // Superseded iterations are genuinely gone.
        assert!(engine.restart_at(2).is_err());
    }

    #[test]
    fn v1_and_v2_chains_restart_bit_identically() {
        let tmp = TempDir::new("restart-v1v2");
        let truth = truth_sequence(8, 300);
        // The manager writes v2; restart these chains first (this is the
        // mapped zero-copy path on a plain filesystem store).
        let store = build_store(&tmp, &truth, 4);
        let engine = RestartEngine::new(store.clone());
        let v2_states: Vec<VariableSet> =
            (0..8).map(|t| engine.restart_at(t).unwrap().vars).collect();
        // Rewrite every file in the frozen v1 layout and replay again:
        // the seam must produce the same bits from either container.
        for e in store.list().unwrap() {
            let f = store.read(e.iteration, e.is_full).unwrap();
            store.write_raw(e.iteration, e.is_full, &f.to_bytes_v1()).unwrap();
        }
        for (t, want) in v2_states.iter().enumerate() {
            let got = engine.restart_at(t as u64).unwrap().vars;
            for (name, w) in want {
                let g = &got[name];
                assert_eq!(g.len(), w.len());
                for (a, b) in g.iter().zip(w) {
                    assert_eq!(a.to_bits(), b.to_bits(), "v1/v2 restart diverged at {t}/{name}");
                }
            }
        }
    }

    #[test]
    fn span_past_chain_start_is_loud() {
        let tmp = TempDir::new("restart-overspan");
        let truth = truth_sequence(4, 100);
        let store = build_store(&tmp, &truth, 8);
        // Corrupt the chain shape: claim delta 2 spans 5 iterations.
        let mut d2 = store.read(2, false).unwrap();
        d2.delta_span = 5;
        store.write(&d2).unwrap();
        let engine = RestartEngine::new(store);
        assert!(engine.restart_at(2).is_err());
    }

    #[test]
    fn missing_full_checkpoint_is_loud() {
        let tmp = TempDir::new("restart-nofull");
        let store = CheckpointStore::open(&tmp.0).unwrap();
        let engine = RestartEngine::new(store);
        assert!(engine.restart_at(3).is_err());
    }

    #[test]
    fn missing_delta_in_chain_is_loud() {
        let tmp = TempDir::new("restart-hole");
        let truth = truth_sequence(8, 100);
        let store = build_store(&tmp, &truth, 8);
        // Punch a hole at iteration 3.
        std::fs::remove_file(store.path_of(3, false)).unwrap();
        let engine = RestartEngine::new(store);
        assert!(engine.restart_at(5).is_err());
        // Targets before the hole still work.
        assert!(engine.restart_at(2).is_ok());
    }

    fn bits(vars: &VariableSet) -> Vec<(&str, Vec<u64>)> {
        vars.iter().map(|(n, v)| (n.as_str(), v.iter().map(|x| x.to_bits()).collect())).collect()
    }

    #[test]
    fn a_restart_from_any_head_matches_the_cold_one_bit_for_bit() {
        let tmp = TempDir::new("restart-head");
        let truth = truth_sequence(12, 300);
        // Fulls at 0 and 8.
        let store = build_store(&tmp, &truth, 8);
        let engine = RestartEngine::new(store);
        let index = engine.index().unwrap();
        let cold: Vec<DegradedRestart> =
            (0..14).map(|t| engine.restart_at_or_before(t).unwrap()).collect();
        for h in 0..12 {
            let head = Head { iteration: h, vars: Arc::new(cold[h as usize].result.vars.clone()) };
            for (t, want) in cold.iter().enumerate() {
                let got = engine
                    .restart_at_or_before_locked(t as u64, || &index, |i| i, |_| Some(head.clone()))
                    .unwrap();
                let facts = |d: &DegradedRestart| {
                    (d.achieved(), d.result.base_iteration, d.result.deltas_applied, d.lost.len())
                };
                assert_eq!(facts(&got), facts(want), "head {h}, target {t}");
                assert_eq!(bits(&got.result.vars), bits(&want.result.vars), "head {h}, target {t}");
            }
        }
    }

    #[test]
    fn files_before_the_head_are_not_read_again() {
        let tmp = TempDir::new("restart-head-below");
        let truth = truth_sequence(8, 100);
        let store = build_store(&tmp, &truth, 8);
        let engine = RestartEngine::new(store.clone());
        let head = Head { iteration: 5, vars: Arc::new(engine.restart_at(5).unwrap().vars) };
        let want = engine.restart_at(7).unwrap();
        // Damage below the head, out of band: a cold restart of 7 falls
        // back past it, the one from the head does not see it.
        std::fs::write(store.path_of(3, false), b"garbage").unwrap();
        let index = engine.index().unwrap();
        let warm =
            engine.restart_at_or_before_locked(7, || &index, |i| i, |_| Some(head.clone())).unwrap();
        assert!(warm.is_exact());
        assert_eq!(bits(&warm.result.vars), bits(&want.vars));
        assert_eq!(engine.restart_at_or_before(7).unwrap().achieved(), 2);
    }

    #[test]
    fn degraded_restart_on_healthy_store_is_exact() {
        let tmp = TempDir::new("restart-degraded-clean");
        let truth = truth_sequence(10, 100);
        let store = build_store(&tmp, &truth, 4);
        let engine = RestartEngine::new(store);
        let d = engine.restart_at_or_before(7).unwrap();
        assert!(d.is_exact());
        assert_eq!(d.achieved(), 7);
        assert_eq!(d.requested, 7);
    }

    #[test]
    fn degraded_restart_falls_back_past_a_broken_delta() {
        let tmp = TempDir::new("restart-degraded-hole");
        let truth = truth_sequence(10, 100);
        // Fulls at 0, 4, 8.
        let store = build_store(&tmp, &truth, 4);
        // Destroy delta 5: every chain through it breaks.
        std::fs::write(store.path_of(5, false), b"garbage").unwrap();
        let engine = RestartEngine::new(store);
        let d = engine.restart_at_or_before(7).unwrap();
        assert_eq!(d.achieved(), 4, "newest intact iteration <= 7 is the full at 4");
        assert!(!d.is_exact());
        let lost: Vec<u64> = d.lost.iter().map(|l| l.iteration).collect();
        assert_eq!(lost, vec![7, 6, 5]);
        assert!(d.lost.iter().all(|l| !l.reason.is_empty()));
        // Targets past the next full are unaffected.
        assert!(engine.restart_at_or_before(9).unwrap().is_exact());
    }

    #[test]
    fn a_full_payload_under_a_delta_name_degrades_restart_as_scrub_reports_it() {
        use crate::format::{CheckpointFile, CheckpointKind};
        let tmp = TempDir::new("restart-full-as-delta");
        let truth = truth_sequence(8, 100);
        // Fulls at 0 and 6; delta 3 is replaced by a full payload.
        let store = build_store(&tmp, &truth, 6);
        let full = CheckpointFile::new(3, CheckpointKind::Full(truth[3].clone()));
        store.write_raw(3, false, &full.to_bytes()).unwrap();

        let d = RestartEngine::new(store.clone()).restart_at_or_before(5).unwrap();
        assert_eq!(d.achieved(), 2, "no chain may run through delta 3");
        let lost: Vec<u64> = d.lost.iter().map(|l| l.iteration).collect();
        assert_eq!(lost, vec![5, 4, 3]);

        let report = crate::scrub::scrub(&store).unwrap();
        assert_eq!(report.quarantined.len(), 1, "{report:?}");
        let finding = &report.quarantined[0];
        assert_eq!((finding.entry.iteration, finding.entry.is_full), (3, false));
        assert!(finding.reason.contains("holds a full payload, expected a delta"), "{finding:?}");
        assert!(d.lost.iter().all(|l| l.reason == finding.reason), "{:?}", d.lost);
    }

    #[test]
    fn degraded_restart_beyond_newest_checkpoint_reports_the_gap() {
        let tmp = TempDir::new("restart-degraded-beyond");
        let truth = truth_sequence(6, 100);
        let store = build_store(&tmp, &truth, 4);
        let engine = RestartEngine::new(store);
        // Newest stored iteration is 5; ask for 100.
        let d = engine.restart_at_or_before(100).unwrap();
        assert_eq!(d.achieved(), 5);
        assert_eq!(d.lost.len(), 1);
        assert_eq!(d.lost[0].iteration, 100);
    }

    #[test]
    fn degraded_restart_with_nothing_recoverable_is_loud() {
        let tmp = TempDir::new("restart-degraded-empty");
        let store = CheckpointStore::open(&tmp.0).unwrap();
        let engine = RestartEngine::new(store.clone());
        assert!(engine.restart_at_or_before(5).is_err());
        // A store with only a corrupt full is just as unrecoverable.
        std::fs::write(store.path_of(0, true), b"junk").unwrap();
        let err = engine.restart_at_or_before(5).unwrap_err();
        assert!(matches!(err, NumarckError::Io(_)));
    }
}
