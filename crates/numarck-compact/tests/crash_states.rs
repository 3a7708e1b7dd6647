//! The crash contract, enumerated in process.
//!
//! A [`SimBackend`] keeps the store in memory and models what a crash
//! keeps: `write`/`append` content is durable when the call returns,
//! while file creates, renames, removes and directory creates are only
//! durable once their directory is synced (`sync_dir`). Two workloads
//! run over it — serve's put bracket (`prepare` → `write_ahead{commit}`)
//! for 12 puts, and one `Compactor::run` pass (a merge, one promotion,
//! GC) — and each is crashed before every storage operation, under every
//! subset of the directory entries not yet synced, and, when the
//! interrupted operation is an append, with that append cut at 0, 1, 8
//! and len−1 bytes.
//!
//! After every crash state, recovery runs, and then:
//!
//! * every acknowledged iteration restarts bit-identically;
//! * scrub finds the store clean;
//! * a new put lands;
//! * recovery counts an outstanding intent completed exactly when the
//!   bytes its write meant to land are at its path.
//!
//! Each state is then checked again with `intent.journal` removed, and
//! the test prints how many states need the journal's records at all.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use numarck::error::NumarckError;
use numarck::{Config, Strategy};
use numarck_checkpoint::journal::JOURNAL_FILE;
use numarck_checkpoint::{
    recover_session, scrub, ChainIndex, CheckpointManager, CheckpointStore, IntentJournal,
    ManagerPolicy, RestartEngine, RetryPolicy, StorageBackend, VariableSet,
};
use numarck_compact::merge::vars_bits_equal;
use numarck_compact::{CompactionConfig, Compactor, CostModel};

/// Where the simulated store lives.
const STORE: &str = "/store";

/// What a path names in the simulated namespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Node {
    Dir,
    /// An index into [`Disk::inodes`].
    File(usize),
}

/// An in-memory disk with crash semantics.
#[derive(Debug, Clone)]
struct Disk {
    /// File contents. Content is durable as soon as a write returns, so
    /// a crash keeps whatever an inode holds.
    inodes: Vec<Vec<u8>>,
    /// The namespace the running process sees.
    live: BTreeMap<PathBuf, Node>,
    /// The namespace a crash is sure to keep.
    durable: BTreeMap<PathBuf, Node>,
    /// Entry updates since their directory's last sync, in order; a
    /// crash keeps any subset of them.
    pending: Vec<(PathBuf, Option<Node>)>,
}

fn parent(path: &Path) -> &Path {
    path.parent().expect("simulated paths are absolute")
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, format!("{} not found", path.display()))
}

impl Disk {
    /// A disk holding only the empty store directory, all of it durable.
    fn empty() -> Self {
        Self::settled(BTreeMap::from([(PathBuf::from(STORE), Node::Dir)]), Vec::new())
    }

    fn settled(namespace: BTreeMap<PathBuf, Node>, inodes: Vec<Vec<u8>>) -> Self {
        Self { inodes, live: namespace.clone(), durable: namespace, pending: Vec::new() }
    }

    fn link(&mut self, path: &Path, node: Option<Node>) {
        match node {
            Some(node) => self.live.insert(path.to_path_buf(), node),
            None => self.live.remove(path),
        };
        self.pending.push((path.to_path_buf(), node));
    }

    fn require_dir(&self, dir: &Path) -> io::Result<()> {
        match self.live.get(dir) {
            Some(Node::Dir) => Ok(()),
            _ if dir == Path::new("/") => Ok(()),
            _ => Err(not_found(dir)),
        }
    }

    fn file(&self, path: &Path) -> io::Result<usize> {
        match self.live.get(path) {
            Some(Node::File(id)) => Ok(*id),
            _ => Err(not_found(path)),
        }
    }

    /// The inode at `path`, created (with an unsynced entry) if missing.
    fn open_or_create(&mut self, path: &Path) -> io::Result<usize> {
        self.require_dir(parent(path))?;
        if let Ok(id) = self.file(path) {
            return Ok(id);
        }
        self.inodes.push(Vec::new());
        let id = self.inodes.len() - 1;
        self.link(path, Some(Node::File(id)));
        Ok(id)
    }

    fn create_dir_all(&mut self, dir: &Path) -> io::Result<()> {
        if dir == Path::new("/") || self.live.get(dir) == Some(&Node::Dir) {
            return Ok(());
        }
        self.create_dir_all(parent(dir))?;
        self.link(dir, Some(Node::Dir));
        Ok(())
    }

    fn write(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let id = self.open_or_create(path)?;
        self.inodes[id] = bytes.to_vec();
        Ok(())
    }

    fn append(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let id = self.open_or_create(path)?;
        self.inodes[id].extend_from_slice(bytes);
        Ok(())
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        let id = self.file(from)?;
        self.require_dir(parent(to))?;
        self.link(from, None);
        self.link(to, Some(Node::File(id)));
        Ok(())
    }

    fn remove_file(&mut self, path: &Path) -> io::Result<()> {
        self.file(path)?;
        self.link(path, None);
        Ok(())
    }

    fn sync_dir(&mut self, dir: &Path) -> io::Result<()> {
        self.require_dir(dir)?;
        let (synced, rest) =
            std::mem::take(&mut self.pending).into_iter().partition(|(p, _)| parent(p) == dir);
        self.pending = rest;
        for (path, node) in synced {
            apply(&mut self.durable, path, node);
        }
        Ok(())
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        Ok(self.inodes[self.file(path)?].clone())
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.require_dir(dir)?;
        let names = self.live.keys().filter(|p| parent(p) == dir);
        Ok(names.map(|p| p.file_name().unwrap().to_string_lossy().into_owned()).collect())
    }

    /// Every disk a crash right now can leave: the durable namespace plus
    /// each subset of the pending entry updates, applied in order.
    fn crash_states(&self) -> Vec<(u32, Disk)> {
        let n = self.pending.len();
        assert!(n <= 12, "{n} unsynced entries: the subset walk would not end");
        (0..1u32 << n)
            .map(|mask| {
                let mut namespace = self.durable.clone();
                for (i, (path, node)) in self.pending.iter().enumerate() {
                    if mask >> i & 1 == 1 {
                        apply(&mut namespace, path.clone(), *node);
                    }
                }
                (mask, Disk::settled(namespace, self.inodes.clone()))
            })
            .collect()
    }
}

fn apply(namespace: &mut BTreeMap<PathBuf, Node>, path: PathBuf, node: Option<Node>) {
    match node {
        Some(node) => namespace.insert(path, node),
        None => namespace.remove(&path),
    };
}

/// The disk at a crash, and the append it cut short, if any.
#[derive(Debug)]
struct Crash {
    disk: Disk,
    append: Option<(PathBuf, Vec<u8>)>,
}

#[derive(Debug)]
struct Sim {
    disk: Disk,
    /// Storage operations since [`SimBackend::arm`].
    ops: u64,
    /// The process dies at the entry of this operation.
    crash_at: Option<u64>,
    crash: Option<Crash>,
    /// What each operation was, in order.
    log: Vec<String>,
    /// The bytes each rename put at its destination.
    landed: BTreeMap<PathBuf, Vec<u8>>,
}

/// A [`StorageBackend`] over a [`Disk`] that fail-stops at a chosen
/// operation: that operation and every later one fail.
#[derive(Debug)]
struct SimBackend(Mutex<Sim>);

impl SimBackend {
    fn new(disk: Disk) -> Arc<Self> {
        Arc::new(Self(Mutex::new(Sim {
            disk,
            ops: 0,
            crash_at: None,
            crash: None,
            log: Vec::new(),
            landed: BTreeMap::new(),
        })))
    }

    /// Start counting operations; die at the entry of operation `crash_at`.
    fn arm(&self, crash_at: Option<u64>) {
        let mut sim = self.0.lock().unwrap();
        sim.ops = 0;
        sim.crash_at = crash_at;
        sim.log.clear();
    }

    fn crashed(&self) -> bool {
        self.0.lock().unwrap().crash.is_some()
    }

    fn op<T>(
        &self,
        what: String,
        append: Option<(&Path, &[u8])>,
        run: impl FnOnce(&mut Sim) -> io::Result<T>,
    ) -> io::Result<T> {
        let mut sim = self.0.lock().unwrap();
        sim.ops += 1;
        if sim.crash.is_none() && sim.crash_at == Some(sim.ops) {
            let append = append.map(|(path, bytes)| (path.to_path_buf(), bytes.to_vec()));
            sim.crash = Some(Crash { disk: sim.disk.clone(), append });
        }
        if sim.crash.is_some() {
            return Err(io::Error::new(io::ErrorKind::ConnectionAborted, "simulated crash"));
        }
        sim.log.push(what);
        run(&mut sim)
    }
}

fn name(path: &Path) -> String {
    path.file_name().map_or_else(|| path.display().to_string(), |n| n.to_string_lossy().into())
}

impl StorageBackend for SimBackend {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.op(format!("mkdir {}", name(dir)), None, |s| s.disk.create_dir_all(dir))
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.op(format!("write {}", name(path)), None, |s| s.disk.write(path, bytes))
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let what = format!("append {} ({} B)", name(path), bytes.len());
        self.op(what, Some((path, bytes)), |s| s.disk.append(path, bytes))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.op(format!("rename {} -> {}", name(from), name(to)), None, |s| {
            s.disk.rename(from, to)?;
            let bytes = s.disk.read(to)?;
            s.landed.insert(to.to_path_buf(), bytes);
            Ok(())
        })
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.op(format!("sync_dir {}", name(dir)), None, |s| s.disk.sync_dir(dir))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.op(format!("read {}", name(path)), None, |s| s.disk.read(path))
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.op(format!("remove {}", name(path)), None, |s| s.disk.remove_file(path))
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.op(format!("list {}", name(dir)), None, |s| s.disk.list_dir(dir))
    }
}

/// Two variables evolving smoothly enough to compress, `iters` of them.
fn truth(iters: u64) -> Vec<VariableSet> {
    (0..iters)
        .map(|it| {
            let g = 1.003f64.powi(it as i32);
            let mut vars = VariableSet::new();
            vars.insert("a".into(), (0..96).map(|j| (1.0 + (j % 7) as f64) * g).collect());
            vars.insert("b".into(), (0..96).map(|j| 50.0 + (j as f64).sin() * g).collect());
            vars
        })
        .collect()
}

fn manager(store: &CheckpointStore, full_interval: u64) -> CheckpointManager {
    let config = Config::new(8, 0.001, Strategy::Clustering).unwrap();
    CheckpointManager::new(store.clone(), config, ManagerPolicy::fixed(full_interval))
}

/// Serve's put bracket: encode, then commit inside the journal's
/// write-ahead bracket.
fn put(
    manager: &mut CheckpointManager,
    journal: &mut IntentJournal,
    iteration: u64,
    vars: &VariableSet,
) -> Result<(), NumarckError> {
    let prepared = manager.prepare(iteration, vars)?;
    let (is_full, crc) = (prepared.is_full(), prepared.content_crc());
    let commit = || manager.commit(prepared);
    journal.write_ahead(iteration, is_full, crc, RetryPolicy::default(), || {}, commit).map(drop)
}

fn open(backend: &Arc<SimBackend>) -> CheckpointStore {
    CheckpointStore::open_with(STORE, backend.clone()).unwrap()
}

/// The two workloads the enumerator crashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// 12 puts through serve's bracket into an empty store.
    Puts,
    /// One maintenance pass over a 6-iteration chain: merge 1..=4 at 4,
    /// promote a full at 3, collect deltas 1, 2 and 3.
    Compaction,
}

const PUTS: u64 = 12;
const CHAIN: u64 = 6;
/// The iterations the pass keeps restartable: GC drops 1 and 2.
const KEPT: [u64; 4] = [0, 3, 4, 5];

impl Workload {
    /// The settled disk the workload starts from.
    fn start(self) -> Disk {
        match self {
            Workload::Puts => Disk::empty(),
            Workload::Compaction => {
                let backend = SimBackend::new(Disk::empty());
                let store = open(&backend);
                let (mut journal, _) = recover_session(&store).unwrap();
                // One full, then plain deltas.
                let mut manager = manager(&store, 1000);
                for (it, vars) in truth(CHAIN).iter().enumerate() {
                    put(&mut manager, &mut journal, it as u64, vars).unwrap();
                }
                let sim = backend.0.lock().unwrap();
                Disk::settled(sim.disk.live.clone(), sim.disk.inodes.clone())
            }
        }
    }

    /// Run the workload over `backend`, dying at operation `crash_at`;
    /// returns the iterations that must restart after a crash: the puts
    /// acknowledged before it, or what the pass keeps.
    fn run(self, backend: &Arc<SimBackend>, crash_at: Option<u64>) -> Vec<u64> {
        let store = open(backend);
        let (mut journal, _) = recover_session(&store).unwrap();
        match self {
            Workload::Puts => {
                let mut manager = manager(&store, 4);
                backend.arm(crash_at);
                let mut acked = Vec::new();
                for (it, vars) in truth(PUTS).iter().enumerate() {
                    let it = it as u64;
                    if put(&mut manager, &mut journal, it, vars).is_err() || backend.crashed() {
                        break;
                    }
                    acked.push(it);
                }
                acked
            }
            Workload::Compaction => {
                let mut index = ChainIndex::load(&store).unwrap();
                let compactor = Compactor::new(CompactionConfig {
                    merge_window: 4,
                    restart_slo_ns: Some(2),
                    keep_last_fulls: 1,
                    cost: CostModel { full_ns_per_byte: 0.0, delta_replay_ns: 1.0 },
                    ..CompactionConfig::default()
                });
                backend.arm(crash_at);
                let _ = compactor.run(&store, &mut journal, &mut index);
                KEPT.to_vec()
            }
        }
    }
}

/// What every crash state of a workload is judged against, taken from
/// the run no crash interrupts.
struct Reference {
    /// What each iteration restarts to: after the puts, or before the
    /// pass (which must change no restart result).
    restarts: BTreeMap<u64, VariableSet>,
    /// The bytes each write of the workload put at its path.
    landed: BTreeMap<PathBuf, Vec<u8>>,
    /// What the new put after recovery writes.
    truth: Vec<VariableSet>,
}

fn restart_all(store: &CheckpointStore, iterations: u64) -> BTreeMap<u64, VariableSet> {
    let engine = RestartEngine::new(store.clone());
    (0..iterations).filter_map(|it| Some((it, engine.restart_at(it).ok()?.vars))).collect()
}

/// Judge one crash state: recover it, then run the checks; `acked` must
/// restart. With `journal` false, `intent.journal` is removed first and
/// the completed-count check, which reads the journal's records, is
/// skipped. Returns how many intents recovery replayed.
fn check(
    reference: &Reference,
    state: &Disk,
    acked: &[u64],
    journal: bool,
) -> Result<usize, String> {
    let mut state = state.clone();
    let journal_path = Path::new(STORE).join(JOURNAL_FILE);
    if !journal {
        state.live.remove(&journal_path);
        state.durable.remove(&journal_path);
    }
    let backend = SimBackend::new(state);
    let store = open(&backend);

    // What recovery ought to call completed: intents whose file holds
    // exactly the bytes their write meant to land.
    let (_, outstanding) = IntentJournal::open(store.dir(), backend.clone())
        .map_err(|e| format!("journal replay: {e}"))?;
    let intended = outstanding
        .iter()
        .filter(|intent| {
            let path = store.path_of(intent.iteration, intent.is_full);
            let landed = reference.landed.get(&path).expect("every intent names a write");
            backend.read(&path).ok().as_ref() == Some(landed)
        })
        .count();

    let (mut journal_after, report) =
        recover_session(&store).map_err(|e| format!("recovery failed: {e}"))?;
    if journal {
        let expected = (outstanding.len(), intended, outstanding.len() - intended);
        let got = (report.replayed, report.completed, report.rolled_back);
        if got != expected || report.repaired {
            return Err(format!(
                "recovery reported (replayed, completed, rolled back) = {got:?}, \
                 repaired {}; the bytes at the paths say {expected:?}",
                report.repaired
            ));
        }
    }

    let engine = RestartEngine::new(store.clone());
    for (&it, expected) in &reference.restarts {
        match engine.restart_at(it) {
            Ok(got) if vars_bits_equal(&got.vars, expected) => {}
            Ok(_) => return Err(format!("iteration {it} restarts to different values")),
            Err(e) if acked.contains(&it) => {
                return Err(format!("acknowledged iteration {it} lost: {e}"))
            }
            Err(_) => {}
        }
    }

    let scrubbed = scrub(&store).map_err(|e| format!("scrub failed: {e}"))?;
    if !scrubbed.is_clean() {
        return Err(format!("scrub quarantined {:?}", scrubbed.quarantined));
    }

    let next = acked.last().map_or(0, |it| it + 1);
    let vars = &reference.truth[next as usize];
    put(&mut manager(&store, 4), &mut journal_after, next, vars)
        .map_err(|e| format!("new put of {next} failed: {e}"))?;
    match engine.restart_at(next) {
        Ok(got) if vars_bits_equal(&got.vars, vars) => Ok(report.replayed),
        other => Err(format!("new put of {next} does not restart: {:?}", other.err())),
    }
}

/// Counts from one workload's enumeration.
#[derive(Debug, Default)]
struct Tally {
    crash_points: usize,
    states: usize,
    /// States whose recovery replays an outstanding intent.
    replaying: usize,
    /// States that fail a check once `intent.journal` is removed.
    need_journal: Vec<String>,
    failures: Vec<String>,
}

fn enumerate(workload: Workload) -> Tally {
    let start = workload.start();

    // The run no crash interrupts: the operation count and the reference.
    let backend = SimBackend::new(start.clone());
    let acked = workload.run(&backend, None);
    let (ops, end, landed) = {
        let sim = backend.0.lock().unwrap();
        (sim.log.clone(), sim.disk.clone(), sim.landed.clone())
    };
    let finished = open(&SimBackend::new(Disk::settled(end.live.clone(), end.inodes.clone())));
    let restarts = match workload {
        Workload::Puts => {
            assert_eq!(acked, (0..PUTS).collect::<Vec<_>>(), "every put is acknowledged");
            restart_all(&finished, PUTS)
        }
        Workload::Compaction => {
            let kept: Vec<u64> = restart_all(&finished, CHAIN).into_keys().collect();
            assert_eq!(kept, acked, "the pass merges, promotes and collects");
            restart_all(&open(&SimBackend::new(start.clone())), CHAIN)
        }
    };
    let reference = Reference { restarts, landed, truth: truth(PUTS + 1) };

    let mut tally = Tally::default();
    // Crash before operation k, for every k; k = ops + 1 is the crash
    // just after the last one.
    for k in 1..=ops.len() as u64 + 1 {
        let (crash, acked) = if k as usize > ops.len() {
            (Crash { disk: end.clone(), append: None }, acked.clone())
        } else {
            let backend = SimBackend::new(start.clone());
            let acked = workload.run(&backend, Some(k));
            let crash = backend.0.lock().unwrap().crash.take().expect("the run reached the crash");
            (crash, acked)
        };
        let at = ops.get(k as usize - 1).map_or("the end", String::as_str);
        let mut cuts = vec![(0, crash.disk.clone())];
        if let Some((path, bytes)) = &crash.append {
            for cut in [1, 8, bytes.len() - 1] {
                let mut disk = crash.disk.clone();
                disk.append(path, &bytes[..cut]).unwrap();
                cuts.push((cut, disk));
            }
        }
        tally.crash_points += 1;
        for (cut, disk) in cuts {
            for (mask, state) in disk.crash_states() {
                tally.states += 1;
                let label = format!(
                    "{workload:?}: crash before op {k} ({at}), cut {cut}, entries {mask:#b}"
                );
                match check(&reference, &state, &acked, true) {
                    Ok(replayed) => tally.replaying += usize::from(replayed > 0),
                    Err(e) => tally.failures.push(format!("{label}: {e}")),
                }
                if let Err(e) = check(&reference, &state, &acked, false) {
                    tally.need_journal.push(format!("{label}: {e}"));
                }
            }
        }
    }
    tally
}

fn assert_contract(workload: Workload) {
    let tally = enumerate(workload);
    println!(
        "crash_states {workload:?}: {} crash points, {} states, {} replay an intent, \
         {} need the journal's records",
        tally.crash_points,
        tally.states,
        tally.replaying,
        tally.need_journal.len(),
    );
    if let Some(first) = tally.need_journal.first() {
        println!("  first: {first}");
    }
    assert!(
        tally.failures.is_empty(),
        "{} of {} crash states break the contract; first ones:\n{}",
        tally.failures.len(),
        tally.states,
        tally.failures.iter().take(8).cloned().collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn every_crash_state_of_the_put_bracket_keeps_the_contract() {
    assert_contract(Workload::Puts);
}

#[test]
fn every_crash_state_of_a_compaction_pass_keeps_the_contract() {
    assert_contract(Workload::Compaction);
}
