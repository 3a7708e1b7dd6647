//! Background maintenance integration: the in-server compaction worker
//! merges a live session's delta chain between ingests, restarts stay
//! bit-exact across it, and the counters surface over the wire.

use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use numarck::{Config, Strategy};
use numarck_checkpoint::{
    AlignedBytes, ChainIndex, CheckpointStore, FsBackend, StorageBackend, VariableSet,
};
use numarck_compact::CompactionConfig;
use numarck_serve::{Client, Server, ServerConfig};

mod util;
use util::TempDir;

const TIMEOUT: Duration = Duration::from_secs(10);

fn test_config() -> Config {
    Config::new(8, 0.001, Strategy::Clustering).unwrap()
}

fn vars(iteration: u64) -> VariableSet {
    let mut v = VariableSet::new();
    v.insert(
        "x".into(),
        (0..200).map(|j| (j as f64 + 1.0) * 1.003f64.powi(iteration as i32)).collect(),
    );
    v
}

/// The maintenance worker compacts a session it shares with live
/// traffic: merged deltas appear in the store, every iteration still
/// restarts to exactly the state it restarted to before, and the
/// compaction counters come back in the stats reply.
#[test]
fn background_worker_compacts_live_session_bit_exact() {
    let tmp = TempDir::new("maintenance");
    let mut config = ServerConfig::new(tmp.0.join("root"), test_config());
    config.io_timeout = TIMEOUT;
    // Deltas only (no scheduled fulls): maximal compaction surface.
    config.full_interval = 1000;
    config.compact_interval = Duration::from_millis(100);
    // GC off so every iteration stays individually restartable — this
    // test is about merge correctness under live traffic.
    config.compaction =
        Some(CompactionConfig { merge_window: 4, keep_last_fulls: 0, ..Default::default() });
    let server = Server::spawn("127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(server.addr(), TIMEOUT).unwrap();
    let session = client.open_session("sim").unwrap();
    let iters = 17u64;
    for it in 0..iters {
        client.put_iteration(session, it, &vars(it)).unwrap();
    }
    // Compaction is bit-exact, so these references are valid whether or
    // not a maintenance pass has already slipped in.
    let before: Vec<VariableSet> =
        (0..iters).map(|it| client.restart(session, it).unwrap().vars).collect();

    // Wait for a merged delta (span >= 2) to land in the store.
    let store = CheckpointStore::open(tmp.0.join("root").join("sim")).unwrap();
    let deadline = Instant::now() + TIMEOUT;
    loop {
        let index = ChainIndex::load(&store).unwrap();
        if index.iterations().any(|it| index.file(it, false).is_some_and(|d| d.span() >= 2)) {
            break;
        }
        assert!(Instant::now() < deadline, "maintenance worker never merged the chain");
        std::thread::sleep(Duration::from_millis(20));
    }

    // Every iteration restarts through the compacted chain to the exact
    // same bits, and ingest keeps working after maintenance passes.
    for (it, expected) in before.iter().enumerate() {
        let reply = client.restart(session, it as u64).unwrap();
        assert_eq!(reply.achieved, it as u64);
        assert_eq!(&reply.vars, expected, "iteration {it} diverged after compaction");
    }
    client.put_iteration(session, iters, &vars(iters)).unwrap();
    assert_eq!(client.restart(session, iters).unwrap().achieved, iters);

    let stats = client.stats().unwrap();
    assert!(stats.counter("nck_compact_runs_total") >= 1, "stats: {stats:?}");
    assert!(stats.counter("nck_compact_deltas_merged_total") >= 4, "stats: {stats:?}");

    // Drain must also stop the maintenance worker (join would hang
    // otherwise).
    drop(client);
    server.shutdown();
}

/// A filesystem whose mapped reads are slow on the server's request
/// workers, as when a restart faults its pages in from a slow device
/// while the maintenance pass finds them cached: it widens the window
/// between a restart resolving its chain and opening the files.
#[derive(Debug)]
struct SlowMaps;

impl StorageBackend for SlowMaps {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        FsBackend.create_dir_all(dir)
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        FsBackend.write(path, bytes)
    }
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        FsBackend.append(path, bytes)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        FsBackend.rename(from, to)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        FsBackend.sync_dir(dir)
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        FsBackend.read(path)
    }
    fn map(&self, path: &Path) -> io::Result<AlignedBytes> {
        if std::thread::current().name().is_some_and(|n| n.starts_with("nsrv-worker")) {
            std::thread::sleep(Duration::from_millis(4));
        }
        FsBackend.map(path)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        FsBackend.remove_file(path)
    }
    fn list_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        FsBackend.list_dir(dir)
    }
}

/// Restarts of the acked latest iteration race live maintenance — merges
/// that replace the plain deltas a chain runs through, and GC that
/// deletes the replaced ones with no age floor — and must never come
/// back with an older iteration. The server pins a restart's chain under
/// the session lock the maintenance pass holds, so no file on it can
/// vanish between the resolve and the open.
///
/// Ingest, restarts and maintenance run on their own threads. A restart
/// never overlaps the put after its target: that put may complete a
/// merge window and so legitimately retire the target from retention.
#[test]
fn restarts_of_the_acked_latest_never_fall_back_under_gc() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Arc, RwLock};

    let tmp = TempDir::new("maintenance-pin");
    let mut config = ServerConfig::new(tmp.0.join("root"), test_config());
    config.io_timeout = TIMEOUT;
    config.backend = Arc::new(SlowMaps);
    config.full_interval = 1000;
    config.compact_interval = Duration::from_millis(10);
    config.compaction = Some(CompactionConfig {
        merge_window: 4,
        keep_last_fulls: 1,
        min_age_secs: 0,
        ..Default::default()
    });
    let server = Server::spawn("127.0.0.1:0", config).unwrap();

    // The acked latest iteration, behind a gate: ingest holds it
    // exclusively across a put, restarts share it.
    let acked: Arc<RwLock<Option<u64>>> = Arc::new(RwLock::new(None));
    let done = Arc::new(AtomicBool::new(false));
    let restarts = Arc::new(AtomicU64::new(0));
    let restarters: Vec<_> = (0..2)
        .map(|_| {
            let (acked, done, restarts) = (acked.clone(), done.clone(), restarts.clone());
            let addr = server.addr();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr, TIMEOUT).unwrap();
                let session = client.open_session("sim").unwrap();
                while !done.load(Ordering::Relaxed) {
                    let gate = acked.read().unwrap();
                    let Some(target) = *gate else {
                        drop(gate);
                        std::thread::sleep(Duration::from_millis(1));
                        continue;
                    };
                    let reply = client.restart(session, target).unwrap();
                    assert!(
                        reply.achieved >= target,
                        "restart of acked iteration {target} fell back to {} ({} lost)",
                        reply.achieved,
                        reply.lost
                    );
                    drop(gate);
                    restarts.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();

    let mut client = Client::connect(server.addr(), TIMEOUT).unwrap();
    let session = client.open_session("sim").unwrap();
    for it in 0..25u64 {
        let mut gate = acked.write().unwrap();
        client.put_iteration(session, it, &vars(it)).unwrap();
        *gate = Some(it);
        drop(gate);
        // Let restarts of `it` overlap the maintenance pass it triggers.
        std::thread::sleep(Duration::from_millis(40));
    }
    done.store(true, Ordering::Relaxed);
    for restarter in restarters {
        restarter.join().expect("no restart fell back");
    }
    assert!(restarts.load(Ordering::Relaxed) > 0);

    let stats = client.stats().unwrap();
    assert!(stats.counter("nck_compact_deltas_merged_total") >= 4, "maintenance must have merged: {stats:?}");
    assert!(stats.counter("nck_gc_files_removed_total") > 0, "GC must have collected: {stats:?}");
    drop(client);
    server.shutdown();
}
