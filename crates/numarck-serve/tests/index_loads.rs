//! Restart cost does not grow with the files a session has stored: a
//! session loads its chain index once, when it opens, and its restarts,
//! Stats requests and maintenance passes work from that live index. No
//! request lists the store or re-reads a file header.
//!
//! `ckpt_index_loads_total` is process-global, so this file holds one
//! test and nothing else moves the counter.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use numarck::{Config, Strategy};
use numarck_compact::CompactionConfig;
use numarck_obs::Registry;
use numarck_serve::{Client, Server, ServerConfig};

mod fixture;
mod util;
use fixture::{vars, CountingBackend};
use util::TempDir;

const TIMEOUT: Duration = Duration::from_secs(10);

fn index_loads() -> u64 {
    Registry::global().counter("ckpt_index_loads_total").get()
}

/// Wait until the maintenance worker has finished `passes` more passes:
/// a pass counts as started when it begins, and passes run one after
/// another, so `passes + 1` starts mean `passes` finished.
fn wait_for_passes(passes: u64) {
    let runs = Registry::global().counter("nck_compact_runs_total");
    let target = runs.get() + passes + 1;
    let deadline = Instant::now() + TIMEOUT;
    while runs.get() < target {
        assert!(Instant::now() < deadline, "the maintenance worker stopped running passes");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn the_session_open_is_the_only_index_load() {
    let tmp = TempDir::new("index-loads");
    let backend = Arc::new(CountingBackend::default());
    let mut config =
        ServerConfig::new(tmp.0.join("root"), Config::new(8, 0.001, Strategy::Clustering).unwrap());
    config.io_timeout = TIMEOUT;
    config.backend = backend.clone();
    config.compact_interval = Duration::from_millis(20);
    config.compaction = Some(CompactionConfig {
        merge_window: 4,
        keep_last_fulls: 2,
        min_age_secs: 0,
        ..CompactionConfig::default()
    });
    let server = Server::spawn("127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(server.addr(), TIMEOUT).unwrap();
    let counts =
        || (backend.list_dirs.load(Ordering::SeqCst), backend.prefixes.load(Ordering::SeqCst));

    let before_open = index_loads();
    let session = client.open_session("sim").unwrap();
    let opened = index_loads();
    assert_eq!(opened, before_open + 1, "opening a session loads its index once");

    let iters = 200u64;
    for it in 0..iters {
        client.put_iteration(session, it, &vars(it)).unwrap();
    }
    wait_for_passes(1);

    // Restarts of the latest iteration and of the two retained fulls
    // (every 16th iteration is one): each resolves and pins from the
    // live index alone.
    let (list_dirs, prefixes) = counts();
    for k in 0..50 {
        let target = [iters - 1, 192, 176][k % 3];
        let reply = client.restart(session, target).unwrap();
        assert_eq!(reply.achieved, target, "restart of {target}");
    }
    assert_eq!(counts(), (list_dirs, prefixes), "a restart listed or indexed the store");

    let stats = client.stats().unwrap();
    assert_eq!(stats.sessions[0].latest_restartable, Some(iters - 1));
    assert_eq!(counts(), (list_dirs, prefixes), "Stats listed or indexed the store");
    assert_eq!(stats.counter("ckpt_index_loads_total"), opened, "over the wire too");

    // Maintenance passes run on the live index as well.
    wait_for_passes(2);
    assert!(Registry::global().counter("nck_compact_deltas_merged_total").get() > 0);
    assert_eq!(index_loads(), opened, "only the session open loaded an index");

    drop(client);
    server.shutdown();
}
