//! A session's restart head: after the first restart of its newest
//! iteration, later restarts decode only the hops the puts since added,
//! and a Stats with no put since decodes nothing. Puts never decode.
//!
//! `numarck_decodes_total` and `ckpt_restart_head_hits_total` are
//! process-global, so this file holds one test and nothing else moves
//! them.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use numarck::{Config, Strategy};
use numarck_obs::Registry;
use numarck_serve::{Client, Server, ServerConfig};

mod fixture;
mod util;
use fixture::{vars, CountingBackend};
use util::TempDir;

const TIMEOUT: Duration = Duration::from_secs(10);

fn decodes() -> u64 {
    Registry::global().counter("numarck_decodes_total").get()
}

fn head_hits() -> u64 {
    Registry::global().counter("ckpt_restart_head_hits_total").get()
}

#[test]
fn restarts_continue_from_the_head_and_puts_never_decode() {
    let tmp = TempDir::new("restart-head");
    let backend = Arc::new(CountingBackend::default());
    let mut config =
        ServerConfig::new(tmp.0.join("root"), Config::new(8, 0.001, Strategy::Clustering).unwrap());
    config.io_timeout = TIMEOUT;
    config.backend = backend.clone();
    config.full_interval = 64;
    let server = Server::spawn("127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(server.addr(), TIMEOUT).unwrap();
    let session = client.open_session("sim").unwrap();
    let maps = || backend.maps.load(Ordering::SeqCst);

    // Puts never decode.
    let before_puts = decodes();
    for it in 0..10 {
        client.put_iteration(session, it, &vars(it)).unwrap();
    }
    assert_eq!(decodes(), before_puts, "a put decoded");

    // The first restart of the newest iteration is cold: the whole path
    // (full 0 and deltas 1..=9) is mapped and replayed.
    let cold = client.restart(session, 9).unwrap();
    assert_eq!((cold.achieved, cold.base, cold.deltas_applied), (9, 0, 9));
    assert_eq!(decodes(), before_puts + 9);

    // Two Stats with no put between them: the head is the newest
    // iteration, so neither decodes.
    let hits = head_hits();
    let before_stats = decodes();
    let stats = client.stats().unwrap();
    assert_eq!(stats.sessions[0].latest_restartable, Some(9));
    client.stats().unwrap();
    assert_eq!(decodes(), before_stats, "a Stats with no put since the head decoded");
    assert_eq!(head_hits(), hits + 2);

    // A restart of the latest after k puts maps and decodes only the k
    // new files, and still reports the whole path.
    for k in [1u64, 3] {
        let newest = 9 + if k == 1 { 1 } else { 4 };
        for it in newest + 1 - k..=newest {
            client.put_iteration(session, it, &vars(it)).unwrap();
        }
        let (maps_before, decodes_before) = (maps(), decodes());
        let warm = client.restart(session, newest).unwrap();
        assert_eq!((warm.achieved, warm.base, warm.deltas_applied), (newest, 0, newest));
        assert_eq!(maps() - maps_before, k, "restart of {newest} after {k} puts");
        assert_eq!(decodes() - decodes_before, k, "restart of {newest} after {k} puts");
    }

    // The counter reaches Stats by name.
    let stats = client.stats().unwrap();
    assert_eq!(stats.counter("ckpt_restart_head_hits_total"), head_hits());
    assert!(head_hits() >= hits + 5);

    drop(client);
    server.shutdown();
}
