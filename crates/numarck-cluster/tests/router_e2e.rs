//! In-process cluster end-to-end: three real `numarck-serve` shards
//! fronted by the router, driven by the stock client. Covers routed
//! ingest + byte-identical restart vs the primary shard, visible
//! replication on both placement targets, restart failover after the
//! primary dies, typed `Busy` at the connection cap, stats fan-out
//! aggregation, graceful drain, the idle disconnect of a mute client,
//! a shard that never answers a forwarded restart, and a shard that
//! hangs up on an idle upstream.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use numarck::{Config, Strategy};
use numarck_checkpoint::VariableSet;
use numarck_cluster::{Router, RouterConfig, RouterHandle};
use numarck_serve::wire::{self, opcode, ErrorCode, Request, Response};
use numarck_serve::{Client, ClientError, Server, ServerConfig, ServerHandle};

const TIMEOUT: Duration = Duration::from_secs(10);

/// Self-cleaning unique temp directory (same shape as numarck-serve's
/// test util; this crate needs its own copy).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let unique = format!(
            "numarck-cluster-test-{tag}-{}-{}",
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

fn test_config() -> Config {
    Config::new(8, 0.001, Strategy::Clustering).unwrap()
}

/// Deterministic truth data: `iters` iterations of two smoothly
/// evolving variables.
fn truth(iters: u64, points: usize) -> Vec<VariableSet> {
    let mut out = Vec::new();
    let mut u: Vec<f64> = (0..points).map(|j| 1.5 * (1.0 + (j % 7) as f64)).collect();
    let mut v: Vec<f64> = (0..points).map(|j| 2.5 * (1.0 + (j % 5) as f64)).collect();
    for it in 0..iters {
        if it > 0 {
            for (j, x) in u.iter_mut().enumerate() {
                *x *= 1.0 + 0.004 * (((j as u64 + it) % 9) as f64 - 4.0) / 4.0;
            }
            for (j, x) in v.iter_mut().enumerate() {
                *x *= 1.0 - 0.003 * (((j as u64 + 2 * it) % 5) as f64 - 2.0) / 2.0;
            }
        }
        let mut vars = VariableSet::new();
        vars.insert("u".into(), u.clone());
        vars.insert("v".into(), v.clone());
        out.push(vars);
    }
    out
}

fn assert_bit_exact(got: &VariableSet, want: &VariableSet, context: &str) {
    assert_eq!(got.len(), want.len(), "{context}: variable sets differ");
    for (name, want_vals) in want {
        let got_vals = &got[name];
        assert_eq!(got_vals.len(), want_vals.len(), "{context}/{name}: length");
        for (j, (g, w)) in got_vals.iter().zip(want_vals).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{context}/{name}[{j}]: not bit-exact");
        }
    }
}

/// Three shards plus a router over them, all in-process.
struct Cluster {
    _tmp: TempDir,
    shards: Vec<Option<ServerHandle>>,
    router: Option<RouterHandle>,
}

impl Cluster {
    fn start(tag: &str, router_tweak: impl FnOnce(&mut RouterConfig)) -> Self {
        let tmp = TempDir::new(tag);
        let mut shards = Vec::new();
        for i in 0..3 {
            let mut config = ServerConfig::new(tmp.0.join(format!("shard-{i}")), test_config());
            config.full_interval = 4;
            shards.push(Some(Server::spawn("127.0.0.1:0", config).expect("spawn shard")));
        }
        let mut config = RouterConfig {
            shards: shards
                .iter()
                .map(|s| s.as_ref().unwrap().addr().to_string())
                .collect(),
            probe_interval: Duration::from_millis(100),
            probe_timeout: Duration::from_secs(2),
            markdown_after: 2,
            ..RouterConfig::default()
        };
        router_tweak(&mut config);
        let router = Router::spawn("127.0.0.1:0", config).expect("spawn router");
        Cluster { _tmp: tmp, shards, router: Some(router) }
    }

    fn router(&self) -> &RouterHandle {
        self.router.as_ref().unwrap()
    }

    fn client(&self) -> Client {
        Client::connect(self.router().addr(), TIMEOUT).expect("connect via router")
    }

    fn shard_client(&self, i: usize) -> Client {
        let addr = self.shards[i].as_ref().unwrap().addr();
        Client::connect(addr, TIMEOUT).expect("connect shard directly")
    }

    fn kill_shard(&mut self, i: usize) {
        self.shards[i].take().unwrap().shutdown();
    }

    fn wait_down(&self, i: usize) {
        let deadline = Instant::now() + TIMEOUT;
        while self.router().membership().is_up(i) {
            assert!(Instant::now() < deadline, "shard {i} never marked down");
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        if let Some(router) = self.router.take() {
            router.shutdown();
        }
        for shard in self.shards.iter_mut().filter_map(Option::take) {
            shard.shutdown();
        }
    }
}

fn counter(snapshot: &numarck_obs::Snapshot, name: &str) -> u64 {
    snapshot
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map(|&(_, v)| v)
        .unwrap_or_else(|| panic!("counter {name} missing from snapshot"))
}

#[test]
fn routed_ingest_replicates_and_restarts_byte_identical() {
    let cluster = Cluster::start("route", |_| {});
    let data = truth(6, 96);

    // Ingest entirely through the router with the stock client.
    let mut client = cluster.client();
    let session = client.open_session("ha").expect("open via router");
    for (it, vars) in data.iter().enumerate() {
        client.put_iteration(session, it as u64, vars).expect("put via router");
    }

    // The routed restart is the cluster's answer.
    let routed = client.restart(session, 5).expect("restart via router");
    assert_eq!(routed.achieved, 5);

    // Placement is ring arithmetic: both planned targets must hold the
    // session (replication factor 2), the third shard must not.
    let plan = cluster.router().plan("ha");
    assert_eq!(plan.len(), 2, "default replication factor is 2");
    for &target in &plan {
        let mut direct = cluster.shard_client(target);
        let stats = direct.stats().expect("direct shard stats");
        let s = stats
            .sessions
            .iter()
            .find(|s| s.name == "ha")
            .unwrap_or_else(|| panic!("shard {target} is a planned replica but lacks 'ha'"));
        assert_eq!(s.latest_restartable, Some(5), "replica {target} is behind");
    }
    let bystander = (0..3).find(|i| !plan.contains(i)).unwrap();
    let stats = cluster.shard_client(bystander).stats().expect("bystander stats");
    assert!(
        stats.sessions.iter().all(|s| s.name != "ha"),
        "shard {bystander} holds 'ha' but is not in the plan {plan:?}"
    );

    // Byte-identical to replaying directly on the primary shard: open
    // by name on the shard to learn its local id, then restart there.
    let mut primary = cluster.shard_client(plan[0]);
    let local = primary.open_session("ha").expect("reopen on primary");
    let direct = primary.restart(local, 5).expect("restart on primary");
    assert_eq!(direct.achieved, 5);
    assert_bit_exact(&routed.vars, &direct.vars, "router vs primary shard");

    // Fan-out stats through the router merge the session by name under
    // the gateway id the client was handed.
    let merged = client.stats().expect("stats via router");
    let s = merged.sessions.iter().find(|s| s.name == "ha").expect("merged session");
    assert_eq!(s.id, session, "aggregated stats must echo the gateway id");
    assert_eq!(s.latest_restartable, Some(5));

    client.close_session(session).expect("close via router");
}

/// Gauges fold by max through the router: over two real shards it
/// reports the shards' own `simd_dispatch_level` (both resolve it from
/// this process's CPU), not their sum, and the base fields still read
/// the summed counters.
#[test]
fn routed_stats_report_the_shards_own_gauge_levels() {
    let tmp = TempDir::new("gauges");
    let shards: Vec<ServerHandle> = (0..2)
        .map(|i| {
            let config = ServerConfig::new(tmp.0.join(format!("shard-{i}")), test_config());
            Server::spawn("127.0.0.1:0", config).expect("spawn shard")
        })
        .collect();
    let config = RouterConfig {
        shards: shards.iter().map(|s| s.addr().to_string()).collect(),
        probe_interval: Duration::from_millis(100),
        ..RouterConfig::default()
    };
    let router = Router::spawn("127.0.0.1:0", config).expect("spawn router");

    let levels: Vec<i64> = shards
        .iter()
        .map(|s| {
            let mut direct = Client::connect(s.addr(), TIMEOUT).expect("connect shard directly");
            direct.stats().expect("direct shard stats").gauge("simd_dispatch_level")
        })
        .collect();
    assert_eq!(levels[0], levels[1], "one process, one dispatch level");
    let routed = Client::connect(router.addr(), TIMEOUT)
        .expect("connect via router")
        .stats()
        .expect("stats via router");
    assert_eq!(routed.gauge("simd_dispatch_level"), levels[0], "a shard's level, not a sum");
    assert_eq!(routed.served, routed.counter("nsrv_served_total"));
    assert!(routed.served >= 2, "both shards served their direct Stats");

    router.shutdown();
    for shard in shards {
        shard.shutdown();
    }
}

#[test]
fn restart_fails_over_when_the_primary_shard_dies() {
    let mut cluster = Cluster::start("failover", |_| {});
    let data = truth(6, 64);

    let mut client = cluster.client();
    let session = client.open_session("ha").expect("open via router");
    for (it, vars) in data.iter().enumerate() {
        client.put_iteration(session, it as u64, vars).expect("put via router");
    }
    let healthy = client.restart(session, 5).expect("restart while healthy");

    // Kill the primary and wait for the health machinery to notice.
    let plan = cluster.router().plan("ha");
    cluster.kill_shard(plan[0]);
    cluster.wait_down(plan[0]);

    // The same client, same gateway session id: the router must serve
    // the restart from the surviving replica, byte-identical.
    let recovered = client.restart(session, 5).expect("restart after primary death");
    assert_eq!(recovered.achieved, 5);
    assert_bit_exact(&recovered.vars, &healthy.vars, "failover replica");

    let snapshot = cluster.router().metrics_snapshot();
    assert!(counter(&snapshot, "ncl_shard_markdowns_total") >= 1, "markdown not counted");
}

#[test]
fn connection_cap_answers_typed_busy() {
    let cluster = Cluster::start("busy", |c| c.max_connections = 1);

    // First client owns the only slot.
    let mut holder = cluster.client();
    holder.stats().expect("holder request");

    // The second connection is accepted just long enough to be told
    // Busy — the same typed backpressure the shard acceptor uses, so
    // the stock client classifies it as transient.
    let mut rejected = Client::connect(cluster.router().addr(), TIMEOUT).expect("tcp connect");
    match rejected.stats() {
        Err(e) => assert!(e.is_transient(), "connection-cap rejection must be transient: {e}"),
        Ok(_) => panic!("second connection should have been refused with Busy"),
    }
    drop(rejected);

    // Dropping the holder frees the slot.
    drop(holder);
    let deadline = Instant::now() + TIMEOUT;
    loop {
        let mut retry = Client::connect(cluster.router().addr(), TIMEOUT).expect("tcp connect");
        if retry.stats().is_ok() {
            break;
        }
        assert!(Instant::now() < deadline, "slot never freed after holder hung up");
        std::thread::sleep(Duration::from_millis(20));
    }

    let snapshot = cluster.router().metrics_snapshot();
    assert!(counter(&snapshot, "ncl_busy_total") >= 1, "busy rejection not counted");
}

#[test]
fn drain_finishes_in_flight_work_then_refuses_new_connections() {
    let mut cluster = Cluster::start("drain", |_| {});
    let data = truth(3, 32);

    let mut client = cluster.client();
    let session = client.open_session("drain-me").expect("open");
    for (it, vars) in data.iter().enumerate() {
        client.put_iteration(session, it as u64, vars).expect("put");
    }

    let router = cluster.router.take().unwrap();
    router.trigger_drain();

    // An established connection gets a typed Draining error, not a
    // hang-up mid-frame.
    match client.stats() {
        Err(ClientError::Server { .. } | ClientError::Io(_)) => {}
        Err(other) => panic!("unexpected drain-time error: {other}"),
        Ok(_) => panic!("draining router should refuse new work"),
    }
    drop(client);

    // The loop exits once the last client is gone; join must complete.
    router.join();

    // Shards are untouched by a router drain: the session's data is
    // still restartable on its primary.
    let plan = numarck_cluster::HashRing::new(3, numarck_cluster::DEFAULT_VNODES)
        .shards_for("drain-me", 2);
    let mut direct = cluster.shard_client(plan[0]);
    let local = direct.open_session("drain-me").expect("reopen on shard");
    let reply = direct.restart(local, 2).expect("restart on shard after router drain");
    assert_eq!(reply.achieved, 2);
}

#[test]
fn a_mute_client_is_disconnected_after_the_idle_timeout() {
    let idle = Duration::from_secs(1);
    let cluster = Cluster::start("idle", |c| c.idle_timeout = idle);

    // Connect and say nothing: the router hangs up on its own, without
    // a word (a clean end of stream), once the idle budget is spent.
    let mut mute = TcpStream::connect(cluster.router().addr()).expect("tcp connect");
    mute.set_read_timeout(Some(TIMEOUT)).unwrap();
    let started = Instant::now();
    let mut byte = [0u8; 1];
    let n = mute.read(&mut byte).expect("the router closes the mute connection cleanly");
    let waited = started.elapsed();
    assert_eq!(n, 0, "the router sent bytes to a client that never asked");
    assert!(waited >= idle / 2, "closed after {waited:?}, well before the {idle:?} idle timeout");
    assert!(waited < idle + Duration::from_secs(3), "closed only after {waited:?}");

    let snapshot = cluster.router().metrics_snapshot();
    assert!(
        counter(&snapshot, "ncl_idle_disconnects_total") >= 1,
        "idle disconnect not counted"
    );
}

/// A stand-in shard that answers `OpenSession` and the prober's
/// `Stats`, but takes every `Restart` and never answers it.
fn spawn_silent_restart_shard() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake shard");
    let addr = listener.local_addr().unwrap().to_string();
    thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            thread::spawn(move || loop {
                // Ends when the router drops the connection.
                let Ok(frame) = wire::read_frame(&mut stream) else { return };
                let resp = match frame.opcode() {
                    opcode::OPEN_SESSION => Response::SessionOpened { session: 41 },
                    opcode::STATS => Response::StatsData(Box::default()),
                    _ => continue,
                };
                let reply = wire::encode_frame(resp.opcode(), frame.req_id(), &resp.payload());
                if stream.write_all(&reply).is_err() {
                    return;
                }
            });
        }
    });
    addr
}

#[test]
fn a_shard_that_never_answers_a_restart_times_out_without_stalling_other_clients() {
    let idle = Duration::from_secs(2);
    let tmp = TempDir::new("silent");
    let mut shard_config = ServerConfig::new(tmp.0.join("real"), test_config());
    shard_config.full_interval = 4;
    let real = Server::spawn("127.0.0.1:0", shard_config).expect("spawn shard");
    let router = Router::spawn(
        "127.0.0.1:0",
        RouterConfig {
            shards: vec![spawn_silent_restart_shard(), real.addr().to_string()],
            replication: 1,
            idle_timeout: idle,
            probe_interval: Duration::from_millis(100),
            probe_timeout: Duration::from_secs(2),
            markdown_after: 2,
            ..RouterConfig::default()
        },
    )
    .expect("spawn router");
    // One session whose only replica is the silent shard (0), one
    // whose only replica is the real shard (1).
    let name_on = |shard: usize| {
        (0..).map(|i| format!("s{i}")).find(|n| router.plan(n)[0] == shard).unwrap()
    };
    let (stuck_name, healthy_name) = (name_on(0), name_on(1));

    // Raw frames, so the test sees exactly what the router answers.
    let mut raw = TcpStream::connect(router.addr()).expect("tcp connect");
    raw.set_read_timeout(Some(TIMEOUT)).unwrap();
    let open = Request::OpenSession { name: stuck_name };
    raw.write_all(&wire::encode_frame(open.opcode(), 1, &open.payload())).unwrap();
    let session = match Response::from_frame(&wire::read_frame(&mut raw).expect("open reply")) {
        Ok(Response::SessionOpened { session }) => session,
        other => panic!("open on the silent shard failed: {other:?}"),
    };
    let restart = Request::Restart { session, at_or_before: 3 };
    raw.write_all(&wire::encode_frame(restart.opcode(), 2, &restart.payload())).unwrap();
    let started = Instant::now();
    let (answered_tx, answered) = mpsc::channel();
    let waiter = thread::spawn(move || {
        let reply = wire::read_frame(&mut raw);
        let _ = answered_tx.send(started.elapsed());
        reply
    });

    // While that restart hangs, another client opens and ingests on
    // the healthy shard, unhindered.
    let mut other = Client::connect(router.addr(), TIMEOUT).expect("connect via router");
    let other_started = Instant::now();
    let healthy = other.open_session(&healthy_name).expect("open on the healthy shard");
    for (it, vars) in truth(3, 32).iter().enumerate() {
        other.put_iteration(healthy, it as u64, vars).expect("put on the healthy shard");
    }
    let other_took = other_started.elapsed();
    assert!(
        answered.try_recv().is_err(),
        "the stuck restart was answered before the other client finished"
    );
    assert!(other_took < idle, "the other client took {other_took:?} behind the stuck restart");

    // The stuck client gets a typed I/O error once the shard's deadline
    // passes: not a hang, not a hang-up.
    let reply = waiter.join().unwrap().expect("a typed answer to the stuck restart");
    let waited = answered.recv().unwrap();
    match Response::from_frame(&reply) {
        Ok(Response::Error { code: ErrorCode::Io, .. }) => {}
        other => panic!("stuck restart answered with {other:?}"),
    }
    assert!(waited >= idle / 2, "answered after {waited:?}, before the shard's deadline");
    assert!(waited < idle + Duration::from_secs(3), "answered only after {waited:?}");

    drop(other);
    router.shutdown();
    real.shutdown();
}

#[test]
fn an_upstream_the_shard_closed_while_idle_is_reopened() {
    let shard_idle = Duration::from_millis(300);
    let tmp = TempDir::new("reopen");
    let mut shard_config = ServerConfig::new(tmp.0.join("shard"), test_config());
    shard_config.full_interval = 4;
    shard_config.idle_timeout = shard_idle;
    let shard = Server::spawn("127.0.0.1:0", shard_config).expect("spawn shard");
    let router = Router::spawn(
        "127.0.0.1:0",
        RouterConfig {
            shards: vec![shard.addr().to_string()],
            replication: 1,
            ..RouterConfig::default()
        },
    )
    .expect("spawn router");

    let data = truth(2, 32);
    let mut client = Client::connect(router.addr(), TIMEOUT).expect("connect via router");
    let session = client.open_session("idle-upstream").expect("open via router");
    client.put_iteration(session, 0, &data[0]).expect("first put");
    // The client stays connected to the router, but its upstream to the
    // shard sits idle until the shard hangs up on it.
    std::thread::sleep(shard_idle * 4);
    client.put_iteration(session, 1, &data[1]).expect("put after the shard idled the upstream out");
    assert_eq!(client.restart(session, 1).expect("restart").achieved, 1);

    drop(client);
    router.shutdown();
    shard.shutdown();
}
