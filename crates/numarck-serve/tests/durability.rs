//! Durability integration: intent-journal recovery across a server
//! restart, the retry policy on the journal append, and the
//! idle-connection guard that keeps a silent peer from pinning a worker
//! (slowloris).

use std::io::Read;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use numarck::{Config, Strategy};
use numarck_checkpoint::{FaultSchedule, FaultyBackend, FsBackend, VariableSet, WriteFault};
use numarck_serve::{Client, ClientError, ErrorCode, IntentJournal, Server, ServerConfig};

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

/// A server restarted over a session directory with an unresolved
/// intent journal replays it before serving: the rolled-back intent is
/// reported in stats, the stray temp file is swept, and every
/// previously-acknowledged iteration still restarts.
#[test]
fn dirty_journal_is_recovered_on_server_restart() {
    let tmp = TempDir::new("recovery");
    let root = tmp.0.join("root");

    // First server lifetime: ingest 0..=5, shut down cleanly.
    let mut config = ServerConfig::new(&root, test_config());
    config.full_interval = 4;
    config.io_timeout = TIMEOUT;
    let server = Server::spawn("127.0.0.1:0", config.clone()).unwrap();
    {
        let mut client = Client::connect(server.addr(), TIMEOUT).unwrap();
        let session = client.open_session("sim").unwrap();
        for it in 0..=5 {
            client.put_iteration(session, it, &vars(it)).unwrap();
        }
    }
    server.shutdown();

    // Simulate kill -9 debris: an intent that never committed (the
    // crash hit after the journal fsync, before the store write) and a
    // temp file from a write that never reached its rename.
    let session_dir = root.join("sim");
    let (mut journal, outstanding) =
        IntentJournal::open(&session_dir, Arc::new(FsBackend)).unwrap();
    assert!(outstanding.is_empty(), "clean shutdown left outstanding intents");
    journal.begin(6, false, 0xDEAD_BEEF).unwrap();
    drop(journal);
    std::fs::write(session_dir.join("ckpt_0000000007.tmp"), b"half a write").unwrap();

    // Second lifetime over the same root.
    let server = Server::spawn("127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(server.addr(), TIMEOUT).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.counter("nsrv_journal_replayed_total"), 1, "the uncommitted intent was replayed");
    assert_eq!(stats.counter("nsrv_journal_rolled_back_total"), 1, "nothing landed for it, so it rolled back");
    assert_eq!(stats.counter("nsrv_recovery_repairs_total"), 0, "no half-applied file, so no re-anchor");
    assert!(!session_dir.join("ckpt_0000000007.tmp").exists(), "temp debris swept");

    // Every acknowledged iteration is still restartable (deltas are
    // NUMARCK-lossy, so bit-exactness to source only holds at fulls —
    // full_interval 4 puts those at 0 and 4), and the session keeps
    // working: the next ingest re-anchors with a full.
    let session = client.open_session("sim").unwrap();
    for it in 0..=5 {
        let reply = client.restart(session, it).unwrap();
        assert_eq!(reply.achieved, it, "iteration {it} must restart exactly");
        if it % 4 == 0 {
            assert_eq!(reply.vars, vars(it), "full {it} must restart bit-exactly");
        }
    }
    client.put_iteration(session, 6, &vars(6)).unwrap();
    assert_eq!(client.restart(session, 6).unwrap().achieved, 6);
    server.shutdown();
}

/// A half-applied store write (destination exists but holds garbage,
/// journal intent uncommitted) is quarantined on restart and the chain
/// re-anchored: older acknowledged iterations survive.
#[test]
fn half_applied_write_is_quarantined_on_restart() {
    let tmp = TempDir::new("halfwrite");
    let root = tmp.0.join("root");
    let mut config = ServerConfig::new(&root, test_config());
    config.full_interval = 4;
    config.io_timeout = TIMEOUT;
    let server = Server::spawn("127.0.0.1:0", config.clone()).unwrap();
    {
        let mut client = Client::connect(server.addr(), TIMEOUT).unwrap();
        let session = client.open_session("sim").unwrap();
        for it in 0..=5 {
            client.put_iteration(session, it, &vars(it)).unwrap();
        }
    }
    server.shutdown();

    // The crash interrupted the write of iteration 6: intent journaled,
    // destination file exists but holds garbage matching nothing.
    let session_dir = root.join("sim");
    let (mut journal, _) = IntentJournal::open(&session_dir, Arc::new(FsBackend)).unwrap();
    journal.begin(6, false, 0xDEAD_BEEF).unwrap();
    drop(journal);
    std::fs::write(session_dir.join("ckpt_0000000006.delta"), b"torn rename garbage").unwrap();

    let server = Server::spawn("127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(server.addr(), TIMEOUT).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.counter("nsrv_journal_rolled_back_total"), 1);
    assert_eq!(stats.counter("nsrv_recovery_repairs_total"), 1, "the garbage file forced a re-anchor");

    let session = client.open_session("sim").unwrap();
    for it in 0..=5 {
        let reply = client.restart(session, it).unwrap();
        assert_eq!(reply.achieved, it, "iteration {it} must restart exactly");
        if it % 4 == 0 {
            assert_eq!(reply.vars, vars(it), "full {it} must restart bit-exactly");
        }
    }
    server.shutdown();
}

/// Spawn a server over `backend`, open session "sim" and put iteration
/// 0. Returns the put's result, the server's `write_retries` and the
/// backend writes made before the put.
fn put_through(
    root: &std::path::Path,
    backend: Arc<FaultyBackend>,
) -> (Result<numarck_serve::PutOutcome, ClientError>, u64, u64) {
    let mut config = ServerConfig::new(root, test_config());
    config.io_timeout = TIMEOUT;
    config.backend = Arc::clone(&backend) as _;
    let server = Server::spawn("127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(server.addr(), TIMEOUT).unwrap();
    let session = client.open_session("sim").unwrap();
    let writes_before_put = backend.writes_attempted();
    let put = client.put_iteration(session, 0, &vars(0));
    let retries = client.stats().unwrap().write_retries;
    server.shutdown();
    (put, retries, writes_before_put)
}

/// The put's first backend write is its intent-journal append (encoding
/// writes nothing). A transient fault there is retried under the
/// server's retry policy and the put lands, counted once in
/// `write_retries` and not as a store-write retry; a permanent fault
/// there answers `Io` without a retry.
#[test]
fn journal_append_faults_are_retried_or_answer_io() {
    let tmp = TempDir::new("journal-retry");
    // A fault-free run finds the number of writes that opening the
    // session makes; the next write is the intent append.
    let (put, retries, before) =
        put_through(&tmp.0.join("probe"), Arc::new(FaultyBackend::default()));
    put.unwrap();
    assert_eq!(retries, 0);
    let append = before + 1;

    let transient = FaultSchedule::new()
        .fail_write(append, WriteFault::Error(std::io::ErrorKind::Interrupted));
    let (put, retries, _) =
        put_through(&tmp.0.join("transient"), Arc::new(FaultyBackend::new(transient)));
    let outcome = put.expect("a transient journal fault is retried");
    assert_eq!(outcome.retries, 0, "the store write itself needed no retry");
    assert_eq!(retries, 1, "the journal retry is counted once");

    let permanent = FaultSchedule::new()
        .fail_write(append, WriteFault::Error(std::io::ErrorKind::PermissionDenied));
    let (put, retries, _) =
        put_through(&tmp.0.join("permanent"), Arc::new(FaultyBackend::new(permanent)));
    match put {
        Err(ClientError::Server { code: ErrorCode::Io, message }) => {
            assert!(message.contains("intent journal"), "{message}")
        }
        other => panic!("a permanent journal fault must answer Io, got {other:?}"),
    }
    assert_eq!(retries, 0, "a permanent fault is not retried");
}

/// Slowloris guard: a client that connects and goes mute is
/// disconnected once the idle budget runs out, and its worker serves
/// the next connection. With one worker, the second client's request
/// can only succeed if the first connection was reclaimed.
#[test]
fn frozen_client_is_disconnected_and_worker_reclaimed() {
    let tmp = TempDir::new("slowloris");
    let mut config = ServerConfig::new(tmp.0.join("root"), test_config());
    config.workers = 1;
    config.io_timeout = TIMEOUT;
    config.idle_timeout = Duration::from_millis(300);
    let server = Server::spawn("127.0.0.1:0", config).unwrap();

    // The attacker: connects, sends nothing, holds the only worker.
    let mut frozen = TcpStream::connect(server.addr()).unwrap();
    frozen.set_read_timeout(Some(TIMEOUT)).unwrap();

    // The victim: a real client behind it. Its request only completes
    // once the idle guard frees the worker.
    let mut client = Client::connect(server.addr(), TIMEOUT).unwrap();
    let session = client.open_session("after-the-freeze").unwrap();
    client.put_iteration(session, 0, &vars(0)).unwrap();

    // The frozen connection was closed server-side (EOF), and the
    // disconnect is visible in stats.
    let mut buf = [0u8; 1];
    assert_eq!(frozen.read(&mut buf).unwrap(), 0, "server must hang up on the idle peer");
    let stats = client.stats().unwrap();
    assert!(stats.counter("nsrv_idle_disconnects_total") >= 1, "idle disconnect must be counted");
    server.shutdown();
}
