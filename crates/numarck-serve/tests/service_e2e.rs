//! End-to-end service tests: concurrent sessions, drain + restart with
//! bit-exact recovery, and provable bounded-queue backpressure.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use numarck::{Config, Strategy};
use numarck_checkpoint::VariableSet;
use numarck_serve::{Client, ClientError, Server, ServerConfig, WrittenKind};

mod util;
use util::TempDir;

const TIMEOUT: Duration = Duration::from_secs(10);

fn test_config() -> Config {
    Config::new(8, 0.001, Strategy::Clustering).unwrap()
}

/// Deterministic per-session truth data: `iters` iterations of two
/// smoothly-evolving variables.
fn truth(session: usize, iters: u64, points: usize) -> Vec<VariableSet> {
    let mut out = Vec::new();
    let mut u: Vec<f64> =
        (0..points).map(|j| (1.0 + session as f64 * 0.1) * (1.0 + (j % 7) as f64)).collect();
    let mut v: Vec<f64> =
        (0..points).map(|j| (2.0 + session as f64 * 0.2) * (1.0 + (j % 5) as f64)).collect();
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

/// The local reference the acceptance criteria call for: re-encode the
/// run from the exact data of the last server-acked full checkpoint at
/// or before `target` and replay it open-loop — exactly the manager's
/// encode discipline (one group-encoded table per iteration, change
/// ratios against exact previous data) and the restart engine's replay
/// (each delta applied to the reconstructed state).
fn expected_at(
    exact: &[VariableSet],
    kinds: &BTreeMap<u64, WrittenKind>,
    target: u64,
    config: Config,
) -> VariableSet {
    let base_iter = kinds
        .iter()
        .filter(|(it, kind)| **it <= target && !matches!(kind, WrittenKind::Delta))
        .map(|(it, _)| *it)
        .max()
        .expect("at least one full checkpoint acked");
    let names: Vec<String> = exact[base_iter as usize].keys().cloned().collect();
    let mut state = exact[base_iter as usize].clone();
    for it in base_iter + 1..=target {
        let prev_exact = &exact[it as usize - 1];
        let curr_exact = &exact[it as usize];
        let pairs: Vec<(&[f64], &[f64])> = names
            .iter()
            .map(|n| (prev_exact[n].as_slice(), curr_exact[n].as_slice()))
            .collect();
        let (blocks, _) = numarck::group::encode_group(&pairs, &config).unwrap();
        for (n, block) in names.iter().zip(blocks) {
            let prev = state.get_mut(n).expect("variable sets are uniform");
            *prev = numarck::decode::reconstruct(prev, &block).unwrap();
        }
    }
    state
}

fn assert_bit_exact(got: &VariableSet, want: &VariableSet, context: &str) {
    assert_eq!(got.len(), want.len(), "{context}: variable sets differ");
    for (name, want_vals) in want {
        let got_vals = &got[name];
        assert_eq!(got_vals.len(), want_vals.len(), "{context}/{name}: length");
        for (j, (g, w)) in got_vals.iter().zip(want_vals).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{context}/{name}[{j}]: {g} != {w} (not bit-exact)"
            );
        }
    }
}

/// The tentpole acceptance scenario: 4 concurrent clients ingest 16
/// iterations each into separate sessions, the server is drained halfway
/// through and restarted, and every session's restart is bit-identical
/// to the local re-encode reference.
#[test]
fn concurrent_sessions_survive_drain_and_restart_bit_exact() {
    const SESSIONS: usize = 4;
    const ITERS: u64 = 16;
    const SPLIT: u64 = 8; // server is drained after this many iterations
    const POINTS: usize = 256;

    let tmp = TempDir::new("serve-e2e");
    let config = test_config();
    let mut server_config = ServerConfig::new(tmp.0.join("root"), config);
    server_config.full_interval = 5;
    server_config.io_timeout = TIMEOUT;

    let data: Vec<Vec<VariableSet>> =
        (0..SESSIONS).map(|s| truth(s, ITERS, POINTS)).collect();
    let data = Arc::new(data);

    // Runs one client thread per session, ingesting iterations
    // `range` and returning the acked per-iteration outcome kinds.
    let ingest_phase = |addr: std::net::SocketAddr,
                        range: std::ops::Range<u64>|
     -> Vec<BTreeMap<u64, WrittenKind>> {
        let handles: Vec<_> = (0..SESSIONS)
            .map(|s| {
                let data = Arc::clone(&data);
                let range = range.clone();
                thread::spawn(move || {
                    let mut client = Client::connect(addr, TIMEOUT).unwrap();
                    let session = client.open_session(&format!("sess-{s}")).unwrap();
                    let mut kinds = BTreeMap::new();
                    for it in range {
                        let outcome =
                            client.put_iteration(session, it, &data[s][it as usize]).unwrap();
                        assert_eq!(outcome.iteration, it);
                        kinds.insert(it, outcome.kind);
                    }
                    kinds
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    };

    // Phase 1: first half of every session's run.
    let server = Server::spawn("127.0.0.1:0", server_config.clone()).unwrap();
    let addr = server.addr();
    let mut kinds_per_session = ingest_phase(addr, 0..SPLIT);
    for kinds in &kinds_per_session {
        assert_eq!(kinds[&0], WrittenKind::Full, "first checkpoint must be full");
    }

    // Drain mid-run via the protocol, then wait for a full stop.
    let mut control = Client::connect(addr, TIMEOUT).unwrap();
    control.shutdown().unwrap();
    server.join();
    assert!(
        Client::connect(addr, Duration::from_millis(500)).is_err(),
        "drained server must not accept connections"
    );

    // Phase 2: a fresh server process over the same root; sessions are
    // re-opened by name and the runs continue where they left off.
    let server = Server::spawn("127.0.0.1:0", server_config).unwrap();
    let addr = server.addr();
    for (s, kinds) in ingest_phase(addr, SPLIT..ITERS).into_iter().enumerate() {
        assert_eq!(
            kinds[&SPLIT],
            WrittenKind::Full,
            "first post-restart checkpoint must re-anchor with a full"
        );
        kinds_per_session[s].extend(kinds);
    }

    // Every session restarts bit-exactly at the final iteration and at
    // an arbitrary mid-chain one.
    let mut client = Client::connect(addr, TIMEOUT).unwrap();
    for s in 0..SESSIONS {
        let session = client.open_session(&format!("sess-{s}")).unwrap();
        for target in [ITERS - 1, SPLIT + 1, 3] {
            let reply = client.restart(session, target).unwrap();
            assert_eq!(reply.achieved, target, "session {s}: restart must be exact");
            assert_eq!(reply.lost, 0);
            let want = expected_at(&data[s], &kinds_per_session[s], target, config);
            assert_bit_exact(&reply.vars, &want, &format!("sess-{s}@{target}"));
        }
    }

    // Stats sees all sessions with their full chains restartable.
    let stats = client.stats().unwrap();
    assert_eq!(stats.sessions.len(), SESSIONS);
    for sess in &stats.sessions {
        assert_eq!(sess.latest_restartable, Some(ITERS - 1), "{}", sess.name);
        assert_eq!(sess.files, ITERS as u32, "{}: files from both phases", sess.name);
    }
    assert_eq!(stats.iterations_ingested, SESSIONS as u64 * SPLIT);
    server.shutdown();
}

/// Overloading the bounded hand-off queue returns a typed `Busy`
/// response instead of stalling or deadlocking. Deterministic setup:
/// one worker (pinned by a connection it is actively serving) + a
/// one-slot queue (filled by a second idle connection) means a third
/// connection must be rejected.
#[test]
fn bounded_queue_overload_returns_busy() {
    let tmp = TempDir::new("serve-busy");
    let mut config = ServerConfig::new(tmp.0.join("root"), test_config());
    config.workers = 1;
    config.queue_depth = 1;
    config.io_timeout = TIMEOUT;
    let server = Server::spawn("127.0.0.1:0", config).unwrap();
    let addr = server.addr();

    // Conn A: a completed round-trip proves the single worker has taken
    // this connection off the queue and is now parked serving it.
    let mut conn_a = Client::connect(addr, TIMEOUT).unwrap();
    conn_a.stats().unwrap();

    // Conn B: accepted into the single queue slot (never served while
    // the worker is on A). Give the acceptor a beat to enqueue it.
    let mut conn_b = Client::connect(addr, TIMEOUT).unwrap();
    thread::sleep(Duration::from_millis(100));

    // Conn C: queue full — the acceptor must answer Busy, promptly.
    let mut conn_c = Client::connect(addr, TIMEOUT).unwrap();
    match conn_c.stats() {
        Err(ClientError::Busy) => {}
        other => panic!("expected Busy, got {other:?}"),
    }

    // The rejection is counted, and the server is still fully alive:
    // conn A keeps working.
    let stats = conn_a.stats().unwrap();
    assert_eq!(stats.busy_rejected, 1);
    // A connection is counted when a worker takes it off the queue.
    assert_eq!(stats.accepted, 1, "A in service, B queued, C rejected");
    drop(conn_a);
    let stats = conn_b.stats().unwrap();
    assert_eq!(stats.busy_rejected, 1);
    assert_eq!(stats.accepted, 2, "A and B accepted, C rejected");
    server.shutdown();
}

/// The observability extension: request latencies ride the stats
/// reply, counters agree with the client's own request history, and
/// the merged metrics snapshot exposes the server's instruments next
/// to the process-global (encoder/checkpoint) ones.
#[test]
fn stats_extension_and_metrics_snapshot_agree_with_traffic() {
    let tmp = TempDir::new("serve-obs");
    let mut config = ServerConfig::new(tmp.0.join("root"), test_config());
    config.io_timeout = TIMEOUT;
    let server = Server::spawn("127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(server.addr(), TIMEOUT).unwrap();

    let session = client.open_session("obs").unwrap();
    let data = truth(0, 4, 64);
    for (it, vars) in data.iter().enumerate() {
        client.put_iteration(session, it as u64, vars).unwrap();
    }

    let stats = client.stats().unwrap();
    assert_eq!(stats.iterations_ingested, 4);
    let lat = |name: &str| {
        stats
            .latencies
            .iter()
            .find(|l| l.name == name)
            .unwrap_or_else(|| panic!("latency {name} missing from stats extension"))
            .summary
    };
    assert_eq!(lat("nsrv_request_open_ns").count, 1);
    assert_eq!(lat("nsrv_request_put_ns").count, 4);
    assert!(lat("nsrv_request_put_ns").sum > 0, "puts take nonzero time");
    // The stats request being answered is itself still in flight, so
    // its own span has not recorded yet.
    assert_eq!(lat("nsrv_request_stats_ns").count, 0);
    assert_eq!(stats.gauge("nsrv_queue_depth"), 0, "no queued connections at rest");

    let snap = server.metrics_snapshot();
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("counter {name} missing from snapshot"))
            .1
    };
    assert_eq!(counter("nsrv_iterations_ingested_total"), 4);
    assert_eq!(counter("nsrv_accepted_total"), 1);
    assert!(snap.histograms.iter().any(|(n, _)| n == "nsrv_request_put_ns"));
    // Global-registry instruments (checkpoint manager outcomes from the
    // ingest above) ride along in the merge.
    assert!(
        snap.counters.iter().any(|(n, _)| n.starts_with("ckpt_")),
        "merged snapshot must include global ckpt_ metrics"
    );
    // Server startup resolves the lane-kernel dispatch level, so every
    // scrape reports which instruction set encode/decode are running on.
    assert!(
        snap.gauges.iter().any(|(n, _)| n == "simd_dispatch_level"),
        "merged snapshot must report simd_dispatch_level"
    );
    // The ingest above serialised checkpoints, which stamps the
    // container version those writes used.
    assert!(
        snap.gauges.iter().any(|(n, v)| n == "nck_format_version" && *v == 2),
        "merged snapshot must report nck_format_version = 2"
    );
    server.shutdown();
}

/// A connection is counted, and the hand-off queue gauge raised, before
/// the worker that picks it up answers any of its requests: a Stats on a
/// fresh connection sees its own connection, and never a negative queue.
#[test]
fn a_stats_on_a_fresh_connection_counts_its_own_connection() {
    let tmp = TempDir::new("serve-accepted");
    let mut config = ServerConfig::new(tmp.0.join("root"), test_config());
    config.io_timeout = TIMEOUT;
    let server = Server::spawn("127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(server.addr(), TIMEOUT).unwrap();
    let session = client.open_session("accepted").unwrap();
    client.put_iteration(session, 0, &truth(0, 1, 64)[0]).unwrap();
    drop(client);

    for k in 2..12u64 {
        let stats = Client::connect(server.addr(), TIMEOUT).unwrap().stats().unwrap();
        assert!(stats.gauge("nsrv_queue_depth") >= 0, "connection {k}: {stats:?}");
        assert!(stats.accepted >= k, "connection {k} read accepted {}", stats.accepted);
    }
    server.shutdown();
}

/// The stats reply carries the server's whole metrics snapshot: its
/// counter, gauge and histogram names are exactly those `/metrics`
/// renders. Other tests in this process share the global registry and
/// may add names at any moment, and names are never removed, so each
/// round brackets the reply between two snapshots and compares on a
/// round where the two agree.
#[test]
fn stats_reply_names_every_instrument_of_the_metrics_snapshot() {
    let tmp = TempDir::new("serve-stats-names");
    let mut config = ServerConfig::new(tmp.0.join("root"), test_config());
    config.io_timeout = TIMEOUT;
    let server = Server::spawn("127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(server.addr(), TIMEOUT).unwrap();
    let session = client.open_session("names").unwrap();
    for (it, vars) in truth(0, 3, 64).iter().enumerate() {
        client.put_iteration(session, it as u64, vars).unwrap();
    }
    client.restart(session, 2).unwrap();

    type Names = (Vec<String>, Vec<String>, Vec<String>);
    fn names(snap: &numarck_obs::Snapshot) -> Names {
        (
            snap.counters.iter().map(|(n, _)| n.clone()).collect(),
            snap.gauges.iter().map(|(n, _)| n.clone()).collect(),
            snap.histograms.iter().map(|(n, _)| n.clone()).collect(),
        )
    }
    let subset = |a: &[String], b: &[String]| a.iter().all(|n| b.contains(n));
    let mut agreed = 0;
    for _ in 0..20 {
        let before = names(&server.metrics_snapshot());
        let stats = client.stats().unwrap();
        let after = names(&server.metrics_snapshot());
        let got = names(&stats.metrics());
        assert!(
            subset(&before.0, &got.0) && subset(&before.1, &got.1) && subset(&before.2, &got.2),
            "the reply lacks a name the snapshot had before it: {got:?} vs {before:?}"
        );
        assert!(
            subset(&got.0, &after.0) && subset(&got.1, &after.1) && subset(&got.2, &after.2),
            "the reply names an instrument the snapshot lacks: {got:?} vs {after:?}"
        );
        if before == after {
            assert_eq!(got, after, "stats and the metrics snapshot name the same instruments");
            agreed += 1;
            if agreed == 3 {
                break;
            }
        }
    }
    assert!(agreed > 0, "the registries never held still for one round");
    let stats = client.stats().unwrap();
    assert_eq!(stats.counter("nsrv_iterations_ingested_total"), 3);
    assert!(stats.latencies.iter().any(|l| l.name.starts_with("numarck_encode_")));
    assert!(stats.counters.iter().any(|(n, _)| n.starts_with("ckpt_")));
    server.shutdown();
}

/// Session lifecycle and error surfaces: idempotent open, unknown ids,
/// invalid names, close semantics, and restart on an empty session.
#[test]
fn session_lifecycle_and_typed_errors() {
    let tmp = TempDir::new("serve-session");
    let mut config = ServerConfig::new(tmp.0.join("root"), test_config());
    config.io_timeout = TIMEOUT;
    let server = Server::spawn("127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(server.addr(), TIMEOUT).unwrap();

    let id = client.open_session("alpha").unwrap();
    assert_eq!(client.open_session("alpha").unwrap(), id, "open is idempotent");
    let other = client.open_session("beta").unwrap();
    assert_ne!(id, other);

    // Invalid names are rejected, not created.
    for bad in ["", "..", "a/b", "x".repeat(65).as_str()] {
        match client.open_session(bad) {
            Err(ClientError::Server { code, .. }) => {
                assert_eq!(code, numarck_serve::ErrorCode::BadRequest, "{bad:?}")
            }
            other => panic!("open({bad:?}): expected BadRequest, got {other:?}"),
        }
    }

    // Unknown session ids are typed errors.
    match client.restart(9999, 0) {
        Err(ClientError::Server { code, .. }) => {
            assert_eq!(code, numarck_serve::ErrorCode::UnknownSession)
        }
        other => panic!("expected UnknownSession, got {other:?}"),
    }

    // Restarting an empty (but open) session: nothing restartable.
    match client.restart(id, u64::MAX) {
        Err(ClientError::Server { code, .. }) => {
            assert_eq!(code, numarck_serve::ErrorCode::NotFound)
        }
        other => panic!("expected NotFound, got {other:?}"),
    }

    // Empty batches are rejected.
    match client.put_iterations(id, Vec::new()) {
        Err(ClientError::Server { code, .. }) => {
            assert_eq!(code, numarck_serve::ErrorCode::BadRequest)
        }
        other => panic!("expected BadRequest, got {other:?}"),
    }

    // Close, then the id is gone; the name can be re-opened (new id).
    client.close_session(id).unwrap();
    match client.close_session(id) {
        Err(ClientError::Server { code, .. }) => {
            assert_eq!(code, numarck_serve::ErrorCode::UnknownSession)
        }
        other => panic!("expected UnknownSession, got {other:?}"),
    }
    let reopened = client.open_session("alpha").unwrap();
    assert_ne!(reopened, id, "closed ids are not recycled");
    server.shutdown();
}

/// Batched ingest equals one-at-a-time ingest: same outcome kinds, same
/// bit-exact restart.
#[test]
fn batched_ingest_matches_single_puts() {
    let tmp = TempDir::new("serve-batch");
    let config = test_config();
    let mut server_config = ServerConfig::new(tmp.0.join("root"), config);
    server_config.full_interval = 4;
    server_config.io_timeout = TIMEOUT;
    let server = Server::spawn("127.0.0.1:0", server_config).unwrap();
    let mut client = Client::connect(server.addr(), TIMEOUT).unwrap();

    let data = truth(0, 10, 128);
    let session = client.open_session("batched").unwrap();
    let batch: Vec<(u64, VariableSet)> =
        data.iter().enumerate().map(|(it, vars)| (it as u64, vars.clone())).collect();
    let outcomes = client.put_iterations(session, batch).unwrap();
    assert_eq!(outcomes.len(), 10);
    let kinds: BTreeMap<u64, WrittenKind> =
        outcomes.iter().map(|o| (o.iteration, o.kind)).collect();
    assert_eq!(kinds[&0], WrittenKind::Full);
    assert_eq!(kinds[&4], WrittenKind::Full);
    assert_eq!(kinds[&8], WrittenKind::Full);
    assert_eq!(kinds[&7], WrittenKind::Delta);

    let reply = client.restart(session, 9).unwrap();
    assert_eq!(reply.achieved, 9);
    let want = expected_at(&data, &kinds, 9, config);
    assert_bit_exact(&reply.vars, &want, "batched@9");
    server.shutdown();
}
