//! The stats reply *through a forwarding hop*: a stock client talking
//! to the router gets typed results even when a shard behind it answers
//! with bytes the router cannot decode. A reply torn partway is dropped
//! from the fold, and the good shards' replies still reach the client.
//! A shard of another build, whose stats reply travels under an opcode
//! this build does not know, fails every probe and is marked down.
//!
//! The shards here are fakes: bare TCP threads that frame-decode
//! requests and answer `Stats` with a fixed frame. They also answer the
//! router's health prober (which is just a `Stats` round-trip).

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use numarck_cluster::{Router, RouterConfig, RouterHandle};
use numarck_obs::Snapshot;
use numarck_serve::wire::{self, opcode, Response, SessionStat, StatsReply};
use numarck_serve::{Client, ClientError};

const TIMEOUT: Duration = Duration::from_secs(10);

/// A shard's stats payload: five accepts, forty requests served and one
/// session.
fn stats_payload() -> Vec<u8> {
    let mut reply = StatsReply {
        sessions: vec![SessionStat {
            id: 7,
            name: "s".into(),
            files: 16,
            latest_restartable: Some(15),
        }],
        ..StatsReply::default()
    };
    reply.set_metrics(Snapshot {
        counters: vec![("nsrv_accepted_total".into(), 5), ("nsrv_served_total".into(), 40)],
        gauges: vec![("nsrv_queue_depth".into(), 4)],
        ..Snapshot::default()
    });
    Response::StatsData(Box::new(reply)).payload()
}

/// Serve `(opcode, payload)` for every `Stats` request, forever, on a
/// dedicated listener. Handles concurrent connections (the router's
/// upstream plus the prober's).
fn spawn_fake_shard(op: u8, stats_payload: Vec<u8>, stop: Arc<AtomicBool>) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake shard");
    let addr = listener.local_addr().unwrap().to_string();
    thread::spawn(move || {
        for stream in listener.incoming() {
            if stop.load(Ordering::SeqCst) {
                return;
            }
            let Ok(stream) = stream else { continue };
            let payload = stats_payload.clone();
            thread::spawn(move || serve_connection(stream, op, &payload));
        }
    });
    addr
}

fn serve_connection(mut stream: TcpStream, op: u8, stats_payload: &[u8]) {
    let _ = stream.set_read_timeout(Some(TIMEOUT));
    loop {
        let frame = match wire::read_frame(&mut stream) {
            Ok(f) => f,
            Err(_) => return, // peer hung up or went quiet
        };
        let reply = match frame.opcode() {
            opcode::STATS => wire::encode_frame(op, frame.req_id(), stats_payload),
            other => Response::Error {
                code: wire::ErrorCode::Malformed,
                message: format!("fake shard only speaks Stats, got {other:#x}"),
            }
            .to_frame(frame.req_id()),
        };
        if stream.write_all(&reply).is_err() || stream.flush().is_err() {
            return;
        }
    }
}

fn router_over(shards: Vec<String>) -> RouterHandle {
    Router::spawn(
        "127.0.0.1:0",
        RouterConfig {
            shards,
            probe_interval: Duration::from_millis(100),
            probe_timeout: Duration::from_secs(2),
            markdown_after: 2,
            ..RouterConfig::default()
        },
    )
    .expect("spawn router")
}

#[test]
fn torn_extension_reply_is_dropped_not_proxied() {
    // One healthy shard, one shard whose reply is cut inside its named
    // lists. The fan-out must keep the decodable reply and discard the
    // torn one — the client still gets typed results.
    let stop = Arc::new(AtomicBool::new(false));
    let good = spawn_fake_shard(opcode::STATS_REPLY, stats_payload(), Arc::clone(&stop));
    let mut torn_payload = stats_payload();
    torn_payload.truncate(torn_payload.len() - 3);
    let torn = spawn_fake_shard(opcode::STATS_REPLY, torn_payload, Arc::clone(&stop));
    let router = router_over(vec![good, torn]);

    let mut client = Client::connect(router.addr(), TIMEOUT).expect("connect via router");
    let stats = client.stats().expect("stats via router with one torn shard");
    assert_eq!(stats.accepted, 5, "the decodable shard's counters survive");
    assert_eq!(stats.sessions.len(), 1);
    assert_eq!(stats.served, 40, "only the good shard contributes (torn reply dropped)");
    assert_eq!(stats.counter("nsrv_served_total"), 40);
    assert_eq!(stats.gauge("nsrv_queue_depth"), 4);
    assert!(!stats.draining, "draining reflects the router, and it is not draining");

    stop.store(true, Ordering::SeqCst);
    drop(client);
    router.shutdown();
}

#[test]
fn a_shard_of_another_build_is_marked_down_with_a_typed_error() {
    // The stats layout before this one travelled under 0x88; a shard
    // still sending it fails decoding at the router and at its prober.
    let stop = Arc::new(AtomicBool::new(false));
    let old = spawn_fake_shard(0x88, stats_payload(), Arc::clone(&stop));
    let router = router_over(vec![old.clone()]);

    let err = Client::connect(&old, TIMEOUT).unwrap().stats().unwrap_err();
    assert!(err.to_string().contains("unknown response opcode 0x88"), "{err}");
    let deadline = Instant::now() + TIMEOUT;
    while router.membership().is_up(0) {
        assert!(Instant::now() < deadline, "the mismatched shard was never marked down");
        thread::sleep(Duration::from_millis(20));
    }
    let mut client = Client::connect(router.addr(), TIMEOUT).expect("connect via router");
    match client.stats() {
        Err(ClientError::Server { .. }) => {}
        other => panic!("stats over a cluster of mismatched shards: {other:?}"),
    }

    stop.store(true, Ordering::SeqCst);
    drop(client);
    router.shutdown();
}
