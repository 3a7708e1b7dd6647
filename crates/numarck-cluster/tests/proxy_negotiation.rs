//! Wire version negotiation *through a forwarding hop*: a stock client
//! talking to the router must get typed results even when the shards
//! behind it speak older dialects of the stats reply — the frozen `0x85`
//! layout with no tails, or with the observability tail but no
//! durability tail. The router decodes each shard's reply with the same
//! frozen decoder a direct client uses, which puts the old fields under
//! their instrument names, aggregates, and re-encodes as the current
//! `0x88` reply; nothing old leaks through to the client.
//!
//! The shards here are fakes: bare TCP threads that frame-decode
//! requests and answer `Stats` with hand-encoded payloads frozen in the
//! old layouts. They also answer the router's health prober (which is
//! just a `Stats` round-trip), so the router keeps them marked up.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use numarck_cluster::{Router, RouterConfig, RouterHandle};
use numarck_serve::wire::{self, opcode};
use numarck_serve::Client;

const TIMEOUT: Duration = Duration::from_secs(10);

fn put_string(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u16).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

/// A base-format (pre-extension) `StatsData` payload: counters, the
/// draining flag, and one session — exactly where an old encoder
/// stopped.
fn old_format_stats_payload() -> Vec<u8> {
    let mut payload = Vec::new();
    for v in [5u64, 40, 2, 64, 1 << 20, 3] {
        payload.extend_from_slice(&v.to_le_bytes());
    }
    payload.push(0); // draining
    payload.extend_from_slice(&1u32.to_le_bytes()); // one session
    payload.extend_from_slice(&7u64.to_le_bytes()); // shard-local id
    put_string(&mut payload, "legacy");
    payload.extend_from_slice(&16u32.to_le_bytes()); // files
    payload.push(1); // latest_restartable present
    payload.extend_from_slice(&15u64.to_le_bytes());
    payload
}

/// A frozen `0x85` payload with the observability extension but no
/// durability tail, hand-encoded: base counters, no sessions, queue
/// depth 4 and an empty latency list.
fn obs_only_stats_payload() -> Vec<u8> {
    let mut payload = Vec::new();
    for v in [2u64, 9, 0, 11, 0, 0] {
        payload.extend_from_slice(&v.to_le_bytes());
    }
    payload.push(0); // draining
    payload.extend_from_slice(&0u32.to_le_bytes()); // no sessions
    payload.extend_from_slice(&4i64.to_le_bytes()); // queue depth
    payload.extend_from_slice(&0u32.to_le_bytes()); // no latencies
    payload
}

/// A payload cut *inside* the observability extension: bytes present
/// but not a whole extension. Direct clients treat this as a decode
/// error; the router must too, and must not let it poison the fan-out.
fn torn_extension_stats_payload() -> Vec<u8> {
    let mut payload = obs_only_stats_payload();
    payload.truncate(payload.len() - 3);
    payload
}

/// Serve `stats_payload` for every `Stats` request, forever, on a
/// dedicated listener. Handles concurrent connections (the router's
/// upstream plus the prober's).
fn spawn_fake_shard(stats_payload: Vec<u8>, stop: Arc<AtomicBool>) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake shard");
    let addr = listener.local_addr().unwrap().to_string();
    thread::spawn(move || {
        for stream in listener.incoming() {
            if stop.load(Ordering::SeqCst) {
                return;
            }
            let Ok(stream) = stream else { continue };
            let payload = stats_payload.clone();
            thread::spawn(move || serve_connection(stream, &payload));
        }
    });
    addr
}

fn serve_connection(mut stream: TcpStream, stats_payload: &[u8]) {
    let _ = stream.set_read_timeout(Some(TIMEOUT));
    loop {
        let frame = match wire::read_frame(&mut stream) {
            Ok(f) => f,
            Err(_) => return, // peer hung up or went quiet
        };
        let reply = match frame.opcode() {
            opcode::STATS => wire::encode_frame(opcode::STATS_DATA, frame.req_id(), stats_payload),
            other => wire::encode_frame(
                opcode::ERROR,
                frame.req_id(),
                &error_payload(&format!("fake shard only speaks Stats, got {other:#x}")),
            ),
        };
        if stream.write_all(&reply).is_err() || stream.flush().is_err() {
            return;
        }
    }
}

fn error_payload(message: &str) -> Vec<u8> {
    let mut p = 1u16.to_le_bytes().to_vec(); // ErrorCode::Malformed on the wire
    put_string(&mut p, message);
    p
}

fn router_over(shards: Vec<String>) -> RouterHandle {
    Router::spawn(
        "127.0.0.1:0",
        RouterConfig {
            shards,
            probe_interval: Duration::from_millis(100),
            probe_timeout: Duration::from_secs(2),
            ..RouterConfig::default()
        },
    )
    .expect("spawn router")
}

#[test]
fn old_format_shard_reply_proxies_to_typed_defaults() {
    let stop = Arc::new(AtomicBool::new(false));
    let addr = spawn_fake_shard(old_format_stats_payload(), Arc::clone(&stop));
    let router = router_over(vec![addr]);

    let mut client = Client::connect(router.addr(), TIMEOUT).expect("connect via router");
    let stats = client.stats().expect("stats via router from old-format shard");
    assert_eq!(stats.accepted, 5);
    assert_eq!(stats.write_retries, 3);
    assert_eq!(stats.sessions.len(), 1);
    assert_eq!(stats.sessions[0].name, "legacy");
    assert_eq!(stats.sessions[0].latest_restartable, Some(15));
    assert_eq!(stats.gauge("nsrv_queue_depth"), 0, "observability extension defaults through the hop");
    assert!(stats.latencies.is_empty(), "observability extension defaults through the hop");
    assert_eq!(
        stats.counter("nsrv_journal_replayed_total"),
        0,
        "durability extension defaults through the hop"
    );
    assert!(!stats.draining, "draining reflects the router, and it is not draining");

    stop.store(true, Ordering::SeqCst);
    drop(client);
    router.shutdown();
}

#[test]
fn obs_only_shard_reply_proxies_with_durability_defaults() {
    let stop = Arc::new(AtomicBool::new(false));
    let addr = spawn_fake_shard(obs_only_stats_payload(), Arc::clone(&stop));
    let router = router_over(vec![addr]);

    let mut client = Client::connect(router.addr(), TIMEOUT).expect("connect via router");
    let stats = client.stats().expect("stats via router from obs-only shard");
    assert_eq!(stats.served, 9);
    assert_eq!(stats.gauge("nsrv_queue_depth"), 4, "observability extension survives the hop");
    assert_eq!(
        stats.counter("nsrv_journal_replayed_total"),
        0,
        "missing durability extension decodes to defaults"
    );
    assert_eq!(stats.counter("ckpt_replica_repairs_total"), 0);

    stop.store(true, Ordering::SeqCst);
    drop(client);
    router.shutdown();
}

#[test]
fn torn_extension_reply_is_dropped_not_proxied() {
    // One healthy old-format shard, one shard whose reply is cut inside
    // an extension. The fan-out must keep the decodable reply and
    // discard the torn one — the client still gets typed results.
    let stop = Arc::new(AtomicBool::new(false));
    let good = spawn_fake_shard(old_format_stats_payload(), Arc::clone(&stop));
    let torn = spawn_fake_shard(torn_extension_stats_payload(), Arc::clone(&stop));
    let router = router_over(vec![good, torn]);

    let mut client = Client::connect(router.addr(), TIMEOUT).expect("connect via router");
    let stats = client.stats().expect("stats via router with one torn shard");
    assert_eq!(stats.accepted, 5, "the decodable shard's counters survive");
    assert_eq!(stats.sessions.len(), 1);
    assert_eq!(stats.served, 40, "only the good shard contributes (torn reply dropped)");

    stop.store(true, Ordering::SeqCst);
    drop(client);
    router.shutdown();
}
