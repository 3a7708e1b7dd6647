//! What the router puts on the wire, byte for byte. A client frame is
//! verified once and forwarded as it arrived, except for the session
//! id each replica knows the session under; shard responses that echo
//! the forwarded request come back verbatim; a corrupt client frame is
//! still refused as `Malformed`.
//!
//! The shards are fakes: bare TCP threads that log every frame they
//! receive and send, answer `OpenSession` with their own session id,
//! `PutIterations` with a `PutDone`, `Restart` with a fixed
//! `RestartData`, and `Stats` (the health prober's round-trip) with an
//! empty reply.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use numarck_checkpoint::VariableSet;
use numarck_cluster::{Router, RouterConfig, RouterHandle};
use numarck_serve::wire::{self, opcode, ErrorCode, PutOutcome, Request, Response, WrittenKind};

const TIMEOUT: Duration = Duration::from_secs(10);

/// Every frame one fake shard received and sent, in order.
#[derive(Default)]
struct Log {
    received: Vec<Vec<u8>>,
    sent: Vec<Vec<u8>>,
}

fn vars(seed: f64) -> VariableSet {
    let mut v = VariableSet::new();
    v.insert("u".into(), (0..300).map(|i| seed + i as f64 * 0.125).collect());
    v
}

/// The fake shard's answer to one request.
fn answer(frame: &wire::Frame, local_session: u64) -> Vec<u8> {
    let resp = match Request::from_frame(frame).expect("router forwards well-formed requests") {
        Request::OpenSession { .. } => Response::SessionOpened { session: local_session },
        Request::PutIterations { iterations, .. } => Response::PutDone {
            outcomes: iterations
                .iter()
                .map(|(iteration, _)| PutOutcome {
                    iteration: *iteration,
                    kind: WrittenKind::Delta,
                    retries: 0,
                })
                .collect(),
        },
        Request::Restart { at_or_before, .. } => Response::RestartData {
            achieved: at_or_before,
            base: 0,
            deltas_applied: at_or_before,
            lost: 0,
            vars: vars(local_session as f64),
        },
        Request::Stats => Response::StatsData(Box::default()),
        other => panic!("fake shard got unexpected {other:?}"),
    };
    wire::encode_frame(resp.opcode(), frame.req_id(), &resp.payload())
}

fn spawn_fake_shard(local_session: u64, log: Arc<Mutex<Log>>) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake shard");
    let addr = listener.local_addr().unwrap().to_string();
    thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            let log = Arc::clone(&log);
            thread::spawn(move || loop {
                let Ok(frame) = wire::read_frame(&mut stream) else { return };
                let reply = answer(&frame, local_session);
                // The prober's Stats round-trips are not part of the
                // conversation under test.
                if frame.opcode() != opcode::STATS {
                    let mut log = log.lock().expect("log lock");
                    log.received.push(frame.as_bytes().to_vec());
                    log.sent.push(reply.clone());
                }
                if stream.write_all(&reply).is_err() {
                    return;
                }
            });
        }
    });
    addr
}

struct Fixture {
    router: Option<RouterHandle>,
    logs: Vec<Arc<Mutex<Log>>>,
    /// Shard-local session id of each fake shard.
    local: Vec<u64>,
}

impl Fixture {
    fn start() -> Fixture {
        let local = vec![101, 202];
        let logs: Vec<_> = local.iter().map(|_| Arc::new(Mutex::new(Log::default()))).collect();
        let shards =
            local.iter().zip(&logs).map(|(&sid, log)| spawn_fake_shard(sid, Arc::clone(log))).collect();
        let router = Router::spawn(
            "127.0.0.1:0",
            RouterConfig { shards, replication: 2, ..RouterConfig::default() },
        )
        .expect("spawn router");
        Fixture { router: Some(router), logs, local }
    }

    fn connect(&self) -> TcpStream {
        let s = TcpStream::connect(self.router.as_ref().unwrap().addr()).expect("connect router");
        s.set_read_timeout(Some(TIMEOUT)).unwrap();
        s
    }

    fn log(&self, shard: usize) -> std::sync::MutexGuard<'_, Log> {
        self.logs[shard].lock().expect("log lock")
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        if let Some(r) = self.router.take() {
            r.shutdown();
        }
    }
}

/// Send one request frame, return the raw response frame.
fn round_trip(stream: &mut TcpStream, frame: &[u8]) -> wire::Frame {
    stream.write_all(frame).expect("send");
    wire::read_frame(stream).expect("response frame")
}

fn open(f: &Fixture, stream: &mut TcpStream) -> u64 {
    let req = Request::OpenSession { name: "fwd".into() };
    let reply = round_trip(stream, &wire::encode_frame(req.opcode(), 1, &req.payload()));
    match Response::from_frame(&reply).expect("decode open reply") {
        Response::SessionOpened { session } => {
            assert!(!f.local.contains(&session), "gateway id must be the router's own");
            session
        }
        other => panic!("open failed: {other:?}"),
    }
}

#[test]
fn each_replica_receives_the_client_frame_under_its_own_session_id() {
    let f = Fixture::start();
    let mut client = f.connect();
    let gid = open(&f, &mut client);

    let put = |session| Request::PutIterations { session, iterations: vec![(0, vars(1.0)), (1, vars(2.0))] };
    let sent = wire::encode_frame(opcode::PUT_ITERATIONS, 77, &put(gid).payload());
    let reply = round_trip(&mut client, &sent);

    let mut primary_reply = None;
    for (shard, &sid) in f.local.iter().enumerate() {
        let log = f.log(shard);
        let got = log.received.last().expect("every replica got the put");
        let want = wire::encode_frame(opcode::PUT_ITERATIONS, 77, &put(sid).payload());
        assert!(*got == want, "shard {shard}: forwarded put is not the client frame under id {sid}");
        if reply.as_bytes() == log.sent.last().unwrap().as_slice() {
            primary_reply = Some(shard);
        }
    }
    // The ack is one shard's PutDone exactly as that shard sent it.
    assert!(primary_reply.is_some(), "put ack is not any shard's reply verbatim");
}

#[test]
fn restart_data_reaches_the_client_byte_equal_to_the_shards() {
    let f = Fixture::start();
    let mut client = f.connect();
    let gid = open(&f, &mut client);

    let req = Request::Restart { session: gid, at_or_before: 9 };
    let reply = round_trip(&mut client, &wire::encode_frame(req.opcode(), 5, &req.payload()));
    assert_eq!(reply.opcode(), opcode::RESTART_DATA);
    assert_eq!(reply.req_id(), 5);

    // Exactly one shard (the primary) was asked; its bytes are the
    // client's bytes. Byte 6 of a frame is its opcode.
    let asked: Vec<usize> = (0..f.local.len())
        .filter(|&s| f.log(s).received.last().is_some_and(|b| b[6] == opcode::RESTART))
        .collect();
    assert_eq!(asked.len(), 1, "restart goes to one replica");
    let log = f.log(asked[0]);
    let want_req = Request::Restart { session: f.local[asked[0]], at_or_before: 9 };
    assert!(*log.received.last().unwrap() == wire::encode_frame(want_req.opcode(), 5, &want_req.payload()));
    assert!(reply.as_bytes() == log.sent.last().unwrap().as_slice(), "restart data was re-encoded");
}

#[test]
fn a_flipped_bit_in_a_client_frame_is_answered_malformed() {
    let f = Fixture::start();
    let mut client = f.connect();
    let gid = open(&f, &mut client);
    let before: Vec<usize> = (0..f.local.len()).map(|s| f.log(s).received.len()).collect();

    let req = Request::PutIterations { session: gid, iterations: vec![(0, vars(3.0))] };
    let mut bad = wire::encode_frame(req.opcode(), 8, &req.payload());
    let mid = bad.len() / 2;
    bad[mid] ^= 0x04;
    let reply = round_trip(&mut client, &bad);
    match Response::from_frame(&reply).expect("decode error reply") {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("corrupt frame answered with {other:?}"),
    }
    // Nothing reached a shard, and the router hung up.
    let after: Vec<usize> = (0..f.local.len()).map(|s| f.log(s).received.len()).collect();
    assert_eq!(before, after, "a corrupt frame was forwarded");
    assert!(wire::read_frame(&mut client).is_err(), "connection stays open after Malformed");
}
