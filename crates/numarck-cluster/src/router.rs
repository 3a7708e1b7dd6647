//! The gateway/router: one readiness-driven event loop fronting N
//! `numarck-serve` shards.
//!
//! The router speaks the existing versioned CRC wire protocol on both
//! sides, so a stock pre-router client works unchanged: it connects,
//! opens a session, ingests, restarts — and the router decides *where*
//! that work lands.
//!
//! ## Structure
//!
//! One thread (`ncl-loop`) owns everything: the listener, every client
//! connection, every upstream shard connection, and the gateway session
//! table. All sockets are non-blocking; a [`Poller`] (epoll on Linux,
//! `poll(2)` fallback) wakes the loop when any of them is ready. No
//! locks anywhere on the data path — cross-thread state is limited to
//! the health table (atomics) and the metrics registry (lock-free).
//!
//! ## Per-connection state machine
//!
//! A client connection is a byte accumulator plus at most one in-flight
//! request (the protocol is strict request→response, so pipelined bytes
//! simply wait in the read buffer until the current request resolves):
//!
//! ```text
//!            bytes arrive                 all fan-out replies in
//! [idle] ───────────────► [pending] ───────────────────────► [idle]
//!    │  frame parsed,           │  response queued, flushed      │
//!    │  fan-out forwarded       │  as the socket allows          │
//!    └── idle > timeout: closed └── drain: close after flush ────┘
//! ```
//!
//! Upstream connections are per `(client, shard)`, created lazily at
//! forward time and torn down with the client. A shard's `Busy` or an
//! I/O failure feeds the health table, so real traffic marks a dead
//! shard down faster than the prober's next round.
//!
//! ## Routing
//!
//! * `OpenSession` fans out to the ring's first `replication` live
//!   shards; the gateway allocates its own session id (shards number
//!   sessions independently, so shard-local ids cannot be surfaced).
//! * `PutIterations` replicates to every live target; the primary's
//!   reply is the client's ack, a replica ack stands in when the
//!   primary fails mid-batch (counted as a failover).
//! * `Restart` goes to the primary and fails over down the replica
//!   list on error/busy/death — the acceptance path for surviving a
//!   primary SIGKILL.
//! * `Scrub` fans out to all live targets (each shard runs its own
//!   scrub→quarantine→read-repair machinery) and the reports merge.
//! * `Stats` fans out to every live shard and folds into one reply
//!   ([`crate::stats::aggregate`]).
//!
//! A client frame is CRC-checked once, when it is read. Its verified
//! bytes are then forwarded as they are: each replica gets a copy (the
//! last one the original buffer) with the session id in the first 8
//! payload bytes patched to that shard's id and the CRC resealed
//! ([`wire::patch_session_id`]). The payload itself is never decoded on
//! the ingest path. Shard responses whose request id already echoes
//! the forwarded request (put acks, restart data) go back to the client
//! verbatim; only merged replies (open, scrub, stats, close) are
//! encoded by the router.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use numarck_obs::{Counter, Gauge, Registry, Snapshot};
use numarck_serve::server::signal_drain_requested;
use numarck_serve::wire::{self, opcode, ErrorCode, Frame, Request, Response, StatsReply};

use crate::health::{spawn_prober, HealthInstruments, Membership, ProberConfig};
use crate::poller::{Interest, Poller};
use crate::ring::{HashRing, DEFAULT_VNODES};
use crate::stats;

/// Router tunables. `Default` matches the shard-side conventions
/// (60 s idle timeout, replication factor 2).
pub struct RouterConfig {
    /// Shard addresses, indexed by position (the ring's shard ids).
    pub shards: Vec<String>,
    /// Replicas per session (capped at the shard count).
    pub replication: usize,
    /// Virtual nodes per shard on the hash ring.
    pub vnodes: usize,
    /// Client connections held at once; excess gets a typed `Busy`.
    pub max_connections: usize,
    /// Close client connections idle longer than this; also the
    /// deadline for a shard to answer a forwarded request.
    pub idle_timeout: Duration,
    /// Bounded upstream connect (the one blocking call on the loop;
    /// kept short, and down shards are skipped entirely).
    pub connect_timeout: Duration,
    /// Delay between health-probe rounds.
    pub probe_interval: Duration,
    /// Per-probe connect + I/O timeout.
    pub probe_timeout: Duration,
    /// Consecutive failures before a shard is marked down.
    pub markdown_after: u32,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            shards: Vec::new(),
            replication: 2,
            vnodes: DEFAULT_VNODES,
            max_connections: 4096,
            idle_timeout: Duration::from_secs(60),
            connect_timeout: Duration::from_millis(250),
            probe_interval: Duration::from_millis(500),
            probe_timeout: Duration::from_secs(1),
            markdown_after: 3,
        }
    }
}

/// Router-side instruments (`ncl_` prefix), in the router's private
/// registry and merged with the process-global one at exposition.
struct Instruments {
    requests: Arc<Counter>,
    forwarded: Arc<Counter>,
    failovers: Arc<Counter>,
    busy: Arc<Counter>,
    replica_put_failures: Arc<Counter>,
    degraded_opens: Arc<Counter>,
    idle_disconnects: Arc<Counter>,
    malformed: Arc<Counter>,
    connections: Arc<Gauge>,
    open_sessions: Arc<Gauge>,
}

impl Instruments {
    fn new(registry: &Registry) -> Instruments {
        Instruments {
            requests: registry.counter("ncl_requests_total"),
            forwarded: registry.counter("ncl_forwarded_total"),
            failovers: registry.counter("ncl_failovers_total"),
            busy: registry.counter("ncl_busy_total"),
            replica_put_failures: registry.counter("ncl_replica_put_failures_total"),
            degraded_opens: registry.counter("ncl_degraded_opens_total"),
            idle_disconnects: registry.counter("ncl_idle_disconnects_total"),
            malformed: registry.counter("ncl_malformed_total"),
            connections: registry.gauge("ncl_client_connections"),
            open_sessions: registry.gauge("ncl_open_sessions"),
        }
    }
}

struct Shared {
    registry: Registry,
    membership: Arc<Membership>,
    health: Arc<HealthInstruments>,
    draining: AtomicBool,
}

impl Shared {
    fn metrics_snapshot(&self) -> Snapshot {
        let mut snap = Registry::global().snapshot();
        snap.merge(self.registry.snapshot());
        snap
    }
}

/// Handle to a spawned router. Dropping it does *not* stop the router;
/// call [`Self::shutdown`] (or [`Self::trigger_drain`] + [`Self::join`]).
pub struct RouterHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    ring: HashRing,
    replication: usize,
    backend: &'static str,
    loop_thread: Option<thread::JoinHandle<()>>,
    prober: Option<thread::JoinHandle<()>>,
    prober_stop: Arc<AtomicBool>,
}

impl RouterHandle {
    /// The bound listen address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Which poller backend the event loop runs on.
    pub fn poller_backend(&self) -> &'static str {
        self.backend
    }

    /// The shared shard-health table.
    pub fn membership(&self) -> &Membership {
        &self.shared.membership
    }

    /// Ring placement for a session name, primary first — pure ring
    /// arithmetic, so tests and operators can predict where a session
    /// lands without asking the shards.
    pub fn plan(&self, name: &str) -> Vec<usize> {
        self.ring.shards_for(name, self.replication)
    }

    /// Ask the router to drain: refuse new connections, finish
    /// in-flight requests, exit once the last client is gone.
    pub fn trigger_drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
    }

    /// Whether a drain has been triggered.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Router registry merged with the process-global registry.
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.shared.metrics_snapshot()
    }

    /// A cloneable `'static` snapshot source for a `/metrics` listener.
    pub fn metrics_source(&self) -> impl Fn() -> Snapshot + Send + Sync + 'static {
        let shared = Arc::clone(&self.shared);
        move || shared.metrics_snapshot()
    }

    /// Block until the event loop exits (requires a drain trigger),
    /// then stop the prober.
    pub fn join(mut self) {
        if let Some(h) = self.loop_thread.take() {
            let _ = h.join();
        }
        self.prober_stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.prober.take() {
            let _ = h.join();
        }
    }

    /// Drain and wait.
    pub fn shutdown(self) {
        self.trigger_drain();
        self.join();
    }
}

/// The router. Construct with [`Router::spawn`].
pub struct Router;

impl Router {
    /// Bind `addr`, spawn the event loop and the health prober, and
    /// return a handle. Fails fast on an empty shard list or a bind
    /// error; shard reachability is a health matter, not a spawn error.
    pub fn spawn(addr: impl ToSocketAddrs, config: RouterConfig) -> io::Result<RouterHandle> {
        if config.shards.is_empty() {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "router needs at least one shard"));
        }
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;

        let registry = Registry::new();
        let instruments = Instruments::new(&registry);
        let health = Arc::new(HealthInstruments {
            markdowns: registry.counter("ncl_shard_markdowns_total"),
            markups: registry.counter("ncl_shard_markups_total"),
            probe_failures: registry.counter("ncl_probe_failures_total"),
            shard_up: (0..config.shards.len())
                .map(|i| {
                    let g = registry.gauge(&format!("ncl_shard_up_{i}"));
                    g.set(1);
                    g
                })
                .collect(),
        });
        let membership = Arc::new(Membership::new(config.shards.clone(), config.markdown_after));
        let ring = HashRing::new(config.shards.len(), config.vnodes);
        let replication = config.replication.max(1);
        let shared = Arc::new(Shared {
            registry,
            membership: Arc::clone(&membership),
            health: Arc::clone(&health),
            draining: AtomicBool::new(false),
        });

        let poller = Poller::new()?;
        let backend = poller.backend_name();
        let prober_stop = Arc::new(AtomicBool::new(false));
        let prober = spawn_prober(
            membership,
            health,
            ProberConfig { interval: config.probe_interval, timeout: config.probe_timeout },
            Arc::clone(&prober_stop),
        );

        let loop_shared = Arc::clone(&shared);
        let loop_ring = ring.clone();
        let loop_thread = thread::Builder::new()
            .name("ncl-loop".into())
            .spawn(move || {
                EventLoop::new(listener, poller, loop_ring, config, loop_shared, instruments).run();
            })?;

        Ok(RouterHandle {
            addr: local,
            shared,
            ring,
            replication,
            backend,
            loop_thread: Some(loop_thread),
            prober: Some(prober),
            prober_stop,
        })
    }
}

// ---------------------------------------------------------------------
// Event loop internals
// ---------------------------------------------------------------------

const LISTENER_TOKEN: usize = 0;

/// One shard's contribution to a fan-out.
enum ShardResult {
    /// A complete response frame.
    Frame(Frame),
    /// The shard's acceptor answered `Busy`.
    Busy,
    /// Connect/write/read failed before a response arrived.
    Failed(String),
}

enum PendingKind {
    Open { name: String, planned: usize },
    Put { primary: usize },
    Restart { template: Vec<u8>, remaining: Vec<(usize, u64)> },
    Scrub { primary: usize },
    Stats,
    Close { session: u64 },
}

/// The one in-flight request a client connection may have.
struct Pending {
    req_id: u64,
    awaiting: usize,
    started: Instant,
    results: Vec<(usize, ShardResult)>,
    kind: PendingKind,
}

struct ClientConn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    wpos: usize,
    last_activity: Instant,
    pending: Option<Pending>,
    /// shard index → upstream slab token.
    upstreams: HashMap<usize, usize>,
    close_after_flush: bool,
    want_write: bool,
}

struct UpstreamConn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    wpos: usize,
    shard: usize,
    client: usize,
    in_flight: bool,
    want_write: bool,
}

enum Entry {
    Client(ClientConn),
    Upstream(UpstreamConn),
}

struct GatewaySession {
    name: String,
    /// `(shard, shard-local session id)` in ring-plan order.
    targets: Vec<(usize, u64)>,
}

struct EventLoop {
    listener: Option<TcpListener>,
    poller: Poller,
    ring: HashRing,
    config: RouterConfig,
    shared: Arc<Shared>,
    instruments: Instruments,
    entries: Vec<Option<Entry>>,
    free: Vec<usize>,
    /// Tokens freed during the current event batch; recycled only
    /// after the batch so a stale event cannot hit a reused slot.
    pending_free: Vec<usize>,
    sessions: HashMap<u64, GatewaySession>,
    by_name: HashMap<String, u64>,
    next_session: u64,
    client_count: usize,
    last_sweep: Instant,
}

enum FlushOutcome {
    Done,
    Partial,
    Failed,
}

fn flush_buf(stream: &mut TcpStream, wbuf: &mut Vec<u8>, wpos: &mut usize) -> FlushOutcome {
    while *wpos < wbuf.len() {
        match stream.write(&wbuf[*wpos..]) {
            Ok(0) => return FlushOutcome::Failed,
            Ok(n) => *wpos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return FlushOutcome::Partial,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return FlushOutcome::Failed,
        }
    }
    wbuf.clear();
    *wpos = 0;
    FlushOutcome::Done
}

/// Append `bytes` to a write queue, taking the buffer over instead of
/// copying it when the queue is empty (as it is between requests).
fn enqueue(wbuf: &mut Vec<u8>, bytes: Vec<u8>) {
    if wbuf.is_empty() {
        *wbuf = bytes;
    } else {
        wbuf.extend_from_slice(&bytes);
    }
}

/// `n ≥ 1` copies of a frame for a fan-out: clones for all but the
/// last, which takes the original buffer.
fn copies(bytes: Vec<u8>, n: usize) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = (1..n).map(|_| bytes.clone()).collect();
    out.push(bytes);
    out
}

enum ReadStatus {
    Progress,
    Closed,
}

fn read_available(stream: &mut TcpStream, buf: &mut Vec<u8>) -> ReadStatus {
    let mut tmp = [0u8; 16 * 1024];
    loop {
        match stream.read(&mut tmp) {
            Ok(0) => return ReadStatus::Closed,
            Ok(n) => buf.extend_from_slice(&tmp[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return ReadStatus::Progress,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return ReadStatus::Closed,
        }
    }
}

/// Best explanation when no shard produced a usable reply: prefer the
/// typed `Busy`, then a shard's own error verbatim, then a generic Io.
fn error_response_from(results: &[(usize, ShardResult)]) -> Response {
    if results.iter().any(|(_, r)| matches!(r, ShardResult::Busy)) {
        return Response::Busy;
    }
    for (_, r) in results {
        if let ShardResult::Frame(f) = r {
            if f.opcode() == opcode::ERROR {
                if let Ok(resp) = Response::from_frame(f) {
                    return resp;
                }
            }
        }
    }
    let detail = results
        .iter()
        .find_map(|(_, r)| match r {
            ShardResult::Failed(m) => Some(m.as_str()),
            _ => None,
        })
        .unwrap_or("no shard available");
    Response::Error { code: ErrorCode::Io, message: format!("cluster: {detail}") }
}

/// Merge per-replica scrub reports: totals sum (each shard checked its
/// own copy of the chain), the re-anchor point is the primary's when it
/// answered, otherwise the first replica's.
fn finish_scrub(primary: usize, results: &[(usize, ShardResult)]) -> Response {
    let mut decoded: Vec<(usize, u32, u32, Option<u64>, u32)> = Vec::new();
    for (shard, r) in results {
        if let ShardResult::Frame(f) = r {
            if f.opcode() == opcode::SCRUB_DONE {
                if let Ok(Response::ScrubDone { checked, quarantined, anchored_at, lost }) =
                    Response::from_frame(f)
                {
                    decoded.push((*shard, checked, quarantined, anchored_at, lost));
                }
            }
        }
    }
    if decoded.is_empty() {
        return error_response_from(results);
    }
    let anchored_at = decoded
        .iter()
        .find(|(s, ..)| *s == primary)
        .map(|&(_, _, _, a, _)| a)
        .unwrap_or(decoded[0].3);
    Response::ScrubDone {
        checked: decoded.iter().map(|d| d.1).sum(),
        quarantined: decoded.iter().map(|d| d.2).sum(),
        anchored_at,
        lost: decoded.iter().map(|d| d.4).sum(),
    }
}

impl EventLoop {
    fn new(
        listener: TcpListener,
        poller: Poller,
        ring: HashRing,
        config: RouterConfig,
        shared: Arc<Shared>,
        instruments: Instruments,
    ) -> EventLoop {
        EventLoop {
            listener: Some(listener),
            poller,
            ring,
            config,
            shared,
            instruments,
            entries: vec![None], // slot 0 reserved for the listener
            free: Vec::new(),
            pending_free: Vec::new(),
            sessions: HashMap::new(),
            by_name: HashMap::new(),
            next_session: 1,
            client_count: 0,
            last_sweep: Instant::now(),
        }
    }

    fn run(&mut self) {
        if let Some(l) = &self.listener {
            if self.poller.register(l.as_raw_fd(), LISTENER_TOKEN, Interest::READ).is_err() {
                return;
            }
        }
        let mut events = Vec::new();
        loop {
            if signal_drain_requested() {
                self.shared.draining.store(true, Ordering::SeqCst);
            }
            if self.draining() {
                self.begin_drain();
                if self.client_count == 0 {
                    return;
                }
            }
            if self.poller.wait(&mut events, Some(Duration::from_millis(200))).is_err() {
                thread::sleep(Duration::from_millis(10));
                continue;
            }
            for ev in &events {
                if ev.token == LISTENER_TOKEN {
                    self.accept_ready();
                    continue;
                }
                match self.entries.get(ev.token).and_then(|e| e.as_ref()) {
                    Some(Entry::Client(_)) => self.client_ready(ev.token, ev.readable, ev.writable, ev.error),
                    Some(Entry::Upstream(_)) => self.upstream_ready(ev.token, ev.readable, ev.writable, ev.error),
                    None => {}
                }
            }
            self.free.append(&mut self.pending_free);
            if self.last_sweep.elapsed() >= Duration::from_secs(1) {
                self.sweep();
                self.last_sweep = Instant::now();
                self.free.append(&mut self.pending_free);
            }
        }
    }

    fn draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    // -- slab -----------------------------------------------------------

    fn alloc(&mut self, entry: Entry) -> usize {
        if let Some(t) = self.free.pop() {
            self.entries[t] = Some(entry);
            t
        } else {
            self.entries.push(Some(entry));
            self.entries.len() - 1
        }
    }

    // -- accept ---------------------------------------------------------

    fn accept_ready(&mut self) {
        loop {
            let accepted = match &self.listener {
                Some(l) => l.accept(),
                None => return,
            };
            match accepted {
                Ok((stream, _)) => self.on_accept(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn on_accept(&mut self, stream: TcpStream) {
        if self.draining() {
            return; // listener closes momentarily; refuse quietly
        }
        if self.client_count >= self.config.max_connections {
            // Typed backpressure, same as the shard acceptor: a Busy
            // frame (best-effort, bounded) and the connection drops.
            self.instruments.busy.inc();
            let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
            let mut s = stream;
            let _ = s.write_all(&wire::encode_frame(opcode::BUSY, 0, &[]));
            return;
        }
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let token = self.alloc(Entry::Client(ClientConn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            last_activity: Instant::now(),
            pending: None,
            upstreams: HashMap::new(),
            close_after_flush: false,
            want_write: false,
        }));
        let fd = match self.entries[token].as_ref() {
            Some(Entry::Client(c)) => c.stream.as_raw_fd(),
            _ => unreachable!(),
        };
        if self.poller.register(fd, token, Interest::READ).is_err() {
            self.entries[token] = None;
            self.pending_free.push(token);
            return;
        }
        self.client_count += 1;
        self.instruments.connections.add(1);
    }

    // -- client side ----------------------------------------------------

    fn client_ready(&mut self, token: usize, readable: bool, writable: bool, error: bool) {
        if error {
            self.close_client(token);
            return;
        }
        if writable && !self.flush_client(token) {
            return;
        }
        if readable {
            let closed = {
                let Some(Entry::Client(c)) = self.entries[token].as_mut() else { return };
                c.last_activity = Instant::now();
                matches!(read_available(&mut c.stream, &mut c.rbuf), ReadStatus::Closed)
            };
            if closed {
                self.close_client(token);
                return;
            }
            self.process_client_rbuf(token);
        }
    }

    /// Parse and dispatch frames while the connection is idle (one
    /// request in flight at a time; pipelined bytes wait their turn).
    fn process_client_rbuf(&mut self, token: usize) {
        loop {
            let parsed = {
                let Some(Entry::Client(c)) = self.entries[token].as_mut() else { return };
                if c.pending.is_some() || c.close_after_flush {
                    return;
                }
                match wire::frame_from_bytes(&mut c.rbuf) {
                    Ok(None) => return,
                    Ok(Some(frame)) => Ok(frame),
                    Err(e) => Err(e),
                }
            };
            match parsed {
                Ok(frame) => self.handle_request(token, frame),
                Err(e) => {
                    self.instruments.malformed.inc();
                    self.respond(token, &Response::Error { code: ErrorCode::Malformed, message: e.to_string() }, 0);
                    self.close_after_flush(token);
                    return;
                }
            }
        }
    }

    fn handle_request(&mut self, token: usize, frame: Frame) {
        self.instruments.requests.inc();
        if self.draining() && frame.opcode() != opcode::SHUTDOWN {
            self.respond(
                token,
                &Response::Error { code: ErrorCode::Draining, message: "router is draining".into() },
                frame.req_id(),
            );
            self.close_after_flush(token);
            return;
        }
        match frame.opcode() {
            opcode::OPEN_SESSION => self.handle_open(token, frame),
            opcode::PUT_ITERATIONS | opcode::RESTART | opcode::SCRUB | opcode::CLOSE_SESSION => {
                self.handle_session_op(token, frame)
            }
            opcode::STATS => self.handle_stats(token, frame),
            opcode::SHUTDOWN => {
                // Drains the *router*; shards are managed independently.
                self.shared.draining.store(true, Ordering::SeqCst);
                self.respond(token, &Response::ShuttingDown, frame.req_id());
                self.close_after_flush(token);
            }
            other => {
                self.instruments.malformed.inc();
                self.respond(
                    token,
                    &Response::Error {
                        code: ErrorCode::Malformed,
                        message: format!("unknown request opcode {other:#x}"),
                    },
                    frame.req_id(),
                );
                self.close_after_flush(token);
            }
        }
    }

    fn handle_open(&mut self, token: usize, frame: Frame) {
        let req_id = frame.req_id();
        let name = match Request::from_frame(&frame) {
            Ok(Request::OpenSession { name }) => name,
            _ => {
                self.instruments.malformed.inc();
                self.respond(
                    token,
                    &Response::Error { code: ErrorCode::Malformed, message: "bad open payload".into() },
                    req_id,
                );
                self.close_after_flush(token);
                return;
            }
        };
        let planned = self.ring.shards_for(&name, self.config.replication.max(1));
        let live: Vec<usize> =
            planned.iter().copied().filter(|&s| self.shared.membership.is_up(s)).collect();
        if live.is_empty() {
            self.respond(
                token,
                &Response::Error { code: ErrorCode::Io, message: "no live shard for session".into() },
                req_id,
            );
            return;
        }
        let sends = live.iter().copied().zip(copies(frame.into_bytes(), live.len())).collect();
        self.start_fanout(token, req_id, PendingKind::Open { name, planned: planned.len() }, sends);
    }

    fn handle_session_op(&mut self, token: usize, frame: Frame) {
        let (op, req_id) = (frame.opcode(), frame.req_id());
        if frame.payload().len() < 8 {
            self.instruments.malformed.inc();
            self.respond(
                token,
                &Response::Error { code: ErrorCode::Malformed, message: "payload too short".into() },
                req_id,
            );
            self.close_after_flush(token);
            return;
        }
        let session = u64::from_le_bytes(frame.payload()[0..8].try_into().expect("8 bytes"));
        let Some(sess) = self.sessions.get(&session) else {
            self.respond(
                token,
                &Response::Error {
                    code: ErrorCode::UnknownSession,
                    message: format!("session {session} is not open on this router"),
                },
                req_id,
            );
            return;
        };
        let live: Vec<(usize, u64)> = sess
            .targets
            .iter()
            .copied()
            .filter(|&(s, _)| self.shared.membership.is_up(s))
            .collect();
        if live.is_empty() {
            self.respond(
                token,
                &Response::Error {
                    code: ErrorCode::Io,
                    message: format!("no live replica for session {session}"),
                },
                req_id,
            );
            return;
        }
        // One resealed copy per replica: `targets` is every live replica,
        // except for a restart, which asks the first and keeps the
        // unpatched frame to fail over down the rest.
        let raw = frame.into_bytes();
        let (kind, targets) = match op {
            opcode::PUT_ITERATIONS => (PendingKind::Put { primary: live[0].0 }, &live[..]),
            opcode::RESTART => (
                PendingKind::Restart { template: raw.clone(), remaining: live[1..].to_vec() },
                &live[..1],
            ),
            opcode::SCRUB => (PendingKind::Scrub { primary: live[0].0 }, &live[..]),
            opcode::CLOSE_SESSION => (PendingKind::Close { session }, &live[..]),
            _ => unreachable!("caller matched session opcodes"),
        };
        let sends = targets
            .iter()
            .zip(copies(raw, targets.len()))
            .map(|(&(shard, sid), mut bytes)| {
                wire::patch_session_id(&mut bytes, sid).expect("session opcode");
                (shard, bytes)
            })
            .collect();
        self.start_fanout(token, req_id, kind, sends);
    }

    fn handle_stats(&mut self, token: usize, frame: Frame) {
        let live: Vec<usize> =
            (0..self.shared.membership.len()).filter(|&s| self.shared.membership.is_up(s)).collect();
        if live.is_empty() {
            self.respond(
                token,
                &Response::Error { code: ErrorCode::Io, message: "no live shard".into() },
                frame.req_id(),
            );
            return;
        }
        let req_id = frame.req_id();
        let sends = live.iter().copied().zip(copies(frame.into_bytes(), live.len())).collect();
        self.start_fanout(token, req_id, PendingKind::Stats, sends);
    }

    // -- fan-out --------------------------------------------------------

    fn start_fanout(
        &mut self,
        token: usize,
        req_id: u64,
        kind: PendingKind,
        sends: Vec<(usize, Vec<u8>)>,
    ) {
        debug_assert!(!sends.is_empty());
        {
            let Some(Entry::Client(c)) = self.entries[token].as_mut() else { return };
            c.pending = Some(Pending {
                req_id,
                awaiting: sends.len(),
                started: Instant::now(),
                results: Vec::with_capacity(sends.len()),
                kind,
            });
        }
        for (shard, bytes) in sends {
            if let Err(msg) = self.forward(token, shard, bytes) {
                self.record_result(token, shard, ShardResult::Failed(msg));
            }
        }
    }

    /// Queue `bytes` on the client's upstream connection to `shard`,
    /// creating it (bounded connect) if needed.
    fn forward(&mut self, token: usize, shard: usize, bytes: Vec<u8>) -> Result<(), String> {
        let existing = {
            let Some(Entry::Client(c)) = self.entries[token].as_mut() else {
                return Err("client gone".into());
            };
            c.upstreams.get(&shard).copied()
        };
        let up_token = match existing.filter(|&t| matches!(self.entries.get(t).and_then(|e| e.as_ref()), Some(Entry::Upstream(_)))) {
            Some(t) => t,
            None => self.connect_upstream(token, shard)?,
        };
        {
            let Some(Entry::Upstream(u)) = self.entries[up_token].as_mut() else {
                return Err("upstream vanished".into());
            };
            enqueue(&mut u.wbuf, bytes);
            u.in_flight = true;
        }
        self.instruments.forwarded.inc();
        self.flush_upstream(up_token);
        Ok(())
    }

    fn connect_upstream(&mut self, client: usize, shard: usize) -> Result<usize, String> {
        let addr = self.shared.membership.addr(shard).to_string();
        let sockaddr = addr
            .to_socket_addrs()
            .ok()
            .and_then(|mut it| it.next())
            .ok_or_else(|| format!("unresolvable shard address {addr}"))?;
        let stream = match TcpStream::connect_timeout(&sockaddr, self.config.connect_timeout) {
            Ok(s) => s,
            Err(e) => {
                if self.shared.membership.report_failure(shard) {
                    self.shared.membership.record_transition(shard, &self.shared.health);
                }
                return Err(format!("connect {addr}: {e}"));
            }
        };
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        let _ = stream.set_nodelay(true);
        let up_token = self.alloc(Entry::Upstream(UpstreamConn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            shard,
            client,
            in_flight: false,
            want_write: false,
        }));
        let fd = match self.entries[up_token].as_ref() {
            Some(Entry::Upstream(u)) => u.stream.as_raw_fd(),
            _ => unreachable!(),
        };
        if self.poller.register(fd, up_token, Interest::READ).is_err() {
            self.entries[up_token] = None;
            self.pending_free.push(up_token);
            return Err("poller registration failed".into());
        }
        if let Some(Entry::Client(c)) = self.entries[client].as_mut() {
            c.upstreams.insert(shard, up_token);
        }
        Ok(up_token)
    }

    fn record_result(&mut self, client: usize, shard: usize, result: ShardResult) {
        let finalize = {
            let Some(Entry::Client(c)) = self.entries.get_mut(client).and_then(|e| e.as_mut()) else {
                return;
            };
            let Some(p) = c.pending.as_mut() else { return };
            if let ShardResult::Frame(f) = &result {
                if f.opcode() != opcode::BUSY && f.req_id() != p.req_id {
                    return; // stale response from a superseded request
                }
            }
            p.results.push((shard, result));
            p.awaiting = p.awaiting.saturating_sub(1);
            p.awaiting == 0
        };
        if finalize {
            self.finalize(client);
        }
    }

    fn finalize(&mut self, token: usize) {
        let pending = {
            let Some(Entry::Client(c)) = self.entries[token].as_mut() else { return };
            match c.pending.take() {
                Some(p) => p,
                None => return,
            }
        };
        let req_id = pending.req_id;
        match pending.kind {
            PendingKind::Open { name, planned } => {
                let resp = self.finish_open(name, planned, &pending.results);
                self.respond(token, &resp, req_id);
            }
            PendingKind::Put { primary } => self.finish_put(token, req_id, primary, pending.results),
            PendingKind::Restart { template, remaining } => {
                self.finish_restart(token, req_id, template, remaining, pending.results);
            }
            PendingKind::Scrub { primary } => {
                let resp = finish_scrub(primary, &pending.results);
                self.respond(token, &resp, req_id);
            }
            PendingKind::Stats => {
                let resp = self.finish_stats(&pending.results);
                self.respond(token, &resp, req_id);
            }
            PendingKind::Close { session } => {
                let resp = self.finish_close(session, &pending.results);
                self.respond(token, &resp, req_id);
            }
        }
        if self.draining() {
            self.close_after_flush(token);
        } else {
            self.process_client_rbuf(token);
        }
    }

    fn finish_open(&mut self, name: String, planned: usize, results: &[(usize, ShardResult)]) -> Response {
        let mut successes: Vec<(usize, u64)> = Vec::new();
        for (shard, r) in results {
            if let ShardResult::Frame(f) = r {
                if f.opcode() == opcode::SESSION_OPENED {
                    if let Ok(Response::SessionOpened { session }) = Response::from_frame(f) {
                        successes.push((*shard, session));
                    }
                }
            }
        }
        if successes.is_empty() {
            return error_response_from(results);
        }
        if successes.len() < planned {
            self.instruments.degraded_opens.inc();
        }
        let plan = self.ring.shards_for(&name, self.config.replication.max(1));
        let gid = *self.by_name.entry(name.clone()).or_insert_with(|| {
            let id = self.next_session;
            self.next_session += 1;
            id
        });
        let entry = self
            .sessions
            .entry(gid)
            .or_insert_with(|| GatewaySession { name, targets: Vec::new() });
        for (shard, sid) in successes {
            match entry.targets.iter_mut().find(|(s, _)| *s == shard) {
                Some(t) => t.1 = sid,
                None => entry.targets.push((shard, sid)),
            }
        }
        entry
            .targets
            .sort_by_key(|(s, _)| plan.iter().position(|p| p == s).unwrap_or(usize::MAX));
        self.instruments.open_sessions.set(self.sessions.len() as i64);
        Response::SessionOpened { session: gid }
    }

    fn finish_put(&mut self, token: usize, req_id: u64, primary: usize, results: Vec<(usize, ShardResult)>) {
        for (shard, r) in &results {
            let ok = matches!(r, ShardResult::Frame(f) if f.opcode() == opcode::PUT_DONE);
            if *shard != primary && !ok {
                self.instruments.replica_put_failures.inc();
            }
        }
        // The primary's ack is the client's ack; a replica ack stands
        // in when the primary died mid-batch (the data is durable on
        // the replica — that is what replication is for). Either goes
        // back verbatim: its request id echoes the forwarded request.
        let primary_frame = results.iter().find_map(|(s, r)| match r {
            ShardResult::Frame(f) if *s == primary => Some(f),
            _ => None,
        });
        match primary_frame {
            Some(f) if f.opcode() == opcode::PUT_DONE => {
                self.queue_bytes(token, f.as_bytes().to_vec());
            }
            other => {
                let replica_ack = results.iter().find_map(|(s, r)| match r {
                    ShardResult::Frame(f) if *s != primary && f.opcode() == opcode::PUT_DONE => Some(f),
                    _ => None,
                });
                if let Some(f) = replica_ack {
                    self.instruments.failovers.inc();
                    self.queue_bytes(token, f.as_bytes().to_vec());
                } else if let Some(f) = other {
                    // Primary answered with a typed error: forward it.
                    self.queue_bytes(token, f.as_bytes().to_vec());
                } else {
                    let resp = error_response_from(&results);
                    self.respond(token, &resp, req_id);
                }
            }
        }
    }

    fn finish_restart(
        &mut self,
        token: usize,
        req_id: u64,
        template: Vec<u8>,
        mut remaining: Vec<(usize, u64)>,
        mut results: Vec<(usize, ShardResult)>,
    ) {
        let success = results.iter().position(|(_, r)| {
            matches!(r, ShardResult::Frame(f) if f.opcode() != opcode::ERROR && f.opcode() != opcode::BUSY)
        });
        if let Some(i) = success {
            // The restart data goes back verbatim, without a copy.
            let ShardResult::Frame(f) = results.swap_remove(i).1 else { unreachable!("matched a frame") };
            self.queue_bytes(token, f.into_bytes());
            return;
        }
        if !remaining.is_empty() {
            // Fail over to the next replica with the same request.
            let (shard, sid) = remaining.remove(0);
            self.instruments.failovers.inc();
            let mut bytes = template.clone();
            let _ = wire::patch_session_id(&mut bytes, sid);
            {
                let Some(Entry::Client(c)) = self.entries[token].as_mut() else { return };
                c.pending = Some(Pending {
                    req_id,
                    awaiting: 1,
                    started: Instant::now(),
                    results: Vec::new(),
                    kind: PendingKind::Restart { template, remaining },
                });
            }
            if let Err(msg) = self.forward(token, shard, bytes) {
                self.record_result(token, shard, ShardResult::Failed(msg));
            }
            return;
        }
        let resp = error_response_from(&results);
        self.respond(token, &resp, req_id);
    }

    fn finish_stats(&mut self, results: &[(usize, ShardResult)]) -> Response {
        let mut replies: Vec<StatsReply> = Vec::new();
        for (_, r) in results {
            if let ShardResult::Frame(f) = r {
                if f.opcode() == opcode::STATS_DATA {
                    if let Ok(Response::StatsData(s)) = Response::from_frame(f) {
                        replies.push(*s);
                    }
                }
            }
        }
        if replies.is_empty() {
            return error_response_from(results);
        }
        let by_name = &self.by_name;
        let merged = stats::aggregate(&replies, |name| by_name.get(name).copied(), self.draining());
        Response::StatsData(Box::new(merged))
    }

    fn finish_close(&mut self, session: u64, results: &[(usize, ShardResult)]) -> Response {
        let any_closed = results
            .iter()
            .any(|(_, r)| matches!(r, ShardResult::Frame(f) if f.opcode() == opcode::SESSION_CLOSED));
        if !any_closed {
            return error_response_from(results);
        }
        if let Some(sess) = self.sessions.remove(&session) {
            self.by_name.remove(&sess.name);
        }
        self.instruments.open_sessions.set(self.sessions.len() as i64);
        Response::SessionClosed
    }

    // -- upstream side --------------------------------------------------

    fn upstream_ready(&mut self, token: usize, readable: bool, writable: bool, error: bool) {
        if error {
            self.upstream_failed(token, "socket error");
            return;
        }
        if writable && !self.flush_upstream(token) {
            return;
        }
        if readable {
            let closed = {
                let Some(Entry::Upstream(u)) = self.entries[token].as_mut() else { return };
                matches!(read_available(&mut u.stream, &mut u.rbuf), ReadStatus::Closed)
            };
            // Parse what arrived before acting on EOF: a shard may
            // answer and close in one burst (Busy does exactly that).
            loop {
                let parsed = {
                    let Some(Entry::Upstream(u)) = self.entries[token].as_mut() else { return };
                    wire::frame_from_bytes(&mut u.rbuf)
                };
                match parsed {
                    Ok(Some(frame)) => self.on_upstream_frame(token, frame),
                    Ok(None) => break,
                    Err(_) => {
                        self.upstream_failed(token, "malformed response from shard");
                        return;
                    }
                }
            }
            if closed {
                self.upstream_failed(token, "shard closed the connection");
            }
        }
    }

    fn on_upstream_frame(&mut self, token: usize, frame: Frame) {
        let (client, shard, busy) = {
            let Some(Entry::Upstream(u)) = self.entries[token].as_mut() else { return };
            u.in_flight = false;
            (u.client, u.shard, frame.opcode() == opcode::BUSY)
        };
        if busy {
            // The shard's acceptor is saturated and will close on us;
            // tear the upstream down and surface the typed signal.
            self.drop_upstream_quiet(token);
            self.record_result(client, shard, ShardResult::Busy);
            return;
        }
        if self.shared.membership.report_success(shard) {
            self.shared.membership.record_transition(shard, &self.shared.health);
        }
        self.record_result(client, shard, ShardResult::Frame(frame));
    }

    fn upstream_failed(&mut self, token: usize, msg: &str) {
        if !matches!(self.entries.get(token).and_then(|e| e.as_ref()), Some(Entry::Upstream(_))) {
            return;
        }
        let Some(Entry::Upstream(u)) = self.entries[token].take() else { unreachable!() };
        let _ = self.poller.deregister(u.stream.as_raw_fd());
        self.pending_free.push(token);
        if let Some(Entry::Client(c)) = self.entries.get_mut(u.client).and_then(|e| e.as_mut()) {
            c.upstreams.remove(&u.shard);
        }
        if self.shared.membership.report_failure(u.shard) {
            self.shared.membership.record_transition(u.shard, &self.shared.health);
        }
        if u.in_flight {
            self.record_result(u.client, u.shard, ShardResult::Failed(msg.to_string()));
        }
    }

    /// Tear down an upstream without a health report or pending result
    /// (Busy handling and client teardown record their own outcomes).
    fn drop_upstream_quiet(&mut self, token: usize) {
        if !matches!(self.entries.get(token).and_then(|e| e.as_ref()), Some(Entry::Upstream(_))) {
            return;
        }
        let Some(Entry::Upstream(u)) = self.entries[token].take() else { unreachable!() };
        let _ = self.poller.deregister(u.stream.as_raw_fd());
        self.pending_free.push(token);
        if let Some(Entry::Client(c)) = self.entries.get_mut(u.client).and_then(|e| e.as_mut()) {
            c.upstreams.remove(&u.shard);
        }
    }

    // -- plumbing -------------------------------------------------------

    fn respond(&mut self, token: usize, resp: &Response, req_id: u64) {
        // Busy travels with request id 0, matching the shard acceptor
        // (the client exempts Busy from its id-echo check).
        let (req_id, is_busy) = match resp {
            Response::Busy => (0, true),
            _ => (req_id, false),
        };
        if is_busy {
            self.instruments.busy.inc();
        }
        self.queue_bytes(token, wire::encode_frame(resp.opcode(), req_id, &resp.payload()));
    }

    fn queue_bytes(&mut self, token: usize, bytes: Vec<u8>) {
        {
            let Some(Entry::Client(c)) = self.entries[token].as_mut() else { return };
            enqueue(&mut c.wbuf, bytes);
            c.last_activity = Instant::now();
        }
        self.flush_client(token);
    }

    fn close_after_flush(&mut self, token: usize) {
        let flushed = {
            let Some(Entry::Client(c)) = self.entries[token].as_mut() else { return };
            c.close_after_flush = true;
            c.wpos >= c.wbuf.len()
        };
        if flushed {
            self.close_client(token);
        }
    }

    /// Returns false if the connection was closed.
    fn flush_client(&mut self, token: usize) -> bool {
        let (outcome, close_after) = {
            let Some(Entry::Client(c)) = self.entries[token].as_mut() else { return false };
            (flush_buf(&mut c.stream, &mut c.wbuf, &mut c.wpos), c.close_after_flush)
        };
        match outcome {
            FlushOutcome::Failed => {
                self.close_client(token);
                false
            }
            FlushOutcome::Done if close_after => {
                self.close_client(token);
                false
            }
            _ => {
                self.refresh_interest(token);
                true
            }
        }
    }

    /// Returns false if the upstream died.
    fn flush_upstream(&mut self, token: usize) -> bool {
        let outcome = {
            let Some(Entry::Upstream(u)) = self.entries[token].as_mut() else { return false };
            flush_buf(&mut u.stream, &mut u.wbuf, &mut u.wpos)
        };
        match outcome {
            FlushOutcome::Failed => {
                self.upstream_failed(token, "write to shard failed");
                false
            }
            _ => {
                self.refresh_interest(token);
                true
            }
        }
    }

    fn refresh_interest(&mut self, token: usize) {
        let (fd, want, registered) = match self.entries[token].as_mut() {
            Some(Entry::Client(c)) => (c.stream.as_raw_fd(), c.wpos < c.wbuf.len(), &mut c.want_write),
            Some(Entry::Upstream(u)) => (u.stream.as_raw_fd(), u.wpos < u.wbuf.len(), &mut u.want_write),
            None => return,
        };
        if want != *registered {
            *registered = want;
            let interest = if want { Interest::READ_WRITE } else { Interest::READ };
            let _ = self.poller.reregister(fd, token, interest);
        }
    }

    fn close_client(&mut self, token: usize) {
        if !matches!(self.entries.get(token).and_then(|e| e.as_ref()), Some(Entry::Client(_))) {
            return;
        }
        let Some(Entry::Client(c)) = self.entries[token].take() else { unreachable!() };
        let _ = self.poller.deregister(c.stream.as_raw_fd());
        self.pending_free.push(token);
        for (_, up) in c.upstreams {
            self.drop_upstream_quiet(up);
        }
        self.client_count -= 1;
        self.instruments.connections.add(-1);
    }

    // -- maintenance ----------------------------------------------------

    fn begin_drain(&mut self) {
        if let Some(l) = self.listener.take() {
            let _ = self.poller.deregister(l.as_raw_fd());
            drop(l);
            // Idle connections have nothing to wait for.
            let idle: Vec<usize> = self
                .entries
                .iter()
                .enumerate()
                .filter_map(|(t, e)| match e {
                    Some(Entry::Client(c)) if c.pending.is_none() && c.wpos >= c.wbuf.len() => Some(t),
                    _ => None,
                })
                .collect();
            for t in idle {
                self.close_client(t);
            }
        }
    }

    fn sweep(&mut self) {
        enum Action {
            Idle,
            StuckRequest,
        }
        let now = Instant::now();
        let timeout = self.config.idle_timeout;
        let actions: Vec<(usize, Action)> = self
            .entries
            .iter()
            .enumerate()
            .filter_map(|(t, e)| match e {
                Some(Entry::Client(c)) => match &c.pending {
                    Some(p) if now.duration_since(p.started) > timeout => {
                        Some((t, Action::StuckRequest))
                    }
                    None if now.duration_since(c.last_activity) > timeout => Some((t, Action::Idle)),
                    _ => None,
                },
                _ => None,
            })
            .collect();
        for (t, action) in actions {
            match action {
                Action::Idle => {
                    self.instruments.idle_disconnects.inc();
                    self.close_client(t);
                }
                Action::StuckRequest => {
                    // A shard accepted the request and never answered;
                    // the upstream's state is unknowable, so answer the
                    // client with a typed error and drop the lot.
                    if let Some(Entry::Client(c)) = self.entries[t].as_mut() {
                        c.pending = None;
                    }
                    self.respond(
                        t,
                        &Response::Error { code: ErrorCode::Io, message: "shard timed out".into() },
                        0,
                    );
                    self.close_after_flush(t);
                }
            }
        }
    }
}
