//! The gateway/router: one thread per client connection, fronting N
//! `numarck-serve` shards.
//!
//! The router speaks the existing versioned CRC wire protocol on both
//! sides, so a stock pre-router client works unchanged: it connects,
//! opens a session, ingests, restarts — and the router decides *where*
//! that work lands.
//!
//! ## Structure
//!
//! An accept loop (`ncl-acceptor`) hands each client connection to a
//! thread of its own (`ncl-conn`), at most `max_connections` at once;
//! past the cap a client is told a typed `Busy` and dropped. A
//! connection thread runs numarck-serve's per-connection frame loop
//! ([`serve_connection`]), so idle disconnects, drain, the per-frame
//! deadline and the `Malformed` answer to an unreadable frame follow
//! the same rules on the router as on a shard. Each request is answered
//! over blocking sockets: the frame is written to every target shard,
//! then each reply is read, all under `idle_timeout`.
//!
//! Upstream connections are per `(client, shard)`, opened lazily with a
//! bounded connect and dropped with the client (or as soon as one
//! fails); one the shard hung up on while idle is reopened before the
//! next write. A shard's `Busy` or an I/O failure feeds the health table,
//! so real traffic marks a dead shard down faster than the prober's
//! next round. The gateway session table sits behind one mutex, held
//! for lookups and updates only and never across socket I/O, so a shard
//! that stops answering stalls only the clients waiting on it.
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
//!   list on error/busy/death/timeout — the acceptance path for
//!   surviving a primary SIGKILL.
//! * `Scrub` fans out to all live targets (each shard runs its own
//!   scrub→quarantine→read-repair machinery) and the reports merge.
//! * `Stats` fans out to every live shard and folds into one reply
//!   ([`crate::stats::aggregate`]).
//!
//! A client frame is CRC-checked once, when it is read. Its verified
//! bytes are then forwarded as they are: each replica gets the same
//! buffer with the session id in the first 8 payload bytes patched to
//! that shard's id and the CRC resealed ([`wire::patch_session_id`])
//! just before its write. The payload itself is never decoded on
//! the ingest path. Shard responses whose request id already echoes
//! the forwarded request (put acks, restart data) go back to the client
//! verbatim; only merged replies (open, scrub, stats, close) are
//! encoded by the router.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use numarck_obs::{Counter, Gauge, Registry, Snapshot};
use numarck_serve::server::{
    accept_until_drain, join_accept_loop, reject_busy, serve_connection, ConnectionEnd,
};
use numarck_serve::wire::{self, opcode, ErrorCode, Frame, Request, Response, StatsReply};

use crate::health::{spawn_prober, HealthInstruments, Membership, ProberConfig};
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
    /// deadline for a started client frame to arrive whole and for a
    /// shard to take a forwarded request and answer it.
    pub idle_timeout: Duration,
    /// Bounded upstream connect (kept short; down shards are skipped
    /// entirely).
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

/// State shared by the accept loop, every connection thread and the
/// handle.
struct Shared {
    config: RouterConfig,
    ring: HashRing,
    registry: Registry,
    instruments: Instruments,
    membership: Arc<Membership>,
    health: Arc<HealthInstruments>,
    draining: AtomicBool,
    sessions: Mutex<Sessions>,
}

/// The gateway session table.
#[derive(Default)]
struct Sessions {
    by_id: HashMap<u64, GatewaySession>,
    by_name: HashMap<String, u64>,
    /// The last gateway id handed out (ids start at 1).
    last_id: u64,
}

struct GatewaySession {
    name: String,
    /// `(shard, shard-local session id)` in ring-plan order.
    targets: Vec<(usize, u64)>,
}

impl Shared {
    fn metrics_snapshot(&self) -> Snapshot {
        let mut snap = Registry::global().snapshot();
        snap.merge(self.registry.snapshot());
        snap
    }

    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Ring placement for a session name, primary first.
    fn plan(&self, name: &str) -> Vec<usize> {
        self.ring.shards_for(name, self.config.replication.max(1))
    }

    /// Feed one interaction with `shard` into the health table.
    fn report(&self, shard: usize, ok: bool) {
        let transitioned = if ok {
            self.membership.report_success(shard)
        } else {
            self.membership.report_failure(shard)
        };
        if transitioned {
            self.membership.record_transition(shard, &self.health);
        }
    }

    /// Open a blocking upstream connection to `shard` (bounded connect),
    /// with `idle_timeout` as its read and write deadline.
    fn connect(&self, shard: usize) -> Result<TcpStream, String> {
        let addr = self.membership.addr(shard);
        let sockaddr = addr
            .to_socket_addrs()
            .ok()
            .and_then(|mut it| it.next())
            .ok_or_else(|| format!("unresolvable shard address {addr}"))?;
        let stream =
            TcpStream::connect_timeout(&sockaddr, self.config.connect_timeout).map_err(|e| {
                self.report(shard, false);
                format!("connect {addr}: {e}")
            })?;
        let deadline = Some(self.config.idle_timeout);
        stream
            .set_read_timeout(deadline)
            .and_then(|()| stream.set_write_timeout(deadline))
            .map_err(|e| e.to_string())?;
        let _ = stream.set_nodelay(true);
        Ok(stream)
    }

    /// The wire bytes that answer the client. Busy travels with request
    /// id 0, matching the shard acceptor (the client exempts Busy from
    /// its id-echo check).
    fn reply_bytes(&self, reply: Reply, req_id: u64) -> Vec<u8> {
        match reply {
            Reply::Verbatim(frame) => frame.into_bytes(),
            Reply::Encode(resp) => {
                let req_id = if matches!(resp, Response::Busy) {
                    self.instruments.busy.inc();
                    0
                } else {
                    req_id
                };
                resp.to_frame(req_id)
            }
        }
    }

    /// Record the shards that opened a session under the gateway id for
    /// its name (allocated on first open).
    fn finish_open(
        &self,
        name: String,
        plan: &[usize],
        results: &[(usize, ShardResult)],
    ) -> Response {
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
        if successes.len() < plan.len() {
            self.instruments.degraded_opens.inc();
        }
        let mut table = self.sessions.lock().expect("sessions lock");
        let table = &mut *table;
        let gid = *table.by_name.entry(name.clone()).or_insert_with(|| {
            table.last_id += 1;
            table.last_id
        });
        let entry = table.by_id.entry(gid).or_insert_with(|| GatewaySession {
            name,
            targets: Vec::new(),
        });
        for (shard, sid) in successes {
            match entry.targets.iter_mut().find(|(s, _)| *s == shard) {
                Some(t) => t.1 = sid,
                None => entry.targets.push((shard, sid)),
            }
        }
        entry
            .targets
            .sort_by_key(|(s, _)| plan.iter().position(|p| p == s).unwrap_or(usize::MAX));
        self.instruments.open_sessions.set(table.by_id.len() as i64);
        Response::SessionOpened { session: gid }
    }

    fn finish_stats(&self, results: &[(usize, ShardResult)]) -> Response {
        let mut replies: Vec<StatsReply> = Vec::new();
        for (_, r) in results {
            // A reply that does not decode (torn, or from a peer of
            // another build) is dropped from the fold, not forwarded.
            if let ShardResult::Frame(f) = r {
                if let Ok(Response::StatsData(s)) = Response::from_frame(f) {
                    replies.push(*s);
                }
            }
        }
        if replies.is_empty() {
            return error_response_from(results);
        }
        let table = self.sessions.lock().expect("sessions lock");
        let merged = stats::aggregate(
            &replies,
            |name| table.by_name.get(name).copied(),
            self.draining(),
        );
        Response::StatsData(Box::new(merged))
    }

    fn finish_close(&self, session: u64, results: &[(usize, ShardResult)]) -> Response {
        let any_closed = results.iter().any(
            |(_, r)| matches!(r, ShardResult::Frame(f) if f.opcode() == opcode::SESSION_CLOSED),
        );
        if !any_closed {
            return error_response_from(results);
        }
        let mut table = self.sessions.lock().expect("sessions lock");
        if let Some(sess) = table.by_id.remove(&session) {
            table.by_name.remove(&sess.name);
        }
        self.instruments.open_sessions.set(table.by_id.len() as i64);
        Response::SessionClosed
    }
}

/// Handle to a spawned router. Dropping it does *not* stop the router;
/// call [`Self::shutdown`] (or [`Self::trigger_drain`] + [`Self::join`]).
pub struct RouterHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: thread::JoinHandle<()>,
    prober: thread::JoinHandle<()>,
    prober_stop: Arc<AtomicBool>,
}

impl RouterHandle {
    /// The bound listen address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared shard-health table.
    pub fn membership(&self) -> &Membership {
        &self.shared.membership
    }

    /// Ring placement for a session name, primary first — pure ring
    /// arithmetic, so tests and operators can predict where a session
    /// lands without asking the shards.
    pub fn plan(&self, name: &str) -> Vec<usize> {
        self.shared.plan(name)
    }

    /// Ask the router to drain: refuse new connections, finish
    /// in-flight requests, exit once the last client is gone.
    pub fn trigger_drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
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

    /// Block until the accept loop and every connection thread have
    /// exited (requires a drain trigger), then stop the prober.
    pub fn join(self) {
        join_accept_loop(self.acceptor, self.addr, &self.shared.draining);
        self.prober_stop.store(true, Ordering::SeqCst);
        let _ = self.prober.join();
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
    /// Bind `addr`, spawn the accept loop and the health prober, and
    /// return a handle. Fails fast on an empty shard list or a bind
    /// error; shard reachability is a health matter, not a spawn error.
    pub fn spawn(addr: impl ToSocketAddrs, config: RouterConfig) -> io::Result<RouterHandle> {
        if config.shards.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "router needs at least one shard",
            ));
        }
        let listener = TcpListener::bind(addr)?;
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
        let membership = Arc::new(Membership::new(
            config.shards.clone(),
            config.markdown_after,
        ));
        let prober_stop = Arc::new(AtomicBool::new(false));
        let prober = spawn_prober(
            Arc::clone(&membership),
            Arc::clone(&health),
            ProberConfig {
                interval: config.probe_interval,
                timeout: config.probe_timeout,
            },
            Arc::clone(&prober_stop),
        );
        let shared = Arc::new(Shared {
            ring: HashRing::new(config.shards.len(), config.vnodes),
            config,
            registry,
            instruments,
            membership,
            health,
            draining: AtomicBool::new(false),
            sessions: Mutex::new(Sessions::default()),
        });

        let acceptor = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("ncl-acceptor".into())
                .spawn(move || accept_loop(listener, &shared))?
        };
        Ok(RouterHandle {
            addr: local,
            shared,
            acceptor,
            prober,
            prober_stop,
        })
    }
}

// ---------------------------------------------------------------------
// Connection threads
// ---------------------------------------------------------------------

/// How long a client refused at the connection cap may take to receive
/// its `Busy` frame.
const BUSY_WRITE_TIMEOUT: Duration = Duration::from_millis(100);

/// Hand each client connection to its own thread until drain; then
/// close the listener and wait for the connection threads to finish.
fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    let mut threads: Vec<thread::JoinHandle<()>> = Vec::new();
    let live = &shared.instruments.connections;
    accept_until_drain(&listener, &shared.draining, |stream| {
        threads.retain(|t| !t.is_finished());
        if live.get() >= shared.config.max_connections as i64 {
            // Typed backpressure, same as the shard acceptor.
            shared.instruments.busy.inc();
            reject_busy(stream, BUSY_WRITE_TIMEOUT);
            return true;
        }
        live.inc();
        let conn_shared = Arc::clone(shared);
        match thread::Builder::new()
            .name("ncl-conn".into())
            .spawn(move || serve_client(stream, &conn_shared))
        {
            Ok(t) => threads.push(t),
            Err(_) => live.dec(),
        }
        true
    });
    drop(listener);
    for t in threads {
        let _ = t.join();
    }
}

/// One client connection, served to completion on its own thread.
fn serve_client(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    let mut conn = ClientConn {
        shared,
        upstreams: HashMap::new(),
    };
    let timeout = shared.config.idle_timeout;
    let end = serve_connection(&mut stream, timeout, timeout, &shared.draining, |frame| {
        conn.answer(frame)
    });
    match end {
        ConnectionEnd::Idle => shared.instruments.idle_disconnects.inc(),
        ConnectionEnd::Unreadable => shared.instruments.malformed.inc(),
        ConnectionEnd::Done => {}
    }
    shared.instruments.connections.dec();
}

/// One shard's contribution to a fan-out.
enum ShardResult {
    /// A complete response frame.
    Frame(Frame),
    /// The shard's acceptor answered `Busy`.
    Busy,
    /// Connect/write/read failed before a response arrived.
    Failed(String),
}

/// What goes back to the client.
enum Reply {
    /// A shard's response exactly as it arrived: its request id already
    /// echoes the forwarded request.
    Verbatim(Frame),
    /// A response the router encodes under the client's request id.
    Encode(Response),
}

fn io_error(message: impl Into<String>) -> Reply {
    Reply::Encode(Response::Error {
        code: ErrorCode::Io,
        message: message.into(),
    })
}

/// A client connection's state: its upstream connections.
struct ClientConn<'a> {
    shared: &'a Shared,
    /// shard index → this client's connection to it, opened on first use.
    upstreams: HashMap<usize, TcpStream>,
}

impl ClientConn<'_> {
    /// Answer one CRC-valid client frame: the response bytes and whether
    /// to close the connection after them.
    fn answer(&mut self, frame: Frame) -> (Vec<u8>, bool) {
        let shared = self.shared;
        shared.instruments.requests.inc();
        let req_id = frame.req_id();
        let (reply, close_after) = if shared.draining() && frame.opcode() != opcode::SHUTDOWN {
            let resp = Response::Error {
                code: ErrorCode::Draining,
                message: "router is draining".into(),
            };
            (Ok(Reply::Encode(resp)), true)
        } else {
            match frame.opcode() {
                opcode::OPEN_SESSION => (self.open(frame), false),
                opcode::PUT_ITERATIONS
                | opcode::RESTART
                | opcode::SCRUB
                | opcode::CLOSE_SESSION => (self.session_op(frame), false),
                opcode::STATS => (Ok(self.stats(frame)), false),
                opcode::SHUTDOWN => {
                    // Drains the *router*; shards are managed independently.
                    shared.draining.store(true, Ordering::SeqCst);
                    (Ok(Reply::Encode(Response::ShuttingDown)), true)
                }
                other => (Err(format!("unknown request opcode {other:#x}")), true),
            }
        };
        match reply {
            Ok(reply) => (shared.reply_bytes(reply, req_id), close_after),
            Err(message) => {
                // The request is unusable; the stream may not be either.
                shared.instruments.malformed.inc();
                let resp = Response::Error {
                    code: ErrorCode::Malformed,
                    message,
                };
                (shared.reply_bytes(Reply::Encode(resp), req_id), true)
            }
        }
    }

    /// `OpenSession` fans out to the ring's first `replication` live
    /// shards. `Err` is a malformed request.
    fn open(&mut self, frame: Frame) -> Result<Reply, String> {
        let Ok(Request::OpenSession { name }) = Request::from_frame(&frame) else {
            return Err("bad open payload".into());
        };
        let shared = self.shared;
        let plan = shared.plan(&name);
        let live: Vec<(usize, Option<u64>)> = plan
            .iter()
            .filter(|&&s| shared.membership.is_up(s))
            .map(|&s| (s, None))
            .collect();
        if live.is_empty() {
            return Ok(io_error("no live shard for session"));
        }
        let results = self.fan_out(&mut frame.into_bytes(), &live);
        Ok(Reply::Encode(shared.finish_open(name, &plan, &results)))
    }

    /// Requests that carry a gateway session id go to that session's
    /// live replicas, each under its own shard-local id. `Err` is a
    /// malformed request.
    fn session_op(&mut self, frame: Frame) -> Result<Reply, String> {
        let shared = self.shared;
        let Some(id) = frame.payload().get(..8) else {
            return Err("payload too short".into());
        };
        let session = u64::from_le_bytes(id.try_into().expect("8 bytes"));
        let targets = shared
            .sessions
            .lock()
            .expect("sessions lock")
            .by_id
            .get(&session)
            .map(|s| s.targets.clone());
        let Some(targets) = targets else {
            return Ok(Reply::Encode(Response::Error {
                code: ErrorCode::UnknownSession,
                message: format!("session {session} is not open on this router"),
            }));
        };
        let live: Vec<(usize, Option<u64>)> = targets
            .into_iter()
            .filter(|&(s, _)| shared.membership.is_up(s))
            .map(|(s, sid)| (s, Some(sid)))
            .collect();
        let Some(&(primary, _)) = live.first() else {
            return Ok(io_error(format!("no live replica for session {session}")));
        };
        let op = frame.opcode();
        let mut bytes = frame.into_bytes();
        Ok(match op {
            opcode::PUT_ITERATIONS => finish_put(
                primary,
                self.fan_out(&mut bytes, &live),
                &shared.instruments,
            ),
            opcode::RESTART => {
                // Ask the replicas one at a time, in ring order, failing
                // over down the list until one has the data.
                let mut results = Vec::new();
                for (i, target) in live.iter().enumerate() {
                    if i > 0 {
                        shared.instruments.failovers.inc();
                    }
                    results.extend(self.fan_out(&mut bytes, std::slice::from_ref(target)));
                    if results.last().is_some_and(|(_, r)| is_restart_data(r)) {
                        break;
                    }
                }
                finish_restart(results)
            }
            opcode::SCRUB => Reply::Encode(finish_scrub(primary, &self.fan_out(&mut bytes, &live))),
            opcode::CLOSE_SESSION => {
                Reply::Encode(shared.finish_close(session, &self.fan_out(&mut bytes, &live)))
            }
            _ => unreachable!("caller matched session opcodes"),
        })
    }

    /// `Stats` fans out to every live shard and folds the replies.
    fn stats(&mut self, frame: Frame) -> Reply {
        let shared = self.shared;
        let live: Vec<(usize, Option<u64>)> = (0..shared.membership.len())
            .filter(|&s| shared.membership.is_up(s))
            .map(|s| (s, None))
            .collect();
        if live.is_empty() {
            return io_error("no live shard");
        }
        Reply::Encode(shared.finish_stats(&self.fan_out(&mut frame.into_bytes(), &live)))
    }

    /// Write the frame `bytes` to every target shard, then read each
    /// one's reply. A target with a shard-local session id gets the
    /// frame under that id, patched in place and resealed just before
    /// its write.
    fn fan_out(
        &mut self,
        bytes: &mut [u8],
        targets: &[(usize, Option<u64>)],
    ) -> Vec<(usize, ShardResult)> {
        let mut results = Vec::with_capacity(targets.len());
        let mut sent = Vec::with_capacity(targets.len());
        for &(shard, sid) in targets {
            if let Some(sid) = sid {
                wire::patch_session_id(bytes, sid).expect("session opcode");
            }
            match self.send(shard, bytes) {
                Ok(()) => sent.push(shard),
                Err(msg) => results.push((shard, ShardResult::Failed(msg))),
            }
        }
        for shard in sent {
            let result = self.receive(shard);
            results.push((shard, result));
        }
        results
    }

    /// Write one frame to `shard`, opening the connection if needed.
    fn send(&mut self, shard: usize, bytes: &[u8]) -> Result<(), String> {
        // A shard hangs up on a connection idle past its own idle
        // timeout: open a new one rather than forward into the old.
        if self.upstreams.get(&shard).is_some_and(hung_up) {
            self.upstreams.remove(&shard);
        }
        let stream = match self.upstreams.entry(shard) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(self.shared.connect(shard)?),
        };
        self.shared.instruments.forwarded.inc();
        stream
            .write_all(bytes)
            .map_err(|e| self.upstream_failed(shard, &e))
    }

    /// Read `shard`'s reply to the frame just sent to it.
    fn receive(&mut self, shard: usize) -> ShardResult {
        let stream = self
            .upstreams
            .get_mut(&shard)
            .expect("sent on this upstream");
        match wire::read_frame(stream) {
            Ok(frame) if frame.opcode() == opcode::BUSY => {
                // The shard's acceptor is saturated and closes on us;
                // drop the upstream and surface the typed signal.
                self.upstreams.remove(&shard);
                ShardResult::Busy
            }
            Ok(frame) => {
                self.shared.report(shard, true);
                ShardResult::Frame(frame)
            }
            Err(e) => ShardResult::Failed(self.upstream_failed(shard, &e)),
        }
    }

    /// Drop a failed upstream (its stream is no longer frame-aligned),
    /// report the failure to the health table and describe it.
    fn upstream_failed(&mut self, shard: usize, e: &io::Error) -> String {
        self.upstreams.remove(&shard);
        self.shared.report(shard, false);
        match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => "shard timed out".into(),
            io::ErrorKind::UnexpectedEof => "shard closed the connection".into(),
            io::ErrorKind::InvalidData => "malformed response from shard".into(),
            _ => format!("shard connection failed: {e}"),
        }
    }
}

/// Whether an idle upstream can no longer carry a request: a
/// non-blocking peek finds the shard's end of stream (or stray bytes, or
/// an error) instead of nothing to read yet.
fn hung_up(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return true;
    }
    let idle =
        matches!(stream.peek(&mut [0u8; 1]), Err(e) if e.kind() == io::ErrorKind::WouldBlock);
    stream.set_nonblocking(false).is_err() || !idle
}

// ---------------------------------------------------------------------
// Reply rules
// ---------------------------------------------------------------------

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
    Response::Error {
        code: ErrorCode::Io,
        message: format!("cluster: {detail}"),
    }
}

/// The primary's ack is the client's ack; a replica ack stands in when
/// the primary died mid-batch (the data is durable on the replica —
/// that is what replication is for). Either goes back verbatim: its
/// request id echoes the forwarded request.
fn finish_put(
    primary: usize,
    mut results: Vec<(usize, ShardResult)>,
    instruments: &Instruments,
) -> Reply {
    let acked =
        |r: &ShardResult| matches!(r, ShardResult::Frame(f) if f.opcode() == opcode::PUT_DONE);
    for (shard, r) in &results {
        if *shard != primary && !acked(r) {
            instruments.replica_put_failures.inc();
        }
    }
    let find = |from_primary: bool, ack: bool| {
        results.iter().position(|(s, r)| {
            (*s == primary) == from_primary && matches!(r, ShardResult::Frame(_)) && acked(r) == ack
        })
    };
    let chosen = find(true, true)
        .or_else(|| find(false, true).inspect(|_| instruments.failovers.inc()))
        // The primary answered with a typed error: forward it.
        .or_else(|| find(true, false));
    match chosen {
        Some(i) => Reply::Verbatim(take_frame(&mut results, i)),
        None => Reply::Encode(error_response_from(&results)),
    }
}

/// Move the frame at `results[i]` out, without a copy.
fn take_frame(results: &mut Vec<(usize, ShardResult)>, i: usize) -> Frame {
    match results.swap_remove(i).1 {
        ShardResult::Frame(f) => f,
        _ => unreachable!("caller picked a frame"),
    }
}

/// Whether a restart attempt came back with data (anything but an
/// error or a busy signal).
fn is_restart_data(r: &ShardResult) -> bool {
    matches!(r, ShardResult::Frame(f) if f.opcode() != opcode::ERROR && f.opcode() != opcode::BUSY)
}

/// The first replica's restart data goes back verbatim, without a copy;
/// when no replica had any, the best explanation across the attempts.
fn finish_restart(mut results: Vec<(usize, ShardResult)>) -> Reply {
    match results.iter().position(|(_, r)| is_restart_data(r)) {
        Some(i) => Reply::Verbatim(take_frame(&mut results, i)),
        None => Reply::Encode(error_response_from(&results)),
    }
}

/// Merge per-replica scrub reports: totals sum (each shard checked its
/// own copy of the chain), the re-anchor point is the primary's when it
/// answered, otherwise the first replica's.
fn finish_scrub(primary: usize, results: &[(usize, ShardResult)]) -> Response {
    let mut decoded: Vec<(usize, u32, u32, Option<u64>, u32)> = Vec::new();
    for (shard, r) in results {
        if let ShardResult::Frame(f) = r {
            if f.opcode() == opcode::SCRUB_DONE {
                if let Ok(Response::ScrubDone {
                    checked,
                    quarantined,
                    anchored_at,
                    lost,
                }) = Response::from_frame(f)
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
