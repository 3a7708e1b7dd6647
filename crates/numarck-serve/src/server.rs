//! The checkpoint service: acceptor + bounded queue + worker pool.
//!
//! One acceptor thread blocks on the listener and hands accepted
//! connections to a fixed worker pool over a bounded
//! [`std::sync::mpsc::sync_channel`]. When the queue is full the
//! acceptor answers the connection with a single [`Response::Busy`]
//! frame and drops it — typed backpressure instead of an ever-growing
//! accept backlog. Each worker serves one connection at a time, request
//! after request, until the peer closes (so a connection has session
//! affinity for free; concurrency across sessions comes from the pool).
//!
//! Sessions are named; each maps to a subdirectory of the server root
//! and is backed by a [`CheckpointManager`], so every ingest inherits
//! the store's retry/backoff and quarantine machinery. Per-session locks
//! let distinct sessions ingest in parallel while serialising writes
//! within one session (the delta chain is inherently ordered). Each
//! session also holds its store's [`ChainIndex`], loaded once when the
//! session opens and kept current by the writers that hold its lock, so
//! restarts and maintenance passes never list the store or re-read file
//! headers. And each session keeps its newest restart result, its
//! *head*, so a restart of a later iteration replays only the hops after
//! it (see `HeadCache`).
//!
//! Drain (`Shutdown` request or SIGTERM/SIGINT) flips one flag: the
//! acceptor, woken by [`ServerHandle::join`], closes the listener and
//! stops feeding the queue, workers finish the request they are on,
//! answer anything further with `Error { Draining }`, and exit once
//! their connection goes idle. State is all on disk already (every
//! `Put` is durable before it is acked), so drain has nothing to flush
//! — it only has to stop cleanly.

use std::collections::HashMap;
use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use numarck::error::NumarckError;
use numarck::Config;
use numarck_checkpoint::backend::StorageBackend;
use numarck_checkpoint::{
    recover_session, scrub, ChainIndex, CheckpointManager, CheckpointOutcome, CheckpointStore,
    DegradedRestart, FsBackend, Head, IntentJournal, ManagerPolicy, RecoveryReport, RestartEngine,
    RetryPolicy, SystemClock, VariableSet,
};
use numarck_compact::{CompactionConfig, Compactor, CostModel, PassPlan};
use numarck_obs::{Counter, Gauge, Histogram, Level, Registry, Snapshot};

use crate::wire::{
    self, ErrorCode, PutOutcome, Request, Response, SessionStat, StatsReply, WrittenKind,
};

/// How often idle workers, the maintenance thread and a thread waiting
/// in [`ServerHandle::join`] re-check the drain flag.
const DRAIN_POLL: Duration = Duration::from_millis(10);

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Directory under which each session gets a checkpoint store.
    pub root: PathBuf,
    /// Worker threads serving connections.
    pub workers: usize,
    /// Bounded hand-off queue depth between acceptor and workers; a full
    /// queue makes the acceptor answer [`Response::Busy`].
    pub queue_depth: usize,
    /// Per-request socket deadline: the longest a worker will wait for
    /// the rest of a started frame (or for a response write to make
    /// progress) before failing the connection. Doubles as the idle poll
    /// interval between requests.
    pub io_timeout: Duration,
    /// How long a connection may sit idle *between* requests before the
    /// worker hangs up and reclaims itself. Guards the fixed-size pool
    /// against peers that connect and then go silent (slowloris): with
    /// `workers` connections held open and mute, no one else is served.
    pub idle_timeout: Duration,
    /// NUMARCK compression config for delta checkpoints.
    pub compression: Config,
    /// Full-checkpoint interval for every session.
    pub full_interval: u64,
    /// Storage retry policy (inherited by every session's manager).
    pub retry: RetryPolicy,
    /// Storage backend for every session store (tests inject faults).
    pub backend: Arc<dyn StorageBackend>,
    /// Background chain maintenance (compaction, full placement, GC) run
    /// over every session at `compact_interval`; `None` disables the
    /// maintenance worker entirely.
    pub compaction: Option<CompactionConfig>,
    /// How often the maintenance worker sweeps the sessions.
    pub compact_interval: Duration,
}

impl ServerConfig {
    /// Defaults: 4 workers, queue depth 16, 5s deadline, 60s idle
    /// timeout, fulls every 16 iterations, default retry policy, real
    /// filesystem.
    pub fn new(root: impl Into<PathBuf>, compression: Config) -> Self {
        Self {
            root: root.into(),
            workers: 4,
            queue_depth: 16,
            io_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(60),
            compression,
            full_interval: 16,
            retry: RetryPolicy::default(),
            backend: Arc::new(FsBackend),
            compaction: None,
            compact_interval: Duration::from_secs(60),
        }
    }
}

/// One open session.
struct SessionState {
    id: u64,
    name: String,
    manager: CheckpointManager,
    /// Write-ahead intent journal: every ingest and maintenance write
    /// goes through its bracket, fsynced *before* the store mutates.
    journal: IntentJournal,
    /// The store's chain index: loaded once when the session opens,
    /// after recovery, then kept current under this session's lock by
    /// the writers themselves — a commit inserts the file it wrote, a
    /// maintenance pass records its merges, promotions and deletes.
    /// What may change the store partway (a failed commit or pass, a
    /// scrub or repair) reloads it. Restarts and Stats resolve and pin
    /// from it under the same lock.
    index: ChainIndex,
    /// The session's restart head. Its own lock nests inside this one,
    /// so a restart installs a result without waiting for a put.
    head: Arc<Mutex<HeadCache>>,
}

/// A session's restart result of the highest iteration restarted since
/// it was last dropped (the *head*), and the generation that guards
/// installing one.
///
/// Restarts continue from the head
/// ([`RestartEngine::restart_at_or_before_locked`]), so it must stay
/// bit-identical to a cold restart of its iteration. What could break
/// that drops the head and bumps the generation, under the session lock:
/// a commit that does not append past every stored iteration (a re-put),
/// and every index reload (a failed commit or maintenance pass, a scrub,
/// a repair). A restart decodes off the lock, so it installs its result
/// only if the generation it read before pinning is still current, and
/// never over a newer head. Successful maintenance keeps the head:
/// merges and promotions are verified bit-exact before they land, and
/// GC removes only files off every retained path; a head whose iteration
/// leaves the chain is simply not on any path any more. The head is
/// filled lazily, by restarts and Stats: a put never pays for it.
///
/// The generation so counts every change to the store other than an
/// append past its newest iteration, which is also what a maintenance
/// pass planned without the session lock must not have missed
/// (`maintain_session`).
#[derive(Debug, Default)]
struct HeadCache {
    head: Option<Head>,
    generation: u64,
}

impl HeadCache {
    fn invalidate(&mut self) {
        self.head = None;
        self.generation += 1;
    }

    /// Account for a commit at `iteration` into a store whose newest
    /// iteration was `newest`. Bounding by the newest stored iteration,
    /// not just the head's, also refuses the install of a restart that
    /// pinned the old file and is still decoding.
    fn on_commit(&mut self, iteration: u64, newest: Option<u64>) {
        let top = newest.max(self.head.as_ref().map(|h| h.iteration));
        if top.is_some_and(|top| iteration <= top) {
            self.invalidate();
        }
    }

    /// Whether a restart of `iteration` computed under `generation` may
    /// become the head.
    fn takes(&self, generation: u64, iteration: u64) -> bool {
        generation == self.generation && self.head.as_ref().is_none_or(|h| h.iteration < iteration)
    }
}

/// Install `vars`, a restart of `iteration` computed under
/// `generation`, as the session's head if [`HeadCache::takes`] it. The
/// copy is made outside the lock.
fn install_head(cache: &Mutex<HeadCache>, generation: u64, iteration: u64, vars: &VariableSet) {
    if !cache.lock().expect("head lock").takes(generation, iteration) {
        return;
    }
    let vars = Arc::new(vars.clone());
    let mut cache = cache.lock().expect("head lock");
    if cache.takes(generation, iteration) {
        cache.head = Some(Head { iteration, vars });
    }
}

/// Reload session `name`'s chain index from its store after something
/// that may have changed the store partway, and drop its head. If even
/// the reload fails, the old index stays: a restart checks every file it
/// pins against its entry, so a stale entry reads as a lost iteration,
/// never as wrong data, and the next reload repairs it.
fn reload_index(
    index: &mut ChainIndex,
    head: &Mutex<HeadCache>,
    store: &CheckpointStore,
    name: &str,
    shared: &Shared,
) {
    head.lock().expect("head lock").invalidate();
    match ChainIndex::load(store) {
        Ok(loaded) => *index = loaded,
        Err(e) => shared.obs.registry.events().push(
            Level::Error,
            format!("chain index reload of session {name:?} failed: {e}"),
        ),
    }
}

/// Per-server instruments, backed by a *private* [`Registry`] so
/// several servers in one process (tests, embedded use) do not blur
/// each other's numbers. `/metrics`, [`ServerHandle::metrics_snapshot`]
/// and the Stats reply merge this registry with the process-global one
/// (encoder + checkpoint instruments), whose names carry disjoint
/// prefixes.
struct Instruments {
    registry: Arc<Registry>,
    accepted: Arc<Counter>,
    served: Arc<Counter>,
    busy_rejected: Arc<Counter>,
    iterations_ingested: Arc<Counter>,
    bytes_ingested: Arc<Counter>,
    write_retries: Arc<Counter>,
    journal_replayed: Arc<Counter>,
    journal_rolled_back: Arc<Counter>,
    recovery_repairs: Arc<Counter>,
    idle_disconnects: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    req_open: Arc<Histogram>,
    req_put: Arc<Histogram>,
    req_restart: Arc<Histogram>,
    req_scrub: Arc<Histogram>,
    req_stats: Arc<Histogram>,
    req_close: Arc<Histogram>,
    req_shutdown: Arc<Histogram>,
}

impl Instruments {
    fn new() -> Self {
        let registry = Arc::new(Registry::new());
        Self {
            accepted: registry.counter("nsrv_accepted_total"),
            served: registry.counter("nsrv_served_total"),
            busy_rejected: registry.counter("nsrv_busy_rejected_total"),
            iterations_ingested: registry.counter("nsrv_iterations_ingested_total"),
            bytes_ingested: registry.counter("nsrv_bytes_ingested_total"),
            write_retries: registry.counter("nsrv_write_retries_total"),
            journal_replayed: registry.counter("nsrv_journal_replayed_total"),
            journal_rolled_back: registry.counter("nsrv_journal_rolled_back_total"),
            recovery_repairs: registry.counter("nsrv_recovery_repairs_total"),
            idle_disconnects: registry.counter("nsrv_idle_disconnects_total"),
            queue_depth: registry.gauge("nsrv_queue_depth"),
            req_open: registry.histogram("nsrv_request_open_ns"),
            req_put: registry.histogram("nsrv_request_put_ns"),
            req_restart: registry.histogram("nsrv_request_restart_ns"),
            req_scrub: registry.histogram("nsrv_request_scrub_ns"),
            req_stats: registry.histogram("nsrv_request_stats_ns"),
            req_close: registry.histogram("nsrv_request_close_ns"),
            req_shutdown: registry.histogram("nsrv_request_shutdown_ns"),
            registry,
        }
    }

    /// Fold one session's recovery outcome into the counters (and the
    /// event ring, when there was anything to recover).
    fn record_recovery(&self, session: &str, report: &RecoveryReport) {
        self.journal_replayed.add(report.replayed as u64);
        self.journal_rolled_back.add(report.rolled_back as u64);
        self.recovery_repairs.add(u64::from(report.repaired));
        if !report.is_noop() {
            self.registry.events().push(
                Level::Warn,
                format!(
                    "recovered session {session:?}: {} intents replayed \
                     ({} completed, {} rolled back), {} tmp files swept{}",
                    report.replayed,
                    report.completed,
                    report.rolled_back,
                    report.tmp_removed,
                    if report.repaired { ", chain re-anchored" } else { "" },
                ),
            );
        }
    }

    /// The latency histogram a request type is timed into.
    fn request_hist(&self, req: &Request) -> &Histogram {
        match req {
            Request::OpenSession { .. } => &self.req_open,
            Request::PutIterations { .. } => &self.req_put,
            Request::Restart { .. } => &self.req_restart,
            Request::Scrub { .. } => &self.req_scrub,
            Request::Stats => &self.req_stats,
            Request::CloseSession { .. } => &self.req_close,
            Request::Shutdown => &self.req_shutdown,
        }
    }
}

/// State shared by the acceptor, the workers, and the handle.
struct Shared {
    config: ServerConfig,
    draining: AtomicBool,
    /// Counters/gauges/latency histograms (see `StatsReply` and
    /// DESIGN.md §7 for meanings).
    obs: Instruments,
    next_session_id: AtomicU64,
    /// name → id for idempotent `OpenSession`.
    by_name: Mutex<HashMap<String, u64>>,
    /// id → session. Per-session mutexes so sessions proceed in
    /// parallel; this outer map lock is only held to look up the `Arc`.
    sessions: Mutex<HashMap<u64, Arc<Mutex<SessionState>>>>,
}

impl Shared {
    fn new(config: ServerConfig) -> Self {
        Self {
            config,
            draining: AtomicBool::new(false),
            obs: Instruments::new(),
            next_session_id: AtomicU64::new(1),
            by_name: Mutex::new(HashMap::new()),
            sessions: Mutex::new(HashMap::new()),
        }
    }

    /// The stats reply: every session, and the whole metrics snapshot
    /// by instrument name. The snapshot is taken last, so instruments
    /// the session replays create are in it.
    fn stats(&self) -> StatsReply {
        let handles: Vec<Arc<Mutex<SessionState>>> =
            self.sessions.lock().expect("sessions lock").values().cloned().collect();
        let mut sessions: Vec<SessionStat> = handles.iter().map(session_stat).collect();
        sessions.sort_by_key(|s| s.id);
        let draining = self.draining.load(Ordering::Relaxed);
        let mut reply = StatsReply { draining, sessions, ..StatsReply::default() };
        reply.set_metrics(self.metrics_snapshot());
        reply
    }

    /// This server's registry merged with the process-global one.
    fn metrics_snapshot(&self) -> Snapshot {
        let mut snap = self.obs.registry.snapshot();
        snap.merge(Registry::global().snapshot());
        snap
    }
}

/// Running server: the acceptor/worker threads plus control surface.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    maintenance: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the listener is bound to (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begin draining: stop accepting, let in-flight work finish.
    /// Idempotent; returns immediately.
    pub fn trigger_drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
    }

    /// Snapshot of this server's metrics registry merged with the
    /// process-global registry (encoder + checkpoint instruments).
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.shared.metrics_snapshot()
    }

    /// A cloneable, `'static` snapshot source for a `/metrics` listener
    /// ([`numarck_obs::MetricsServer::start`] wants one that outlives
    /// the handle's borrows).
    pub fn metrics_source(&self) -> impl Fn() -> Snapshot + Send + Sync + 'static {
        let shared = Arc::clone(&self.shared);
        move || shared.metrics_snapshot()
    }

    /// Block until the acceptor and every worker have exited. Only
    /// returns after a drain has been triggered somehow.
    pub fn join(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            join_accept_loop(acceptor, self.addr, &self.shared.draining);
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        if let Some(maintenance) = self.maintenance.take() {
            let _ = maintenance.join();
        }
    }

    /// Drain and wait: [`Self::trigger_drain`] + [`Self::join`].
    pub fn shutdown(self) {
        self.trigger_drain();
        self.join();
    }
}

/// Install SIGTERM/SIGINT handlers that flip [`signal_drain_requested`].
///
/// Uses the raw libc `signal(2)` symbol so the crate stays free of
/// external dependencies. Safe to call more than once.
#[cfg(unix)]
pub fn install_signal_handlers() {
    static INSTALLED: AtomicBool = AtomicBool::new(false);
    if INSTALLED.swap(true, Ordering::SeqCst) {
        return;
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    extern "C" fn on_signal(_signum: i32) {
        SIGNAL_DRAIN.store(true, Ordering::SeqCst);
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_signal);
        signal(SIGINT, on_signal);
    }
}

/// No-op off unix.
#[cfg(not(unix))]
pub fn install_signal_handlers() {}

static SIGNAL_DRAIN: AtomicBool = AtomicBool::new(false);

/// True once a SIGTERM/SIGINT has been received (after
/// [`install_signal_handlers`]). A thread waiting in
/// [`ServerHandle::join`] polls this.
pub fn signal_drain_requested() -> bool {
    SIGNAL_DRAIN.load(Ordering::SeqCst)
}

/// The server. Construct with [`Server::spawn`].
pub struct Server;

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// start the acceptor and worker threads. Returns once the listener
    /// is live; the returned handle controls shutdown.
    pub fn spawn(addr: &str, config: ServerConfig) -> io::Result<ServerHandle> {
        assert!(config.workers >= 1, "need at least one worker");
        assert!(config.queue_depth >= 1, "need at least one queue slot");
        // Resolve lane-kernel dispatch up front: encode/decode inherit the
        // cached level, and the `simd_dispatch_level` gauge is present in
        // every stats snapshot from the first scrape on.
        numarck_simd::active_level();
        config.backend.create_dir_all(&config.root)?;
        let shared = Arc::new(Shared::new(config));
        // Recover every existing session directory *before* the listener
        // goes live: no request can observe a half-applied ingest.
        recover_root(&shared)?;
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let (tx, rx) = mpsc::sync_channel::<TcpStream>(shared.config.queue_depth);
        let rx = Arc::new(Mutex::new(rx));
        let mut workers = Vec::with_capacity(shared.config.workers);
        for i in 0..shared.config.workers {
            let rx = Arc::clone(&rx);
            let shared = Arc::clone(&shared);
            workers.push(
                thread::Builder::new()
                    .name(format!("nsrv-worker-{i}"))
                    .spawn(move || worker_loop(&rx, &shared))
                    .expect("spawn worker"),
            );
        }
        let acceptor = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("nsrv-acceptor".into())
                .spawn(move || acceptor_loop(listener, tx, &shared))
                .expect("spawn acceptor")
        };
        let maintenance = shared.config.compaction.map(|compaction| {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("nsrv-maintenance".into())
                .spawn(move || maintenance_loop(&shared, compaction))
                .expect("spawn maintenance")
        });
        Ok(ServerHandle { addr: local, shared, acceptor: Some(acceptor), workers, maintenance })
    }
}

/// Background chain maintenance: every `compact_interval`, run one
/// compaction/placement/GC pass over each open session. Each pass builds
/// its merged deltas without the session lock and writes them holding it
/// (exactly as scrub does), so maintenance never races the session's own
/// ingest or a restart pinning its chain, and its writes go through the
/// session's write-ahead intent journal — to crash recovery they are
/// indistinguishable from ingest writes. Exits when drain is triggered.
fn maintenance_loop(shared: &Shared, compaction: CompactionConfig) {
    let mut last_sweep = Instant::now();
    loop {
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
        if last_sweep.elapsed() < shared.config.compact_interval {
            thread::sleep(DRAIN_POLL);
            continue;
        }
        last_sweep = Instant::now();
        let handles: Vec<Arc<Mutex<SessionState>>> =
            shared.sessions.lock().expect("sessions lock").values().cloned().collect();
        for handle in handles {
            if shared.draining.load(Ordering::SeqCst) {
                return;
            }
            maintain_session(shared, &handle, compaction);
        }
    }
}

/// One maintenance pass over one session, on its live chain index:
/// [`plan_pass`], then [`apply_pass`].
fn maintain_session(
    shared: &Shared,
    handle: &Arc<Mutex<SessionState>>,
    compaction: CompactionConfig,
) {
    apply_pass(shared, handle, plan_pass(handle, compaction));
}

/// A pass planned from a snapshot of a session's index, and the head
/// generation the snapshot was taken under.
struct PlannedPass {
    store: CheckpointStore,
    compactor: Compactor,
    generation: u64,
    plan: Result<PassPlan, NumarckError>,
}

/// Snapshot the index under the session lock, then plan the merges,
/// which replay the chain and make up most of a pass, without it, so
/// neither the session's puts nor its restarts wait for them.
fn plan_pass(handle: &Arc<Mutex<SessionState>>, compaction: CompactionConfig) -> PlannedPass {
    let sess = handle.lock().expect("session lock");
    // Re-seed the restart cost model from the decode timings the replay
    // path has actually measured (`numarck_decode_ns`), scaled by this
    // session's variable count — placement then chases observed latency,
    // not the compile-time default.
    let cost = CostModel::from_obs(sess.manager.variable_count());
    let compactor = Compactor::new(CompactionConfig { cost, ..compaction });
    let generation = sess.head.lock().expect("head lock").generation;
    let (store, snapshot) = (sess.manager.store().clone(), sess.index.clone());
    drop(sess);
    let plan = compactor.plan(&store, &snapshot);
    PlannedPass { store, compactor, generation, plan }
}

/// Write a planned pass under the session lock if the store changed
/// only by appends since its snapshot: the head cache's generation
/// moves with every other change (a re-put, a reload after a failed
/// write, a scrub or a repair), and a moved generation plans again
/// under the lock.
fn apply_pass(shared: &Shared, handle: &Arc<Mutex<SessionState>>, planned: PlannedPass) {
    let PlannedPass { store, compactor, generation, plan } = planned;
    let mut guard = handle.lock().expect("session lock");
    let sess = &mut *guard;
    let pass = plan.and_then(|plan| {
        let plan = if sess.head.lock().expect("head lock").generation == generation {
            plan
        } else {
            compactor.plan(&store, &sess.index)?
        };
        compactor.apply(plan, &store, &mut sess.journal, &mut sess.index)
    });
    match pass {
        Ok(report) => {
            if report.merges > 0 || report.fulls_promoted > 0 || report.gc.removed > 0 {
                shared.obs.registry.events().push(
                    Level::Info,
                    format!(
                        "maintenance on session {:?}: {} merges ({} deltas), {} fulls \
                         promoted, {} files collected, {} bytes reclaimed",
                        sess.name,
                        report.merges,
                        report.deltas_merged,
                        report.fulls_promoted,
                        report.gc.removed,
                        report.bytes_reclaimed,
                    ),
                );
            }
        }
        Err(e) => {
            // A failed pass quarantined anything it damaged and left its
            // intent outstanding; scrub/recovery own the repair.
            // Maintenance reports, re-reads the store it may have changed
            // partway, and moves on.
            shared.obs.registry.events().push(
                Level::Error,
                format!("maintenance on session {:?} failed: {e}", sess.name),
            );
            reload_index(&mut sess.index, &sess.head, &store, &sess.name, shared);
        }
    }
}

/// Startup recovery sweep: every subdirectory of the root that looks
/// like a session store gets its intent journal replayed and its debris
/// cleaned before the server accepts traffic. A directory recovery
/// failure fails the spawn — serving over a store in an unknown state
/// would silently break the durability contract.
fn recover_root(shared: &Shared) -> io::Result<()> {
    let backend = &shared.config.backend;
    for name in backend.list_dir(&shared.config.root)? {
        if !valid_session_name(&name) {
            continue;
        }
        let dir = shared.config.root.join(&name);
        // Session stores are directories; a listing succeeding is the
        // backend-portable way to tell (and what recovery needs anyway).
        if backend.list_dir(&dir).is_err() {
            continue;
        }
        let store = CheckpointStore::open_with(&dir, Arc::clone(backend))?;
        let (_, report) = recover_session(&store).map_err(|e| {
            io::Error::other(format!("recovery of session {name:?} failed: {e}"))
        })?;
        shared.obs.record_recovery(&name, &report);
    }
    Ok(())
}

/// Accept until drain, handing each connection to `on_accept`; a
/// `false` from it stops accepting. The listener blocks, so a connection
/// is taken the moment it arrives and an idle loop costs nothing; a
/// drain wakes it with a connection of its own ([`join_accept_loop`]),
/// and whatever arrives once the drain has begun is dropped. Serve's
/// acceptor and the cluster router both run on it.
pub fn accept_until_drain(
    listener: &TcpListener,
    draining: &AtomicBool,
    mut on_accept: impl FnMut(TcpStream) -> bool,
) {
    loop {
        let accepted = listener.accept();
        if draining.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => {
                if !on_accept(stream) {
                    return;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // Out of descriptors or the like: back off instead of spinning.
            Err(_) => thread::sleep(DRAIN_POLL),
        }
    }
}

/// Wait for a drain (the flag, or SIGTERM/SIGINT, which this turns into
/// the flag), wake the [`accept_until_drain`] loop listening on `addr`
/// with one connection, and join its thread.
pub fn join_accept_loop(acceptor: JoinHandle<()>, addr: SocketAddr, draining: &AtomicBool) {
    let mut wake = addr;
    if wake.ip().is_unspecified() {
        wake.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let mut woken = false;
    while !acceptor.is_finished() {
        if signal_drain_requested() {
            draining.store(true, Ordering::SeqCst);
        }
        if draining.load(Ordering::SeqCst) && !woken {
            woken = TcpStream::connect_timeout(&wake, DRAIN_POLL * 10).is_ok();
        }
        thread::sleep(DRAIN_POLL);
    }
    let _ = acceptor.join();
}

/// Full queue ⇒ Busy + drop.
fn acceptor_loop(listener: TcpListener, tx: SyncSender<TcpStream>, shared: &Shared) {
    accept_until_drain(&listener, &shared.draining, |stream| {
        // Raised before the hand-off, so the worker that picks the
        // connection up (and lowers it) can never run first; undone when
        // the hand-off fails.
        shared.obs.queue_depth.inc();
        let sent = tx.try_send(stream);
        if sent.is_err() {
            shared.obs.queue_depth.dec();
        }
        match sent {
            Ok(()) => true,
            Err(TrySendError::Full(stream)) => {
                shared.obs.busy_rejected.inc();
                shared
                    .obs
                    .registry
                    .events()
                    .push(Level::Warn, "hand-off queue full: connection rejected with Busy");
                reject_busy(stream, shared.config.io_timeout);
                true
            }
            Err(TrySendError::Disconnected(_)) => false,
        }
    });
    // Dropping `tx` here wakes every idle worker with Disconnected.
}

/// Tell an over-quota connection it lost, without blocking the acceptor
/// for long.
pub fn reject_busy(stream: TcpStream, timeout: Duration) {
    let _ = stream.set_write_timeout(Some(timeout));
    let mut stream = stream;
    let _ = io::Write::write_all(&mut stream, &Response::Busy.to_frame(0));
}

/// Pull connections off the queue and serve each to completion.
fn worker_loop(rx: &Arc<Mutex<Receiver<TcpStream>>>, shared: &Shared) {
    let config = &shared.config;
    loop {
        // Hold the receiver lock only for the poll itself so workers
        // take turns; poll with a timeout so drain is noticed even with
        // no traffic.
        let conn = {
            let rx = rx.lock().expect("receiver lock");
            rx.recv_timeout(DRAIN_POLL)
        };
        match conn {
            Ok(mut stream) => {
                // Counted when taken into service, so before any of
                // its requests is answered.
                shared.obs.accepted.inc();
                shared.obs.queue_depth.dec();
                let end = serve_connection(
                    &mut stream,
                    config.io_timeout,
                    config.idle_timeout,
                    &shared.draining,
                    |frame| answer(&frame, shared),
                );
                if end == ConnectionEnd::Idle {
                    // A worker parked on a silent connection is a worker
                    // some other client doesn't get (slowloris).
                    shared.obs.idle_disconnects.inc();
                    shared.obs.registry.events().push(
                        Level::Warn,
                        "idle connection disconnected; worker reclaimed",
                    );
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if shared.draining.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
}

/// How often an idle connection re-checks the drain flag.
const IDLE_POLL: Duration = Duration::from_millis(100);

/// Why [`serve_connection`] stopped serving a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnectionEnd {
    /// The peer hung up, a response could not be written, the handler
    /// asked to close, or a drain found the connection idle.
    Done,
    /// The peer stayed mute between requests past the idle timeout.
    Idle,
    /// A frame did not arrive whole and CRC-valid within the deadline;
    /// the peer was answered `Error { Malformed }`.
    Unreadable,
}

/// Serve one connection: read frames, hand each to `answer`, write the
/// response bytes it returns, until the peer closes, the deadline is
/// violated, `answer` asks to close, or a drain finds the connection
/// idle. The caller keeps the stream, so it can count how the
/// connection ended before the peer sees it close.
///
/// Two timescales: *between* requests the socket is polled every
/// `IDLE_POLL` so drain is noticed promptly on quiet connections, and
/// a peer mute for `idle_timeout` is dropped ([`ConnectionEnd::Idle`]);
/// once a frame's first byte arrives, the socket timeout widens to the
/// per-request `deadline`: a peer that starts a frame and stalls past it
/// loses the connection. Response writes run under the same deadline.
pub fn serve_connection(
    stream: &mut TcpStream,
    deadline: Duration,
    idle_timeout: Duration,
    draining: &AtomicBool,
    mut answer: impl FnMut(wire::Frame) -> (Vec<u8>, bool),
) -> ConnectionEnd {
    if stream.set_write_timeout(Some(deadline)).is_err() {
        return ConnectionEnd::Done;
    }
    let mut last_activity = Instant::now();
    loop {
        let frame = match read_next_frame(stream, deadline) {
            Ok(ReadOutcome::Frame(frame)) => frame,
            Ok(ReadOutcome::Idle) => {
                if draining.load(Ordering::SeqCst) {
                    return ConnectionEnd::Done;
                }
                if last_activity.elapsed() >= idle_timeout {
                    return ConnectionEnd::Idle;
                }
                continue;
            }
            Ok(ReadOutcome::Closed) => return ConnectionEnd::Done,
            Err(e) => {
                // Deadline violation or garbage: the stream may not be
                // frame-aligned any more, so answer (best-effort) and
                // hang up.
                let resp = Response::Error {
                    code: ErrorCode::Malformed,
                    message: format!("unreadable frame ({e}); closing connection"),
                };
                let _ = io::Write::write_all(stream, &resp.to_frame(0));
                return ConnectionEnd::Unreadable;
            }
        };
        let (reply, close_after) = answer(frame);
        if io::Write::write_all(stream, &reply).is_err() || close_after {
            return ConnectionEnd::Done;
        }
        last_activity = Instant::now();
    }
}

/// Outcome of one idle-aware frame read.
enum ReadOutcome {
    /// A complete, CRC-valid frame arrived.
    Frame(wire::Frame),
    /// No byte arrived within [`IDLE_POLL`]: poll again, or close if
    /// draining or idle too long.
    Idle,
    /// The peer closed the connection cleanly.
    Closed,
}

/// One idle-aware frame read: poll for the first byte at [`IDLE_POLL`],
/// then read the rest of the frame under the full `deadline`.
fn read_next_frame(stream: &mut TcpStream, deadline: Duration) -> io::Result<ReadOutcome> {
    if stream.set_read_timeout(Some(IDLE_POLL)).is_err() {
        return Ok(ReadOutcome::Closed);
    }
    let mut first = [0u8; 1];
    loop {
        match io::Read::read(stream, &mut first) {
            Ok(0) => return Ok(ReadOutcome::Closed),
            Ok(_) => break,
            Err(e)
                if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
            {
                return Ok(ReadOutcome::Idle)
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    stream.set_read_timeout(Some(deadline))?;
    wire::read_frame_rest(first[0], stream).map(ReadOutcome::Frame)
}

/// Answer one request frame: the response's wire bytes (echoing the
/// request id) and whether the connection should close afterwards.
fn answer(frame: &wire::Frame, shared: &Shared) -> (Vec<u8>, bool) {
    let (resp, close_after) = match Request::from_frame(frame) {
        Ok(req) => {
            // Per-request-type latency: the span covers dispatch
            // only (session lookup + store work), not socket I/O.
            let _span = shared.obs.request_hist(&req).span();
            dispatch(req, shared)
        }
        Err(e) => (Response::Error { code: ErrorCode::Malformed, message: e.to_string() }, true),
    };
    shared.obs.served.inc();
    (resp.to_frame(frame.req_id()), close_after)
}

/// Handle one request. Returns the response and whether the connection
/// should close afterwards.
fn dispatch(req: Request, shared: &Shared) -> (Response, bool) {
    // Draining: only `Stats` (observability) still answers normally.
    if shared.draining.load(Ordering::SeqCst) && !matches!(req, Request::Stats) {
        return (
            Response::Error {
                code: ErrorCode::Draining,
                message: "server is draining; not accepting new work".into(),
            },
            true,
        );
    }
    match req {
        Request::OpenSession { name } => (open_session(&name, shared), false),
        Request::PutIterations { session, iterations } => {
            (put_iterations(session, iterations, shared), false)
        }
        Request::Restart { session, at_or_before } => {
            (restart(session, at_or_before, shared), false)
        }
        Request::Scrub { session, repair } => (run_scrub(session, repair, shared), false),
        Request::Stats => (Response::StatsData(Box::new(shared.stats())), false),
        Request::CloseSession { session } => (close_session(session, shared), false),
        Request::Shutdown => {
            shared.draining.store(true, Ordering::SeqCst);
            (Response::ShuttingDown, true)
        }
    }
}

/// Session names double as directory names; keep them boring.
fn valid_session_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
        && name != "."
        && name != ".."
}

fn open_session(name: &str, shared: &Shared) -> Response {
    if !valid_session_name(name) {
        return Response::Error {
            code: ErrorCode::BadRequest,
            message: format!(
                "invalid session name {name:?}: need 1-64 chars of [A-Za-z0-9._-]"
            ),
        };
    }
    // Idempotent: re-opening a name returns the existing id.
    let mut by_name = shared.by_name.lock().expect("by_name lock");
    if let Some(&id) = by_name.get(name) {
        return Response::SessionOpened { session: id };
    }
    let store = match CheckpointStore::open_with(
        shared.config.root.join(name),
        Arc::clone(&shared.config.backend),
    ) {
        Ok(store) => store,
        Err(e) => {
            return Response::Error {
                code: ErrorCode::Io,
                message: format!("cannot open session store: {e}"),
            }
        }
    };
    // Recover before first use: a session dir left behind by a crashed
    // server (or created while this one ran) may hold an unresolved
    // intent journal. A noop for fresh or cleanly-shut-down sessions.
    let journal = match recover_session(&store) {
        Ok((journal, report)) => {
            shared.obs.record_recovery(name, &report);
            journal
        }
        Err(e) => {
            return Response::Error {
                code: ErrorCode::Io,
                message: format!("session recovery failed: {e}"),
            }
        }
    };
    // The one index load of the session's life: from here on its
    // writers keep it current.
    let index = match ChainIndex::load(&store) {
        Ok(index) => index,
        Err(e) => {
            return Response::Error {
                code: ErrorCode::Io,
                message: format!("cannot index session store: {e}"),
            }
        }
    };
    let manager = CheckpointManager::with_retry(
        store,
        shared.config.compression,
        ManagerPolicy::fixed(shared.config.full_interval),
        shared.config.retry,
        Arc::new(SystemClock),
    );
    let id = shared.next_session_id.fetch_add(1, Ordering::Relaxed);
    by_name.insert(name.to_string(), id);
    shared
        .sessions
        .lock()
        .expect("sessions lock")
        .insert(
            id,
            Arc::new(Mutex::new(SessionState {
                id,
                name: name.to_string(),
                manager,
                journal,
                index,
                head: Arc::default(),
            })),
        );
    Response::SessionOpened { session: id }
}

fn session_handle(id: u64, shared: &Shared) -> Result<Arc<Mutex<SessionState>>, Response> {
    shared.sessions.lock().expect("sessions lock").get(&id).cloned().ok_or_else(|| {
        Response::Error {
            code: ErrorCode::UnknownSession,
            message: format!("session {id} is not open"),
        }
    })
}

fn put_iterations(
    id: u64,
    iterations: Vec<(u64, numarck_checkpoint::VariableSet)>,
    shared: &Shared,
) -> Response {
    if iterations.is_empty() {
        return Response::Error {
            code: ErrorCode::BadRequest,
            message: "empty iteration batch".into(),
        };
    }
    let handle = match session_handle(id, shared) {
        Ok(h) => h,
        Err(resp) => return resp,
    };
    // One lock per batch: iterations within a batch are ordered by the
    // chain anyway, and the per-session lock is what lets *other*
    // sessions make progress meanwhile.
    let mut guard = handle.lock().expect("session lock");
    let SessionState { name, manager, journal, index, head, .. } = &mut *guard;
    let mut outcomes = Vec::with_capacity(iterations.len());
    for (iteration, vars) in &iterations {
        let bytes: u64 = vars.values().map(|v| v.len() as u64 * 8).sum();
        // Write-ahead: encode first, then commit inside the journal's
        // bracket (intent appends retry under the session's policy, each
        // retry counted). A crash anywhere in it is classified by
        // recovery, and nothing is acknowledged until it ran.
        let journaled = manager.prepare(*iteration, vars).and_then(|prepared| {
            let (it, is_full, crc, file) = (
                prepared.iteration(),
                prepared.is_full(),
                prepared.content_crc(),
                prepared.stored_file(),
            );
            let on_retry = || shared.obs.write_retries.inc();
            journal.write_ahead(it, is_full, crc, shared.config.retry, on_retry, || {
                let report = manager.commit(prepared).inspect_err(|_| {
                    // A failed write may still have renamed its file into
                    // place (a failed directory sync): read the store again.
                    reload_index(index, head, manager.store(), name, shared);
                })?;
                let newest = index.latest();
                index.insert(it, is_full, file);
                head.lock().expect("head lock").on_commit(it, newest);
                Ok(report)
            })
        });
        match journaled {
            Ok(report) => {
                shared.obs.iterations_ingested.inc();
                shared.obs.bytes_ingested.add(bytes);
                shared.obs.write_retries.add(u64::from(report.retries));
                let kind = match report.outcome {
                    CheckpointOutcome::Full => WrittenKind::Full,
                    CheckpointOutcome::FullOnDrift { .. } => WrittenKind::FullOnDrift,
                    CheckpointOutcome::Delta(_) => WrittenKind::Delta,
                };
                outcomes.push(PutOutcome { iteration: *iteration, kind, retries: report.retries });
            }
            Err(e) => {
                // Partial batches are reported as errors: the client
                // cannot tell which prefix landed from a PutDone, and
                // the next Put will re-anchor with a forced full anyway.
                let code = match &e {
                    NumarckError::Io(_) => ErrorCode::Io,
                    _ => ErrorCode::Compress,
                };
                return Response::Error {
                    code,
                    message: format!(
                        "iteration {iteration} failed after {} of {} landed: {e}",
                        outcomes.len(),
                        iterations.len()
                    ),
                };
            }
        }
    }
    Response::PutDone { outcomes }
}

/// One session's stats entry. `files` and the newest stored iteration
/// come from the session's chain index under a short session lock; the
/// newest iteration is then restarted exactly as [`restart`] does, so a
/// Stats request never stalls the session's puts for a whole replay.
/// That restart continues from the session's head and installs its
/// result as the new one: a Stats with no put since the newest iteration
/// was last restarted decodes nothing. `latest_restartable` stays a
/// restart's guarantee, not a guess from file names.
fn session_stat(handle: &Arc<Mutex<SessionState>>) -> SessionStat {
    let (id, name, files, newest) = {
        let sess = handle.lock().expect("session lock");
        (sess.id, sess.name.clone(), sess.index.file_count(), sess.index.latest())
    };
    let latest_restartable =
        newest.and_then(|newest| restart_session(handle, newest).ok()).map(|d| d.achieved());
    SessionStat { id, name, files: files as u32, latest_restartable }
}

/// Rebuild the newest restartable state at or before `target`. The chain
/// is resolved from the session's live index and pinned under the
/// session lock — the lock ingest and maintenance (GC included) hold
/// while they change the store — so no file on it can be collected
/// between the resolve and the open, and nothing lists the store. When
/// the session's head lies on the path, only the files after it are
/// pinned. The parse and decode run after the lock is released: restarts
/// are reads and must not stall ingest. A result newer than the
/// session's head then becomes the head ([`HeadCache`]).
fn restart_session(
    handle: &Arc<Mutex<SessionState>>,
    target: u64,
) -> Result<DegradedRestart, NumarckError> {
    let (store, head, generation) = {
        let sess = handle.lock().expect("session lock");
        let generation = sess.head.lock().expect("head lock").generation;
        (sess.manager.store().clone(), Arc::clone(&sess.head), generation)
    };
    let degraded = RestartEngine::new(store).restart_at_or_before_locked(
        target,
        || handle.lock().expect("session lock"),
        |sess| &sess.index,
        |sess| sess.head.lock().expect("head lock").head.clone(),
    )?;
    install_head(&head, generation, degraded.achieved(), &degraded.result.vars);
    Ok(degraded)
}

fn restart(id: u64, at_or_before: u64, shared: &Shared) -> Response {
    let handle = match session_handle(id, shared) {
        Ok(h) => h,
        Err(resp) => return resp,
    };
    restart_reply(at_or_before, restart_session(&handle, at_or_before))
}

/// The reply to a restart of `at_or_before` that ended in `restarted`.
fn restart_reply(at_or_before: u64, restarted: Result<DegradedRestart, NumarckError>) -> Response {
    match restarted {
        Ok(degraded) => Response::RestartData {
            achieved: degraded.achieved(),
            base: degraded.result.base_iteration,
            deltas_applied: degraded.result.deltas_applied,
            lost: degraded.lost.len() as u32,
            vars: degraded.result.vars,
        },
        Err(e) => Response::Error {
            code: ErrorCode::NotFound,
            message: format!("nothing restartable at or before {at_or_before}: {e}"),
        },
    }
}

fn run_scrub(id: u64, repair: bool, shared: &Shared) -> Response {
    let handle = match session_handle(id, shared) {
        Ok(h) => h,
        Err(resp) => return resp,
    };
    // Scrub holds the session lock: it may quarantine and rewrite files,
    // which must not race the session's own ingest. Whatever it changed,
    // the session's index is read again before the lock is released.
    let mut guard = handle.lock().expect("session lock");
    let sess = &mut *guard;
    let store = sess.manager.store();
    let resp = if repair {
        match scrub::repair(store) {
            Ok(report) => Response::ScrubDone {
                checked: report.scrub.checked as u32,
                quarantined: report.scrub.quarantined.len() as u32,
                anchored_at: report.anchored_at,
                lost: report.lost.len() as u32,
            },
            Err(e) => Response::Error { code: ErrorCode::Io, message: format!("repair failed: {e}") },
        }
    } else {
        match scrub::scrub(store) {
            Ok(report) => Response::ScrubDone {
                checked: report.checked as u32,
                quarantined: report.quarantined.len() as u32,
                anchored_at: None,
                lost: 0,
            },
            Err(e) => Response::Error { code: ErrorCode::Io, message: format!("scrub failed: {e}") },
        }
    };
    reload_index(&mut sess.index, &sess.head, sess.manager.store(), &sess.name, shared);
    resp
}

fn close_session(id: u64, shared: &Shared) -> Response {
    let removed = shared.sessions.lock().expect("sessions lock").remove(&id);
    match removed {
        Some(handle) => {
            let name = handle.lock().expect("session lock").name.clone();
            shared.by_name.lock().expect("by_name lock").remove(&name);
            Response::SessionClosed
        }
        None => Response::Error {
            code: ErrorCode::UnknownSession,
            message: format!("session {id} is not open"),
        },
    }
}

#[cfg(test)]
mod tests {
    use std::path::Path;

    use numarck::Strategy;
    use numarck_checkpoint::{FaultSchedule, FaultyBackend, VariableSet, WriteFault};
    use numarck_prop::prelude::*;

    use super::*;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let path = std::env::temp_dir().join(format!(
                "numarck-server-{tag}-{}-{}",
                std::process::id(),
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .expect("clock after epoch")
                    .as_nanos()
            ));
            std::fs::create_dir_all(&path).expect("create temp dir");
            Self(path)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn vars(iteration: u64) -> VariableSet {
        let mut v = VariableSet::new();
        v.insert(
            "x".into(),
            (0..64).map(|j| (j as f64 + 1.0) * 1.003f64.powi(iteration as i32)).collect(),
        );
        v
    }

    /// A server's shared state on `root`, recovered as [`Server::spawn`]
    /// recovers it, with no listener or threads: the tests drive
    /// [`dispatch`] and [`maintain_session`] directly.
    fn shared_on(root: &Path, backend: Arc<dyn StorageBackend>) -> Shared {
        let mut config =
            ServerConfig::new(root, Config::new(8, 0.001, Strategy::Clustering).unwrap());
        config.full_interval = 6;
        config.retry = RetryPolicy::none();
        config.backend = backend;
        config.backend.create_dir_all(root).expect("root dir");
        let shared = Shared::new(config);
        recover_root(&shared).expect("recovery");
        shared
    }

    /// Open `name`, retrying when an injected write fault hits the open
    /// itself (a fault schedule counts every write, journal ones too).
    fn open(shared: &Shared, name: &str) -> u64 {
        for _ in 0..8 {
            if let Response::SessionOpened { session } = open_session(name, shared) {
                return session;
            }
        }
        panic!("session {name} never opened");
    }

    fn handle(shared: &Shared, id: u64) -> Arc<Mutex<SessionState>> {
        session_handle(id, shared).unwrap_or_else(|_| panic!("session {id} is open"))
    }

    /// The session's live index is exactly what a fresh load of its
    /// store reads.
    fn live_index_is_current(
        shared: &Shared,
        id: u64,
        step: &str,
    ) -> Result<(), numarck_prop::test_runner::TestCaseError> {
        let handle = handle(shared, id);
        let sess = handle.lock().expect("session lock");
        let loaded = ChainIndex::load(sess.manager.store()).expect("index load");
        let live = &sess.index;
        prop_assert!(*live == loaded, "after {step}: live {live:?} != loaded {loaded:?}");
        Ok(())
    }

    fn put(shared: &Shared, id: u64, it: u64) -> Response {
        dispatch(Request::PutIterations { session: id, iterations: vec![(it, vars(it))] }, shared).0
    }

    fn restart(shared: &Shared, id: u64, at_or_before: u64) -> Response {
        dispatch(Request::Restart { session: id, at_or_before }, shared).0
    }

    /// A put whose commit fails after its file was renamed into place (a
    /// permanent directory-sync error) leaves that file in the store. The
    /// session reloads its index, so the live index still equals a fresh
    /// load, and the next put, a restart and a server restart succeed.
    #[test]
    fn a_commit_failing_after_its_rename_reloads_the_index() {
        let tmp = TempDir::new("sync-fault");
        let root = tmp.0.join("root");
        // The first sync makes the journal the first put creates
        // durable; after it only store writes sync the directory, so the
        // fourth sync is the third put's commit.
        let schedule = FaultSchedule::new().fail_sync_dir(4, io::ErrorKind::PermissionDenied);
        let shared = shared_on(&root, Arc::new(FaultyBackend::new(schedule)));
        let id = open(&shared, "sim");
        for it in 0..2 {
            assert!(matches!(put(&shared, id, it), Response::PutDone { .. }), "put {it}");
        }
        match put(&shared, id, 2) {
            Response::Error { code: ErrorCode::Io, .. } => {}
            other => panic!("put 2 should fail its directory sync: {other:?}"),
        }
        live_index_is_current(&shared, id, "the failed commit").unwrap();
        assert_eq!(handle(&shared, id).lock().unwrap().index.latest(), Some(2), "the renamed file");

        assert!(matches!(put(&shared, id, 3), Response::PutDone { .. }), "put 3");
        live_index_is_current(&shared, id, "the next put").unwrap();
        for target in [2, 3] {
            match restart(&shared, id, target) {
                Response::RestartData { achieved, lost: 0, .. } => assert_eq!(achieved, target),
                other => panic!("restart of {target}: {other:?}"),
            }
        }

        drop(shared);
        let shared = shared_on(&root, Arc::new(FsBackend));
        let id = open(&shared, "sim");
        live_index_is_current(&shared, id, "a server restart").unwrap();
        match restart(&shared, id, 3) {
            Response::RestartData { achieved: 3, lost: 0, .. } => {}
            other => panic!("restart of 3 after a server restart: {other:?}"),
        }
    }

    /// A pass planned before a re-put and applied after it plans again
    /// under the lock. The re-put of 3 lands as a full and moves the head
    /// generation; the stale plan's merge at 4, over the deltas 1..=4
    /// from the full at 0, would bypass that full. So the pass writes
    /// nothing: the live index stays what the re-put left, equal to a
    /// fresh load, and every iteration restarts exactly as a cold restart
    /// of the store after the re-put does.
    #[test]
    fn a_pass_planned_before_a_re_put_plans_again() {
        let tmp = TempDir::new("replan");
        let root = tmp.0.join("root");
        let shared = shared_on(&root, Arc::new(FsBackend));
        let id = open(&shared, "sim");
        for it in 0..=8 {
            assert!(matches!(put(&shared, id, it), Response::PutDone { .. }), "put {it}");
        }
        let handle = handle(&shared, id);
        let compaction =
            CompactionConfig { merge_window: 4, min_age_secs: 0, ..CompactionConfig::default() };
        let planned = plan_pass(&handle, compaction);
        assert!(planned.plan.is_ok(), "the plan merges 1..=4");

        match put(&shared, id, 3) {
            Response::PutDone { outcomes } => assert_eq!(outcomes[0].kind, WrittenKind::Full),
            other => panic!("re-put of 3: {other:?}"),
        }
        let generation = handle.lock().unwrap().head.lock().unwrap().generation;
        assert_ne!(generation, planned.generation, "the re-put moves the generation");
        let reput_index = handle.lock().unwrap().index.clone();
        let cold = RestartEngine::new(CheckpointStore::open(root.join("sim")).unwrap());
        let want: Vec<Vec<u8>> =
            (0..10).map(|t| restart_reply(t, cold.restart_at_or_before(t)).to_frame(0)).collect();

        apply_pass(&shared, &handle, planned);
        live_index_is_current(&shared, id, "the pass").unwrap();
        assert!(handle.lock().unwrap().index == reput_index, "the stale plan was written");
        for (target, want) in want.iter().enumerate() {
            let warm = restart(&shared, id, target as u64);
            assert!(warm.to_frame(0) == *want, "target {target}: {warm:?}");
        }
    }

    /// Each way the write-ahead bracket can fail under a put, injected
    /// by a [`FaultyBackend`] under the session store and its journal:
    /// what the put answers, and what the journal and recovery make of
    /// it afterwards.
    #[test]
    fn the_put_bracket_fails_as_the_journal_contract_says() {
        // A fresh session's first put appends its intent (write 1),
        // writes the store's temp file (write 2) and appends the commit
        // record (write 3).
        let denied = WriteFault::Error(io::ErrorKind::PermissionDenied);
        for (nth, case) in [(1, "intent"), (2, "store write"), (3, "commit")] {
            let tmp = TempDir::new("put-bracket");
            let root = tmp.0.join("root");
            let schedule = FaultSchedule::new().fail_write(nth, denied);
            let shared = shared_on(&root, Arc::new(FaultyBackend::new(schedule)));
            let id = open(&shared, "sim");
            let answer = put(&shared, id, 0);
            drop(shared);

            let dir = root.join("sim");
            let landed = dir.join("ckpt_0000000000.full").is_file();
            let (_, outstanding) = IntentJournal::open(&dir, Arc::new(FsBackend)).unwrap();
            let outstanding: Vec<u64> = outstanding.iter().map(|r| r.iteration).collect();
            let (_, report) = recover_session(&CheckpointStore::open(&dir).unwrap()).unwrap();
            let acked = matches!(answer, Response::PutDone { .. });
            match case {
                "intent" => {
                    assert!(!acked && !landed, "{case}: {answer:?}");
                    assert!(outstanding.is_empty(), "{case}: {outstanding:?}");
                    assert!(report.is_noop(), "{case}: {report:?}");
                }
                "store write" => {
                    assert!(!acked && !landed, "{case}: {answer:?}");
                    assert_eq!(outstanding, vec![0], "{case}");
                    assert_eq!((report.rolled_back, report.completed), (1, 0), "{case}");
                }
                _ => {
                    assert!(acked && landed, "{case}: {answer:?}");
                    assert_eq!(outstanding, vec![0], "{case}");
                    assert_eq!((report.rolled_back, report.completed), (0, 1), "{case}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// After any seeded sequence of puts (re-puts at or below the
        /// head, gaps that force fulls, commits failing on an injected
        /// write fault), maintenance passes that merge, promote and
        /// collect, scrubs and repairs, Stats, and restarts of the latest
        /// and of random iterations, the restart reply of every target is
        /// byte-identical to the one a cold [`RestartEngine`] gives on a
        /// freshly loaded index. Each check itself restarts every target
        /// in ascending order, so it also moves the head forward.
        #[test]
        fn a_warm_restart_replies_exactly_as_a_cold_one(
            ops in numarck_prop::collection::vec((0u8..11, 0u64..64), 1..32),
            faults in numarck_prop::collection::vec((1u64..80, 0u8..2), 0..4),
        ) {
            let tmp = TempDir::new("warm-head");
            let root = tmp.0.join("root");
            let schedule = faults.iter().fold(FaultSchedule::new(), |s, &(nth, kind)| {
                let fault = if kind == 0 {
                    WriteFault::Error(io::ErrorKind::Other)
                } else {
                    WriteFault::Torn { keep: 9 }
                };
                s.fail_write(nth, fault)
            });
            let shared = shared_on(&root, Arc::new(FaultyBackend::new(schedule)));
            let id = open(&shared, "sim");
            let cold = RestartEngine::new(CheckpointStore::open(root.join("sim")).unwrap());
            let compaction = CompactionConfig {
                merge_window: 2,
                keep_last_fulls: 1,
                min_age_secs: 0,
                ..CompactionConfig::default()
            };
            let mut next = 0u64;
            for (step, &(op, arg)) in ops.iter().enumerate() {
                match op {
                    // Puts: the next iteration, a gap that forces a full,
                    // or a re-put at or below the newest.
                    0..=4 => {
                        let it = match op {
                            3 => next + 3,
                            4 => arg % (next + 1),
                            _ => next,
                        };
                        if let Response::PutDone { .. } = put(&shared, id, it) {
                            next = it + 1;
                        }
                    }
                    5 | 6 => maintain_session(&shared, &handle(&shared, id), compaction),
                    7 => drop(dispatch(Request::Scrub { session: id, repair: arg % 2 == 0 }, &shared)),
                    8 => drop(restart(&shared, id, next.saturating_sub(1))),
                    9 => drop(restart(&shared, id, arg % (next + 2))),
                    _ => drop(dispatch(Request::Stats, &shared)),
                }
                for target in 0..next + 2 {
                    let warm = restart(&shared, id, target);
                    let want = restart_reply(target, cold.restart_at_or_before(target));
                    prop_assert!(
                        warm.to_frame(0) == want.to_frame(0),
                        "step {step} (op {op}, arg {arg}), target {target}: {warm:?} != {want:?}"
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// After any seeded sequence of puts (fulls and deltas, some
        /// failing their commit on an injected write fault), maintenance
        /// passes that merge and collect, scrubs and repairs, restarts,
        /// and server restarts on the same root, the session's index
        /// equals a fresh [`ChainIndex::load`] of its store.
        #[test]
        fn the_live_index_always_equals_a_fresh_load(
            ops in numarck_prop::collection::vec(0u8..10, 1..48),
            faults in numarck_prop::collection::vec((1u64..60, 0u8..2), 0..6),
        ) {
            let tmp = TempDir::new("live-index");
            let root = tmp.0.join("root");
            let schedule = faults.iter().fold(FaultSchedule::new(), |s, &(nth, kind)| {
                let fault = if kind == 0 {
                    WriteFault::Error(io::ErrorKind::Other)
                } else {
                    WriteFault::Torn { keep: 9 }
                };
                s.fail_write(nth, fault)
            });
            let mut shared = shared_on(&root, Arc::new(FaultyBackend::new(schedule)));
            let mut id = open(&shared, "sim");
            let compaction = CompactionConfig {
                merge_window: 2,
                keep_last_fulls: 1,
                min_age_secs: 0,
                ..CompactionConfig::default()
            };
            let mut next = 0u64;
            for (step, &op) in ops.iter().enumerate() {
                let step = format!("step {step} (op {op})");
                match op {
                    // Puts: mostly the next iteration, sometimes a gap
                    // that forces a full.
                    0..=4 => {
                        let it = if op == 4 { next + 3 } else { next };
                        let iterations = vec![(it, vars(it))];
                        let req = Request::PutIterations { session: id, iterations };
                        if let (Response::PutDone { .. }, _) = dispatch(req, &shared) {
                            next = it + 1;
                        }
                    }
                    5 | 6 => maintain_session(&shared, &handle(&shared, id), compaction),
                    7 => {
                        let repair = next.is_multiple_of(2);
                        drop(dispatch(Request::Scrub { session: id, repair }, &shared));
                    }
                    8 => drop(dispatch(Request::Restart { session: id, at_or_before: next }, &shared)),
                    // A server restart on the same root.
                    _ => {
                        drop(shared);
                        shared = shared_on(&root, Arc::new(FsBackend));
                        id = open(&shared, "sim");
                    }
                }
                live_index_is_current(&shared, id, &step)?;
            }
        }
    }
}
