//! Blocking client for the `numarck-serve` protocol.
//!
//! One [`Client`] wraps one TCP connection. Requests are strictly
//! request→response (no pipelining); the client stamps each request with
//! a fresh id and verifies the echo, so a desynchronised stream is an
//! error rather than silent cross-talk. [`ClientError::Busy`] surfaces
//! the server's typed backpressure so callers (the load generator, the
//! CLI) can back off and retry.

use std::fmt;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use numarck_checkpoint::VariableSet;

use crate::wire::{self, ErrorCode, PutOutcome, Request, Response, StatsReply};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The server's work queue was full; retry after a backoff.
    Busy,
    /// The server answered with a typed error.
    Server {
        /// Failure class from the wire.
        code: ErrorCode,
        /// Server-provided detail.
        message: String,
    },
    /// The transport failed (connect, read, write, deadline).
    Io(io::Error),
    /// The server broke protocol (bad frame, wrong opcode, id mismatch).
    Protocol(String),
    /// A retry loop gave up: every attempt failed transiently and the
    /// attempt or wall-clock budget ran out. Carries the count and the
    /// last underlying failure so callers can report both.
    RetriesExhausted {
        /// Attempts made before giving up.
        attempts: u32,
        /// The failure the final attempt died with.
        last: Box<ClientError>,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Busy => write!(f, "server busy: bounded queue is full"),
            ClientError::Server { code, message } => write!(f, "server error [{code}]: {message}"),
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            ClientError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts; last error: {last}")
            }
        }
    }
}

impl ClientError {
    /// Whether retrying the whole call can plausibly succeed: `Busy`
    /// (the bounded queue was momentarily full) and transport failures
    /// that clear on their own — refused/reset/aborted connections (the
    /// server is restarting or shedding load) and deadline expiries
    /// (`TimedOut`/`WouldBlock`, which is what an overloaded-but-alive
    /// server or a congested path produces; the socket timeouts bound
    /// each attempt, the retry loop's wall-clock budget bounds the
    /// total). Everything else — typed server errors, protocol
    /// violations, resolution failures, an exhausted retry loop — is
    /// deterministic or indicates a sick peer, and retrying it only
    /// hides the real problem behind a delay.
    pub fn is_transient(&self) -> bool {
        match self {
            ClientError::Busy => true,
            ClientError::Io(e) => matches!(
                e.kind(),
                io::ErrorKind::ConnectionRefused
                    | io::ErrorKind::ConnectionReset
                    | io::ErrorKind::ConnectionAborted
                    | io::ErrorKind::TimedOut
                    | io::ErrorKind::WouldBlock
            ),
            ClientError::Server { .. }
            | ClientError::Protocol(_)
            | ClientError::RetriesExhausted { .. } => false,
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        // The framing layer reports corrupt frames as InvalidData; that
        // is a protocol failure, not a transport one.
        if e.kind() == io::ErrorKind::InvalidData {
            ClientError::Protocol(e.to_string())
        } else {
            ClientError::Io(e)
        }
    }
}

/// Result alias for client calls.
pub type ClientResult<T> = Result<T, ClientError>;

/// Ceiling on a single [`Client::connect_session`] retry delay, however
/// many doublings the attempt count has earned.
const BACKOFF_CAP: Duration = Duration::from_secs(2);

/// Ceiling on the *total* wall-clock a [`Client::connect_session`]
/// retry loop may spend (sleeps + attempts) before it gives up with
/// [`ClientError::RetriesExhausted`], whatever the attempt budget says.
const RETRY_WALL_CLOCK_CAP: Duration = Duration::from_secs(30);

/// Delay before retry number `attempt` (1-based): `base` doubled per
/// attempt, capped at `cap`, then jittered into `[cap'/2, cap']` so a
/// herd of clients rejected by the same Busy burst does not reconnect
/// in lockstep. The jitter is deterministic (a hash of the attempt
/// number and the base), keeping tests and reruns reproducible.
fn retry_delay(base: Duration, attempt: u32, cap: Duration) -> Duration {
    let doublings = attempt.saturating_sub(1).min(20);
    let exp = base.saturating_mul(1u32 << doublings).min(cap);
    let nanos = exp.as_nanos() as u64;
    if nanos < 2 {
        return exp;
    }
    let h = splitmix64((u64::from(attempt) << 32) ^ nanos);
    Duration::from_nanos(nanos / 2 + h % (nanos - nanos / 2 + 1))
}

/// SplitMix64 finaliser: cheap, well-mixed, dependency-free.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A blocking connection to a checkpoint server.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    next_req_id: u64,
}

impl Client {
    /// Connect with a timeout applied to connect, reads, and writes.
    pub fn connect(addr: impl ToSocketAddrs, timeout: Duration) -> ClientResult<Self> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| ClientError::Protocol("address resolved to nothing".into()))?;
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(Self { stream, next_req_id: 1 })
    }

    /// Connect and open `session` in one go, retrying *transient*
    /// failures ([`ClientError::is_transient`]: `Busy`, refused/reset
    /// connections, deadline expiries) with capped exponential backoff
    /// and deterministic jitter; every other failure returns
    /// immediately. A `Busy` verdict arrives on the first round-trip
    /// and kills the connection (the acceptor never queued it), so each
    /// retry reconnects from scratch. `backoff` is the base delay —
    /// attempt `n` sleeps roughly `backoff × 2^(n-1)`, never more than
    /// `BACKOFF_CAP`; the whole loop never spends more than
    /// `RETRY_WALL_CLOCK_CAP` of wall-clock. When the budget runs out
    /// the error is [`ClientError::RetriesExhausted`], carrying the
    /// attempt count and the last underlying failure. Returns the
    /// client and the session id.
    pub fn connect_session(
        addr: impl ToSocketAddrs + Copy,
        timeout: Duration,
        session: &str,
        attempts: u32,
        backoff: Duration,
    ) -> ClientResult<(Self, u64)> {
        Self::connect_session_within(addr, timeout, session, attempts, backoff, RETRY_WALL_CLOCK_CAP)
    }

    /// [`Self::connect_session`] with an explicit wall-clock budget
    /// (tests use a tiny one; production callers want the default cap).
    pub fn connect_session_within(
        addr: impl ToSocketAddrs + Copy,
        timeout: Duration,
        session: &str,
        attempts: u32,
        backoff: Duration,
        wall_clock: Duration,
    ) -> ClientResult<(Self, u64)> {
        let start = std::time::Instant::now();
        let mut last = None;
        let mut made: u32 = 0;
        for attempt in 0..attempts.max(1) {
            if attempt > 0 {
                let delay = retry_delay(backoff, attempt, BACKOFF_CAP);
                // Give up *before* a sleep that cannot be followed by a
                // within-budget attempt — sleeping past the budget only
                // delays the caller's error handling.
                if start.elapsed() + delay >= wall_clock {
                    break;
                }
                std::thread::sleep(delay);
            }
            made = attempt + 1;
            let mut client = match Client::connect(addr, timeout) {
                Ok(client) => client,
                Err(e) if e.is_transient() => {
                    last = Some(e);
                    continue;
                }
                Err(e) => return Err(e),
            };
            match client.open_session(session) {
                Ok(id) => return Ok((client, id)),
                Err(e) if e.is_transient() => last = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(ClientError::RetriesExhausted {
            attempts: made,
            last: Box::new(last.unwrap_or(ClientError::Busy)),
        })
    }

    /// One request→response round trip.
    fn call(&mut self, req: &Request) -> ClientResult<Response> {
        let req_id = self.next_req_id;
        self.next_req_id += 1;
        io::Write::write_all(&mut self.stream, &req.to_frame(req_id))?;
        let frame = wire::read_frame(&mut self.stream)?;
        let resp = Response::from_frame(&frame)?;
        // Busy is sent by the acceptor with id 0 before it ever sees our
        // request, so exempt it from the echo check.
        if frame.req_id() != req_id && !matches!(resp, Response::Busy) {
            return Err(ClientError::Protocol(format!(
                "response id {} does not match request id {req_id}",
                frame.req_id()
            )));
        }
        match resp {
            Response::Busy => Err(ClientError::Busy),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Ok(other),
        }
    }

    fn unexpected<T>(resp: Response) -> ClientResult<T> {
        Err(ClientError::Protocol(format!("unexpected response {resp:?}")))
    }

    /// Open (or re-attach to) the named session; returns its id.
    pub fn open_session(&mut self, name: &str) -> ClientResult<u64> {
        match self.call(&Request::OpenSession { name: name.to_string() })? {
            Response::SessionOpened { session } => Ok(session),
            other => Self::unexpected(other),
        }
    }

    /// Ingest one iteration.
    pub fn put_iteration(
        &mut self,
        session: u64,
        iteration: u64,
        vars: &VariableSet,
    ) -> ClientResult<PutOutcome> {
        let outcomes = self.put_iterations(session, vec![(iteration, vars.clone())])?;
        outcomes
            .into_iter()
            .next()
            .ok_or_else(|| ClientError::Protocol("PutDone with no outcomes".into()))
    }

    /// Ingest a batch of iterations in order; returns one outcome each.
    pub fn put_iterations(
        &mut self,
        session: u64,
        iterations: Vec<(u64, VariableSet)>,
    ) -> ClientResult<Vec<PutOutcome>> {
        let sent = iterations.len();
        match self.call(&Request::PutIterations { session, iterations })? {
            Response::PutDone { outcomes } => {
                if outcomes.len() != sent {
                    return Err(ClientError::Protocol(format!(
                        "sent {sent} iterations, got {} outcomes",
                        outcomes.len()
                    )));
                }
                Ok(outcomes)
            }
            other => Self::unexpected(other),
        }
    }

    /// Recover the newest restartable state at or before `at_or_before`.
    pub fn restart(&mut self, session: u64, at_or_before: u64) -> ClientResult<RestartReply> {
        match self.call(&Request::Restart { session, at_or_before })? {
            Response::RestartData { achieved, base, deltas_applied, lost, vars } => {
                Ok(RestartReply { achieved, base, deltas_applied, lost, vars })
            }
            other => Self::unexpected(other),
        }
    }

    /// Scrub (and optionally repair) the session's store.
    pub fn scrub(&mut self, session: u64, repair: bool) -> ClientResult<ScrubReply> {
        match self.call(&Request::Scrub { session, repair })? {
            Response::ScrubDone { checked, quarantined, anchored_at, lost } => {
                Ok(ScrubReply { checked, quarantined, anchored_at, lost })
            }
            other => Self::unexpected(other),
        }
    }

    /// Server counters and per-session summaries.
    pub fn stats(&mut self) -> ClientResult<StatsReply> {
        match self.call(&Request::Stats)? {
            Response::StatsData(stats) => Ok(*stats),
            other => Self::unexpected(other),
        }
    }

    /// Close a session (its on-disk store remains).
    pub fn close_session(&mut self, session: u64) -> ClientResult<()> {
        match self.call(&Request::CloseSession { session })? {
            Response::SessionClosed => Ok(()),
            other => Self::unexpected(other),
        }
    }

    /// Ask the server to drain and exit.
    pub fn shutdown(&mut self) -> ClientResult<()> {
        match self.call(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Self::unexpected(other),
        }
    }
}

/// Decoded `RestartData` response.
#[derive(Debug, Clone)]
pub struct RestartReply {
    /// The iteration actually recovered.
    pub achieved: u64,
    /// The full checkpoint the replay started from.
    pub base: u64,
    /// Deltas applied on top of the base.
    pub deltas_applied: u64,
    /// Iterations that could not be recovered on the way down.
    pub lost: u32,
    /// The reconstructed variables.
    pub vars: VariableSet,
}

/// Decoded `ScrubDone` response.
#[derive(Debug, Clone, Copy)]
pub struct ScrubReply {
    /// Files examined.
    pub checked: u32,
    /// Files quarantined.
    pub quarantined: u32,
    /// Where the store was re-anchored (repair only).
    pub anchored_at: Option<u64>,
    /// Intact-but-orphaned iterations given up (repair only).
    pub lost: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_errors_are_busy_connection_faults_and_deadlines() {
        assert!(ClientError::Busy.is_transient());
        for kind in [
            io::ErrorKind::ConnectionRefused,
            io::ErrorKind::ConnectionReset,
            io::ErrorKind::ConnectionAborted,
            // Deadline expiries: an overloaded-but-alive server, worth
            // retrying under the loop's wall-clock budget.
            io::ErrorKind::TimedOut,
            io::ErrorKind::WouldBlock,
        ] {
            assert!(ClientError::Io(io::Error::new(kind, "x")).is_transient(), "{kind:?}");
        }
        for kind in [io::ErrorKind::NotFound, io::ErrorKind::PermissionDenied, io::ErrorKind::Other]
        {
            assert!(!ClientError::Io(io::Error::new(kind, "x")).is_transient(), "{kind:?}");
        }
        assert!(!ClientError::Protocol("desync".into()).is_transient());
        let server =
            ClientError::Server { code: ErrorCode::BadRequest, message: "no".into() };
        assert!(!server.is_transient());
        let exhausted =
            ClientError::RetriesExhausted { attempts: 7, last: Box::new(ClientError::Busy) };
        assert!(!exhausted.is_transient(), "an exhausted loop must not be retried blindly");
    }

    #[test]
    fn exhausted_retries_report_the_attempt_count_and_last_error() {
        // Nobody listens on this port (bound then dropped), so every
        // attempt fails with a transient ConnectionRefused.
        let addr = {
            let sock = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            sock.local_addr().unwrap()
        };
        let err = Client::connect_session_within(
            addr,
            Duration::from_millis(200),
            "s",
            3,
            Duration::from_millis(1),
            Duration::from_secs(5),
        )
        .unwrap_err();
        match err {
            ClientError::RetriesExhausted { attempts, last } => {
                assert_eq!(attempts, 3, "every budgeted attempt was made");
                assert!(last.is_transient(), "the last error was the transient one: {last}");
            }
            other => panic!("expected RetriesExhausted, got {other}"),
        }
    }

    #[test]
    fn retry_wall_clock_budget_stops_the_loop_early() {
        let addr = {
            let sock = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            sock.local_addr().unwrap()
        };
        // A generous attempt budget but a wall-clock budget that only
        // lets a couple of attempts through: attempts made must fall
        // well short of the attempt budget.
        let start = std::time::Instant::now();
        let err = Client::connect_session_within(
            addr,
            Duration::from_millis(200),
            "s",
            1000,
            Duration::from_millis(40),
            Duration::from_millis(120),
        )
        .unwrap_err();
        assert!(start.elapsed() < Duration::from_secs(5), "loop must not run anywhere near 1000 attempts");
        match err {
            ClientError::RetriesExhausted { attempts, .. } => {
                assert!(attempts >= 1, "at least the first attempt runs");
                assert!(attempts < 1000, "wall-clock budget must cut the loop short: {attempts}");
            }
            other => panic!("expected RetriesExhausted, got {other}"),
        }
    }

    #[test]
    fn retry_delay_is_deterministic_exponential_and_capped() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_secs(2);
        for attempt in 1..=32 {
            let d = retry_delay(base, attempt, cap);
            assert_eq!(d, retry_delay(base, attempt, cap), "attempt {attempt}: deterministic");
            // Jitter keeps the delay within [ideal/2, ideal] where
            // ideal = min(base × 2^(n-1), cap).
            let ideal = base.saturating_mul(1u32 << attempt.saturating_sub(1).min(20)).min(cap);
            assert!(d <= ideal, "attempt {attempt}: {d:?} > {ideal:?}");
            assert!(d >= ideal / 2, "attempt {attempt}: {d:?} < {:?}", ideal / 2);
            assert!(d <= cap, "attempt {attempt}: cap violated");
        }
    }

    #[test]
    fn retry_delays_vary_across_attempts_below_the_cap() {
        // The jitter must actually spread attempts, not collapse to the
        // midpoint: consecutive capped delays should differ.
        let base = Duration::from_secs(4); // above cap from attempt 1
        let cap = Duration::from_secs(2);
        let d1 = retry_delay(base, 1, cap);
        let d2 = retry_delay(base, 2, cap);
        let d3 = retry_delay(base, 3, cap);
        assert!(d1 != d2 || d2 != d3, "jitter is degenerate: {d1:?} {d2:?} {d3:?}");
    }

    #[test]
    fn retry_delay_handles_degenerate_bases() {
        assert_eq!(retry_delay(Duration::ZERO, 5, BACKOFF_CAP), Duration::ZERO);
        let tiny = retry_delay(Duration::from_nanos(1), 1, BACKOFF_CAP);
        assert_eq!(tiny, Duration::from_nanos(1));
    }
}
