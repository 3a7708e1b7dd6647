//! The `numarck-serve` wire protocol.
//!
//! Length-prefixed binary frames over a byte stream, following the same
//! conventions as `numarck-checkpoint/format.rs` (little-endian fields,
//! u16-length-prefixed UTF-8 names, trailing CRC-32 over everything that
//! precedes it):
//!
//! ```text
//! [0..4)   magic b"NSRV"
//! [4..6)   protocol version (u16)
//! [6]      opcode (u8)
//! [7]      reserved (0)
//! [8..16)  request id (u64) — echoed verbatim in the response
//! [16..20) payload length (u32)
//! [20..)   payload (opcode-specific)
//! [..+4)   crc32 of every byte above (u32)
//! ```
//!
//! Requests use opcodes `0x01..=0x07`; responses set the high bit
//! (`0x81..`), plus two out-of-band replies: [`Response::Busy`] (`0xBB`,
//! sent by the acceptor when the work queue is full — the typed
//! backpressure signal) and [`Response::Error`] (`0xEE`). A frame that
//! fails CRC or structural validation is answered with
//! `Error { code: Malformed }` and the connection is closed, since the
//! stream can no longer be trusted to be frame-aligned.

use std::io::{self, Read, Write};

use numarck::serialize as nser;
use numarck_checkpoint::VariableSet;
use numarck_obs::HistogramSummary;

/// Magic bytes opening every frame.
pub const MAGIC: [u8; 4] = *b"NSRV";
/// Current protocol version. Bumped on any incompatible change; a server
/// answers a version it does not speak with `Error { Malformed }`.
pub const VERSION: u16 = 1;
/// Frame header length (magic + version + opcode + reserved + request id
/// + payload length).
pub const HEADER_LEN: usize = 20;
/// Hard ceiling on a single frame's payload, so a corrupt or hostile
/// length field cannot make either side allocate unboundedly.
pub const MAX_PAYLOAD: u32 = 256 * 1024 * 1024;

/// Wire opcodes. Public so that forwarding hops (the `numarck-cluster`
/// router) can classify frames without decoding payloads.
pub mod opcode {
    #![allow(missing_docs)]

    pub const OPEN_SESSION: u8 = 0x01;
    pub const PUT_ITERATIONS: u8 = 0x02;
    pub const RESTART: u8 = 0x03;
    pub const SCRUB: u8 = 0x04;
    pub const STATS: u8 = 0x05;
    pub const CLOSE_SESSION: u8 = 0x06;
    pub const SHUTDOWN: u8 = 0x07;

    pub const SESSION_OPENED: u8 = 0x81;
    pub const PUT_DONE: u8 = 0x82;
    pub const RESTART_DATA: u8 = 0x83;
    pub const SCRUB_DONE: u8 = 0x84;
    pub const STATS_DATA: u8 = 0x85;
    pub const SESSION_CLOSED: u8 = 0x86;
    pub const SHUTTING_DOWN: u8 = 0x87;
    pub const BUSY: u8 = 0xBB;
    pub const ERROR: u8 = 0xEE;
}

/// Why a request failed, as carried by [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame or payload did not parse (bad magic/version/CRC/shape).
    Malformed,
    /// The request named a session id the server does not have open.
    UnknownSession,
    /// Compression or reconstruction failed (NUMARCK-level error).
    Compress,
    /// Storage I/O failed after the retry policy was exhausted.
    Io,
    /// The server is draining and no longer accepts new work.
    Draining,
    /// The request was structurally valid but semantically rejected
    /// (bad session name, zero-count batch, ...).
    BadRequest,
    /// Nothing satisfies the request (no restartable iteration, ...).
    NotFound,
}

impl ErrorCode {
    fn to_u16(self) -> u16 {
        match self {
            ErrorCode::Malformed => 1,
            ErrorCode::UnknownSession => 2,
            ErrorCode::Compress => 3,
            ErrorCode::Io => 4,
            ErrorCode::Draining => 5,
            ErrorCode::BadRequest => 6,
            ErrorCode::NotFound => 7,
        }
    }

    fn from_u16(v: u16) -> io::Result<Self> {
        Ok(match v {
            1 => ErrorCode::Malformed,
            2 => ErrorCode::UnknownSession,
            3 => ErrorCode::Compress,
            4 => ErrorCode::Io,
            5 => ErrorCode::Draining,
            6 => ErrorCode::BadRequest,
            7 => ErrorCode::NotFound,
            other => return Err(corrupt(format!("unknown error code {other}"))),
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ErrorCode::Malformed => "malformed",
            ErrorCode::UnknownSession => "unknown-session",
            ErrorCode::Compress => "compress",
            ErrorCode::Io => "io",
            ErrorCode::Draining => "draining",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::NotFound => "not-found",
        };
        f.write_str(name)
    }
}

/// What kind of checkpoint a `PutIterations` entry produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WrittenKind {
    /// A full checkpoint (scheduled, first-in-session, or forced).
    Full,
    /// A NUMARCK delta against the session's previous iteration.
    Delta,
    /// A full checkpoint forced by change-distribution drift.
    FullOnDrift,
}

impl WrittenKind {
    fn to_u8(self) -> u8 {
        match self {
            WrittenKind::Full => 0,
            WrittenKind::Delta => 1,
            WrittenKind::FullOnDrift => 2,
        }
    }

    fn from_u8(v: u8) -> io::Result<Self> {
        Ok(match v {
            0 => WrittenKind::Full,
            1 => WrittenKind::Delta,
            2 => WrittenKind::FullOnDrift,
            other => return Err(corrupt(format!("unknown written kind {other}"))),
        })
    }
}

/// Per-iteration outcome of an ingest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PutOutcome {
    /// The iteration that was checkpointed.
    pub iteration: u64,
    /// What was written for it.
    pub kind: WrittenKind,
    /// Storage-write retries the retry policy had to spend.
    pub retries: u32,
}

/// Per-session summary inside a [`StatsReply`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionStat {
    /// Server-assigned session id.
    pub id: u64,
    /// The name the session was opened under.
    pub name: String,
    /// Checkpoint files currently stored for the session.
    pub files: u32,
    /// Newest iteration that restarts cleanly, if any.
    pub latest_restartable: Option<u64>,
}

/// One named latency summary inside the [`StatsReply`] extension.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LatencyStat {
    /// Metric name (e.g. `nsrv_request_put_ns`).
    pub name: String,
    /// Count/sum plus p50/p90/p99 midpoints, in nanoseconds.
    pub summary: HistogramSummary,
}

/// Payload of [`Response::StatsData`].
///
/// The fields after `sessions` form the *observability extension*
/// introduced together with the `numarck-obs` registry. The extension
/// is appended after the original payload, so a new decoder reading an
/// old-format peer's reply (no trailing bytes after the sessions) fills
/// the extension with defaults instead of failing.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatsReply {
    /// Connections accepted into service (excludes Busy rejections).
    pub accepted: u64,
    /// Requests answered (any response kind except Busy).
    pub served: u64,
    /// Connections rejected with [`Response::Busy`] by the acceptor.
    pub busy_rejected: u64,
    /// Iterations ingested across all sessions.
    pub iterations_ingested: u64,
    /// Raw payload bytes ingested (sum of `8 × points` over variables).
    pub bytes_ingested: u64,
    /// Storage-write retries spent across all sessions.
    pub write_retries: u64,
    /// Whether the server is draining.
    pub draining: bool,
    /// Per-session summaries, ordered by id.
    pub sessions: Vec<SessionStat>,
    /// Extension: connections sitting in the bounded hand-off queue at
    /// reply time (0 from an old-format peer).
    pub queue_depth: i64,
    /// Extension: per-request-type latency summaries (empty from an
    /// old-format peer).
    pub latencies: Vec<LatencyStat>,
    /// Durability extension: uncommitted journal intents replayed by
    /// recovery passes since the server started (0 from older peers, as
    /// for every field below).
    pub journal_replayed: u64,
    /// Durability extension: replayed intents whose write never finished
    /// and was rolled back.
    pub journal_rolled_back: u64,
    /// Durability extension: recovery passes that had to quarantine a
    /// half-applied write and re-anchor the chain.
    pub recovery_repairs: u64,
    /// Durability extension: idle connections disconnected to reclaim
    /// their worker (see `ServerConfig::idle_timeout`).
    pub idle_disconnects: u64,
    /// Durability extension: replica copies rewritten by read-repair
    /// during scrub (process-wide, replicated backends only).
    pub replica_repairs: u64,
    /// Durability extension: files where no replica quorum agreed on
    /// valid content (process-wide, replicated backends only).
    pub replica_quorum_failures: u64,
    /// Compaction extension: background maintenance passes run
    /// (process-wide, 0 from older peers, as for every field below).
    pub compact_runs: u64,
    /// Compaction extension: plain deltas superseded by merged deltas.
    pub compact_deltas_merged: u64,
    /// Compaction extension: store bytes reclaimed by compaction + GC.
    pub compact_bytes_reclaimed: u64,
    /// Compaction extension: files deleted by retention GC.
    pub gc_files_removed: u64,
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Open (or re-attach to) the named session.
    OpenSession {
        /// Session name; `[A-Za-z0-9._-]{1,64}`, doubles as the store
        /// subdirectory name.
        name: String,
    },
    /// Ingest a batch of iterations, in order, into a session.
    PutIterations {
        /// Session id from [`Response::SessionOpened`].
        session: u64,
        /// `(iteration, variables)` pairs; must be non-empty.
        iterations: Vec<(u64, VariableSet)>,
    },
    /// Rebuild the newest restartable state at or before an iteration.
    Restart {
        /// Session id.
        session: u64,
        /// Upper bound on the iteration to recover.
        at_or_before: u64,
    },
    /// Integrity-scrub a session's store (optionally repairing it).
    Scrub {
        /// Session id.
        session: u64,
        /// Also quarantine orphans and re-anchor (the repair pass).
        repair: bool,
    },
    /// Server and per-session counters.
    Stats,
    /// Close a session (its store stays on disk; the name can be
    /// reopened later).
    CloseSession {
        /// Session id.
        session: u64,
    },
    /// Ask the server to drain: finish in-flight work, refuse new work,
    /// close the listener, exit.
    Shutdown,
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The session is open under this id.
    SessionOpened {
        /// Server-assigned id, stable for the life of the session.
        session: u64,
    },
    /// The batch was ingested; one outcome per iteration, in order.
    PutDone {
        /// Per-iteration outcomes.
        outcomes: Vec<PutOutcome>,
    },
    /// A restart result.
    RestartData {
        /// The iteration actually recovered.
        achieved: u64,
        /// The full checkpoint the replay started from.
        base: u64,
        /// Deltas applied on top of the base.
        deltas_applied: u64,
        /// Iterations between the request and `achieved` that could not
        /// be recovered.
        lost: u32,
        /// The reconstructed variables.
        vars: VariableSet,
    },
    /// A scrub (or scrub+repair) finished.
    ScrubDone {
        /// Files examined.
        checked: u32,
        /// Files quarantined.
        quarantined: u32,
        /// Where the store was re-anchored (repair only).
        anchored_at: Option<u64>,
        /// Intact-but-orphaned iterations given up (repair only).
        lost: u32,
    },
    /// Counters.
    StatsData(Box<StatsReply>),
    /// The session is closed.
    SessionClosed,
    /// Drain has begun; this connection will be closed.
    ShuttingDown,
    /// The bounded work queue is full — retry later. Sent by the
    /// acceptor before the connection is dropped.
    Busy,
    /// The request failed.
    Error {
        /// Failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// One verified frame: its complete wire bytes (header, payload and
/// trailing CRC), checked once when it was read. Only the frame readers
/// construct one, so a `Frame` is always CRC-valid, and a forwarding hop
/// can send [`Frame::into_bytes`] on without encoding or checking again.
#[derive(Debug, Clone)]
pub struct Frame {
    bytes: Vec<u8>,
}

impl Frame {
    /// The opcode byte.
    pub fn opcode(&self) -> u8 {
        self.bytes[6]
    }

    /// Request id (echoed between request and response).
    pub fn req_id(&self) -> u64 {
        u64::from_le_bytes(self.bytes[8..16].try_into().expect("8 bytes"))
    }

    /// Opcode-specific payload bytes.
    pub fn payload(&self) -> &[u8] {
        &self.bytes[HEADER_LEN..self.bytes.len() - 4]
    }

    /// The frame exactly as it travelled.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The frame's wire bytes, for forwarding without a copy.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

fn corrupt(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Serialise a complete frame (header + payload + trailing CRC) into a
/// byte vector. The writer-free twin of [`write_frame`], for callers
/// that hand a response's bytes to a connection loop instead of writing
/// straight to a stream.
pub fn encode_frame(opcode: u8, req_id: u64, payload: &[u8]) -> Vec<u8> {
    assert!(payload.len() <= MAX_PAYLOAD as usize, "payload exceeds MAX_PAYLOAD");
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len() + 4);
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.push(opcode);
    buf.push(0);
    buf.extend_from_slice(&req_id.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    let crc = nser::crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

/// Serialise a frame and write it out, flushing.
pub fn write_frame(
    w: &mut impl Write,
    opcode: u8,
    req_id: u64,
    payload: &[u8],
) -> io::Result<()> {
    w.write_all(&encode_frame(opcode, req_id, payload))?;
    w.flush()
}

/// Check a frame header (magic, version, payload bound) and return the
/// length of the whole frame it announces, CRC included.
fn frame_len(header: &[u8]) -> io::Result<usize> {
    if header[0..4] != MAGIC {
        return Err(corrupt("bad frame magic".into()));
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != VERSION {
        return Err(corrupt(format!("unsupported protocol version {version}")));
    }
    let payload_len = u32::from_le_bytes(header[16..20].try_into().expect("4 bytes"));
    if payload_len > MAX_PAYLOAD {
        return Err(corrupt(format!("payload length {payload_len} exceeds limit")));
    }
    Ok(HEADER_LEN + payload_len as usize + 4)
}

/// Check the trailing CRC of a complete frame in place.
fn check_crc(frame: &[u8]) -> io::Result<()> {
    let body = frame.len() - 4;
    let stored = u32::from_le_bytes(frame[body..].try_into().expect("4 bytes"));
    let computed = nser::crc32(&frame[..body]);
    if stored != computed {
        return Err(corrupt(format!(
            "frame crc mismatch: stored {stored:#x}, computed {computed:#x}"
        )));
    }
    Ok(())
}

/// Whether a request opcode's payload begins with a session id
/// (little-endian u64 at payload offset 0). A routing hop rewrites that
/// id in flight when the downstream shard knows the session under a
/// different id than the gateway handed the client.
pub fn request_has_leading_session(op: u8) -> bool {
    matches!(
        op,
        opcode::PUT_ITERATIONS | opcode::RESTART | opcode::SCRUB | opcode::CLOSE_SESSION
    )
}

/// Recompute and rewrite the trailing CRC of a complete frame after an
/// in-place payload edit.
pub fn reseal_frame(frame: &mut [u8]) {
    assert!(frame.len() >= HEADER_LEN + 4, "not a complete frame");
    let body = frame.len() - 4;
    let crc = nser::crc32(&frame[..body]);
    frame[body..].copy_from_slice(&crc.to_le_bytes());
}

/// Rewrite the leading session id of a complete request frame
/// (header + payload + CRC) in place and reseal the trailing CRC.
/// Fails if the frame is too short to hold a session id or its opcode
/// is not one for which [`request_has_leading_session`] holds.
pub fn patch_session_id(frame: &mut [u8], session: u64) -> io::Result<()> {
    if frame.len() < HEADER_LEN + 8 + 4 {
        return Err(corrupt("frame too short to carry a session id".into()));
    }
    if !request_has_leading_session(frame[6]) {
        return Err(corrupt(format!(
            "opcode {:#x} has no leading session id",
            frame[6]
        )));
    }
    frame[HEADER_LEN..HEADER_LEN + 8].copy_from_slice(&session.to_le_bytes());
    reseal_frame(frame);
    Ok(())
}

/// Read one frame, blocking until it fully arrives.
pub fn read_frame(r: &mut impl Read) -> io::Result<Frame> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    finish_frame(r, header)
}

/// Read the rest of a frame whose first header byte has already been
/// consumed (the server's idle poll reads one byte at a fast poll
/// interval, then widens the socket timeout to the per-request deadline
/// and hands the byte here).
pub fn read_frame_rest(first: u8, r: &mut impl Read) -> io::Result<Frame> {
    let mut header = [0u8; HEADER_LEN];
    header[0] = first;
    r.read_exact(&mut header[1..])?;
    finish_frame(r, header)
}

/// Validate a header, read the payload and CRC into the same buffer,
/// and check the CRC there.
fn finish_frame(r: &mut impl Read, header: [u8; HEADER_LEN]) -> io::Result<Frame> {
    let mut bytes = vec![0u8; frame_len(&header)?];
    bytes[..HEADER_LEN].copy_from_slice(&header);
    r.read_exact(&mut bytes[HEADER_LEN..])?;
    check_crc(&bytes)?;
    Ok(Frame { bytes })
}

// ---------------------------------------------------------------------
// Payload cursor
// ---------------------------------------------------------------------

/// Checked little-endian reader over a payload slice.
struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.0.len() < n {
            return Err(corrupt(format!("payload truncated: want {n}, have {}", self.0.len())));
        }
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Ok(head)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> io::Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn i64(&mut self) -> io::Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Pre-allocation guard for length-prefixed sequences: clamp a
    /// declared element count to what the remaining payload could
    /// possibly hold (`min_size` bytes per element), so a corrupt or
    /// hostile count cannot force a huge `Vec::with_capacity` before
    /// the first element read fails.
    fn seq_capacity(&self, declared: usize, min_size: usize) -> usize {
        declared.min(self.0.len() / min_size.max(1))
    }

    fn string(&mut self) -> io::Result<String> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| corrupt("string not UTF-8".into()))
    }

    fn vars(&mut self) -> io::Result<VariableSet> {
        let count = self.u32()? as usize;
        let mut vars = VariableSet::new();
        for _ in 0..count {
            let name = self.string()?;
            let byte_len = self.u64()? as usize;
            if !byte_len.is_multiple_of(8) {
                return Err(corrupt(format!(
                    "variable '{name}' payload not a multiple of 8 bytes"
                )));
            }
            let bytes = self.take(byte_len)?;
            let values: Vec<f64> = bytes
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
                .collect();
            vars.insert(name, values);
        }
        Ok(vars)
    }

    fn done(&self) -> io::Result<()> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err(corrupt(format!("{} trailing payload bytes", self.0.len())))
        }
    }
}

fn put_string(buf: &mut Vec<u8>, s: &str) {
    assert!(s.len() <= u16::MAX as usize, "string too long for wire");
    buf.extend_from_slice(&(s.len() as u16).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn put_vars(buf: &mut Vec<u8>, vars: &VariableSet) {
    buf.extend_from_slice(&(vars.len() as u32).to_le_bytes());
    for (name, data) in vars {
        put_string(buf, name);
        buf.extend_from_slice(&((data.len() * 8) as u64).to_le_bytes());
        for &v in data {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }
}

// ---------------------------------------------------------------------
// Request encode/decode
// ---------------------------------------------------------------------

impl Request {
    /// The opcode this request travels under.
    pub fn opcode(&self) -> u8 {
        match self {
            Request::OpenSession { .. } => opcode::OPEN_SESSION,
            Request::PutIterations { .. } => opcode::PUT_ITERATIONS,
            Request::Restart { .. } => opcode::RESTART,
            Request::Scrub { .. } => opcode::SCRUB,
            Request::Stats => opcode::STATS,
            Request::CloseSession { .. } => opcode::CLOSE_SESSION,
            Request::Shutdown => opcode::SHUTDOWN,
        }
    }

    /// Serialise the payload (header and CRC are the framing layer's).
    pub fn payload(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Request::OpenSession { name } => put_string(&mut buf, name),
            Request::PutIterations { session, iterations } => {
                buf.extend_from_slice(&session.to_le_bytes());
                buf.extend_from_slice(&(iterations.len() as u32).to_le_bytes());
                for (iteration, vars) in iterations {
                    buf.extend_from_slice(&iteration.to_le_bytes());
                    put_vars(&mut buf, vars);
                }
            }
            Request::Restart { session, at_or_before } => {
                buf.extend_from_slice(&session.to_le_bytes());
                buf.extend_from_slice(&at_or_before.to_le_bytes());
            }
            Request::Scrub { session, repair } => {
                buf.extend_from_slice(&session.to_le_bytes());
                buf.push(u8::from(*repair));
            }
            Request::Stats | Request::Shutdown => {}
            Request::CloseSession { session } => {
                buf.extend_from_slice(&session.to_le_bytes());
            }
        }
        buf
    }

    /// Decode a request from a frame.
    pub fn from_frame(frame: &Frame) -> io::Result<Self> {
        let mut cur = Cursor(frame.payload());
        let req = match frame.opcode() {
            opcode::OPEN_SESSION => Request::OpenSession { name: cur.string()? },
            opcode::PUT_ITERATIONS => {
                let session = cur.u64()?;
                let count = cur.u32()? as usize;
                // 8-byte iteration + 4-byte variable count minimum.
                let mut iterations = Vec::with_capacity(cur.seq_capacity(count, 12));
                for _ in 0..count {
                    let iteration = cur.u64()?;
                    iterations.push((iteration, cur.vars()?));
                }
                Request::PutIterations { session, iterations }
            }
            opcode::RESTART => {
                Request::Restart { session: cur.u64()?, at_or_before: cur.u64()? }
            }
            opcode::SCRUB => Request::Scrub { session: cur.u64()?, repair: cur.u8()? != 0 },
            opcode::STATS => Request::Stats,
            opcode::CLOSE_SESSION => Request::CloseSession { session: cur.u64()? },
            opcode::SHUTDOWN => Request::Shutdown,
            other => return Err(corrupt(format!("unknown request opcode {other:#x}"))),
        };
        cur.done()?;
        Ok(req)
    }
}

// ---------------------------------------------------------------------
// Response encode/decode
// ---------------------------------------------------------------------

impl Response {
    /// The opcode this response travels under.
    pub fn opcode(&self) -> u8 {
        match self {
            Response::SessionOpened { .. } => opcode::SESSION_OPENED,
            Response::PutDone { .. } => opcode::PUT_DONE,
            Response::RestartData { .. } => opcode::RESTART_DATA,
            Response::ScrubDone { .. } => opcode::SCRUB_DONE,
            Response::StatsData(_) => opcode::STATS_DATA,
            Response::SessionClosed => opcode::SESSION_CLOSED,
            Response::ShuttingDown => opcode::SHUTTING_DOWN,
            Response::Busy => opcode::BUSY,
            Response::Error { .. } => opcode::ERROR,
        }
    }

    /// Serialise the payload (header and CRC are the framing layer's).
    pub fn payload(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Response::SessionOpened { session } => {
                buf.extend_from_slice(&session.to_le_bytes());
            }
            Response::PutDone { outcomes } => {
                buf.extend_from_slice(&(outcomes.len() as u32).to_le_bytes());
                for o in outcomes {
                    buf.extend_from_slice(&o.iteration.to_le_bytes());
                    buf.push(o.kind.to_u8());
                    buf.extend_from_slice(&o.retries.to_le_bytes());
                }
            }
            Response::RestartData { achieved, base, deltas_applied, lost, vars } => {
                buf.extend_from_slice(&achieved.to_le_bytes());
                buf.extend_from_slice(&base.to_le_bytes());
                buf.extend_from_slice(&deltas_applied.to_le_bytes());
                buf.extend_from_slice(&lost.to_le_bytes());
                put_vars(&mut buf, vars);
            }
            Response::ScrubDone { checked, quarantined, anchored_at, lost } => {
                buf.extend_from_slice(&checked.to_le_bytes());
                buf.extend_from_slice(&quarantined.to_le_bytes());
                buf.push(u8::from(anchored_at.is_some()));
                buf.extend_from_slice(&anchored_at.unwrap_or(0).to_le_bytes());
                buf.extend_from_slice(&lost.to_le_bytes());
            }
            Response::StatsData(s) => {
                for v in [
                    s.accepted,
                    s.served,
                    s.busy_rejected,
                    s.iterations_ingested,
                    s.bytes_ingested,
                    s.write_retries,
                ] {
                    buf.extend_from_slice(&v.to_le_bytes());
                }
                buf.push(u8::from(s.draining));
                buf.extend_from_slice(&(s.sessions.len() as u32).to_le_bytes());
                for sess in &s.sessions {
                    buf.extend_from_slice(&sess.id.to_le_bytes());
                    put_string(&mut buf, &sess.name);
                    buf.extend_from_slice(&sess.files.to_le_bytes());
                    buf.push(u8::from(sess.latest_restartable.is_some()));
                    buf.extend_from_slice(&sess.latest_restartable.unwrap_or(0).to_le_bytes());
                }
                // Observability extension (see `StatsReply` docs).
                buf.extend_from_slice(&s.queue_depth.to_le_bytes());
                buf.extend_from_slice(&(s.latencies.len() as u32).to_le_bytes());
                for lat in &s.latencies {
                    put_string(&mut buf, &lat.name);
                    for v in [
                        lat.summary.count,
                        lat.summary.sum,
                        lat.summary.p50,
                        lat.summary.p90,
                        lat.summary.p99,
                    ] {
                        buf.extend_from_slice(&v.to_le_bytes());
                    }
                }
                // Durability extension (see `StatsReply` docs).
                for v in [
                    s.journal_replayed,
                    s.journal_rolled_back,
                    s.recovery_repairs,
                    s.idle_disconnects,
                    s.replica_repairs,
                    s.replica_quorum_failures,
                ] {
                    buf.extend_from_slice(&v.to_le_bytes());
                }
                // Compaction extension (see `StatsReply` docs).
                for v in [
                    s.compact_runs,
                    s.compact_deltas_merged,
                    s.compact_bytes_reclaimed,
                    s.gc_files_removed,
                ] {
                    buf.extend_from_slice(&v.to_le_bytes());
                }
            }
            Response::SessionClosed | Response::ShuttingDown | Response::Busy => {}
            Response::Error { code, message } => {
                buf.extend_from_slice(&code.to_u16().to_le_bytes());
                put_string(&mut buf, message);
            }
        }
        buf
    }

    /// Decode a response from a frame.
    pub fn from_frame(frame: &Frame) -> io::Result<Self> {
        let mut cur = Cursor(frame.payload());
        let resp = match frame.opcode() {
            opcode::SESSION_OPENED => Response::SessionOpened { session: cur.u64()? },
            opcode::PUT_DONE => {
                let count = cur.u32()? as usize;
                // 8-byte iteration + kind byte + 4-byte retries.
                let mut outcomes = Vec::with_capacity(cur.seq_capacity(count, 13));
                for _ in 0..count {
                    outcomes.push(PutOutcome {
                        iteration: cur.u64()?,
                        kind: WrittenKind::from_u8(cur.u8()?)?,
                        retries: cur.u32()?,
                    });
                }
                Response::PutDone { outcomes }
            }
            opcode::RESTART_DATA => Response::RestartData {
                achieved: cur.u64()?,
                base: cur.u64()?,
                deltas_applied: cur.u64()?,
                lost: cur.u32()?,
                vars: cur.vars()?,
            },
            opcode::SCRUB_DONE => {
                let checked = cur.u32()?;
                let quarantined = cur.u32()?;
                let has_anchor = cur.u8()? != 0;
                let anchor = cur.u64()?;
                let lost = cur.u32()?;
                Response::ScrubDone {
                    checked,
                    quarantined,
                    anchored_at: has_anchor.then_some(anchor),
                    lost,
                }
            }
            opcode::STATS_DATA => {
                let mut s = StatsReply {
                    accepted: cur.u64()?,
                    served: cur.u64()?,
                    busy_rejected: cur.u64()?,
                    iterations_ingested: cur.u64()?,
                    bytes_ingested: cur.u64()?,
                    write_retries: cur.u64()?,
                    draining: cur.u8()? != 0,
                    ..StatsReply::default()
                };
                let count = cur.u32()? as usize;
                for _ in 0..count {
                    let id = cur.u64()?;
                    let name = cur.string()?;
                    let files = cur.u32()?;
                    let has_latest = cur.u8()? != 0;
                    let latest = cur.u64()?;
                    s.sessions.push(SessionStat {
                        id,
                        name,
                        files,
                        latest_restartable: has_latest.then_some(latest),
                    });
                }
                // Observability extension: absent from old-format peers,
                // in which case the defaults above stand.
                if !cur.is_empty() {
                    s.queue_depth = cur.i64()?;
                    let lat_count = cur.u32()? as usize;
                    for _ in 0..lat_count {
                        let name = cur.string()?;
                        let summary = HistogramSummary {
                            count: cur.u64()?,
                            sum: cur.u64()?,
                            p50: cur.u64()?,
                            p90: cur.u64()?,
                            p99: cur.u64()?,
                        };
                        s.latencies.push(LatencyStat { name, summary });
                    }
                    // Durability extension: again absent from peers that
                    // predate it; defaults stand. A *truncated* tail is
                    // still an error (the u64 reads below fail).
                    if !cur.is_empty() {
                        s.journal_replayed = cur.u64()?;
                        s.journal_rolled_back = cur.u64()?;
                        s.recovery_repairs = cur.u64()?;
                        s.idle_disconnects = cur.u64()?;
                        s.replica_repairs = cur.u64()?;
                        s.replica_quorum_failures = cur.u64()?;
                        // Compaction extension: once more, absent from
                        // peers that predate it; defaults stand.
                        if !cur.is_empty() {
                            s.compact_runs = cur.u64()?;
                            s.compact_deltas_merged = cur.u64()?;
                            s.compact_bytes_reclaimed = cur.u64()?;
                            s.gc_files_removed = cur.u64()?;
                        }
                    }
                }
                Response::StatsData(Box::new(s))
            }
            opcode::SESSION_CLOSED => Response::SessionClosed,
            opcode::SHUTTING_DOWN => Response::ShuttingDown,
            opcode::BUSY => Response::Busy,
            opcode::ERROR => Response::Error {
                code: ErrorCode::from_u16(cur.u16()?)?,
                message: cur.string()?,
            },
            other => return Err(corrupt(format!("unknown response opcode {other:#x}"))),
        };
        cur.done()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_vars() -> VariableSet {
        let mut vars = VariableSet::new();
        vars.insert("dens".into(), (0..64).map(|i| 1.0 + i as f64 * 0.5).collect());
        vars.insert("ρ".into(), vec![-1.5, 0.0, f64::MAX, f64::MIN_POSITIVE]);
        vars
    }

    fn roundtrip_request(req: Request) {
        let mut buf = Vec::new();
        write_frame(&mut buf, req.opcode(), 7, &req.payload()).unwrap();
        let frame = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(frame.req_id(), 7);
        assert_eq!(Request::from_frame(&frame).unwrap(), req);
    }

    fn roundtrip_response(resp: Response) {
        let mut buf = Vec::new();
        write_frame(&mut buf, resp.opcode(), 99, &resp.payload()).unwrap();
        let frame = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(frame.req_id(), 99);
        assert_eq!(Response::from_frame(&frame).unwrap(), resp);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::OpenSession { name: "sim-0".into() });
        roundtrip_request(Request::PutIterations {
            session: 3,
            iterations: vec![(0, sample_vars()), (1, sample_vars())],
        });
        roundtrip_request(Request::Restart { session: 3, at_or_before: u64::MAX });
        roundtrip_request(Request::Scrub { session: 1, repair: true });
        roundtrip_request(Request::Scrub { session: 1, repair: false });
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::CloseSession { session: 8 });
        roundtrip_request(Request::Shutdown);
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_response(Response::SessionOpened { session: 12 });
        roundtrip_response(Response::PutDone {
            outcomes: vec![
                PutOutcome { iteration: 0, kind: WrittenKind::Full, retries: 0 },
                PutOutcome { iteration: 1, kind: WrittenKind::Delta, retries: 2 },
                PutOutcome { iteration: 2, kind: WrittenKind::FullOnDrift, retries: 0 },
            ],
        });
        roundtrip_response(Response::RestartData {
            achieved: 9,
            base: 8,
            deltas_applied: 1,
            lost: 2,
            vars: sample_vars(),
        });
        roundtrip_response(Response::ScrubDone {
            checked: 10,
            quarantined: 2,
            anchored_at: Some(7),
            lost: 1,
        });
        roundtrip_response(Response::ScrubDone {
            checked: 4,
            quarantined: 0,
            anchored_at: None,
            lost: 0,
        });
        roundtrip_response(Response::StatsData(Box::new(StatsReply {
            accepted: 5,
            served: 40,
            busy_rejected: 2,
            iterations_ingested: 64,
            bytes_ingested: 1 << 20,
            write_retries: 3,
            draining: true,
            sessions: vec![
                SessionStat { id: 1, name: "a".into(), files: 16, latest_restartable: Some(15) },
                SessionStat { id: 2, name: "b".into(), files: 0, latest_restartable: None },
            ],
            queue_depth: 3,
            latencies: vec![
                LatencyStat {
                    name: "nsrv_request_put_ns".into(),
                    summary: HistogramSummary {
                        count: 40,
                        sum: 4_000_000,
                        p50: 90_000,
                        p90: 150_000,
                        p99: 400_000,
                    },
                },
                LatencyStat { name: "nsrv_request_stats_ns".into(), summary: Default::default() },
            ],
            journal_replayed: 4,
            journal_rolled_back: 1,
            recovery_repairs: 1,
            idle_disconnects: 6,
            replica_repairs: 9,
            replica_quorum_failures: 2,
            compact_runs: 11,
            compact_deltas_merged: 44,
            compact_bytes_reclaimed: 1 << 16,
            gc_files_removed: 33,
        })));
        roundtrip_response(Response::SessionClosed);
        roundtrip_response(Response::ShuttingDown);
        roundtrip_response(Response::Busy);
        roundtrip_response(Response::Error {
            code: ErrorCode::UnknownSession,
            message: "session 9 is not open".into(),
        });
    }

    /// A `StatsData` payload from an old-format peer (no observability
    /// extension after the sessions) decodes with the extension fields
    /// at their defaults instead of failing.
    #[test]
    fn old_format_stats_reply_decodes_with_default_extension() {
        let mut payload = Vec::new();
        for v in [5u64, 40, 2, 64, 1 << 20, 3] {
            payload.extend_from_slice(&v.to_le_bytes());
        }
        payload.push(1); // draining
        payload.extend_from_slice(&1u32.to_le_bytes()); // one session
        payload.extend_from_slice(&7u64.to_le_bytes());
        put_string(&mut payload, "legacy");
        payload.extend_from_slice(&16u32.to_le_bytes());
        payload.push(1);
        payload.extend_from_slice(&15u64.to_le_bytes());
        // No extension bytes: this is where an old encoder stopped.
        let mut buf = Vec::new();
        write_frame(&mut buf, opcode::STATS_DATA, 11, &payload).unwrap();
        let frame = read_frame(&mut buf.as_slice()).unwrap();
        match Response::from_frame(&frame).unwrap() {
            Response::StatsData(s) => {
                assert_eq!(s.accepted, 5);
                assert_eq!(s.write_retries, 3);
                assert!(s.draining);
                assert_eq!(s.sessions.len(), 1);
                assert_eq!(s.sessions[0].name, "legacy");
                assert_eq!(s.sessions[0].latest_restartable, Some(15));
                assert_eq!(s.queue_depth, 0, "extension default");
                assert!(s.latencies.is_empty(), "extension default");
                assert_eq!(s.journal_replayed, 0, "durability extension default");
                assert_eq!(s.replica_repairs, 0, "durability extension default");
            }
            other => panic!("expected StatsData, got {other:?}"),
        }
    }

    /// A peer with the observability extension but not the durability
    /// one (it stops after the latencies) decodes with the durability
    /// fields at their defaults.
    #[test]
    fn stats_reply_without_durability_extension_decodes_with_defaults() {
        let full = Response::StatsData(Box::new(StatsReply {
            queue_depth: 2,
            latencies: vec![LatencyStat { name: "x_ns".into(), summary: Default::default() }],
            journal_replayed: 7,
            idle_disconnects: 3,
            ..Default::default()
        }));
        let payload = full.payload();
        // The durability extension is six u64s, the compaction
        // extension four more: 80 tail bytes in total.
        let short = &payload[..payload.len() - 80];
        let mut buf = Vec::new();
        write_frame(&mut buf, opcode::STATS_DATA, 1, short).unwrap();
        let frame = read_frame(&mut buf.as_slice()).unwrap();
        match Response::from_frame(&frame).unwrap() {
            Response::StatsData(s) => {
                assert_eq!(s.queue_depth, 2, "first extension still decodes");
                assert_eq!(s.latencies.len(), 1);
                assert_eq!(s.journal_replayed, 0, "durability default");
                assert_eq!(s.idle_disconnects, 0, "durability default");
                assert_eq!(s.compact_runs, 0, "compaction default");
            }
            other => panic!("expected StatsData, got {other:?}"),
        }
    }

    /// A peer with the durability extension but not the compaction one
    /// (it stops after the six durability u64s) decodes with the
    /// compaction fields at their defaults.
    #[test]
    fn stats_reply_without_compaction_extension_decodes_with_defaults() {
        let full = Response::StatsData(Box::new(StatsReply {
            journal_replayed: 7,
            replica_repairs: 5,
            compact_runs: 9,
            gc_files_removed: 4,
            ..Default::default()
        }));
        let payload = full.payload();
        // The compaction extension is exactly four u64s at the tail.
        let short = &payload[..payload.len() - 32];
        let mut buf = Vec::new();
        write_frame(&mut buf, opcode::STATS_DATA, 1, short).unwrap();
        let frame = read_frame(&mut buf.as_slice()).unwrap();
        match Response::from_frame(&frame).unwrap() {
            Response::StatsData(s) => {
                assert_eq!(s.journal_replayed, 7, "durability still decodes");
                assert_eq!(s.replica_repairs, 5, "durability still decodes");
                assert_eq!(s.compact_runs, 0, "compaction default");
                assert_eq!(s.gc_files_removed, 0, "compaction default");
            }
            other => panic!("expected StatsData, got {other:?}"),
        }
    }

    /// A *truncated* extension (bytes present but not a whole one) is
    /// still a decode error, not a silent partial parse.
    #[test]
    fn truncated_stats_extension_is_rejected() {
        let full = Response::StatsData(Box::new(StatsReply {
            queue_depth: 2,
            latencies: vec![LatencyStat { name: "x_ns".into(), summary: Default::default() }],
            ..Default::default()
        }));
        let payload = full.payload();
        for cut in 1..12 {
            let short = &payload[..payload.len() - cut];
            let mut buf = Vec::new();
            write_frame(&mut buf, opcode::STATS_DATA, 1, short).unwrap();
            let frame = read_frame(&mut buf.as_slice()).unwrap();
            assert!(Response::from_frame(&frame).is_err(), "cut {cut} bytes");
        }
    }

    #[test]
    fn corrupted_frames_are_rejected() {
        let req = Request::PutIterations { session: 1, iterations: vec![(0, sample_vars())] };
        let mut buf = Vec::new();
        write_frame(&mut buf, req.opcode(), 1, &req.payload()).unwrap();
        // Flip one bit at several positions: magic, version, opcode,
        // length, payload, crc.
        for pos in [0usize, 4, 6, 17, HEADER_LEN + 3, buf.len() - 1] {
            let mut bad = buf.clone();
            bad[pos] ^= 0x20;
            assert!(read_frame(&mut bad.as_slice()).is_err(), "flip at {pos}");
        }
    }

    #[test]
    fn truncated_frames_are_rejected() {
        let req = Request::Restart { session: 1, at_or_before: 5 };
        let mut buf = Vec::new();
        write_frame(&mut buf, req.opcode(), 1, &req.payload()).unwrap();
        for cut in [0usize, 5, HEADER_LEN - 1, HEADER_LEN + 2, buf.len() - 1] {
            assert!(read_frame(&mut &buf[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn oversized_payload_length_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.push(opcode::STATS);
        buf.push(0);
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("exceeds limit"), "{err}");
    }

    #[test]
    fn trailing_payload_bytes_are_rejected() {
        let mut payload = Request::Stats.payload();
        payload.push(0xAB);
        let mut buf = Vec::new();
        write_frame(&mut buf, opcode::STATS, 1, &payload).unwrap();
        let frame = read_frame(&mut buf.as_slice()).unwrap();
        assert!(Request::from_frame(&frame).is_err());
    }

    #[test]
    fn read_frame_takes_exactly_one_frame_off_the_stream() {
        // Two frames back to back, as a pipelining client sends them:
        // each read takes exactly its own frame and leaves the
        // successor unread.
        let req = Request::Restart { session: 9, at_or_before: 42 };
        let bytes = encode_frame(req.opcode(), 5, &req.payload());
        let mut two = bytes.clone();
        two.extend_from_slice(&bytes);
        let mut stream = two.as_slice();
        let frame = read_frame(&mut stream).unwrap();
        assert_eq!(frame.as_bytes(), bytes.as_slice());
        assert_eq!(stream, bytes.as_slice(), "the successor must stay unread");
        assert_eq!(frame.req_id(), 5);
        assert_eq!(Request::from_frame(&frame).unwrap(), req);
        let frame2 = read_frame(&mut stream).unwrap();
        assert_eq!(frame2.as_bytes(), bytes.as_slice());
        assert!(stream.is_empty());
        assert_eq!(frame2.req_id(), 5);
    }

    #[test]
    fn patch_session_id_reseals_a_valid_frame() {
        for req in [
            Request::PutIterations { session: 1, iterations: vec![(0, sample_vars())] },
            Request::Restart { session: 1, at_or_before: u64::MAX },
            Request::Scrub { session: 1, repair: true },
            Request::CloseSession { session: 1 },
        ] {
            let mut bytes = encode_frame(req.opcode(), 3, &req.payload());
            patch_session_id(&mut bytes, 7777).unwrap();
            // The patched frame still passes full CRC validation...
            let frame = read_frame(&mut bytes.as_slice()).unwrap();
            // ...and decodes to the same request under the new id.
            match Request::from_frame(&frame).unwrap() {
                Request::PutIterations { session, .. }
                | Request::Restart { session, .. }
                | Request::Scrub { session, .. }
                | Request::CloseSession { session } => assert_eq!(session, 7777),
                other => panic!("unexpected request {other:?}"),
            }
        }
        // Opcodes without a leading session id are refused.
        let mut stats = encode_frame(opcode::STATS, 1, &Request::Stats.payload());
        assert!(patch_session_id(&mut stats, 1).is_err());
        let mut open =
            encode_frame(opcode::OPEN_SESSION, 1, &Request::OpenSession { name: "x".into() }.payload());
        assert!(patch_session_id(&mut open, 1).is_err());
    }
}
