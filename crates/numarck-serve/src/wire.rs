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
//! (`0x81..=0x84`, `0x86`, `0x87`, and `0x89` for the stats reply),
//! plus two out-of-band replies: [`Response::Busy`] (`0xBB`,
//! sent by the acceptor when the work queue is full — the typed
//! backpressure signal) and [`Response::Error`] (`0xEE`). A frame that
//! fails CRC or structural validation is answered with
//! `Error { code: Malformed }` and the connection is closed, since the
//! stream can no longer be trusted to be frame-aligned.

use std::io::{self, Read, Write};

use numarck::serialize as nser;
use numarck_checkpoint::VariableSet;
use numarck_obs::{HistogramSummary, Snapshot};

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
    pub const SESSION_CLOSED: u8 = 0x86;
    pub const SHUTTING_DOWN: u8 = 0x87;
    /// The stats reply: the draining flag, the sessions and the named
    /// instruments. A fresh opcode, so a peer of an earlier layout gets
    /// a typed "unknown response opcode" error.
    pub const STATS_REPLY: u8 = 0x89;
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

/// One named histogram summary inside a [`StatsReply`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LatencyStat {
    /// Metric name (e.g. `nsrv_request_put_ns`).
    pub name: String,
    /// Count/sum plus p50/p90/p99 midpoints.
    pub summary: HistogramSummary,
}

/// Payload of [`Response::StatsData`].
///
/// On the wire the reply is the draining flag, the sessions, and the
/// server's whole metrics snapshot (the one its `/metrics` listener
/// renders) by instrument name, so an instrument added to any registry
/// reaches the client with no wire change. The six base fields are a
/// view of six of those counters: [`Self::set_metrics`] is their one
/// writer, and they are not encoded.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatsReply {
    /// Connections a worker has taken into service (excludes Busy
    /// rejections and connections still waiting in the queue).
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
    /// Every counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Every gauge, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// Every histogram, sorted by name.
    pub latencies: Vec<LatencyStat>,
}

impl StatsReply {
    /// A counter's value by name, 0 when the peer did not report it.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
    }

    /// A gauge's value by name, 0 when the peer did not report it.
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
    }

    /// The named instruments as a metrics snapshot (no events), ready
    /// for [`numarck_obs::render_prometheus`] or [`Snapshot::merge`].
    pub fn metrics(&self) -> Snapshot {
        Snapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms: self.latencies.iter().map(|l| (l.name.clone(), l.summary)).collect(),
            events: Vec::new(),
        }
    }

    /// Replace the named instruments with a snapshot's (its events are
    /// not carried), and read the base fields off its counters.
    pub fn set_metrics(&mut self, snap: Snapshot) {
        self.counters = snap.counters;
        self.accepted = self.counter("nsrv_accepted_total");
        self.served = self.counter("nsrv_served_total");
        self.busy_rejected = self.counter("nsrv_busy_rejected_total");
        self.iterations_ingested = self.counter("nsrv_iterations_ingested_total");
        self.bytes_ingested = self.counter("nsrv_bytes_ingested_total");
        self.write_retries = self.counter("nsrv_write_retries_total");
        self.gauges = snap.gauges;
        self.latencies = snap
            .histograms
            .into_iter()
            .map(|(name, summary)| LatencyStat { name, summary })
            .collect();
    }
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
    let mut buf = begin_frame(opcode, req_id, payload.len());
    buf.extend_from_slice(payload);
    seal_frame(buf)
}

/// A frame buffer with room for `payload_len` payload bytes and the
/// CRC, holding the header with its length field still zero. The
/// payload is then written straight after it and [`seal_frame`] closes
/// the frame, so a message is framed in the one allocation it travels
/// in.
fn begin_frame(opcode: u8, req_id: u64, payload_len: usize) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + payload_len + 4);
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.push(opcode);
    buf.push(0);
    buf.extend_from_slice(&req_id.to_le_bytes());
    buf.extend_from_slice(&0u32.to_le_bytes());
    buf
}

/// Fill in the payload length of a frame [`begin_frame`] started and
/// append the CRC over everything before it.
fn seal_frame(mut buf: Vec<u8>) -> Vec<u8> {
    let payload_len = buf.len() - HEADER_LEN;
    assert!(payload_len <= MAX_PAYLOAD as usize, "payload exceeds MAX_PAYLOAD");
    buf[16..HEADER_LEN].copy_from_slice(&(payload_len as u32).to_le_bytes());
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

    /// Pre-allocation guard for length-prefixed sequences: clamp a
    /// declared element count to what the remaining payload could
    /// possibly hold (`min_size` bytes per element), so a corrupt or
    /// hostile count cannot force a huge `Vec::with_capacity` before
    /// the first element read fails.
    fn seq_capacity(&self, declared: usize, min_size: usize) -> usize {
        declared.min(self.0.len() / min_size.max(1))
    }

    /// A histogram summary: count, sum, p50, p90 and p99.
    fn summary(&mut self) -> io::Result<HistogramSummary> {
        Ok(HistogramSummary {
            count: self.u64()?,
            sum: self.u64()?,
            p50: self.u64()?,
            p90: self.u64()?,
            p99: self.u64()?,
        })
    }

    /// A u32-counted list of (name, value) entries, each value at
    /// least `value_size` bytes on the wire.
    fn named<V>(
        &mut self,
        value_size: usize,
        value: impl Fn(&mut Self) -> io::Result<V>,
    ) -> io::Result<Vec<(String, V)>> {
        let count = self.u32()? as usize;
        let mut out = Vec::with_capacity(self.seq_capacity(count, 2 + value_size));
        for _ in 0..count {
            let name = self.string()?;
            out.push((name, value(self)?));
        }
        Ok(out)
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
            vars.insert(name, f64s_from_le(self.take(byte_len)?));
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

fn put_summary(buf: &mut Vec<u8>, h: &HistogramSummary) {
    for v in [h.count, h.sum, h.p50, h.p90, h.p99] {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

fn put_vars(buf: &mut Vec<u8>, vars: &VariableSet) {
    buf.extend_from_slice(&(vars.len() as u32).to_le_bytes());
    for (name, data) in vars {
        put_string(buf, name);
        buf.extend_from_slice(&((data.len() * 8) as u64).to_le_bytes());
        put_f64s(buf, data);
    }
}

/// Wire length of what [`put_vars`] writes.
fn vars_len(vars: &VariableSet) -> usize {
    4 + vars.iter().map(|(name, data)| 2 + name.len() + 8 + data.len() * 8).sum::<usize>()
}

/// Append `data` as little-endian f64s: one bulk copy on little-endian
/// targets, value by value elsewhere.
fn put_f64s(buf: &mut Vec<u8>, data: &[f64]) {
    #[cfg(target_endian = "little")]
    {
        // SAFETY: an f64 slice is `size_of_val(data)` initialised bytes
        // with no padding, and u8 needs no alignment. On a little-endian
        // target those bytes are already the wire encoding.
        let bytes = unsafe {
            std::slice::from_raw_parts(data.as_ptr().cast::<u8>(), std::mem::size_of_val(data))
        };
        buf.extend_from_slice(bytes);
    }
    #[cfg(not(target_endian = "little"))]
    for &v in data {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// Little-endian f64s back from `bytes` (a multiple of 8 long): one bulk
/// copy on little-endian targets, value by value elsewhere.
fn f64s_from_le(bytes: &[u8]) -> Vec<f64> {
    let n = bytes.len() / 8;
    #[cfg(target_endian = "little")]
    {
        let mut values = Vec::<f64>::with_capacity(n);
        // SAFETY: `values` has room for `n` f64s, which is `8 n` bytes;
        // the source is that long and cannot overlap a fresh allocation.
        // Every bit pattern is a valid f64, so all `n` are initialised
        // before the length is set.
        unsafe {
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), values.as_mut_ptr().cast::<u8>(), n * 8);
            values.set_len(n);
        }
        values
    }
    #[cfg(not(target_endian = "little"))]
    bytes.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes"))).collect()
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

    /// The complete frame (header, payload and CRC) under `req_id`,
    /// built in one buffer: the payload is written straight into it.
    pub fn to_frame(&self, req_id: u64) -> Vec<u8> {
        let len = match self {
            Request::PutIterations { iterations, .. } => {
                12 + iterations.iter().map(|(_, vars)| 8 + vars_len(vars)).sum::<usize>()
            }
            // Small messages grow the buffer as they are written.
            _ => 0,
        };
        let mut buf = begin_frame(self.opcode(), req_id, len);
        self.write_payload(&mut buf);
        seal_frame(buf)
    }

    /// Serialise the payload (header and CRC are the framing layer's).
    pub fn payload(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.write_payload(&mut buf);
        buf
    }

    fn write_payload(&self, buf: &mut Vec<u8>) {
        match self {
            Request::OpenSession { name } => put_string(buf, name),
            Request::PutIterations { session, iterations } => {
                buf.extend_from_slice(&session.to_le_bytes());
                buf.extend_from_slice(&(iterations.len() as u32).to_le_bytes());
                for (iteration, vars) in iterations {
                    buf.extend_from_slice(&iteration.to_le_bytes());
                    put_vars(buf, vars);
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
            Response::StatsData(_) => opcode::STATS_REPLY,
            Response::SessionClosed => opcode::SESSION_CLOSED,
            Response::ShuttingDown => opcode::SHUTTING_DOWN,
            Response::Busy => opcode::BUSY,
            Response::Error { .. } => opcode::ERROR,
        }
    }

    /// The complete frame (header, payload and CRC) under `req_id`,
    /// built in one buffer: the payload is written straight into it.
    pub fn to_frame(&self, req_id: u64) -> Vec<u8> {
        let len = match self {
            Response::RestartData { vars, .. } => 28 + vars_len(vars),
            // Small messages grow the buffer as they are written.
            _ => 0,
        };
        let mut buf = begin_frame(self.opcode(), req_id, len);
        self.write_payload(&mut buf);
        seal_frame(buf)
    }

    /// Serialise the payload (header and CRC are the framing layer's).
    pub fn payload(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.write_payload(&mut buf);
        buf
    }

    fn write_payload(&self, buf: &mut Vec<u8>) {
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
                put_vars(buf, vars);
            }
            Response::ScrubDone { checked, quarantined, anchored_at, lost } => {
                buf.extend_from_slice(&checked.to_le_bytes());
                buf.extend_from_slice(&quarantined.to_le_bytes());
                buf.push(u8::from(anchored_at.is_some()));
                buf.extend_from_slice(&anchored_at.unwrap_or(0).to_le_bytes());
                buf.extend_from_slice(&lost.to_le_bytes());
            }
            Response::StatsData(s) => {
                buf.push(u8::from(s.draining));
                buf.extend_from_slice(&(s.sessions.len() as u32).to_le_bytes());
                for sess in &s.sessions {
                    buf.extend_from_slice(&sess.id.to_le_bytes());
                    put_string(buf, &sess.name);
                    buf.extend_from_slice(&sess.files.to_le_bytes());
                    buf.push(u8::from(sess.latest_restartable.is_some()));
                    buf.extend_from_slice(&sess.latest_restartable.unwrap_or(0).to_le_bytes());
                }
                buf.extend_from_slice(&(s.counters.len() as u32).to_le_bytes());
                for (name, v) in &s.counters {
                    put_string(buf, name);
                    buf.extend_from_slice(&v.to_le_bytes());
                }
                buf.extend_from_slice(&(s.gauges.len() as u32).to_le_bytes());
                for (name, v) in &s.gauges {
                    put_string(buf, name);
                    buf.extend_from_slice(&v.to_le_bytes());
                }
                buf.extend_from_slice(&(s.latencies.len() as u32).to_le_bytes());
                for lat in &s.latencies {
                    put_string(buf, &lat.name);
                    put_summary(buf, &lat.summary);
                }
            }
            Response::SessionClosed | Response::ShuttingDown | Response::Busy => {}
            Response::Error { code, message } => {
                buf.extend_from_slice(&code.to_u16().to_le_bytes());
                put_string(buf, message);
            }
        }
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
            opcode::STATS_REPLY => {
                let mut s = StatsReply { draining: cur.u8()? != 0, ..StatsReply::default() };
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
                s.set_metrics(Snapshot {
                    counters: cur.named(8, Cursor::u64)?,
                    gauges: cur.named(8, Cursor::i64)?,
                    histograms: cur.named(40, Cursor::summary)?,
                    events: Vec::new(),
                });
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
        assert_eq!(req.to_frame(7), buf, "framing in place changes no wire byte");
        let frame = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(frame.req_id(), 7);
        assert_eq!(Request::from_frame(&frame).unwrap(), req);
    }

    fn roundtrip_response(resp: Response) {
        let mut buf = Vec::new();
        write_frame(&mut buf, resp.opcode(), 99, &resp.payload()).unwrap();
        assert_eq!(resp.to_frame(99), buf, "framing in place changes no wire byte");
        let frame = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(frame.req_id(), 99);
        assert_eq!(Response::from_frame(&frame).unwrap(), resp);
    }

    /// The messages that carry variables are framed in one buffer of
    /// exactly their wire size.
    #[test]
    fn variable_frames_are_sized_up_front() {
        let iterations = vec![(0, sample_vars()), (1, sample_vars())];
        let put = Request::PutIterations { session: 3, iterations }.to_frame(1);
        assert_eq!(put.capacity(), put.len());
        let vars = sample_vars();
        let restart =
            Response::RestartData { achieved: 9, base: 8, deltas_applied: 1, lost: 0, vars };
        let restart = restart.to_frame(1);
        assert_eq!(restart.capacity(), restart.len());
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
        let mut stats = StatsReply {
            draining: true,
            sessions: vec![
                SessionStat { id: 1, name: "a".into(), files: 16, latest_restartable: Some(15) },
                SessionStat { id: 2, name: "b".into(), files: 0, latest_restartable: None },
            ],
            ..StatsReply::default()
        };
        stats.set_metrics(Snapshot {
            counters: vec![
                ("nsrv_accepted_total".into(), 5),
                ("nsrv_served_total".into(), 40),
                ("some_instrument_no_code_knows_total".into(), 11),
            ],
            gauges: vec![("nsrv_queue_depth".into(), 3), ("simd_dispatch_level".into(), -1)],
            histograms: vec![
                (
                    "nsrv_request_put_ns".into(),
                    HistogramSummary { count: 40, sum: 4_000_000, p50: 90_000, p90: 150_000, p99: 400_000 },
                ),
                ("nsrv_request_stats_ns".into(), HistogramSummary::default()),
            ],
            events: Vec::new(),
        });
        roundtrip_response(Response::StatsData(Box::new(stats)));
        roundtrip_response(Response::SessionClosed);
        roundtrip_response(Response::ShuttingDown);
        roundtrip_response(Response::Busy);
        roundtrip_response(Response::Error {
            code: ErrorCode::UnknownSession,
            message: "session 9 is not open".into(),
        });
    }

    fn decode_stats(op: u8, payload: &[u8]) -> io::Result<StatsReply> {
        let bytes = encode_frame(op, 11, payload);
        match Response::from_frame(&read_frame(&mut bytes.as_slice())?)? {
            Response::StatsData(s) => Ok(*s),
            other => panic!("expected StatsData, got {other:?}"),
        }
    }

    /// A reply with one session and one entry in each named list.
    fn sample_stats() -> Vec<u8> {
        let mut stats = StatsReply {
            sessions: vec![SessionStat { id: 7, name: "s".into(), files: 3, latest_restartable: None }],
            ..StatsReply::default()
        };
        stats.set_metrics(Snapshot {
            counters: vec![("a_total".into(), 1)],
            gauges: vec![("g".into(), -2)],
            histograms: vec![("x_ns".into(), HistogramSummary::default())],
            events: Vec::new(),
        });
        Response::StatsData(Box::new(stats)).payload()
    }

    /// The six base fields travel only as their counters, and decode
    /// as a view of them.
    #[test]
    fn base_fields_are_read_off_the_counters() {
        let mut stats = StatsReply::default();
        let names = [
            "nsrv_accepted_total",
            "nsrv_busy_rejected_total",
            "nsrv_bytes_ingested_total",
            "nsrv_iterations_ingested_total",
            "nsrv_served_total",
            "nsrv_write_retries_total",
        ];
        let counters = names.iter().zip(1..).map(|(n, v)| (n.to_string(), v)).collect();
        stats.set_metrics(Snapshot { counters, ..Snapshot::default() });
        let base = |s: &StatsReply| {
            [s.accepted, s.busy_rejected, s.bytes_ingested, s.iterations_ingested, s.served, s.write_retries]
        };
        assert_eq!(base(&stats), [1, 2, 3, 4, 5, 6]);
        let payload = Response::StatsData(Box::new(stats.clone())).payload();
        assert_eq!(decode_stats(opcode::STATS_REPLY, &payload).unwrap(), stats);

        // A field set by hand and not by its counter does not travel.
        stats.served = 99;
        let payload = Response::StatsData(Box::new(stats)).payload();
        assert_eq!(base(&decode_stats(opcode::STATS_REPLY, &payload).unwrap())[4], 5);
    }

    /// Every response opcode this build does not send, the earlier
    /// stats layouts' among them, is a typed decode error.
    #[test]
    fn unsent_response_opcodes_are_unknown() {
        let sent = [
            opcode::SESSION_OPENED,
            opcode::PUT_DONE,
            opcode::RESTART_DATA,
            opcode::SCRUB_DONE,
            opcode::SESSION_CLOSED,
            opcode::SHUTTING_DOWN,
            opcode::STATS_REPLY,
            opcode::BUSY,
            opcode::ERROR,
        ];
        let payload = sample_stats();
        for op in (0x80..=0xFF).filter(|op| !sent.contains(op)) {
            let err = decode_stats(op, &payload).unwrap_err();
            assert!(err.to_string().contains("unknown response opcode"), "{op:#x}: {err}");
        }
    }

    /// A reply cut anywhere, or followed by a trailing byte, is a
    /// decode error, not a silent partial parse.
    #[test]
    fn truncated_stats_reply_is_rejected() {
        let payload = sample_stats();
        assert!(decode_stats(opcode::STATS_REPLY, &payload).is_ok());
        for cut in 0..payload.len() {
            assert!(decode_stats(opcode::STATS_REPLY, &payload[..cut]).is_err(), "cut at {cut}");
        }
        let mut long = payload;
        long.push(0);
        assert!(decode_stats(opcode::STATS_REPLY, &long).is_err(), "trailing byte");
    }

    /// A hostile element count in any named list fails without a huge
    /// pre-allocation.
    #[test]
    fn hostile_stats_list_counts_are_rejected() {
        for list in 0..3 {
            let mut payload = Response::StatsData(Box::default()).payload();
            // The three empty list counts sit at the payload's tail.
            let at = payload.len() - 12 + 4 * list;
            payload[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            assert!(decode_stats(opcode::STATS_REPLY, &payload).is_err(), "list {list}");
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
