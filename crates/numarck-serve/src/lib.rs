//! Checkpointing as a service: a concurrent ingest/restart server over
//! the NUMARCK checkpoint store, plus the matching blocking client.
//!
//! The crate is deliberately std-only (`std::net` + threads — no async
//! runtime, no external networking deps) and splits into three layers:
//!
//! * [`wire`] — the length-prefixed, CRC-protected binary protocol:
//!   frame layout, request/response enums, encode/decode.
//! * [`server`] — acceptor thread + bounded hand-off queue + fixed
//!   worker pool. A full queue is answered with a typed
//!   [`wire::Response::Busy`] instead of an unbounded backlog; drain
//!   (shutdown request or SIGTERM) finishes in-flight work and stops.
//!   Every session is a [`numarck_checkpoint::CheckpointManager`] over
//!   its own store directory, so ingest inherits retry/backoff and the
//!   scrub→quarantine→repair machinery. Its accept loop and
//!   per-connection frame loop ([`server::serve_connection`]) are public:
//!   the cluster router serves its clients on the same two loops.
//! * [`client`] — a small blocking client used by the CLI subcommands
//!   and the load generator in `numarck-bench`.
//!
//! Durability comes from numarck-checkpoint (see DESIGN.md, "Durability
//! guarantees"): every session store has an [`IntentJournal`], and
//! ingest and background maintenance both write through its one
//! write-ahead bracket; [`recover_session`] replays it and completes or
//! rolls back half-applied writes before a session takes traffic. Both
//! are re-exported here.
//!
//! See DESIGN.md ("numarck-serve wire protocol") for the normative
//! protocol description.

pub mod client;
pub mod server;
pub mod wire;

pub use client::{Client, ClientError, ClientResult, RestartReply, ScrubReply};
pub use numarck_checkpoint::{recover_session, IntentJournal, IntentRecord, RecoveryReport};
pub use server::{
    install_signal_handlers, signal_drain_requested, Server, ServerConfig, ServerHandle,
};
pub use wire::{
    ErrorCode, LatencyStat, PutOutcome, Request, Response, SessionStat, StatsReply, WrittenKind,
};
