//! Cluster layer over `numarck-serve`: a consistent-hash session
//! sharding router that serves each client on a thread of its own.
//!
//! One `numarck-serve` process is a single fault domain with a
//! thread-per-worker ceiling. This crate scales it out without touching
//! the wire protocol clients speak:
//!
//! * [`ring`] — deterministic virtual-node consistent hashing: session
//!   name → ordered shard placement, pinned by tests so every router
//!   instance (and every test) agrees without coordination.
//! * [`router`] — the gateway: an accept loop hands each client
//!   connection to its own thread, which runs numarck-serve's
//!   per-connection frame loop and forwards the versioned CRC
//!   frames transparently, replicates ingest to ≥2 shards, fails
//!   restarts over to surviving replicas, fans out and aggregates
//!   stats, and preserves typed `Busy` backpressure plus graceful
//!   drain end to end.
//! * [`health`] — cluster membership: periodic shard probes plus
//!   traffic-driven failure reports, consecutive-failure mark-down,
//!   single-success mark-up.
//! * [`stats`] — the fan-out `StatsReply` fold.
//!
//! Everything is std-only: blocking `std::net` sockets and threads, the
//! same connection model `numarck-serve` uses.
//!
//! See DESIGN.md §8 "Cluster architecture" for the normative
//! description (placement, replication, failover, drain).

pub mod health;
pub mod ring;
pub mod router;
pub mod stats;

pub use health::{HealthInstruments, Membership, ProberConfig};
pub use ring::{ring_hash, HashRing, DEFAULT_VNODES};
pub use router::{Router, RouterConfig, RouterHandle};
