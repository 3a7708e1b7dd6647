//! Observability hooks for the checkpoint store.
//!
//! PR 1's retry/scrub machinery computed rich reports
//! ([`crate::CheckpointReport`], [`crate::ScrubReport`]) but kept them
//! caller-local; this module mirrors those outcomes into the
//! process-wide [`numarck_obs::Registry`] so they are visible through
//! `/metrics` and the stats wire reply without threading report values
//! through every call site. Handles are cached in `OnceLock`s — the
//! per-event cost is relaxed atomics only.
//!
//! Metric names (see DESIGN.md §7):
//! * `ckpt_write_attempts_total` — store write attempts, including
//!   retried ones;
//! * `ckpt_write_retries_total`, `ckpt_backoff_ns_total` — lifetime
//!   retry count and nanoseconds of backoff slept;
//! * `ckpt_fulls_total`, `ckpt_drift_fulls_total`, `ckpt_deltas_total`
//!   — checkpoint outcomes by kind;
//! * `ckpt_write_ns` — per-attempt store write latency;
//! * `ckpt_scrub_runs_total`, `ckpt_scrub_checked_total`,
//!   `ckpt_quarantined_total`, `ckpt_repairs_total`,
//!   `ckpt_repair_lost_total` — scrub → quarantine → repair outcomes;
//! * `ckpt_replica_repairs_total`, `ckpt_replica_quorum_failures_total`,
//!   `ckpt_replica_write_errors_total` — replicated-backend read-repair
//!   and quorum accounting;
//! * `ckpt_index_loads_total` — [`crate::ChainIndex::load`] calls, each
//!   one store listing plus a header read per stored file;
//! * `ckpt_restart_head_hits_total` — degraded-restart candidates
//!   pinned from a caller's cached [`crate::restart::Head`] (serve's
//!   session head): only the hops after it are read and decoded. The
//!   forward walks of compaction and diagnosis are not counted.
//!
//! Retries and quarantines additionally land in the global registry's
//! event ring, so the most recent degradations are inspectable even
//! after counters have blurred together.

use numarck_obs::{cached, Counter, Histogram};

cached!(write_attempts_total, counter, Counter, "ckpt_write_attempts_total");
cached!(write_retries_total, counter, Counter, "ckpt_write_retries_total");
cached!(backoff_ns_total, counter, Counter, "ckpt_backoff_ns_total");
cached!(fulls_total, counter, Counter, "ckpt_fulls_total");
cached!(drift_fulls_total, counter, Counter, "ckpt_drift_fulls_total");
cached!(deltas_total, counter, Counter, "ckpt_deltas_total");
cached!(write_ns, histogram, Histogram, "ckpt_write_ns");
cached!(scrub_runs_total, counter, Counter, "ckpt_scrub_runs_total");
cached!(scrub_checked_total, counter, Counter, "ckpt_scrub_checked_total");
cached!(quarantined_total, counter, Counter, "ckpt_quarantined_total");
cached!(repairs_total, counter, Counter, "ckpt_repairs_total");
cached!(repair_lost_total, counter, Counter, "ckpt_repair_lost_total");
cached!(replica_repairs_total, counter, Counter, "ckpt_replica_repairs_total");
cached!(replica_quorum_failures_total, counter, Counter, "ckpt_replica_quorum_failures_total");
cached!(replica_write_errors_total, counter, Counter, "ckpt_replica_write_errors_total");
cached!(index_loads_total, counter, Counter, "ckpt_index_loads_total");
cached!(restart_head_hits_total, counter, Counter, "ckpt_restart_head_hits_total");

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use numarck_obs::Registry;

    use super::*;

    #[test]
    fn handles_alias_the_global_registry() {
        let h = write_attempts_total();
        assert!(Arc::ptr_eq(
            h,
            &Registry::global().counter("ckpt_write_attempts_total")
        ));
        assert!(Arc::ptr_eq(write_ns(), &Registry::global().histogram("ckpt_write_ns")));
    }
}
