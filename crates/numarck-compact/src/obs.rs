//! Observability hooks for the compaction policy engine.
//!
//! Mirrors the [`numarck_checkpoint::obs`] idiom: cached handles into
//! the process-wide [`numarck_obs::Registry`], so compaction outcomes
//! show up on `/metrics` and in the stats wire reply without threading
//! report values through every call site.
//!
//! Metric names (see DESIGN.md §7):
//! * `nck_compact_runs_total` — maintenance passes started;
//! * `nck_compact_deltas_merged_total` — plain deltas superseded by a
//!   merged delta;
//! * `nck_compact_merges_total` — merged delta files written;
//! * `nck_compact_fulls_promoted_total` — fulls materialised by the
//!   placement policy;
//! * `nck_compact_bytes_reclaimed_total` — store bytes freed by a pass
//!   (compaction + GC combined);
//! * `nck_gc_files_removed_total` — files deleted by retention GC;
//! * `nck_compact_run_ns` — wall time of one full maintenance pass.

use numarck_obs::{cached, Counter, Histogram};

cached!(runs_total, counter, Counter, "nck_compact_runs_total");
cached!(deltas_merged_total, counter, Counter, "nck_compact_deltas_merged_total");
cached!(merges_total, counter, Counter, "nck_compact_merges_total");
cached!(fulls_promoted_total, counter, Counter, "nck_compact_fulls_promoted_total");
cached!(bytes_reclaimed_total, counter, Counter, "nck_compact_bytes_reclaimed_total");
cached!(gc_files_removed_total, counter, Counter, "nck_gc_files_removed_total");
cached!(run_ns, histogram, Histogram, "nck_compact_run_ns");

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use numarck_obs::Registry;

    use super::*;

    #[test]
    fn handles_alias_the_global_registry() {
        assert!(Arc::ptr_eq(
            runs_total(),
            &Registry::global().counter("nck_compact_runs_total")
        ));
        assert!(Arc::ptr_eq(run_ns(), &Registry::global().histogram("nck_compact_run_ns")));
    }
}
