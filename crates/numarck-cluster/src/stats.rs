//! Fan-out `StatsReply` aggregation.
//!
//! A cluster `Stats` request fans out to every up shard and the replies
//! are folded into one `StatsReply` a stock client decodes unchanged.
//! Aggregation rules:
//!
//! * **The named instruments** fold with [`Snapshot::merge`], so an
//!   instrument no code here knows merges like every other. Counters
//!   sum: they count *shard-side* work, so with replication factor R an
//!   ingested iteration appears R times in the sum — that is the true
//!   amount of work the cluster did, and per-shard gauges on the
//!   router's own `/metrics` endpoint give the de-duplicated view.
//!   Gauges take the max, so a level every shard reports (such as
//!   `simd_dispatch_level`) reads as one shard's. Histogram counts and
//!   sums add, and p50/p90/p99 take the max (a lossy but conservative
//!   merge — true cluster-wide quantiles would need the raw buckets on
//!   the wire).
//! * **The base fields** (`accepted`, `served`, ...) are a view of six
//!   of those counters, so they read as the shards' sums.
//! * **Sessions** are merged by *name* (each replica shard reports the
//!   session under its own local id): `files` and `latest_restartable`
//!   take the max across replicas — the best any single replica can
//!   serve — and the reported id is the gateway id when the router
//!   knows the name, so a follow-up `Restart { session }` from the same
//!   client works.
//! * `draining` reflects the *router*, since that is what the asking
//!   client is connected to.

use std::collections::BTreeMap;

use numarck_obs::Snapshot;
use numarck_serve::wire::{SessionStat, StatsReply};

/// Fold per-shard replies into one cluster-level reply.
///
/// `gateway_id` maps a session name to the id the router handed its
/// clients, for sessions the router opened; unknown names (sessions
/// opened by talking to a shard directly) keep the first shard-local id
/// seen.
pub fn aggregate(
    replies: &[StatsReply],
    gateway_id: impl Fn(&str) -> Option<u64>,
    draining: bool,
) -> StatsReply {
    let mut out = StatsReply { draining, ..StatsReply::default() };
    let mut sessions: BTreeMap<String, SessionStat> = BTreeMap::new();
    let mut metrics = Snapshot::default();
    for r in replies {
        metrics.merge(r.metrics());
        for s in &r.sessions {
            let entry = sessions.entry(s.name.clone()).or_insert_with(|| SessionStat {
                id: gateway_id(&s.name).unwrap_or(s.id),
                name: s.name.clone(),
                files: 0,
                latest_restartable: None,
            });
            entry.files = entry.files.max(s.files);
            entry.latest_restartable = match (entry.latest_restartable, s.latest_restartable) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            };
        }
    }
    out.sessions = sessions.into_values().collect();
    out.sessions.sort_by_key(|s| s.id);
    out.set_metrics(metrics);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use numarck_obs::HistogramSummary;

    fn shard_reply(id: u64, name: &str, latest: Option<u64>, ingested: u64) -> StatsReply {
        let mut reply = StatsReply {
            sessions: vec![SessionStat {
                id,
                name: name.into(),
                files: latest.map_or(0, |l| l as u32 + 1),
                latest_restartable: latest,
            }],
            ..Default::default()
        };
        reply.set_metrics(Snapshot {
            counters: vec![
                ("nsrv_accepted_total".into(), 1),
                ("nsrv_iterations_ingested_total".into(), ingested),
                ("nsrv_served_total".into(), 2),
            ],
            histograms: vec![(
                "nsrv_request_put_ns".into(),
                HistogramSummary { count: ingested, sum: ingested * 10, p50: 5, p90: 9, p99: 12 },
            )],
            ..Snapshot::default()
        });
        reply
    }

    #[test]
    fn counters_sum_and_sessions_merge_by_name() {
        // The same session replicated on two shards under different
        // local ids; one replica is one iteration behind.
        let compaction = |runs, merged, reclaimed, removed| {
            vec![
                ("nck_compact_bytes_reclaimed_total".to_owned(), reclaimed),
                ("nck_compact_deltas_merged_total".to_owned(), merged),
                ("nck_compact_runs_total".to_owned(), runs),
                ("nck_gc_files_removed_total".to_owned(), removed),
                // A name no code in the tree knows merges like any other.
                ("zz_instrument_nobody_registered_total".to_owned(), runs * 100),
            ]
        };
        let with = |mut r: StatsReply, extra: Vec<(String, u64)>, queue: i64| {
            let mut metrics = r.metrics();
            metrics.counters.extend(extra);
            metrics.counters.sort();
            metrics.gauges = vec![("nsrv_queue_depth".to_owned(), queue)];
            r.set_metrics(metrics);
            r
        };
        let a = with(shard_reply(1, "ha", Some(7), 8), compaction(3, 8, 1000, 5), 2);
        let b = with(shard_reply(3, "ha", Some(6), 7), compaction(2, 4, 500, 1), 1);
        let merged = aggregate(&[a, b], |name| (name == "ha").then_some(42), false);
        assert_eq!(merged.iterations_ingested, 15, "shard-side work sums");
        assert_eq!(merged.counter("nsrv_iterations_ingested_total"), 15);
        assert_eq!(merged.accepted, 2);
        assert_eq!(merged.served, 4, "the base fields read the summed counters");
        assert_eq!(merged.counter("nck_compact_runs_total"), 5, "maintenance counters sum too");
        assert_eq!(merged.counter("nck_compact_deltas_merged_total"), 12);
        assert_eq!(merged.counter("nck_compact_bytes_reclaimed_total"), 1500);
        assert_eq!(merged.counter("nck_gc_files_removed_total"), 6);
        assert_eq!(merged.counter("zz_instrument_nobody_registered_total"), 500);
        assert_eq!(merged.gauge("nsrv_queue_depth"), 2, "gauges take the max");
        let names: Vec<&str> = merged.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.is_sorted(), "merged counters stay sorted: {names:?}");
        assert_eq!(merged.sessions.len(), 1, "merged by name, not id");
        let s = &merged.sessions[0];
        assert_eq!(s.id, 42, "gateway id wins");
        assert_eq!(s.latest_restartable, Some(7), "best replica");
        assert_eq!(s.files, 8);
        assert_eq!(merged.latencies.len(), 1);
        assert_eq!(merged.latencies[0].summary.count, 15);
        assert_eq!(merged.latencies[0].summary.sum, 150);
        assert_eq!(merged.latencies[0].summary.p99, 12, "max quantile");
        assert!(!merged.draining);
    }

    #[test]
    fn unknown_sessions_keep_their_shard_id() {
        let a = shard_reply(5, "direct", Some(1), 2);
        let merged = aggregate(&[a], |_| None, true);
        assert_eq!(merged.sessions[0].id, 5);
        assert!(merged.draining, "router drain state, not shard");
    }

    #[test]
    fn empty_fanout_is_all_defaults() {
        let merged = aggregate(&[], |_| None, false);
        assert_eq!(merged, StatsReply::default());
    }
}
