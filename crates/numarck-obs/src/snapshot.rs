//! Point-in-time views and their renderers.
//!
//! A [`Snapshot`] freezes every instrument of a [`crate::Registry`]
//! into plain data, which then renders to Prometheus text exposition
//! ([`render_prometheus`]) or a JSON object ([`render_json`], embedded
//! by `numarck-bench` into `BENCH_*.json`). Histograms are summarised
//! as count/sum plus p50/p90/p99 midpoints — the same shape in which
//! the `Stats` wire reply carries every instrument by name.

use crate::instrument::{Counter, Gauge, Histogram};
use crate::ring::{Event, EventRing};

/// Compact histogram summary: total count, running sum, and three
/// quantile midpoints (≤ 12.5% relative error, see
/// [`crate::Histogram`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Total observations.
    pub count: u64,
    /// Sum of observed values (e.g. total nanoseconds).
    pub sum: u64,
    /// Median midpoint.
    pub p50: u64,
    /// 90th-percentile midpoint.
    pub p90: u64,
    /// 99th-percentile midpoint.
    pub p99: u64,
}

impl HistogramSummary {
    /// Summarise a live histogram (one frozen bucket read).
    pub fn of(h: &Histogram) -> Self {
        let buckets = h.bucket_counts();
        Self {
            count: buckets.iter().sum(),
            sum: h.sum(),
            p50: Histogram::quantile_from(&buckets, 0.50),
            p90: Histogram::quantile_from(&buckets, 0.90),
            p99: Histogram::quantile_from(&buckets, 0.99),
        }
    }

    /// Mean observed value, 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

/// Frozen view of a registry: sorted name/value lists plus the recent
/// events, detached from the live atomics.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter name → value, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge name → value, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// Histogram name → summary, sorted by name.
    pub histograms: Vec<(String, HistogramSummary)>,
    /// Recent events, oldest first.
    pub events: Vec<Event>,
}

impl Snapshot {
    /// Capture from instrument iterators (called by
    /// [`crate::Registry::snapshot`]; the registry guarantees sorted
    /// order via its `BTreeMap`s).
    pub(crate) fn capture<'a>(
        counters: impl Iterator<Item = (&'a str, &'a Counter)>,
        gauges: impl Iterator<Item = (&'a str, &'a Gauge)>,
        histograms: impl Iterator<Item = (&'a str, &'a Histogram)>,
        events: &EventRing,
    ) -> Self {
        Self {
            counters: counters.map(|(k, c)| (k.to_owned(), c.get())).collect(),
            gauges: gauges.map(|(k, g)| (k.to_owned(), g.get())).collect(),
            histograms: histograms
                .map(|(k, h)| (k.to_owned(), HistogramSummary::of(h)))
                .collect(),
            events: events.recent(),
        }
    }

    /// Merge another snapshot into this one, by name. Two uses:
    ///
    /// * A server merges its private registry with the process-global
    ///   one. Their names carry disjoint prefixes (`numarck_`, `ckpt_`,
    ///   `nsrv_`, `par_`), so nothing collides.
    /// * The cluster router folds its shards' stats replies. Every
    ///   shard reports the same names, so a collision is the normal
    ///   case.
    ///
    /// On a collision counters are summed, gauges take the max (a level
    /// every shard reports, such as `simd_dispatch_level`, stays one
    /// shard's level), and histogram summaries combine: count and sum
    /// add, quantiles take the max (a conservative bound; exact merged
    /// quantiles would need the bucket counts). `self` stays sorted by
    /// name whatever order `other` arrives in.
    pub fn merge(&mut self, other: Snapshot) {
        merge_sorted(&mut self.counters, other.counters, |a, b| *a += b);
        merge_sorted(&mut self.gauges, other.gauges, |a, b| *a = (*a).max(b));
        merge_sorted(&mut self.histograms, other.histograms, |a, b| {
            a.count += b.count;
            a.sum += b.sum;
            a.p50 = a.p50.max(b.p50);
            a.p90 = a.p90.max(b.p90);
            a.p99 = a.p99.max(b.p99);
        });
        self.events.extend(other.events);
        self.events.sort_by_key(|e| e.unix_ms);
    }
}

fn merge_sorted<V>(
    into: &mut Vec<(String, V)>,
    from: Vec<(String, V)>,
    combine: impl Fn(&mut V, V),
) {
    for (name, value) in from {
        match into.binary_search_by(|(n, _)| n.as_str().cmp(&name)) {
            Ok(i) => combine(&mut into[i].1, value),
            Err(i) => into.insert(i, (name, value)),
        }
    }
}

/// Render a snapshot in the Prometheus text exposition format.
/// Counters and gauges render as their native types; histograms render
/// as `summary` metrics (`{quantile="…"}` samples plus `_sum` and
/// `_count`), which is the faithful encoding of our fixed-quantile
/// summaries.
pub fn render_prometheus(snap: &Snapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snap.counters {
        out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
    }
    for (name, value) in &snap.gauges {
        out.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
    }
    for (name, s) in &snap.histograms {
        out.push_str(&format!(
            "# TYPE {name} summary\n\
             {name}{{quantile=\"0.5\"}} {}\n\
             {name}{{quantile=\"0.9\"}} {}\n\
             {name}{{quantile=\"0.99\"}} {}\n\
             {name}_sum {}\n\
             {name}_count {}\n",
            s.p50, s.p90, s.p99, s.sum, s.count
        ));
    }
    out
}

/// Render a snapshot as a JSON object:
/// `{"counters":{…},"gauges":{…},"histograms":{name:{count,sum,p50,p90,p99}},"events":[…]}`.
/// Hand-rolled to keep the crate dependency-free, matching the
/// workspace's existing JSON convention in `numarck-bench`.
pub fn render_json(snap: &Snapshot) -> String {
    let mut out = String::from("{\"counters\":{");
    for (i, (name, value)) in snap.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{}:{value}", json_string(name)));
    }
    out.push_str("},\"gauges\":{");
    for (i, (name, value)) in snap.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{}:{value}", json_string(name)));
    }
    out.push_str("},\"histograms\":{");
    for (i, (name, s)) in snap.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{}:{{\"count\":{},\"sum\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
            json_string(name),
            s.count,
            s.sum,
            s.p50,
            s.p90,
            s.p99
        ));
    }
    out.push_str("},\"events\":[");
    for (i, e) in snap.events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"unix_ms\":{},\"level\":\"{}\",\"message\":{}}}",
            e.unix_ms,
            e.level.as_str(),
            json_string(&e.message)
        ));
    }
    out.push_str("]}");
    out
}

/// Escape a string as a JSON string literal (quotes included).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Level, Registry};

    fn sample_snapshot() -> Snapshot {
        let r = Registry::new();
        r.counter("numarck_encodes_total").add(4);
        r.gauge("nsrv_queue_depth").set(2);
        let h = r.histogram("nsrv_request_put_ns");
        for _ in 0..100 {
            h.record(1_000);
        }
        r.events().push(Level::Error, "disk \"full\"\n");
        r.snapshot()
    }

    #[test]
    fn prometheus_rendering_has_types_and_samples() {
        let text = render_prometheus(&sample_snapshot());
        assert!(text.contains("# TYPE numarck_encodes_total counter"));
        assert!(text.contains("numarck_encodes_total 4"));
        assert!(text.contains("# TYPE nsrv_queue_depth gauge"));
        assert!(text.contains("nsrv_queue_depth 2"));
        assert!(text.contains("# TYPE nsrv_request_put_ns summary"));
        assert!(text.contains("nsrv_request_put_ns{quantile=\"0.5\"}"));
        assert!(text.contains("nsrv_request_put_ns_count 100"));
        assert!(text.contains("nsrv_request_put_ns_sum 100000"));
        // Every line is either a comment or `name[{labels}] value`.
        for line in text.lines() {
            assert!(
                line.starts_with("# ") || line.split_whitespace().count() == 2,
                "malformed line: {line:?}"
            );
        }
    }

    #[test]
    fn json_rendering_is_well_formed_and_escaped() {
        let json = render_json(&sample_snapshot());
        assert!(json.contains("\"numarck_encodes_total\":4"));
        assert!(json.contains("\"nsrv_queue_depth\":2"));
        assert!(json.contains("\"count\":100"));
        // The event message's quote and newline must be escaped.
        assert!(json.contains("disk \\\"full\\\"\\n"));
        // Crude balance check on the hand-rolled output.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn summary_mean_handles_empty() {
        assert_eq!(HistogramSummary::default().mean(), 0);
        let s = HistogramSummary { count: 4, sum: 100, p50: 25, p90: 25, p99: 25 };
        assert_eq!(s.mean(), 25);
    }

    #[test]
    fn merge_is_union_with_counters_summed_and_gauges_maxed() {
        let r1 = Registry::new();
        r1.counter("a_total").add(1);
        r1.counter("b_total").add(2);
        r1.gauge("g").set(2);
        let r2 = Registry::new();
        r2.counter("b_total").add(10);
        r2.counter("c_total").add(3);
        r2.gauge("g").set(5);
        let mut snap = r1.snapshot();
        snap.merge(r2.snapshot());
        assert_eq!(
            snap.counters,
            vec![
                ("a_total".to_owned(), 1),
                ("b_total".to_owned(), 12),
                ("c_total".to_owned(), 3)
            ]
        );
        assert_eq!(snap.gauges, vec![("g".to_owned(), 5)], "gauges take the max, not the sum");
    }
}
