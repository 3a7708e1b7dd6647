//! # numarck-obs — zero-dependency observability
//!
//! A std-only metrics subsystem for the NUMARCK stack: the encoder
//! pipeline, the checkpoint store, and the serve layer all record into
//! the same small vocabulary of instruments, and everything is exposed
//! the same three ways (wire stats, Prometheus text, JSON snapshot).
//!
//! * [`Counter`] — monotone `u64`; the hot path is a single relaxed
//!   atomic add, nothing else.
//! * [`Gauge`] — signed level (queue depth, open sessions).
//! * [`Histogram`] — fixed log-bucketed atomic histogram (64 octaves ×
//!   4 sub-buckets ⇒ ≤ 12.5% relative quantile error at the midpoint),
//!   with p50/p90/p99 extraction and a running sum for means.
//! * [`Span`] — RAII timer recording elapsed nanoseconds into a
//!   histogram on drop. Span *timing* can be globally disabled
//!   ([`set_timing_enabled`]) so benchmarks can measure the
//!   instrumentation delta; counters are always on.
//! * [`EventRing`] — bounded lossy ring of recent notable events
//!   (retries, quarantines, rejected connections); overwrites the
//!   oldest entry instead of growing or blocking.
//! * [`Registry`] — named instruments, get-or-create. One process-wide
//!   [`Registry::global`] for library code, plus per-component private
//!   registries (each server owns one so two servers in one process do
//!   not mix counters).
//!
//! Exposition lives in [`snapshot`]: [`Registry::snapshot`] freezes a
//! point-in-time view that renders to Prometheus text
//! ([`snapshot::render_prometheus`]) or JSON
//! ([`snapshot::render_json`]); [`http`] serves the Prometheus form
//! over a minimal plain-HTTP listener (`GET /metrics`).
//!
//! Naming scheme (normative, see DESIGN.md §7): metric names are
//! `snake_case` with a subsystem prefix (`numarck_`, `ckpt_`, `nsrv_`,
//! `par_`), counters end in `_total`, duration histograms end in `_ns`
//! and record nanoseconds, size histograms end in `_bytes`.

pub mod http;
pub mod instrument;
pub mod registry;
pub mod ring;
pub mod snapshot;

pub use http::MetricsServer;
pub use instrument::{
    set_timing_enabled, timing_enabled, Counter, Gauge, Histogram, Span, BUCKETS,
};
pub use registry::Registry;
pub use ring::{Event, EventRing, Level};
pub use snapshot::{render_json, render_prometheus, HistogramSummary, Snapshot};

/// `cached!(name, kind, Type, "metric")` defines `pub fn name() ->
/// &'static Arc<Type>`: the process-wide [`Registry::global`]
/// instrument `metric` of that kind (`counter`, `gauge` or
/// `histogram`), looked up once and cached in a `OnceLock`, so a hot
/// path pays a pointer load plus the instrument's own relaxed atomics
/// and never touches the registry map. `Type` must be in scope where
/// the macro is invoked.
#[macro_export]
macro_rules! cached {
    ($fn_name:ident, $kind:ident, $ty:ty, $metric:literal) => {
        /// Cached handle to the global-registry instrument `
        #[doc = $metric]
        /// `.
        pub fn $fn_name() -> &'static ::std::sync::Arc<$ty> {
            static CELL: ::std::sync::OnceLock<::std::sync::Arc<$ty>> =
                ::std::sync::OnceLock::new();
            CELL.get_or_init(|| $crate::Registry::global().$kind($metric))
        }
    };
}
