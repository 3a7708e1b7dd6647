//! Cluster membership and shard health.
//!
//! Every shard starts *up*. Two evidence streams demote it:
//!
//! * the **prober** thread — one cheap `Stats` round-trip per shard per
//!   probe interval;
//! * the **router's connection threads** — a connect/write/read
//!   failure while forwarding real traffic reports straight into the
//!   same table, so a dead shard is usually marked down by the first
//!   request that trips over it rather than by the next probe tick.
//!
//! Demotion takes `markdown_after` *consecutive* failures (one flaky
//! probe must not eject a healthy shard); a single successful probe
//! promotes it back. Mark-down never removes a shard from the ring —
//! placement stays stable and the shard resumes its old sessions on
//! recovery; the router simply skips down shards when choosing live
//! targets, which is what gives restart its failover semantics.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use numarck_obs::{Counter, Gauge};
use numarck_serve::Client;

/// Health-transition instruments, owned by the router's registry.
pub struct HealthInstruments {
    /// `ncl_shard_markdowns_total`
    pub markdowns: Arc<Counter>,
    /// `ncl_shard_markups_total`
    pub markups: Arc<Counter>,
    /// `ncl_probe_failures_total`
    pub probe_failures: Arc<Counter>,
    /// `ncl_shard_up_{i}`, one gauge per shard, 1 = up.
    pub shard_up: Vec<Arc<Gauge>>,
}

struct ShardState {
    addr: String,
    up: AtomicBool,
    consecutive_failures: AtomicU32,
}

/// Shared shard health table. Cheap to read on every request (two
/// atomic loads), written by the prober and by forwarding failures.
pub struct Membership {
    shards: Vec<ShardState>,
    markdown_after: u32,
}

impl Membership {
    /// Build a table over shard addresses; everything starts up.
    pub fn new(addrs: Vec<String>, markdown_after: u32) -> Membership {
        Membership {
            shards: addrs
                .into_iter()
                .map(|addr| ShardState {
                    addr,
                    up: AtomicBool::new(true),
                    consecutive_failures: AtomicU32::new(0),
                })
                .collect(),
            markdown_after: markdown_after.max(1),
        }
    }

    /// Number of shards (fixed for the life of the cluster).
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// True when the table has no shards.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The address shard `i` was configured with.
    pub fn addr(&self, i: usize) -> &str {
        &self.shards[i].addr
    }

    /// Whether shard `i` is currently marked up.
    pub fn is_up(&self, i: usize) -> bool {
        self.shards[i].up.load(Ordering::SeqCst)
    }

    /// How many shards are currently up.
    pub fn up_count(&self) -> usize {
        (0..self.len()).filter(|&i| self.is_up(i)).count()
    }

    /// Record a successful interaction with shard `i`. Returns true on
    /// a down→up transition (the caller bumps the mark-up counter).
    pub fn report_success(&self, i: usize) -> bool {
        let s = &self.shards[i];
        s.consecutive_failures.store(0, Ordering::SeqCst);
        !s.up.swap(true, Ordering::SeqCst)
    }

    /// Record a failed interaction with shard `i`. Returns true on an
    /// up→down transition (after `markdown_after` consecutive
    /// failures).
    pub fn report_failure(&self, i: usize) -> bool {
        let s = &self.shards[i];
        let fails = s.consecutive_failures.fetch_add(1, Ordering::SeqCst) + 1;
        if fails >= self.markdown_after {
            return s.up.swap(false, Ordering::SeqCst);
        }
        false
    }

    /// Apply a transition's bookkeeping to the instruments.
    pub fn record_transition(&self, i: usize, instruments: &HealthInstruments) {
        let up = self.is_up(i);
        instruments.shard_up[i].set(i64::from(up));
        if up {
            instruments.markups.inc();
        } else {
            instruments.markdowns.inc();
        }
    }
}

/// Configuration for the prober thread.
pub struct ProberConfig {
    /// Delay between probe rounds.
    pub interval: Duration,
    /// Per-probe connect + I/O timeout.
    pub timeout: Duration,
}

/// Spawn the health-probe thread. It probes every shard each round
/// with a `Stats` round-trip and feeds the membership table; it exits
/// promptly once `stop` flips.
pub fn spawn_prober(
    membership: Arc<Membership>,
    instruments: Arc<HealthInstruments>,
    config: ProberConfig,
    stop: Arc<AtomicBool>,
) -> thread::JoinHandle<()> {
    thread::Builder::new()
        .name("ncl-prober".into())
        .spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                for i in 0..membership.len() {
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                    let ok = probe(membership.addr(i), config.timeout);
                    let transitioned = if ok {
                        membership.report_success(i)
                    } else {
                        instruments.probe_failures.inc();
                        membership.report_failure(i)
                    };
                    if transitioned {
                        membership.record_transition(i, &instruments);
                    }
                }
                // Sleep in small slices so stop stays responsive.
                let mut slept = Duration::ZERO;
                while slept < config.interval && !stop.load(Ordering::SeqCst) {
                    let slice = (config.interval - slept).min(Duration::from_millis(50));
                    thread::sleep(slice);
                    slept += slice;
                }
            }
        })
        .expect("spawn ncl-prober")
}

/// One health probe: connect and complete a `Stats` round-trip.
fn probe(addr: &str, timeout: Duration) -> bool {
    match Client::connect(addr, timeout) {
        Ok(mut client) => client.stats().is_ok(),
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Membership {
        Membership::new(vec!["a:1".into(), "b:2".into()], 3)
    }

    #[test]
    fn markdown_needs_consecutive_failures() {
        let m = table();
        assert!(m.is_up(0));
        assert!(!m.report_failure(0));
        assert!(!m.report_failure(0));
        // A success in between resets the streak.
        assert!(!m.report_success(0), "already up: no transition");
        assert!(!m.report_failure(0));
        assert!(!m.report_failure(0));
        assert!(m.is_up(0), "two failures after a reset: still up");
        assert!(m.report_failure(0), "third consecutive failure: down");
        assert!(!m.is_up(0));
        assert_eq!(m.up_count(), 1);
        // Repeated failures while down do not re-transition.
        assert!(!m.report_failure(0));
        // One success brings it back.
        assert!(m.report_success(0));
        assert!(m.is_up(0));
    }

    #[test]
    fn prober_marks_unreachable_shard_down() {
        // A bound-then-dropped listener gives an address nothing
        // listens on: every probe fails fast with ECONNREFUSED.
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let membership = Arc::new(Membership::new(vec![dead], 2));
        let registry = numarck_obs::Registry::new();
        let instruments = Arc::new(HealthInstruments {
            markdowns: registry.counter("ncl_shard_markdowns_total"),
            markups: registry.counter("ncl_shard_markups_total"),
            probe_failures: registry.counter("ncl_probe_failures_total"),
            shard_up: vec![registry.gauge("ncl_shard_up_0")],
        });
        instruments.shard_up[0].set(1);
        let stop = Arc::new(AtomicBool::new(false));
        let h = spawn_prober(
            Arc::clone(&membership),
            Arc::clone(&instruments),
            ProberConfig {
                interval: Duration::from_millis(10),
                timeout: Duration::from_millis(200),
            },
            Arc::clone(&stop),
        );
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while membership.is_up(0) && std::time::Instant::now() < deadline {
            thread::sleep(Duration::from_millis(10));
        }
        stop.store(true, Ordering::SeqCst);
        h.join().unwrap();
        assert!(!membership.is_up(0), "unreachable shard never marked down");
        assert!(instruments.markdowns.get() >= 1);
        assert_eq!(instruments.shard_up[0].get(), 0);
    }
}
