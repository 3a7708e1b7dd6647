//! Chain-shape policy over a [`ChainIndex`]: the merge units and the
//! restart cost model.
//!
//! The index (numarck-checkpoint's [`ChainIndex`]) is the one model of
//! chain shape — header facts per file and the restart engine's own
//! backward walk. This module only adds policy on top of it:
//! [`plain_runs`] finds what compaction may merge, and the [`CostModel`]
//! turns a resolved path into a modeled restart latency: the base full's
//! decode cost (proportional to its size) plus a per-delta replay cost,
//! seeded from the measured `numarck_decode_ns` timings in the global
//! registry when available.

use numarck_checkpoint::chain::ChainIndex;

/// Maximal runs `[a, b]` of consecutive iterations that hold only a
/// plain span-1 delta (no full) — the units compaction merges.
pub fn plain_runs(index: &ChainIndex) -> Vec<(u64, u64)> {
    let mut runs = Vec::new();
    let mut cur: Option<(u64, u64)> = None;
    for it in index.iterations() {
        let e = index.entry(it).expect("iterated key");
        let plain = e.full.is_none() && e.delta.is_some_and(|d| d.span() <= 1);
        match (plain, cur) {
            (true, Some((a, b))) if it == b + 1 => cur = Some((a, it)),
            (true, _) => {
                runs.extend(cur.take());
                cur = Some((it, it));
            }
            (false, _) => runs.extend(cur.take()),
        }
    }
    runs.extend(cur);
    runs
}

/// Linear restart-latency model: full-decode cost proportional to the
/// base full's size, plus a fixed replay cost per delta file on the
/// path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Nanoseconds to read + decode one byte of a full checkpoint.
    pub full_ns_per_byte: f64,
    /// Nanoseconds to decode + apply one delta file (all variables).
    pub delta_replay_ns: f64,
}

impl CostModel {
    /// Fallback per-delta replay cost when no decode timing has been
    /// measured yet (≈ the decode of a mid-sized block).
    pub const DEFAULT_DELTA_REPLAY_NS: f64 = 500_000.0;
    /// Fallback full-decode throughput, ≈ 1 GB/s.
    pub const DEFAULT_FULL_NS_PER_BYTE: f64 = 1.0;

    /// Seed the model from the measured `numarck_decode_ns` histogram
    /// in the global registry: mean per-block decode time × the number
    /// of blocks a delta holds (`vars_per_delta`). Falls back to
    /// defaults before any decode has been observed.
    pub fn from_obs(vars_per_delta: usize) -> Self {
        let h = numarck_obs::Registry::global().histogram("numarck_decode_ns");
        let per_block = if h.count() > 0 {
            h.sum() as f64 / h.count() as f64
        } else {
            Self::DEFAULT_DELTA_REPLAY_NS
        };
        Self {
            full_ns_per_byte: Self::DEFAULT_FULL_NS_PER_BYTE,
            delta_replay_ns: per_block * vars_per_delta.max(1) as f64,
        }
    }

    /// Modeled restart latency for a chain: `base_bytes` of full decode
    /// plus `hops` delta replays.
    pub fn cost_ns(&self, base_bytes: u64, hops: u64) -> u64 {
        (base_bytes as f64 * self.full_ns_per_byte + hops as f64 * self.delta_replay_ns) as u64
    }

    /// Modeled restart cost for `target`, or `None` when its chain is
    /// broken.
    pub fn restart_cost_ns(&self, index: &ChainIndex, target: u64) -> Option<u64> {
        let path = index.resolve(target).ok()?;
        Some(self.cost_ns(path.base_bytes, path.deltas.len() as u64))
    }

    /// The worst modeled restart cost over every *resolvable* stored
    /// iteration. Broken chains are excluded — they cannot restart at
    /// any cost.
    pub fn worst_case_cost_ns(&self, index: &ChainIndex) -> Option<u64> {
        index.iterations().filter_map(|it| self.restart_cost_ns(index, it)).max()
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            full_ns_per_byte: Self::DEFAULT_FULL_NS_PER_BYTE,
            delta_replay_ns: Self::DEFAULT_DELTA_REPLAY_NS,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numarck_checkpoint::format::HeaderFacts;
    use numarck_checkpoint::StoredFile;

    fn full(bytes: u64) -> StoredFile {
        StoredFile { bytes, header: Some(HeaderFacts { is_full: true, span: 0 }) }
    }

    fn delta(bytes: u64, span: u64) -> StoredFile {
        StoredFile { bytes, header: Some(HeaderFacts { is_full: false, span }) }
    }

    #[test]
    fn plain_runs_split_on_fulls_and_merged_deltas() {
        let mut index = ChainIndex::default();
        index.insert(0, true, full(1000));
        for (it, span) in [(1, 1), (2, 1), (3, 3), (4, 1), (5, 1), (6, 1), (7, 1)] {
            index.insert(it, false, delta(100, span)); // 3 is merged: breaks the run
        }
        index.insert(5, true, full(1000)); // full: breaks the run
        assert_eq!(plain_runs(&index), vec![(1, 2), (4, 4), (6, 7)]);
    }

    #[test]
    fn cost_model_is_linear_in_hops_and_base_bytes() {
        let m = CostModel { full_ns_per_byte: 2.0, delta_replay_ns: 10.0 };
        assert_eq!(m.cost_ns(100, 0), 200);
        assert_eq!(m.cost_ns(100, 5), 250);
        let mut index = ChainIndex::default();
        index.insert(0, true, full(100));
        index.insert(1, false, delta(10, 1));
        index.insert(2, false, delta(10, 1));
        assert_eq!(m.restart_cost_ns(&index, 2), Some(220));
        assert_eq!(m.worst_case_cost_ns(&index), Some(220));
        index.remove(1, false);
        assert_eq!(m.restart_cost_ns(&index, 2), None, "broken chains have no cost");
        assert_eq!(m.worst_case_cost_ns(&index), Some(200));
    }
}
