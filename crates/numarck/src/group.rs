//! Shared-table group compression of co-varying variables.
//!
//! The paper observes (§III-G) that `pres` and `temp` "showed very
//! similar behaviors because the computation applied to both is actually
//! the same" — their change-ratio distributions coincide. When several
//! variables share a distribution, fitting one representative table over
//! their pooled fit samples and indexing every variable against it pays
//! the `(2^B − 1) × 64`-bit table cost once instead of once per
//! variable, with no effect on the per-point error bound (escape still
//! guards every point individually). This is the "design of functions /
//! local computations" future-work direction of §V made concrete.

use numarck_par::chunk::partition_mut;
use numarck_par::par_for_each;

use crate::config::Config;
use crate::encode::{self, CompressedIteration, IterationStats};
use crate::error::NumarckError;
use crate::ratio;
use crate::strategy;

/// Result of compressing a variable group against one shared table.
#[derive(Debug, Clone)]
pub struct GroupStats {
    /// Per-variable stats (the `compression_ratio_eq3` inside each one
    /// charges a full private table — see
    /// [`GroupStats::compression_ratio_eq3_shared`] for the honest group
    /// accounting).
    pub per_variable: Vec<IterationStats>,
    /// Representatives in the shared table.
    pub shared_table_len: usize,
    /// Eq. 3 compression ratio for the whole group with the table
    /// charged once.
    pub compression_ratio_eq3_shared: f64,
    /// Eq. 3 ratio the same variables would get with private tables
    /// (for comparison).
    pub compression_ratio_eq3_private: f64,
}

/// Compress several `(prev, curr)` pairs against one shared table.
///
/// All pairs are validated independently (length mismatch / non-finite
/// input fail the whole group). Returns one [`CompressedIteration`] per
/// variable — each block embeds (a copy of) the shared table, so blocks
/// stay individually decodable; the storage win shows up in the group
/// accounting and in any container that deduplicates the table section.
pub fn encode_group(
    pairs: &[(&[f64], &[f64])],
    config: &Config,
) -> Result<(Vec<CompressedIteration>, GroupStats), NumarckError> {
    let tolerance = config.tolerance();
    crate::obs::encodes_total().add(pairs.len() as u64);
    crate::obs::points_encoded_total().add(pairs.iter().map(|(p, _)| p.len() as u64).sum());
    // Transform every variable first (so validation errors surface
    // before any work). Each transform is internally parallel.
    let mut transforms = Vec::with_capacity(pairs.len());
    for (prev, curr) in pairs {
        let _span = crate::obs::transform_ns().span();
        transforms.push(ratio::compute(prev, curr, tolerance)?);
    }
    // Pool the fit samples the same way the encoder's packer partitions
    // its output: per-variable sample lengths (known O(1) from the
    // transform's class counts) carve one preallocated buffer into
    // disjoint windows, and every variable copies its sample in parallel.
    let pooled_len: usize = transforms.iter().map(|r| r.counts.large).sum();
    let mut pooled = vec![0.0f64; pooled_len];
    let windows = partition_mut(&mut pooled, transforms.iter().map(|r| r.fit_sample.len()));
    par_for_each(windows.into_iter().zip(&transforms), |_, (dst, r)| {
        dst.copy_from_slice(&r.fit_sample)
    });
    let table = {
        let _span = crate::obs::fit_ns().span();
        strategy::fit_table(
            config.strategy(),
            &pooled,
            config.max_table_len(),
            &config.clustering(),
        )
    };

    let mut blocks = Vec::with_capacity(pairs.len());
    let mut per_variable = Vec::with_capacity(pairs.len());
    for ((_, curr), ratios) in pairs.iter().zip(&transforms) {
        let (block, stats) = encode::encode_prepared(curr, ratios, table.clone(), config)?;
        blocks.push(block);
        per_variable.push(stats);
    }

    // Group Eq. 3 accounting: index + exact bits summed over variables,
    // table charged once.
    let total_points: usize = per_variable.iter().map(|s| s.num_points).sum();
    let total_bits = 64.0 * total_points as f64;
    let payload_bits: f64 = per_variable
        .iter()
        .map(|s| {
            s.num_compressible as f64 * config.bits() as f64
                + s.num_incompressible as f64 * 64.0
        })
        .sum();
    let table_bits = ((1u64 << config.bits()) - 1) as f64 * 64.0;
    let shared = if total_points == 0 {
        0.0
    } else {
        (total_bits - (payload_bits + table_bits)) / total_bits
    };
    let private = if total_points == 0 {
        0.0
    } else {
        (total_bits - (payload_bits + table_bits * pairs.len() as f64)) / total_bits
    };

    Ok((
        blocks,
        GroupStats {
            per_variable,
            shared_table_len: table.len(),
            compression_ratio_eq3_shared: shared,
            compression_ratio_eq3_private: private,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode;
    use crate::strategy::Strategy;

    fn cfg() -> Config {
        Config::new(8, 0.001, Strategy::Clustering).unwrap()
    }

    /// pres/temp-style pair: identical change ratios, different values.
    fn covarying_pair(n: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
        let pres_prev: Vec<f64> = (0..n).map(|i| 100.0 + (i % 17) as f64).collect();
        let temp_prev: Vec<f64> = (0..n).map(|i| 300.0 + (i % 17) as f64 * 2.0).collect();
        let factor = |i: usize| 1.0 + 0.004 * ((i % 9) as f64 - 4.0) / 4.0;
        let pres_curr: Vec<f64> =
            pres_prev.iter().enumerate().map(|(i, v)| v * factor(i)).collect();
        let temp_curr: Vec<f64> =
            temp_prev.iter().enumerate().map(|(i, v)| v * factor(i)).collect();
        (pres_prev, pres_curr, temp_prev, temp_curr)
    }

    #[test]
    fn shared_table_preserves_error_bounds() {
        let (pp, pc, tp, tc) = covarying_pair(4000);
        let (blocks, stats) =
            encode_group(&[(&pp, &pc), (&tp, &tc)], &cfg()).unwrap();
        assert_eq!(blocks.len(), 2);
        for st in &stats.per_variable {
            assert!(st.max_error_rate <= 0.001 + 1e-12);
        }
        // Both blocks decode within bounds.
        for (block, (prev, curr)) in blocks.iter().zip([(&pp, &pc), (&tp, &tc)]) {
            let rec = decode::reconstruct(prev, block).unwrap();
            for (r, c) in rec.iter().zip(curr.iter()) {
                assert!(((r - c) / c).abs() <= 0.0011);
            }
        }
    }

    #[test]
    fn covarying_variables_share_without_quality_loss() {
        let (pp, pc, tp, tc) = covarying_pair(4000);
        let (_, group) = encode_group(&[(&pp, &pc), (&tp, &tc)], &cfg()).unwrap();
        // Identical ratio distributions: sharing costs nothing.
        for st in &group.per_variable {
            assert_eq!(st.num_incompressible, 0, "no escapes for identical distributions");
        }
        // Shared accounting beats private accounting by one table.
        assert!(
            group.compression_ratio_eq3_shared > group.compression_ratio_eq3_private,
            "shared {} vs private {}",
            group.compression_ratio_eq3_shared,
            group.compression_ratio_eq3_private
        );
        let expected_gain = 255.0 * 64.0 / (64.0 * 8000.0);
        let gain =
            group.compression_ratio_eq3_shared - group.compression_ratio_eq3_private;
        assert!((gain - expected_gain).abs() < 1e-12);
    }

    #[test]
    fn disjoint_distributions_may_escape_more_but_stay_bounded() {
        // Two variables with disjoint ratio clusters competing for one
        // table: correctness must hold even if compression suffers.
        let n = 3000;
        let a_prev = vec![1.0; n];
        let a_curr: Vec<f64> = (0..n).map(|i| 1.0 + 0.01 + 1e-5 * (i % 7) as f64).collect();
        let b_prev = vec![1.0; n];
        let b_curr: Vec<f64> = (0..n).map(|i| 1.0 - 0.25 - 1e-5 * (i % 5) as f64).collect();
        let (blocks, stats) =
            encode_group(&[(&a_prev, &a_curr), (&b_prev, &b_curr)], &cfg()).unwrap();
        for st in &stats.per_variable {
            assert!(st.max_error_rate <= 0.001 + 1e-12);
        }
        for (block, (prev, curr)) in blocks.iter().zip([(&a_prev, &a_curr), (&b_prev, &b_curr)]) {
            let rec = decode::reconstruct(prev, block).unwrap();
            for (r, c) in rec.iter().zip(curr.iter()) {
                assert!(((r - c) / c).abs() <= 0.0014, "{r} vs {c}");
            }
        }
    }

    #[test]
    fn group_of_one_matches_single_variable_encode() {
        let (pp, pc, _, _) = covarying_pair(1000);
        let (blocks, _) = encode_group(&[(&pp, &pc)], &cfg()).unwrap();
        let (single, _) = encode::encode(&pp, &pc, &cfg()).unwrap();
        assert_eq!(blocks[0], single);
    }

    #[test]
    fn variables_of_different_lengths_are_fine() {
        // Grouping only pools the *ratio samples*; variables need not
        // share a shape.
        let a_prev: Vec<f64> = (0..500).map(|i| 1.0 + (i % 5) as f64).collect();
        let a_curr: Vec<f64> = a_prev.iter().map(|v| v * 1.002).collect();
        let b_prev: Vec<f64> = (0..1200).map(|i| 2.0 + (i % 3) as f64).collect();
        let b_curr: Vec<f64> = b_prev.iter().map(|v| v * 1.002).collect();
        let (blocks, stats) =
            encode_group(&[(&a_prev, &a_curr), (&b_prev, &b_curr)], &cfg()).unwrap();
        assert_eq!(blocks[0].num_points, 500);
        assert_eq!(blocks[1].num_points, 1200);
        let total: usize = stats.per_variable.iter().map(|s| s.num_points).sum();
        assert_eq!(total, 1700);
    }

    #[test]
    fn empty_group() {
        let (blocks, stats) = encode_group(&[], &cfg()).unwrap();
        assert!(blocks.is_empty());
        assert_eq!(stats.compression_ratio_eq3_shared, 0.0);
    }

    #[test]
    fn validation_failure_fails_the_whole_group() {
        let good = (vec![1.0, 2.0], vec![1.0, 2.0]);
        let bad = (vec![1.0], vec![1.0, 2.0]);
        let result = encode_group(
            &[(&good.0, &good.1), (&bad.0, &bad.1)],
            &cfg(),
        );
        assert!(matches!(result, Err(NumarckError::LengthMismatch { .. })));
    }
}
