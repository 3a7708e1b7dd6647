//! Encoding one iteration pair into NUMARCK's compressed form.
//!
//! The compressed artefact for one iteration (one variable) holds four
//! sections, matching the storage model of the paper's Eq. 3:
//!
//! 1. the representative table (`≤ 2^B − 1` ratios, 8 bytes each),
//! 2. a compressibility bitmap (1 bit per point; `ζ` in the paper),
//! 3. a bit-packed `B`-bit index per *compressible* point, and
//! 4. the exact 8-byte values of the *incompressible* points.
//!
//! Index 0 encodes "change below tolerance" (reconstruct as the previous
//! value); index `t + 1` refers to table entry `t`. A point is escaped to
//! section 4 when its previous value is zero, when its ratio is
//! non-finite, or when the nearest representative misses the true ratio by
//! more than the tolerance `E` — which is what makes the per-point error
//! bound unconditional.

use std::sync::atomic::AtomicU64;

use numarck_par::chunk::{chunk_size_aligned, partition_mut};
use numarck_par::reduce::Neumaier;
use numarck_par::scan::exclusive_scan_pairs;
use numarck_par::{par_for_each, par_map};

use crate::bitstream::BitWriter;
use crate::config::Config;
use crate::error::NumarckError;
use crate::ratio;
use crate::strategy;
use crate::table::BinTable;

/// Sentinel in the intermediate code array marking an escaped point.
///
/// Collides with a real code only at an index width of 32 bits; the
/// compressor caps `B` at 16, so any code `!= ESCAPE` is a packable value.
pub const ESCAPE: u32 = u32::MAX;

// The SIMD kernels emit the same sentinel; the two constants must agree.
const _: () = assert!(ESCAPE == numarck_simd::ESCAPE);

/// Points classified per cache block in the fused classify+pack pass.
/// One block's scratch (4 KiB of codes + 8 KiB of errors) lives on the
/// stack and stays L1-resident between the lane kernel and the packer.
const PACK_BLOCK: usize = 1024;

/// One variable's compressed delta between two consecutive iterations.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressedIteration {
    /// Index width `B` in bits.
    pub bits: u8,
    /// User tolerance `E` the block was encoded with.
    pub tolerance: f64,
    /// Number of data points.
    pub num_points: usize,
    /// Learned representative ratios.
    pub table: BinTable,
    /// Compressibility bitmap: bit `j` set ⇔ point `j` is index-coded.
    pub bitmap: Vec<u64>,
    /// Bit-packed `B`-bit indices of the compressible points, point order.
    pub index_words: Vec<u64>,
    /// Number of compressible points (values in `index_words`).
    pub num_compressible: usize,
    /// Exact values of the incompressible points, point order.
    pub exact_values: Vec<f64>,
}

impl CompressedIteration {
    /// Whether point `j` is index-coded.
    #[inline]
    pub fn is_compressible(&self, j: usize) -> bool {
        (self.bitmap[j / 64] >> (j % 64)) & 1 == 1
    }

    /// Incompressible fraction `γ`.
    pub fn incompressible_ratio(&self) -> f64 {
        if self.num_points == 0 {
            0.0
        } else {
            self.exact_values.len() as f64 / self.num_points as f64
        }
    }

    /// The paper's Eq. 3 compression ratio, in `[−∞, 1)`, as a fraction
    /// (the paper reports it ×100%). Charges `B` bits per compressible
    /// point, 64 bits per incompressible point, and a full `(2^B − 1)`
    /// entry table regardless of how many entries were actually learned —
    /// exactly as the paper does. The bitmap is *not* charged (the paper's
    /// model omits it); see [`crate::serialize`] for the true on-disk
    /// size.
    pub fn compression_ratio_eq3(&self) -> f64 {
        if self.num_points == 0 {
            return 0.0;
        }
        let n = self.num_points as f64;
        let gamma = self.incompressible_ratio();
        let total_bits = 64.0 * n;
        let index_bits = (1.0 - gamma) * n * self.bits as f64;
        let exact_bits = gamma * total_bits;
        let table_bits = ((1u64 << self.bits) - 1) as f64 * 64.0;
        (total_bits - (index_bits + exact_bits + table_bits)) / total_bits
    }
}

/// Per-iteration quality/size statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationStats {
    /// Number of data points.
    pub num_points: usize,
    /// Points representable by an index (including index 0).
    pub num_compressible: usize,
    /// Points stored exactly.
    pub num_incompressible: usize,
    /// Points whose `|Δ| < E` (stored as index 0).
    pub num_small_change: usize,
    /// `γ`: incompressible fraction.
    pub incompressible_ratio: f64,
    /// Mean `|Δ' − Δ|` across all points (exact points contribute 0).
    pub mean_error_rate: f64,
    /// Max `|Δ' − Δ|` across all points.
    pub max_error_rate: f64,
    /// Paper Eq. 3 compression ratio (fraction, not %).
    pub compression_ratio_eq3: f64,
    /// True on-disk compression ratio including bitmap and headers.
    pub compression_ratio_actual: f64,
    /// Representatives actually learned.
    pub table_len: usize,
}

/// Encode the transition `prev → curr` under `config`.
///
/// Returns the compressed block and its statistics. Errors on length
/// mismatch or non-finite input.
pub fn encode(
    prev: &[f64],
    curr: &[f64],
    config: &Config,
) -> Result<(CompressedIteration, IterationStats), NumarckError> {
    crate::obs::encodes_total().inc();
    crate::obs::points_encoded_total().add(prev.len() as u64);
    let ratios = {
        let _span = crate::obs::transform_ns().span();
        ratio::compute(prev, curr, config.tolerance())?
    };
    let table = {
        let _span = crate::obs::fit_ns().span();
        strategy::fit_table(
            config.strategy(),
            &ratios.fit_sample,
            config.max_table_len(),
            &config.clustering(),
        )
    };
    encode_prepared(curr, &ratios, table, config)
}

/// Encode with an externally supplied representative table (used by the
/// shared-table group encoder, [`crate::group`]). `ratios` must be the
/// change-ratio transform at the config's tolerance of the iteration pair
/// that produced `curr`; `prev` itself is no longer needed — small-change
/// errors are re-derived from the dense ratios.
pub(crate) fn encode_prepared(
    curr: &[f64],
    ratios: &ratio::ChangeRatios,
    table: BinTable,
    config: &Config,
) -> Result<(CompressedIteration, IterationStats), NumarckError> {
    let tolerance = config.tolerance();
    debug_assert!(
        table.len() <= config.max_table_len(),
        "table larger than the index space"
    );
    let n = ratios.len();
    let bits = config.bits();

    // Phase 1 (parallel, fused, cache-blocked): per chunk, each
    // `PACK_BLOCK`-point block runs the fused classify+quantize lane
    // kernel — 0 = small change, t+1 = table entry t, ESCAPE = exact,
    // plus a per-point error that is exactly 0.0 for escapes — into stack
    // scratch, then packs those codes immediately into chunk-local
    // sections (bitmap words, a private bit stream, escaped values) while
    // they are still cache-hot. Error partials accumulate in point order;
    // adding an escape's 0.0 is a Neumaier no-op, so the totals are
    // bit-identical to the retired branch-per-class accounting. There is
    // no intermediate n-sized code array at all.
    let classify_span = crate::obs::classify_ns().span();
    let chunk = chunk_size_aligned(n.max(1), 64);
    let words_per_chunk = chunk / 64;
    let reps = table.representatives();

    struct ChunkPack {
        /// Chunk-local bit-packed index stream.
        index_words: Vec<u64>,
        len_bits: usize,
        num_compressible: usize,
        num_small: usize,
        exacts: Vec<f64>,
        err_sum: Neumaier,
        err_max: f64,
    }

    let mut bitmap = vec![0u64; n.div_ceil(64)];
    let windows =
        ratios.ratios.chunks(chunk).zip(curr.chunks(chunk)).zip(bitmap.chunks_mut(words_per_chunk));
    let parts: Vec<ChunkPack> = par_map(
        windows,
        |_, ((rs, cs), bmap)| {
            let mut writer = BitWriter::with_capacity(rs.len(), bits);
            let mut exacts = Vec::new();
            let mut num_small = 0usize;
            let mut err_sum = Neumaier::new();
            let mut err_max = 0.0f64;
            let mut codes = [0u32; PACK_BLOCK];
            let mut errs = [0.0f64; PACK_BLOCK];
            for (bi, block) in rs.chunks(PACK_BLOCK).enumerate() {
                let start = bi * PACK_BLOCK;
                let m = block.len();
                numarck_simd::quantize::classify_quantize(
                    block,
                    reps,
                    tolerance,
                    &mut codes[..m],
                    &mut errs[..m],
                );
                for (k, (&code, &e)) in codes[..m].iter().zip(&errs[..m]).enumerate() {
                    err_sum.add(e);
                    if e > err_max {
                        err_max = e;
                    }
                    if code == ESCAPE {
                        exacts.push(cs[start + k]);
                    } else {
                        let j = start + k;
                        bmap[j / 64] |= 1u64 << (j % 64);
                        num_small += usize::from(code == 0);
                        writer.push(code, bits);
                    }
                }
            }
            let len_bits = writer.len_bits();
            ChunkPack {
                index_words: writer.into_words(),
                len_bits,
                num_compressible: len_bits / bits as usize,
                num_small,
                exacts,
                err_sum,
                err_max,
            }
        },
    );

    drop(classify_span);

    // Phase 2 (parallel): an exclusive scan over the per-chunk counts
    // fixes every chunk's global offsets, then each chunk funnel-shifts
    // its private bit stream into the shared index words (OR-stitching
    // the one word adjacent chunks may share) and copies its escaped
    // values into a disjoint window. Output is deterministic for any
    // thread count.
    let pack_span = crate::obs::pack_ns().span();
    let counts: Vec<(u64, u64)> =
        parts.iter().map(|p| (p.num_compressible as u64, p.exacts.len() as u64)).collect();
    let (offsets, (total_comp, total_esc)) = exclusive_scan_pairs(&counts);
    let num_compressible = total_comp as usize;
    let index_words: Vec<AtomicU64> = (0..(num_compressible * bits as usize).div_ceil(64))
        .map(|_| AtomicU64::new(0))
        .collect();
    let mut exact_values = vec![0.0f64; total_esc as usize];
    let exact_windows = partition_mut(&mut exact_values, parts.iter().map(|p| p.exacts.len()));
    par_for_each(
        parts.iter().zip(&offsets).zip(exact_windows),
        |_, ((part, &(comp_before, _)), window)| {
            BitWriter::shift_or_into(
                &index_words,
                comp_before as usize * bits as usize,
                &part.index_words,
                part.len_bits,
            );
            window.copy_from_slice(&part.exacts);
        },
    );
    let index_words: Vec<u64> = index_words.into_iter().map(AtomicU64::into_inner).collect();
    drop(pack_span);

    // Merge partials (chunk order: deterministic).
    let mut err_sum = Neumaier::new();
    let mut err_max = 0.0f64;
    let mut num_small = 0usize;
    for p in &parts {
        err_sum.merge(&p.err_sum);
        err_max = err_max.max(p.err_max);
        num_small += p.num_small;
    }

    let compressed = CompressedIteration {
        bits,
        tolerance,
        num_points: n,
        table,
        bitmap,
        index_words,
        num_compressible,
        exact_values,
    };

    let actual = crate::serialize::actual_compression_ratio(&compressed);
    let stats = IterationStats {
        num_points: n,
        num_compressible: compressed.num_compressible,
        num_incompressible: compressed.exact_values.len(),
        num_small_change: num_small,
        incompressible_ratio: compressed.incompressible_ratio(),
        mean_error_rate: if n == 0 { 0.0 } else { err_sum.value() / n as f64 },
        max_error_rate: err_max,
        compression_ratio_eq3: compressed.compression_ratio_eq3(),
        compression_ratio_actual: actual,
        table_len: compressed.table.len(),
    };
    Ok((compressed, stats))
}

/// The three storage sections produced by [`pack_codes_serial`] (plus the
/// counts the stats need). `codes` uses the encoder's
/// convention: [`ESCAPE`] marks an escaped point, anything else is a
/// `bits`-wide index value.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedSections {
    /// Compressibility bitmap: bit `j` set ⇔ `codes[j] != ESCAPE`.
    pub bitmap: Vec<u64>,
    /// Bit-packed `bits`-wide indices of the non-escaped points, in point
    /// order.
    pub index_words: Vec<u64>,
    /// Number of non-escaped points (values in `index_words`).
    pub num_compressible: usize,
    /// Number of zero codes (small-change points).
    pub num_small: usize,
    /// `curr` values of the escaped points, in point order.
    pub exact_values: Vec<f64>,
}

/// Sequential packer of a per-point code array. Compaction packs merged
/// deltas with it, and it is the oracle the encoder's fused parallel
/// packer is tested against (bit-identical output is a hard requirement,
/// enforced by `tests/pack_parallel_oracle.rs`).
pub fn pack_codes_serial(codes: &[u32], curr: &[f64], bits: u8) -> PackedSections {
    assert_eq!(codes.len(), curr.len(), "codes and curr must align");
    let n = codes.len();
    let mut bitmap = vec![0u64; n.div_ceil(64)];
    let mut writer = BitWriter::with_capacity(n, bits);
    let mut exact_values = Vec::new();
    let mut num_compressible = 0usize;
    let mut num_small = 0usize;
    for (j, (&code, &cv)) in codes.iter().zip(curr).enumerate() {
        if code == ESCAPE {
            exact_values.push(cv);
        } else {
            bitmap[j / 64] |= 1u64 << (j % 64);
            writer.push(code, bits);
            num_compressible += 1;
            if code == 0 {
                num_small += 1;
            }
        }
    }
    PackedSections {
        bitmap,
        index_words: writer.into_words(),
        num_compressible,
        num_small,
        exact_values,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Strategy;

    fn cfg(strategy: Strategy) -> Config {
        Config::new(8, 0.001, strategy).unwrap()
    }

    fn uniform_growth(n: usize, rate: f64) -> (Vec<f64>, Vec<f64>) {
        let prev: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.37).sin().abs()).collect();
        let curr: Vec<f64> = prev.iter().map(|v| v * (1.0 + rate)).collect();
        (prev, curr)
    }

    #[test]
    fn all_small_changes_compress_to_index_zero() {
        let (prev, curr) = uniform_growth(1000, 0.0005); // below E
        for s in Strategy::all() {
            let (c, st) = encode(&prev, &curr, &cfg(s)).unwrap();
            assert_eq!(st.num_small_change, 1000, "{s}");
            assert_eq!(st.num_incompressible, 0, "{s}");
            assert_eq!(c.table.len(), 0, "{s}: no large ratios, empty table");
            assert!(st.max_error_rate < 0.001, "{s}");
        }
    }

    #[test]
    fn single_common_ratio_compresses_perfectly() {
        let (prev, curr) = uniform_growth(1000, 0.05);
        for s in Strategy::all() {
            let (c, st) = encode(&prev, &curr, &cfg(s)).unwrap();
            assert_eq!(st.num_incompressible, 0, "{s}");
            assert_eq!(st.num_compressible, 1000, "{s}");
            assert!(!c.table.is_empty(), "{s}");
            assert!(st.max_error_rate <= 0.001, "{s}");
        }
    }

    #[test]
    fn zero_prev_points_are_escaped() {
        let prev = vec![0.0, 1.0, 2.0];
        let curr = vec![5.0, 1.1, 2.0];
        let (c, st) = encode(&prev, &curr, &cfg(Strategy::Clustering)).unwrap();
        assert!(!c.is_compressible(0));
        assert!(c.is_compressible(1));
        assert!(c.is_compressible(2));
        assert_eq!(c.exact_values, vec![5.0]);
        assert_eq!(st.num_incompressible, 1);
    }

    #[test]
    fn error_bound_enforced_by_escape() {
        // Ratios spread uniformly over a huge range with k too small to
        // cover it: points far from any representative must be escaped,
        // never stored with error > E.
        let n = 4000;
        let prev = vec![1.0f64; n];
        let curr: Vec<f64> = (0..n).map(|i| 1.0 + 0.001 + (i as f64 / n as f64) * 10.0).collect();
        let config = Config::new(4, 0.001, Strategy::EqualWidth).unwrap();
        let (_, st) = encode(&prev, &curr, &config).unwrap();
        assert!(st.max_error_rate <= 0.001 + 1e-15, "max {}", st.max_error_rate);
        assert!(st.num_incompressible > 0, "escapes expected for 15 bins over range 10");
    }

    #[test]
    fn eq3_matches_hand_computation() {
        let (prev, curr) = uniform_growth(10_000, 0.05);
        let (c, _) = encode(&prev, &curr, &cfg(Strategy::Clustering)).unwrap();
        // gamma = 0, B = 8: R = 1 - 8/64 - 255*64/(64*10000)
        let expected = 1.0 - 8.0 / 64.0 - (255.0 * 64.0) / (64.0 * 10_000.0);
        assert!((c.compression_ratio_eq3() - expected).abs() < 1e-12);
    }

    #[test]
    fn gamma_one_when_everything_escapes() {
        // Every prev is zero -> all exact.
        let prev = vec![0.0; 100];
        let curr: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let (c, st) = encode(&prev, &curr, &cfg(Strategy::LogScale)).unwrap();
        assert_eq!(st.num_incompressible, 100);
        assert_eq!(c.incompressible_ratio(), 1.0);
        // Eq. 3 goes negative: storing the table on top of exact values.
        assert!(c.compression_ratio_eq3() < 0.0);
    }

    #[test]
    fn empty_input() {
        let (c, st) = encode(&[], &[], &cfg(Strategy::Clustering)).unwrap();
        assert_eq!(c.num_points, 0);
        assert_eq!(st.mean_error_rate, 0.0);
    }

    #[test]
    fn stats_partition_points() {
        let n = 5000;
        let prev: Vec<f64> = (0..n).map(|i| if i % 17 == 0 { 0.0 } else { 1.0 + (i % 7) as f64 }).collect();
        let curr: Vec<f64> = prev
            .iter()
            .enumerate()
            .map(|(i, v)| if *v == 0.0 { 3.0 } else { v * (1.0 + 0.002 * ((i % 9) as f64)) })
            .collect();
        for s in Strategy::all() {
            let (_, st) = encode(&prev, &curr, &cfg(s)).unwrap();
            assert_eq!(st.num_compressible + st.num_incompressible, n, "{s}");
            assert!(st.num_small_change <= st.num_compressible, "{s}");
            assert!(st.mean_error_rate <= st.max_error_rate + 1e-18, "{s}");
            assert!(st.max_error_rate <= 0.001 + 1e-15, "{s}");
        }
    }

    /// Satellite check: the fused single-pass error accounting must agree
    /// with the retired two-pass computation (quantization errors from the
    /// classify pass, small-change |Δ| from a second sweep over the raw
    /// data) on a fixed seeded dataset.
    #[test]
    fn fused_error_accounting_matches_two_pass_reference() {
        // Deterministic pseudo-random mix of small changes, clusterable
        // large changes, and escapes (zero prev).
        let n = 30_000;
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let prev: Vec<f64> = (0..n)
            .map(|_| if next() % 19 == 0 { 0.0 } else { 1.0 + (next() % 1000) as f64 / 100.0 })
            .collect();
        let curr: Vec<f64> = prev
            .iter()
            .map(|&v| {
                if v == 0.0 {
                    7.5
                } else {
                    let r = match next() % 3 {
                        0 => (next() % 900) as f64 * 1e-6, // below E
                        1 => 0.01 + (next() % 500) as f64 * 1e-6,
                        _ => -0.02 - (next() % 500) as f64 * 1e-6,
                    };
                    v * (1.0 + r)
                }
            })
            .collect();

        for s in Strategy::all() {
            let config = cfg(s);
            let tol = config.tolerance();
            let (_, st) = encode(&prev, &curr, &config).unwrap();

            // Old two-pass reference, sequential: pass 1 sums quantization
            // errors of the coded large changes against the same table;
            // pass 2 re-derives each small |Δ| from the raw data.
            let ratios = ratio::compute(&prev, &curr, tol).unwrap();
            let table = strategy::fit_table(
                config.strategy(),
                &ratios.fit_sample,
                config.max_table_len(),
                &config.clustering(),
            );
            let mut sum = Neumaier::new();
            let mut max = 0.0f64;
            for c in ratios.iter_classes() {
                if let ratio::RatioClass::Large(r) = c {
                    if let Some((_, _, err)) = table.quantize(r) {
                        if err <= tol {
                            sum.add(err);
                            max = max.max(err);
                        }
                    }
                }
            }
            for (&pv, &cv) in prev.iter().zip(&curr) {
                if let Some(r) = ratio::change_ratio(pv, cv) {
                    let a = r.abs();
                    if a < tol {
                        sum.add(a);
                        max = max.max(a);
                    }
                }
            }
            let ref_mean = sum.value() / n as f64;

            assert_eq!(st.max_error_rate, max, "{s}: max error must be order-independent");
            let denom = ref_mean.abs().max(1e-300);
            assert!(
                ((st.mean_error_rate - ref_mean) / denom).abs() < 1e-12,
                "{s}: fused mean {} vs two-pass mean {}",
                st.mean_error_rate,
                ref_mean
            );
        }
    }

    #[test]
    fn length_mismatch_error() {
        let e = encode(&[1.0], &[1.0, 2.0], &cfg(Strategy::Clustering)).unwrap_err();
        assert!(matches!(e, NumarckError::LengthMismatch { .. }));
    }

    #[test]
    fn deterministic_output() {
        let (prev, curr) = uniform_growth(20_000, 0.01);
        let a = encode(&prev, &curr, &cfg(Strategy::Clustering)).unwrap();
        let b = encode(&prev, &curr, &cfg(Strategy::Clustering)).unwrap();
        assert_eq!(a.0, b.0);
    }

    mod properties {
        use super::*;
        use numarck_prop::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn error_bound_always_holds(
                base in numarck_prop::collection::vec(0.1f64..100.0, 1..300),
                rates in numarck_prop::collection::vec(-0.5f64..0.5, 1..300),
                bits in 2u8..10,
                tol in 1e-4f64..0.01
            ) {
                let n = base.len().min(rates.len());
                let prev = &base[..n];
                let curr: Vec<f64> =
                    (0..n).map(|i| prev[i] * (1.0 + rates[i])).collect();
                for s in crate::strategy::Strategy::all() {
                    let config = Config::new(bits, tol, s).unwrap();
                    let (_, st) = encode(prev, &curr, &config).unwrap();
                    prop_assert!(
                        st.max_error_rate <= tol + 1e-12,
                        "{s}: max_error {} > tol {tol}",
                        st.max_error_rate
                    );
                }
            }

            #[test]
            fn bitmap_agrees_with_counts(
                vals in numarck_prop::collection::vec(-10.0f64..10.0, 1..200)
            ) {
                let prev = vals.clone();
                let curr: Vec<f64> = vals.iter().rev().cloned().collect();
                let config = Config::new(6, 0.001, crate::strategy::Strategy::Clustering).unwrap();
                let (c, st) = encode(&prev, &curr, &config).unwrap();
                let set_bits: usize =
                    c.bitmap.iter().map(|w| w.count_ones() as usize).sum();
                prop_assert_eq!(set_bits, st.num_compressible);
                prop_assert_eq!(c.exact_values.len(), st.num_incompressible);
            }
        }
    }
}
