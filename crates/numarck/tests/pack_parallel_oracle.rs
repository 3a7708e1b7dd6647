//! Oracle tests for the encoder's parallel packer.
//!
//! [`numarck::encode::encode`] classifies and packs each parallel chunk
//! into chunk-local sections (bitmap words, a private bit stream, escaped
//! values), then splices the streams into the shared index words with
//! `BitWriter::shift_or_into` at offsets from an exclusive scan over the
//! per-chunk counts. The hard requirement: every section is
//! *bit-identical* to the sequential reference — classify each point
//! with [`numarck::BinTable::quantize`] against the same table, then pack
//! with [`numarck::encode::pack_codes_serial`] — for any input length,
//! any index width `B ∈ 1..=16`, any escape density, and any thread
//! count. The deterministic sweeps below enforce it over a seeded grid;
//! the property test widens the net with random inputs.

use numarck::config::Config;
use numarck::decode;
use numarck::encode::{self, pack_codes_serial, PackedSections, ESCAPE};
use numarck::ratio::{self, RatioClass};
use numarck::strategy::{self, Strategy};
use numarck_par::pool::with_threads;

const TOL: f64 = 0.001;

/// Deterministic xorshift64* generator (no external RNG dependencies).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// An iteration pair of length `n` whose escape share is
/// `escape_per_mille / 1000` in expectation: an escaped point has a zero
/// `prev` (undefined ratio ⇒ exact). Every other point changes by a small
/// ratio (index 0) or by a large one spread over a range narrow enough
/// that the equal-width table at `bits` quantizes it within the
/// tolerance, so the index codes cover the whole `B`-bit range and only
/// the zero-`prev` points escape. `curr` values are distinct per point so
/// misplaced exacts are caught.
fn gen_input(n: usize, bits: u8, escape_per_mille: u64, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut rng = Rng(seed | 1);
    // Equal-width bins of width ≤ 0.9·TOL keep every large ratio within
    // 0.45·TOL of its bin centre.
    let span = 0.9 * TOL * ((1u64 << bits) - 1) as f64;
    let mut prev = Vec::with_capacity(n);
    let mut curr = Vec::with_capacity(n);
    for j in 0..n {
        if rng.next() % 1000 < escape_per_mille {
            prev.push(0.0);
            curr.push(j as f64 + 0.25);
            continue;
        }
        let p = 1.0 + (rng.next() % 1024) as f64 / 64.0;
        let r = if rng.next().is_multiple_of(4) {
            (rng.next() % 400) as f64 * 1e-6 // below TOL: index 0
        } else {
            0.01 + rng.unit() * span
        };
        prev.push(p);
        curr.push(p * (1.0 + r));
    }
    (prev, curr)
}

/// The serial reference for `prev → curr`: the table the encoder must
/// fit, then every point classified with [`numarck::BinTable::quantize`]
/// and packed with [`pack_codes_serial`].
fn reference(prev: &[f64], curr: &[f64], config: &Config) -> (numarck::BinTable, PackedSections) {
    let ratios = ratio::compute(prev, curr, config.tolerance()).unwrap();
    let table = strategy::fit_table(
        config.strategy(),
        &ratios.fit_sample,
        config.max_table_len(),
        &config.clustering(),
    );
    let codes: Vec<u32> = ratios
        .iter_classes()
        .map(|c| match c {
            RatioClass::Small(_) => 0,
            RatioClass::Undefined => ESCAPE,
            RatioClass::Large(r) => match table.quantize(r) {
                Some((idx, _, err)) if err <= config.tolerance() => idx as u32 + 1,
                _ => ESCAPE,
            },
        })
        .collect();
    let packed = pack_codes_serial(&codes, curr, config.bits());
    (table, packed)
}

/// Encode `prev → curr` under 1 and 8 threads and compare every section
/// and count with the serial reference; returns the reference.
fn assert_encoder_matches_reference(
    prev: &[f64],
    curr: &[f64],
    config: &Config,
    ctx: &str,
) -> PackedSections {
    let (table, want) = reference(prev, curr, config);
    for threads in [1, 8] {
        let ctx = format!("{ctx} threads={threads}");
        let (block, stats) =
            with_threads(threads, || encode::encode(prev, curr, config)).unwrap();
        assert_eq!(block.table, table, "{ctx}: table fit");
        assert_eq!(block.bitmap, want.bitmap, "{ctx}: bitmap");
        assert_eq!(block.index_words, want.index_words, "{ctx}: index words");
        assert_eq!(block.exact_values, want.exact_values, "{ctx}: exact values");
        assert_eq!(block.num_compressible, want.num_compressible, "{ctx}: compressible count");
        assert_eq!(stats.num_compressible, want.num_compressible, "{ctx}: stats compressible");
        assert_eq!(stats.num_small_change, want.num_small, "{ctx}: small count");
        assert_eq!(stats.num_incompressible, want.exact_values.len(), "{ctx}: escaped count");
    }
    want
}

/// The sweep's config: the fit never reaches the packer, so the sweep
/// uses the cheapest one (equal width) to keep B = 16 fast.
fn sweep_config(bits: u8) -> Config {
    Config::new(bits, TOL, Strategy::EqualWidth).unwrap()
}

const LENS: [usize; 10] = [0, 1, 63, 64, 65, 127, 1000, 4096, 4097, 20_000];

/// The headline sweep: every B, escape shares of 0%, ~50% and 100%,
/// awkward lengths around word and chunk boundaries, under forced
/// 1-thread and 8-thread regions.
#[test]
fn encoder_sections_are_bit_identical_to_serial_across_the_grid() {
    let densities = [0u64, 500, 1000]; // per-mille
    for &n in &LENS {
        for bits in 1u8..=16 {
            let config = sweep_config(bits);
            for &density in &densities {
                let seed = (n as u64) << 20 | (bits as u64) << 12 | density;
                let (prev, curr) = gen_input(n, bits, density, seed ^ 0x9E37_79B9);
                let ctx = format!("n={n} bits={bits} density={density}‰");
                let packed = assert_encoder_matches_reference(&prev, &curr, &config, &ctx);
                // The inputs have the escape shares they claim.
                let escaped = packed.exact_values.len();
                match density {
                    0 => assert_eq!(escaped, 0, "{ctx}"),
                    1000 => assert_eq!(escaped, n, "{ctx}"),
                    _ if n >= 1000 => {
                        assert!((0.4..0.6).contains(&(escaped as f64 / n as f64)), "{ctx}")
                    }
                    _ => {}
                }
            }
        }
    }
}

/// The sweep's inputs never escape a nonzero-`prev` point; this one mixes
/// small changes, two clusters and unquantizable ratios (escaped by the
/// tolerance check, not by `prev`), at the default B = 8 with the
/// clustering fit.
#[test]
fn encoder_sections_match_serial_with_tolerance_escapes() {
    let config = Config::new(8, TOL, Strategy::Clustering).unwrap();
    for n in [0usize, 1, 7, 63, 64, 65, 1023, 1024, 1025, 4097, 20_000] {
        let prev: Vec<f64> =
            (0..n).map(|i| if i % 13 == 0 { 0.0 } else { 1.0 + (i % 29) as f64 }).collect();
        let curr: Vec<f64> = prev
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                if v == 0.0 {
                    2.5
                } else {
                    v * (1.0
                        + match i % 4 {
                            0 => 0.0004,         // small change
                            1 => 0.05,           // common large ratio
                            2 => 0.07,           // second cluster
                            _ => 9.0 + i as f64, // unquantizable -> escape
                        })
                }
            })
            .collect();
        assert_encoder_matches_reference(&prev, &curr, &config, &format!("n={n}"));
    }
}

/// End-to-end determinism: the full encoder must emit byte-identical
/// blocks under 1 and 8 threads, and both must decode to the same values.
#[test]
fn encoder_output_is_thread_count_invariant() {
    let n = 50_000;
    let mut rng = Rng(0xBEEF_CAFE_F00D_D00D);
    let prev: Vec<f64> = (0..n)
        .map(|_| if rng.next().is_multiple_of(31) { 0.0 } else { 1.0 + (rng.next() % 512) as f64 / 64.0 })
        .collect();
    let curr: Vec<f64> = prev
        .iter()
        .map(|&v| {
            if v == 0.0 {
                3.5
            } else {
                let r = match rng.next() % 4 {
                    0 => (rng.next() % 800) as f64 * 1e-6, // below E
                    1 => 0.015 + (rng.next() % 400) as f64 * 1e-6,
                    2 => -0.008 - (rng.next() % 400) as f64 * 1e-6,
                    _ => 2.0 + (rng.next() % 100) as f64, // likely escape
                };
                v * (1.0 + r)
            }
        })
        .collect();
    for s in Strategy::all() {
        let cfg = Config::new(8, TOL, s).unwrap();
        let (block1, stats1) = with_threads(1, || encode::encode(&prev, &curr, &cfg)).unwrap();
        let (block8, stats8) = with_threads(8, || encode::encode(&prev, &curr, &cfg)).unwrap();
        assert_eq!(block1, block8, "{s}: blocks differ across thread counts");
        assert_eq!(stats1.max_error_rate, stats8.max_error_rate, "{s}");
        assert_eq!(stats1.num_compressible, stats8.num_compressible, "{s}");
        let dec1 = with_threads(1, || decode::reconstruct(&prev, &block1)).unwrap();
        let dec8 = with_threads(8, || decode::reconstruct(&prev, &block8)).unwrap();
        assert_eq!(dec1, dec8, "{s}: decodes differ across thread counts");
        let seq = decode::reconstruct_seq(&prev, &block1).unwrap();
        assert_eq!(dec1, seq, "{s}: parallel decode differs from sequential oracle");
    }
}

mod properties {
    use super::*;
    use numarck_prop::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random lengths, widths, and per-case escape densities drawn
        /// from {0%, 50%, 100%}, checked under forced 1- and 8-thread
        /// regions.
        #[test]
        fn encoder_packer_oracle_property(
            n in 0usize..6000,
            bits in 1u8..=16,
            density_pick in 0usize..3,
            seed in any::<u64>()
        ) {
            let density = [0u64, 500, 1000][density_pick];
            let (prev, curr) = gen_input(n, bits, density, seed);
            let ctx = format!("n={n} bits={bits} density={density}‰");
            assert_encoder_matches_reference(&prev, &curr, &sweep_config(bits), &ctx);
        }
    }
}
