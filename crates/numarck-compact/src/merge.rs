//! Bit-exact delta merging.
//!
//! A merged delta replaces k consecutive plain deltas with one file
//! whose replay from the base state reproduces — **bit for bit** — the
//! state the original chain replay produced. That property is achieved
//! by construction, not by hoping the tolerance math works out:
//!
//! * a point whose final value is bit-identical to its base value is
//!   stored as index 0 (the decoder blends `prev` through verbatim, so
//!   NaN payloads and signed zeros survive);
//! * otherwise the *composed* change ratio `r = final/base − 1` is a
//!   candidate **only if** replaying it is exactly invertible:
//!   `base · (1 + r)` must equal `final` bit for bit. This is the
//!   ratio-composition path — no second quantization error, because the
//!   stored ratio is derived from the already-quantized endpoints, not
//!   re-quantized against a fresh table;
//! * every other point — non-finite composed ratio, a zero base, a
//!   rounding mismatch, or a candidate ratio that did not make the
//!   size-`2^B − 1` table — is escaped to an exact 8-byte copy of the
//!   final value. This is the re-encode path, and it is what keeps the
//!   equivalence unconditional.
//!
//! [`merge_window`] is a pure function of a base state and the window's
//! opened delta files; the caller reads them and supplies the base (see
//! [`crate::policy::Compactor::plan`]). It verifies the whole artefact
//! end to end: the merged file is serialised, re-opened through the
//! reader restart uses ([`CheckpointView`]), and replayed against the
//! base state, and the result is bit-compared with the original chain's
//! replay before anything touches the store. The caller writes those
//! exact bytes through the journal's bracket: the intent records the CRC
//! trailer the bytes already end in, and the read-back is compared byte
//! for byte with them.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::sync::Arc;

use numarck::decode;
use numarck::encode::{pack_codes_serial, CompressedIteration, ESCAPE};
use numarck::error::NumarckError;
use numarck::table::BinTable;
use numarck_checkpoint::format::{CheckpointFile, CheckpointView, Hop};
use numarck_checkpoint::{AlignedBytes, VariableSet};

/// How a merged block's points were stored.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Points bit-identical to the base (index 0).
    pub unchanged: usize,
    /// Points stored through the exact composed ratio.
    pub ratio_coded: usize,
    /// Points escaped to exact values (the re-encode path).
    pub escaped: usize,
}

impl MergeStats {
    /// Add `other`'s counts to these.
    pub fn absorb(&mut self, other: MergeStats) {
        self.unchanged += other.unchanged;
        self.ratio_coded += other.ratio_coded;
        self.escaped += other.escaped;
    }
}

/// Build one variable's merged block from its base and final states.
///
/// The returned block decodes from `base` to exactly `fin` (enforced
/// here with the sequential oracle decoder; callers re-verify through
/// the serialised bytes). `tolerance` is metadata only — the composed
/// error bound of the replaced chain segment against the simulation
/// truth; the merge itself introduces no error at all relative to the
/// original chain.
pub fn build_merged_block(
    base: &[f64],
    fin: &[f64],
    bits: u8,
    tolerance: f64,
) -> Result<(CompressedIteration, MergeStats), NumarckError> {
    if base.len() != fin.len() {
        return Err(NumarckError::LengthMismatch { prev: base.len(), curr: fin.len() });
    }
    if !(1..=16).contains(&bits) {
        return Err(NumarckError::InvalidConfig(format!("merge bits {bits} out of 1..=16")));
    }
    let n = base.len();
    let max_table = (1usize << bits) - 1;

    #[derive(Clone, Copy)]
    enum Class {
        Unchanged,
        Ratio(u64),
        Escape,
    }

    let mut classes = Vec::with_capacity(n);
    let mut freq: HashMap<u64, u64> = HashMap::new();
    for j in 0..n {
        let (b, f) = (base[j], fin[j]);
        let class = if f.to_bits() == b.to_bits() {
            Class::Unchanged
        } else {
            let r = f / b - 1.0;
            // A zero ratio can only reproduce `f == b` bitwise, which the
            // branch above already took; excluding it keeps every table
            // candidate a distinct finite nonzero value, so bit pattern
            // and numeric value identify entries interchangeably.
            if r.is_finite() && r != 0.0 && (b * (1.0 + r)).to_bits() == f.to_bits() {
                *freq.entry(r.to_bits()).or_insert(0) += 1;
                Class::Ratio(r.to_bits())
            } else {
                Class::Escape
            }
        };
        classes.push(class);
    }

    // Most frequent composed ratios win the table; ties break on value
    // so the table is deterministic. Candidates that miss the cut fall
    // back to the escape path.
    let mut by_freq: Vec<(u64, u64)> = freq.into_iter().collect();
    by_freq.sort_by(|a, b| {
        b.1.cmp(&a.1).then_with(|| f64::from_bits(a.0).total_cmp(&f64::from_bits(b.0)))
    });
    let reps: Vec<f64> = by_freq.iter().take(max_table).map(|&(rb, _)| f64::from_bits(rb)).collect();
    let table = BinTable::new(reps);
    let code_of: HashMap<u64, u32> = table
        .representatives()
        .iter()
        .enumerate()
        .map(|(i, r)| (r.to_bits(), i as u32 + 1))
        .collect();

    let mut stats = MergeStats::default();
    let codes: Vec<u32> = classes
        .iter()
        .map(|c| match c {
            Class::Unchanged => {
                stats.unchanged += 1;
                0
            }
            Class::Ratio(rb) => match code_of.get(rb) {
                Some(&code) => {
                    stats.ratio_coded += 1;
                    code
                }
                None => {
                    stats.escaped += 1;
                    ESCAPE
                }
            },
            Class::Escape => {
                stats.escaped += 1;
                ESCAPE
            }
        })
        .collect();

    let packed = pack_codes_serial(&codes, fin, bits);
    let block = CompressedIteration {
        bits,
        tolerance,
        num_points: n,
        table,
        bitmap: packed.bitmap,
        index_words: packed.index_words,
        num_compressible: packed.num_compressible,
        exact_values: packed.exact_values,
    };
    let replayed = decode::reconstruct_seq(base, &block)?;
    if !bits_equal(&replayed, fin) {
        return Err(NumarckError::Corrupt(
            "merged block failed its bit-exactness self-check".into(),
        ));
    }
    Ok((block, stats))
}

/// Bitwise equality of two f64 slices (NaN payloads and signed zeros
/// included).
pub fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Bitwise equality of two variable sets.
pub fn vars_bits_equal(a: &VariableSet, b: &VariableSet) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b.iter())
            .all(|((an, av), (bn, bv))| an == bn && bits_equal(av, bv))
}

/// A merged delta built and verified in memory, not yet written.
#[derive(Debug)]
pub struct MergedDelta {
    /// The exact serialised bytes of the merged checkpoint (a delta at
    /// `end` with span `span`): what a store write must produce. They
    /// end in their own content hash, the CRC trailer the write-ahead
    /// journal records.
    pub bytes: Vec<u8>,
    /// Aggregated per-point accounting across variables.
    pub stats: MergeStats,
    /// The replayed state at `end`, bit-identical to a restart of it:
    /// what the merged chain must reproduce, and the next window's base.
    pub expected: Arc<VariableSet>,
}

/// Merge the opened plain deltas `(first, end]` of `window`, oldest
/// first, into one span-`window.len()` delta at `end`, verified end to
/// end.
///
/// `base` is the state at `first`, bit-identical to a restart of it.
/// The final state is the window replayed onto it in one
/// [`decode::replay`] — exactly what a restart of `end` reproduces
/// today, quantization error already baked into the chain and all.
/// Before returning, the serialised bytes are re-parsed and replayed
/// against `base` and bit-compared with that replay; an artefact that
/// fails the proof never reaches the caller.
pub fn merge_window(
    base: &VariableSet,
    window: &[CheckpointView],
) -> Result<MergedDelta, NumarckError> {
    let (Some(last), Ok(span @ 2..)) = (window.last(), u32::try_from(window.len())) else {
        let len = window.len();
        return Err(NumarckError::InvalidConfig(format!("merge span {len} out of 2..=u32::MAX")));
    };
    let end = last.iteration();
    let window: Vec<Vec<Hop<'_>>> = window
        .iter()
        .map(|delta| delta.hops(base.keys().map(String::as_str)))
        .collect::<Result<_, _>>()?;
    let fin = replay_each(base, &window)?;

    // Metadata: compose the replaced segment's error bounds and carry
    // the widest index width forward.
    let mut composed_tol = 1.0f64;
    let mut bits = 0u8;
    for hops in &window {
        let mut seg_tol = 0.0f64;
        for hop in hops {
            seg_tol = seg_tol.max(hop.tolerance());
            bits = bits.max(hop.block_ref().bits);
        }
        composed_tol *= 1.0 + seg_tol;
    }
    let tolerance = composed_tol - 1.0;
    let bits = if bits == 0 { 8 } else { bits };

    let mut blocks = BTreeMap::new();
    let mut stats = MergeStats::default();
    for (name, base_vals) in base {
        let fin_vals = &fin[name];
        let (block, st) = build_merged_block(base_vals, fin_vals, bits, tolerance)?;
        stats.absorb(st);
        blocks.insert(name.clone(), block);
    }
    let bytes = CheckpointFile::merged_delta(end, blocks, span).to_bytes();

    // The proof: open the exact bytes a write would land through the
    // reader restart uses, and replay them. Anything short of bit
    // equality is a construction bug and must never be written.
    let merged = CheckpointView::parse(AlignedBytes::copy_from(&bytes), end, false)?;
    let merged = merged.hops(base.keys().map(String::as_str))?;
    let replayed = replay_each(base, std::slice::from_ref(&merged))?;
    if !vars_bits_equal(&replayed, &fin) {
        return Err(NumarckError::Corrupt(format!(
            "merged delta at {end} (span {span}) failed end-to-end bit-exactness verification"
        )));
    }
    Ok(MergedDelta { bytes, stats, expected: Arc::new(fin) })
}

/// Replay every variable of `base` through its hop in each of `files`,
/// in order: each file holds one hop per variable, in `base`'s order.
fn replay_each(base: &VariableSet, files: &[Vec<Hop<'_>>]) -> Result<VariableSet, NumarckError> {
    let mut out = VariableSet::new();
    for (v, (name, values)) in base.iter().enumerate() {
        let hops: Vec<_> = files.iter().map(|file| file[v].block_ref()).collect();
        out.insert(name.clone(), decode::replay(values, &hops)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unchanged_points_survive_nan_and_signed_zero() {
        let base = vec![1.0, f64::NAN, -0.0, 0.0, f64::INFINITY];
        let fin = base.clone();
        let (block, st) = build_merged_block(&base, &fin, 8, 0.001).unwrap();
        assert_eq!(st, MergeStats { unchanged: 5, ratio_coded: 0, escaped: 0 });
        let out = decode::reconstruct_seq(&base, &block).unwrap();
        assert!(bits_equal(&out, &fin));
    }

    #[test]
    fn composed_ratios_are_bit_exact() {
        // A shared growth factor: every point should ratio-code.
        let base: Vec<f64> = (0..4096).map(|i| 1.0 + (i % 17) as f64).collect();
        let fin: Vec<f64> = base.iter().map(|v| v * 1.0625).collect(); // exact in binary
        let (block, st) = build_merged_block(&base, &fin, 8, 0.001).unwrap();
        assert_eq!(st.escaped, 0, "dyadic growth must ratio-code entirely");
        assert!(st.ratio_coded > 0);
        let out = decode::reconstruct_seq(&base, &block).unwrap();
        assert!(bits_equal(&out, &fin));
    }

    #[test]
    fn non_invertible_points_escape() {
        // Zero and non-finite bases cannot ratio-code; irrational-ish
        // updates may or may not round-trip — either way the result is
        // bit-exact because the fallback is an exact copy.
        let base = vec![0.0, -0.0, f64::NAN, 1.0, 3.0];
        let fin = vec![5.0, 7.0, 2.0, std::f64::consts::PI, 3.0 * (1.0 + 1e-17)];
        let (block, _) = build_merged_block(&base, &fin, 8, 0.001).unwrap();
        let out = decode::reconstruct_seq(&base, &block).unwrap();
        assert!(bits_equal(&out, &fin));
    }

    #[test]
    fn table_overflow_escapes_the_overflow() {
        // 2-bit table: 3 entries. 10 distinct ratios -> 7 must escape
        // per point class, yet the decode stays bit-exact.
        let n = 1000;
        let base: Vec<f64> = (0..n).map(|i| 1.0 + (i % 13) as f64).collect();
        let fin: Vec<f64> =
            base.iter().enumerate().map(|(i, v)| v * (1.0 + 0.01 * ((i % 10) as f64 + 1.0))).collect();
        let (block, st) = build_merged_block(&base, &fin, 2, 0.2).unwrap();
        assert!(block.table.len() <= 3);
        assert!(st.escaped > 0, "overflow ratios must escape");
        let out = decode::reconstruct_seq(&base, &block).unwrap();
        assert!(bits_equal(&out, &fin));
    }

    #[test]
    fn length_mismatch_is_loud() {
        assert!(build_merged_block(&[1.0], &[1.0, 2.0], 8, 0.001).is_err());
    }

    mod properties {
        use super::*;
        use numarck_prop::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The construction invariant, adversarially: any base/final
            /// pair — including zeros, huge magnitude jumps, and values
            /// that defeat ratio inversion — must decode bit-exactly.
            #[test]
            fn merged_block_is_always_bit_exact(
                base in numarck_prop::collection::vec(
                    prop_oneof![
                        Just(0.0f64), Just(-0.0), 0.001f64..1e6, -1e6f64..-0.001
                    ],
                    1..300
                ),
                rates in numarck_prop::collection::vec(-0.9f64..4.0, 1..300),
                bits in 2u8..10
            ) {
                let n = base.len().min(rates.len());
                let base = &base[..n];
                let fin: Vec<f64> = (0..n)
                    .map(|i| if i % 7 == 0 { base[i] } else { base[i] * (1.0 + rates[i]) })
                    .collect();
                let (block, _) = build_merged_block(base, &fin, bits, 0.01).unwrap();
                let out = decode::reconstruct_seq(base, &block).unwrap();
                prop_assert!(bits_equal(&out, &fin));
                // And through the serialised form, too.
                let bytes = numarck::serialize::to_bytes(&block);
                let back = numarck::serialize::from_bytes(&bytes).unwrap();
                let out2 = decode::reconstruct(base, &back).unwrap();
                prop_assert!(bits_equal(&out2, &fin));
            }
        }
    }
}
