//! Bit-packed index stream.
//!
//! Each compressible point stores a `B`-bit table index; the paper's
//! storage model (Eq. 3) charges exactly `B/64` words per compressed
//! point, so the index stream must be packed with no per-point overhead.
//! Values are packed LSB-first into little-endian `u64` words.

use std::sync::atomic::{AtomicU64, Ordering};

/// Append-only bit writer.
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    words: Vec<u64>,
    /// Total number of bits written.
    len_bits: usize,
}

impl BitWriter {
    /// Empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writer with capacity for `n` values of `bits` bits each.
    pub fn with_capacity(n: usize, bits: u8) -> Self {
        let total = n * bits as usize;
        Self { words: Vec::with_capacity(total.div_ceil(64)), len_bits: 0 }
    }

    /// Append the low `bits` bits of `value`.
    ///
    /// # Panics
    /// Panics if `bits` is 0 or > 32, or if `value` does not fit.
    #[inline]
    pub fn push(&mut self, value: u32, bits: u8) {
        assert!((1..=32).contains(&bits), "bits must be in 1..=32");
        assert!(
            bits == 32 || value < (1u32 << bits),
            "value {value} does not fit in {bits} bits"
        );
        let bit_pos = self.len_bits % 64;
        if bit_pos == 0 {
            self.words.push(value as u64);
        } else {
            let word = self.words.last_mut().expect("non-empty by invariant");
            *word |= (value as u64) << bit_pos;
            let spill = bit_pos + bits as usize;
            if spill > 64 {
                self.words.push((value as u64) >> (64 - bit_pos));
            }
        }
        self.len_bits += bits as usize;
    }

    /// Splice a chunk-local bit stream into the shared word buffer: OR
    /// the first `src_len_bits` bits of `src` into `dst` starting at the
    /// absolute bit offset `dst_bit_start`, funnel-shifting whole words
    /// instead of re-packing value by value.
    ///
    /// This is the fused encoder's placement primitive: each chunk packs
    /// its own codes into a private [`BitWriter`] while they are still
    /// cache-hot, then splices the finished words here once the global
    /// offsets are known. `dst` must be zero in the target bit range. The
    /// first and last touched words may be shared with adjacent ranges
    /// and are merged with a relaxed `fetch_or`; interior words are plain
    /// stores. Because OR of disjoint bit fields commutes, concurrent
    /// calls over disjoint bit ranges reproduce the serial packing
    /// exactly, whatever the thread interleaving.
    ///
    /// # Panics
    /// Debug-panics if `src_len_bits` overruns either buffer.
    pub fn shift_or_into(dst: &[AtomicU64], dst_bit_start: usize, src: &[u64], src_len_bits: usize) {
        if src_len_bits == 0 {
            return;
        }
        debug_assert!(src_len_bits <= src.len() * 64, "src_len_bits overruns src");
        let end_bit = dst_bit_start + src_len_bits;
        debug_assert!(end_bit <= dst.len() * 64, "bit range overruns the word buffer");
        let first_word = dst_bit_start / 64;
        let last_word = (end_bit - 1) / 64;
        let shift = dst_bit_start % 64;
        let flush = |wi: usize, word: u64| {
            if wi == first_word || wi == last_word {
                dst[wi].fetch_or(word, Ordering::Relaxed);
            } else {
                dst[wi].store(word, Ordering::Relaxed);
            }
        };
        let src_words = src_len_bits.div_ceil(64);
        let tail_bits = src_len_bits - (src_words - 1) * 64; // 1..=64
        let mut carry = 0u64;
        let mut wi = first_word;
        for (si, &raw) in src[..src_words].iter().enumerate() {
            let w = if si == src_words - 1 && tail_bits < 64 {
                raw & ((1u64 << tail_bits) - 1)
            } else {
                raw
            };
            if shift == 0 {
                flush(wi, w);
            } else {
                flush(wi, carry | (w << shift));
                carry = w >> (64 - shift);
            }
            wi += 1;
        }
        // The spill word exists iff the shifted stream crosses one more
        // word boundary than the source did.
        if shift != 0 && wi <= last_word {
            flush(wi, carry);
        }
    }

    /// Number of bits written so far.
    #[inline]
    pub fn len_bits(&self) -> usize {
        self.len_bits
    }

    /// Finish and return the packed words.
    pub fn into_words(self) -> Vec<u64> {
        self.words
    }

    /// Borrow the packed words.
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// Sequential bit reader over packed words.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    words: &'a [u64],
    pos_bits: usize,
    len_bits: usize,
}

impl<'a> BitReader<'a> {
    /// Read from `words`, which hold `len_bits` valid bits.
    pub fn new(words: &'a [u64], len_bits: usize) -> Self {
        debug_assert!(len_bits <= words.len() * 64);
        Self { words, pos_bits: 0, len_bits }
    }

    /// Read the next `bits`-bit value, or `None` past the end.
    #[inline]
    pub fn read(&mut self, bits: u8) -> Option<u32> {
        debug_assert!((1..=32).contains(&bits));
        if self.pos_bits + bits as usize > self.len_bits {
            return None;
        }
        let word_idx = self.pos_bits / 64;
        let bit_pos = self.pos_bits % 64;
        let mut v = self.words[word_idx] >> bit_pos;
        let avail = 64 - bit_pos;
        if (bits as usize) > avail {
            v |= self.words[word_idx + 1] << avail;
        }
        self.pos_bits += bits as usize;
        let mask = if bits == 32 { u32::MAX } else { (1u32 << bits) - 1 };
        Some((v as u32) & mask)
    }

    /// Bits remaining.
    #[inline]
    pub fn remaining_bits(&self) -> usize {
        self.len_bits - self.pos_bits
    }
}

/// Random-access reader: fetch the `i`-th fixed-width value directly.
/// Used by the decoder when only a slice of the points is needed.
#[inline]
pub fn read_at(words: &[u64], bits: u8, i: usize) -> u32 {
    debug_assert!((1..=32).contains(&bits));
    let start = i * bits as usize;
    let word_idx = start / 64;
    let bit_pos = start % 64;
    let mut v = words[word_idx] >> bit_pos;
    let avail = 64 - bit_pos;
    if (bits as usize) > avail {
        v |= words[word_idx + 1] << avail;
    }
    let mask = if bits == 32 { u32::MAX } else { (1u32 << bits) - 1 };
    (v as u32) & mask
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_various_widths() {
        for bits in [1u8, 3, 7, 8, 9, 13, 16, 24, 31, 32] {
            let max = if bits == 32 { u32::MAX } else { (1u32 << bits) - 1 };
            let values: Vec<u32> =
                (0..1000u32).map(|i| (i.wrapping_mul(2654435761)) & max).collect();
            let mut w = BitWriter::with_capacity(values.len(), bits);
            for &v in &values {
                w.push(v, bits);
            }
            assert_eq!(w.len_bits(), values.len() * bits as usize);
            let words = w.into_words();
            let mut r = BitReader::new(&words, values.len() * bits as usize);
            for &v in &values {
                assert_eq!(r.read(bits), Some(v), "width {bits}");
            }
            assert_eq!(r.read(bits), None);
        }
    }

    #[test]
    fn read_at_matches_sequential() {
        let bits = 9u8;
        let values: Vec<u32> = (0..500).map(|i| (i * 7) % 512).collect();
        let mut w = BitWriter::new();
        for &v in &values {
            w.push(v, bits);
        }
        let words = w.into_words();
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(read_at(&words, bits, i), v);
        }
    }

    #[test]
    fn cross_word_boundary() {
        // 9-bit values straddle u64 boundaries every 64/gcd(9,64) values.
        let mut w = BitWriter::new();
        for i in 0..16u32 {
            w.push(0b1_0000_0001 ^ i, 9);
        }
        let words = w.words().to_vec();
        let mut r = BitReader::new(&words, w.len_bits());
        for i in 0..16u32 {
            assert_eq!(r.read(9), Some(0b1_0000_0001 ^ i));
        }
    }

    #[test]
    fn empty_reader_returns_none() {
        let mut r = BitReader::new(&[], 0);
        assert_eq!(r.read(8), None);
        assert_eq!(r.remaining_bits(), 0);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_value_panics() {
        let mut w = BitWriter::new();
        w.push(256, 8);
    }

    #[test]
    fn storage_is_tight() {
        // 1000 9-bit values = 9000 bits = 141 words (ceil).
        let mut w = BitWriter::new();
        for _ in 0..1000 {
            w.push(0, 9);
        }
        assert_eq!(w.words().len(), 9000usize.div_ceil(64));
    }

    /// Serial reference for the bulk writer tests: push everything through
    /// one `BitWriter` and return the words.
    fn pushed_words(values: &[u32], bits: u8) -> Vec<u64> {
        let mut w = BitWriter::with_capacity(values.len(), bits);
        for &v in values {
            w.push(v, bits);
        }
        w.into_words()
    }

    fn atomic_buffer(len: usize) -> Vec<AtomicU64> {
        (0..len).map(|_| AtomicU64::new(0)).collect()
    }

    fn into_plain(words: Vec<AtomicU64>) -> Vec<u64> {
        words.into_iter().map(AtomicU64::into_inner).collect()
    }

    #[test]
    fn shift_or_into_matches_push_for_any_split() {
        // Pack each half locally with a BitWriter, splice both into one
        // buffer at every possible (word-misaligned) split; the result
        // must equal the one-shot serial packing bit for bit.
        for bits in [1u8, 3, 7, 9, 13, 16] {
            let max = (1u32 << bits) - 1;
            let values: Vec<u32> = (0..150u32).map(|i| i.wrapping_mul(2654435761) & max).collect();
            let expected = pushed_words(&values, bits);
            for split in 0..=values.len() {
                let words = atomic_buffer(expected.len());
                let (a, b) = values.split_at(split);
                let (wa, wb) = (pushed_words(a, bits), pushed_words(b, bits));
                BitWriter::shift_or_into(&words, 0, &wa, a.len() * bits as usize);
                BitWriter::shift_or_into(
                    &words,
                    split * bits as usize,
                    &wb,
                    b.len() * bits as usize,
                );
                assert_eq!(into_plain(words), expected, "bits={bits} split={split}");
            }
        }
    }

    #[test]
    fn shift_or_into_concurrent_chunks_match_serial() {
        let bits = 11u8;
        let values: Vec<u32> =
            (0..10_000u32).map(|i| i.wrapping_mul(40503) & ((1 << 11) - 1)).collect();
        let expected = pushed_words(&values, bits);
        let words = atomic_buffer(expected.len());
        // Word-misaligned chunks (97 values × 11 bits) spliced in parallel.
        numarck_par::par_for_each(values.chunks(97), |c, chunk| {
            let local = pushed_words(chunk, bits);
            BitWriter::shift_or_into(
                &words,
                c * 97 * bits as usize,
                &local,
                chunk.len() * bits as usize,
            );
        });
        assert_eq!(into_plain(words), expected);
    }

    #[test]
    fn shift_or_into_ignores_stray_bits_past_len() {
        // Garbage above src_len_bits in the final source word must not
        // leak into the destination.
        let words = atomic_buffer(2);
        let src = [u64::MAX];
        BitWriter::shift_or_into(&words, 3, &src, 5);
        assert_eq!(into_plain(words), vec![0b1111_1000, 0]);
    }

    mod properties {
        use super::*;
        use numarck_prop::prelude::*;

        proptest! {
            #[test]
            fn roundtrip_random(
                values in numarck_prop::collection::vec(0u32..1 << 11, 0..2000)
            ) {
                let bits = 11u8;
                let mut w = BitWriter::new();
                for &v in &values {
                    w.push(v, bits);
                }
                let words = w.words().to_vec();
                let mut r = BitReader::new(&words, w.len_bits());
                for &v in &values {
                    prop_assert_eq!(r.read(bits), Some(v));
                }
                prop_assert_eq!(r.read(bits), None);
            }

            #[test]
            fn mixed_width_stream(ops in numarck_prop::collection::vec((1u8..=16, 0u32..65536), 0..500)) {
                let mut w = BitWriter::new();
                let mut expect = Vec::new();
                for &(bits, val) in &ops {
                    let mask = (1u32 << bits) - 1;
                    let v = val & mask;
                    w.push(v, bits);
                    expect.push((bits, v));
                }
                let words = w.words().to_vec();
                let mut r = BitReader::new(&words, w.len_bits());
                for (bits, v) in expect {
                    prop_assert_eq!(r.read(bits), Some(v));
                }
            }
        }
    }
}
