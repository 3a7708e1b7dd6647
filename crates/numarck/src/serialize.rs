//! Binary (de)serialisation of compressed iterations.
//!
//! Little-endian layout, CRC-32 protected:
//!
//! ```text
//! [0..4)    magic  b"NMK1"
//! [4..6)    format version (u16)
//! [6]       bits B
//! [7]       reserved (0)
//! [8..16)   tolerance E (f64)
//! [16..24)  num_points (u64)
//! [24..32)  num_compressible (u64)
//! [32..36)  table_len (u32)
//! [36..40)  reserved (0)
//! table     table_len × f64 (sorted representatives)
//! bitmap    ceil(num_points / 64) × u64
//! indices   ceil(num_compressible · B / 64) × u64
//! exacts    (num_points − num_compressible) × f64
//! crc       CRC-32 (IEEE) of everything above (u32)
//! ```
//!
//! This is the *true* storage cost — unlike the paper's Eq. 3 it includes
//! the bitmap and header, so [`actual_compression_ratio`] is always
//! slightly below [`CompressedIteration::compression_ratio_eq3`].

use crate::encode::CompressedIteration;
use crate::error::NumarckError;
use crate::table::BinTable;

/// Magic bytes identifying a NUMARCK compressed block.
pub const MAGIC: [u8; 4] = *b"NMK1";
/// Current format version.
pub const VERSION: u16 = 1;
const HEADER_LEN: usize = 40;

/// How the index stream is stored on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexEncoding {
    /// Fixed `B` bits per index (the paper's storage model).
    #[default]
    FixedWidth,
    /// Canonical Huffman over the indices ([`crate::huffman`]): shrinks
    /// the `B/64` index cost toward the stream's entropy at the price of
    /// one byte of code length per possible symbol.
    Huffman,
}

/// Exact number of bytes [`to_bytes`] will produce for `block`.
pub fn serialized_len(block: &CompressedIteration) -> usize {
    let index_words = (block.num_compressible * block.bits as usize).div_ceil(64);
    HEADER_LEN
        + block.table.len() * 8
        + block.bitmap.len() * 8
        + index_words * 8
        + block.exact_values.len() * 8
        + 4 // crc
}

/// True on-disk compression ratio: `1 − serialized / raw` where raw is
/// 8 bytes per point. Zero for an empty block.
pub fn actual_compression_ratio(block: &CompressedIteration) -> f64 {
    if block.num_points == 0 {
        return 0.0;
    }
    1.0 - serialized_len(block) as f64 / (8 * block.num_points) as f64
}

/// Serialise a compressed block with fixed-width indices.
pub fn to_bytes(block: &CompressedIteration) -> Vec<u8> {
    to_bytes_with(block, IndexEncoding::FixedWidth)
}

/// Serialise with an explicit index encoding.
pub fn to_bytes_with(block: &CompressedIteration, encoding: IndexEncoding) -> Vec<u8> {
    let mut buf = Vec::with_capacity(serialized_len(block));
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.push(block.bits);
    buf.push(match encoding {
        IndexEncoding::FixedWidth => 0,
        IndexEncoding::Huffman => 1,
    });
    buf.extend_from_slice(&block.tolerance.to_le_bytes());
    buf.extend_from_slice(&(block.num_points as u64).to_le_bytes());
    buf.extend_from_slice(&(block.num_compressible as u64).to_le_bytes());
    buf.extend_from_slice(&(block.table.len() as u32).to_le_bytes());
    buf.extend_from_slice(&0u32.to_le_bytes());
    for &r in block.table.representatives() {
        buf.extend_from_slice(&r.to_le_bytes());
    }
    for &w in &block.bitmap {
        buf.extend_from_slice(&w.to_le_bytes());
    }
    match encoding {
        IndexEncoding::FixedWidth => {
            let index_words = (block.num_compressible * block.bits as usize).div_ceil(64);
            debug_assert!(block.index_words.len() >= index_words);
            for &w in &block.index_words[..index_words] {
                buf.extend_from_slice(&w.to_le_bytes());
            }
        }
        IndexEncoding::Huffman => {
            let num_symbols = block.table.len() + 1;
            let indices = (0..block.num_compressible)
                .map(|i| crate::bitstream::read_at(&block.index_words, block.bits, i));
            let encoded = crate::huffman::encode_symbols(indices, num_symbols);
            // Code lengths: one byte per possible symbol.
            buf.extend_from_slice(encoded.code.lengths());
            buf.extend_from_slice(&(encoded.len_bits as u64).to_le_bytes());
            for &w in &encoded.words {
                buf.extend_from_slice(&w.to_le_bytes());
            }
        }
    }
    for &v in &block.exact_values {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

/// Deserialise and validate a compressed block.
pub fn from_bytes(mut data: &[u8]) -> Result<CompressedIteration, NumarckError> {
    let total = data.len();
    if total < HEADER_LEN + 4 {
        return Err(NumarckError::Corrupt(format!("blob too short: {total} bytes")));
    }
    // CRC first: everything else assumes intact bytes.
    let body = &data[..total - 4];
    let stored_crc = u32::from_le_bytes(data[total - 4..].try_into().expect("4 bytes"));
    let computed = crc32(body);
    if stored_crc != computed {
        return Err(NumarckError::Corrupt(format!(
            "crc mismatch: stored {stored_crc:#x}, computed {computed:#x}"
        )));
    }

    let mut magic = [0u8; 4];
    data.copy_to_slice(&mut magic);
    if magic != MAGIC {
        return Err(NumarckError::Corrupt("bad magic".into()));
    }
    let version = data.get_u16_le();
    if version != VERSION {
        return Err(NumarckError::VersionMismatch { found: version, expected: VERSION });
    }
    let bits = data.get_u8();
    if !(1..=16).contains(&bits) {
        return Err(NumarckError::Corrupt(format!("bits {bits} out of range")));
    }
    let encoding = match data.get_u8() {
        0 => IndexEncoding::FixedWidth,
        1 => IndexEncoding::Huffman,
        e => return Err(NumarckError::Corrupt(format!("unknown index encoding {e}"))),
    };
    let tolerance = data.get_f64_le();
    let num_points = data.get_u64_le() as usize;
    let num_compressible = data.get_u64_le() as usize;
    let table_len = data.get_u32_le() as usize;
    let _reserved2 = data.get_u32_le();

    if num_compressible > num_points {
        return Err(NumarckError::Corrupt("num_compressible > num_points".into()));
    }
    if table_len >= (1usize << bits) {
        return Err(NumarckError::Corrupt(format!(
            "table_len {table_len} does not fit in {bits}-bit indices"
        )));
    }
    let bitmap_words = num_points.div_ceil(64);
    let exact_count = num_points - num_compressible;
    // Per-section length checks (the Huffman variant's index section has
    // data-dependent length, so a single up-front equality test is only
    // possible for the fixed-width layout).
    let fixed_sections = table_len * 8 + bitmap_words * 8 + exact_count * 8 + 4;
    if data.remaining() < fixed_sections {
        return Err(NumarckError::Corrupt("payload shorter than its fixed sections".into()));
    }
    if encoding == IndexEncoding::FixedWidth {
        let index_words = (num_compressible * bits as usize).div_ceil(64);
        if data.remaining() != fixed_sections + index_words * 8 {
            return Err(NumarckError::Corrupt(format!(
                "payload length mismatch: have {}, want {}",
                data.remaining(),
                fixed_sections + index_words * 8
            )));
        }
    }

    let mut reps = Vec::with_capacity(table_len);
    for _ in 0..table_len {
        let r = data.get_f64_le();
        if !r.is_finite() {
            return Err(NumarckError::Corrupt("non-finite table entry".into()));
        }
        reps.push(r);
    }
    // Representatives were written sorted & unique; verify so indices
    // cannot silently shift through BinTable's dedup.
    if reps.windows(2).any(|w| w[0] >= w[1]) {
        return Err(NumarckError::Corrupt("table entries not strictly increasing".into()));
    }
    let mut bitmap = Vec::with_capacity(bitmap_words);
    for _ in 0..bitmap_words {
        bitmap.push(data.get_u64_le());
    }
    let set_bits: usize = bitmap.iter().map(|w| w.count_ones() as usize).sum();
    if set_bits != num_compressible {
        return Err(NumarckError::Corrupt(format!(
            "bitmap population {set_bits} != num_compressible {num_compressible}"
        )));
    }
    let index_buf = match encoding {
        IndexEncoding::FixedWidth => {
            let index_words = (num_compressible * bits as usize).div_ceil(64);
            let mut buf = Vec::with_capacity(index_words);
            for _ in 0..index_words {
                buf.push(data.get_u64_le());
            }
            buf
        }
        IndexEncoding::Huffman => {
            let num_symbols = table_len + 1;
            if data.remaining() < num_symbols + 8 + exact_count * 8 + 4 {
                return Err(NumarckError::Corrupt("truncated huffman header".into()));
            }
            let mut lengths = vec![0u8; num_symbols];
            data.copy_to_slice(&mut lengths);
            let code = crate::huffman::HuffmanCode::from_lengths(lengths)?;
            let len_bits = data.get_u64_le() as usize;
            let words_needed = len_bits.div_ceil(64);
            if data.remaining() != words_needed * 8 + exact_count * 8 + 4 {
                return Err(NumarckError::Corrupt("huffman payload length mismatch".into()));
            }
            let mut words = Vec::with_capacity(words_needed);
            for _ in 0..words_needed {
                words.push(data.get_u64_le());
            }
            let encoded = crate::huffman::HuffmanEncoded {
                code,
                words,
                len_bits,
                count: num_compressible,
            };
            let symbols = crate::huffman::decode_symbols(&encoded)?;
            // Repack into the in-memory fixed-width layout.
            let mut writer =
                crate::bitstream::BitWriter::with_capacity(num_compressible, bits);
            for &sym in &symbols {
                if sym as usize > table_len {
                    return Err(NumarckError::Corrupt(format!(
                        "huffman symbol {sym} exceeds table length {table_len}"
                    )));
                }
                writer.push(sym, bits);
            }
            writer.into_words()
        }
    };
    let mut exact_values = Vec::with_capacity(exact_count);
    for _ in 0..exact_count {
        exact_values.push(data.get_f64_le());
    }

    let block = CompressedIteration {
        bits,
        tolerance,
        num_points,
        table: BinTable::new(reps),
        bitmap,
        index_words: index_buf,
        num_compressible,
        exact_values,
    };
    if block.table.len() != table_len {
        return Err(NumarckError::Corrupt("duplicate table entries".into()));
    }
    Ok(block)
}

/// CRC-32 (IEEE 802.3) of `data`: the dispatched `numarck-simd` kernel
/// (PCLMULQDQ fold, slice-by-16 or byte table, all bit-identical).
#[inline]
pub fn crc32(data: &[u8]) -> u32 {
    numarck_simd::crc::crc32(data)
}

/// Little-endian reads that consume the front of a byte slice: the wire
/// parsers' cursor. Reads past the end panic like an out-of-bounds index,
/// so parsers check [`GetLe::remaining`] before every variable-length read.
pub trait GetLe {
    fn remaining(&self) -> usize;
    fn copy_to_slice(&mut self, dst: &mut [u8]);

    fn get_array<const N: usize>(&mut self) -> [u8; N] {
        let mut a = [0u8; N];
        self.copy_to_slice(&mut a);
        a
    }
    fn get_u8(&mut self) -> u8 {
        self.get_array::<1>()[0]
    }
    fn get_u16_le(&mut self) -> u16 {
        u16::from_le_bytes(self.get_array())
    }
    fn get_u32_le(&mut self) -> u32 {
        u32::from_le_bytes(self.get_array())
    }
    fn get_u64_le(&mut self) -> u64 {
        u64::from_le_bytes(self.get_array())
    }
    fn get_f64_le(&mut self) -> f64 {
        f64::from_le_bytes(self.get_array())
    }
}

impl GetLe for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        let (head, rest) = self.split_at(dst.len());
        dst.copy_from_slice(head);
        *self = rest;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::encode::encode;
    use crate::strategy::Strategy;

    fn sample_block(strategy: Strategy) -> CompressedIteration {
        let n = 3000;
        let prev: Vec<f64> =
            (0..n).map(|i| if i % 50 == 0 { 0.0 } else { 1.0 + (i % 13) as f64 }).collect();
        let curr: Vec<f64> = prev
            .iter()
            .enumerate()
            .map(|(i, v)| if *v == 0.0 { 9.0 } else { v * (1.0 + 0.002 * (i % 7) as f64) })
            .collect();
        let cfg = Config::new(8, 0.001, strategy).unwrap();
        encode(&prev, &curr, &cfg).unwrap().0
    }

    #[test]
    fn roundtrip_all_strategies() {
        for s in Strategy::all() {
            let block = sample_block(s);
            let bytes = to_bytes(&block);
            assert_eq!(bytes.len(), serialized_len(&block), "{s}");
            let back = from_bytes(&bytes).unwrap();
            assert_eq!(back, block, "{s}");
        }
    }

    #[test]
    fn crc32_known_vector() {
        // Standard test vector: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn bit_flip_anywhere_is_detected() {
        let block = sample_block(Strategy::Clustering);
        let bytes = to_bytes(&block).to_vec();
        // Flip a bit in several representative positions.
        for pos in [0usize, 5, HEADER_LEN + 3, bytes.len() / 2, bytes.len() - 1] {
            let mut corrupted = bytes.clone();
            corrupted[pos] ^= 0x10;
            assert!(
                from_bytes(&corrupted).is_err(),
                "flip at {pos} went undetected"
            );
        }
    }

    #[test]
    fn truncation_is_detected() {
        let block = sample_block(Strategy::EqualWidth);
        let bytes = to_bytes(&block);
        for cut in [1usize, 10, bytes.len() / 2, bytes.len() - 1] {
            assert!(from_bytes(&bytes[..cut]).is_err(), "truncation to {cut} accepted");
        }
    }

    #[test]
    fn version_mismatch_reported() {
        let block = sample_block(Strategy::LogScale);
        let mut bytes = to_bytes(&block).to_vec();
        bytes[4] = 99; // bump version
        let body_len = bytes.len() - 4;
        let crc = crc32(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            from_bytes(&bytes),
            Err(NumarckError::VersionMismatch { found: 99, expected: VERSION })
        ));
    }

    #[test]
    fn actual_ratio_tracks_eq3() {
        // Eq. 3 charges a full (2^B − 1)-entry table but omits the bitmap;
        // the serializer stores only learned entries but pays for the
        // bitmap and header. Net: actual may land on either side of Eq. 3
        // but only by the table savings + bitmap cost.
        let block = sample_block(Strategy::Clustering);
        let eq3 = block.compression_ratio_eq3();
        let actual = actual_compression_ratio(&block);
        let n_bits = 64.0 * block.num_points as f64;
        let table_savings =
            (((1usize << block.bits) - 1 - block.table.len()) * 64) as f64 / n_bits;
        let bitmap_cost = (block.bitmap.len() * 64) as f64 / n_bits;
        let header_cost = (HEADER_LEN + 4) as f64 * 8.0 / n_bits;
        assert!(actual <= eq3 + table_savings + 1e-12, "actual {actual} eq3 {eq3}");
        assert!(
            actual >= eq3 - bitmap_cost - header_cost - 1e-12,
            "actual {actual} eq3 {eq3}"
        );
    }

    #[test]
    fn empty_block_roundtrip() {
        let cfg = Config::new(8, 0.001, Strategy::Clustering).unwrap();
        let (block, _) = encode(&[], &[], &cfg).unwrap();
        let back = from_bytes(&to_bytes(&block)).unwrap();
        assert_eq!(back, block);
        assert_eq!(actual_compression_ratio(&block), 0.0);
    }

    #[test]
    fn huffman_encoding_roundtrips_for_all_strategies() {
        for s in Strategy::all() {
            let block = sample_block(s);
            let bytes = to_bytes_with(&block, IndexEncoding::Huffman);
            let back = from_bytes(&bytes).unwrap();
            assert_eq!(back, block, "{s}");
        }
    }

    #[test]
    fn huffman_encoding_is_smaller_on_skewed_indices() {
        // Mostly index-0 stream: the Huffman variant must be much
        // smaller on the wire.
        let n = 20_000;
        let prev: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
        let curr: Vec<f64> = prev
            .iter()
            .enumerate()
            .map(|(i, v)| if i % 20 == 0 { v * 1.05 } else { v * 1.0001 })
            .collect();
        let cfg = Config::new(8, 0.001, Strategy::Clustering).unwrap();
        let (block, _) = encode(&prev, &curr, &cfg).unwrap();
        let fixed = to_bytes_with(&block, IndexEncoding::FixedWidth);
        let huff = to_bytes_with(&block, IndexEncoding::Huffman);
        assert!(
            (huff.len() as f64) < fixed.len() as f64 * 0.5,
            "huffman {} vs fixed {}",
            huff.len(),
            fixed.len()
        );
        assert_eq!(from_bytes(&huff).unwrap(), from_bytes(&fixed).unwrap());
    }

    #[test]
    fn huffman_corruption_detected() {
        let block = sample_block(Strategy::Clustering);
        let bytes = to_bytes_with(&block, IndexEncoding::Huffman).to_vec();
        for pos in [6usize, 44, bytes.len() / 2, bytes.len() - 2] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x04;
            assert!(from_bytes(&bad).is_err(), "flip at {pos}");
        }
    }

    #[test]
    fn empty_block_huffman_roundtrip() {
        let cfg = Config::new(8, 0.001, Strategy::Clustering).unwrap();
        let (block, _) = encode(&[], &[], &cfg).unwrap();
        let back = from_bytes(&to_bytes_with(&block, IndexEncoding::Huffman)).unwrap();
        assert_eq!(back, block);
    }

    #[test]
    fn decode_after_roundtrip_matches_direct_decode() {
        let n = 1000;
        let prev: Vec<f64> = (0..n).map(|i| 2.0 + (i % 29) as f64).collect();
        let curr: Vec<f64> = prev.iter().map(|v| v * 1.01).collect();
        let cfg = Config::new(9, 0.002, Strategy::Clustering).unwrap();
        let (block, _) = encode(&prev, &curr, &cfg).unwrap();
        let direct = crate::decode::reconstruct(&prev, &block).unwrap();
        let wire = from_bytes(&to_bytes(&block)).unwrap();
        let via_wire = crate::decode::reconstruct(&prev, &wire).unwrap();
        assert_eq!(direct, via_wire);
    }
}
