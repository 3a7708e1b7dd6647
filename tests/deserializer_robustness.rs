//! Robustness: no deserializer in the workspace may panic on arbitrary
//! input — corrupt checkpoint bytes must always surface as `Err`, never
//! as a crash (a checkpointing system that aborts while *reading* a
//! damaged checkpoint defeats its own purpose).

use numarck_prop::prelude::*;

use numarck_checkpoint::{AlignedBytes, CheckpointFile, CheckpointKind, MappedCheckpoint};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn numarck_block_from_bytes_never_panics(
        bytes in numarck_prop::collection::vec(any::<u8>(), 0..2000)
    ) {
        let _ = numarck::serialize::from_bytes(&bytes);
    }

    #[test]
    fn checkpoint_file_from_bytes_never_panics(
        bytes in numarck_prop::collection::vec(any::<u8>(), 0..2000)
    ) {
        let _ = CheckpointFile::from_bytes(&bytes);
    }

    #[test]
    fn mutated_valid_block_never_panics_or_lies(
        flips in numarck_prop::collection::vec((0usize..4096, 0u8..8), 1..8)
    ) {
        // Start from a VALID serialized block and flip arbitrary bits:
        // the reader must either reject it or return a block (bit flips
        // that only touch the exact-value payload... are caught by the
        // CRC, so in practice: reject).
        let prev: Vec<f64> = (0..500).map(|i| 1.0 + (i % 9) as f64).collect();
        let curr: Vec<f64> = prev.iter().map(|v| v * 1.01).collect();
        let config =
            numarck::Config::new(8, 0.001, numarck::Strategy::Clustering).expect("valid");
        let (block, _) =
            numarck::Compressor::new(config).compress(&prev, &curr).expect("finite");
        let mut bytes = numarck::serialize::to_bytes(&block).to_vec();
        for (pos, bit) in flips {
            let p = pos % bytes.len();
            bytes[p] ^= 1 << bit;
        }
        // A flip pair that cancels out reproduces the original; any
        // accepted result must decode cleanly.
        if let Ok(b) = numarck::serialize::from_bytes(&bytes) {
            let _ = numarck::decode::reconstruct(&prev, &b);
        }
    }

    #[test]
    fn huffman_from_lengths_never_panics(
        lengths in numarck_prop::collection::vec(0u8..64, 0..300)
    ) {
        // Arbitrary code-length tables: invalid ones (Kraft violation,
        // overlong codes) must come back as Err, not a crash.
        let _ = numarck::huffman::HuffmanCode::from_lengths(lengths);
    }

    #[test]
    fn huffman_decode_never_panics_on_arbitrary_streams(
        lengths in numarck_prop::collection::vec(0u8..16, 1..40),
        words in numarck_prop::collection::vec(any::<u64>(), 0..64),
        len_bits in 0usize..8192,
        count in 0usize..2000,
    ) {
        // Only structurally valid codes can reach the decoder in real
        // use, so pair a valid code with a completely arbitrary bit
        // stream (including len_bits lying past the buffer).
        if let Ok(code) = numarck::huffman::HuffmanCode::from_lengths(lengths) {
            let encoded = numarck::huffman::HuffmanEncoded { code, words, len_bits, count };
            let _ = numarck::huffman::decode_symbols(&encoded);
        }
    }

    #[test]
    fn mutated_huffman_block_never_panics(
        flips in numarck_prop::collection::vec((0usize..4096, 0u8..8), 1..8)
    ) {
        let prev: Vec<f64> = (0..500).map(|i| 2.0 + (i % 7) as f64).collect();
        let curr: Vec<f64> = prev.iter().map(|v| v * 1.004).collect();
        let config =
            numarck::Config::new(8, 0.001, numarck::Strategy::Clustering).expect("valid");
        let (block, _) =
            numarck::Compressor::new(config).compress(&prev, &curr).expect("finite");
        let mut bytes = numarck::serialize::to_bytes_with(
            &block,
            numarck::serialize::IndexEncoding::Huffman,
        )
        .to_vec();
        for (pos, bit) in flips {
            let p = pos % bytes.len();
            bytes[p] ^= 1 << bit;
        }
        if let Ok(b) = numarck::serialize::from_bytes(&bytes) {
            let _ = numarck::decode::reconstruct(&prev, &b);
        }
    }
}

// ---------------------------------------------------------------------------
// Container v2: adversarial inputs beyond random corruption.
//
// Random bit flips die on the whole-file CRC; a deliberate attacker (or
// a buggy writer) re-seals the outer checksums after lying somewhere
// structural. These tests mutate real v2 files and then *recompute every
// CRC*, so the only remaining defence is the layout validation itself.
// ---------------------------------------------------------------------------

/// Header/directory surgery kit for the v2 container. Offsets mirror
/// `format/v2.rs`; the tests are allowed to know the layout — that is
/// the point.
mod v2lab {
    pub use numarck::serialize::crc32;

    pub fn rd_u32(b: &[u8], at: usize) -> u32 {
        u32::from_le_bytes(b[at..at + 4].try_into().unwrap())
    }
    pub fn rd_u64(b: &[u8], at: usize) -> u64 {
        u64::from_le_bytes(b[at..at + 8].try_into().unwrap())
    }
    pub fn wr_u32(b: &mut [u8], at: usize, v: u32) {
        b[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }
    pub fn wr_u64(b: &mut [u8], at: usize, v: u64) {
        b[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// One directory row plus the byte positions of its mutable fields.
    pub struct DirRow {
        pub off: usize,
        pub len: usize,
        pub off_pos: usize,
        pub len_pos: usize,
        pub crc_pos: usize,
    }

    /// Walk the directory rows of a sealed v2 file.
    pub fn dir_rows(b: &[u8]) -> Vec<DirRow> {
        let count = rd_u32(b, 16) as usize;
        let mut p = rd_u64(b, 24) as usize;
        let mut rows = Vec::new();
        for _ in 0..count {
            let name_len = u16::from_le_bytes(b[p..p + 2].try_into().unwrap()) as usize;
            p += 2 + name_len;
            let row = DirRow {
                off: rd_u64(b, p) as usize,
                len: rd_u64(b, p + 8) as usize,
                off_pos: p,
                len_pos: p + 8,
                crc_pos: p + 16,
            };
            p += 20;
            rows.push(row);
        }
        rows
    }

    /// Recompute every checksum (section CRCs in the directory, dict
    /// CRC, dir CRC, header CRC, trailing file CRC) so a structural lie
    /// survives all integrity checks and must be caught by validation.
    pub fn reseal(b: &mut [u8]) {
        let n = b.len();
        let rows: Vec<(usize, usize, usize)> =
            dir_rows(b).iter().map(|r| (r.off, r.len, r.crc_pos)).collect();
        for (off, len, crc_pos) in rows {
            if off.saturating_add(len) <= n {
                let crc = crc32(&b[off..off + len]);
                wr_u32(b, crc_pos, crc);
            }
        }
        let dict_off = rd_u64(b, 32) as usize;
        let dict_entries = rd_u32(b, 40) as usize;
        if dict_off > 0 && dict_off + dict_entries * 8 <= n {
            let crc = crc32(&b[dict_off..dict_off + dict_entries * 8]);
            wr_u32(b, 44, crc);
        }
        let dir_off = rd_u64(b, 24) as usize;
        if dir_off < n - 4 {
            let crc = crc32(&b[dir_off..n - 4]);
            wr_u32(b, 48, crc);
        }
        let crc = crc32(&b[..52]);
        wr_u32(b, 52, crc);
        let crc = crc32(&b[..n - 4]);
        wr_u32(b, n - 4, crc);
    }
}

fn v2_sample_delta() -> Vec<u8> {
    // Two variables with *different* value shapes so their tables
    // differ and each section carries explicit dictionary references
    // (not the whole-dict shortcut).
    let cfg = numarck::Config::new(8, 0.001, numarck::Strategy::Clustering).expect("valid");
    let mut blocks = std::collections::BTreeMap::new();
    for (name, base, step) in [("dens", 1.0f64, 1.003f64), ("temp", 40.0, 1.011)] {
        let prev: Vec<f64> = (0..400).map(|i| base + (i % 13) as f64 * 0.5).collect();
        let curr: Vec<f64> =
            prev.iter().enumerate().map(|(i, v)| v * step.powi((i % 3) as i32)).collect();
        let (block, _) = numarck::encode::encode(&prev, &curr, &cfg).expect("finite");
        blocks.insert(name.to_string(), block);
    }
    CheckpointFile::new(7, CheckpointKind::Delta(blocks)).to_bytes()
}

fn v2_sample_full() -> Vec<u8> {
    let mut vars = std::collections::BTreeMap::new();
    vars.insert("rho".to_string(), (0..300).map(|i| 1.0 + (i % 9) as f64).collect());
    CheckpointFile::new(3, CheckpointKind::Full(vars)).to_bytes()
}

/// Both readers must reject the mutated bytes; the mapped reader sees
/// them through the same aligned buffer the backend hands it.
fn assert_both_readers_reject(bytes: &[u8], what: &str) {
    assert!(CheckpointFile::from_bytes(bytes).is_err(), "owned reader accepted {what}");
    assert!(
        MappedCheckpoint::parse(AlignedBytes::from_vec(bytes.to_vec())).is_err(),
        "mapped reader accepted {what}"
    );
}

#[test]
fn v2_every_prefix_truncation_is_rejected() {
    for (what, bytes) in [("full", v2_sample_full()), ("delta", v2_sample_delta())] {
        for cut in 0..bytes.len() {
            assert_both_readers_reject(&bytes[..cut], &format!("v2 {what} truncated to {cut}"));
        }
    }
}

#[test]
fn v2_lying_directory_offsets_are_rejected() {
    let base = v2_sample_delta();
    let rows = v2lab::dir_rows(&base);
    for (i, row) in rows.iter().enumerate() {
        // Point the section elsewhere: at the header, at the next
        // 64-byte slot, or past the end of the file.
        for lie in [0usize, row.off + 64, base.len()] {
            let mut b = base.clone();
            v2lab::wr_u64(&mut b, row.off_pos, lie as u64);
            v2lab::reseal(&mut b);
            assert_both_readers_reject(&b, &format!("dir row {i} offset lying as {lie}"));
        }
    }
}

#[test]
fn v2_lying_directory_lengths_are_rejected() {
    let base = v2_sample_delta();
    let rows = v2lab::dir_rows(&base);
    for (i, row) in rows.iter().enumerate() {
        // Off-by-one lies land inside the same 64-byte alignment slot,
        // so the layout tiling still closes: the mapped reader is
        // allowed to accept the directory and must instead fail when
        // the section's internal geometry is checked at decode.
        for lie in [0usize, row.len - 1, row.len + 1, row.len + 64, base.len()] {
            let mut b = base.clone();
            v2lab::wr_u64(&mut b, row.len_pos, lie as u64);
            v2lab::reseal(&mut b);
            assert_rejected_or_undecodable(&b, &format!("dir row {i} length lying as {lie}"));
        }
    }
}

#[test]
fn v2_overlapping_sections_are_rejected() {
    // Alias the second section onto the first: two directory rows
    // claiming the same bytes. The exact-tiling rule (every section
    // starts where the previous one, padded, ended) makes any overlap —
    // even this self-consistent-looking one — unrepresentable.
    let base = v2_sample_delta();
    let rows = v2lab::dir_rows(&base);
    assert!(rows.len() >= 2, "need two sections to overlap");
    let mut b = base.clone();
    v2lab::wr_u64(&mut b, rows[1].off_pos, rows[0].off as u64);
    v2lab::wr_u64(&mut b, rows[1].len_pos, rows[0].len as u64);
    v2lab::reseal(&mut b);
    assert_both_readers_reject(&b, "aliased overlapping sections");
}

/// Bogus dictionary references live inside a section, which the mapped
/// reader validates lazily: its `parse` may accept the layout, but the
/// tampered section must then fail to decode.
fn assert_rejected_or_undecodable(bytes: &[u8], what: &str) {
    assert!(CheckpointFile::from_bytes(bytes).is_err(), "owned reader accepted {what}");
    if let Ok(m) = MappedCheckpoint::parse(AlignedBytes::from_vec(bytes.to_vec())) {
        let prev: Vec<f64> = (0..400).map(|i| 1.0 + (i % 13) as f64 * 0.5).collect();
        assert!(decode_mapped(&m, &prev).is_err(), "mapped reader decoded {what} cleanly");
    }
}

/// Decode every delta variable of a mapped file against `prev`, in
/// place; the first error, if any.
fn decode_mapped(m: &MappedCheckpoint, prev: &[f64]) -> Result<(), numarck::error::NumarckError> {
    for (_, delta) in m.delta_variables()? {
        numarck::decode::reconstruct_ref(prev, &delta.block_ref())?;
    }
    Ok(())
}

#[test]
fn v2_bogus_dictionary_references_are_rejected() {
    let base = v2_sample_delta();
    let dict_entries = v2lab::rd_u32(&base, 40) as usize;
    let rows = v2lab::dir_rows(&base);
    // Find a section carrying explicit dictionary references.
    let (sec_off, table_len) = rows
        .iter()
        .find_map(|r| {
            let flags = base[r.off];
            let table_len = v2lab::rd_u32(&base, r.off + 4) as usize;
            (flags & 0x02 == 0 && table_len >= 2).then_some((r.off, table_len))
        })
        .expect("sample delta must have a section with explicit dict refs");
    let refs_at = |i: usize| sec_off + 64 + 4 * i;

    // Reference past the end of the dictionary.
    let mut b = base.clone();
    v2lab::wr_u32(&mut b, refs_at(table_len - 1), dict_entries as u32 + 5);
    v2lab::reseal(&mut b);
    assert_rejected_or_undecodable(&b, "dict reference past the dictionary");

    // References out of order (table must stay strictly ascending).
    let mut b = base.clone();
    let first = v2lab::rd_u32(&b, refs_at(0));
    let second = v2lab::rd_u32(&b, refs_at(1));
    v2lab::wr_u32(&mut b, refs_at(0), second);
    v2lab::wr_u32(&mut b, refs_at(1), first);
    v2lab::reseal(&mut b);
    assert_rejected_or_undecodable(&b, "non-ascending dict references");

    // Duplicate reference (would collapse two table entries into one).
    let mut b = base.clone();
    let first = v2lab::rd_u32(&b, refs_at(0));
    v2lab::wr_u32(&mut b, refs_at(1), first);
    v2lab::reseal(&mut b);
    assert_rejected_or_undecodable(&b, "duplicate dict references");
}

#[test]
fn v2_retired_huffman_section_flag_is_rejected() {
    // Section flag bit 0 once marked a Huffman-coded index stream. No
    // writer emits it, so a section carrying it is corrupt: a typed
    // error, never a misread of the fixed-width index words.
    let base = v2_sample_delta();
    for (i, row) in v2lab::dir_rows(&base).iter().enumerate() {
        let mut b = base.clone();
        b[row.off] |= 0x01;
        v2lab::reseal(&mut b);
        assert!(
            matches!(CheckpointFile::from_bytes(&b), Err(numarck::error::NumarckError::Corrupt(_))),
            "section {i} with flag 0x01 not rejected as corrupt"
        );
        assert_rejected_or_undecodable(&b, &format!("section {i} with flag 0x01"));
    }
}

#[test]
fn v2_resealed_unmutated_file_still_parses() {
    // Guard on the lab itself: reseal() of an untouched file must be a
    // no-op, proving the rejections above come from the lies, not from
    // a miscomputed checksum in the test kit.
    let mut b = v2_sample_delta();
    let orig = b.clone();
    v2lab::reseal(&mut b);
    assert_eq!(orig, b, "reseal changed a valid file's checksums");
    assert!(CheckpointFile::from_bytes(&b).is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Round-trip over both container versions: any full checkpoint
    /// (arbitrary finite payloads, arbitrary names) survives
    /// serialise → parse bit-exactly, in v1 and v2, through both
    /// readers.
    #[test]
    fn checkpoint_roundtrips_bit_exactly_in_both_versions(
        entries in numarck_prop::collection::vec(
            (
                0usize..6,
                numarck_prop::collection::vec(
                    prop_oneof![
                        -1e12f64..1e12,
                        Just(0.0),
                        Just(-0.0),
                        Just(f64::MIN_POSITIVE),
                    ],
                    0..80,
                ),
            ),
            0..4,
        ),
        iteration in 0u64..u64::MAX / 2,
    ) {
        const NAMES: [&str; 6] = ["dens", "ener", "p", "temp_k", "velx", "z9"];
        let vars: std::collections::BTreeMap<String, Vec<f64>> =
            entries.into_iter().map(|(i, data)| (NAMES[i].to_string(), data)).collect();
        let file = CheckpointFile::new(iteration, CheckpointKind::Full(vars));
        for bytes in [file.to_bytes(), file.to_bytes_v1()] {
            let back = CheckpointFile::from_bytes(&bytes).expect("own bytes parse");
            prop_assert_eq!(&back.iteration, &file.iteration);
            let (CheckpointKind::Full(a), CheckpointKind::Full(b)) = (&file.kind, &back.kind)
            else { panic!("kind changed") };
            prop_assert_eq!(a.len(), b.len());
            for ((n1, d1), (n2, d2)) in a.iter().zip(b) {
                prop_assert_eq!(n1, n2);
                let bits1: Vec<u64> = d1.iter().map(|v| v.to_bits()).collect();
                let bits2: Vec<u64> = d2.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(bits1, bits2);
            }
        }
        // The zero-copy reader agrees with the owned one on v2 bytes.
        let mapped = MappedCheckpoint::parse(AlignedBytes::from_vec(file.to_bytes()))
            .expect("own bytes parse mapped");
        let CheckpointKind::Full(a) = &file.kind else { unreachable!() };
        let m = mapped.full_variables().expect("full decode");
        prop_assert_eq!(a.len(), m.len());
        for ((n1, d1), (n2, d2)) in a.iter().zip(&m) {
            prop_assert_eq!(n1, n2);
            let bits1: Vec<u64> = d1.iter().map(|v| v.to_bits()).collect();
            let bits2: Vec<u64> = d2.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(bits1, bits2);
        }
    }

    /// Bit flips against a sealed v2 delta: the readers reject or — when
    /// a flip pair cancels — decode cleanly. Never a panic, never a lie.
    #[test]
    fn v2_mutated_delta_never_panics(
        flips in numarck_prop::collection::vec((0usize..8192, 0u8..8), 1..10)
    ) {
        let mut bytes = v2_sample_delta();
        for (pos, bit) in flips {
            let p = pos % bytes.len();
            bytes[p] ^= 1 << bit;
        }
        let prev: Vec<f64> = (0..400).map(|i| 1.0 + (i % 13) as f64 * 0.5).collect();
        if let Ok(file) = CheckpointFile::from_bytes(&bytes) {
            if let CheckpointKind::Delta(blocks) = &file.kind {
                for block in blocks.values() {
                    let _ = numarck::decode::reconstruct(&prev, block);
                }
            }
        }
        if let Ok(m) = MappedCheckpoint::parse(AlignedBytes::from_vec(bytes)) {
            let _ = decode_mapped(&m, &prev);
        }
    }
}

#[test]
fn truncations_of_valid_blobs_are_all_rejected() {
    let prev: Vec<f64> = (0..300).map(|i| 1.0 + (i % 11) as f64).collect();
    let curr: Vec<f64> = prev.iter().map(|v| v * 1.002).collect();
    let config = numarck::Config::new(9, 0.001, numarck::Strategy::LogScale).expect("valid");
    let (block, _) = numarck::Compressor::new(config).compress(&prev, &curr).expect("finite");
    for encoding in [
        numarck::serialize::IndexEncoding::FixedWidth,
        numarck::serialize::IndexEncoding::Huffman,
    ] {
        let bytes = numarck::serialize::to_bytes_with(&block, encoding);
        for cut in 0..bytes.len() {
            assert!(
                numarck::serialize::from_bytes(&bytes[..cut]).is_err(),
                "{encoding:?}: truncation to {cut} accepted"
            );
        }
    }
}
