//! Container format **v2** — shared dictionaries, seekable directory,
//! mmap-ready alignment.
//!
//! ```text
//! header (64 bytes):
//!   [0..4)   magic b"NCKP"
//!   [4..6)   version (u16) = 2
//!   [6]      kind: 0 = full, 1 = delta
//!   [7]      flags: bit 0 = file carries a shared dictionary
//!   [8..16)  iteration number (u64)
//!   [16..20) variable count (u32)
//!   [20..24) delta span (u32) — same offset and meaning as v1, so
//!            span peeking never needs to know the version
//!   [24..32) directory offset (u64)
//!   [32..40) dictionary offset (u64, 0 when absent)
//!   [40..44) dictionary entries (u32)
//!   [44..48) dictionary crc32 (0 when absent)
//!   [48..52) directory crc32 (over [dir_off .. len−4))
//!   [52..56) header crc32 (over bytes [0..52))
//!   [56..64) reserved (0)
//! dictionary  entries × f64 LE, at offset 64, padded to 64  (deltas only)
//! sections    one per variable, each starting on a 64-byte boundary
//! directory   per variable, in ascending name order:
//!               name_len (u16) | name | section_off (u64) |
//!               section_len (u64) | section_crc32 (u32)
//! crc32 of everything above (u32)
//! ```
//!
//! A **full** section is the raw `num_points × f64 LE` values. A
//! **delta** section is:
//!
//! ```text
//! sub-header (64 bytes):
//!   [0]      flags: bit 1 = table is the whole dictionary; every
//!            other bit must be 0 (bit 0 is rejected as corrupt)
//!   [1]      bits B
//!   [2..4)   reserved (0)
//!   [4..8)   table_len (u32)
//!   [8..16)  tolerance E (f64)
//!   [16..24) num_points (u64)
//!   [24..32) num_compressible (u64)
//!   [32..40) bitmap offset, relative to the section start (u64, ×64)
//!   [40..48) index offset, relative (u64, ×64)
//!   [48..56) exacts offset, relative (u64, ×64)
//!   [56..64) reserved (0)
//! table refs  table_len × u32 dictionary positions (absent when the
//!             table is the whole dictionary)
//! bitmap      ceil(num_points / 64) × u64, at the bitmap offset
//! indices     ceil(num_compressible · B / 64) × u64 (fixed width)
//! exacts      (num_points − num_compressible) × f64
//! ```
//!
//! Every variable references the *shared dictionary* (the union of the
//! per-variable centroid tables, sorted by total order) instead of
//! embedding its own table: the pooled table the group encoder fits is
//! persisted once per iteration, and per-variable cost drops to zero
//! (whole-dictionary flag) or 4 bytes per entry. All three payload
//! subsections start on 64-byte boundaries relative to the file, so a
//! mapped file decodes in place — see
//! [`MappedCheckpoint::delta_variables`]. There is one v2 reader, the
//! mapped one: [`super::CheckpointView`] holds it, and an owned
//! [`CheckpointFile`] is a copy taken out of its sections.

use std::borrow::Cow;

use numarck::encode::CompressedIteration;
use numarck::error::NumarckError;
use numarck::serialize as nser;

use super::{CheckpointFile, CheckpointKind, Hop, SectionInfo, MAGIC, VERSION_V2};
use crate::mmapio::AlignedBytes;
use crate::VariableSet;

/// Header length; also the offset of the dictionary when present.
pub const HEADER_LEN: usize = 64;
/// Delta section sub-header length.
pub const SUBHEADER_LEN: usize = 64;
/// Section alignment: every section (and every payload subsection within
/// a delta section) starts on a multiple of this, sized so mapped decode
/// slices are always reinterpretable and cache-line aligned.
pub const SECTION_ALIGN: usize = 64;

/// File flag: a shared dictionary section is present.
const FLAG_HAS_DICT: u8 = 0x01;
/// Section flag: the variable's table is the whole dictionary.
const SEC_WHOLE_DICT: u8 = 0x02;

fn align_up(x: usize, align: usize) -> usize {
    x.div_ceil(align) * align
}

fn pad_to(buf: &mut Vec<u8>, align: usize) {
    buf.resize(align_up(buf.len(), align), 0);
}

fn corrupt(msg: impl Into<String>) -> NumarckError {
    NumarckError::Corrupt(msg.into())
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Serialise a checkpoint in the v2 layout.
pub(super) fn to_bytes(file: &CheckpointFile) -> Vec<u8> {
    let mut buf = vec![0u8; HEADER_LEN];

    // Shared dictionary: union of the per-variable tables, sorted by
    // total order, deduplicated by bit pattern. When the manager's group
    // encoder produced one pooled table, this *is* that table and every
    // section takes the whole-dictionary shortcut.
    let dict: Vec<f64> = match &file.kind {
        CheckpointKind::Full(_) => Vec::new(),
        CheckpointKind::Delta(blocks) => build_dict(blocks),
    };
    let (flags, dict_off, dict_crc) = if dict.is_empty() {
        (0u8, 0usize, 0u32)
    } else {
        let start = buf.len();
        for &r in &dict {
            buf.extend_from_slice(&r.to_le_bytes());
        }
        let crc = nser::crc32(&buf[start..]);
        pad_to(&mut buf, SECTION_ALIGN);
        (FLAG_HAS_DICT, start, crc)
    };

    // Sections, each on a 64-byte boundary; the directory records the
    // unpadded length and a per-section CRC so a seekable reader can
    // verify exactly what it touches.
    let mut entries: Vec<(String, u64, u64, u32)> = Vec::new();
    let (kind_byte, count) = match &file.kind {
        CheckpointKind::Full(vars) => {
            for (name, data) in vars {
                debug_assert_eq!(buf.len() % SECTION_ALIGN, 0);
                let off = buf.len();
                for &v in data {
                    buf.extend_from_slice(&v.to_le_bytes());
                }
                let crc = nser::crc32(&buf[off..]);
                entries.push((name.clone(), off as u64, (buf.len() - off) as u64, crc));
                pad_to(&mut buf, SECTION_ALIGN);
            }
            (0u8, vars.len())
        }
        CheckpointKind::Delta(blocks) => {
            for (name, block) in blocks {
                debug_assert_eq!(buf.len() % SECTION_ALIGN, 0);
                let off = buf.len();
                encode_delta_section(&mut buf, block, &dict);
                let crc = nser::crc32(&buf[off..]);
                entries.push((name.clone(), off as u64, (buf.len() - off) as u64, crc));
                pad_to(&mut buf, SECTION_ALIGN);
            }
            (1u8, blocks.len())
        }
    };

    let dir_off = buf.len();
    for (name, off, len, crc) in &entries {
        assert!(name.len() <= u16::MAX as usize, "variable name too long");
        buf.extend_from_slice(&(name.len() as u16).to_le_bytes());
        buf.extend_from_slice(name.as_bytes());
        buf.extend_from_slice(&off.to_le_bytes());
        buf.extend_from_slice(&len.to_le_bytes());
        buf.extend_from_slice(&crc.to_le_bytes());
    }
    let dir_crc = nser::crc32(&buf[dir_off..]);

    let span = match &file.kind {
        CheckpointKind::Full(_) => 0,
        CheckpointKind::Delta(_) => file.delta_span,
    };
    let mut header = [0u8; HEADER_LEN];
    header[0..4].copy_from_slice(&MAGIC);
    header[4..6].copy_from_slice(&VERSION_V2.to_le_bytes());
    header[6] = kind_byte;
    header[7] = flags;
    header[8..16].copy_from_slice(&file.iteration.to_le_bytes());
    header[16..20].copy_from_slice(&(count as u32).to_le_bytes());
    header[20..24].copy_from_slice(&span.to_le_bytes());
    header[24..32].copy_from_slice(&(dir_off as u64).to_le_bytes());
    header[32..40].copy_from_slice(&(dict_off as u64).to_le_bytes());
    header[40..44].copy_from_slice(&(dict.len() as u32).to_le_bytes());
    header[44..48].copy_from_slice(&dict_crc.to_le_bytes());
    header[48..52].copy_from_slice(&dir_crc.to_le_bytes());
    let hcrc = nser::crc32(&header[..52]);
    header[52..56].copy_from_slice(&hcrc.to_le_bytes());
    buf[..HEADER_LEN].copy_from_slice(&header);

    let crc = nser::crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

/// Union of every block's representatives: sorted by `total_cmp`,
/// deduplicated by bit pattern (so `-0.0`/`0.0` from different variables
/// both survive and every table entry round-trips bit-exactly).
fn build_dict(blocks: &std::collections::BTreeMap<String, CompressedIteration>) -> Vec<f64> {
    let mut all: Vec<f64> = blocks
        .values()
        .flat_map(|b| b.table.representatives().iter().copied())
        .collect();
    all.sort_by(|a, b| a.total_cmp(b));
    all.dedup_by(|a, b| a.to_bits() == b.to_bits());
    all
}

/// Position of `r` in the sorted-by-total-order dictionary. `r` is
/// guaranteed present: the dictionary was built from these very tables.
fn dict_index(dict: &[f64], r: f64) -> u32 {
    let pos = dict.partition_point(|d| d.total_cmp(&r) == std::cmp::Ordering::Less);
    debug_assert!(pos < dict.len() && dict[pos].to_bits() == r.to_bits());
    pos as u32
}

fn encode_delta_section(buf: &mut Vec<u8>, block: &CompressedIteration, dict: &[f64]) {
    let reps = block.table.representatives();
    let whole_dict = reps.len() == dict.len()
        && reps.iter().zip(dict).all(|(a, b)| a.to_bits() == b.to_bits());
    let n = block.num_points;
    let nc = block.num_compressible;
    let bits = block.bits;

    let flags = if whole_dict { SEC_WHOLE_DICT } else { 0 };
    let index_bytes = (nc * bits as usize).div_ceil(64) * 8;

    let table_bytes = if whole_dict { 0 } else { 4 * reps.len() };
    let bitmap_bytes = n.div_ceil(64) * 8;
    let exact_bytes = block.exact_values.len() * 8;
    let bitmap_rel = align_up(SUBHEADER_LEN + table_bytes, SECTION_ALIGN);
    let index_rel = align_up(bitmap_rel + bitmap_bytes, SECTION_ALIGN);
    let exacts_rel = align_up(index_rel + index_bytes, SECTION_ALIGN);

    let base = buf.len();
    let mut sub = [0u8; SUBHEADER_LEN];
    sub[0] = flags;
    sub[1] = bits;
    sub[4..8].copy_from_slice(&(reps.len() as u32).to_le_bytes());
    sub[8..16].copy_from_slice(&block.tolerance.to_le_bytes());
    sub[16..24].copy_from_slice(&(n as u64).to_le_bytes());
    sub[24..32].copy_from_slice(&(nc as u64).to_le_bytes());
    sub[32..40].copy_from_slice(&(bitmap_rel as u64).to_le_bytes());
    sub[40..48].copy_from_slice(&(index_rel as u64).to_le_bytes());
    sub[48..56].copy_from_slice(&(exacts_rel as u64).to_le_bytes());
    buf.extend_from_slice(&sub);

    if !whole_dict {
        for &r in reps {
            buf.extend_from_slice(&dict_index(dict, r).to_le_bytes());
        }
    }
    buf.resize(base + bitmap_rel, 0);
    for &w in &block.bitmap {
        buf.extend_from_slice(&w.to_le_bytes());
    }
    buf.resize(base + index_rel, 0);
    let words = index_bytes / 8;
    debug_assert!(block.index_words.len() >= words);
    for &w in &block.index_words[..words] {
        buf.extend_from_slice(&w.to_le_bytes());
    }
    buf.resize(base + exacts_rel, 0);
    for &v in &block.exact_values {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    debug_assert_eq!(buf.len() - base, exacts_rel + exact_bytes);
}

// ---------------------------------------------------------------------------
// Layout parsing
// ---------------------------------------------------------------------------

/// One directory row.
#[derive(Debug, Clone)]
struct DirEntry {
    name: String,
    off: usize,
    len: usize,
    crc: u32,
}

/// Validated v2 frame: header fields plus the parsed directory. Section
/// *contents* are not yet validated — per-section CRCs gate each access.
#[derive(Debug, Clone)]
struct Layout {
    kind_byte: u8,
    iteration: u64,
    delta_span: u32,
    dict_off: usize,
    dict_entries: usize,
    entries: Vec<DirEntry>,
}

fn le_u16(d: &[u8], at: usize) -> u16 {
    u16::from_le_bytes(d[at..at + 2].try_into().expect("2 bytes"))
}
fn le_u32(d: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(d[at..at + 4].try_into().expect("4 bytes"))
}
fn le_u64(d: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(d[at..at + 8].try_into().expect("8 bytes"))
}
fn le_f64(d: &[u8], at: usize) -> f64 {
    f64::from_le_bytes(d[at..at + 8].try_into().expect("8 bytes"))
}

/// Hostile-length clamp: counts larger than this are lies — no real
/// checkpoint approaches 2^40 points or sections.
const SANE_MAX: u64 = 1 << 40;

fn checked_count(v: u64, what: &str) -> Result<usize, NumarckError> {
    if v > SANE_MAX {
        return Err(corrupt(format!("{what} {v} implausibly large")));
    }
    Ok(v as usize)
}

/// Parse and validate the v2 frame: the whole-file trailing CRC (so
/// single-bit rot anywhere in the file, padding included, fails
/// loudly), header CRC, directory CRC, dictionary CRC, and the section
/// placement rules (ascending 64-byte-aligned offsets, no overlap, no
/// gap other than alignment padding, directory exactly where the last
/// section's padding ends).
fn parse_layout(data: &[u8]) -> Result<Layout, NumarckError> {
    if data.len() < HEADER_LEN + 4 {
        return Err(corrupt("v2 checkpoint file too short"));
    }
    let stored = super::content_crc(data);
    let computed = nser::crc32(&data[..data.len() - 4]);
    if stored != computed {
        return Err(corrupt(format!(
            "checkpoint crc mismatch: stored {stored:#x}, computed {computed:#x}"
        )));
    }
    if data[0..4] != MAGIC {
        return Err(corrupt("bad checkpoint magic"));
    }
    let version = le_u16(data, 4);
    if version != VERSION_V2 {
        return Err(NumarckError::VersionMismatch { found: version, expected: VERSION_V2 });
    }
    let stored_hcrc = le_u32(data, 52);
    let computed_hcrc = nser::crc32(&data[..52]);
    if stored_hcrc != computed_hcrc {
        return Err(corrupt(format!(
            "header crc mismatch: stored {stored_hcrc:#x}, computed {computed_hcrc:#x}"
        )));
    }
    let kind_byte = data[6];
    if kind_byte > 1 {
        return Err(corrupt(format!("unknown checkpoint kind {kind_byte}")));
    }
    let flags = data[7];
    if flags & !FLAG_HAS_DICT != 0 {
        return Err(corrupt(format!("unknown header flags {flags:#x}")));
    }
    if data[56..64].iter().any(|&b| b != 0) {
        return Err(corrupt("nonzero reserved header bytes"));
    }
    let iteration = le_u64(data, 8);
    let var_count = checked_count(le_u32(data, 16) as u64, "variable count")?;
    let delta_span = le_u32(data, 20);
    if kind_byte == 0 && delta_span != 0 {
        return Err(corrupt("full checkpoint with nonzero delta span"));
    }
    let dir_off = checked_count(le_u64(data, 24), "directory offset")?;
    let dict_off = checked_count(le_u64(data, 32), "dictionary offset")?;
    let dict_entries = checked_count(le_u32(data, 40) as u64, "dictionary entries")?;
    let dict_crc = le_u32(data, 44);
    let dir_crc = le_u32(data, 48);

    if dir_off < HEADER_LEN || dir_off > data.len() - 4 {
        return Err(corrupt(format!("directory offset {dir_off} out of bounds")));
    }
    let computed_dir_crc = nser::crc32(&data[dir_off..data.len() - 4]);
    if dir_crc != computed_dir_crc {
        return Err(corrupt(format!(
            "directory crc mismatch: stored {dir_crc:#x}, computed {computed_dir_crc:#x}"
        )));
    }

    // Dictionary frame.
    let sections_start;
    if flags & FLAG_HAS_DICT != 0 {
        if kind_byte == 0 {
            return Err(corrupt("full checkpoint carries a dictionary"));
        }
        if dict_off != HEADER_LEN || dict_entries == 0 {
            return Err(corrupt("dictionary flag set but frame inconsistent"));
        }
        let dict_end = dict_off + dict_entries * 8;
        if dict_end > dir_off {
            return Err(corrupt("dictionary overruns the directory"));
        }
        let computed = nser::crc32(&data[dict_off..dict_end]);
        if dict_crc != computed {
            return Err(corrupt(format!(
                "dictionary crc mismatch: stored {dict_crc:#x}, computed {computed:#x}"
            )));
        }
        // Entries: finite, strictly ascending in total order (unique by
        // bit pattern) — so per-variable references cannot silently
        // shift or alias.
        let mut prev: Option<f64> = None;
        for i in 0..dict_entries {
            let v = le_f64(data, dict_off + i * 8);
            if !v.is_finite() {
                return Err(corrupt("non-finite dictionary entry"));
            }
            if let Some(p) = prev {
                if p.total_cmp(&v) != std::cmp::Ordering::Less {
                    return Err(corrupt("dictionary entries not strictly ascending"));
                }
            }
            prev = Some(v);
        }
        sections_start = align_up(dict_end, SECTION_ALIGN);
    } else {
        if dict_off != 0 || dict_entries != 0 || dict_crc != 0 {
            return Err(corrupt("dictionary fields set without the dictionary flag"));
        }
        sections_start = HEADER_LEN;
    }

    // Directory rows.
    let mut entries = Vec::with_capacity(var_count);
    let mut cur = dir_off;
    let dir_end = data.len() - 4;
    for _ in 0..var_count {
        if dir_end - cur < 2 {
            return Err(corrupt("truncated directory entry"));
        }
        let name_len = le_u16(data, cur) as usize;
        cur += 2;
        if dir_end - cur < name_len + 20 {
            return Err(corrupt("truncated directory entry"));
        }
        let name = std::str::from_utf8(&data[cur..cur + name_len])
            .map_err(|_| corrupt("variable name not UTF-8"))?
            .to_string();
        cur += name_len;
        let off = checked_count(le_u64(data, cur), "section offset")?;
        let len = checked_count(le_u64(data, cur + 8), "section length")?;
        let crc = le_u32(data, cur + 16);
        cur += 20;
        entries.push(DirEntry { name, off, len, crc });
    }
    if cur != dir_end {
        return Err(corrupt(format!("{} trailing directory bytes", dir_end - cur)));
    }
    if entries.windows(2).any(|w| w[0].name >= w[1].name) {
        return Err(corrupt("directory names not strictly ascending"));
    }

    // Section placement: offsets must tile [sections_start, dir_off)
    // exactly (alignment padding aside). This single rule rejects lying
    // offsets, lying lengths, overlapping sections and smuggled bytes.
    let mut expected = sections_start;
    for e in &entries {
        if e.off != expected {
            return Err(corrupt(format!(
                "section '{}' at offset {}, expected {expected}",
                e.name, e.off
            )));
        }
        let end = e
            .off
            .checked_add(e.len)
            .filter(|&end| end <= dir_off)
            .ok_or_else(|| corrupt(format!("section '{}' overruns the directory", e.name)))?;
        expected = align_up(end, SECTION_ALIGN);
    }
    if expected != dir_off {
        return Err(corrupt(format!(
            "directory at {dir_off} but sections end at {expected}"
        )));
    }

    Ok(Layout { kind_byte, iteration, delta_span, dict_off, dict_entries, entries })
}

/// The dictionary bytes (empty when the file has none).
fn dict_bytes<'a>(data: &'a [u8], layout: &Layout) -> &'a [u8] {
    &data[layout.dict_off..layout.dict_off + layout.dict_entries * 8]
}

// ---------------------------------------------------------------------------
// Section parsing
// ---------------------------------------------------------------------------

/// Borrowed view of one delta section, fully bounds-checked. All
/// payload slices are raw bytes, reinterpreted in place by the mapped
/// reader.
struct SectionView<'a> {
    flags: u8,
    bits: u8,
    table_len: usize,
    tolerance: f64,
    num_points: usize,
    num_compressible: usize,
    /// `table_len × u32` dictionary positions; empty for whole-dict.
    table_idx: &'a [u8],
    bitmap: &'a [u8],
    index: &'a [u8],
    exacts: &'a [u8],
}

fn check_section_crc(data: &[u8], e: &DirEntry) -> Result<(), NumarckError> {
    if e.off + e.len > data.len() {
        return Err(corrupt(format!("section '{}' out of bounds", e.name)));
    }
    let computed = nser::crc32(&data[e.off..e.off + e.len]);
    if computed != e.crc {
        return Err(corrupt(format!(
            "section '{}' crc mismatch: stored {:#x}, computed {computed:#x}",
            e.name, e.crc
        )));
    }
    Ok(())
}

// Neither section parser re-verifies the section CRC: the reader
// verifies the whole-file CRC at open, which already covers every
// section byte, and hashing the payload a second time on the decode
// path costs real restart throughput. The stored per-section CRCs exist
// for *seekable* partial readers and are verified by [`describe`] (the
// inspector) and [`MappedCheckpoint::verify`] (scrub, GC, recovery).
fn parse_full_section<'a>(data: &'a [u8], e: &DirEntry) -> Result<&'a [u8], NumarckError> {
    if e.off + e.len > data.len() {
        return Err(corrupt(format!("section '{}' out of bounds", e.name)));
    }
    if !e.len.is_multiple_of(8) {
        return Err(corrupt(format!(
            "full payload for '{}' not a multiple of 8 bytes",
            e.name
        )));
    }
    Ok(&data[e.off..e.off + e.len])
}

fn parse_delta_section<'a>(
    data: &'a [u8],
    e: &DirEntry,
    dict_entries: usize,
) -> Result<SectionView<'a>, NumarckError> {
    if e.off + e.len > data.len() {
        return Err(corrupt(format!("section '{}' out of bounds", e.name)));
    }
    let sec = &data[e.off..e.off + e.len];
    if sec.len() < SUBHEADER_LEN {
        return Err(corrupt(format!("delta section for '{}' too short", e.name)));
    }
    let flags = sec[0];
    if flags & !SEC_WHOLE_DICT != 0 {
        return Err(corrupt(format!("unknown section flags {flags:#x} for '{}'", e.name)));
    }
    let bits = sec[1];
    if !(1..=16).contains(&bits) {
        return Err(corrupt(format!("bits {bits} out of range for '{}'", e.name)));
    }
    if sec[2] != 0 || sec[3] != 0 {
        return Err(corrupt("nonzero reserved section bytes"));
    }
    let table_len = checked_count(le_u32(sec, 4) as u64, "table length")?;
    if table_len >= (1usize << bits) {
        return Err(corrupt(format!(
            "table_len {table_len} does not fit in {bits}-bit indices"
        )));
    }
    let tolerance = le_f64(sec, 8);
    let num_points = checked_count(le_u64(sec, 16), "num_points")?;
    let num_compressible = checked_count(le_u64(sec, 24), "num_compressible")?;
    if num_compressible > num_points {
        return Err(corrupt("num_compressible > num_points"));
    }
    let bitmap_rel = checked_count(le_u64(sec, 32), "bitmap offset")?;
    let index_rel = checked_count(le_u64(sec, 40), "index offset")?;
    let exacts_rel = checked_count(le_u64(sec, 48), "exacts offset")?;
    if le_u64(sec, 56) != 0 {
        return Err(corrupt("nonzero reserved section bytes"));
    }

    let whole_dict = flags & SEC_WHOLE_DICT != 0;
    if whole_dict && table_len != dict_entries {
        return Err(corrupt(format!(
            "whole-dictionary table for '{}' but table_len {table_len} != dictionary {dict_entries}",
            e.name
        )));
    }
    let table_bytes = if whole_dict { 0 } else { 4 * table_len };
    let bitmap_bytes = num_points.div_ceil(64) * 8;
    let index_bytes = (num_compressible * bits as usize).div_ceil(64) * 8;
    let exact_bytes = (num_points - num_compressible) * 8;

    // The sub-offsets are fully determined by the counts; anything else
    // is a lie (and would break in-place alignment guarantees).
    if bitmap_rel != align_up(SUBHEADER_LEN + table_bytes, SECTION_ALIGN)
        || index_rel != align_up(bitmap_rel + bitmap_bytes, SECTION_ALIGN)
        || exacts_rel != align_up(index_rel + index_bytes, SECTION_ALIGN)
        || sec.len() != exacts_rel + exact_bytes
    {
        return Err(corrupt(format!("inconsistent section geometry for '{}'", e.name)));
    }

    let bitmap = &sec[bitmap_rel..bitmap_rel + bitmap_bytes];
    let set_bits: usize = bitmap.iter().map(|b| b.count_ones() as usize).sum();
    if set_bits != num_compressible {
        return Err(corrupt(format!(
            "bitmap population {set_bits} != num_compressible {num_compressible}"
        )));
    }
    Ok(SectionView {
        flags,
        bits,
        table_len,
        tolerance,
        num_points,
        num_compressible,
        table_idx: &sec[SUBHEADER_LEN..SUBHEADER_LEN + table_bytes],
        bitmap,
        index: &sec[index_rel..index_rel + index_bytes],
        exacts: &sec[exacts_rel..exacts_rel + exact_bytes],
    })
}

/// Gather a variable's table out of the dictionary, enforcing the same
/// invariant the v1 blob reader enforces: strictly increasing by value.
/// A whole-dictionary table borrows the dictionary itself.
fn gather_table<'a>(
    view: &SectionView<'_>,
    dict: &'a [f64],
) -> Result<Cow<'a, [f64]>, NumarckError> {
    let reps: Cow<'a, [f64]> = if view.flags & SEC_WHOLE_DICT != 0 {
        Cow::Borrowed(dict)
    } else {
        let mut reps = Vec::with_capacity(view.table_len);
        let mut prev_idx: Option<u32> = None;
        for c in view.table_idx.chunks_exact(4) {
            let idx = u32::from_le_bytes(c.try_into().expect("4 bytes"));
            if idx as usize >= dict.len() {
                return Err(corrupt(format!(
                    "table reference {idx} outside dictionary of {} entries",
                    dict.len()
                )));
            }
            if let Some(p) = prev_idx {
                if idx <= p {
                    return Err(corrupt("table references not strictly ascending"));
                }
            }
            prev_idx = Some(idx);
            reps.push(dict[idx as usize]);
        }
        Cow::Owned(reps)
    };
    if reps.windows(2).any(|w| w[0] >= w[1]) {
        return Err(corrupt("table entries not strictly increasing"));
    }
    Ok(reps)
}

/// Section/dictionary sizes for the inspector ([`super::describe`]).
/// Like [`MappedCheckpoint::verify`], it checks the per-section CRCs
/// individually (decode relies on the whole-file pass instead), so the
/// inspector can tell *which* section is damaged.
pub(super) fn describe(data: &[u8]) -> Result<(usize, usize, Vec<SectionInfo>), NumarckError> {
    let layout = parse_layout(data)?;
    for e in &layout.entries {
        check_section_crc(data, e)?;
    }
    let sections = layout
        .entries
        .iter()
        .map(|e| SectionInfo { name: e.name.clone(), bytes: e.len as u64 })
        .collect();
    Ok((layout.dict_entries, layout.dict_entries * 8, sections))
}

// ---------------------------------------------------------------------------
// Mapped (zero-copy) reader
// ---------------------------------------------------------------------------

/// A v2 checkpoint opened for in-place decode.
///
/// Holds [`AlignedBytes`] — ideally a live `mmap` of the file — and the
/// validated section layout. [`Self::delta_variables`] hands out one
/// [`Hop`] per variable, whose [`BlockRef`](numarck::decode::BlockRef)
/// has bitmap/index/exact slices pointing straight into the mapping
/// (the 64-byte section alignment plus the 8-byte-aligned base make the
/// reinterpretation exact), and a full's values are lent the same way;
/// the caller replays those through
/// [`numarck::decode::replay`]. The only bytes ever copied are the
/// decoded output and, for a table that is not the whole dictionary,
/// the (tiny) gathered centroid table.
///
/// Integrity: open verifies the whole-file CRC (one streaming pass over
/// the mapped pages — every bit of the file is covered before any of it
/// is trusted, matching the v1 reader's discipline) plus the header,
/// directory and dictionary CRCs. Decode does not re-hash sections: the
/// file pass already covered them. The per-section CRCs are what make
/// the directory *seekable* — a future partial reader can skip the file
/// pass and verify exactly the sections it touches — and are checked
/// individually by [`super::CheckpointView::verify`] and the inspector
/// ([`super::describe`]).
#[derive(Debug)]
pub struct MappedCheckpoint {
    bytes: AlignedBytes,
    layout: Layout,
}

fn as_u64s(b: &[u8]) -> Result<&[u64], NumarckError> {
    // Safety: any bit pattern is a valid u64; alignment is checked.
    let (pre, mid, post) = unsafe { b.align_to::<u64>() };
    if !pre.is_empty() || !post.is_empty() {
        return Err(corrupt("section not aligned for in-place decode"));
    }
    Ok(mid)
}

fn as_f64s(b: &[u8]) -> Result<&[f64], NumarckError> {
    // Safety: any bit pattern is a valid f64; alignment is checked.
    let (pre, mid, post) = unsafe { b.align_to::<f64>() };
    if !pre.is_empty() || !post.is_empty() {
        return Err(corrupt("section not aligned for in-place decode"));
    }
    Ok(mid)
}

impl MappedCheckpoint {
    /// Validate the frame of a v2 file and keep the bytes mapped.
    /// Fails with [`NumarckError::VersionMismatch`] on v1 bytes.
    pub fn parse(bytes: AlignedBytes) -> Result<Self, NumarckError> {
        let layout = parse_layout(&bytes)?;
        Ok(Self { bytes, layout })
    }

    /// Map the file at `path` and parse it.
    pub fn open(path: &std::path::Path) -> Result<Self, NumarckError> {
        let bytes = AlignedBytes::map_file(path)
            .map_err(|e| NumarckError::Io(format!("cannot map {}: {e}", path.display())))?;
        Self::parse(bytes)
    }

    /// Iteration the file captures.
    pub fn iteration(&self) -> u64 {
        self.layout.iteration
    }

    /// True for full checkpoints.
    pub fn is_full(&self) -> bool {
        self.layout.kind_byte == 0
    }

    /// Stored delta span (0 for fulls and legacy plain deltas).
    pub fn delta_span(&self) -> u32 {
        self.layout.delta_span
    }

    /// Effective span, normalised exactly like
    /// [`CheckpointFile::span`].
    pub fn span(&self) -> u64 {
        if self.is_full() {
            0
        } else {
            u64::from(self.layout.delta_span.max(1))
        }
    }

    fn dict(&self) -> Result<&[f64], NumarckError> {
        as_f64s(dict_bytes(&self.bytes, &self.layout))
    }

    /// Every delta variable in name order, each viewed in place in the
    /// mapping. Each section's geometry and bitmap population are
    /// checked here; the code range is checked by the decoder.
    pub fn delta_variables(&self) -> Result<Vec<(&str, Hop<'_>)>, NumarckError> {
        if self.is_full() {
            return Err(corrupt("delta_variables on a full checkpoint"));
        }
        let dict = self.dict()?;
        self.layout
            .entries
            .iter()
            .map(|e| {
                let view = parse_delta_section(&self.bytes, e, self.layout.dict_entries)?;
                let hop = Hop {
                    table: gather_table(&view, dict)?,
                    bits: view.bits,
                    tolerance: view.tolerance,
                    num_points: view.num_points,
                    num_compressible: view.num_compressible,
                    bitmap: as_u64s(view.bitmap)?,
                    index_words: as_u64s(view.index)?,
                    exact_values: as_f64s(view.exacts)?,
                };
                Ok((e.name.as_str(), hop))
            })
            .collect()
    }

    /// Every variable of a full checkpoint in name order, lent in place.
    pub(super) fn full_sections(&self) -> Result<Vec<(&str, &[f64])>, NumarckError> {
        if !self.is_full() {
            return Err(corrupt("full_sections on a delta checkpoint"));
        }
        self.layout
            .entries
            .iter()
            .map(|e| Ok((e.name.as_str(), as_f64s(parse_full_section(&self.bytes, e)?)?)))
            .collect()
    }

    /// All variables of a full checkpoint, copied out.
    pub fn full_variables(&self) -> Result<VariableSet, NumarckError> {
        let sections = self.full_sections()?.into_iter();
        Ok(sections.map(|(name, values)| (name.to_string(), values.to_vec())).collect())
    }

    /// Check every section's own CRC and geometry.
    pub(super) fn verify(&self) -> Result<(), NumarckError> {
        for e in &self.layout.entries {
            check_section_crc(&self.bytes, e)?;
        }
        if self.is_full() {
            self.full_sections().map(drop)
        } else {
            self.delta_variables().map(drop)
        }
    }
}
