//! On-disk checkpoint container, and the one reader of stored files.
//!
//! Every file starts `NCKP` + a little-endian `u16` version. `v1` is the
//! original layout, frozen so any chain ever written stays readable
//! forever; `v2` is the current layout (shared centroid dictionary,
//! seekable section directory, 64-byte-aligned sections for mmap
//! zero-copy decode). All writers emit [`WRITE_VERSION`]; nothing ever
//! rewrites a v1 file in place — compaction naturally re-serialises
//! merged windows, so old chains upgrade to v2 as they compact.
//!
//! [`CheckpointView`] is the seam: the only place that sniffs a
//! version and the only reader of stored bytes. Restart, merge, scrub,
//! GC, recovery and [`CheckpointFile::from_bytes`] all open files
//! through it. Layout details live in the version modules' docs. Adding
//! a v3 means a new module, a new [`CheckpointView`] arm, and a bump of
//! [`WRITE_VERSION`] — and not touching v1/v2 again.

mod v1;
mod v2;

use std::borrow::Cow;

pub use v2::MappedCheckpoint;

use numarck::decode::BlockRef;
use numarck::encode::CompressedIteration;
use numarck::error::NumarckError;
use numarck::table::BinTable;

use crate::mmapio::AlignedBytes;
use crate::VariableSet;

/// Magic bytes of a checkpoint file.
pub const MAGIC: [u8; 4] = *b"NCKP";
/// The frozen original container version.
pub const VERSION_V1: u16 = 1;
/// The current container version.
pub const VERSION_V2: u16 = 2;
/// The version every writer emits.
pub const WRITE_VERSION: u16 = VERSION_V2;

/// Full (exact) or delta (NUMARCK-compressed) checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointKind {
    /// Raw `f64` arrays — the paper's `D_0`.
    Full(VariableSet),
    /// One compressed block per variable.
    Delta(std::collections::BTreeMap<String, CompressedIteration>),
}

/// A checkpoint ready to be written or just read.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointFile {
    /// Simulation iteration this checkpoint captures.
    pub iteration: u64,
    /// Payload.
    pub kind: CheckpointKind,
    /// How far back the base state of a delta lives: 0 or 1 both mean
    /// iteration − 1 (every file written before compaction existed has
    /// 0 here); s ≥ 2 marks a merged delta applying against the state
    /// at iteration − s. Meaningless (and 0) for full checkpoints.
    pub delta_span: u32,
}

/// Record the container version a writer just emitted in the global
/// `nck_format_version` gauge, so `/metrics` and the BENCH snapshots
/// always carry the container version the numbers were measured
/// against.
fn stamp_format_version(version: u16) {
    numarck_obs::Registry::global().gauge("nck_format_version").set(i64::from(version));
}

/// Read the container version out of a file header without validating
/// anything beyond the magic.
pub fn sniff_version(data: &[u8]) -> Result<u16, NumarckError> {
    if data.len() < 6 {
        return Err(NumarckError::Corrupt("checkpoint file too short".into()));
    }
    if data[0..4] != MAGIC {
        return Err(NumarckError::Corrupt("bad checkpoint magic".into()));
    }
    Ok(u16::from_le_bytes(data[4..6].try_into().expect("2 bytes")))
}

/// The content hash of a checkpoint: the little-endian CRC-32 of
/// everything before it, which v1 and v2 both store as the file's last
/// four bytes. Writers already computed it, so two intact files tell
/// apart by it (the CRC-32 of a *whole* intact file is one residue
/// constant). The write-ahead journal records it and recovery compares
/// it; the readers check it against the bytes.
///
/// # Panics
/// Panics when `bytes` is shorter than the trailer — never for bytes a
/// writer produced or a reader accepted.
pub fn content_crc(bytes: &[u8]) -> u32 {
    let trailer = bytes.len().checked_sub(4).expect("a checkpoint ends in a 4-byte CRC");
    u32::from_le_bytes(bytes[trailer..].try_into().expect("4 bytes"))
}

/// Length of the header prefix every container version shares: magic,
/// version, kind byte, iteration, variable count and delta span sit at
/// the same offsets in v1 and v2.
pub const HEADER_PREFIX_LEN: usize = 24;

/// What a file's header prefix says about its place in a chain, read
/// without parsing (or CRC-checking) anything else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeaderFacts {
    /// True when the payload is a full checkpoint.
    pub is_full: bool,
    /// Effective span, as [`CheckpointFile::span`] reports it: 0 for a
    /// full, ≥ 1 for a delta (the legacy value 0 reads as 1).
    pub span: u64,
}

/// Peek the chain facts out of the first [`HEADER_PREFIX_LEN`] bytes of
/// a checkpoint file. `None` when the prefix is short, carries the wrong
/// magic or an unknown version, or names no known kind — the full parse
/// then rejects the file with the precise reason.
pub fn peek_header(prefix: &[u8]) -> Option<HeaderFacts> {
    let version = sniff_version(prefix).ok()?;
    if prefix.len() < HEADER_PREFIX_LEN || !matches!(version, VERSION_V1 | VERSION_V2) {
        return None;
    }
    match prefix[6] {
        0 => Some(HeaderFacts { is_full: true, span: 0 }),
        1 => {
            let span = u32::from_le_bytes(prefix[20..24].try_into().expect("4 bytes"));
            Some(HeaderFacts { is_full: false, span: u64::from(span.max(1)) })
        }
        _ => None,
    }
}

/// One variable's section size, as reported by [`describe`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionInfo {
    /// Variable name.
    pub name: String,
    /// Section (v2) / payload (v1) size in bytes, excluding padding.
    pub bytes: u64,
}

/// What the inspector sees: container version plus where the bytes go.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContainerInfo {
    /// Container version of the file.
    pub version: u16,
    /// Shared-dictionary entry count (0 for v1 and for fulls).
    pub dict_entries: usize,
    /// Shared-dictionary size in bytes (0 for v1 and for fulls).
    pub dict_bytes: usize,
    /// Per-variable section sizes, ascending by name.
    pub sections: Vec<SectionInfo>,
}

/// Fully validate `data` (either version) and report its layout.
pub fn describe(data: &[u8]) -> Result<ContainerInfo, NumarckError> {
    match sniff_version(data)? {
        VERSION_V1 => Ok(ContainerInfo {
            version: VERSION_V1,
            dict_entries: 0,
            dict_bytes: 0,
            sections: v1::describe(data)?,
        }),
        VERSION_V2 => {
            let (dict_entries, dict_bytes, sections) = v2::describe(data)?;
            Ok(ContainerInfo { version: VERSION_V2, dict_entries, dict_bytes, sections })
        }
        found => Err(NumarckError::VersionMismatch { found, expected: WRITE_VERSION }),
    }
}

impl CheckpointFile {
    /// A plain checkpoint: a full, or a delta against iteration − 1.
    pub fn new(iteration: u64, kind: CheckpointKind) -> Self {
        Self { iteration, kind, delta_span: 0 }
    }

    /// A merged delta applying against the state at `iteration − span`.
    pub fn merged_delta(
        iteration: u64,
        blocks: std::collections::BTreeMap<String, CompressedIteration>,
        span: u32,
    ) -> Self {
        assert!(span >= 1, "a delta always spans at least one iteration");
        Self { iteration, kind: CheckpointKind::Delta(blocks), delta_span: span }
    }

    /// True for full checkpoints.
    pub fn is_full(&self) -> bool {
        matches!(self.kind, CheckpointKind::Full(_))
    }

    /// Effective span: how many iterations back this file's base state
    /// lives. 0 for fulls (they are their own base); ≥ 1 for deltas,
    /// normalising the legacy reserved value 0 to 1.
    pub fn span(&self) -> u64 {
        match self.kind {
            CheckpointKind::Full(_) => 0,
            CheckpointKind::Delta(_) => u64::from(self.delta_span.max(1)),
        }
    }

    /// Serialise in the current write version.
    pub fn to_bytes(&self) -> Vec<u8> {
        stamp_format_version(VERSION_V2);
        v2::to_bytes(self)
    }

    /// Serialise in the frozen v1 layout. Exists for the fixture
    /// generator and for tests proving the seam; production writers
    /// always emit the current version.
    pub fn to_bytes_v1(&self) -> Vec<u8> {
        stamp_format_version(VERSION_V1);
        v1::to_bytes(self)
    }

    /// Parse and validate bytes of either container version, every
    /// section included: a [`CheckpointView`] copied out.
    pub fn from_bytes(data: &[u8]) -> Result<Self, NumarckError> {
        CheckpointView::parse_any(AlignedBytes::copy_from(data))?.into_file()
    }
}

/// A stored checkpoint file, opened through the one reader.
///
/// v2 bytes stay a [`MappedCheckpoint`] and decode in place; v1 bytes
/// parse through the frozen v1 module into an owned [`CheckpointFile`].
/// Both shapes lend the same things: full sections as `f64` slices
/// ([`Self::full_sections`]) and delta sections as [`Hop`]s for
/// [`numarck::decode::replay`], so what is rebuilt is bit-identical
/// either way.
///
/// [`Self::parse`] checks the header facts: magic and version, the
/// layout and whole-file CRC, the claimed iteration, and the payload
/// kind. Section geometry is checked as sections are lent, so a restart
/// parses each delta section exactly once; [`Self::verify`] walks every
/// section up front, for the callers that judge a file rather than
/// decode it (scrub, GC, recovery).
#[derive(Debug)]
pub struct CheckpointView {
    repr: Repr,
}

#[derive(Debug)]
enum Repr {
    V1(CheckpointFile),
    V2(MappedCheckpoint),
}

impl CheckpointView {
    /// Open `bytes` as the checkpoint of `iteration`, holding a full
    /// payload when `is_full` and a delta otherwise — the facts its
    /// file name states. Either fact contradicted is
    /// [`NumarckError::Corrupt`], as is any header, layout or CRC
    /// failure; an unknown version is [`NumarckError::VersionMismatch`].
    pub fn parse(bytes: AlignedBytes, iteration: u64, is_full: bool) -> Result<Self, NumarckError> {
        let view = Self::parse_any(bytes)?;
        let claimed = view.iteration();
        if claimed != iteration {
            return Err(NumarckError::Corrupt(format!(
                "checkpoint claims iteration {claimed}, expected {iteration}"
            )));
        }
        if view.is_full() != is_full {
            return Err(kind_mismatch(iteration, view.is_full(), is_full));
        }
        Ok(view)
    }

    /// Dispatch on the version and check the header facts, claiming
    /// nothing about the name.
    fn parse_any(bytes: AlignedBytes) -> Result<Self, NumarckError> {
        let repr = match sniff_version(&bytes)? {
            VERSION_V1 => Repr::V1(v1::from_bytes(&bytes)?),
            VERSION_V2 => Repr::V2(MappedCheckpoint::parse(bytes)?),
            found => return Err(NumarckError::VersionMismatch { found, expected: WRITE_VERSION }),
        };
        Ok(Self { repr })
    }

    /// Iteration the file captures.
    pub fn iteration(&self) -> u64 {
        match &self.repr {
            Repr::V1(f) => f.iteration,
            Repr::V2(m) => m.iteration(),
        }
    }

    /// True for full checkpoints.
    pub fn is_full(&self) -> bool {
        match &self.repr {
            Repr::V1(f) => f.is_full(),
            Repr::V2(m) => m.is_full(),
        }
    }

    /// Every variable of a full checkpoint in name order, lent in place.
    pub fn full_sections(&self) -> Result<Vec<(&str, &[f64])>, NumarckError> {
        match &self.repr {
            Repr::V1(CheckpointFile { kind: CheckpointKind::Full(vars), .. }) => {
                Ok(vars.iter().map(|(name, values)| (name.as_str(), values.as_slice())).collect())
            }
            Repr::V2(m) if m.is_full() => m.full_sections(),
            _ => Err(NumarckError::Corrupt(format!(
                "checkpoint {} holds no full payload",
                self.iteration()
            ))),
        }
    }

    /// This delta's hops, one per variable, for exactly the variables
    /// `names` in that order: a delta whose variable set differs does
    /// not continue the chain it is applied to.
    pub fn hops<'n>(
        &self,
        names: impl ExactSizeIterator<Item = &'n str>,
    ) -> Result<Vec<Hop<'_>>, NumarckError> {
        let hops = match &self.repr {
            Repr::V1(CheckpointFile { kind: CheckpointKind::Delta(blocks), .. }) => {
                blocks.iter().map(|(name, block)| (name.as_str(), Hop::from(block))).collect()
            }
            Repr::V2(m) if !m.is_full() => m.delta_variables()?,
            _ => {
                return Err(NumarckError::Corrupt(format!(
                    "checkpoint {} holds no delta payload",
                    self.iteration()
                )))
            }
        };
        if hops.len() != names.len() || !hops.iter().zip(names).all(|((a, _), b)| *a == b) {
            return Err(NumarckError::Corrupt(format!(
                "delta {} variable set does not match the chain",
                self.iteration()
            )));
        }
        Ok(hops.into_iter().map(|(_, hop)| hop).collect())
    }

    /// Check every section: for v2, each section's own CRC and geometry
    /// (v1 files were decoded whole by [`Self::parse`]). Restart never
    /// calls this; it checks exactly the sections it decodes.
    pub fn verify(&self) -> Result<(), NumarckError> {
        match &self.repr {
            Repr::V1(_) => Ok(()),
            Repr::V2(m) => m.verify(),
        }
    }

    /// Verify every section and copy the payload out.
    pub fn into_file(self) -> Result<CheckpointFile, NumarckError> {
        self.verify()?;
        let m = match self.repr {
            Repr::V1(file) => return Ok(file),
            Repr::V2(m) => m,
        };
        let kind = if m.is_full() {
            let sections = m.full_sections()?.into_iter();
            CheckpointKind::Full(sections.map(|(name, v)| (name.into(), v.to_vec())).collect())
        } else {
            let hops = m.delta_variables()?.into_iter();
            CheckpointKind::Delta(hops.map(|(name, hop)| (name.into(), hop.to_block())).collect())
        };
        // The layout check already pinned a full's stored span to 0.
        Ok(CheckpointFile { iteration: m.iteration(), kind, delta_span: m.delta_span() })
    }
}

/// One variable of one delta file, ready to replay: its centroid table
/// (borrowed when it is the file's whole dictionary or an owned block's
/// table) and its bitmap, index and exact-value sections, in place.
#[derive(Debug)]
pub struct Hop<'a> {
    table: Cow<'a, [f64]>,
    bits: u8,
    tolerance: f64,
    num_points: usize,
    num_compressible: usize,
    bitmap: &'a [u64],
    index_words: &'a [u64],
    exact_values: &'a [f64],
}

impl<'a> From<&'a CompressedIteration> for Hop<'a> {
    fn from(block: &'a CompressedIteration) -> Self {
        Self {
            table: Cow::Borrowed(block.table.representatives()),
            bits: block.bits,
            tolerance: block.tolerance,
            num_points: block.num_points,
            num_compressible: block.num_compressible,
            bitmap: &block.bitmap,
            index_words: &block.index_words,
            exact_values: &block.exact_values,
        }
    }
}

impl Hop<'_> {
    /// The decoder's view of this variable.
    pub fn block_ref(&self) -> BlockRef<'_> {
        BlockRef {
            bits: self.bits,
            num_points: self.num_points,
            num_compressible: self.num_compressible,
            table: &self.table,
            bitmap: self.bitmap,
            index_words: self.index_words,
            exact_values: self.exact_values,
        }
    }

    /// The block's error tolerance `E` (metadata; decode ignores it).
    pub fn tolerance(&self) -> f64 {
        self.tolerance
    }

    /// An owned copy of this variable's block.
    fn to_block(&self) -> CompressedIteration {
        CompressedIteration {
            bits: self.bits,
            tolerance: self.tolerance,
            num_points: self.num_points,
            table: BinTable::new(self.table.to_vec()),
            bitmap: self.bitmap.to_vec(),
            index_words: self.index_words.to_vec(),
            num_compressible: self.num_compressible,
            exact_values: self.exact_values.to_vec(),
        }
    }
}

/// The error for checkpoint `iteration` holding a full payload
/// (`holds_full`) where its name promises the other kind.
pub(crate) fn kind_mismatch(iteration: u64, holds_full: bool, named_full: bool) -> NumarckError {
    let kind = |full: bool| if full { "full" } else { "delta" };
    NumarckError::Corrupt(format!(
        "checkpoint {iteration} holds a {} payload, expected a {}",
        kind(holds_full),
        kind(named_full)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use numarck::{Config, Strategy};

    fn sample_vars() -> VariableSet {
        let mut vars = VariableSet::new();
        vars.insert("dens".into(), (0..500).map(|i| 1.0 + (i % 7) as f64).collect());
        vars.insert("pres".into(), (0..500).map(|i| 0.5 + (i % 3) as f64).collect());
        vars
    }

    fn sample_delta() -> CheckpointFile {
        let cfg = Config::new(8, 0.001, Strategy::Clustering).unwrap();
        let vars = sample_vars();
        let mut blocks = std::collections::BTreeMap::new();
        for (name, data) in &vars {
            let next: Vec<f64> = data.iter().map(|v| v * 1.01).collect();
            let (block, _) = numarck::encode::encode(data, &next, &cfg).unwrap();
            blocks.insert(name.clone(), block);
        }
        CheckpointFile::new(42, CheckpointKind::Delta(blocks))
    }

    #[test]
    fn writers_stamp_the_format_version_gauge() {
        let _ = sample_delta().to_bytes();
        assert_eq!(
            numarck_obs::Registry::global().gauge("nck_format_version").get(),
            i64::from(VERSION_V2)
        );
    }

    /// A delta whose variables all share one table, as the group
    /// encoder produces — the case the shared dictionary optimises.
    /// Sized realistically (several variables, thousands of points,
    /// a rich ratio distribution so the table fills up): at toy sizes
    /// the 64-byte alignment padding legitimately outweighs the
    /// dictionary saving.
    fn shared_table_delta() -> CheckpointFile {
        let cfg = Config::new(8, 0.0001, Strategy::Clustering).unwrap();
        let mut vars = VariableSet::new();
        for (vi, name) in ["dens", "ener", "pres", "temp"].iter().enumerate() {
            vars.insert(
                name.to_string(),
                (0..4096).map(|i| 1.0 + ((i * (vi + 3)) % 17) as f64 * 0.25).collect(),
            );
        }
        let currs: Vec<Vec<f64>> = vars
            .values()
            .map(|v| {
                v.iter()
                    .enumerate()
                    .map(|(i, x)| x * (1.0 + 0.01 * ((i * 37) % 101) as f64 / 101.0))
                    .collect()
            })
            .collect();
        let prevs: Vec<&[f64]> = vars.values().map(|v| v.as_slice()).collect();
        let pairs: Vec<(&[f64], &[f64])> = prevs
            .iter()
            .zip(&currs)
            .map(|(p, c)| (*p, c.as_slice()))
            .collect();
        let (blocks, _) = numarck::group::encode_group(&pairs, &cfg).unwrap();
        let blocks = vars.keys().cloned().zip(blocks).collect();
        CheckpointFile::new(43, CheckpointKind::Delta(blocks))
    }

    #[test]
    fn full_roundtrip() {
        let f = CheckpointFile::new(7, CheckpointKind::Full(sample_vars()));
        let back = CheckpointFile::from_bytes(&f.to_bytes()).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn delta_roundtrip() {
        let f = sample_delta();
        let back = CheckpointFile::from_bytes(&f.to_bytes()).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn writers_emit_v2() {
        let bytes = sample_delta().to_bytes();
        assert_eq!(sniff_version(&bytes).unwrap(), VERSION_V2);
    }

    #[test]
    fn v1_roundtrips_through_the_seam() {
        for f in [
            CheckpointFile::new(7, CheckpointKind::Full(sample_vars())),
            sample_delta(),
        ] {
            let bytes = f.to_bytes_v1();
            assert_eq!(sniff_version(&bytes).unwrap(), VERSION_V1);
            let back = CheckpointFile::from_bytes(&bytes).unwrap();
            assert_eq!(back, f);
        }
    }

    #[test]
    fn v1_and_v2_decode_identically() {
        let f = sample_delta();
        let from_v1 = CheckpointFile::from_bytes(&f.to_bytes_v1()).unwrap();
        let from_v2 = CheckpointFile::from_bytes(&f.to_bytes()).unwrap();
        assert_eq!(from_v1, from_v2);
    }

    #[test]
    fn unknown_version_rejected() {
        let mut bytes = sample_delta().to_bytes();
        bytes[4] = 9;
        match CheckpointFile::from_bytes(&bytes) {
            Err(NumarckError::VersionMismatch { found: 9, .. }) => {}
            other => panic!("expected version mismatch, got {other:?}"),
        }
        for version in [0u16, 3] {
            bytes[4..6].copy_from_slice(&version.to_le_bytes());
            let opened = CheckpointView::parse(AlignedBytes::from_vec(bytes.clone()), 42, false);
            assert!(matches!(opened, Err(NumarckError::VersionMismatch { .. })), "v{version}");
        }
    }

    #[test]
    fn merged_delta_span_roundtrips() {
        let mut f = sample_delta();
        f.delta_span = 5;
        for bytes in [f.to_bytes(), f.to_bytes_v1()] {
            let back = CheckpointFile::from_bytes(&bytes).unwrap();
            assert_eq!(back.delta_span, 5);
            assert_eq!(back.span(), 5);
            assert_eq!(back, f);
        }
    }

    #[test]
    fn legacy_zero_span_reads_as_one_iteration() {
        // Files written before compaction existed carry 0 in the span
        // slot; they are plain deltas against iteration − 1.
        let f = sample_delta();
        assert_eq!(f.delta_span, 0);
        assert_eq!(f.span(), 1);
        let full = CheckpointFile::new(7, CheckpointKind::Full(sample_vars()));
        assert_eq!(full.span(), 0);
    }

    #[test]
    fn empty_variable_set_roundtrip() {
        let f = CheckpointFile::new(0, CheckpointKind::Full(VariableSet::new()));
        let back = CheckpointFile::from_bytes(&f.to_bytes()).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn corruption_detected_everywhere() {
        for bytes in [sample_delta().to_bytes(), sample_delta().to_bytes_v1()] {
            for pos in [0usize, 5, 9, 30, bytes.len() / 2, bytes.len() - 2] {
                let mut bad = bytes.clone();
                bad[pos] ^= 0x40;
                assert!(CheckpointFile::from_bytes(&bad).is_err(), "flip at {pos}");
            }
        }
    }

    #[test]
    fn truncation_detected() {
        for bytes in [sample_delta().to_bytes(), sample_delta().to_bytes_v1()] {
            for cut in [0usize, 10, 23, bytes.len() / 3, bytes.len() - 1] {
                assert!(CheckpointFile::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
            }
        }
    }

    #[test]
    fn unicode_variable_names() {
        let mut vars = VariableSet::new();
        vars.insert("ρ-density".into(), vec![1.0, 2.0]);
        let f = CheckpointFile::new(1, CheckpointKind::Full(vars));
        let back = CheckpointFile::from_bytes(&f.to_bytes()).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn shared_table_collapses_into_one_dictionary() {
        let f = shared_table_delta();
        let bytes = f.to_bytes();
        let back = CheckpointFile::from_bytes(&bytes).unwrap();
        assert_eq!(back, f);
        let info = describe(&bytes).unwrap();
        assert_eq!(info.version, VERSION_V2);
        assert!(info.dict_entries > 0);
        // Both variables reference the pooled table; neither section
        // re-embeds it, so the dictionary is paid for exactly once and
        // v2 undercuts v1 even with its fatter fixed-size headers.
        let v1_len = f.to_bytes_v1().len();
        assert!(
            bytes.len() < v1_len,
            "v2 ({}) not smaller than v1 ({v1_len}) for a shared-table delta",
            bytes.len()
        );
    }

    #[test]
    fn describe_reports_both_versions() {
        let f = sample_delta();
        let v1 = describe(&f.to_bytes_v1()).unwrap();
        assert_eq!(v1.version, VERSION_V1);
        assert_eq!(v1.dict_entries, 0);
        assert_eq!(v1.sections.len(), 2);
        let v2 = describe(&f.to_bytes()).unwrap();
        assert_eq!(v2.version, VERSION_V2);
        assert_eq!(v2.sections.len(), 2);
        assert_eq!(
            v1.sections.iter().map(|s| s.name.as_str()).collect::<Vec<_>>(),
            v2.sections.iter().map(|s| s.name.as_str()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn mapped_decode_matches_owned_decode() {
        let cfg = Config::new(8, 0.001, Strategy::Clustering).unwrap();
        let prev_vars = sample_vars();
        let mut blocks = std::collections::BTreeMap::new();
        let mut expect = VariableSet::new();
        for (name, prev) in &prev_vars {
            let next: Vec<f64> = prev.iter().map(|v| v * 1.01).collect();
            let (block, _) = numarck::encode::encode(prev, &next, &cfg).unwrap();
            expect.insert(
                name.clone(),
                numarck::decode::reconstruct(prev, &block).unwrap(),
            );
            blocks.insert(name.clone(), block);
        }
        let f = CheckpointFile::new(42, CheckpointKind::Delta(blocks));

        let mapped = MappedCheckpoint::parse(AlignedBytes::from_vec(f.to_bytes())).unwrap();
        assert_eq!(mapped.iteration(), 42);
        assert!(!mapped.is_full());
        assert_eq!(mapped.span(), 1);
        let deltas = mapped.delta_variables().unwrap();
        assert_eq!(deltas.len(), prev_vars.len());
        for ((name, prev), (mapped_name, delta)) in prev_vars.iter().zip(&deltas) {
            assert_eq!(name, mapped_name);
            let got = numarck::decode::reconstruct_ref(prev, &delta.block_ref()).unwrap();
            let want = &expect[name];
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(want) {
                assert_eq!(g.to_bits(), w.to_bits(), "mapped decode diverged");
            }
        }
    }

    #[test]
    fn mapped_full_reads_back() {
        let f = CheckpointFile::new(7, CheckpointKind::Full(sample_vars()));
        let mapped = MappedCheckpoint::parse(AlignedBytes::from_vec(f.to_bytes())).unwrap();
        assert!(mapped.is_full());
        assert_eq!(mapped.span(), 0);
        assert_eq!(mapped.full_variables().unwrap(), sample_vars());
    }

    #[test]
    fn mapped_parse_rejects_v1_with_version_mismatch() {
        let bytes = sample_delta().to_bytes_v1();
        match MappedCheckpoint::parse(AlignedBytes::from_vec(bytes)) {
            Err(NumarckError::VersionMismatch { found: 1, .. }) => {}
            other => panic!("expected version mismatch, got {other:?}"),
        }
    }

    #[test]
    fn header_peek_agrees_with_the_parse_in_both_versions() {
        let full = CheckpointFile::new(7, CheckpointKind::Full(sample_vars()));
        let mut merged = sample_delta();
        merged.delta_span = 5;
        for file in [full, sample_delta(), merged] {
            for bytes in [file.to_bytes(), file.to_bytes_v1()] {
                let facts = peek_header(&bytes[..HEADER_PREFIX_LEN]).unwrap();
                let parsed = CheckpointFile::from_bytes(&bytes).unwrap();
                assert_eq!(facts.is_full, matches!(parsed.kind, CheckpointKind::Full(_)));
                assert_eq!(facts.span, parsed.span());
            }
        }
    }

    #[test]
    fn header_peek_rejects_garbage() {
        assert_eq!(peek_header(b"junk"), None);
        assert_eq!(peek_header(&[]), None);
        let mut bytes = sample_delta().to_bytes();
        assert_eq!(peek_header(&bytes[..HEADER_PREFIX_LEN - 1]), None, "short prefix");
        bytes[6] = 9;
        assert_eq!(peek_header(&bytes), None, "unknown kind");
        bytes[4] = 3;
        assert_eq!(peek_header(&bytes), None, "unknown version");
    }

    #[test]
    fn view_lends_in_both_versions_what_the_owned_copy_holds() {
        let full = CheckpointFile::new(7, CheckpointKind::Full(sample_vars()));
        let mut merged = sample_delta();
        merged.delta_span = 3;
        for file in [full, merged] {
            for bytes in [file.to_bytes(), file.to_bytes_v1()] {
                let it = file.iteration;
                let view = CheckpointView::parse(AlignedBytes::from_vec(bytes), it, file.is_full())
                    .unwrap();
                assert_eq!((view.iteration(), view.is_full()), (it, file.is_full()));
                view.verify().unwrap();
                match &file.kind {
                    CheckpointKind::Full(vars) => {
                        let want: Vec<(&str, &[f64])> =
                            vars.iter().map(|(n, v)| (n.as_str(), v.as_slice())).collect();
                        assert_eq!(view.full_sections().unwrap(), want);
                        assert!(view.hops(vars.keys().map(String::as_str)).is_err());
                    }
                    CheckpointKind::Delta(blocks) => {
                        let hops = view.hops(blocks.keys().map(String::as_str)).unwrap();
                        for (hop, block) in hops.iter().zip(blocks.values()) {
                            assert_eq!(hop.tolerance(), block.tolerance);
                            assert_eq!(hop.block_ref().table, block.table.representatives());
                        }
                        assert!(view.hops(["dens"].into_iter()).is_err(), "short variable set");
                        assert!(view.full_sections().is_err());
                    }
                }
                assert_eq!(view.into_file().unwrap(), file);
            }
        }
    }
}
