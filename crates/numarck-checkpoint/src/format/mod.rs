//! On-disk checkpoint container, behind a versioned codec seam.
//!
//! Every file starts `NCKP` + a little-endian `u16` version. Reads sniff
//! that version and dispatch through [`AnyCodec`] to the matching
//! module: `v1` is the original layout, frozen so any chain ever
//! written stays readable forever; `v2` is the current layout (shared
//! centroid dictionary, seekable section directory, 64-byte-aligned
//! sections for mmap zero-copy decode). All writers emit
//! [`WRITE_VERSION`]; nothing ever rewrites a
//! v1 file in place — compaction naturally re-serialises merged windows,
//! so old chains upgrade to v2 as they compact.
//!
//! Layout details live in the version modules' docs. Adding a v3 means:
//! a new module, a new [`AnyCodec`] arm, bump [`WRITE_VERSION`] — and
//! not touching v1/v2 again.

mod v1;
mod v2;

pub use v2::{MappedCheckpoint, MappedDelta};

use numarck::encode::CompressedIteration;
use numarck::error::NumarckError;

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

/// The versioned codec seam: one arm per container version.
///
/// Modelled on the `AnySerialiser` pattern — the enum is the *only*
/// place that knows which versions exist. Readers go through
/// [`AnyCodec::sniff`] + [`AnyCodec::decode`]; writers through
/// [`AnyCodec::current`] (or the [`CheckpointFile`] convenience
/// methods, which do exactly that).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum AnyCodec {
    /// The frozen original layout.
    V1,
    /// The current layout.
    V2,
}

impl AnyCodec {
    /// The codec every writer uses.
    pub fn current() -> Self {
        Self::V2
    }

    /// Codec for an explicit version number.
    pub fn for_version(version: u16) -> Result<Self, NumarckError> {
        match version {
            VERSION_V1 => Ok(Self::V1),
            VERSION_V2 => Ok(Self::V2),
            found => {
                Err(NumarckError::VersionMismatch { found, expected: WRITE_VERSION })
            }
        }
    }

    /// Sniff the header version of `data` and pick the codec. Rejects
    /// wrong magic and unknown versions; everything else is left to
    /// [`Self::decode`].
    pub fn sniff(data: &[u8]) -> Result<Self, NumarckError> {
        Self::for_version(sniff_version(data)?)
    }

    /// The version number this codec reads and writes.
    pub fn version(self) -> u16 {
        match self {
            Self::V1 => VERSION_V1,
            Self::V2 => VERSION_V2,
        }
    }

    /// Serialise `file` in this codec's layout. Stamps the version just
    /// written into the `nck_format_version` gauge, so `/metrics` and
    /// the BENCH snapshots always carry the container version the
    /// numbers were measured against.
    pub fn encode(self, file: &CheckpointFile) -> Vec<u8> {
        stamp_format_version(self.version());
        match self {
            Self::V1 => v1::to_bytes(file),
            Self::V2 => v2::to_bytes(file),
        }
    }

    /// Parse and validate `data`, which must carry this codec's
    /// version.
    pub fn decode(self, data: &[u8]) -> Result<CheckpointFile, NumarckError> {
        match self {
            Self::V1 => v1::from_bytes(data),
            Self::V2 => v2::from_bytes(data),
        }
    }
}

/// Record the container version a writer just emitted in the global
/// `nck_format_version` gauge.
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
    if prefix.len() < HEADER_PREFIX_LEN || AnyCodec::for_version(version).is_err() {
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
    match AnyCodec::sniff(data)? {
        AnyCodec::V1 => Ok(ContainerInfo {
            version: VERSION_V1,
            dict_entries: 0,
            dict_bytes: 0,
            sections: v1::describe(data)?,
        }),
        AnyCodec::V2 => {
            let (dict_entries, dict_bytes, sections) = v2::describe(data)?;
            Ok(ContainerInfo { version: VERSION_V2, dict_entries, dict_bytes, sections })
        }
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
        AnyCodec::current().encode(self)
    }

    /// Serialise in the frozen v1 layout. Exists for the fixture
    /// generator and for tests proving the seam; production writers
    /// always emit the current version.
    pub fn to_bytes_v1(&self) -> Vec<u8> {
        AnyCodec::V1.encode(self)
    }

    /// Parse and validate bytes of either container version.
    pub fn from_bytes(data: &[u8]) -> Result<Self, NumarckError> {
        AnyCodec::sniff(data)?.decode(data)
    }
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
        assert_eq!(AnyCodec::sniff(&bytes).unwrap(), AnyCodec::V2);
    }

    #[test]
    fn v1_roundtrips_through_the_seam() {
        for f in [
            CheckpointFile::new(7, CheckpointKind::Full(sample_vars())),
            sample_delta(),
        ] {
            let bytes = f.to_bytes_v1();
            assert_eq!(sniff_version(&bytes).unwrap(), VERSION_V1);
            assert_eq!(AnyCodec::sniff(&bytes).unwrap(), AnyCodec::V1);
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
        assert!(AnyCodec::for_version(0).is_err());
        assert!(AnyCodec::for_version(3).is_err());
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
        use crate::mmapio::AlignedBytes;

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
        use crate::mmapio::AlignedBytes;

        let f = CheckpointFile::new(7, CheckpointKind::Full(sample_vars()));
        let mapped = MappedCheckpoint::parse(AlignedBytes::from_vec(f.to_bytes())).unwrap();
        assert!(mapped.is_full());
        assert_eq!(mapped.span(), 0);
        assert_eq!(mapped.full_variables().unwrap(), sample_vars());
        assert_eq!(mapped.full_variable("dens").unwrap(), sample_vars()["dens"]);
        assert!(mapped.full_variable("nope").is_err());
    }

    #[test]
    fn mapped_parse_rejects_v1_with_version_mismatch() {
        use crate::mmapio::AlignedBytes;

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
}
