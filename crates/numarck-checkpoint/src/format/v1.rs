//! Container format **v1** — frozen.
//!
//! This is the original on-disk layout, kept bit-for-bit forever so any
//! chain ever written stays readable. Do not evolve it; new layout work
//! belongs in [`super::v2`] (or a future v3 behind the same seam).
//!
//! ```text
//! [0..4)   magic b"NCKP"
//! [4..6)   version (u16) = 1
//! [6]      kind: 0 = full, 1 = delta
//! [7]      reserved
//! [8..16)  iteration number (u64)
//! [16..20) variable count (u32)
//! [20..24) delta span (u32): for deltas, how far back the base state
//!          lives. 0 (the historic reserved value) and 1 both mean
//!          "applies against iteration − 1"; a merged delta produced by
//!          compaction stores s ≥ 2 meaning "applies against the state
//!          at iteration − s". Always 0 for full checkpoints.
//! per variable:
//!   name_len (u16) | name bytes (UTF-8)
//!   payload_len (u64) | payload bytes
//!     full:  num_points × f64 LE
//!     delta: a numarck::serialize blob
//! crc32 of everything above (u32)
//! ```

use numarck::error::NumarckError;
use numarck::serialize::{self as nser, GetLe};

use super::{CheckpointFile, CheckpointKind, MAGIC, VERSION_V1};
use crate::VariableSet;

/// Serialise a checkpoint in the frozen v1 layout.
pub(super) fn to_bytes(file: &CheckpointFile) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&VERSION_V1.to_le_bytes());
    let (kind_byte, count) = match &file.kind {
        CheckpointKind::Full(vars) => (0u8, vars.len()),
        CheckpointKind::Delta(blocks) => (1u8, blocks.len()),
    };
    buf.push(kind_byte);
    buf.push(0);
    buf.extend_from_slice(&file.iteration.to_le_bytes());
    buf.extend_from_slice(&(count as u32).to_le_bytes());
    let span = match &file.kind {
        CheckpointKind::Full(_) => 0,
        CheckpointKind::Delta(_) => file.delta_span,
    };
    buf.extend_from_slice(&span.to_le_bytes());
    match &file.kind {
        CheckpointKind::Full(vars) => {
            for (name, data) in vars {
                put_name(&mut buf, name);
                buf.extend_from_slice(&((data.len() * 8) as u64).to_le_bytes());
                for &v in data {
                    buf.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
        CheckpointKind::Delta(blocks) => {
            for (name, block) in blocks {
                put_name(&mut buf, name);
                let payload = nser::to_bytes(block);
                buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
                buf.extend_from_slice(&payload);
            }
        }
    }
    let crc = nser::crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

/// Parse and validate v1 bytes (the version field must already be 1;
/// [`super::CheckpointFile::from_bytes`] dispatches here).
pub(super) fn from_bytes(data: &[u8]) -> Result<CheckpointFile, NumarckError> {
    const HEADER: usize = 24;
    if data.len() < HEADER + 4 {
        return Err(NumarckError::Corrupt("checkpoint file too short".into()));
    }
    let body = &data[..data.len() - 4];
    let stored = super::content_crc(data);
    let computed = nser::crc32(body);
    if stored != computed {
        return Err(NumarckError::Corrupt(format!(
            "checkpoint crc mismatch: stored {stored:#x}, computed {computed:#x}"
        )));
    }
    let mut cur = body;
    let mut magic = [0u8; 4];
    cur.copy_to_slice(&mut magic);
    if magic != MAGIC {
        return Err(NumarckError::Corrupt("bad checkpoint magic".into()));
    }
    let version = cur.get_u16_le();
    if version != VERSION_V1 {
        return Err(NumarckError::VersionMismatch { found: version, expected: VERSION_V1 });
    }
    let kind_byte = cur.get_u8();
    let _ = cur.get_u8();
    let iteration = cur.get_u64_le();
    let count = cur.get_u32_le() as usize;
    let stored_span = cur.get_u32_le();

    let kind = match kind_byte {
        0 => {
            let mut vars = VariableSet::new();
            for _ in 0..count {
                let (name, payload) = read_entry(&mut cur)?;
                if payload.len() % 8 != 0 {
                    return Err(NumarckError::Corrupt(format!(
                        "full payload for '{name}' not a multiple of 8 bytes"
                    )));
                }
                let values: Vec<f64> = payload
                    .chunks_exact(8)
                    .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
                    .collect();
                vars.insert(name, values);
            }
            CheckpointKind::Full(vars)
        }
        1 => {
            let mut blocks = std::collections::BTreeMap::new();
            for _ in 0..count {
                let (name, payload) = read_entry(&mut cur)?;
                blocks.insert(name, nser::from_bytes(&payload)?);
            }
            CheckpointKind::Delta(blocks)
        }
        k => return Err(NumarckError::Corrupt(format!("unknown checkpoint kind {k}"))),
    };
    if cur.remaining() != 0 {
        return Err(NumarckError::Corrupt(format!(
            "{} trailing bytes after last variable",
            cur.remaining()
        )));
    }
    let delta_span = match kind {
        CheckpointKind::Full(_) => 0,
        CheckpointKind::Delta(_) => stored_span,
    };
    Ok(CheckpointFile { iteration, kind, delta_span })
}

/// Per-variable section sizes without decoding the payloads, for the
/// inspector ([`super::describe`]). Runs after the CRC gate.
pub(super) fn describe(data: &[u8]) -> Result<Vec<super::SectionInfo>, NumarckError> {
    // Reuse the full parser's validation for the frame, then re-walk the
    // entry list cheaply for the sizes (v1 files are small enough that
    // the double pass is irrelevant next to the decode the parse did).
    from_bytes(data)?;
    let mut cur = &data[24..data.len() - 4];
    let mut sections = Vec::new();
    while cur.remaining() > 0 {
        let (name, payload) = read_entry(&mut cur)?;
        sections.push(super::SectionInfo { name, bytes: payload.len() as u64 });
    }
    Ok(sections)
}

fn read_entry(cur: &mut &[u8]) -> Result<(String, Vec<u8>), NumarckError> {
    if cur.remaining() < 2 {
        return Err(NumarckError::Corrupt("truncated variable name".into()));
    }
    let name_len = cur.get_u16_le() as usize;
    if cur.remaining() < name_len {
        return Err(NumarckError::Corrupt("truncated variable name".into()));
    }
    let mut name_bytes = vec![0u8; name_len];
    cur.copy_to_slice(&mut name_bytes);
    let name = String::from_utf8(name_bytes)
        .map_err(|_| NumarckError::Corrupt("variable name not UTF-8".into()))?;
    if cur.remaining() < 8 {
        return Err(NumarckError::Corrupt("truncated payload length".into()));
    }
    let payload_len = cur.get_u64_le() as usize;
    if cur.remaining() < payload_len {
        return Err(NumarckError::Corrupt(format!(
            "payload for '{name}' truncated: want {payload_len}, have {}",
            cur.remaining()
        )));
    }
    let mut payload = vec![0u8; payload_len];
    cur.copy_to_slice(&mut payload);
    Ok((name, payload))
}

fn put_name(buf: &mut Vec<u8>, name: &str) {
    assert!(name.len() <= u16::MAX as usize, "variable name too long");
    buf.extend_from_slice(&(name.len() as u16).to_le_bytes());
    buf.extend_from_slice(name.as_bytes());
}
