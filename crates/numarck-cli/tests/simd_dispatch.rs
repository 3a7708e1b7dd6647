//! Dispatch-equivalence of the whole CLI pipeline, across processes.
//!
//! The SIMD lane kernels are proven bit-identical to their scalar
//! oracles in-crate; this test closes the loop end-to-end: the same
//! input compressed by a subprocess running the dispatched (fastest
//! available) kernels and by one pinned to the scalar path via
//! `NUMARCK_SIMD=scalar` must produce **byte-identical** `.nmkc`
//! artefacts, and both must decompress to byte-identical `.f64s`
//! output. The env knob is read per process, which is exactly why this
//! lives as a subprocess test and not a unit test. The container CRC
//! goes through the same dispatch, so the byte-equal artefacts also pin
//! the CRC kernel's output per level, and each pinned process must
//! still reject a bit-flipped artefact with its own CRC check.

use std::path::PathBuf;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_numarck");

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "numarck-simd-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("after epoch")
                .as_nanos()
        ));
        std::fs::create_dir_all(&path).expect("mkdir");
        Self(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Run the CLI with extra env vars and return its output.
fn output(args: &[&str], env: &[(&str, &str)]) -> std::process::Output {
    let mut cmd = Command::new(BIN);
    cmd.args(args);
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("spawn numarck")
}

/// Run the CLI with extra env vars; panic with full output on failure.
fn run(args: &[&str], env: &[(&str, &str)]) {
    let out = output(args, env);
    assert!(
        out.status.success(),
        "numarck {args:?} env={env:?} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
}

#[test]
fn forced_scalar_subprocess_produces_identical_artifacts() {
    let tmp = TempDir::new("eq");
    let src = tmp.0.join("in.f64s");
    let src_s = src.to_str().unwrap();
    run(
        &["gen", "--source", "climate:rlus", "--iterations", "3", "--out", src_s],
        &[],
    );

    // (label, env) per pinned level; "default" exercises whatever the
    // host dispatches (AVX2 where available).
    let variants: [(&str, &[(&str, &str)]); 2] =
        [("default", &[]), ("scalar", &[("NUMARCK_SIMD", "scalar")])];

    let mut compressed: Vec<(String, Vec<u8>)> = Vec::new();
    let mut restored: Vec<(String, Vec<u8>)> = Vec::new();
    for (label, env) in variants {
        let nmkc = tmp.0.join(format!("{label}.nmkc"));
        let back = tmp.0.join(format!("{label}.f64s"));
        run(
            &["compress", src_s, "--out", nmkc.to_str().unwrap(), "--bits", "8", "--tolerance", "0.001"],
            env,
        );
        run(
            &["decompress", nmkc.to_str().unwrap(), "--out", back.to_str().unwrap()],
            env,
        );
        let bytes = std::fs::read(&nmkc).expect("read nmkc");

        // The same process kind, pinned the same way, must catch a
        // single flipped bit with its CRC.
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x08;
        let bad = tmp.0.join(format!("{label}-flipped.nmkc"));
        std::fs::write(&bad, &flipped).expect("write flipped nmkc");
        let junk = tmp.0.join(format!("{label}-flipped.f64s"));
        let out = output(
            &["decompress", bad.to_str().unwrap(), "--out", junk.to_str().unwrap()],
            env,
        );
        assert!(!out.status.success(), "'{label}' decompressed a bit-flipped artefact");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("crc mismatch"),
            "'{label}' rejected the flipped artefact without a CRC error: {}",
            String::from_utf8_lossy(&out.stderr),
        );

        compressed.push((label.to_string(), bytes));
        restored.push((label.to_string(), std::fs::read(&back).expect("read f64s")));
    }

    let (base_label, base_bytes) = &compressed[0];
    assert!(!base_bytes.is_empty(), "compressed artefact must not be empty");
    for (label, bytes) in &compressed[1..] {
        assert!(
            bytes == base_bytes,
            "compressed artefact from '{label}' differs from '{base_label}' \
             ({} vs {} bytes)",
            bytes.len(),
            base_bytes.len(),
        );
    }
    let (base_label, base_bytes) = &restored[0];
    assert!(!base_bytes.is_empty(), "restored output must not be empty");
    for (label, bytes) in &restored[1..] {
        assert!(
            bytes == base_bytes,
            "decompressed output from '{label}' differs from '{base_label}'",
        );
    }
}
