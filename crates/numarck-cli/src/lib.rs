//! The `numarck` command-line tool.
//!
//! A thin, dependency-free front-end over the library for working with
//! *iteration sequence* files (`.f64s`, a trivial raw container defined
//! in [`seqfile`]) and NUMARCK *chain* files (`.nmkc`, a full base
//! checkpoint plus compressed deltas, defined in [`chainfile`]):
//!
//! ```text
//! numarck gen  --source climate:rlus --iterations 20 --out data.f64s
//! numarck compress data.f64s --out data.nmkc --bits 8 --tolerance 0.001
//! numarck decompress data.nmkc --out restored.f64s
//! numarck inspect data.nmkc
//! numarck verify data.f64s restored.f64s
//! ```
//!
//! All command logic lives in this library crate so it is unit-testable;
//! `main.rs` only forwards `std::env::args`.

pub mod args;
pub mod chainfile;
pub mod commands;
pub mod compact_cmd;
pub mod router_cmd;
pub mod seqfile;
pub mod serve_cmd;

/// Process exit codes, stable for scripts and CI to branch on.
pub mod exit_code {
    /// Unclassified failure (I/O, compression internals, ...).
    pub const GENERIC: i32 = 1;
    /// Bad invocation: unknown command, unknown flag, malformed value.
    pub const USAGE: i32 = 2;
    /// The thing asked about is absent: store directory or input file
    /// missing, store empty, no restartable iteration, unknown session.
    pub const MISSING: i32 = 3;
    /// Data exists but is damaged: verify FAIL, CRC/parse corruption.
    pub const CORRUPT: i32 = 4;
    /// A scrub quarantined files (damage was found *and* acted on).
    pub const QUARANTINED: i32 = 5;
    /// The server's bounded queue rejected the request; retry later.
    pub const BUSY: i32 = 6;
}

/// A CLI failure: the message for stderr plus the process exit code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// Process exit code (see [`exit_code`]).
    pub code: i32,
    /// Message printed to stderr.
    pub message: String,
}

impl CliError {
    /// Bad invocation ([`exit_code::USAGE`]).
    pub fn usage(message: impl Into<String>) -> Self {
        Self { code: exit_code::USAGE, message: message.into() }
    }

    /// Absent target ([`exit_code::MISSING`]).
    pub fn missing(message: impl Into<String>) -> Self {
        Self { code: exit_code::MISSING, message: message.into() }
    }

    /// Damaged data ([`exit_code::CORRUPT`]).
    pub fn corrupt(message: impl Into<String>) -> Self {
        Self { code: exit_code::CORRUPT, message: message.into() }
    }

    /// Damage found and quarantined ([`exit_code::QUARANTINED`]).
    pub fn quarantined(message: impl Into<String>) -> Self {
        Self { code: exit_code::QUARANTINED, message: message.into() }
    }

    /// Server backpressure ([`exit_code::BUSY`]).
    pub fn busy(message: impl Into<String>) -> Self {
        Self { code: exit_code::BUSY, message: message.into() }
    }

    /// Shorthand used all over the tests.
    pub fn contains(&self, needle: &str) -> bool {
        self.message.contains(needle)
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        Self { code: exit_code::GENERIC, message }
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> Self {
        Self { code: exit_code::GENERIC, message: message.to_string() }
    }
}

/// Exit status for the binary: `Ok(report)` printed to stdout, `Err`
/// printed to stderr with its [`CliError::code`] as the exit code.
pub type CliResult = Result<String, CliError>;

/// Entry point shared by `main.rs` and the tests.
pub fn run(args: &[String]) -> CliResult {
    let Some(command) = args.first() else {
        return Err(CliError::usage(usage()));
    };
    match command.as_str() {
        "gen" => commands::gen(&args[1..]),
        "compress" => commands::compress(&args[1..]),
        "decompress" => commands::decompress(&args[1..]),
        "inspect" => commands::inspect(&args[1..]),
        "verify" => commands::verify(&args[1..]),
        "anomaly-scan" => commands::anomaly_scan(&args[1..]),
        "drift" => commands::drift(&args[1..]),
        "scrub" => commands::scrub(&args[1..]),
        "repair" => commands::repair(&args[1..]),
        "compact" => compact_cmd::compact(&args[1..]),
        "chain" => compact_cmd::chain(&args[1..]),
        "serve" => serve_cmd::serve(&args[1..]),
        "router" => router_cmd::router(&args[1..]),
        "stats" => serve_cmd::stats(&args[1..]),
        "client" => serve_cmd::client(&args[1..]),
        "--help" | "-h" | "help" => Ok(usage()),
        other => Err(CliError::usage(format!("unknown command '{other}'\n\n{}", usage()))),
    }
}

/// The usage text.
pub fn usage() -> String {
    "numarck — error-bounded checkpoint compression (NUMARCK, SC'14)

USAGE:
  numarck gen        --source <climate:VAR | flash:VAR> --iterations <N> --out <file.f64s>
  numarck compress   <in.f64s>  --out <file.nmkc> [--bits B] [--tolerance E]
                     [--strategy equal-width|log-scale|clustering] [--closed-loop] [--entropy]
  numarck decompress <in.nmkc>  --out <file.f64s>
  numarck inspect    <in.nmkc>
  numarck verify     <a.f64s> <b.f64s> [--tolerance E]
  numarck verify     --store <ckpt-dir> [--replicas N]
  numarck anomaly-scan <in.f64s> [--fence-multiplier K]
  numarck drift        <in.f64s> [--tolerance E] [--cap C]
  numarck scrub      <ckpt-dir> [--replicas N]
  numarck repair     <ckpt-dir> [--replicas N]
  numarck compact    <ckpt-dir> [--window K] [--slo-ms MS] [--keep-fulls N]
                     [--keep-every K] [--min-age-secs S] [--replicas N]
  numarck chain      <ckpt-dir> [--replicas N]
  numarck serve      --root <dir> [--addr HOST:PORT] [--workers N] [--queue N]
                     [--bits B] [--tolerance E] [--full-interval K]
                     [--metrics-addr HOST:PORT] [--replicas N]
                     [--compact-interval-secs S] [--compact-window K]
                     [--restart-slo-ms MS] [--gc-keep-fulls N]
                     [--gc-keep-every K] [--gc-min-age-secs S]
  numarck router     --shards HOST:PORT,HOST:PORT,... [--addr HOST:PORT]
                     [--replication N] [--vnodes V] [--metrics-addr HOST:PORT]
                     [--probe-interval-ms MS] [--markdown-after K] [--max-conns N]
  numarck stats      --addr HOST:PORT [--prometheus | --json]
  numarck client     ingest   --addr HOST:PORT --session NAME <in.f64s>
  numarck client     replay   --addr HOST:PORT --session NAME --out <file.f64s>
  numarck client     restart  --addr HOST:PORT --session NAME [--at N] --out <file.f64s>
  numarck client     stats    --addr HOST:PORT [--prometheus | --json]
  numarck client     scrub    --addr HOST:PORT --session NAME [--repair]
  numarck client     shutdown --addr HOST:PORT

Defaults: --bits 8, --tolerance 0.001 (0.1%), --strategy clustering.
Recovery: 'verify --store' reports restartability per iteration; 'scrub'
quarantines files that fail CRC validation; 'repair' additionally drops
orphaned chain segments and re-anchors with a fresh full checkpoint.
Maintenance: 'compact' merges runs of consecutive deltas bit-exactly
(--window), promotes full checkpoints until the modeled worst-case
restart meets --slo-ms, and (with --keep-fulls) garbage-collects
superseded files; 'chain' prints the stored layout and modeled restart
cost per iteration.
Durability: '--replicas N' stores every file N ways (majority write
quorum) under @replica-{i} subdirectories; scrub cross-compares the
copies and read-repairs missing or divergent ones. 'serve' journals
every ingest intent and recovers half-applied writes on startup.
Observability: 'serve --metrics-addr' exposes a plain-HTTP GET /metrics
endpoint (Prometheus text); 'stats --prometheus|--json' renders the wire
stats reply in the same formats.
Cluster: 'router' fronts N 'serve' shards, placing sessions by
consistent hashing and replicating ingest (factor --replication); every
'client' subcommand accepts --via-router HOST:PORT as a synonym for
--addr to target the gateway.
Exit codes: 0 ok · 1 error · 2 usage · 3 missing · 4 corrupt ·
5 quarantined-by-scrub · 6 server-busy."
        .to_string()
}

#[cfg(test)]
pub(crate) mod testutil {
    use std::path::PathBuf;

    pub struct TempDir(pub PathBuf);

    impl TempDir {
        pub fn new(tag: &str) -> Self {
            let path = std::env::temp_dir().join(format!(
                "numarck-cli-{tag}-{}-{}",
                std::process::id(),
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .expect("after epoch")
                    .as_nanos()
            ));
            std::fs::create_dir_all(&path).expect("mkdir");
            Self(path)
        }

        pub fn path(&self, name: &str) -> String {
            self.0.join(name).display().to_string()
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    pub fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::{argv, TempDir};
    use super::*;

    #[test]
    fn no_args_shows_usage_as_error() {
        assert!(run(&[]).is_err());
    }

    #[test]
    fn help_is_ok() {
        assert!(run(&argv(&["--help"])).unwrap().contains("USAGE"));
    }

    #[test]
    fn unknown_command_is_error_with_usage() {
        let err = run(&argv(&["frobnicate"])).unwrap_err();
        assert!(err.contains("unknown command"));
        assert!(err.contains("USAGE"));
        assert_eq!(err.code, exit_code::USAGE);
    }

    #[test]
    fn usage_errors_carry_the_usage_exit_code() {
        // Unknown flag.
        let err = run(&argv(&["inspect", "--bogus", "x"])).unwrap_err();
        assert_eq!(err.code, exit_code::USAGE, "{err}");
        // Wrong positional count.
        let err = run(&argv(&["verify", "only-one.f64s"])).unwrap_err();
        assert_eq!(err.code, exit_code::USAGE, "{err}");
        // Missing required flag.
        let err = run(&argv(&["gen", "--source", "climate:rlus"])).unwrap_err();
        assert_eq!(err.code, exit_code::USAGE, "{err}");
        // A malformed *value* is a generic error, not a usage error.
        let err = run(&argv(&["gen", "--source", "nope", "--out", "/tmp/x"])).unwrap_err();
        assert_eq!(err.code, exit_code::GENERIC, "{err}");
    }

    #[test]
    fn full_pipeline_roundtrip() {
        let tmp = TempDir::new("pipeline");
        let data = tmp.path("data.f64s");
        let chain = tmp.path("data.nmkc");
        let restored = tmp.path("restored.f64s");

        let out = run(&argv(&[
            "gen", "--source", "climate:rlus", "--iterations", "5", "--grid", "24x16",
            "--out", &data,
        ]))
        .unwrap();
        assert!(out.contains("5 iterations"), "{out}");

        let out = run(&argv(&[
            "compress", &data, "--out", &chain, "--bits", "8", "--tolerance", "0.001",
        ]))
        .unwrap();
        assert!(out.contains("compression"), "{out}");

        let out = run(&argv(&["decompress", &chain, "--out", &restored])).unwrap();
        assert!(out.contains("5 iterations"), "{out}");

        let out = run(&argv(&["verify", &data, &restored, "--tolerance", "0.001"])).unwrap();
        assert!(out.contains("PASS"), "{out}");

        let out = run(&argv(&["inspect", &chain])).unwrap();
        assert!(out.contains("deltas"), "{out}");
    }

    #[test]
    fn closed_loop_pipeline_roundtrip() {
        let tmp = TempDir::new("closed");
        let data = tmp.path("d.f64s");
        let chain = tmp.path("d.nmkc");
        let restored = tmp.path("r.f64s");
        run(&argv(&[
            "gen", "--source", "flash:dens", "--iterations", "4", "--out", &data,
        ]))
        .unwrap();
        run(&argv(&["compress", &data, "--out", &chain, "--closed-loop"])).unwrap();
        run(&argv(&["decompress", &chain, "--out", &restored])).unwrap();
        let out = run(&argv(&["verify", &data, &restored])).unwrap();
        assert!(out.contains("PASS"), "{out}");
    }

    #[test]
    fn entropy_pipeline_roundtrip_is_smaller() {
        let tmp = TempDir::new("entropy");
        let data = tmp.path("d.f64s");
        let plain = tmp.path("p.nmkc");
        let packed = tmp.path("e.nmkc");
        let restored = tmp.path("r.f64s");
        run(&argv(&["gen", "--source", "flash:dens", "--iterations", "6", "--out", &data])).unwrap();
        run(&argv(&["compress", &data, "--out", &plain])).unwrap();
        run(&argv(&["compress", &data, "--out", &packed, "--entropy"])).unwrap();
        let plain_len = std::fs::metadata(&plain).unwrap().len();
        let packed_len = std::fs::metadata(&packed).unwrap().len();
        assert!(packed_len < plain_len, "entropy {packed_len} vs plain {plain_len}");
        run(&argv(&["decompress", &packed, "--out", &restored])).unwrap();
        let out = run(&argv(&["verify", &data, &restored])).unwrap();
        assert!(out.contains("PASS"), "{out}");
    }

    #[test]
    fn verify_budget_follows_each_points_change_ratio() {
        // Every point drops tenfold at iteration 2. A ratio error of E
        // in that step is a relative error of 10·E in the state, which a
        // budget assuming |Δ| ≤ E cannot cover; the per-point budget
        // ∏(1 + E/|x_k/x_{k−1}|) − 1 does.
        let tmp = TempDir::new("verify-drop");
        let data = tmp.path("drop.f64s");
        let chain = tmp.path("drop.nmkc");
        let restored = tmp.path("drop-restored.f64s");
        let mut state: Vec<f64> = (0..512).map(|j| 1.0 + (j % 17) as f64).collect();
        let mut seq = vec![state.clone()];
        for it in 1..5u64 {
            // Spread the drop's ratios wider than 2^B − 1 bins of width
            // 2E can cover, so the quantized ones carry errors near E.
            let spread = if it == 2 { 0.3 } else { 0.06 };
            for (j, v) in state.iter_mut().enumerate() {
                let u = ((j as u64 * 7919 + it * 104_729) % 1000) as f64 / 1000.0 - 0.5;
                *v *= if it == 2 { 0.1 } else { 1.0 } * (1.0 + spread * u);
            }
            seq.push(state.clone());
        }
        crate::seqfile::write(std::path::Path::new(&data), &seq).unwrap();
        run(&argv(&["compress", &data, "--out", &chain, "--bits", "4", "--tolerance", "0.001"]))
            .unwrap();
        run(&argv(&["decompress", &chain, "--out", &restored])).unwrap();
        let out = run(&argv(&["verify", &data, &restored, "--tolerance", "0.001"]))
            .unwrap_or_else(|e| panic!("{e}"));
        assert!(out.contains("PASS"), "{out}");
    }

    #[test]
    fn verify_fails_on_mismatched_data() {
        let tmp = TempDir::new("verify-fail");
        let a = tmp.path("a.f64s");
        let b = tmp.path("b.f64s");
        run(&argv(&["gen", "--source", "climate:mc", "--iterations", "3", "--grid", "16x8", "--out", &a])).unwrap();
        run(&argv(&["gen", "--source", "climate:mrro", "--iterations", "3", "--grid", "16x8", "--out", &b])).unwrap();
        let err = run(&argv(&["verify", &a, &b, "--tolerance", "0.001"])).unwrap_err();
        assert!(err.contains("FAIL"), "{err}");
        assert_eq!(err.code, exit_code::CORRUPT);
    }

    #[test]
    fn anomaly_scan_flags_injected_corruption() {
        let tmp = TempDir::new("anomaly");
        let data = tmp.path("d.f64s");
        run(&argv(&["gen", "--source", "climate:rlus", "--iterations", "4", "--grid", "32x20", "--out", &data])).unwrap();
        // Clean scan first.
        let out = run(&argv(&["anomaly-scan", &data])).unwrap();
        assert!(out.contains("total suspect points: 0"), "{out}");
        // Corrupt one value in iteration 2 (smash the exponent).
        let mut seq = crate::seqfile::read(std::path::Path::new(&data)).unwrap();
        seq[2][100] *= 1e9;
        crate::seqfile::write(std::path::Path::new(&data), &seq).unwrap();
        let out = run(&argv(&["anomaly-scan", &data])).unwrap();
        assert!(out.contains("point      100"), "{out}");
        // The same corrupt value is an outlier in two transitions (in and
        // out of iteration 2).
        assert!(out.contains("total suspect points: 2"), "{out}");
    }

    #[test]
    fn drift_prints_series() {
        let tmp = TempDir::new("drift");
        let data = tmp.path("d.f64s");
        run(&argv(&["gen", "--source", "climate:mc", "--iterations", "5", "--grid", "32x20", "--out", &data])).unwrap();
        let out = run(&argv(&["drift", &data])).unwrap();
        assert!(out.contains("L1"), "{out}");
        // 4 transitions -> 3 drift rows.
        assert_eq!(out.lines().count(), 4, "{out}");
    }

    #[test]
    fn missing_file_is_a_clean_error() {
        let err = run(&argv(&["inspect", "/nonexistent/x.nmkc"])).unwrap_err();
        assert!(err.contains("cannot"), "{err}");
    }

    #[test]
    fn gen_unknown_flash_variable_is_a_clean_error() {
        let tmp = TempDir::new("gen-badvar");
        let out = tmp.path("x.f64s");
        let err = run(&argv(&[
            "gen", "--source", "flash:nosuchvar", "--iterations", "2", "--out", &out,
        ]))
        .unwrap_err();
        assert!(err.contains("nosuchvar"), "{err}");
    }

    /// Build a small checkpoint store for the recovery-command tests.
    fn build_store(dir: &std::path::Path, iters: u64) -> numarck_checkpoint::CheckpointStore {
        use numarck_checkpoint::{CheckpointManager, CheckpointStore, ManagerPolicy};
        let store = CheckpointStore::open(dir).unwrap();
        let cfg = numarck::Config::new(8, 0.001, numarck::Strategy::Clustering).unwrap();
        let mut mgr = CheckpointManager::new(store.clone(), cfg, ManagerPolicy::fixed(4));
        let mut state: Vec<f64> = (0..120).map(|i| 1.0 + (i % 7) as f64).collect();
        for it in 0..iters {
            if it > 0 {
                for v in state.iter_mut() {
                    *v *= 1.002;
                }
            }
            let mut vars = std::collections::BTreeMap::new();
            vars.insert("x".to_string(), state.clone());
            mgr.checkpoint(it, &vars).unwrap();
        }
        store
    }

    #[test]
    fn verify_store_reports_health() {
        let tmp = TempDir::new("verify-store");
        let store = build_store(&tmp.0, 6);
        let dir = tmp.0.display().to_string();
        let out = run(&argv(&["verify", "--store", &dir])).unwrap();
        assert!(out.contains("PASS"), "{out}");
        // Break a delta: verify now fails and points at scrub/repair.
        numarck_checkpoint::fault::inject(
            &store.path_of(5, false),
            numarck_checkpoint::fault::Fault::Truncate { keep: 10 },
        )
        .unwrap();
        let err = run(&argv(&["verify", "--store", &dir])).unwrap_err();
        assert!(err.contains("FAIL"), "{err}");
        assert!(err.contains("scrub"), "{err}");
        assert_eq!(err.code, exit_code::CORRUPT);
    }

    #[test]
    fn scrub_then_repair_restores_the_store() {
        let tmp = TempDir::new("scrub-repair");
        let store = build_store(&tmp.0, 7);
        numarck_checkpoint::fault::inject(
            &store.path_of(5, false),
            numarck_checkpoint::fault::Fault::BitFlip { offset: 30, mask: 0x10 },
        )
        .unwrap();
        let dir = tmp.0.display().to_string();
        // A scrub that quarantines exits with the dedicated code so
        // operators/CI can distinguish "found damage" from "clean".
        let err = run(&argv(&["scrub", &dir])).unwrap_err();
        assert_eq!(err.code, exit_code::QUARANTINED, "{err}");
        assert!(err.contains("quarantined iteration 5"), "{err}");
        let out = run(&argv(&["repair", &dir])).unwrap();
        assert!(out.contains("lost iteration 6"), "{out}");
        let out = run(&argv(&["verify", "--store", &dir])).unwrap();
        assert!(out.contains("PASS"), "{out}");
    }

    #[test]
    fn scrub_of_clean_store_says_so() {
        let tmp = TempDir::new("scrub-clean-cli");
        build_store(&tmp.0, 4);
        let out = run(&argv(&["scrub", &tmp.0.display().to_string()])).unwrap();
        assert!(out.contains("clean"), "{out}");
    }

    /// Build a 3-way replicated store (majority write quorum) under
    /// `dir`, the layout `serve --replicas 3` and
    /// `scrub --replicas 3` operate on.
    fn build_replicated_store(
        dir: &std::path::Path,
        iters: u64,
    ) -> numarck_checkpoint::CheckpointStore {
        use numarck_checkpoint::{
            CheckpointManager, CheckpointStore, ManagerPolicy, ReplicatedBackend,
        };
        let backend = ReplicatedBackend::with_fs_replicas(dir, 3, 2).unwrap();
        let store = CheckpointStore::open_with(dir, std::sync::Arc::new(backend)).unwrap();
        let cfg = numarck::Config::new(8, 0.001, numarck::Strategy::Clustering).unwrap();
        let mut mgr = CheckpointManager::new(store.clone(), cfg, ManagerPolicy::fixed(4));
        let mut state: Vec<f64> = (0..120).map(|i| 1.0 + (i % 7) as f64).collect();
        for it in 0..iters {
            if it > 0 {
                for v in state.iter_mut() {
                    *v *= 1.002;
                }
            }
            let mut vars = std::collections::BTreeMap::new();
            vars.insert("x".to_string(), state.clone());
            mgr.checkpoint(it, &vars).unwrap();
        }
        store
    }

    #[test]
    fn replicated_scrub_read_repairs_a_lost_replica_copy() {
        let tmp = TempDir::new("scrub-replicas");
        let store = build_replicated_store(&tmp.0, 6);
        let dir = tmp.0.display().to_string();
        // Lose replica 1's copy of the first full and bit-rot its copy
        // of a delta: the other two replicas still agree.
        let full = store.path_of(0, true).file_name().unwrap().to_owned();
        let delta = store.path_of(2, false).file_name().unwrap().to_owned();
        let victim = tmp.0.join("@replica-1");
        std::fs::remove_file(victim.join(&full)).unwrap();
        numarck_checkpoint::fault::inject(
            &victim.join(&delta),
            numarck_checkpoint::fault::Fault::BitFlip { offset: 25, mask: 0x40 },
        )
        .unwrap();

        // Quorum reads keep every iteration restartable despite the
        // damaged replica.
        let out = run(&argv(&["verify", "--store", &dir, "--replicas", "3"])).unwrap();
        assert!(out.contains("PASS"), "{out}");

        // One scrub pass restores full replication and says so.
        let out = run(&argv(&["scrub", &dir, "--replicas", "3"])).unwrap();
        assert!(out.contains("clean"), "{out}");
        assert!(out.contains("2 read-repair(s)"), "{out}");
        assert!(victim.join(&full).exists(), "deleted replica copy must be rewritten");

        // Replica 1's copies now match replica 0's byte-for-byte.
        for name in [&full, &delta] {
            assert_eq!(
                std::fs::read(victim.join(name)).unwrap(),
                std::fs::read(tmp.0.join("@replica-0").join(name)).unwrap(),
            );
        }

        // A second pass has nothing left to fix.
        let out = run(&argv(&["scrub", &dir, "--replicas", "3"])).unwrap();
        assert!(out.contains("0 read-repair(s)"), "{out}");
    }

    /// Cold-start edge cases: the recovery commands must produce typed
    /// reports (exit codes), never panic, on stores that barely exist.
    #[test]
    fn scrub_cold_start_edge_cases_yield_typed_reports() {
        // 1. An empty session directory: nothing to check, nothing to
        // repair — scrub is clean, verify/repair report MISSING.
        let tmp = TempDir::new("cold-empty");
        let dir = tmp.0.display().to_string();
        let out = run(&argv(&["scrub", &dir])).unwrap();
        assert!(out.contains("0 file(s) checked"), "{out}");
        let err = run(&argv(&["verify", "--store", &dir])).unwrap_err();
        assert_eq!(err.code, exit_code::MISSING, "{err}");
        let err = run(&argv(&["repair", &dir])).unwrap_err();
        assert_eq!(err.code, exit_code::MISSING, "{err}");
        assert!(err.contains("no restartable iteration"), "{err}");

        // 2. A session holding only crash debris: a temp file that never
        // reached its rename (ignored by the store listing) and a
        // half-renamed file full of garbage (quarantined, then MISSING
        // on repair since nothing restartable remains).
        let tmp = TempDir::new("cold-debris");
        let dir = tmp.0.display().to_string();
        std::fs::write(tmp.0.join("ckpt_0000000000.tmp"), b"half a write").unwrap();
        let out = run(&argv(&["scrub", &dir])).unwrap();
        assert!(out.contains("0 file(s) checked"), "{out}");
        std::fs::write(tmp.0.join("ckpt_0000000000.full"), b"torn rename garbage").unwrap();
        let err = run(&argv(&["scrub", &dir])).unwrap_err();
        assert_eq!(err.code, exit_code::QUARANTINED, "{err}");
        let err = run(&argv(&["repair", &dir])).unwrap_err();
        assert_eq!(err.code, exit_code::MISSING, "{err}");
        assert!(err.contains("no restartable iteration"), "{err}");

        // 3. A chain whose first full is gone: the deltas are intact
        // bytes but restart from nothing — verify reports them broken
        // (CORRUPT), repair reports nothing restartable (MISSING).
        let tmp = TempDir::new("cold-headless");
        let store = build_store(&tmp.0, 3);
        std::fs::remove_file(store.path_of(0, true)).unwrap();
        let dir = tmp.0.display().to_string();
        let err = run(&argv(&["verify", "--store", &dir])).unwrap_err();
        assert_eq!(err.code, exit_code::CORRUPT, "{err}");
        assert!(err.contains("BROKEN"), "{err}");
        let err = run(&argv(&["repair", &dir])).unwrap_err();
        assert_eq!(err.code, exit_code::MISSING, "{err}");
    }

    #[test]
    fn replicas_flag_rejects_zero() {
        let tmp = TempDir::new("replicas-zero");
        build_store(&tmp.0, 2);
        let dir = tmp.0.display().to_string();
        for args in [
            vec!["scrub", &dir, "--replicas", "0"],
            vec!["repair", &dir, "--replicas", "0"],
            vec!["verify", "--store", &dir, "--replicas", "0"],
        ] {
            let err = run(&argv(&args)).unwrap_err();
            assert_eq!(err.code, exit_code::USAGE, "{args:?}: {err}");
        }
    }

    #[test]
    fn recovery_commands_reject_missing_directory() {
        for cmd in ["scrub", "repair"] {
            let err = run(&argv(&[cmd, "/nonexistent/store"])).unwrap_err();
            assert!(err.contains("does not exist"), "{cmd}: {err}");
            assert_eq!(err.code, exit_code::MISSING, "{cmd}: {err}");
        }
        let err = run(&argv(&["verify", "--store", "/nonexistent/store"])).unwrap_err();
        assert!(err.contains("does not exist"), "{err}");
        assert_eq!(err.code, exit_code::MISSING);
    }
}
