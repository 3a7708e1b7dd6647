//! The `numarck compact` and `numarck chain` subcommands: the offline
//! front-end over [`numarck_compact`]'s chain-shape policy engine.
//!
//! `compact` runs one maintenance pass (delta merging, tiered full
//! placement, retention GC) against a store directory, replaying any
//! outstanding write-ahead intents first so maintenance never runs on a
//! half-applied chain. `chain` is the read-only inspector: per
//! iteration it prints what is stored (full / delta and its span),
//! bytes on disk, the variables inside, and the modeled restart cost.

use numarck::NumarckError;
use numarck_checkpoint::{recover_session, ChainIndex, CheckpointStore};
use numarck_compact::{CompactionConfig, Compactor, CostModel};

use crate::commands::{open_store, parse_args, replica_count};
use crate::{CliError, CliResult};

/// Map a policy-engine failure onto the CLI exit-code classes: damaged
/// payloads → [`crate::exit_code::CORRUPT`], everything else generic.
fn map_err(e: NumarckError) -> CliError {
    match e {
        NumarckError::Corrupt(_) => CliError::corrupt(e.to_string()),
        other => other.to_string().into(),
    }
}

/// `numarck compact`: one maintenance pass over a checkpoint store.
pub fn compact(raw: &[String]) -> CliResult {
    let p = parse_args(
        raw,
        &["window", "slo-ms", "keep-fulls", "keep-every", "min-age-secs", "replicas",
          "die-after-ops"],
        &[],
    )?;
    let dir = &p.expect_positionals(1, "checkpoint store directory").map_err(CliError::usage)?[0];
    let mut store = open_store(dir, replica_count(&p)?)?;
    // Crash-injection knob (undocumented, mirrors `serve`): fail-stop
    // the whole process at the entry of storage operation K+1, so the
    // kill-anywhere harness can walk a kill point through a pass.
    if p.get("die-after-ops").is_some() {
        let ops: u64 = p.get_parsed("die-after-ops", 0)?;
        let backend = std::sync::Arc::new(numarck_checkpoint::FaultyBackend::wrapping(
            std::sync::Arc::clone(store.backend()),
            numarck_checkpoint::FaultSchedule::new().die_after_ops(ops),
        ));
        store = CheckpointStore::open_with(dir, backend)
            .map_err(|e| format!("cannot reopen {dir}: {e}"))?;
    }

    let defaults = CompactionConfig::default();
    let slo_ms: u64 = p.get_parsed("slo-ms", 0)?;
    let config = CompactionConfig {
        merge_window: p.get_parsed("window", defaults.merge_window)?,
        restart_slo_ns: (slo_ms > 0).then(|| slo_ms.saturating_mul(1_000_000)),
        keep_last_fulls: p.get_parsed("keep-fulls", 0)?,
        keep_every: p.get_parsed("keep-every", 0)?,
        min_age_secs: p.get_parsed("min-age-secs", 0)?,
        cost: CostModel::default(),
    };
    if config.keep_last_fulls == 0
        && (p.get("keep-every").is_some() || p.get("min-age-secs").is_some())
    {
        return Err(CliError::usage(
            "--keep-every/--min-age-secs tune retention GC, which only runs with \
             --keep-fulls N (N >= 1)",
        ));
    }

    // Replay outstanding write-ahead intents before touching the chain:
    // maintenance on a half-applied store would bake the damage in.
    let (mut journal, recovery) =
        recover_session(&store).map_err(|e| format!("journal recovery: {e}"))?;
    let mut out = String::new();
    if recovery.replayed > 0 {
        out.push_str(&format!(
            "journal: replayed {} outstanding intent(s) ({} completed, {} rolled back{})\n",
            recovery.replayed,
            recovery.completed,
            recovery.rolled_back,
            if recovery.repaired { ", chain re-anchored" } else { "" },
        ));
    }

    let mut index = ChainIndex::load(&store).map_err(|e| format!("cannot list {dir}: {e}"))?;
    let report = Compactor::new(config).run(&store, &mut journal, &mut index).map_err(map_err)?;
    out.push_str(&format!(
        "compacted {dir}: {} merge(s) superseding {} delta(s), {} full(s) promoted\n",
        report.merges, report.deltas_merged, report.fulls_promoted
    ));
    if report.merges > 0 {
        out.push_str(&format!(
            "merge points: {} unchanged, {} ratio-coded, {} escaped\n",
            report.merge_stats.unchanged, report.merge_stats.ratio_coded, report.merge_stats.escaped
        ));
    }
    if config.keep_last_fulls >= 1 {
        out.push_str(&format!(
            "gc: {} file(s) removed ({} bytes), {} live, {} kept young, {} unresolvable\n",
            report.gc.removed,
            report.gc.bytes_removed,
            report.gc.live,
            report.gc.kept_young,
            report.gc.unresolvable
        ));
    }
    out.push_str(&format!("reclaimed {} bytes\n", report.bytes_reclaimed));
    if let Some(worst) = report.worst_case_cost_ns {
        out.push_str(&format!("worst-case modeled restart: {}\n", fmt_cost(Some(worst))));
    }
    Ok(out)
}

/// `numarck chain`: print the chain layout of a checkpoint store.
pub fn chain(raw: &[String]) -> CliResult {
    let p = parse_args(raw, &["replicas"], &[])?;
    let dir = &p.expect_positionals(1, "checkpoint store directory").map_err(CliError::usage)?[0];
    let store = open_store(dir, replica_count(&p)?)?;
    let index = ChainIndex::load(&store).map_err(|e| format!("cannot list {dir}: {e}"))?;
    if index.is_empty() {
        return Ok(format!("chain for {dir}: empty (no checkpoint files)\n"));
    }
    let model = CostModel::default();
    let mut out = format!(
        "chain for {dir}: {} iteration(s), {} full(s), {} bytes\n",
        index.iterations().count(),
        index.fulls().len(),
        index.total_bytes()
    );
    out.push_str(&format!(
        "{:>10}  {:<12} {:>4}  {:>3}  {:>9}  {:>12}  sections\n",
        "iter", "kind", "span", "ver", "bytes", "est-restart"
    ));
    for it in index.iterations() {
        let entry = index.entry(it).expect("iterations() only yields stored entries");
        let cost = fmt_cost(model.restart_cost_ns(&index, it));
        if let Some(full) = entry.full {
            out.push_str(&row(&store, it, true, "full", 0, full.bytes, &cost));
        }
        if let Some(delta) = entry.delta {
            let kind = if delta.span() >= 2 { "delta merged" } else { "delta" };
            out.push_str(&row(&store, it, false, kind, delta.span(), delta.bytes, &cost));
        }
    }
    out.push_str(&format!(
        "worst-case modeled restart: {} (model: {} ns/byte full decode + {} ns/delta hop)\n",
        fmt_cost(model.worst_case_cost_ns(&index)),
        model.full_ns_per_byte,
        model.delta_replay_ns
    ));
    Ok(out)
}

/// One layout row; container detail comes from parsing the file itself
/// (`?` if the payload does not validate — `scrub` is the tool for that).
fn row(
    store: &CheckpointStore,
    iteration: u64,
    is_full: bool,
    kind: &str,
    span: u64,
    bytes: u64,
    cost: &str,
) -> String {
    let (ver, detail) =
        container_of(store, iteration, is_full).unwrap_or_else(|| ("?".into(), "?".into()));
    let span = if is_full { "-".into() } else { span.max(1).to_string() };
    format!("{iteration:>10}  {kind:<12} {span:>4}  {ver:>3}  {bytes:>9}  {cost:>12}  {detail}\n")
}

/// Container version and section/dictionary footprint of one stored
/// file: each variable's section size on disk, plus the shared centroid
/// dictionary (v2 deltas only) that those sections reference.
fn container_of(store: &CheckpointStore, iteration: u64, is_full: bool) -> Option<(String, String)> {
    let bytes = store.read_raw(iteration, is_full).ok()?;
    let info = numarck_checkpoint::describe(&bytes).ok()?;
    let sections: Vec<String> =
        info.sections.iter().map(|s| format!("{}:{}B", s.name, s.bytes)).collect();
    let mut detail = sections.join(",");
    if info.dict_entries > 0 {
        detail.push_str(&format!(
            " (dict: {} entries, {}B)",
            info.dict_entries, info.dict_bytes
        ));
    }
    Some((format!("v{}", info.version), detail))
}

/// Render a modeled restart cost in milliseconds.
fn fmt_cost(ns: Option<u64>) -> String {
    match ns {
        Some(ns) => format!("{:.2} ms", ns as f64 / 1e6),
        None => "unresolvable".into(),
    }
}

#[cfg(test)]
mod tests {
    use crate::testutil::{argv, TempDir};
    use crate::{exit_code, run};

    /// One full at iteration 0, then a long plain-delta run: maximal
    /// surface for the merge policy.
    fn build_store(dir: &std::path::Path, iters: u64) {
        use numarck_checkpoint::{CheckpointManager, CheckpointStore, ManagerPolicy};
        let store = CheckpointStore::open(dir).unwrap();
        let cfg = numarck::Config::new(8, 0.001, numarck::Strategy::Clustering).unwrap();
        let mut mgr = CheckpointManager::new(store, cfg, ManagerPolicy::fixed(1000));
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
    }

    #[test]
    fn compact_merges_and_chain_shows_the_layout() {
        let tmp = TempDir::new("compact-cli");
        build_store(&tmp.0, 10);
        let dir = tmp.0.display().to_string();

        let out = run(&argv(&["chain", &dir])).unwrap();
        assert!(out.contains("10 iteration(s), 1 full(s)"), "{out}");
        assert!(out.contains("full"), "{out}");
        assert!(out.contains("delta"), "{out}");
        assert!(out.contains("worst-case modeled restart"), "{out}");
        assert!(out.contains(" v2 "), "every writer emits v2: {out}");
        assert!(out.contains("x:"), "section sizes per variable: {out}");
        assert!(out.contains("dict:"), "v2 deltas carry a shared dictionary: {out}");

        let out = run(&argv(&["compact", &dir, "--window", "4"])).unwrap();
        assert!(out.contains("2 merge(s) superseding 8 delta(s)"), "{out}");
        assert!(out.contains("merge points:"), "{out}");

        // The merged chain restarts every iteration within tolerance.
        let out = run(&argv(&["verify", "--store", &dir])).unwrap();
        assert!(out.contains("PASS"), "{out}");

        // The inspector marks the merged spans.
        let out = run(&argv(&["chain", &dir])).unwrap();
        assert!(out.contains("delta merged"), "{out}");

        // A second pass has nothing left to do.
        let out = run(&argv(&["compact", &dir, "--window", "4"])).unwrap();
        assert!(out.contains("0 merge(s)"), "{out}");
    }

    #[test]
    fn chain_and_verify_flag_a_mixed_version_store() {
        use numarck_checkpoint::{CheckpointFile, CheckpointStore};
        let tmp = TempDir::new("mixed-version-cli");
        build_store(&tmp.0, 4);
        let dir = tmp.0.display().to_string();

        // Rewrite iteration 2's delta in the frozen v1 layout, as a
        // store written by an old deployment and partially upgraded.
        let store = CheckpointStore::open(&tmp.0).unwrap();
        let bytes = store.read_raw(2, false).unwrap();
        let file = CheckpointFile::from_bytes(&bytes).unwrap();
        store.write_raw(2, false, &file.to_bytes_v1()).unwrap();

        let out = run(&argv(&["chain", &dir])).unwrap();
        assert!(out.contains(" v1 "), "{out}");
        assert!(out.contains(" v2 "), "{out}");

        let out = run(&argv(&["verify", "--store", &dir])).unwrap();
        assert!(out.contains("PASS"), "mixed chains still restart: {out}");
        assert!(out.contains("container versions: v1 x1, v2 x3"), "{out}");
        assert!(out.contains("WARNING: mixed-version chain"), "{out}");

        // A uniform store verifies without the warning.
        let tmp2 = TempDir::new("uniform-version-cli");
        build_store(&tmp2.0, 3);
        let out = run(&argv(&["verify", "--store", &tmp2.0.display().to_string()])).unwrap();
        assert!(out.contains("container versions: v2 x3"), "{out}");
        assert!(!out.contains("WARNING"), "{out}");
    }

    #[test]
    fn compact_with_retention_gc_reports_removals() {
        let tmp = TempDir::new("compact-gc-cli");
        build_store(&tmp.0, 10);
        let dir = tmp.0.display().to_string();
        let out =
            run(&argv(&["compact", &dir, "--window", "4", "--keep-fulls", "1"])).unwrap();
        assert!(out.contains("gc:"), "{out}");
        assert!(out.contains("reclaimed"), "{out}");
    }

    #[test]
    fn gc_tuning_flags_require_keep_fulls() {
        let tmp = TempDir::new("compact-flags");
        build_store(&tmp.0, 4);
        let dir = tmp.0.display().to_string();
        let err = run(&argv(&["compact", &dir, "--keep-every", "4"])).unwrap_err();
        assert_eq!(err.code, exit_code::USAGE, "{err}");
    }

    #[test]
    fn chain_on_a_missing_store_is_missing() {
        let err = run(&argv(&["chain", "/nonexistent/numarck-chain-test"])).unwrap_err();
        assert_eq!(err.code, exit_code::MISSING, "{err}");
        let err = run(&argv(&["compact", "/nonexistent/numarck-chain-test"])).unwrap_err();
        assert_eq!(err.code, exit_code::MISSING, "{err}");
    }

    #[test]
    fn chain_on_an_empty_store_says_so() {
        let tmp = TempDir::new("chain-empty");
        let dir = tmp.0.display().to_string();
        let out = run(&argv(&["chain", &dir])).unwrap();
        assert!(out.contains("empty"), "{out}");
    }
}
