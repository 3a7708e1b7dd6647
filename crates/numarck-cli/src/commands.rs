//! The CLI commands.

use std::path::Path;

use numarck::metrics::{max_relative_error, mean_relative_error, pearson, rmse};
use numarck::{decode, Config, DeltaChain, ReferenceMode, Strategy};

use crate::args;
use crate::chainfile::ChainFile;
use crate::seqfile;
use crate::{CliError, CliResult};

pub(crate) fn parse_strategy(name: &str) -> Result<Strategy, String> {
    Strategy::all()
        .into_iter()
        .find(|s| s.name() == name)
        .ok_or_else(|| format!("unknown strategy '{name}' (equal-width|log-scale|clustering)"))
}

/// Argument-structure problems (unknown flag, missing value, wrong
/// positional count) exit with [`crate::exit_code::USAGE`].
pub(crate) fn parse_args(
    raw: &[String],
    value_flags: &[&str],
    switch_flags: &[&str],
) -> Result<args::Parsed, CliError> {
    args::parse(raw, value_flags, switch_flags).map_err(CliError::usage)
}

/// `numarck gen`: produce a `.f64s` sequence from one of the built-in
/// simulators.
pub fn gen(raw: &[String]) -> CliResult {
    let p = parse_args(raw, &["source", "iterations", "out", "grid", "seed"], &[])?;
    p.expect_positionals(0, "").map_err(CliError::usage)?;
    let source = p.require("source").map_err(CliError::usage)?;
    let iterations: usize = p.get_parsed("iterations", 10)?;
    let seed: u64 = p.get_parsed("seed", 42)?;
    let out = p.require("out").map_err(CliError::usage)?.to_string();
    if iterations == 0 {
        return Err("--iterations must be at least 1".into());
    }

    let seq: Vec<Vec<f64>> = match source.split_once(':') {
        Some(("climate", var_name)) => {
            let var = climate_sim::ClimateVar::from_name(var_name)
                .ok_or_else(|| format!("unknown climate variable '{var_name}'"))?;
            let grid = match p.get("grid") {
                None => climate_sim::Grid::cmip5(),
                Some(spec) => {
                    let (w, h) = spec
                        .split_once('x')
                        .ok_or_else(|| format!("--grid expects WxH, got '{spec}'"))?;
                    let w: usize = w.parse().map_err(|_| format!("bad grid width '{w}'"))?;
                    let h: usize = h.parse().map_err(|_| format!("bad grid height '{h}'"))?;
                    if w == 0 || h == 0 {
                        return Err("grid dimensions must be positive".into());
                    }
                    climate_sim::Grid::new(w, h)
                }
            };
            let mut model = climate_sim::ClimateModel::with_grid(var, grid, seed);
            let mut seq = vec![model.current().to_vec()];
            for _ in 1..iterations {
                seq.push(model.step().to_vec());
            }
            seq
        }
        Some(("flash", var_name)) => {
            let var = flash_sim::FlashVar::from_name(var_name)
                .ok_or_else(|| format!("unknown FLASH variable '{var_name}'"))?;
            let mut sim = flash_sim::FlashSimulation::paper_default(
                flash_sim::Problem::SedovBlast,
                4,
                4,
            );
            sim.run_steps(20);
            let mut seq = Vec::with_capacity(iterations);
            for i in 0..iterations {
                if i > 0 {
                    sim.run_steps(2);
                }
                let field = sim.checkpoint().remove(&var).ok_or_else(|| {
                    format!("FLASH checkpoint does not contain variable '{var_name}'")
                })?;
                seq.push(field);
            }
            seq
        }
        _ => {
            return Err(format!(
                "--source must be climate:<var> or flash:<var>, got '{source}'"
            )
            .into())
        }
    };
    seqfile::write(Path::new(&out), &seq)?;
    Ok(format!(
        "wrote {out}: {} iterations × {} points",
        seq.len(),
        seq.first().map(|v| v.len()).unwrap_or(0)
    ))
}

/// `numarck compress`: `.f64s` → `.nmkc`.
pub fn compress(raw: &[String]) -> CliResult {
    let p =
        parse_args(raw, &["out", "bits", "tolerance", "strategy"], &["closed-loop", "entropy"])?;
    let input = &p.expect_positionals(1, "input .f64s").map_err(CliError::usage)?[0];
    let out = p.require("out").map_err(CliError::usage)?.to_string();
    let bits: u8 = p.get_parsed("bits", 8)?;
    let tolerance: f64 = p.get_parsed("tolerance", 0.001)?;
    let strategy = parse_strategy(p.get("strategy").unwrap_or("clustering"))?;
    let mode = if p.has("closed-loop") {
        ReferenceMode::Reconstructed
    } else {
        ReferenceMode::TrueValues
    };

    let seq = seqfile::read(Path::new(input))?;
    if seq.is_empty() {
        return Err("input sequence is empty".into());
    }
    let config = Config::new(bits, tolerance, strategy).map_err(|e| e.to_string())?;
    let mut chain = DeltaChain::with_mode(seq[0].clone(), config, mode);
    let mut gamma_sum = 0.0;
    for it in &seq[1..] {
        let stats = chain.append(it).map_err(|e| e.to_string())?;
        gamma_sum += stats.incompressible_ratio;
    }
    let deltas = seq.len() - 1;
    let file = ChainFile {
        bits,
        tolerance,
        strategy,
        mode,
        base: chain.base().to_vec(),
        deltas: chain.deltas().to_vec(),
    };
    let encoding = if p.has("entropy") {
        numarck::serialize::IndexEncoding::Huffman
    } else {
        numarck::serialize::IndexEncoding::FixedWidth
    };
    file.save_with(Path::new(&out), encoding)?;
    let raw_bytes = seq.iter().map(|v| v.len() * 8).sum::<usize>();
    let stored = std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0) as usize;
    Ok(format!(
        "wrote {out}: base + {deltas} deltas, {:.2}% total compression (mean γ {:.2}%)",
        (1.0 - stored as f64 / raw_bytes as f64) * 100.0,
        if deltas > 0 { gamma_sum / deltas as f64 * 100.0 } else { 0.0 }
    ))
}

/// `numarck decompress`: `.nmkc` → `.f64s` (base + every reconstructed
/// iteration).
pub fn decompress(raw: &[String]) -> CliResult {
    let p = parse_args(raw, &["out"], &[])?;
    let input = &p.expect_positionals(1, "input .nmkc").map_err(CliError::usage)?[0];
    let out = p.require("out").map_err(CliError::usage)?.to_string();
    let chain = ChainFile::load(Path::new(input))?;
    let mut iterations = Vec::with_capacity(chain.deltas.len() + 1);
    let mut state = chain.base.clone();
    iterations.push(state.clone());
    for (i, delta) in chain.deltas.iter().enumerate() {
        state = decode::reconstruct(&state, delta)
            .map_err(|e| format!("delta {i}: {e}"))?;
        iterations.push(state.clone());
    }
    seqfile::write(Path::new(&out), &iterations)?;
    Ok(format!(
        "wrote {out}: {} iterations × {} points (reconstructed)",
        iterations.len(),
        chain.base.len()
    ))
}

/// `numarck inspect`: human-readable summary of a chain file.
pub fn inspect(raw: &[String]) -> CliResult {
    let p = parse_args(raw, &[], &[])?;
    let input = &p.expect_positionals(1, "input .nmkc").map_err(CliError::usage)?[0];
    let chain = ChainFile::load(Path::new(input))?;
    let mut out = String::new();
    out.push_str(&format!(
        "{input}: B = {} bits, E = {}, strategy = {}, mode = {:?}\n",
        chain.bits, chain.tolerance, chain.strategy, chain.mode
    ));
    out.push_str(&format!(
        "base: {} points ({} bytes raw); {} deltas ({} bytes total)\n",
        chain.base.len(),
        chain.base.len() * 8,
        chain.deltas.len(),
        chain.delta_bytes()
    ));
    for (i, d) in chain.deltas.iter().enumerate() {
        out.push_str(&format!(
            "  delta {:3}: γ {:6.3}%, table {:3} entries, Eq.3 ratio {:6.2}%\n",
            i + 1,
            d.incompressible_ratio() * 100.0,
            d.table.len(),
            d.compression_ratio_eq3() * 100.0
        ));
    }
    Ok(out)
}

/// `numarck anomaly-scan`: scan every transition of a sequence for
/// soft-error outliers.
pub fn anomaly_scan(raw: &[String]) -> CliResult {
    let p = parse_args(raw, &["fence-multiplier"], &[])?;
    let input = &p.expect_positionals(1, "input .f64s").map_err(CliError::usage)?[0];
    let fence: f64 = p.get_parsed("fence-multiplier", 3.0)?;
    let seq = seqfile::read(Path::new(input))?;
    if seq.len() < 2 {
        return Err("anomaly scan needs at least two iterations".into());
    }
    let config = numarck::anomaly::AnomalyConfig {
        fence_multiplier: fence,
        ..Default::default()
    };
    let mut out = String::new();
    let mut total = 0usize;
    for (i, w) in seq.windows(2).enumerate() {
        let report = numarck::anomaly::detect(&w[0], &w[1], &config)
            .map_err(|e| e.to_string())?;
        total += report.anomalies.len();
        if report.is_clean() {
            out.push_str(&format!("transition {i:3}: clean\n"));
        } else {
            out.push_str(&format!(
                "transition {i:3}: {} suspect point(s), fence [{:.4}, {:.4}]\n",
                report.anomalies.len(),
                report.fence_lo,
                report.fence_hi
            ));
            for a in report.anomalies.iter().take(5) {
                out.push_str(&format!(
                    "    point {:8}: ratio {:?}, score {:.1}\n",
                    a.index, a.ratio, a.score
                ));
            }
        }
    }
    out.push_str(&format!("total suspect points: {total}\n"));
    Ok(out)
}

/// `numarck drift`: print the change-distribution drift series of a
/// sequence (the signal the adaptive checkpoint policy consumes).
pub fn drift(raw: &[String]) -> CliResult {
    let p = parse_args(raw, &["tolerance", "cap"], &[])?;
    let input = &p.expect_positionals(1, "input .f64s").map_err(CliError::usage)?[0];
    let tolerance: f64 = p.get_parsed("tolerance", 0.001)?;
    let cap: f64 = p.get_parsed("cap", 0.5)?;
    let seq = seqfile::read(Path::new(input))?;
    if seq.len() < 3 {
        return Err("drift needs at least three iterations".into());
    }
    let mut tracker = numarck::drift::DriftTracker::new();
    let mut out = String::from("transition   L1      KL      EMD\n");
    for (i, w) in seq.windows(2).enumerate() {
        let dist =
            numarck::drift::ChangeDistribution::from_iterations(&w[0], &w[1], tolerance, cap)
                .map_err(|e| e.to_string())?;
        if let Some(report) = tracker.observe(dist) {
            out.push_str(&format!(
                "{:10}  {:.4}  {:.4}  {:.5}\n",
                i, report.l1, report.kl, report.emd
            ));
        }
    }
    Ok(out)
}

/// `numarck verify`: compare two sequences point-wise, or — with
/// `--store` — check every iteration of a checkpoint store for
/// restartability.
pub fn verify(raw: &[String]) -> CliResult {
    let p = parse_args(raw, &["tolerance", "store", "replicas"], &[])?;
    if let Some(dir) = p.get("store") {
        p.expect_positionals(0, "").map_err(CliError::usage)?;
        return verify_store(dir, replica_count(&p)?);
    }
    let pos = p.expect_positionals(2, "reference .f64s, candidate .f64s").map_err(CliError::usage)?;
    let tolerance: f64 = p.get_parsed("tolerance", 0.001)?;
    let a = seqfile::read(Path::new(&pos[0]))?;
    let b = seqfile::read(Path::new(&pos[1]))?;
    if a.len() != b.len() {
        return Err(CliError::corrupt(format!(
            "FAIL: iteration counts differ ({} vs {})",
            a.len(),
            b.len()
        )));
    }
    // Open-loop replay compounds: a step from x_{k-1} to x_k turns the
    // per-point ratio error |Δ'−Δ| ≤ E into a relative error of at most
    // E/|x_k/x_{k-1}|, and every later step multiplies it on. Each
    // point's budget at iteration i is ∏_{k≤i}(1 + E/|x_k/x_{k-1}|) − 1
    // over the reference sequence — infinite across a zero.
    let mut product = vec![1.0f64; a.first().map_or(0, Vec::len)];
    let mut report = String::new();
    let mut worst_overall = 0.0f64;
    let mut violation: Option<(usize, usize, f64, f64)> = None;
    for (i, (x, y)) in a.iter().zip(&b).enumerate() {
        if x.len() != y.len() {
            return Err(CliError::corrupt(format!("FAIL: iteration {i} lengths differ")));
        }
        if i > 0 {
            for ((p, &prev), &cur) in product.iter_mut().zip(&a[i - 1]).zip(x) {
                *p *= if prev != 0.0 && cur != 0.0 {
                    1.0 + tolerance / (cur / prev).abs()
                } else {
                    f64::INFINITY
                };
            }
        }
        for (j, ((&want, &got), &p)) in x.iter().zip(y).zip(&product).enumerate() {
            if want == 0.0 {
                continue;
            }
            let err = ((want - got) / want).abs();
            let budget = p - 1.0;
            // A NaN error is not within budget either.
            let within = err <= budget * (1.0 + 1e-9) + 1e-12;
            if !within && violation.is_none() {
                violation = Some((i, j, err, budget));
            }
        }
        let max = max_relative_error(x, y);
        let mean = mean_relative_error(x, y);
        worst_overall = worst_overall.max(max);
        report.push_str(&format!(
            "iteration {i:3}: max rel {:.3e}, mean rel {:.3e}, ρ {:.6}, ξ {:.6}\n",
            max,
            mean,
            pearson(x, y),
            rmse(x, y)
        ));
    }
    match violation {
        None => Ok(format!(
            "{report}PASS: worst relative error {worst_overall:.3e}, \
             every point within its chain budget"
        )),
        Some((i, j, err, budget)) => Err(CliError::corrupt(format!(
            "{report}FAIL: iteration {i} point {j}: relative error {err:.3e} \
             exceeds its chain budget {budget:.3e}"
        ))),
    }
}

/// `numarck verify --store`: restartability report for a checkpoint
/// store directory.
fn verify_store(dir: &str, replicas: usize) -> CliResult {
    let store = open_store(dir, replicas)?;
    let diagnosis = numarck_checkpoint::fault::diagnose_store(&store)
        .map_err(|e| format!("cannot scan {dir}: {e}"))?;
    if diagnosis.is_empty() {
        return Err(CliError::missing(format!("FAIL: {dir} contains no checkpoint files")));
    }
    let mut report = String::new();
    let mut broken = 0usize;
    // Tally container format versions alongside restartability: a chain
    // that mixes v1 and v2 files still restarts (the codec seam sniffs
    // per file), but it means an upgrade is half-finished — worth
    // flagging so the operator runs compaction to completion.
    let mut versions = std::collections::BTreeMap::<u16, usize>::new();
    for d in &diagnosis {
        let path = store.path_of(d.iteration, d.is_full);
        let ver = store
            .backend()
            .read_prefix(&path, numarck_checkpoint::format::HEADER_PREFIX_LEN)
            .ok()
            .and_then(|(prefix, _)| numarck_checkpoint::sniff_version(&prefix).ok());
        if let Some(v) = ver {
            *versions.entry(v).or_insert(0) += 1;
        }
        let ver = ver.map(|v| format!("v{v}")).unwrap_or_else(|| "v?".into());
        match &d.error {
            None => report.push_str(&format!(
                "iteration {:3} ({}, {ver}): restartable\n",
                d.iteration,
                kind_name(d.is_full)
            )),
            Some(err) => {
                broken += 1;
                report.push_str(&format!(
                    "iteration {:3} ({}, {ver}): BROKEN — {err}\n",
                    d.iteration,
                    kind_name(d.is_full)
                ));
            }
        }
    }
    let tally: Vec<String> = versions.iter().map(|(v, n)| format!("v{v} x{n}")).collect();
    report.push_str(&format!("container versions: {}\n", tally.join(", ")));
    if versions.len() > 1 {
        report.push_str(
            "WARNING: mixed-version chain — old files stay readable forever, but \
             'numarck compact' rewrites merged windows in the current format\n",
        );
    }
    if broken == 0 {
        Ok(format!("{report}PASS: all {} iteration(s) restartable", diagnosis.len()))
    } else {
        Err(CliError::corrupt(format!(
            "{report}FAIL: {broken} of {} iteration(s) not restartable (try 'numarck scrub' then 'numarck repair')",
            diagnosis.len()
        )))
    }
}

fn kind_name(is_full: bool) -> &'static str {
    if is_full {
        "full"
    } else {
        "delta"
    }
}

/// `--replicas N` for the local store commands; `1` (the default) is
/// the single-copy layout.
pub(crate) fn replica_count(p: &crate::args::Parsed) -> Result<usize, CliError> {
    let n: usize = p.get_parsed("replicas", 1)?;
    if n == 0 {
        return Err(CliError::usage("--replicas must be at least 1"));
    }
    Ok(n)
}

/// Open `dir` as a checkpoint store. With `replicas > 1` the store is
/// N-way replicated under `dir/@replica-{i}` with a majority write
/// quorum — the layout `ReplicatedBackend` lays down — and scrub
/// cross-compares the copies with read-repair.
pub(crate) fn open_store(
    dir: &str,
    replicas: usize,
) -> Result<numarck_checkpoint::CheckpointStore, CliError> {
    if !Path::new(dir).is_dir() {
        return Err(CliError::missing(format!("store directory '{dir}' does not exist")));
    }
    if replicas > 1 {
        let backend = numarck_checkpoint::ReplicatedBackend::with_fs_replicas(
            Path::new(dir),
            replicas,
            replicas / 2 + 1,
        )
        .map_err(|e| format!("cannot open {replicas} replicas under {dir}: {e}"))?;
        numarck_checkpoint::CheckpointStore::open_with(dir, std::sync::Arc::new(backend))
            .map_err(|e| format!("cannot open {dir}: {e}").into())
    } else {
        numarck_checkpoint::CheckpointStore::open(dir)
            .map_err(|e| format!("cannot open {dir}: {e}").into())
    }
}

/// Render the cross-replica half of a scrub report, when there is one.
fn replica_summary(report: &numarck_checkpoint::ScrubReport) -> String {
    match &report.replicas {
        Some(r) => format!(
            "replicas: {} file(s) cross-compared, {} read-repair(s), {} quorum failure(s)\n",
            r.files_compared, r.repaired, r.quorum_failures
        ),
        None => String::new(),
    }
}

/// `numarck scrub`: CRC-verify every file of a checkpoint store, moving
/// damaged ones to its `quarantine/` directory.
pub fn scrub(raw: &[String]) -> CliResult {
    let p = parse_args(raw, &["replicas"], &[])?;
    let dir = &p.expect_positionals(1, "checkpoint store directory").map_err(CliError::usage)?[0];
    let store = open_store(dir, replica_count(&p)?)?;
    let report = numarck_checkpoint::scrub(&store).map_err(|e| e.to_string())?;
    let mut out = format!("scrubbed {dir}: {} file(s) checked\n", report.checked);
    out.push_str(&replica_summary(&report));
    for f in &report.quarantined {
        out.push_str(&format!(
            "quarantined iteration {} ({}): {} -> {}\n",
            f.entry.iteration,
            kind_name(f.entry.is_full),
            f.reason,
            f.quarantined_to.display()
        ));
    }
    if report.is_clean() {
        out.push_str("clean: no damage found\n");
        Ok(out)
    } else {
        out.push_str(&format!(
            "{} file(s) quarantined; run 'numarck repair {dir}' to re-anchor the chain\n",
            report.quarantined.len()
        ));
        // Damage found (and set aside) is a distinct, scriptable outcome.
        Err(CliError::quarantined(out))
    }
}

/// `numarck repair`: scrub, quarantine orphaned chain segments, and
/// re-anchor the store with a fresh full checkpoint at the newest
/// restartable iteration.
pub fn repair(raw: &[String]) -> CliResult {
    let p = parse_args(raw, &["replicas"], &[])?;
    let dir = &p.expect_positionals(1, "checkpoint store directory").map_err(CliError::usage)?[0];
    let store = open_store(dir, replica_count(&p)?)?;
    let report = numarck_checkpoint::repair(&store).map_err(|e| e.to_string())?;
    let mut out = format!(
        "repaired {dir}: {} file(s) checked, {} quarantined by scrub\n",
        report.scrub.checked,
        report.scrub.quarantined.len()
    );
    out.push_str(&replica_summary(&report.scrub));
    for l in &report.lost {
        out.push_str(&format!("lost iteration {}: {}\n", l.iteration, l.reason));
    }
    match report.anchored_at {
        Some(anchor) if report.wrote_full => out.push_str(&format!(
            "re-anchored: fresh full checkpoint materialized at iteration {anchor}\n"
        )),
        Some(anchor) => {
            out.push_str(&format!("anchor intact: full checkpoint at iteration {anchor}\n"))
        }
        None => {
            return Err(CliError::missing(format!(
                "{out}FAIL: no restartable iteration remains in {dir}"
            )))
        }
    }
    Ok(out)
}
