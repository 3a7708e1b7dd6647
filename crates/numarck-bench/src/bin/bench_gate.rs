//! `bench_gate` — throughput regression gate over the perf harness JSON.
//!
//! Compares a current `BENCH_encode.json`/`BENCH_decode.json` pair
//! against a committed baseline pair, row by row on the
//! `(workload, stage, threads)` key, and fails when any row's
//! calibrated `points_per_sec` drops more than the threshold (default
//! 15%) below the baseline's. Rows are only compared when both sides
//! measured the same `points` (a smoke run gated against a full-size
//! baseline would be noise, not signal).
//!
//! Calibrated means measured against the same run's `calibration` row:
//! `perf` times a fixed single-thread loop that no library change
//! touches right before every repetition of every other row, and
//! reports each row's `secs_per_calibration` (the median over rounds of
//! repetition time / adjacent calibration time). The quotient cancels
//! how fast the host was at that moment, and what is left moves only
//! when the code does; a row's calibrated throughput ratio is the
//! baseline's `secs_per_calibration` over the current one's. Both sides
//! must carry the field. Multi-thread rows are measured against the
//! single-thread loop too: a multi-thread reference loop tracked them
//! no better on a shared 2-core host, and it mis-scaled rows that run
//! mostly on one thread (the fit).
//!
//! `--current` may be given more than once, one directory per `perf`
//! run. Each row is then gated on its median `secs_per_calibration`
//! (and shown with its median `points_per_sec`) across those runs, so
//! one run that a noisy neighbour slowed down cannot fail the gate on
//! its own.
//!
//! Usage:
//!
//! ```text
//! bench_gate --baseline DIR --current DIR [--current DIR ...]
//!            [--out REPORT.json] [--threshold PCT]
//! ```
//!
//! Escape hatches:
//!
//! - `NUMARCK_BENCH_GATE=off` (or `skip`) — exit 0 without comparing;
//!   CI wires this to a PR label for known-noisy changes.
//! - A baseline row missing on the current side (or vice versa) is
//!   reported but never fails the gate: stages come and go.
//!
//! Exit codes: 0 = pass/skip, 1 = regression, 2 = usage or I/O error.
//! The JSON parsing is deliberately line-based and hand-rolled — the
//! harness writes one result object per line, and the workspace has no
//! JSON dependency.

use std::fmt::Write as _;

/// One parsed result row.
#[derive(Debug, Clone, PartialEq)]
struct Row {
    workload: String,
    stage: String,
    threads: u64,
    points: u64,
    points_per_sec: f64,
    /// Seconds per operation in units of the adjacent calibration loop.
    secs_per_calibration: Option<f64>,
}

/// Comparison outcome for one `(workload, stage, threads)` key.
struct Verdict {
    row: Row,
    baseline_pps: Option<f64>,
    status: &'static str,
    /// Calibrated current / baseline throughput.
    ratio: f64,
}

/// Stage name of the `perf` row every other row is measured against.
const CALIBRATION_STAGE: &str = "calibrate";

fn main() {
    std::process::exit(run());
}

fn run() -> i32 {
    let mut baseline_dir = None;
    let mut current_dirs: Vec<String> = Vec::new();
    let mut out_path = None;
    let mut threshold_pct = 15.0f64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--baseline" => baseline_dir = args.next(),
            "--current" => current_dirs.extend(args.next()),
            "--out" => out_path = args.next(),
            "--threshold" => {
                let Some(v) = args.next().and_then(|v| v.parse::<f64>().ok()) else {
                    eprintln!("--threshold needs a number (percent)");
                    return 2;
                };
                threshold_pct = v;
            }
            "--help" | "-h" => {
                eprintln!(
                    "bench_gate --baseline DIR --current DIR [--current DIR ...] \
                     [--out REPORT.json] [--threshold PCT]"
                );
                return 2;
            }
            other => {
                eprintln!("unknown argument: {other}");
                return 2;
            }
        }
    }
    let Some(baseline_dir) = baseline_dir.filter(|_| !current_dirs.is_empty()) else {
        eprintln!("bench_gate needs --baseline DIR and --current DIR");
        return 2;
    };

    let gate_env = std::env::var("NUMARCK_BENCH_GATE").unwrap_or_default();
    if matches!(gate_env.as_str(), "off" | "skip" | "0") {
        println!("bench_gate: skipped (NUMARCK_BENCH_GATE={gate_env})");
        return 0;
    }

    let baseline = match read_run(&baseline_dir) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("bench_gate: cannot read baseline {e}");
            return 2;
        }
    };
    let runs: Result<Vec<Vec<Row>>, String> = current_dirs.iter().map(|d| read_run(d)).collect();
    let current = match runs.and_then(|runs| median_rows(&runs)) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("bench_gate: cannot read current {e}");
            return 2;
        }
    };

    let allowed = 1.0 - threshold_pct / 100.0;
    let mut verdicts: Vec<Verdict> = Vec::new();
    for row in &current {
        let base = baseline.iter().find(|b| same_key(b, row));
        let v = match base {
            None => Verdict {
                row: row.clone(),
                baseline_pps: None,
                status: "new",
                ratio: f64::NAN,
            },
            Some(b) if b.points != row.points => Verdict {
                row: row.clone(),
                baseline_pps: Some(b.points_per_sec),
                status: "points-mismatch",
                ratio: f64::NAN,
            },
            Some(b) if row.stage == CALIBRATION_STAGE => Verdict {
                row: row.clone(),
                baseline_pps: Some(b.points_per_sec),
                status: "calibration",
                ratio: row.points_per_sec / b.points_per_sec,
            },
            Some(b) => {
                let (Some(cur), Some(base)) = (row.secs_per_calibration, b.secs_per_calibration)
                else {
                    eprintln!(
                        "bench_gate: {} {} {}t has no secs_per_calibration on both sides \
                         (refresh the baseline with the current perf harness)",
                        row.workload, row.stage, row.threads
                    );
                    return 2;
                };
                let ratio = base / cur;
                Verdict {
                    row: row.clone(),
                    baseline_pps: Some(b.points_per_sec),
                    status: if ratio >= allowed { "ok" } else { "regression" },
                    ratio,
                }
            }
        };
        verdicts.push(v);
    }
    // Baseline rows with no current counterpart: visible, non-fatal.
    for b in &baseline {
        let gone = !current.iter().any(|r| same_key(r, b));
        if gone {
            verdicts.push(Verdict {
                row: b.clone(),
                baseline_pps: Some(b.points_per_sec),
                status: "missing-in-current",
                ratio: f64::NAN,
            });
        }
    }

    let regressions = verdicts.iter().filter(|v| v.status == "regression").count();
    for v in &verdicts {
        let base = v.baseline_pps.map_or("-".to_string(), |p| format!("{:.0}", p));
        println!(
            "bench_gate: {:18} {:9} {}t  base {:>12}  cur {:>12.0}  calibrated ratio {:>5}  {}",
            v.row.workload,
            v.row.stage,
            v.row.threads,
            base,
            v.row.points_per_sec,
            if v.ratio.is_nan() { "-".to_string() } else { format!("{:.2}", v.ratio) },
            v.status,
        );
    }

    if let Some(out) = out_path {
        if let Err(e) = std::fs::write(&out, render_report(&verdicts, threshold_pct, regressions)) {
            eprintln!("bench_gate: cannot write report {out}: {e}");
            return 2;
        }
        println!("bench_gate: report written to {out}");
    }

    if regressions > 0 {
        eprintln!(
            "bench_gate: {regressions} row(s) regressed more than {threshold_pct}% \
             (set NUMARCK_BENCH_GATE=off to skip, or refresh the baseline if the \
             change is intentional)"
        );
        1
    } else {
        println!("bench_gate: pass ({} rows compared)", verdicts.len());
        0
    }
}

/// Whether two rows measure the same `(workload, stage, threads)`.
fn same_key(a: &Row, b: &Row) -> bool {
    a.workload == b.workload && a.stage == b.stage && a.threads == b.threads
}

/// The rows of one `perf` run: its encode and decode files together.
fn read_run(dir: &str) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for file in ["BENCH_encode.json", "BENCH_decode.json"] {
        rows.extend(read_rows(&format!("{dir}/{file}")).map_err(|e| format!("{dir}/{file}: {e}"))?);
    }
    Ok(rows)
}

/// Fold several runs into one row per key, in order of first
/// appearance: the median `points_per_sec` and `secs_per_calibration`
/// over the runs that measured the key (`None` when any of them lacks
/// the field). A single run folds to itself.
fn median_rows(runs: &[Vec<Row>]) -> Result<Vec<Row>, String> {
    let mut out: Vec<Row> = Vec::new();
    for row in runs.iter().flatten() {
        if out.iter().any(|r| same_key(r, row)) {
            continue;
        }
        let twins: Vec<&Row> = runs.iter().flatten().filter(|r| same_key(r, row)).collect();
        if twins.iter().any(|r| r.points != row.points) {
            return Err(format!(
                "runs disagree on the points of {} {} {}t",
                row.workload, row.stage, row.threads
            ));
        }
        let calibrated: Option<Vec<f64>> = twins.iter().map(|r| r.secs_per_calibration).collect();
        out.push(Row {
            points_per_sec: median(twins.iter().map(|r| r.points_per_sec).collect()),
            secs_per_calibration: calibrated.map(median),
            ..row.clone()
        });
    }
    Ok(out)
}

/// Median of a non-empty sample (the mean of the middle pair when even).
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// Extract the result rows from one harness JSON file. Line-based: the
/// harness writes one `{"workload": ...}` object per line inside the
/// `"results"` array; `"kernels"` rows have no `"workload"` key and are
/// skipped naturally.
fn read_rows(path: &str) -> Result<Vec<Row>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let mut rows = Vec::new();
    let mut in_results = false;
    for line in text.lines() {
        let t = line.trim();
        if t.starts_with("\"results\"") {
            in_results = true;
            continue;
        }
        if !in_results {
            continue;
        }
        if t.starts_with(']') {
            break;
        }
        let (Some(workload), Some(stage)) = (field_str(t, "workload"), field_str(t, "stage"))
        else {
            continue;
        };
        let (Some(threads), Some(points), Some(pps)) = (
            field_num(t, "threads"),
            field_num(t, "points"),
            field_num(t, "points_per_sec"),
        ) else {
            return Err(format!("malformed result row in {path}: {t}"));
        };
        rows.push(Row {
            workload,
            stage,
            threads: threads as u64,
            points: points as u64,
            points_per_sec: pps,
            secs_per_calibration: field_num(t, "secs_per_calibration"),
        });
    }
    if rows.is_empty() {
        return Err(format!("no result rows found in {path}"));
    }
    Ok(rows)
}

/// `"key": "value"` string field from a one-line JSON object.
fn field_str(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')?;
    Some(line[start..start + end].to_string())
}

/// `"key": 123.4` numeric field from a one-line JSON object.
fn field_num(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

fn render_report(verdicts: &[Verdict], threshold_pct: f64, regressions: usize) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"gate\": \"numarck-bench bench_gate\",");
    let _ = writeln!(s, "  \"threshold_pct\": {threshold_pct},");
    let _ = writeln!(s, "  \"calibrated\": true,");
    let _ = writeln!(s, "  \"regressions\": {regressions},");
    let _ = writeln!(s, "  \"pass\": {},", regressions == 0);
    let _ = writeln!(s, "  \"rows\": [");
    for (i, v) in verdicts.iter().enumerate() {
        let comma = if i + 1 == verdicts.len() { "" } else { "," };
        let base = v.baseline_pps.map_or("null".to_string(), |p| format!("{p:.1}"));
        let ratio =
            if v.ratio.is_nan() { "null".to_string() } else { format!("{:.4}", v.ratio) };
        let _ = writeln!(
            s,
            "    {{\"workload\": \"{}\", \"stage\": \"{}\", \"threads\": {}, \
             \"points\": {}, \"current_points_per_sec\": {:.1}, \
             \"baseline_points_per_sec\": {base}, \"ratio\": {ratio}, \
             \"status\": \"{}\"}}{comma}",
            v.row.workload, v.row.stage, v.row.threads, v.row.points, v.row.points_per_sec,
            v.status,
        );
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_extraction() {
        let line = "    {\"workload\": \"flash\", \"stage\": \"encode\", \"points\": 8192, \
                    \"threads\": 2, \"secs\": 0.001, \"points_per_sec\": 8192000.0}";
        assert_eq!(field_str(line, "workload").unwrap(), "flash");
        assert_eq!(field_str(line, "stage").unwrap(), "encode");
        assert_eq!(field_num(line, "points").unwrap(), 8192.0);
        assert_eq!(field_num(line, "threads").unwrap(), 2.0);
        assert_eq!(field_num(line, "points_per_sec").unwrap(), 8192000.0);
        assert_eq!(field_num(line, "missing"), None);
    }

    fn row(stage: &str, pps: f64, spc: Option<f64>) -> Row {
        Row {
            workload: "flash".into(),
            stage: stage.into(),
            threads: 2,
            points: 8192,
            points_per_sec: pps,
            secs_per_calibration: spc,
        }
    }

    #[test]
    fn runs_fold_to_per_row_medians() {
        let runs = vec![
            vec![row("encode", 10.0, Some(3.0)), row("decode", 40.0, Some(1.0))],
            vec![row("decode", 20.0, Some(9.0)), row("encode", 30.0, Some(1.0))],
            vec![row("encode", 20.0, Some(2.0)), row("decode", 30.0, None)],
        ];
        let folded = median_rows(&runs).unwrap();
        assert_eq!(folded.len(), 2);
        assert_eq!(folded[0], row("encode", 20.0, Some(2.0)));
        // One run without the field leaves the row uncalibrated.
        assert_eq!(folded[1], row("decode", 30.0, None));
        // A single run folds to itself; an even count averages the middle pair.
        assert_eq!(median_rows(&runs[..1]).unwrap(), runs[0]);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        // Runs of different sizes cannot be folded.
        let mut odd = runs.clone();
        odd[1][0].points = 4096;
        assert!(median_rows(&odd).is_err());
    }
}
