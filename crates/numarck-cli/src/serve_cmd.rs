//! The `numarck serve` and `numarck client` subcommands: a thin CLI
//! front-end over the [`numarck_serve`] service crate.
//!
//! `serve` runs the checkpoint server in the foreground until it drains
//! (SIGTERM/SIGINT or a client `shutdown`). `client` speaks the wire
//! protocol for scripting: ingest a `.f64s` sequence, replay every
//! stored iteration back out for byte-comparison, single restarts,
//! stats, scrub/repair, and graceful shutdown.

use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use numarck_checkpoint::{FaultSchedule, FaultyBackend, ReplicatedBackend, VariableSet};
use numarck_compact::{CompactionConfig, CostModel};
use numarck_obs::{render_json, render_prometheus, MetricsServer};
use numarck_serve::{
    install_signal_handlers, Client, ClientError, ErrorCode, Server, ServerConfig,
};

use crate::commands::{parse_args, parse_strategy};
use crate::seqfile;
use crate::{CliError, CliResult};

/// Default request timeout for CLI client calls.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);
/// `Busy` retry schedule for `client ingest`.
const BUSY_ATTEMPTS: u32 = 10;
const BUSY_BACKOFF: Duration = Duration::from_millis(50);

/// Map a client-library failure onto the CLI's exit-code classes:
/// backpressure → [`crate::exit_code::BUSY`], absent session/data →
/// [`crate::exit_code::MISSING`], everything else generic.
fn map_client_err(e: ClientError) -> CliError {
    match e {
        ClientError::Busy => CliError::busy(e.to_string()),
        ClientError::Server { code: ErrorCode::NotFound | ErrorCode::UnknownSession, message } => {
            CliError::missing(format!("server: {message}"))
        }
        other => other.to_string().into(),
    }
}

/// `numarck serve`: run the checkpoint service until it drains.
pub fn serve(raw: &[String]) -> CliResult {
    let p = parse_args(
        raw,
        &[
            "root",
            "addr",
            "workers",
            "queue",
            "bits",
            "tolerance",
            "strategy",
            "full-interval",
            "metrics-addr",
            "replicas",
            "die-after-ops",
            "compact-interval-secs",
            "compact-window",
            "restart-slo-ms",
            "gc-keep-fulls",
            "gc-keep-every",
            "gc-min-age-secs",
        ],
        &[],
    )?;
    p.expect_positionals(0, "").map_err(CliError::usage)?;
    let root = p.require("root").map_err(CliError::usage)?.to_string();
    let addr = p.get("addr").unwrap_or("127.0.0.1:0").to_string();
    let metrics_addr = p.get("metrics-addr").map(str::to_string);
    let bits: u8 = p.get_parsed("bits", 8)?;
    let tolerance: f64 = p.get_parsed("tolerance", 0.001)?;
    let strategy = parse_strategy(p.get("strategy").unwrap_or("clustering"))?;
    let compression = numarck::Config::new(bits, tolerance, strategy).map_err(|e| e.to_string())?;

    let mut config = ServerConfig::new(&root, compression);
    config.workers = p.get_parsed("workers", config.workers)?;
    config.queue_depth = p.get_parsed("queue", config.queue_depth)?;
    config.full_interval = p.get_parsed("full-interval", config.full_interval)?;
    if config.workers == 0 || config.queue_depth == 0 {
        return Err("--workers and --queue must be at least 1".into());
    }
    if config.full_interval == 0 {
        return Err("--full-interval must be at least 1".into());
    }

    // Background maintenance: any compaction flag switches the worker
    // on; `--compact-interval-secs` alone also does, with the policy
    // defaults (merge window 4, no SLO, GC off).
    let maintenance_flags =
        ["compact-interval-secs", "compact-window", "restart-slo-ms", "gc-keep-fulls"];
    if maintenance_flags.iter().any(|f| p.get(f).is_some()) {
        let defaults = CompactionConfig::default();
        let slo_ms: u64 = p.get_parsed("restart-slo-ms", 0)?;
        let keep_last_fulls: usize = p.get_parsed("gc-keep-fulls", 0)?;
        if keep_last_fulls == 0
            && (p.get("gc-keep-every").is_some() || p.get("gc-min-age-secs").is_some())
        {
            return Err(CliError::usage(
                "--gc-keep-every/--gc-min-age-secs tune retention GC, which only runs \
                 with --gc-keep-fulls N (N >= 1)",
            ));
        }
        config.compaction = Some(CompactionConfig {
            merge_window: p.get_parsed("compact-window", defaults.merge_window)?,
            restart_slo_ns: (slo_ms > 0).then(|| slo_ms.saturating_mul(1_000_000)),
            keep_last_fulls,
            keep_every: p.get_parsed("gc-keep-every", 0)?,
            min_age_secs: p.get_parsed("gc-min-age-secs", 0)?,
            cost: CostModel::default(),
        });
        let interval: u64 = p.get_parsed("compact-interval-secs", 60)?;
        if interval == 0 {
            return Err("--compact-interval-secs must be at least 1".into());
        }
        config.compact_interval = Duration::from_secs(interval);
    } else if p.get("gc-keep-every").is_some() || p.get("gc-min-age-secs").is_some() {
        return Err(CliError::usage(
            "--gc-keep-every/--gc-min-age-secs require --gc-keep-fulls N (N >= 1)",
        ));
    }

    // `--replicas N` (N >= 2): store every session N-way under
    // `root/@replica-{i}`, acknowledging writes at a majority quorum.
    // N = 1 is the default single-copy layout.
    let replicas: usize = p.get_parsed("replicas", 1)?;
    if replicas == 0 {
        return Err("--replicas must be at least 1".into());
    }
    let quorum = replicas / 2 + 1;
    if replicas > 1 {
        let backend = ReplicatedBackend::with_fs_replicas(Path::new(&root), replicas, quorum)
            .map_err(|e| format!("cannot set up {replicas} replicas under {root}: {e}"))?;
        config.backend = Arc::new(backend);
    }
    // `--die-after-ops K`: fail-stop self-destruct for crash-injection
    // testing — the process aborts (as if SIGKILLed) at the entry of
    // storage operation K+1. Composes with `--replicas`.
    if p.get("die-after-ops").is_some() {
        let ops: u64 = p.get_parsed("die-after-ops", 0)?;
        config.backend = Arc::new(FaultyBackend::wrapping(
            Arc::clone(&config.backend),
            FaultSchedule::new().die_after_ops(ops),
        ));
    }

    install_signal_handlers();
    let handle = Server::spawn(&addr, config).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    // Scripts (and the CI smoke job) wait for these exact lines to learn
    // the ephemeral ports, so they must land before we block in join().
    println!("listening on {}", handle.addr());
    if replicas > 1 {
        println!("replicating {replicas} ways (write quorum {quorum})");
    }
    let metrics = match metrics_addr {
        Some(maddr) => {
            let server = MetricsServer::start(&maddr as &str, handle.metrics_source())
                .map_err(|e| format!("cannot bind metrics listener {maddr}: {e}"))?;
            println!("metrics on http://{}/metrics", server.local_addr());
            Some(server)
        }
        None => None,
    };
    let _ = std::io::stdout().flush();
    handle.join();
    if let Some(metrics) = metrics {
        metrics.shutdown();
    }
    Ok("server drained and exited".to_string())
}

/// `numarck client <ingest|replay|restart|stats|scrub|shutdown>`.
pub fn client(raw: &[String]) -> CliResult {
    let Some((sub, rest)) = raw.split_first() else {
        return Err(CliError::usage(
            "client needs a subcommand: ingest|replay|restart|stats|scrub|shutdown",
        ));
    };
    match sub.as_str() {
        "ingest" => ingest(rest),
        "replay" => replay(rest),
        "restart" => restart(rest),
        "stats" => stats(rest),
        "scrub" => scrub(rest),
        "shutdown" => shutdown(rest),
        other => Err(CliError::usage(format!(
            "unknown client subcommand '{other}' (ingest|replay|restart|stats|scrub|shutdown)"
        ))),
    }
}

/// The server address: `--addr`, or its synonym `--via-router` (same
/// wire protocol either way; the flag just names the gateway intent in
/// scripts). Giving both is a usage error to catch confused scripts.
fn require_addr(p: &crate::args::Parsed) -> Result<String, CliError> {
    match (p.get("addr"), p.get("via-router")) {
        (Some(_), Some(_)) => {
            Err(CliError::usage("--addr and --via-router are synonyms; give exactly one"))
        }
        (Some(a), None) | (None, Some(a)) => Ok(a.to_string()),
        (None, None) => Err(CliError::usage("missing required flag --addr (or --via-router)")),
    }
}

fn connect(addr: &str) -> Result<Client, CliError> {
    Client::connect(addr, CLIENT_TIMEOUT).map_err(map_client_err)
}

fn open(client: &mut Client, session: &str) -> Result<u64, CliError> {
    client.open_session(session).map_err(map_client_err)
}

/// Pick the variable to flatten into a `.f64s` file: `--var NAME` if
/// given, otherwise the set must contain exactly one variable.
fn pick_var<'a>(vars: &'a VariableSet, want: Option<&str>) -> Result<&'a Vec<f64>, CliError> {
    match want {
        Some(name) => vars
            .get(name)
            .ok_or_else(|| CliError::missing(format!("variable '{name}' not in session"))),
        None if vars.len() == 1 => Ok(vars.values().next().expect("len checked")),
        None => Err(format!(
            "session holds {} variables ({}); pick one with --var",
            vars.len(),
            vars.keys().cloned().collect::<Vec<_>>().join(", ")
        )
        .into()),
    }
}

/// `client ingest`: stream a `.f64s` sequence into a session, one
/// iteration per checkpoint, retrying `Busy` rejections with backoff.
fn ingest(raw: &[String]) -> CliResult {
    let p = parse_args(raw, &["addr", "via-router", "session", "var"], &[])?;
    let input = &p.expect_positionals(1, "input .f64s").map_err(CliError::usage)?[0];
    let addr = require_addr(&p)?;
    let session_name = p.require("session").map_err(CliError::usage)?;
    let var = p.get("var").unwrap_or("data").to_string();

    let seq = seqfile::read(Path::new(input))?;
    if seq.is_empty() {
        return Err("input sequence is empty".into());
    }
    let (mut client, session) =
        Client::connect_session(&addr as &str, CLIENT_TIMEOUT, session_name, BUSY_ATTEMPTS, BUSY_BACKOFF)
            .map_err(map_client_err)?;
    let mut out = String::new();
    let mut retries = 0u32;
    for (it, values) in seq.iter().enumerate() {
        let mut vars = VariableSet::new();
        vars.insert(var.clone(), values.clone());
        let outcome = client.put_iteration(session, it as u64, &vars).map_err(map_client_err)?;
        retries += outcome.retries;
        out.push_str(&format!("iteration {it:3}: {:?}\n", outcome.kind));
    }
    out.push_str(&format!(
        "ingested {} iteration(s) × {} points into '{session_name}' ({retries} storage retries)\n",
        seq.len(),
        seq[0].len()
    ));
    Ok(out)
}

/// The newest restartable iteration of `session_name`, from server
/// stats. `MISSING` when the session holds nothing restartable.
fn latest_restartable(client: &mut Client, session_name: &str) -> Result<u64, CliError> {
    let stats = client.stats().map_err(map_client_err)?;
    stats
        .sessions
        .iter()
        .find(|s| s.name == session_name)
        .and_then(|s| s.latest_restartable)
        .ok_or_else(|| {
            CliError::missing(format!("session '{session_name}' has no restartable iteration"))
        })
}

/// `client replay`: restart *every* iteration `0..=latest` and write the
/// reconstructed states as a `.f64s` sequence — the service-side twin of
/// `numarck decompress`, so CI can byte-compare the two.
fn replay(raw: &[String]) -> CliResult {
    let p = parse_args(raw, &["addr", "via-router", "session", "out", "var"], &[])?;
    p.expect_positionals(0, "").map_err(CliError::usage)?;
    let addr = require_addr(&p)?;
    let session_name = p.require("session").map_err(CliError::usage)?;
    let out_path = p.require("out").map_err(CliError::usage)?.to_string();
    let var = p.get("var");

    let mut client = connect(&addr)?;
    let session = open(&mut client, session_name)?;
    let latest = latest_restartable(&mut client, session_name)?;
    let mut seq = Vec::with_capacity(latest as usize + 1);
    for it in 0..=latest {
        let reply = client.restart(session, it).map_err(map_client_err)?;
        if reply.achieved != it {
            return Err(CliError::corrupt(format!(
                "iteration {it} is not restartable (recovered {} instead)",
                reply.achieved
            )));
        }
        seq.push(pick_var(&reply.vars, var)?.clone());
    }
    seqfile::write(Path::new(&out_path), &seq)?;
    Ok(format!(
        "wrote {out_path}: {} iterations × {} points (replayed from '{session_name}')",
        seq.len(),
        seq.first().map(|v| v.len()).unwrap_or(0)
    ))
}

/// `client restart`: recover one state (newest, or `--at N`) and
/// optionally write it as a single-iteration `.f64s`.
fn restart(raw: &[String]) -> CliResult {
    let p = parse_args(raw, &["addr", "via-router", "session", "at", "out", "var"], &[])?;
    p.expect_positionals(0, "").map_err(CliError::usage)?;
    let addr = require_addr(&p)?;
    let session_name = p.require("session").map_err(CliError::usage)?;

    let mut client = connect(&addr)?;
    let session = open(&mut client, session_name)?;
    let target: u64 = match p.get("at") {
        Some(_) => p.get_parsed("at", 0)?,
        None => latest_restartable(&mut client, session_name)?,
    };
    let reply = client.restart(session, target).map_err(map_client_err)?;
    let mut out = format!(
        "restarted '{session_name}' at iteration {} (asked {target}): full {} + {} delta(s), {} lost\n",
        reply.achieved, reply.base, reply.deltas_applied, reply.lost
    );
    if let Some(out_path) = p.get("out") {
        let values = pick_var(&reply.vars, p.get("var"))?;
        seqfile::write(Path::new(out_path), std::slice::from_ref(values))?;
        out.push_str(&format!("wrote {out_path}: 1 iteration × {} points\n", values.len()));
    }
    Ok(out)
}

/// `numarck stats` / `numarck client stats`: server counters and
/// per-session summaries, human-readable by default, or rendered as
/// Prometheus text (`--prometheus`) / JSON (`--json`) for scrapers.
pub fn stats(raw: &[String]) -> CliResult {
    let p = parse_args(raw, &["addr", "via-router"], &["prometheus", "json"])?;
    p.expect_positionals(0, "").map_err(CliError::usage)?;
    if p.has("prometheus") && p.has("json") {
        return Err(CliError::usage("--prometheus and --json are mutually exclusive"));
    }
    let mut client = connect(&require_addr(&p)?)?;
    let s = client.stats().map_err(map_client_err)?;
    if p.has("prometheus") {
        return Ok(render_prometheus(&s.metrics()));
    }
    if p.has("json") {
        return Ok(render_json(&s.metrics()));
    }
    let mut out = format!(
        "accepted {} · served {} · busy-rejected {} · draining {}\n\
         ingested {} iteration(s), {} byte(s), {} storage retrie(s)\n",
        s.accepted, s.served, s.busy_rejected, s.draining,
        s.iterations_ingested, s.bytes_ingested, s.write_retries,
    );
    for (name, v) in &s.counters {
        if *v != 0 {
            out.push_str(&format!("{name} {v}\n"));
        }
    }
    for (name, v) in &s.gauges {
        if *v != 0 {
            out.push_str(&format!("{name} {v}\n"));
        }
    }
    for lat in &s.latencies {
        if lat.summary.count == 0 {
            continue;
        }
        out.push_str(&format!(
            "{}: {} sample(s), p50 {} p90 {} p99 {}\n",
            lat.name, lat.summary.count, lat.summary.p50, lat.summary.p90, lat.summary.p99
        ));
    }
    for sess in &s.sessions {
        out.push_str(&format!(
            "session {:3} '{}': {} file(s), latest restartable {}\n",
            sess.id,
            sess.name,
            sess.files,
            sess.latest_restartable.map_or("none".to_string(), |it| it.to_string())
        ));
    }
    Ok(out)
}

/// `client scrub`: CRC-sweep a session's store server-side; `--repair`
/// additionally re-anchors the chain. Mirrors the local `numarck scrub`
/// exit-code contract: damage quarantined without repair exits
/// [`crate::exit_code::QUARANTINED`].
fn scrub(raw: &[String]) -> CliResult {
    let p = parse_args(raw, &["addr", "via-router", "session"], &["repair"])?;
    p.expect_positionals(0, "").map_err(CliError::usage)?;
    let addr = require_addr(&p)?;
    let session_name = p.require("session").map_err(CliError::usage)?;
    let repair = p.has("repair");

    let mut client = connect(&addr)?;
    let session = open(&mut client, session_name)?;
    let reply = client.scrub(session, repair).map_err(map_client_err)?;
    let mut out = format!(
        "scrubbed '{session_name}': {} file(s) checked, {} quarantined\n",
        reply.checked, reply.quarantined
    );
    if repair {
        match reply.anchored_at {
            Some(anchor) => out.push_str(&format!(
                "re-anchored at iteration {anchor} ({} intact iteration(s) lost)\n",
                reply.lost
            )),
            None => {
                return Err(CliError::missing(format!(
                    "{out}FAIL: no restartable iteration remains in '{session_name}'"
                )))
            }
        }
        Ok(out)
    } else if reply.quarantined > 0 {
        out.push_str("run with --repair to re-anchor the chain\n");
        Err(CliError::quarantined(out))
    } else {
        out.push_str("clean: no damage found\n");
        Ok(out)
    }
}

/// `client shutdown`: ask the server to drain and exit.
fn shutdown(raw: &[String]) -> CliResult {
    let p = parse_args(raw, &["addr", "via-router"], &[])?;
    p.expect_positionals(0, "").map_err(CliError::usage)?;
    let mut client = connect(&require_addr(&p)?)?;
    client.shutdown().map_err(map_client_err)?;
    Ok("server is draining".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{argv, TempDir};
    use crate::{exit_code, run};
    use std::thread;

    /// Spawn a real server on an ephemeral port for CLI-level tests.
    fn spawn_server(root: &std::path::Path) -> numarck_serve::ServerHandle {
        let config = ServerConfig::new(
            root,
            numarck::Config::new(8, 0.001, numarck::Strategy::Clustering).unwrap(),
        );
        Server::spawn("127.0.0.1:0", config).unwrap()
    }

    #[test]
    fn cli_ingest_replay_roundtrip_is_byte_identical() {
        let tmp = TempDir::new("cli-serve");
        let data = tmp.path("data.f64s");
        let replayed = tmp.path("replayed.f64s");
        run(&argv(&[
            "gen", "--source", "climate:rlus", "--iterations", "6", "--grid", "16x12",
            "--out", &data,
        ]))
        .unwrap();

        let handle = spawn_server(&tmp.0.join("root"));
        let addr = handle.addr().to_string();

        let out = run(&argv(&[
            "client", "ingest", "--addr", &addr, "--session", "demo", &data,
        ]))
        .unwrap();
        assert!(out.contains("ingested 6 iteration(s)"), "{out}");

        let out = run(&argv(&[
            "client", "stats", "--addr", &addr,
        ]))
        .unwrap();
        assert!(out.contains("session"), "{out}");
        assert!(out.contains("latest restartable 5"), "{out}");

        let out = run(&argv(&[
            "client", "replay", "--addr", &addr, "--session", "demo", "--out", &replayed,
        ]))
        .unwrap();
        assert!(out.contains("6 iterations"), "{out}");

        // Replay must reproduce the service's lossy-but-deterministic
        // reconstruction; verify against the original within tolerance.
        let out = run(&argv(&["verify", &data, &replayed, "--tolerance", "0.001"])).unwrap();
        assert!(out.contains("PASS"), "{out}");

        // Scrub of a clean session succeeds.
        let out = run(&argv(&[
            "client", "scrub", "--addr", &addr, "--session", "demo",
        ]))
        .unwrap();
        assert!(out.contains("clean"), "{out}");

        // Unknown sessions map to the MISSING exit code.
        let err = run(&argv(&[
            "client", "replay", "--addr", &addr, "--session", "nope", "--out", &replayed,
        ]))
        .unwrap_err();
        assert_eq!(err.code, exit_code::MISSING, "{err}");

        // Graceful shutdown via the CLI; the server must drain.
        let out =
            run(&argv(&["client", "shutdown", "--addr", &addr])).unwrap();
        assert!(out.contains("draining"), "{out}");
        handle.join();
    }

    #[test]
    fn serve_command_runs_until_client_shutdown() {
        let tmp = TempDir::new("cli-serve-fg");
        let root = tmp.path("root");
        // `serve` blocks until drained, so drive it from a thread and
        // shut it down over the wire. It binds an ephemeral port and
        // prints it to stdout, which a test cannot capture — so give it
        // a fixed-but-unlikely port instead of parsing stdout.
        let addr = "127.0.0.1:47917";
        let serve_args = argv(&[
            "serve", "--root", &root, "--addr", addr, "--workers", "2", "--queue", "4",
        ]);
        let server = thread::spawn(move || run(&serve_args));
        // Wait for the listener.
        let mut client = None;
        for _ in 0..100 {
            match Client::connect(addr, Duration::from_millis(200)) {
                Ok(c) => {
                    client = Some(c);
                    break;
                }
                Err(_) => thread::sleep(Duration::from_millis(20)),
            }
        }
        let mut client = client.expect("serve must come up");
        let session = client.open_session("fg").unwrap();
        let mut vars = VariableSet::new();
        vars.insert("x".into(), vec![1.0, 2.0, 3.0]);
        client.put_iteration(session, 0, &vars).unwrap();
        client.shutdown().unwrap();
        let out = server.join().unwrap().unwrap();
        assert!(out.contains("drained"), "{out}");
    }

    #[test]
    fn stats_renders_prometheus_and_json() {
        let tmp = TempDir::new("cli-stats-fmt");
        let handle = spawn_server(&tmp.0.join("root"));
        let addr = handle.addr().to_string();
        // Some traffic first, so counters and latencies are non-zero.
        let mut client = Client::connect(&addr as &str, CLIENT_TIMEOUT).unwrap();
        let session = client.open_session("fmt").unwrap();
        let mut vars = VariableSet::new();
        vars.insert("x".into(), vec![1.0, 2.0, 3.0]);
        client.put_iteration(session, 0, &vars).unwrap();

        let out = run(&argv(&["stats", "--addr", &addr, "--prometheus"])).unwrap();
        assert!(out.contains("# TYPE nsrv_accepted_total counter"), "{out}");
        assert!(out.contains("nsrv_iterations_ingested_total 1"), "{out}");
        assert!(out.contains("nsrv_request_put_ns{quantile=\"0.5\"}"), "{out}");
        assert!(out.contains("# TYPE nsrv_queue_depth gauge"), "{out}");

        let out = run(&argv(&["stats", "--addr", &addr, "--json"])).unwrap();
        assert!(out.contains("\"nsrv_iterations_ingested_total\":1"), "{out}");
        assert!(out.contains("\"nsrv_request_put_ns\":{\"count\":1"), "{out}");

        // The human-readable default mentions observed latencies too.
        let out = run(&argv(&["stats", "--addr", &addr])).unwrap();
        assert!(out.contains("nsrv_request_put_ns: 1 sample(s)"), "{out}");

        // The two machine formats are mutually exclusive.
        let err =
            run(&argv(&["stats", "--addr", &addr, "--prometheus", "--json"])).unwrap_err();
        assert_eq!(err.code, exit_code::USAGE, "{err}");
        handle.shutdown();
    }

    fn http_get(addr: &str, path: &str) -> std::io::Result<String> {
        use std::io::Read as _;
        let mut stream = std::net::TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")?;
        let mut buf = String::new();
        stream.read_to_string(&mut buf)?;
        Ok(buf)
    }

    #[test]
    fn serve_metrics_listener_exposes_merged_prometheus_text() {
        let tmp = TempDir::new("cli-serve-metrics");
        let root = tmp.path("root");
        let addr = "127.0.0.1:47919";
        let maddr = "127.0.0.1:47921";
        let serve_args = argv(&[
            "serve", "--root", &root, "--addr", addr, "--metrics-addr", maddr,
        ]);
        let server = thread::spawn(move || run(&serve_args));
        let mut client = None;
        for _ in 0..100 {
            match Client::connect(addr, Duration::from_millis(200)) {
                Ok(c) => {
                    client = Some(c);
                    break;
                }
                Err(_) => thread::sleep(Duration::from_millis(20)),
            }
        }
        let mut client = client.expect("serve must come up");
        let session = client.open_session("m").unwrap();
        let mut vars = VariableSet::new();
        vars.insert("x".into(), vec![1.0, 2.0, 3.0]);
        client.put_iteration(session, 0, &vars).unwrap();

        // The metrics listener binds just after the main listener; give
        // it the same grace.
        let mut body = None;
        for _ in 0..100 {
            match http_get(maddr, "/metrics") {
                Ok(b) => {
                    body = Some(b);
                    break;
                }
                Err(_) => thread::sleep(Duration::from_millis(20)),
            }
        }
        let body = body.expect("metrics listener must come up");
        assert!(body.contains("200 OK"), "{body}");
        assert!(body.contains("# TYPE nsrv_iterations_ingested_total counter"), "{body}");
        assert!(body.contains("nsrv_iterations_ingested_total 1"), "{body}");
        // The merge brings in process-global checkpoint instruments.
        assert!(body.contains("ckpt_write_attempts_total"), "{body}");

        client.shutdown().unwrap();
        let out = server.join().unwrap().unwrap();
        assert!(out.contains("drained"), "{out}");
    }

    /// `serve --replicas 3` stores sessions 3-way and survives losing a
    /// replica: after deleting one replica's copy of a checkpoint, every
    /// iteration still replays, and a server-side scrub read-repairs the
    /// lost copy (visible in the reply and in stats).
    #[test]
    fn serve_with_replicas_survives_a_lost_replica_copy() {
        let tmp = TempDir::new("cli-serve-replicas");
        let root = tmp.path("root");
        let addr = "127.0.0.1:47923";
        let serve_args = argv(&[
            "serve", "--root", &root, "--addr", addr, "--replicas", "3",
        ]);
        let server = thread::spawn(move || run(&serve_args));
        let mut client = None;
        for _ in 0..100 {
            match Client::connect(addr, Duration::from_millis(200)) {
                Ok(c) => {
                    client = Some(c);
                    break;
                }
                Err(_) => thread::sleep(Duration::from_millis(20)),
            }
        }
        let mut client = client.expect("serve must come up");
        let session = client.open_session("rep").unwrap();
        for it in 0..4u64 {
            let mut vars = VariableSet::new();
            vars.insert("x".into(), (0..64).map(|j| j as f64 + it as f64).collect());
            client.put_iteration(session, it, &vars).unwrap();
        }

        // Sessions live under every replica root, not under the logical
        // root directly.
        let root_path = std::path::Path::new(&root);
        assert!(!root_path.join("rep").exists());
        let copy = |i: usize| root_path.join(format!("@replica-{i}")).join("rep");
        for i in 0..3 {
            assert!(copy(i).join("ckpt_0000000000.full").is_file(), "replica {i}");
        }

        // Lose one replica's copy of the full. Quorum reads still serve
        // every iteration.
        std::fs::remove_file(copy(1).join("ckpt_0000000000.full")).unwrap();
        for it in 0..4u64 {
            assert_eq!(client.restart(session, it).unwrap().achieved, it);
        }

        // A server-side scrub restores full replication.
        let reply = client.scrub(session, false).unwrap();
        assert_eq!(reply.quarantined, 0, "no quorum loss, nothing to quarantine");
        assert!(copy(1).join("ckpt_0000000000.full").is_file(), "read-repair rewrote the copy");
        let stats = client.stats().unwrap();
        assert!(
            stats.counter("ckpt_replica_repairs_total") >= 1,
            "repair must be counted: {stats:?}"
        );

        client.shutdown().unwrap();
        let out = server.join().unwrap().unwrap();
        assert!(out.contains("drained"), "{out}");
    }

    #[test]
    fn serve_rejects_zero_replicas() {
        let tmp = TempDir::new("cli-serve-replicas-zero");
        let root = tmp.path("root");
        let err = run(&argv(&[
            "serve", "--root", &root, "--replicas", "0",
        ]))
        .unwrap_err();
        assert_eq!(err.code, exit_code::GENERIC, "{err}");
        assert!(err.contains("--replicas"), "{err}");
    }

    #[test]
    fn client_usage_errors() {
        let err = run(&argv(&["client"])).unwrap_err();
        assert_eq!(err.code, exit_code::USAGE, "{err}");
        let err = run(&argv(&["client", "teleport"])).unwrap_err();
        assert_eq!(err.code, exit_code::USAGE, "{err}");
        let err = run(&argv(&["client", "stats"])).unwrap_err();
        assert_eq!(err.code, exit_code::USAGE, "{err}");
    }
}
