//! The `numarck router` subcommand: run the cluster gateway in the
//! foreground until it drains (SIGTERM/SIGINT or a client `shutdown`).
//!
//! The router fronts N `numarck serve` shard processes, places sessions
//! on them by consistent hashing, replicates ingest, and speaks the
//! exact same wire protocol as a single shard — so everything under
//! `numarck client` works unchanged with `--via-router HOST:PORT` in
//! place of `--addr` (the two are synonyms; `--via-router` just states
//! the intent in scripts).

use std::io::Write as _;
use std::time::Duration;

use numarck_cluster::{Router, RouterConfig};
use numarck_obs::MetricsServer;
use numarck_serve::install_signal_handlers;

use crate::commands::parse_args;
use crate::{CliError, CliResult};

/// `numarck router`: run the gateway until it drains.
pub fn router(raw: &[String]) -> CliResult {
    let p = parse_args(
        raw,
        &[
            "shards",
            "addr",
            "replication",
            "vnodes",
            "metrics-addr",
            "probe-interval-ms",
            "markdown-after",
            "max-conns",
        ],
        &[],
    )?;
    p.expect_positionals(0, "").map_err(CliError::usage)?;
    let shards: Vec<String> = p
        .require("shards")
        .map_err(CliError::usage)?
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if shards.is_empty() {
        return Err(CliError::usage("--shards needs at least one HOST:PORT"));
    }
    let addr = p.get("addr").unwrap_or("127.0.0.1:0").to_string();
    let metrics_addr = p.get("metrics-addr").map(str::to_string);

    let mut config = RouterConfig { shards, ..RouterConfig::default() };
    config.replication = p.get_parsed("replication", config.replication)?;
    config.vnodes = p.get_parsed("vnodes", config.vnodes)?;
    config.max_connections = p.get_parsed("max-conns", config.max_connections)?;
    config.markdown_after = p.get_parsed("markdown-after", config.markdown_after)?;
    let probe_ms: u64 = p.get_parsed("probe-interval-ms", 500)?;
    config.probe_interval = Duration::from_millis(probe_ms.max(1));
    if config.replication == 0 || config.vnodes == 0 || config.max_connections == 0 {
        return Err("--replication, --vnodes and --max-conns must be at least 1".into());
    }
    let (replication, shard_count) = (config.replication, config.shards.len());

    install_signal_handlers();
    let handle = Router::spawn(&addr as &str, config)
        .map_err(|e| format!("cannot bind {addr}: {e}"))?;
    // Scripts (and the CI cluster-smoke job) wait for these exact lines
    // to learn the ephemeral ports, so they must land before join().
    println!("listening on {}", handle.addr());
    println!(
        "routing {} shard(s), replication factor {}",
        shard_count,
        replication.min(shard_count)
    );
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
    Ok("router drained and exited".to_string())
}

#[cfg(test)]
mod tests {
    use crate::testutil::argv;
    use crate::{exit_code, run};

    #[test]
    fn router_requires_shards() {
        let err = run(&argv(&["router"])).unwrap_err();
        assert_eq!(err.code, exit_code::USAGE, "{err}");
        assert!(err.contains("--shards"), "{err}");
        let err = run(&argv(&["router", "--shards", " , "])).unwrap_err();
        assert_eq!(err.code, exit_code::USAGE, "{err}");
    }

    #[test]
    fn router_rejects_zero_knobs() {
        let err = run(&argv(&[
            "router", "--shards", "127.0.0.1:1", "--replication", "0",
        ]))
        .unwrap_err();
        assert_eq!(err.code, exit_code::GENERIC, "{err}");
        assert!(err.contains("--replication"), "{err}");
    }

    #[test]
    fn router_runs_and_drains_via_client_shutdown() {
        use numarck_serve::Client;
        use std::time::Duration;
        // One real shard behind the router; the wire `Shutdown` drains
        // the router (not the shard), exactly like `serve`.
        let tmp = crate::testutil::TempDir::new("cli-router");
        let config = numarck_serve::ServerConfig::new(
            tmp.0.join("shard"),
            numarck::Config::new(8, 0.001, numarck::Strategy::Clustering).unwrap(),
        );
        let shard = numarck_serve::Server::spawn("127.0.0.1:0", config).unwrap();
        let shard_addr = shard.addr().to_string();
        let addr = "127.0.0.1:47931";
        let router_args = argv(&["router", "--shards", &shard_addr, "--addr", addr]);
        let join = std::thread::spawn(move || run(&router_args));
        let mut client = None;
        for _ in 0..100 {
            match Client::connect(addr, Duration::from_millis(200)) {
                Ok(c) => {
                    client = Some(c);
                    break;
                }
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
        let mut client = client.expect("router must come up");
        let session = client.open_session("cli").unwrap();
        let mut vars = numarck_checkpoint::VariableSet::new();
        vars.insert("x".into(), vec![1.0, 2.0, 3.0]);
        client.put_iteration(session, 0, &vars).unwrap();
        assert_eq!(client.restart(session, 0).unwrap().achieved, 0);
        client.shutdown().unwrap();
        let out = join.join().unwrap().unwrap();
        assert!(out.contains("drained"), "{out}");
        shard.shutdown();
    }
}
