//! Argument parsing and entry points for the `divmax-serve` and
//! `divmax-loadgen` binaries, kept here so the binaries themselves are
//! one-line shims.

use crate::loadgen::{LoadgenConfig, LoadgenReport};
use crate::server::{Server, ServerConfig};
use diversity::core::Problem;
use diversity::{Budget, Task};
use diversity_serve::ShardPool;
use metric::{Euclidean, VecPoint};

fn parse_flag<T: std::str::FromStr>(
    args: &mut std::collections::HashMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    match args.remove(name) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("{name}: cannot parse {raw:?}")),
    }
}

fn parse_args(
    args: impl Iterator<Item = String>,
) -> Result<std::collections::HashMap<String, String>, String> {
    let mut map = std::collections::HashMap::new();
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        let Some(name) = arg.strip_prefix("--") else {
            return Err(format!("unexpected positional argument {arg:?}"));
        };
        if let Some((key, value)) = name.split_once('=') {
            map.insert(format!("--{key}"), value.to_string());
        } else if let Some(value) = args.next() {
            map.insert(arg, value);
        } else {
            // A bare trailing flag is boolean-true.
            map.insert(arg, "true".into());
        }
    }
    Ok(map)
}

fn parse_problem(name: &str) -> Result<Problem, String> {
    match name.to_ascii_lowercase().as_str() {
        "remote-edge" | "edge" => Ok(Problem::RemoteEdge),
        "remote-clique" | "clique" => Ok(Problem::RemoteClique),
        "remote-star" | "star" => Ok(Problem::RemoteStar),
        "remote-bipartition" | "bipartition" => Ok(Problem::RemoteBipartition),
        "remote-tree" | "tree" => Ok(Problem::RemoteTree),
        "remote-cycle" | "cycle" => Ok(Problem::RemoteCycle),
        other => Err(format!("unknown problem {other:?}")),
    }
}

/// `divmax-serve`: seeds a [`ShardPool`] from the `sphere_shell`
/// generator and serves it until a Shutdown request.
///
/// Flags (all `--name value`): `--addr` (default `127.0.0.1:0`),
/// `--shards` (4), `--n` points (2000), `--dim` (8), `--planted` (16),
/// `--seed` (42), `--workers` (0 = per-core), `--max-inflight` (64),
/// `--coalesce` (true), `--coalesce-hold-ms` (0), `--max-frame-len`
/// (64 MiB).
///
/// Prints `listening on <addr>` on stdout (flushed) once ready, so a
/// harness can discover the ephemeral port.
pub fn serve_main(args: impl Iterator<Item = String>) -> Result<(), String> {
    let mut flags = parse_args(args)?;
    let addr: String = parse_flag(&mut flags, "--addr", "127.0.0.1:0".to_string())?;
    let shards: usize = parse_flag(&mut flags, "--shards", 4)?;
    let n: usize = parse_flag(&mut flags, "--n", 2000)?;
    let dim: usize = parse_flag(&mut flags, "--dim", 8)?;
    let planted: usize = parse_flag(&mut flags, "--planted", 16)?;
    let seed: u64 = parse_flag(&mut flags, "--seed", 42)?;
    let workers: usize = parse_flag(&mut flags, "--workers", 0)?;
    let max_inflight: usize = parse_flag(&mut flags, "--max-inflight", 64)?;
    let coalesce: bool = parse_flag(&mut flags, "--coalesce", true)?;
    let coalesce_hold_ms: u64 = parse_flag(&mut flags, "--coalesce-hold-ms", 0)?;
    let max_frame_len: u32 = parse_flag(
        &mut flags,
        "--max-frame-len",
        crate::frame::DEFAULT_MAX_FRAME_LEN,
    )?;
    if let Some(unknown) = flags.keys().next() {
        return Err(format!("unknown flag {unknown}"));
    }

    let (points, _) = diversity_datasets::sphere_shell(n, planted, dim, seed);
    let pool = ShardPool::new(Euclidean, shards);
    pool.extend(points).map_err(|e| e.to_string())?;
    let server = Server::start(
        pool,
        ServerConfig {
            addr,
            workers,
            max_inflight,
            coalesce,
            coalesce_hold_ms,
            max_frame_len,
        },
    )
    .map_err(|e| e.to_string())?;
    println!("listening on {}", server.addr());
    use std::io::Write;
    let _ = std::io::stdout().flush();
    let stats = server.join();
    eprintln!(
        "served: accepted={} queries={} mutates={} coalesced={} rejected={} protocol_errors={} panics={}",
        stats.accepted,
        stats.queries,
        stats.mutates,
        stats.coalesced,
        stats.rejected,
        stats.protocol_errors,
        stats.panics
    );
    Ok(())
}

/// Builds the loadgen config from CLI flags.
///
/// Flags: `--addr` (required), `--connections` (4), `--requests` per
/// connection (50), `--distinct` (1), `--problem` (`remote-edge`),
/// `--k` (8), `--kprime` (32), `--target-qps` (0 = unpaced),
/// `--shutdown` (false: send a server Shutdown after the run).
pub fn loadgen_config(args: impl Iterator<Item = String>) -> Result<(LoadgenConfig, bool), String> {
    let mut flags = parse_args(args)?;
    let addr = flags
        .remove("--addr")
        .ok_or_else(|| "--addr is required".to_string())?;
    let connections: usize = parse_flag(&mut flags, "--connections", 4)?;
    let requests: usize = parse_flag(&mut flags, "--requests", 50)?;
    let distinct: usize = parse_flag(&mut flags, "--distinct", 1)?;
    let problem = parse_problem(&parse_flag(
        &mut flags,
        "--problem",
        "remote-edge".to_string(),
    )?)?;
    let k: usize = parse_flag(&mut flags, "--k", 8)?;
    let k_prime: usize = parse_flag(&mut flags, "--kprime", 32)?;
    let target_qps: u64 = parse_flag(&mut flags, "--target-qps", 0)?;
    let shutdown: bool = parse_flag(&mut flags, "--shutdown", false)?;
    if let Some(unknown) = flags.keys().next() {
        return Err(format!("unknown flag {unknown}"));
    }
    Ok((
        LoadgenConfig {
            addr,
            connections,
            requests_per_conn: requests,
            task: Task::new(problem, k).budget(Budget::KPrime(k_prime)),
            distinct,
            target_qps,
        },
        shutdown,
    ))
}

/// `divmax-loadgen`: runs the workload and prints the JSON report on
/// stdout. See [`loadgen_config`] for the flags.
pub fn loadgen_main(args: impl Iterator<Item = String>) -> Result<LoadgenReport, String> {
    let (config, shutdown) = loadgen_config(args)?;
    let report = crate::loadgen::run::<VecPoint>(&config);
    if shutdown {
        if let Ok(mut client) = crate::client::NetClient::<VecPoint>::connect(&config.addr) {
            let _ = client.shutdown_server();
        }
    }
    println!("{}", report.to_json());
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_parse_both_styles() {
        let flags = parse_args(
            ["--addr=1.2.3.4:5", "--shards", "8"]
                .into_iter()
                .map(String::from),
        )
        .unwrap();
        assert_eq!(flags["--addr"], "1.2.3.4:5");
        assert_eq!(flags["--shards"], "8");
        assert!(parse_args(["oops"].into_iter().map(String::from)).is_err());
    }

    #[test]
    fn loadgen_config_requires_addr() {
        assert!(loadgen_config(std::iter::empty()).is_err());
        let (config, shutdown) = loadgen_config(
            [
                "--addr",
                "127.0.0.1:9",
                "--distinct",
                "3",
                "--shutdown",
                "true",
            ]
            .into_iter()
            .map(String::from),
        )
        .unwrap();
        assert_eq!(config.distinct, 3);
        assert!(shutdown);
        assert_eq!(config.task.k(), 8);
    }

    #[test]
    fn problems_parse_by_short_and_long_name() {
        assert_eq!(parse_problem("remote-edge").unwrap(), Problem::RemoteEdge);
        assert_eq!(parse_problem("CYCLE").unwrap(), Problem::RemoteCycle);
        assert!(parse_problem("nope").is_err());
    }
}
