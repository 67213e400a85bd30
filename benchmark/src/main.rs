//! `divmax-benchmark` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <serve-read|serve-churn|batch-mr|all> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Prints every metric of the run with its unit, one JSON record with
//! the host and source fingerprint (also appended to
//! `benchmark/out/history.jsonl`), and as the last line the result
//! object `{"correct", "attempted", "failed", "metrics"}`. `--trace 1`
//! reports the per-layer metrics instead of the end-to-end ones and
//! writes its spans to `benchmark/out/trace-<workload>.jsonl`. See
//! `README.md` beside this file for the workloads and metrics.

mod batch;
mod client;
mod serve;

use divmax_benchmark::catalog;
use divmax_benchmark::record::{self, Fingerprint, Outcome};
use divmax_benchmark::stats::median;
use divmax_benchmark::trace::{by_request, check_layer_sum, self_by_layer, Tracer};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Lowest accepted ratio of an answer's value to the `run_seq`
/// reference on the same points. Remote-edge's sequential algorithm
/// is a 2-approximation, so a sound coreset answer stays above half of
/// it on these inputs.
pub const VALUE_GATE: f64 = 0.5;

const WORKLOADS: [&str; 3] = ["serve-read", "serve-churn", "batch-mr"];

/// Points of the `batch-mr` data the serve-layer probe seeds its pool
/// with, and how long it drives churn traffic.
const SERVE_PROBE_POINTS: usize = 5_000;
const SERVE_PROBE_TIME: Duration = Duration::from_secs(1);

/// Spans written to the trace file; the run keeps all of them.
const TRACE_FILE_SPANS: usize = 100_000;

/// A workload that has not finished by then stops the run with an
/// error, inside the 180 s a run may take.
const WATCHDOG: Duration = Duration::from_secs(170);

const USAGE: &str = "usage: divmax-benchmark --workload <serve-read|serve-churn|batch-mr|all> \
                     [--seed <n>] [--seconds <1..=60>] [--trace <0|1>]";

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    while let Some(flag) = raw.next() {
        let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = WORKLOADS.to_vec(),
            "--workload" => {
                let name = WORKLOADS
                    .iter()
                    .find(|w| **w == value)
                    .ok_or_else(|| format!("unknown workload {value:?}"))?;
                args.workloads = vec![name];
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// The checkout root: the parent of this package's directory.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// Where run records and traces go (ignored by git).
fn out_dir() -> PathBuf {
    repo_root().join("benchmark/out")
}

fn git_rev(root: &Path) -> String {
    if !root.join(".git").exists() {
        return "none".into();
    }
    std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("none".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

fn fingerprint(root: &Path, workload: &str, args: &Args) -> Fingerprint {
    Fingerprint {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        simd: metric::simd::dispatch_label(),
        profile: if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        git_rev: git_rev(root),
        source_hash: record::source_hash(
            root,
            &[
                "Cargo.lock",
                "crates",
                "benchmark/Cargo.toml",
                "benchmark/src",
            ],
        ),
        workload: workload.into(),
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
    }
}

/// The per-layer rows derived from the spans: each root's layer self
/// times, the layer-sum check, and per-name span medians.
fn summarize_trace(tracer: &Tracer, out: &mut Outcome) {
    let (mut checked, mut violations) = (0usize, 0usize);
    let mut selfs: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for group in by_request(tracer.spans()).values() {
        let Some(root) = group.first() else { continue };
        let by_layer = self_by_layer(group);
        // The root's own layer is the residual: for a request, the net
        // time left after the codec spans and the server's stage rows;
        // for a batch job, the `Task` front door around its stages.
        let rows: Vec<f64> = by_layer
            .iter()
            .filter(|(layer, _)| **layer != root.layer)
            .map(|(_, &ns)| ns as f64)
            .collect();
        let sum = check_layer_sum(root.duration_ns() as f64, &rows);
        checked += 1;
        violations += usize::from(!sum.ok);
        let layer_us = |layer| by_layer.get(layer).copied().unwrap_or(0) as f64 / 1e3;
        if root.name == "client.query" {
            selfs
                .entry("net.self_us")
                .or_default()
                .push(sum.residual / 1e3);
            selfs
                .entry("diversity.self_us")
                .or_default()
                .push(layer_us("diversity"));
            selfs
                .entry("serve.self_us")
                .or_default()
                .push(layer_us("serve"));
        } else if root.layer == "diversity" {
            selfs
                .entry("diversity.task_self_s")
                .or_default()
                .push(sum.residual / 1e9);
        }
    }
    for (name, sample) in &selfs {
        out.set(name, median(sample).unwrap_or(0.0), sample.len());
    }
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for span in tracer.spans() {
        by_name
            .entry(span.name)
            .or_default()
            .push(span.duration_ns() as f64 / 1e3);
    }
    for (metric, span) in [
        ("diversity.wire.encode_task_us", "wire.encode_task"),
        ("diversity.wire.decode_report_us", "wire.decode_report"),
        ("serve.extract_us", "serve.extract"),
        ("serve.lock_wait_us", "serve.lock_wait"),
        ("serve.solve_us", "serve.solve"),
    ] {
        let sample = by_name.get(span).map_or(&[][..], Vec::as_slice);
        out.set(metric, median(sample).unwrap_or(0.0), sample.len());
    }
    out.set("trace.spans", tracer.spans().len() as f64, 1);
    out.set("trace.sum_checked", checked as f64, 1);
    out.set("trace.sum_violations", violations as f64, 1);
    if violations > 0 {
        out.fail(format!(
            "{violations} of {checked} traced requests have layer rows exceeding their duration"
        ));
    }
}

/// Appends `line` to `path`; a failure is reported, not fatal.
fn append(path: &Path, line: &str) {
    let written = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| writeln!(f, "{line}"));
    if let Err(e) = written {
        eprintln!("divmax-benchmark: cannot append to {}: {e}", path.display());
    }
}

fn write_trace(path: &Path, tracer: &Tracer) {
    let written = std::fs::File::create(path).and_then(|f| {
        let mut w = std::io::BufWriter::new(f);
        tracer.write_jsonl(&mut w, TRACE_FILE_SPANS)?;
        w.flush()
    });
    if let Err(e) = written {
        eprintln!("divmax-benchmark: cannot write {}: {e}", path.display());
    }
}

fn run_workload(workload: &str, args: &Args) -> Outcome {
    let mut tracer = Tracer::new(Instant::now());
    let traced = args.trace.then_some(&mut tracer);
    let seed = args.seed;
    let mut out = match workload {
        "serve-read" => serve::run(serve::Mix::Read, seed, args.seconds, traced),
        "serve-churn" => serve::run(serve::Mix::Churn, seed, args.seconds, traced),
        _ => batch::run(seed, args.seconds, traced, |points, tracer, out| {
            let probe = points[..SERVE_PROBE_POINTS.min(points.len())].to_vec();
            serve::probe(probe, seed, SERVE_PROBE_TIME, tracer, out)
        }),
    };
    if args.trace {
        if workload != "batch-mr" {
            if let Err(e) = batch::probe(serve::points(seed), seed, &mut tracer, &mut out) {
                out.fail(e);
            }
        }
        summarize_trace(&tracer, &mut out);
        let dir = out_dir();
        if std::fs::create_dir_all(&dir).is_ok() {
            write_trace(&dir.join(format!("trace-{workload}.jsonl")), &tracer);
        }
    }
    out
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("divmax-benchmark: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // Detached on purpose: it only ever ends the process.
    let limit = WATCHDOG * args.workloads.len() as u32;
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("divmax-benchmark: run exceeded {limit:?}, stopping");
        std::process::exit(3);
    });
    let root = repo_root();
    let out_dir = out_dir();
    let mut complete = true;
    for workload in &args.workloads {
        let outcome = run_workload(workload, &args);
        for (name, value) in &outcome.values {
            let def = catalog::lookup(name).expect("values are set from the catalog");
            let n = outcome.samples.get(name).copied().unwrap_or(1);
            println!(
                "{workload:<12} {name:<36} {value:>16.4} {:<6} n={n}",
                def.unit
            );
        }
        for failure in &outcome.failures {
            println!("{workload:<12} FAILED: {failure}");
        }
        let record = record::record_line(&fingerprint(&root, workload, &args), &outcome);
        println!("{record}");
        if std::fs::create_dir_all(&out_dir).is_ok() {
            append(&out_dir.join("history.jsonl"), &record);
        }
        match record::result_line(&outcome, args.trace) {
            Ok(line) => println!("{line}"),
            Err(e) => {
                eprintln!("divmax-benchmark: {workload}: {e}");
                complete = false;
            }
        }
    }
    if !complete {
        std::process::exit(1);
    }
}
