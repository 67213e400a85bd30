//! Structured observability end to end: install a recorder, run every
//! backend through the unified [`Task`] front door plus a warm
//! serving pool, then read the telemetry back three ways —
//!
//! 1. from the [`Report::telemetry`] snapshot each run carries,
//! 2. as the rendered table `divmax-stats` prints,
//! 3. as the JSON-lines export (`DIVMAX_OBS=path` wires it into any
//!    process without code changes).
//!
//! Nothing here costs anything until [`obs::install`] runs: every
//! instrumented hot path guards its reporting behind one relaxed
//! atomic load, so the same binary with no recorder runs at full
//! speed.
//!
//! Run with: `cargo run --release --example observability`
//! (set `DIVMAX_OBS=/tmp/divmax.jsonl` to also get the JSONL export,
//! then inspect it with `cargo run -p diversity-obs --bin divmax-stats
//! -- /tmp/divmax.jsonl`).

use diversity::obs;
use diversity::prelude::*;
use diversity_serve::{Serve, ShardPool};
use std::sync::Arc;

fn main() -> Result<(), DivError> {
    let k = 6;
    let (points, _) = datasets::sphere_shell(6_000, k, 3, 17);

    // One thread-safe registry for the whole process. Per-thread
    // `obs::LocalRecorder`s merging into one Snapshot are the
    // contention-free alternative for hot multi-threaded writers.
    let registry = Arc::new(obs::Registry::new());
    obs::install(registry.clone());

    // Every backend reports into the same namespace.
    let task = Task::new(Problem::RemoteEdge, k).budget(Budget::KPrime(8 * k));
    let seq = task.run_seq(&points, &Euclidean)?;
    let stream = task.run_stream(points.iter().cloned(), &Euclidean)?;
    let parts = mapreduce::partition::split_random(points.clone(), 4, 3);
    let rt = mapreduce::MapReduceRuntime::with_threads(4);
    let mr = task.run_mapreduce(&parts, &Euclidean, &rt, Strategy::TwoRound)?;

    // ...including the warm serving path.
    let pool: ShardPool<VecPoint, _> = task.serve(Euclidean, 4)?;
    let ids = pool.extend(points.iter().cloned())?;
    for id in ids.iter().step_by(5) {
        pool.delete(*id)?;
    }
    let warm = pool.query(&task)?;

    println!(
        "values: seq={:.3} stream={:.3} mr={:.3} warm={:.3}\n",
        seq.value, stream.value, mr.value, warm.value
    );

    // 1. Every Report carries the snapshot taken as it finished.
    let snap = warm.telemetry.as_ref().expect("recorder is installed");
    println!(
        "warm query e2e p99: {} ns over {} queries",
        snap.histogram("serve.query.e2e_ns").unwrap().p99(),
        snap.histogram("serve.query.e2e_ns").unwrap().count,
    );
    println!(
        "gmm ran {} rounds; kernels computed {} distances",
        snap.counter("gmm.rounds").unwrap_or(0),
        snap.counter("kernel.distances").unwrap_or(0),
    );
    let prefix = pool.gauge_prefix();
    assert_eq!(
        snap.gauge_prefix_sum(&prefix),
        pool.len() as i64,
        "occupancy gauges sum to the live point count"
    );

    // 2. The human-readable table (what `divmax-stats` prints).
    println!("\n{}", registry.snapshot_now().render());

    // 3. The JSONL export, honoring DIVMAX_OBS when set.
    match obs::export_to_env_path(&registry.snapshot_now()) {
        Ok(true) => println!("exported snapshot to ${}", obs::ENV_VAR),
        Ok(false) => println!("set {}=path to export the snapshot as JSONL", obs::ENV_VAR),
        Err(e) => eprintln!("export failed: {e}"),
    }

    obs::uninstall();
    Ok(())
}
