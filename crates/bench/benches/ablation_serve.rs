//! Ablation: warm-path serving (`ShardPool::query`) vs the cold
//! per-query rerun of round 1 (`Task::run_mapreduce` with
//! `Strategy::TwoRound`) — the gap the serving layer exists to close.
//!
//! Measures, at n ≥ 40k (scale with `DIVMAX_SCALE`), for remote-edge
//! and remote-clique:
//!
//! * **warm query latency** — prefix reads under read locks + merge +
//!   combiner solve, over a pool that absorbed the data as updates
//!   (min over `DIVMAX_TRIALS` trials; the first query grows the
//!   prefixes);
//! * **cold query latency** — the 2-round run, which reruns GMM over
//!   every shard before the identical merge/solve;
//! * **update throughput** — amortized insert cost into the pool, the
//!   price the warm path pays once instead of per query;
//! * checkpoint size and snapshot/restore round-trip time, since a
//!   serving fleet cycles through them on every deploy.
//!
//! Records the headline numbers into `BENCH_serve.json` at the
//! workspace root (CI uploads it as an artifact).

use diversity::prelude::*;
use diversity_bench::{fmt_secs, scaled, timed, trials, Table};
use diversity_datasets::gaussian_clusters;
use diversity_serve::{Serve, ShardPool};

fn main() {
    let n = scaled(40_000);
    let shards = 8;
    let trials = trials();
    println!("ablation_serve: n={n}, shards={shards}, trials={trials}");

    let points = gaussian_clusters(n, 24, 3, 40.0, 4242);
    let parts = mapreduce::partition::split_random(points.clone(), shards, 5);
    let rt = mapreduce::MapReduceRuntime::with_threads(shards);

    let mut headline: Vec<String> = Vec::new();
    // Per-problem serving configs: remote-edge extracts plain kernels
    // (k' sized generously); remote-clique's injective extraction
    // multiplies the kernel by up to k delegates per center, so a
    // serving deployment keeps k' tight to bound the union the
    // combiner must solve — that is what the smaller (k, k') encodes.
    for (problem, k, k_prime) in [
        (Problem::RemoteEdge, 16usize, 128usize),
        (Problem::RemoteClique, 8, 32),
    ] {
        println!("\n== {problem}: k={k}, k'={k_prime} ==");
        let task = Task::new(problem, k).budget(Budget::KPrime(k_prime));

        // Build the pool once — the amortized steady state — and
        // measure what that amortization costs per update.
        let (pool, build_secs) = timed(|| {
            let pool: ShardPool<VecPoint, _> = task.serve_seeded(&parts, Euclidean).unwrap();
            pool
        });
        let update_us = build_secs * 1e6 / n as f64;

        // Warm vs cold, min over trials (cold reruns round 1).
        let mut warm_secs = f64::INFINITY;
        let mut warm_value = 0.0;
        for _ in 0..trials {
            let (report, secs) = timed(|| pool.query(&task).unwrap());
            warm_secs = warm_secs.min(secs);
            warm_value = report.value;
        }
        let mut cold_secs = f64::INFINITY;
        let mut cold_value = 0.0;
        for _ in 0..trials {
            let (report, secs) = timed(|| {
                task.run_mapreduce(&parts, &Euclidean, &rt, Strategy::TwoRound)
                    .unwrap()
            });
            cold_secs = cold_secs.min(secs);
            cold_value = report.value;
        }

        // Warm-path latency distribution through the obs layer: the
        // same queries with a recorder installed; the quantiles come
        // out of the Report's own telemetry snapshot instead of
        // hand-rolled timing loops. (Kept separate from the min-trial
        // timings above so those stay recorder-free.)
        let registry = std::sync::Arc::new(diversity_obs::Registry::new());
        diversity_obs::install(registry);
        let mut last_report = None;
        for _ in 0..trials.max(8) {
            last_report = Some(pool.query(&task).unwrap());
        }
        diversity_obs::uninstall();
        let telemetry = last_report
            .unwrap()
            .telemetry
            .expect("recorder was installed");
        let e2e = telemetry
            .histogram("serve.query.e2e_ns")
            .expect("warm queries recorded");
        let lock_wait = telemetry
            .histogram("serve.lock.read_wait_ns")
            .expect("read locks recorded");
        println!(
            "warm e2e p50={}ns p99={}ns; per-shard read-lock wait p99={}ns",
            e2e.p50(),
            e2e.p99(),
            lock_wait.p99()
        );

        // Checkpoint economics.
        let (json, snap_secs) = timed(|| {
            serde_json::to_string(&pool.checkpoint().expect("healthy pool checkpoints"))
                .expect("serialize pool")
        });
        let (restored, restore_secs) = timed(|| {
            let state = serde_json::from_str(&json).expect("deserialize pool");
            ShardPool::<VecPoint, _>::restore(Euclidean, state).expect("restore checkpoint")
        });
        let replay = restored.query(&task).unwrap();
        assert_eq!(
            replay.value.to_bits(),
            pool.query(&task).unwrap().value.to_bits(),
            "{problem}: restored pool must answer bit-identically"
        );

        let mut table = Table::new(
            &format!("warm serving vs cold rebuild ({problem})"),
            &["path", "time/query", "value", "notes"],
        );
        table.row(vec![
            "warm (pool.query)".into(),
            fmt_secs(warm_secs),
            format!("{warm_value:.4}"),
            format!("updates amortized at {update_us:.1}us/insert"),
        ]);
        table.row(vec![
            "cold (2-round MapReduce)".into(),
            fmt_secs(cold_secs),
            format!("{cold_value:.4}"),
            "reruns round 1 over every shard".into(),
        ]);
        table.row(vec![
            "checkpoint".into(),
            fmt_secs(snap_secs),
            "-".into(),
            format!("{} bytes; restore {}", json.len(), fmt_secs(restore_secs)),
        ]);
        table.print();
        let speedup = cold_secs / warm_secs.max(1e-12);
        println!("warm-path speedup over per-query rebuild: {speedup:.1}x\n");
        assert!(
            warm_secs < cold_secs,
            "{problem}: the warm path must beat the cold per-query rebuild"
        );

        headline.push(format!(
            concat!(
                "  \"{problem}\": {{\n",
                "    \"k\": {k},\n",
                "    \"k_prime\": {k_prime},\n",
                "    \"warm_query_seconds\": {warm:.6},\n",
                "    \"cold_query_seconds\": {cold:.6},\n",
                "    \"warm_speedup\": {speedup:.2},\n",
                "    \"insert_amortized_us\": {update:.2},\n",
                "    \"checkpoint_bytes\": {bytes},\n",
                "    \"checkpoint_seconds\": {snap:.6},\n",
                "    \"restore_seconds\": {restore:.6},\n",
                "    \"warm_e2e_p50_ns\": {p50},\n",
                "    \"warm_e2e_p99_ns\": {p99},\n",
                "    \"read_lock_wait_p99_ns\": {lock_p99}\n",
                "  }}"
            ),
            problem = problem,
            k = k,
            k_prime = k_prime,
            warm = warm_secs,
            cold = cold_secs,
            speedup = speedup,
            update = update_us,
            bytes = json.len(),
            snap = snap_secs,
            restore = restore_secs,
            p50 = e2e.p50(),
            p99 = e2e.p99(),
            lock_p99 = lock_wait.p99(),
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"serve\",\n  \"n\": {n},\n  \"shards\": {shards},\n{}\n}}\n",
        headline.join(",\n")
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_serve.json");
    std::fs::write(&path, json).expect("write BENCH_serve.json");
    println!("wrote {}", path.display());
}
