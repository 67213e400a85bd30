//! Ablation: what fault tolerance costs the serving layer.
//!
//! Measures, at n ≥ 20k (scale with `DIVMAX_SCALE`):
//!
//! * **hook overhead** — warm query latency with no fault plan vs a
//!   zero-rate plan handed to the pool (the per-injection-point counter
//!   bump, the price of chaos-testability);
//! * **degraded-query overhead** — warm query latency with all shards
//!   healthy vs one shard quarantined (the merge shrinks, the
//!   `Degradation` block is built, the coverage fraction computed);
//! * **recovery latency** — median over repeated quarantine →
//!   [`ShardPool::recover`] cycles: a rebuild from checkpoint + log
//!   replay, the MTTR of a shard after an isolated panic.
//!
//! Records the headline numbers into `BENCH_faults.json` at the
//! workspace root (CI uploads it as an artifact).

use diversity::prelude::*;
use diversity_bench::{fmt_secs, scaled, timed, trials, Table};
use diversity_datasets::gaussian_clusters;
use diversity_faults as faults;
use diversity_serve::{Serve, ShardPool};
use std::sync::Arc;
use std::time::Instant;

fn min_secs(trials: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..trials {
        best = best.min(timed(&mut f).1);
    }
    best
}

fn main() {
    let n = scaled(20_000);
    let shards = 8;
    let trials = trials().max(5);
    println!("ablation_faults: n={n}, shards={shards}, trials={trials}");

    let k = 8;
    let task = Task::new(Problem::RemoteEdge, k).budget(Budget::KPrime(8 * k));
    let pool: ShardPool<VecPoint, _> = task.serve(Euclidean, shards).expect("pool");
    for p in gaussian_clusters(n, 16, 3, 30.0, 777) {
        pool.insert(p).expect("fault-free load");
    }

    // ---- hook overhead: no plan vs a zero-rate plan ----------------
    let healthy_secs = min_secs(trials, || {
        pool.query(&task).expect("healthy query");
    });
    let pool = pool.with_faults(Arc::new(faults::FaultPlan::from_spec(faults::FaultSpec {
        seed: 1,
        panic: 0.0,
        slow: 0.0,
        slow_ms: 0,
        corrupt: 0.0,
        drop: 0.0,
        transient: 0.0,
    })));
    let hooked_secs = min_secs(trials, || {
        pool.query(&task).expect("hooked query");
    });

    // ---- degraded-query overhead: one shard quarantined ------------
    pool.quarantine(0);
    let mut degraded_value = 0.0;
    let degraded_secs = min_secs(trials, || {
        let report = pool.query(&task).expect("7 shards answer");
        assert!(report.degradation.is_some());
        degraded_value = report.value;
    });
    pool.recover(0).expect("recover");
    let healthy_value = pool.query(&task).expect("full").value;

    // ---- recovery latency: median over quarantine→recover cycles ---
    let mut recoveries: Vec<f64> = (0..trials.max(9))
        .map(|i| {
            pool.quarantine(i % shards);
            let t = Instant::now();
            pool.recover(i % shards).expect("recover");
            t.elapsed().as_secs_f64()
        })
        .collect();
    recoveries.sort_by(f64::total_cmp);
    let recovery_median = recoveries[recoveries.len() / 2];

    let mut table = Table::new(
        "fault tolerance overheads (warm path)",
        &["scenario", "time/query", "notes"],
    );
    table.row(vec![
        "healthy, no plan".into(),
        fmt_secs(healthy_secs),
        format!("value {healthy_value:.4}"),
    ]);
    table.row(vec![
        "healthy, zero-rate plan".into(),
        fmt_secs(hooked_secs),
        format!(
            "hook overhead {:+.1}%",
            (hooked_secs / healthy_secs - 1.0) * 100.0
        ),
    ]);
    table.row(vec![
        "degraded (1/8 quarantined)".into(),
        fmt_secs(degraded_secs),
        format!("value {degraded_value:.4} over survivors"),
    ]);
    table.row(vec![
        "shard recovery".into(),
        fmt_secs(recovery_median),
        "median rebuild from checkpoint + log".into(),
    ]);
    table.print();

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"faults\",\n",
            "  \"n\": {n},\n",
            "  \"shards\": {shards},\n",
            "  \"healthy_query_seconds\": {healthy:.6},\n",
            "  \"hooked_query_seconds\": {hooked:.6},\n",
            "  \"hook_overhead_ratio\": {hook_ratio:.4},\n",
            "  \"degraded_query_seconds\": {degraded:.6},\n",
            "  \"degraded_overhead_ratio\": {deg_ratio:.4},\n",
            "  \"recovery_median_seconds\": {recovery:.6}\n",
            "}}\n"
        ),
        n = n,
        shards = shards,
        healthy = healthy_secs,
        hooked = hooked_secs,
        hook_ratio = hooked_secs / healthy_secs,
        degraded = degraded_secs,
        deg_ratio = degraded_secs / healthy_secs,
        recovery = recovery_median,
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_faults.json");
    std::fs::write(&path, json).expect("write BENCH_faults.json");
    println!("wrote {}", path.display());
}
