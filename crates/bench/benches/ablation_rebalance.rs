//! Ablation: live shard rebalancing (`ShardPool::rebalance`) — what a
//! worst-case skewed pool pays to re-partition its quiesced cut, and
//! what the balanced shard set buys back on the warm path.
//!
//! Measures, at n ≥ 40k (scale with `DIVMAX_SCALE`), over a pool whose
//! entire dataset landed on one shard of eight:
//!
//! * **rebalance wall time** — cut, greedy re-partition, shard
//!   rebuilds (points only; prefixes regrow on the next query), and
//!   the atomic swap (min over `DIVMAX_TRIALS` trials, each on a
//!   freshly skewed pool);
//! * **write pause** — the span writers are fenced, from all shard
//!   writer locks held to the swap commit (strictly inside wall time:
//!   readers never block at all);
//! * **skew before/after** and the number of live ids remapped;
//! * **first warm query** skewed vs rebalanced — it grows every
//!   shard's prefix, about `n·k'` relaxations in all, whichever way
//!   the points are spread (the shards grow one after another).
//!
//! Appends a `"rebalance"` section to `BENCH_serve.json` at the
//! workspace root (CI uploads it with the serve ablation's numbers).

use diversity::prelude::*;
use diversity_bench::{fmt_secs, scaled, timed, trials, Table};
use diversity_datasets::gaussian_clusters;
use diversity_serve::{Serve, ShardPool};

fn main() {
    let n = scaled(40_000);
    let shards = 8;
    let trials = trials();
    println!("ablation_rebalance: n={n}, shards={shards}, trials={trials}");

    let points = gaussian_clusters(n, 24, 3, 40.0, 4242);
    let task = Task::new(Problem::RemoteEdge, 16).budget(Budget::KPrime(128));

    let mut wall_secs = f64::INFINITY;
    let mut pause_secs = f64::INFINITY;
    let mut warm_skewed = f64::INFINITY;
    let mut warm_balanced = f64::INFINITY;
    let mut skew_before = 0.0;
    let mut skew_after = 0.0;
    let mut ids_remapped = 0usize;
    for _ in 0..trials {
        // Worst-case placement: every point on shard 0 of eight.
        let pool: ShardPool<VecPoint, _> = task.serve(Euclidean, shards).expect("valid pool spec");
        for p in points.iter().cloned() {
            pool.insert_to(0, p).expect("skewed insert");
        }
        let (_, secs) = timed(|| pool.query(&task).expect("skewed warm query"));
        warm_skewed = warm_skewed.min(secs);

        let (report, secs) = timed(|| pool.rebalance().expect("rebalance"));
        wall_secs = wall_secs.min(secs);
        pause_secs = pause_secs.min(report.pause.as_secs_f64());
        skew_before = report.skew_before;
        skew_after = report.skew_after;
        ids_remapped = report.ids_remapped;
        assert!(
            report.skew_after < report.skew_before,
            "rebalancing a fully skewed pool must lower the skew"
        );
        assert_eq!(pool.len(), n, "rebalancing moves points, never loses them");

        let (_, secs) = timed(|| pool.query(&task).expect("balanced warm query"));
        warm_balanced = warm_balanced.min(secs);
    }

    let mut table = Table::new(
        "live rebalancing on a fully skewed pool",
        &["metric", "value", "notes"],
    );
    table.row(vec![
        "skew".into(),
        format!("{skew_before:.2} -> {skew_after:.2}"),
        format!("{ids_remapped} live ids remapped"),
    ]);
    table.row(vec![
        "rebalance wall".into(),
        fmt_secs(wall_secs),
        "cut + re-partition + rebuild + swap".into(),
    ]);
    table.row(vec![
        "write pause".into(),
        fmt_secs(pause_secs),
        "writers fenced; readers never block".into(),
    ]);
    table.row(vec![
        "warm query".into(),
        format!("{} -> {}", fmt_secs(warm_skewed), fmt_secs(warm_balanced)),
        "skewed vs rebalanced".into(),
    ]);
    table.print();

    let section = format!(
        concat!(
            "  \"rebalance\": {{\n",
            "    \"n\": {n},\n",
            "    \"shards\": {shards},\n",
            "    \"skew_before\": {before:.4},\n",
            "    \"skew_after\": {after:.4},\n",
            "    \"ids_remapped\": {ids},\n",
            "    \"rebalance_seconds\": {wall:.6},\n",
            "    \"write_pause_seconds\": {pause:.6},\n",
            "    \"warm_query_skewed_seconds\": {skewed:.6},\n",
            "    \"warm_query_balanced_seconds\": {balanced:.6}\n",
            "  }}"
        ),
        n = n,
        shards = shards,
        before = skew_before,
        after = skew_after,
        ids = ids_remapped,
        wall = wall_secs,
        pause = pause_secs,
        skewed = warm_skewed,
        balanced = warm_balanced,
    );

    // Splice the section into BENCH_serve.json as text (the vendored
    // serde_json exposes no dynamic `Value` to merge with). The section
    // is always the last key, so a re-run truncates at the marker and
    // re-appends — idempotent either way.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_serve.json");
    let marker = ",\n  \"rebalance\":";
    let json = match std::fs::read_to_string(&path) {
        Ok(existing) => {
            let base = match existing.find(marker) {
                Some(at) => existing[..at].to_string(),
                None => existing
                    .trim_end()
                    .strip_suffix('}')
                    .expect("BENCH_serve.json is a JSON object")
                    .trim_end()
                    .to_string(),
            };
            format!("{base},\n{section}\n}}\n")
        }
        Err(_) => format!("{{\n  \"bench\": \"serve\",\n{section}\n}}\n"),
    };
    std::fs::write(&path, json).expect("write BENCH_serve.json");
    println!("wrote {}", path.display());
}
