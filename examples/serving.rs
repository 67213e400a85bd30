//! The warm-path serving layer: a long-lived [`ShardPool`] absorbing
//! live traffic (inserts + deletes) and answering diversity queries
//! from the maintained shard prefixes — no data rescans.
//!
//! The scenario: a news-feed service keeps the last few hours of
//! stories in a 4-shard pool. Stories arrive continuously, old ones
//! expire, and every dashboard refresh asks for the `k` most diverse
//! stories *right now*. The cold alternative (`Task::run_mapreduce`
//! with `Strategy::TwoRound`) reruns round 1 of the 2-round job over
//! every shard per refresh; the pool keeps that round current under
//! the update stream and answers each refresh from it, with the same
//! answer — then snapshots itself so a restart resumes with
//! bit-identical answers.
//!
//! Run with: `cargo run --release --example serving`

use diversity::prelude::*;
use diversity_serve::{Serve, ShardPool};
use std::time::Instant;

fn main() -> Result<(), DivError> {
    let k = 8;
    let (stories, _) = datasets::sphere_shell(40_000, k, 3, 23);
    let task = Task::new(Problem::RemoteEdge, k).budget(Budget::KPrime(16 * k));

    // Opt into the persistent handle.
    let pool: ShardPool<VecPoint, _> = task.serve(Euclidean, 4)?;

    // Live traffic: insert the backlog, then churn — every third new
    // story replaces an old one (a sliding window in miniature).
    let ids = pool.extend(stories[..30_000].iter().cloned())?;
    let mut expired = ids.into_iter();
    for (i, story) in stories[30_000..].iter().enumerate() {
        pool.insert(story.clone())?;
        if i % 3 == 0 {
            if let Some(old) = expired.next() {
                pool.delete(old)?;
            }
        }
    }
    println!(
        "pool: {} stories across {} shards after churn",
        pool.len(),
        pool.num_shards()
    );

    // Dashboard refreshes: warm-path queries from maintained state.
    let t = Instant::now();
    let report = pool.query(&task)?;
    let warm_ms = t.elapsed().as_secs_f64() * 1e3;
    println!(
        "warm query: value {:.4}, core-set {} pts, composed radius {:.4}, {:.1}ms",
        report.value,
        report.coreset_size,
        report.coreset_radius.unwrap_or(f64::NAN),
        warm_ms,
    );

    // The cold path answers the same question by rebuilding everything.
    let parts = mapreduce::partition::split_round_robin(
        pool.alive().into_iter().map(|(_, p)| p).collect(),
        4,
    );
    let rt = mapreduce::MapReduceRuntime::with_threads(4);
    let t = Instant::now();
    let cold = task.run_mapreduce(&parts, &Euclidean, &rt, Strategy::TwoRound)?;
    let cold_ms = t.elapsed().as_secs_f64() * 1e3;
    println!(
        "cold rebuild: value {:.4}, {:.1}ms  ({:.0}x the warm query)",
        cold.value,
        cold_ms,
        cold_ms / warm_ms.max(1e-6),
    );

    // Per-stage memory, in points: the shards never ship their raw
    // points, only their core-sets, whose union the combiner solves
    // (the paper's M_L / M_T quantities).
    for (path, r) in [("warm", &report), ("cold", &cold)] {
        for m in &r.memory {
            println!(
                "  {path} {:<16} reducers={:<2} M_L={:<6} total={:<6} shipped={}",
                m.stage, m.reducers, m.max_local_points, m.total_points, m.emitted_points
            );
        }
    }

    // Snapshot → restore: the restarted service answers identically.
    let snapshot = pool.checkpoint()?;
    let restored: ShardPool<VecPoint, _> = ShardPool::restore(Euclidean, snapshot)?;
    let replay = restored.query(&task)?;
    assert_eq!(replay.value.to_bits(), report.value.to_bits());
    assert_eq!(replay.indices, report.indices);
    println!("checkpoint/restore: bit-identical answer reproduced");
    Ok(())
}
