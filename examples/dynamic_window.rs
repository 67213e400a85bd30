//! A news feed with expiring items: a one-shard serving pool keeps its
//! core-set current through the churn, so picking k diverse headlines
//! costs a read of the maintained prefix instead of a from-scratch
//! rebuild per refresh. The *same* `Task` answers from the pool and
//! from the rebuild — the unified API's point: substrates change, the
//! job doesn't.
//!
//! Run with `cargo run --release --example dynamic_window`.

use diversity::prelude::*;
use diversity_serve::{Serve, ShardPool, ShardedId};
use std::collections::VecDeque;

fn main() -> Result<(), DivError> {
    let k = 8; // headlines on the front page
    let window = 2_000; // stories stay live for 2k arrivals
    let total = 10_000;
    let budget = 64;

    // Embeddings of incoming stories: drifting topic clusters.
    let stream = datasets::gaussian_clusters(total, 12, 3, 30.0, 2024);

    let task = Task::new(Problem::RemoteEdge, k).budget(Budget::KPrime(budget));
    let pool: ShardPool<VecPoint, _> = task.serve(Euclidean, 1)?;
    let mut live: VecDeque<(ShardedId, VecPoint)> = VecDeque::new();
    let mut pool_total = 0.0f64;
    let mut rebuild_total = 0.0f64;
    let mut refreshes = 0usize;

    println!("news window: {window} live stories, k = {k} diverse headlines\n");
    println!(
        "{:>8}  {:>12}  {:>12}  {:>12}  {:>12}",
        "arrival", "pool/rebuild", "pool query", "rebuild", "speedup"
    );

    let churn_start = std::time::Instant::now();
    for (t, story) in stream.into_iter().enumerate() {
        let id = pool.insert(story.clone())?;
        live.push_back((id, story));
        if live.len() > window {
            let (expired, _) = live.pop_front().expect("window non-empty");
            pool.delete(expired)?;
        }

        // Refresh the front page every 1000 arrivals: the same task,
        // answered by two backends.
        if t >= window && t % 1_000 == 0 {
            let warm = pool.query(&task)?;
            let warm_secs = warm.total_secs();

            let snapshot: Vec<VecPoint> = live.iter().map(|(_, p)| p.clone()).collect();
            let rebuilt = task.run_seq(&snapshot, &Euclidean)?;
            let rebuild_secs = rebuilt.total_secs();

            pool_total += warm_secs;
            rebuild_total += rebuild_secs;
            refreshes += 1;
            println!(
                "{:>8}  {:>12.3}  {:>11.2}µs  {:>11.2}µs  {:>11.1}x",
                t,
                warm.value / rebuilt.value,
                warm_secs * 1e6,
                rebuild_secs * 1e6,
                rebuild_secs / warm_secs
            );

            // The pool logs every acknowledged update for recovery until
            // a checkpoint folds it in; folding at each refresh keeps
            // the feed's memory bounded by the window.
            pool.checkpoint()?;
        }
    }
    let churn_secs = churn_start.elapsed().as_secs_f64();

    let stats = pool.shard_stats()[0];
    let updates = stats.inserts + stats.deletes;
    println!(
        "\nprocessed {total} arrivals (+{} expirations) in {churn_secs:.2}s",
        total - window.min(total)
    );
    println!(
        "per-update work: {:.0} distance evals, {} recomputes in {updates} updates \
         (window = {window}, k' = {budget})",
        stats.distance_evals as f64 / updates as f64,
        stats.orphans_rehomed
    );
    println!(
        "front-page refresh: pool {:.1}µs vs rebuild {:.1}µs — {:.0}x faster",
        pool_total / refreshes as f64 * 1e6,
        rebuild_total / refreshes as f64 * 1e6,
        rebuild_total / pool_total
    );
    Ok(())
}
