//! The sharded composition: per-shard `Coreset` artifacts merged
//! through the 2-round MapReduce combiner — the paper's
//! composable-core-set glue as a fifth backend.
//!
//! The scenario: a serving fleet holds the dataset sharded across
//! machines. `Task::run_sharded` answers cold (round 1 of the 2-round
//! job per shard, then one merge — radius = max of shards, by
//! Definition 2's composition law — and one sequential solve on the
//! small union); a `ShardPool` (`Task::serve`) keeps each shard's
//! round 1 current under live inserts/deletes and answers the same.
//!
//! Run with: `cargo run --release --example sharded_dynamic`

use diversity::prelude::*;

fn main() -> Result<(), DivError> {
    let k = 8;
    let shards = 6;
    let (points, _) = datasets::sphere_shell(60_000, k, 3, 97);

    let task = Task::new(Problem::RemoteEdge, k).budget(Budget::KPrime(16 * k));
    let parts = mapreduce::partition::split_random(points.clone(), shards, 11);
    let rt = mapreduce::MapReduceRuntime::with_threads(shards);

    // One call: round 1 per shard, merge, combine.
    let sharded = task.run_sharded(&parts, &Euclidean, &rt)?;

    // The same task on the plain substrates, for comparison.
    let seq = task.run_seq(&points, &Euclidean)?;
    let mr = task.run_mapreduce(&parts, &Euclidean, &rt, Strategy::TwoRound)?;

    println!(
        "{:<16} {:>12} {:>10} {:>12} {:>10}",
        "backend", "value", "core-set", "radius cert", "time"
    );
    for report in [&sharded, &seq, &mr] {
        println!(
            "{:<16} {:>12.4} {:>10} {:>12.4} {:>9.1}ms",
            format!("{:?}", report.backend),
            report.value,
            report.coreset_size,
            report.coreset_radius.unwrap_or(f64::NAN),
            report.total_secs() * 1e3,
        );
    }

    // The memory accounting the Report now carries: per-round resident
    // and shipped points — the paper's M_L / M_T quantities.
    println!("\nper-round memory (sharded run):");
    for m in &sharded.memory {
        println!(
            "  {:<24} reducers={:<3} M_L={:<8} total={:<8} shipped={}",
            m.stage, m.reducers, m.max_local_points, m.total_points, m.emitted_points
        );
    }

    // What the composition means: the shards never shipped their raw
    // points — only `coreset_size` points crossed the wire,
    // with a covering-radius certificate composed as the max of the
    // per-shard radii (Lemmas 3–4 / Definition 2).
    let shipped = sharded.coreset_size;
    println!(
        "\n{} points held across {shards} shards; {shipped} shipped to the combiner \
         ({:.2}% of the data), certificate radius {:.4}",
        points.len(),
        100.0 * shipped as f64 / points.len() as f64,
        sharded.coreset_radius.unwrap_or(f64::NAN),
    );

    // The low-level artifact API the backend is built from — what a
    // shard process ships to the combiner:
    let artifact: Coreset<VecPoint> = pipeline::extract_coreset_artifact(
        Problem::RemoteEdge,
        &parts.parts[0],
        &Euclidean,
        k,
        16 * k,
    );
    let wire = serde_json::to_string(&artifact).expect("artifacts are wire types");
    println!(
        "shard 0 artifact: {} points, radius {:.4}, {} bytes on the wire",
        artifact.len(),
        artifact.radius(),
        wire.len()
    );

    Ok(())
}
