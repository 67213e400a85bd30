//! Ablation: the sharded composition vs its two parents.
//!
//! Measures, at n ≥ 60k (scale with `DIVMAX_SCALE`), for remote-edge
//! and remote-clique:
//!
//! * **query latency from warm shards** — the serving-path cost: each
//!   pool shard keeps its GMM prefix current (amortized over updates),
//!   so a query is per-shard reads + merge + combiner solve;
//! * the same query answered cold by the 2-round MapReduce run (which
//!   rescans every shard's raw points and must equal the warm answer
//!   bit for bit) and by the single-machine core-set pipeline;
//! * shipped volume (solve-input size) and the composed radius
//!   certificate, against each alternative's;
//! * solution-value ratios, which must stay near 1 — the composition
//!   trades nothing it doesn't account for in the certificate.

use diversity::prelude::*;
use diversity_bench::{fmt_secs, scaled, timed, Table};
use diversity_datasets::gaussian_clusters;
use diversity_serve::Serve;

fn main() {
    let n = scaled(60_000);
    let k = 16;
    let k_prime = 8 * k;
    let shards = 8;
    println!("ablation_sharded: n={n}, k={k}, k'={k_prime}, shards={shards}");

    let points = gaussian_clusters(n, 24, 3, 40.0, 777);
    let parts = mapreduce::partition::split_random(points.clone(), shards, 5);
    let rt = mapreduce::MapReduceRuntime::with_threads(shards);

    for problem in [Problem::RemoteEdge, Problem::RemoteClique] {
        let task = Task::new(problem, k).budget(Budget::KPrime(k_prime));

        // Warm the shards once — the serving fleet's steady state: the
        // first query grows every shard's prefix to k'.
        let pool = task.serve_seeded(&parts, Euclidean).expect("pool");
        pool.query(&task).expect("warm-up query");
        let (warm, warm_secs) = timed(|| pool.query(&task).expect("warm query"));
        let (shipped, radius) = (warm.coreset_size, warm.coreset_radius.unwrap_or(f64::NAN));

        // Cold path: the 2-round run reruns round 1 over every part.
        let (mr, mr_secs) = timed(|| {
            task.run_mapreduce(&parts, &Euclidean, &rt, Strategy::TwoRound)
                .unwrap()
        });
        assert_eq!(
            warm.value.to_bits(),
            mr.value.to_bits(),
            "{problem}: the warm pool answers like two_round"
        );
        let (seq, seq_secs) = timed(|| task.run_seq(&points, &Euclidean).unwrap());

        let mut table = Table::new(
            &format!("sharded vs parents ({problem})"),
            &["path", "time", "value", "shipped", "radius cert"],
        );
        table.row(vec![
            "sharded (warm shards)".into(),
            fmt_secs(warm_secs),
            format!("{:.4}", warm.value),
            format!("{shipped}"),
            format!("{radius:.4}"),
        ]);
        table.row(vec![
            "2-round MapReduce (cold)".into(),
            fmt_secs(mr_secs),
            format!("{:.4}", mr.value),
            format!("{}", mr.coreset_size),
            format!("{:.4}", mr.coreset_radius.unwrap_or(f64::NAN)),
        ]);
        table.row(vec![
            "sequential core-set".into(),
            fmt_secs(seq_secs),
            format!("{:.4}", seq.value),
            format!("{}", seq.coreset_size),
            format!("{:.4}", seq.coreset_radius.unwrap_or(f64::NAN)),
        ]);
        table.print();

        println!(
            "value ratios vs seq: warm {:.3}, mapreduce {:.3}; shipped {:.2}% of n",
            warm.value / seq.value,
            mr.value / seq.value,
            100.0 * shipped as f64 / n as f64
        );
        // The laws the composition stands on, smoke-checked here too.
        assert!(warm.value > 0.0 && warm.value.is_finite());
        assert!(
            warm.value * problem.alpha() >= seq.value - 1e-9,
            "{problem}: sharded value fell below the alpha envelope"
        );
    }
}
