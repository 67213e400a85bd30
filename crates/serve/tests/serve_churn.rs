//! The churn-stress harness: concurrent writers (inserts + deletes)
//! against concurrent readers (warm-path queries) on one [`ShardPool`],
//! with full accuracy/soundness/checkpoint audits at every quiescent
//! point.
//!
//! Per round (built on the reusable [`diversity_serve::churn`] driver):
//!
//! * ≥ 2 writer threads churn the pool while ≥ 2 reader threads issue
//!   queries — every concurrent answer must be well-formed (exactly
//!   `k` points, finite value, composed certificate present);
//! * at the quiescent join, the pool's answer must be within the
//!   **structure-reported** bound of a fresh `run_seq` on the
//!   surviving points: `α · value + loss(coreset_radius) ≥ seq value`,
//!   where the loss term is exactly what the reported radius certifies
//!   through the proxy-function lemmas;
//! * the composed certificate must hold against ground truth: every
//!   survivor within the reported radius of the merged core-set;
//! * checkpoint → serde round-trip → restore → query must be
//!   **bit-identical** to the live pool.
//!
//! `SERVE_CHURN_OPS` bounds the per-writer insert count (CI smoke sets
//! it low; local soak runs can raise it).

use diversity::obs;
use diversity::prelude::*;
use diversity_serve::{churn_round, env_ops, value_loss, ChurnConfig, Serve, ShardPool};
use std::sync::{Arc, Once};

/// Installs one process-wide [`obs::Registry`] for the whole test
/// binary (tests run in parallel and the recorder is global, so it is
/// installed once and never uninstalled). Pools namespace their gauges
/// (`serve.pool{id}.…`), so concurrent tests never read each other's
/// occupancy.
fn shared_registry() -> Arc<obs::Registry> {
    static INSTALL: Once = Once::new();
    static mut SHARED: Option<Arc<obs::Registry>> = None;
    unsafe {
        INSTALL.call_once(|| {
            let reg = Arc::new(obs::Registry::new());
            obs::install(reg.clone());
            SHARED = Some(reg);
        });
        #[allow(static_mut_refs)]
        SHARED.clone().expect("installed above")
    }
}

/// Deterministic pseudo-random 2D point (splitmix-style integer hash).
fn gen_point(stream: u64, i: u64) -> VecPoint {
    let mut z = stream
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(0x94D0_49BB_1331_11EB);
    z ^= z >> 30;
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    let x = (z % 2_000) as f64 * 0.1;
    let y = ((z >> 32) % 2_000) as f64 * 0.1;
    VecPoint::from([x, y])
}

fn churn_stress(problem: Problem, k: usize) {
    let registry = shared_registry();
    let task = Task::new(problem, k).budget(Budget::KPrime(8 * k));
    let pool: ShardPool<VecPoint, _> = task.serve(Euclidean, 4).expect("valid pool spec");

    // Seed with points no writer ever deletes: the pool can never
    // shrink below k, so every concurrent read must succeed.
    for i in 0..160 {
        pool.insert(gen_point(u64::MAX, i)).expect("seed insert");
    }

    let cfg = ChurnConfig {
        writers: 3,
        readers: 2,
        inserts_per_writer: env_ops(120),
        delete_every: 3,
        queries_per_reader: 4,
    };
    let k_prime = pool.config().k_prime(&task).expect("valid budget");
    let alpha = problem.alpha();

    let mut round_survivors: Vec<Vec<diversity_serve::ShardedId>> = Vec::new();
    for round in 0..3u64 {
        // Give later rounds fresh coordinates, and delete a slice of a
        // *previous* round's survivors concurrently with this round's
        // writers (cross-round churn, not just own-round).
        if let Some(old) = round_survivors.last() {
            for id in old.iter().step_by(4) {
                assert!(
                    pool.delete(*id).expect("fault-free delete"),
                    "quiescent survivor must be deletable"
                );
            }
        }
        let outcome = churn_round(&pool, &task, &cfg, |w, i| {
            gen_point(round * 101 + w as u64, i as u64)
        });

        // The round really was churn, and the readers really read.
        assert!(outcome.deleted > 0, "writers must interleave deletions");
        assert_eq!(
            outcome.reports.len(),
            cfg.readers * cfg.queries_per_reader,
            "every concurrent read must have succeeded"
        );

        // ---- quiescent audits ---------------------------------------
        pool.validate();
        let survivors: Vec<VecPoint> = pool.alive().into_iter().map(|(_, p)| p).collect();
        assert_eq!(survivors.len(), pool.len());

        // Telemetry audit: at every quiescent point, this pool's
        // per-shard occupancy gauges sum to its live point count.
        let snap = registry.snapshot_now();
        assert_eq!(
            snap.gauge_prefix_sum(&pool.gauge_prefix()),
            pool.len() as i64,
            "{problem} round {round}: occupancy gauges must sum to pool.len()"
        );

        let warm = pool.query(&task).expect("quiescent query");
        // The report carries the cumulative snapshot; its warm-query
        // histogram has seen every concurrent read plus this one, and
        // its quantiles are well-formed.
        let telemetry = warm.telemetry.as_ref().expect("recorder installed");
        let e2e = telemetry
            .histogram("serve.query.e2e_ns")
            .expect("warm queries recorded");
        assert!(e2e.count > round * (cfg.readers * cfg.queries_per_reader) as u64);
        assert!(e2e.p50() >= e2e.min && e2e.p50() <= e2e.p99());
        assert!(e2e.p99() <= e2e.max);
        assert!(
            telemetry.histogram("serve.lock.write_hold_ns").is_some(),
            "churn writers must have recorded lock holds"
        );
        let fresh = task.run_seq(&survivors, &Euclidean).expect("ground truth");

        // Accuracy against the structure-reported bound: the composed
        // radius certifies the value loss of serving from core-sets,
        // and the combiner's solver is the same α-approximation run_seq
        // uses — so α·warm + loss(radius) must reach the fresh value.
        let radius = warm.coreset_radius.expect("warm answers certify");
        let loss = value_loss(problem, k, radius);
        assert!(
            alpha * warm.value + loss >= fresh.value - 1e-9,
            "{problem} round {round}: warm {} below the certified envelope \
             of fresh {} (radius {radius}, loss {loss})",
            warm.value,
            fresh.value,
        );

        // Certificate soundness against ground truth: every surviving
        // point within the reported radius of the merged core-set.
        let merged = pool.coreset(problem, k, k_prime);
        assert_eq!(merged.radius(), radius, "query reports the merged radius");
        assert!(
            merged.certifies(&survivors, &Euclidean, 1e-9),
            "{problem} round {round}: composed certificate must cover all survivors"
        );

        // Checkpoint → wire → restore → query: bit-identical.
        let json = serde_json::to_string(&pool.checkpoint().expect("healthy checkpoint"))
            .expect("serialize pool");
        let restored: ShardPool<VecPoint, _> =
            ShardPool::restore(Euclidean, serde_json::from_str(&json).expect("deserialize"))
                .expect("own checkpoint restores");
        assert_eq!(restored.len(), pool.len());
        let replay = restored.query(&task).expect("restored query");
        assert_eq!(replay.indices, warm.indices, "selection must match exactly");
        assert_eq!(
            replay.value.to_bits(),
            warm.value.to_bits(),
            "value must be bit-identical"
        );
        assert_eq!(replay.coreset_size, warm.coreset_size);
        assert_eq!(
            replay.coreset_radius.map(f64::to_bits),
            warm.coreset_radius.map(f64::to_bits)
        );
        assert_eq!(
            restored.coreset(problem, k, k_prime),
            merged,
            "the restored pool extracts the very same composed core-set"
        );

        round_survivors.push(outcome.survivors);
    }

    // Export the final snapshot when `DIVMAX_OBS` is set (CI's JSONL
    // smoke run points it at a file and asserts it parses with the
    // expected keys via `divmax-stats`).
    obs::export_to_env_path(&registry.snapshot_now()).expect("JSONL export must not fail");
}

#[test]
fn churn_stress_remote_edge() {
    churn_stress(Problem::RemoteEdge, 5);
}

#[test]
fn churn_stress_remote_clique() {
    churn_stress(Problem::RemoteClique, 4);
}

/// Writers can drain entire shards; the pool keeps answering (drained
/// shards contribute the merge identity) and the certificate stays
/// sound for exactly the points that remain.
#[test]
fn draining_a_shard_is_not_an_error() {
    let task = Task::new(Problem::RemoteEdge, 3).budget(Budget::KPrime(12));
    let pool: ShardPool<VecPoint, _> = task.serve(Euclidean, 3).expect("pool");
    // Round-robin: ids [0], [3], [6], ... land in shard 0.
    let ids = pool
        .extend((0..30).map(|i| gen_point(7, i)))
        .expect("extend");
    for id in ids.iter().filter(|id| id.shard == 0) {
        assert!(pool.delete(*id).expect("fault-free delete"));
    }
    assert_eq!(pool.shard_len(0), 0, "shard 0 fully drained");
    let report = pool.query(&task).expect("two live shards remain");
    assert_eq!(report.len(), 3);
    let survivors: Vec<VecPoint> = pool.alive().into_iter().map(|(_, p)| p).collect();
    let merged = pool.coreset(Problem::RemoteEdge, 3, 12);
    assert!(merged.certifies(&survivors, &Euclidean, 1e-9));

    // Drain everything: the typed error, not a panic.
    for (id, _) in pool.alive() {
        assert!(pool.delete(id).expect("fault-free delete"));
    }
    assert_eq!(pool.query(&task).unwrap_err(), DivError::EmptyInput);
}
