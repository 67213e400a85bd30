//! Integration of the serving layer with the `Task` front door: the
//! warm path (`Task::serve` → `ShardPool::query`) must agree with the
//! cold 2-round run (`Strategy::TwoRound`) on identical shard contents, handle
//! drained shards as empty core-sets (not errors), and checkpoint the
//! whole pool losslessly over the wire.

use diversity::mapreduce::{partition::split_round_robin, Partitions};
use diversity::prelude::*;
use diversity_serve::{PointId, PoolConfig, PoolState, Serve, ShardPool, ShardedId};

fn points(n: usize) -> Vec<VecPoint> {
    (0..n)
        .map(|i| VecPoint::from([((i * 37) % 211) as f64 * 0.7, ((i * 53) % 223) as f64 * 1.1]))
        .collect()
}

/// Quiescent warm answers equal the cold 2-round run on the same shard
/// layout: same value (bitwise), radius and selected points — only the
/// backend tag and the provenance space differ (pool `ShardedId`s vs
/// original positions).
#[test]
fn warm_pool_matches_cold_two_round() {
    let pts = points(240);
    let parts = split_round_robin(pts.clone(), 4);
    let rt = mapreduce::MapReduceRuntime::with_threads(4);
    for problem in [Problem::RemoteEdge, Problem::RemoteClique] {
        let task = Task::new(problem, 5).budget(Budget::KPrime(20));
        let cold = task
            .run_mapreduce(&parts, &Euclidean, &rt, Strategy::TwoRound)
            .unwrap();
        let pool = task.serve_seeded(&parts, Euclidean).unwrap();
        let warm = pool.query(&task).unwrap();

        assert_eq!(warm.backend, Backend::ShardedDynamic, "{problem}");
        assert_eq!(cold.backend, Backend::MapReduce, "{problem}");
        assert_eq!(warm.value.to_bits(), cold.value.to_bits(), "{problem}");
        assert_eq!(warm.coreset_size, cold.coreset_size, "{problem}");
        assert_eq!(warm.coreset_radius, cold.coreset_radius, "{problem}");
        // Translate pool provenance back to original positions: a
        // seeded shard's ids are its part's local order.
        let translated: Vec<usize> = warm
            .indices
            .iter()
            .map(|&encoded| {
                let id = ShardedId::decode(encoded as u64);
                parts.global_indices[id.shard][id.id.raw() as usize]
            })
            .collect();
        assert_eq!(translated, cold.indices, "{problem}");
        for (&encoded, p) in warm.indices.iter().zip(&warm.points) {
            let id = ShardedId::decode(encoded as u64);
            assert_eq!(pool.point(id).as_ref(), Some(p), "{problem}");
        }
    }
}

/// The warm [`Report`]'s timing rows are a stable contract: dashboards
/// and the churn harness key on these names, so renames are breaking
/// changes. `warm-lock-wait` is the component of `warm-extract` spent
/// waiting on shard read locks (the contention share of warm latency).
#[test]
fn warm_report_timing_rows_are_pinned() {
    let pts = points(120);
    let task = Task::new(Problem::RemoteEdge, 4).budget(Budget::KPrime(16));
    let pool: ShardPool<VecPoint, _> = task.serve(Euclidean, 3).unwrap();
    pool.extend(pts).unwrap();
    let warm = pool.query(&task).unwrap();
    let rows: Vec<&str> = warm.timings.iter().map(|t| t.stage.as_str()).collect();
    assert_eq!(
        rows,
        ["warm-extract", "warm-lock-wait", "combine:solve"],
        "warm timing row names are pinned"
    );
    // The lock-wait row is a component of warm-extract, never more.
    assert!(warm.timings[1].secs <= warm.timings[0].secs);
    assert!(warm.timings.iter().all(|t| t.secs >= 0.0));
}

/// A shard (partition) that is empty — as after deletions drained it —
/// contributes an empty core-set with radius 0 to the merge, not an
/// error, on both the cold and the warm path.
#[test]
fn empty_shards_contribute_the_merge_identity() {
    let pts = points(90);
    // Hand-built partitioning with a genuinely empty middle part.
    let thirds = split_round_robin(pts.clone(), 2);
    let parts = Partitions {
        parts: vec![thirds.parts[0].clone(), Vec::new(), thirds.parts[1].clone()],
        global_indices: vec![
            thirds.global_indices[0].clone(),
            Vec::new(),
            thirds.global_indices[1].clone(),
        ],
    };
    let rt = mapreduce::MapReduceRuntime::with_threads(2);
    let task = Task::new(Problem::RemoteEdge, 4).budget(Budget::KPrime(12));

    let cold = task
        .run_mapreduce(&parts, &Euclidean, &rt, Strategy::TwoRound)
        .unwrap();
    assert_eq!(cold.len(), 4);

    let pool = task.serve_seeded(&parts, Euclidean).unwrap();
    assert_eq!(pool.shard_len(1), 0);
    let warm = pool.query(&task).unwrap();
    assert_eq!(warm.value.to_bits(), cold.value.to_bits());

    // The merged artifact's radius ignores the empty operand (max with
    // the identity's 0), and still certifies every alive point.
    let merged = pool.coreset(Problem::RemoteEdge, 4, 12);
    assert!(merged.certifies(&pts, &Euclidean, 1e-9));
    assert_eq!(Some(merged.radius()), warm.coreset_radius);
}

#[test]
fn serve_validates_upfront() {
    let task = Task::new(Problem::RemoteEdge, 3);
    let err = task.serve::<VecPoint, _>(Euclidean, 0).unwrap_err();
    assert_eq!(err, DivError::InvalidShards);

    let err = Task::new(Problem::RemoteEdge, 0)
        .serve::<VecPoint, _>(Euclidean, 2)
        .unwrap_err();
    assert_eq!(err, DivError::InvalidK { k: 0, n: None });

    let err = Task::new(Problem::RemoteEdge, 3)
        .budget(Budget::KPrime(2))
        .serve::<VecPoint, _>(Euclidean, 2)
        .unwrap_err();
    assert_eq!(err, DivError::BudgetTooSmall { k_prime: 2, k: 3 });

    // An Eps-budget task seeds the pool with its accuracy
    // intent, which a checkpoint keeps.
    let pool = Task::new(Problem::RemoteEdge, 3)
        .budget(Budget::Eps { eps: 0.25, dim: 3 })
        .serve::<VecPoint, _>(Euclidean, 2)
        .unwrap();
    assert_eq!(
        *pool.config(),
        PoolConfig {
            epsilon: 0.25,
            dim: 3
        }
    );
    let restored: ShardPool<VecPoint, _> =
        ShardPool::restore(Euclidean, pool.checkpoint().unwrap()).unwrap();
    assert_eq!(restored.config(), pool.config());
}

/// The pool checkpoint round-trips over the wire and restores to a
/// pool with identical contents and answers — including the router
/// cursor, so routing continues where it left off.
#[test]
fn pool_checkpoint_roundtrips_over_the_wire() {
    let task = Task::new(Problem::RemoteClique, 4).budget(Budget::KPrime(16));
    let pool: ShardPool<VecPoint, _> = task.serve(Euclidean, 3).unwrap();
    let ids = pool.extend(points(75)).unwrap();
    for id in ids.iter().step_by(5) {
        assert!(pool.delete(*id).unwrap());
    }
    let live = pool.query(&task).unwrap();

    let json = serde_json::to_string(&pool.checkpoint().unwrap()).unwrap();
    let state: PoolState<VecPoint> = serde_json::from_str(&json).unwrap();
    assert_eq!(state.shards.len(), 3);
    assert_eq!(state.len(), pool.len());

    let restored: ShardPool<VecPoint, _> = ShardPool::restore(Euclidean, state).unwrap();
    let replay = restored.query(&task).unwrap();
    assert_eq!(replay.indices, live.indices);
    assert_eq!(replay.value.to_bits(), live.value.to_bits());

    // Router continuity: the next insert on both pools lands on the
    // same shard.
    let a = pool.insert(VecPoint::from([1.0, 2.0])).unwrap();
    let b = restored.insert(VecPoint::from([1.0, 2.0])).unwrap();
    assert_eq!(a.shard, b.shard);
}

/// Encoded handles survive the round trip through `Report::indices`.
#[test]
fn sharded_ids_encode_losslessly() {
    for (shard, raw) in [(0usize, 0u64), (3, 17), (65_535, (1 << 48) - 1)] {
        let id = ShardedId {
            shard,
            id: PointId::from_raw(raw),
        };
        assert_eq!(ShardedId::decode(id.encode()), id);
    }
}
