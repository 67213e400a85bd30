//! Snapshot-consistent cross-shard checkpoints under churn:
//! [`ShardPool::checkpoint_consistent`] quiesces every shard at once
//! (all write locks held together), so a snapshot taken **while
//! writers are running** is a single point in the pool's linearized
//! history — no shard ahead of another, no torn operation, and the
//! persisted bytes restore bit-identically.

use diversity::prelude::*;
use diversity::wire::{from_bytes, to_bytes};
use diversity_serve::{PoolState, Serve, ShardPool};
use std::sync::atomic::{AtomicBool, Ordering};

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

#[test]
fn mid_churn_consistent_snapshot_restores_bit_identically() {
    let task = Task::new(Problem::RemoteEdge, 5).budget(Budget::KPrime(40));
    let pool: ShardPool<VecPoint, _> = task.serve(Euclidean, 4).expect("valid pool spec");
    let seeds: Vec<_> = (0..120)
        .map(|i| pool.insert(gen_point(u64::MAX, i)).expect("seed insert"))
        .collect();

    let stop = AtomicBool::new(false);
    let snapshots: Vec<PoolState<VecPoint>> = std::thread::scope(|scope| {
        // Three writers churn (inserts, plus deletes of their own
        // acked ids) for the whole duration of the snapshot loop.
        for w in 0..3u64 {
            let pool = &pool;
            let stop = &stop;
            scope.spawn(move || {
                let mut own: Vec<diversity_serve::ShardedId> = Vec::new();
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let id = pool.insert(gen_point(w, i)).expect("churn insert");
                    own.push(id);
                    if i % 3 == 2 {
                        let victim = own.remove(0);
                        pool.delete(victim).expect("churn delete");
                    }
                    i += 1;
                }
            });
        }

        // Main thread: repeated consistent snapshots mid-churn.
        let taken = (0..5)
            .map(|_| {
                // Let real churn accumulate between cuts.
                std::thread::sleep(std::time::Duration::from_millis(10));
                pool.checkpoint_consistent()
                    .expect("healthy pool checkpoints")
            })
            .collect();
        stop.store(true, Ordering::Relaxed);
        taken
    });

    for (round, state) in snapshots.into_iter().enumerate() {
        // The binary persistence round-trip is exact.
        let bytes = to_bytes(&state);
        let state: PoolState<VecPoint> = from_bytes(&bytes).expect("own bytes decode");
        assert_eq!(to_bytes(&state), bytes, "round {round}: re-encode drifted");

        // A restored pool is internally consistent and serves.
        let restored = ShardPool::restore(Euclidean, state).expect("snapshot restores");
        restored.validate();
        let report = restored.query(&task).expect("restored pool answers");
        assert_eq!(report.len(), 5);
        assert!(report.value.is_finite() && report.value > 0.0);
        assert!(report.coreset_radius.is_some());
        assert!(
            report.degradation.is_none(),
            "round {round}: a consistent snapshot captures only healthy shards"
        );

        // Bit-identical: restoring the same bytes twice gives the same
        // shards, answers, and re-checkpointed state.
        let twin = ShardPool::restore(
            Euclidean,
            from_bytes::<PoolState<VecPoint>>(&bytes).expect("decode again"),
        )
        .expect("snapshot restores twice");
        let twin_report = twin.query(&task).expect("twin answers");
        assert_eq!(twin_report.indices, report.indices);
        assert_eq!(twin_report.value.to_bits(), report.value.to_bits());
        assert_eq!(
            to_bytes(&twin.checkpoint().expect("twin checkpoints")),
            to_bytes(&restored.checkpoint().expect("restored checkpoints")),
            "round {round}: re-checkpoints of the same snapshot must be byte-equal"
        );

        // The seed points (never deleted by any writer) are all in the
        // cut — acknowledged-before-snapshot writes are never torn out.
        // Checked by handle: churn points may repeat a seed point's
        // coordinates, so matching by value would overcount.
        let seeds_alive = seeds
            .iter()
            .enumerate()
            .filter(|&(i, &id)| restored.point(id) == Some(gen_point(u64::MAX, i as u64)))
            .count();
        assert_eq!(
            seeds_alive, 120,
            "round {round}: seed points lost in the cut"
        );
    }

    // Quiescent closing audit: with the writers joined, a consistent
    // snapshot and the plain checkpoint agree on the live set and the
    // answer.
    pool.validate();
    let quiet = pool.checkpoint_consistent().expect("quiescent snapshot");
    let plain = pool.checkpoint().expect("plain checkpoint");
    let from_quiet = ShardPool::restore(Euclidean, quiet).expect("restore quiet");
    let from_plain = ShardPool::restore(Euclidean, plain).expect("restore plain");
    assert_eq!(from_quiet.len(), pool.len());
    assert_eq!(from_plain.len(), pool.len());
    let a = from_quiet.query(&task).expect("query");
    let b = from_plain.query(&task).expect("query");
    let live = pool.query(&task).expect("query");
    assert_eq!(a.indices, live.indices);
    assert_eq!(b.indices, live.indices);
    assert_eq!(a.value.to_bits(), live.value.to_bits());
    assert_eq!(b.value.to_bits(), live.value.to_bits());
}

#[test]
fn consistent_checkpoint_recovers_quarantined_shards_first() {
    let task = Task::new(Problem::RemoteEdge, 3).budget(Budget::KPrime(12));
    let pool: ShardPool<VecPoint, _> = task.serve(Euclidean, 3).expect("valid pool spec");
    for i in 0..60 {
        pool.insert(gen_point(9, i)).expect("insert");
    }
    pool.quarantine(1);

    // The snapshot must not capture (or skip) the quarantined shard:
    // it recovers it under the held write lock, then images it.
    let state = pool
        .checkpoint_consistent()
        .expect("snapshot recovers in-line");
    assert!(pool
        .healths()
        .iter()
        .all(|h| *h == diversity_serve::ShardHealth::Healthy));
    let restored = ShardPool::restore(Euclidean, state).expect("restore");
    assert_eq!(restored.len(), pool.len());
    let live = pool.query(&task).expect("query");
    let replay = restored.query(&task).expect("query");
    assert_eq!(replay.indices, live.indices);
    assert_eq!(replay.value.to_bits(), live.value.to_bits());
}
