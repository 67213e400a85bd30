//! Laws of live shard rebalancing.
//!
//! * **Re-partition law** (proptest): for *any* placement of points
//!   across shards, a live [`ShardPool::rebalance`] answers
//!   bit-identically to a never-rebalanced pool restored from the same
//!   consistent cut re-partitioned offline ([`rebalance_state`]) — the
//!   paper's Definition 2 states core-set composability for arbitrary
//!   partitions, so re-splitting a quiesced cut changes placement and
//!   nothing else — and the merged radius certificate still certifies
//!   the alive ground truth.
//! * **Acceptance criteria**: a churn burst that drives `skew()` over
//!   the threshold triggers exactly one rebalance per
//!   `min_interval_ms`, post-swap skew is strictly lower, and
//!   pre-rebalance [`ShardedId`]s keep resolving (delete and lookup,
//!   through the remap table).
//! * **All-or-nothing**: an injected panic mid-swap
//!   (`faults::sites::REBALANCE`) leaves the old pool serving
//!   unchanged answers.
//! * **ID-space edges**: [`ShardedId::try_encode`] refuses handles the
//!   packed `u64` cannot represent (`raw >= 2^48`, `shard >= 2^16`)
//!   with the typed [`DivError::InvalidShards`] instead of silently
//!   corrupting the shard bits.
//! * **Restore validation**: a checkpoint whose router state was
//!   stamped over a different shard count than the state holds is
//!   rejected with [`DivError::CorruptState`], as is a remap entry
//!   pointing at a shard the pool does not have.

use diversity::prelude::*;
use diversity_faults as faults;
use diversity_serve::{rebalance_state, PoolState, RebalanceConfig, Serve, ShardPool, ShardedId};
use proptest::prelude::*;
use std::sync::{Arc, Once};

/// Injected panics are expected; keep them off stderr.
fn quiet_injected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.contains("injected fault"));
            if !injected {
                default(info);
            }
        }));
    });
}

fn gen_point(i: u64) -> VecPoint {
    let mut z = i
        .wrapping_mul(0xBF58_476D_1CE4_E5B9)
        .wrapping_add(0x94D0_49BB_1331_11EB);
    z ^= z >> 29;
    z = z.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z ^= z >> 32;
    VecPoint::from([(z % 1_000) as f64 * 0.2, ((z >> 32) % 1_000) as f64 * 0.3])
}

/// A pool with every point piled onto shard 0 — maximal skew for the
/// shard count.
fn skewed_pool(
    task: &Task,
    shards: usize,
    n: u64,
) -> (ShardPool<VecPoint, Euclidean>, Vec<ShardedId>) {
    let pool: ShardPool<VecPoint, _> = task.serve(Euclidean, shards).expect("pool");
    let ids = (0..n)
        .map(|i| pool.insert_to(0, gen_point(i)).expect("seed"))
        .collect();
    (pool, ids)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The re-partition law: live rebalance ≡ offline re-partition of
    /// the same cut, bitwise, and the certificate still certifies.
    #[test]
    fn live_rebalance_answers_bitwise_like_the_offline_repartition(
        placements in proptest::collection::vec(0usize..4, 12..60),
        problem_idx in 0usize..2,
    ) {
        let problem = [Problem::RemoteEdge, Problem::RemoteClique][problem_idx];
        let k = 3;
        let task = Task::new(problem, k).budget(Budget::KPrime(12));
        let pool: ShardPool<VecPoint, _> = task.serve(Euclidean, 4).expect("pool");
        for (i, &shard) in placements.iter().enumerate() {
            pool.insert_to(shard, gen_point(i as u64)).expect("seed");
        }

        // One consistent cut; the pool stays quiescent until the live
        // rebalance takes its own (identical) cut.
        let cut = pool.checkpoint_consistent().expect("cut");
        let (repartitioned, fresh) = rebalance_state(&cut).expect("re-partition");
        prop_assert_eq!(fresh.len(), placements.len(), "every alive point is remapped");
        let twin = ShardPool::restore(Euclidean, repartitioned).expect("offline twin");

        let report = pool.rebalance().expect("live rebalance");
        prop_assert_eq!(report.ids_remapped, placements.len());

        // Bit-identical answers: same selection, same value, same
        // certificate — placement changed, the answer did not.
        let live = pool.query(&task).expect("live");
        let offline = twin.query(&task).expect("twin");
        prop_assert_eq!(&live.indices, &offline.indices);
        prop_assert_eq!(live.value.to_bits(), offline.value.to_bits());
        prop_assert_eq!(
            live.coreset_radius.map(f64::to_bits),
            offline.coreset_radius.map(f64::to_bits)
        );
        prop_assert!(live.degradation.is_none());

        // The merged certificate certifies the alive ground truth.
        let alive: Vec<VecPoint> = pool.alive().into_iter().map(|(_, p)| p).collect();
        prop_assert_eq!(alive.len(), placements.len());
        let k_prime = pool.config().k_prime(&task).expect("budget");
        prop_assert!(pool.coreset(problem, k, k_prime).certifies(&alive, &Euclidean, 1e-9));

        // Occupancies are within one point of each other: skew as
        // close to 1.0 as the population allows.
        let occ = pool.occupancies();
        let (min, max) = (occ.iter().min().unwrap(), occ.iter().max().unwrap());
        prop_assert!(max - min <= 1, "greedy leaves occupancies within 1: {occ:?}");
    }
}

/// The ISSUE's acceptance criteria, end to end: threshold trigger,
/// exactly-once pacing, strictly lower skew, resolvable old handles.
#[test]
fn skew_trigger_paces_and_old_handles_keep_resolving() {
    let task = Task::new(Problem::RemoteEdge, 3).budget(Budget::KPrime(12));
    let (pool, ids) = skewed_pool(&task, 4, 40);
    let before = pool.query(&task).expect("pre-rebalance answer");

    // A handle deleted *before* the cut must resolve to nothing after.
    let dead = ids[7];
    assert_eq!(pool.delete(dead), Ok(true));

    let config = RebalanceConfig {
        threshold: 1.5,
        min_interval_ms: 60_000,
    };
    assert!(
        pool.skew() >= config.threshold,
        "seeded skew {}",
        pool.skew()
    );

    // Exactly one rebalance fires.
    let report = pool
        .maybe_rebalance(&config)
        .expect("rebalance")
        .expect("threshold crossed");
    assert!(
        report.skew_after < report.skew_before,
        "skew must strictly drop: {} -> {}",
        report.skew_before,
        report.skew_after
    );
    assert_eq!(report.ids_remapped, 39, "every alive point was remapped");
    assert!(pool.skew() < config.threshold);
    assert_eq!(pool.rebalance_stats().rebalances, 1);

    // Re-skew the pool past the threshold again: the pacing gate (not
    // the threshold) must now hold the rebalancer back.
    for i in 100..160u64 {
        pool.insert_to(1, gen_point(i)).expect("re-skew");
    }
    assert!(pool.skew() >= config.threshold);
    assert_eq!(
        pool.maybe_rebalance(&config).expect("gated"),
        None,
        "inside min_interval_ms no second rebalance may fire"
    );
    assert_eq!(pool.rebalance_stats().rebalances, 1, "still exactly one");

    // Pre-rebalance handles resolve through the remap table: lookups
    // find the same points, deletes kill the points they named.
    for (i, &id) in ids.iter().enumerate() {
        if id == dead {
            assert_eq!(pool.point(id), None, "dead handles stay dead");
            assert_eq!(pool.delete(id), Ok(false));
            continue;
        }
        assert_eq!(
            pool.point(id),
            Some(gen_point(i as u64)),
            "old handle {id} resolves to its point"
        );
    }
    let len = pool.len();
    assert_eq!(pool.delete(ids[0]), Ok(true), "old handles delete");
    assert_eq!(pool.len(), len - 1);
    assert_eq!(pool.point(ids[0]), None);

    // The answer over the surviving original points is consistent with
    // the pre-rebalance pool: same certified problem over the same
    // ground truth minus the two deletions.
    let after = pool.query(&task).expect("post-rebalance answer");
    assert_eq!(after.backend, before.backend);
}

/// An injected panic mid-swap must leave the old pool fully intact:
/// same answers, same skew, same remap table — all-or-nothing.
#[test]
fn mid_swap_panic_leaves_the_old_pool_serving_unchanged_answers() {
    quiet_injected_panics();
    let task = Task::new(Problem::RemoteClique, 3).budget(Budget::KPrime(12));
    let (pool, ids) = skewed_pool(&task, 4, 30);
    let before = pool.query(&task).expect("baseline");
    let skew_before = pool.skew();

    let plan = Arc::new(faults::FaultPlan::from_spec(faults::FaultSpec {
        panic: 1.0,
        ..faults::FaultSpec::from_seed(20170807)
    }));
    let pool = pool.with_faults(plan.clone());
    let refused = pool.rebalance();
    plan.disarm();
    assert!(
        matches!(
            &refused,
            Err(DivError::TransientFailure { site }) if site == faults::sites::REBALANCE
        ),
        "got {refused:?}"
    );

    // Nothing moved: answers, skew, stats, and handles are untouched.
    assert_eq!(pool.skew(), skew_before);
    assert_eq!(pool.rebalance_stats().rebalances, 0);
    let after = pool.query(&task).expect("still serving");
    assert_eq!(after.indices, before.indices);
    assert_eq!(after.value.to_bits(), before.value.to_bits());
    for (i, &id) in ids.iter().enumerate() {
        assert_eq!(pool.point(id), Some(gen_point(i as u64)));
    }

    // With the plan gone the same rebalance commits cleanly, and the
    // rebalanced pool answers bit-identically to the offline
    // re-partition of the same cut (the re-partition law — the
    // *value* may legitimately move within the certificate envelope,
    // since per-shard extraction depends on placement).
    let cut = pool.checkpoint_consistent().expect("cut");
    let (repartitioned, _) = rebalance_state(&cut).expect("re-partition");
    let twin = ShardPool::restore(Euclidean, repartitioned).expect("twin");
    let report = pool.rebalance().expect("clean rebalance");
    assert!(report.skew_after < skew_before);
    let rebalanced = pool.query(&task).expect("rebalanced");
    let offline = twin.query(&task).expect("twin");
    assert_eq!(rebalanced.indices, offline.indices);
    assert_eq!(rebalanced.value.to_bits(), offline.value.to_bits());
}

/// Checkpoints taken after a rebalance carry the remap table: a
/// restored pool keeps resolving pre-rebalance handles, bit-identically
/// to the live pool.
#[test]
fn restored_pools_resolve_pre_rebalance_handles() {
    let task = Task::new(Problem::RemoteEdge, 3).budget(Budget::KPrime(12));
    let (pool, ids) = skewed_pool(&task, 3, 24);
    pool.rebalance().expect("rebalance");

    let state = pool.checkpoint().expect("checkpoint");
    assert_eq!(state.remap.len(), 24, "the remap table is persisted");
    assert_eq!(state.router.shards, 3, "the shard count is stamped");

    // JSON and binary wire forms both carry it.
    let json = serde_json::to_string(&state).expect("serialize");
    let state: PoolState<VecPoint> = serde_json::from_str(&json).expect("parse");
    let restored = ShardPool::restore(Euclidean, state).expect("restore");
    for (i, &id) in ids.iter().enumerate() {
        assert_eq!(
            restored.point(id),
            Some(gen_point(i as u64)),
            "restored pool resolves old handle {id}"
        );
    }
    let live = pool.query(&task).expect("live");
    let replay = restored.query(&task).expect("restored");
    assert_eq!(replay.indices, live.indices);
    assert_eq!(replay.value.to_bits(), live.value.to_bits());
}

/// Satellite: the packed-`u64` boundary is typed, not corrupting.
#[test]
fn sharded_id_try_encode_refuses_unrepresentable_handles() {
    let id = |shard: usize, raw: u64| ShardedId {
        shard,
        id: diversity_serve::PointId::from_raw(raw),
    };
    // The exact boundary fits...
    assert_eq!(
        id(65_535, (1 << 48) - 1).try_encode(),
        Ok(((65_535u64) << 48) | ((1 << 48) - 1))
    );
    assert_eq!(id(0, 0).try_encode(), Ok(0));
    // ...one past it is refused with the typed error (the old unchecked
    // shift bled `raw` into the shard bits).
    assert_eq!(id(0, 1 << 48).try_encode(), Err(DivError::InvalidShards));
    assert_eq!(id(1 << 16, 0).try_encode(), Err(DivError::InvalidShards));
    assert_eq!(
        id(1 << 16, 1 << 48).try_encode(),
        Err(DivError::InvalidShards)
    );
    // Round trip at the boundary stays lossless.
    let edge = id(65_535, (1 << 48) - 1);
    assert_eq!(ShardedId::decode(edge.try_encode().unwrap()), edge);
}

/// Satellite: restore validates the router state's stamped shard count
/// and every remap target against the checkpoint it arrives in.
#[test]
fn restore_rejects_shard_count_and_remap_mismatches() {
    let task = Task::new(Problem::RemoteEdge, 3).budget(Budget::KPrime(12));
    let (pool, _) = skewed_pool(&task, 4, 20);
    let good = pool.checkpoint().expect("checkpoint");

    // A router state stamped over a different shard count than the
    // checkpoint holds would mis-route every stable-id placement.
    let mut mismatched = good.clone();
    mismatched.router.shards = 3;
    let err = ShardPool::restore(Euclidean, mismatched).expect_err("count mismatch");
    match &err {
        DivError::CorruptState { reason } => {
            assert!(
                reason.contains("checkpointed over 3 shards") && reason.contains("holds 4"),
                "names both counts: {reason}"
            );
        }
        other => panic!("got {other}"),
    }

    // A remap entry pointing at a shard the pool does not have.
    let mut dangling = good.clone();
    dangling.remap.push(diversity_serve::RemapEntry {
        from: 3,
        to: (9u64 << 48) | 1,
    });
    let err = ShardPool::restore(Euclidean, dangling).expect_err("dangling remap");
    assert!(
        matches!(&err, DivError::CorruptState { reason } if reason.contains("shard 9")),
        "got {err}"
    );

    // The untouched state still restores.
    ShardPool::restore(Euclidean, good).expect("clean state restores");
}

/// `maybe_rebalance` is a no-op on balanced and empty pools — the skew
/// sentinel fix (`occupancy_skew(&[]) == 1.0`) keeps "empty" on the
/// same side of every threshold as "balanced".
#[test]
fn balanced_and_empty_pools_never_trigger() {
    let task = Task::new(Problem::RemoteEdge, 3).budget(Budget::KPrime(12));
    let config = RebalanceConfig {
        threshold: 1.01,
        min_interval_ms: 0,
    };

    let empty: ShardPool<VecPoint, _> = task.serve(Euclidean, 4).expect("pool");
    assert_eq!(empty.maybe_rebalance(&config).expect("no-op"), None);

    let balanced: ShardPool<VecPoint, _> = task.serve(Euclidean, 4).expect("pool");
    for i in 0..40u64 {
        balanced
            .insert_to((i % 4) as usize, gen_point(i))
            .expect("seed");
    }
    assert_eq!(balanced.maybe_rebalance(&config).expect("no-op"), None);
    assert_eq!(balanced.rebalance_stats().rebalances, 0);
}
