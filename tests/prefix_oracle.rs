//! The serving pool against its oracle, the paper's 2-round MapReduce
//! algorithm.
//!
//! Each pool shard keeps round 1 of `two_round` current: the prefix of
//! the farthest-point traversal over its alive points, listed start
//! first, then by id. So at every quiescent point a warm query must
//! equal `two_round` over those parts, bit for bit — value, radius,
//! core-set size and the selected points (pool handles mapped to the
//! parts' positions) — for all six problems.
//!
//! * **Churn law** (proptest): random interleavings of inserts, deletes
//!   (of alive points, of centers, of a shard's start, of ids never
//!   issued) and queries whose `k'` grows, on 1–4 shards, over
//!   tie-heavy integer grids with duplicates (d = 1..3) and an 8-D
//!   sphere shell. After every op, `ShardPool::validate` checks each
//!   prefix against `gmm_plain` from the shard's start; after every
//!   query the answers match `two_round`. Shards drain to empty and
//!   `k'` passes shard sizes along the way.
//! * **Twin laws under the oracle**: a restored checkpoint, a
//!   recovered shard and a live rebalance each answer like `two_round`
//!   on their own parts.
//! * **An expiring window**: a one-shard pool under FIFO churn answers
//!   every refresh like `two_round` on the window.
//! * **The adversarial order**: inserting by decreasing norm makes
//!   every insert recompute the traversal — the case a cover hierarchy
//!   bounds and the prefix gives up.

use diversity::mapreduce::{two_round::two_round, MapReduceRuntime, Partitions};
use diversity::prelude::*;
use diversity_serve::{rebalance_state, PointId, PoolState, ShardPool, ShardedId};
use proptest::prelude::*;
use std::collections::VecDeque;

type Pool = ShardPool<VecPoint, Euclidean>;

fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(0x94D0_49BB_1331_11EB);
    z ^= z >> 30;
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    z ^ (z >> 31)
}

/// The `i`-th point of input family `family`: integer grids with
/// coordinates in `0..4` for d = 1, 2, 3 (ties and exact duplicates
/// everywhere), or a point of an 8-D sphere shell.
fn point(family: u8, seed: u64, i: u64) -> VecPoint {
    if family < 3 {
        let dim = family as u64 + 1;
        VecPoint::new(
            (0..dim)
                .map(|j| (mix(seed, i * 4 + j) % 4) as f64)
                .collect(),
        )
    } else {
        let chunk = datasets::sphere_shell(64, 4, 8, mix(seed, i / 64)).0;
        chunk[(i % 64) as usize].clone()
    }
}

/// `two_round`'s view of a pool: per shard its alive points, start
/// first, then by id, and for each position the pool handle.
fn parts_of(state: &PoolState<VecPoint>) -> (Partitions<VecPoint>, Vec<u64>) {
    let mut parts = Partitions {
        parts: Vec::new(),
        global_indices: Vec::new(),
    };
    let mut handles = Vec::new();
    for (shard, s) in state.shards.iter().enumerate() {
        let mut order: Vec<usize> = (0..s.ids.len()).collect();
        if let Some(start) = s.start {
            let at = s.ids.binary_search(&start).expect("the start is alive");
            order.remove(at);
            order.insert(0, at);
        }
        let mut part = Vec::new();
        let mut globals = Vec::new();
        for i in order {
            globals.push(handles.len());
            handles.push(
                ShardedId {
                    shard,
                    id: PointId::from_raw(s.ids[i]),
                }
                .encode(),
            );
            part.push(s.points[i].clone());
        }
        parts.parts.push(part);
        parts.global_indices.push(globals);
    }
    (parts, handles)
}

/// Every problem's warm answer equals `two_round` on the pool's parts.
fn assert_matches_two_round(pool: &Pool, k: usize, k_prime: usize) -> Result<(), TestCaseError> {
    let state = pool.checkpoint().expect("healthy pool");
    let (parts, handles) = parts_of(&state);
    if handles.is_empty() {
        return Ok(());
    }
    let k = k.min(handles.len());
    let k_prime = k_prime.max(k);
    let rt = MapReduceRuntime::with_threads(2);
    for problem in Problem::ALL {
        let task = Task::new(problem, k).budget(Budget::KPrime(k_prime));
        let warm = pool.query(&task).expect("warm answer");
        let cold = two_round(problem, &parts, &Euclidean, k, k_prime, &rt);
        prop_assert_eq!(
            warm.value.to_bits(),
            cold.solution.value.to_bits(),
            "{} value, k={} k'={}",
            problem,
            k,
            k_prime
        );
        prop_assert_eq!(
            warm.coreset_radius.map(f64::to_bits),
            Some(cold.coreset_radius.to_bits()),
            "{} radius",
            problem
        );
        prop_assert_eq!(warm.coreset_size, cold.solve_input_size, "{} size", problem);
        let mapped: Vec<u64> = cold.solution.indices.iter().map(|&g| handles[g]).collect();
        let indices: Vec<u64> = warm.indices.iter().map(|&i| i as u64).collect();
        prop_assert_eq!(indices, mapped, "{} selection", problem);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn warm_answers_equal_two_round_through_churn(
        family in 0u8..4,
        shards in 1usize..5,
        seed in 0u64..1_000_000,
        ops in proptest::collection::vec((0u8..10, 0u64..1_000_000), 30..140),
    ) {
        let pool: Pool = ShardPool::new(Euclidean, shards);
        let mut issued = 0u64;
        let mut next_point = || {
            issued += 1;
            point(family, seed, issued)
        };
        for i in 0..3 * shards {
            pool.insert_to(i % shards, next_point()).expect("seed");
        }
        let (k, mut k_prime) = (3, 2);
        pool.validate();
        for (op, r) in ops {
            match op {
                0..=4 => {
                    pool.insert_to(r as usize % shards, next_point()).expect("insert");
                }
                5 => {
                    let alive = pool.alive();
                    if !alive.is_empty() {
                        let id = alive[r as usize % alive.len()].0;
                        prop_assert!(pool.delete(id).expect("delete"));
                    }
                }
                6 => {
                    // A center of the widest prefix any query asked for.
                    let centers = pool.coreset(Problem::RemoteEdge, 1, k_prime);
                    if !centers.is_empty() {
                        let src = centers.sources()[r as usize % centers.len()];
                        prop_assert!(pool.delete(ShardedId::decode(src)).expect("delete"));
                    }
                }
                7 => {
                    let state = pool.checkpoint().expect("healthy pool");
                    let shard = r as usize % shards;
                    if let Some(start) = state.shards[shard].start {
                        let id = ShardedId { shard, id: PointId::from_raw(start) };
                        prop_assert!(pool.delete(id).expect("delete"));
                    }
                }
                8 => {
                    let never = ShardedId {
                        shard: r as usize % shards,
                        id: PointId::from_raw((1 << 40) + r),
                    };
                    prop_assert!(!pool.delete(never).expect("delete"));
                }
                _ => {
                    k_prime += 1 + r as usize % 6;
                    assert_matches_two_round(&pool, k, k_prime)?;
                }
            }
            pool.validate();
        }
        assert_matches_two_round(&pool, k, k_prime)?;

        // Restore: the checkpoint's parts, the same answers.
        let restored = ShardPool::restore(Euclidean, pool.checkpoint().expect("checkpoint"))
            .expect("own checkpoint restores");
        assert_matches_two_round(&restored, k, k_prime)?;
        restored.validate();

        // Recovery: a quarantined shard rebuilds from base + log.
        for i in 0..5 {
            pool.insert_to(0, next_point()).expect("insert");
            if i % 2 == 1 {
                let id = pool.alive()[0].0;
                pool.delete(id).expect("delete");
            }
        }
        pool.quarantine(0);
        pool.recover(0).expect("recover");
        pool.validate();
        assert_matches_two_round(&pool, k, k_prime)?;

        // Rebalance: the live pool and the offline re-partition of the
        // same cut both answer like `two_round` on the new parts.
        let cut = pool.checkpoint_consistent().expect("cut");
        let twin = ShardPool::restore(Euclidean, rebalance_state(&cut).expect("re-partition").0)
            .expect("twin");
        pool.rebalance().expect("rebalance");
        pool.validate();
        assert_matches_two_round(&pool, k, k_prime)?;
        assert_matches_two_round(&twin, k, k_prime)?;
        prop_assert_eq!(
            pool.checkpoint().expect("checkpoint").shards,
            twin.checkpoint().expect("checkpoint").shards
        );
    }
}

/// An empty shard contributes the merge identity, and `k'` at or past
/// a shard's size selects the whole shard: both still equal
/// `two_round`.
#[test]
fn empty_shards_and_k_prime_past_shard_sizes_match_two_round() {
    let pool: Pool = ShardPool::new(Euclidean, 3);
    for i in 0..3 {
        pool.insert_to(2, point(3, 7, 200 + i)).expect("insert");
    }
    for i in 0..25 {
        pool.insert_to(0, point(3, 7, i)).expect("insert");
    }
    let doomed = pool.insert_to(1, point(3, 7, 99)).expect("insert");
    assert!(pool.delete(doomed).expect("delete"));
    assert_eq!(pool.shard_len(1), 0);
    for k_prime in [2, 3, 4, 25, 40] {
        assert_matches_two_round(&pool, 2, k_prime).expect("matches two_round");
        pool.validate();
    }
}

/// A sliding window of the last `window` arrivals on a one-shard pool:
/// each delete removes the oldest point, the first of them the shard's
/// start. Every refresh equals `two_round` on the window.
#[test]
fn fifo_window_matches_two_round() {
    let (k, k_prime, window) = (6, 48, 300);
    let (stream, _) = datasets::sphere_shell(1_500, k, 3, 99);
    let pool: Pool = ShardPool::new(Euclidean, 1);
    let mut live = VecDeque::new();
    for (t, p) in stream.into_iter().enumerate() {
        live.push_back(pool.insert(p).expect("insert"));
        if live.len() > window {
            let oldest = live.pop_front().expect("window non-empty");
            assert!(pool.delete(oldest).expect("delete"), "t={t}: oldest alive");
        }
        pool.validate();
        if t >= window && t % 250 == 0 {
            assert_matches_two_round(&pool, k, k_prime).expect("matches two_round");
        }
    }
    assert_eq!(pool.len(), window);
}

/// Inserting by decreasing norm along a ray makes every new point the
/// farthest from the start, so every insert resumes the traversal from
/// step 1: `m - 1` steps over the whole shard, against `m` distances for
/// an insert that changes nothing. The prefix stays exact all the way.
#[test]
fn inserting_by_decreasing_norm_recomputes_on_every_insert() {
    let (n, k_prime) = (400u64, 16);
    let pool: Pool = ShardPool::new(Euclidean, 1);
    let ray = |i: u64| VecPoint::from([(n - i) as f64, 0.5 * (n - i) as f64]);
    pool.insert(ray(0)).expect("insert");
    pool.insert(ray(1)).expect("insert");
    let task = Task::new(Problem::RemoteEdge, 2).budget(Budget::KPrime(k_prime));
    for i in 2..n {
        pool.insert(ray(i)).expect("insert");
        if i as usize == k_prime {
            // Grow the prefix to k' once the shard can hold it.
            pool.query(&task).expect("query");
        }
    }
    pool.validate();
    let stats = pool.shard_stats()[0];
    let adversarial = n - 1 - k_prime as u64;
    assert!(
        stats.orphans_rehomed > adversarial,
        "{} recomputes for {adversarial} inserts past the growth",
        stats.orphans_rehomed
    );
    // Each of those recomputes relaxes the whole shard for m - 1 steps.
    let per_insert = stats.distance_evals as f64 / stats.inserts as f64;
    assert!(
        per_insert > (k_prime as f64 - 1.0) * n as f64 / 3.0,
        "{per_insert} distance evaluations per insert"
    );
    assert_matches_two_round(&pool, 4, k_prime).expect("matches two_round");
}
