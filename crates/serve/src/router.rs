//! Shard routing: which shard absorbs an update.
//!
//! Routing only affects *which* shard a point lands in, never the
//! answer's soundness — the warm-path certificate composes as the max
//! of the per-shard radii whatever the placement (Definition 2), so a
//! router is free to optimize for balance (round-robin), affinity
//! (hashing), or anything else. It must be [`Sync`]: the pool routes
//! from many writer threads concurrently.
//!
//! Routers are **checkpointable**: [`Router::checkpoint`] produces a
//! serde-able [`RouterState`] persisted inside the pool's `PoolState`,
//! and [`Router::restore`] re-applies it. The state always carries the
//! router's [`kind`](Router::kind) — even for stateless routers — so a
//! restored pool can detect that it was checkpointed under a different
//! placement discipline (silently switching e.g. from hash affinity to
//! round-robin would not be unsound, but it would break every placement
//! expectation downstream) and hold the state for the matching router
//! to be [re-attached](crate::ShardPool::with_router).
//!
//! Routers also own the **skew policy**: [`Router::skew`] condenses a
//! shard-occupancy vector into one imbalance figure — the hook a future
//! rebalancer keys off. The default ([`occupancy_skew`]) is
//! `max/mean`: `1.0` is perfectly balanced, `2.0` means the fullest
//! shard holds twice its fair share.

use serde::{Deserialize, Serialize};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// The serde-able checkpoint of a [`Router`], persisted in
/// `PoolState`. Every router records its [`kind`](Router::kind);
/// stateful routers additionally use `cursor` (the round-robin
/// position; `0` for stateless kinds).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouterState {
    /// Stable identifier of the router implementation
    /// ([`Router::kind`]), e.g. `"round-robin"`, `"hash"`, `"fn"`.
    pub kind: String,
    /// Opaque cursor for stateful routers (`0` when unused).
    pub cursor: u64,
    /// The shard count this router was routing over when the
    /// checkpoint was taken. Routers themselves don't know it (the
    /// count is a pool property, passed to every [`Router::route`]
    /// call), so [`Router::checkpoint`] records `0` and the pool
    /// overwrites it with the real count. `ShardPool::restore`
    /// cross-checks it against the shard-state vector: a `HashRouter`
    /// checkpointed over 4 shards mis-routes every stable-id placement
    /// if silently restored over 3.
    pub shards: u64,
}

/// `max / mean` of a shard-occupancy vector: `1.0` is perfectly
/// balanced, larger means the fullest shard holds that multiple of its
/// fair share. An empty (or all-empty) pool also reports `1.0`: there
/// is nothing to move, so it is as balanced as a pool can be. (It used
/// to report `0.0`, which sat on the *opposite* side of every
/// rebalance threshold from "balanced" — a threshold rebalancer would
/// read an empty pool as maximally calm and a freshly-balanced one as
/// infinitely calmer, an inversion that mattered the moment `skew()`
/// started driving action.) This is the default [`Router::skew`]
/// policy.
pub fn occupancy_skew(occupancy: &[usize]) -> f64 {
    let total: usize = occupancy.iter().sum();
    if occupancy.is_empty() || total == 0 {
        return 1.0;
    }
    let max = *occupancy.iter().max().expect("non-empty") as f64;
    let mean = total as f64 / occupancy.len() as f64;
    max / mean
}

/// Chooses a shard in `0..shards` for an incoming point.
pub trait Router<P>: Send + Sync {
    /// The shard `point` should be inserted into. `shards` is always
    /// ≥ 1; the result must be `< shards`.
    fn route(&self, point: &P, shards: usize) -> usize;

    /// Stable identifier of this router implementation, recorded in
    /// every checkpoint so restores can match placement disciplines.
    fn kind(&self) -> &'static str;

    /// The router state to persist in a pool checkpoint. Stateless
    /// routers record just their [`kind`](Self::kind). The
    /// [`shards`](RouterState::shards) field is left `0` here — the
    /// pool stamps the real count onto every checkpoint it emits.
    fn checkpoint(&self) -> RouterState {
        RouterState {
            kind: self.kind().to_string(),
            cursor: 0,
            shards: 0,
        }
    }

    /// Re-applies state persisted by [`checkpoint`](Self::checkpoint).
    /// Returns `false` (and must change nothing) when `state` belongs
    /// to a different router kind — the caller decides whether to hold
    /// the state for the matching router or proceed fresh.
    fn restore(&self, state: &RouterState) -> bool {
        state.kind == self.kind()
    }

    /// Condenses a shard-occupancy vector into one imbalance figure —
    /// the rebalancing hook. The default is [`occupancy_skew`]
    /// (`max/mean`); a router with domain knowledge (e.g. weighted
    /// tenants) can substitute its own measure.
    fn skew(&self, occupancy: &[usize]) -> f64 {
        occupancy_skew(occupancy)
    }
}

/// Cycles through the shards — the balanced default. The cursor is a
/// relaxed atomic: placement order under concurrent writers is
/// scheduling-dependent (and immaterial for correctness), but every
/// shard receives within one point of an equal share.
#[derive(Debug, Default)]
pub struct RoundRobin {
    cursor: AtomicU64,
}

impl RoundRobin {
    /// A router starting at shard 0.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<P> Router<P> for RoundRobin {
    fn route(&self, _point: &P, shards: usize) -> usize {
        (self.cursor.fetch_add(1, Ordering::Relaxed) % shards as u64) as usize
    }

    fn kind(&self) -> &'static str {
        "round-robin"
    }

    fn checkpoint(&self) -> RouterState {
        RouterState {
            kind: Router::<P>::kind(self).to_string(),
            cursor: self.cursor.load(Ordering::Relaxed),
            shards: 0,
        }
    }

    fn restore(&self, state: &RouterState) -> bool {
        if state.kind != Router::<P>::kind(self) {
            return false;
        }
        self.cursor.store(state.cursor, Ordering::Relaxed);
        true
    }
}

/// Routes by the point's own hash — stateless, so equal points always
/// land in the same shard (useful when traffic carries natural keys:
/// strings under the Levenshtein metric, bitsets, ids).
#[derive(Clone, Copy, Debug, Default)]
pub struct HashRouter;

impl<P: Hash> Router<P> for HashRouter {
    fn route(&self, point: &P, shards: usize) -> usize {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        point.hash(&mut h);
        (h.finish() % shards as u64) as usize
    }

    fn kind(&self) -> &'static str {
        "hash"
    }
}

/// Routes through a caller-supplied function of the point — the escape
/// hatch for geometry-aware or tenant-aware placement.
pub struct FnRouter<F>(pub F);

impl<P, F> Router<P> for FnRouter<F>
where
    F: Fn(&P) -> u64 + Send + Sync,
{
    fn route(&self, point: &P, shards: usize) -> usize {
        ((self.0)(point) % shards as u64) as usize
    }

    fn kind(&self) -> &'static str {
        "fn"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_balances_and_checkpoints() {
        let r = RoundRobin::new();
        let picks: Vec<usize> = (0..7).map(|_| Router::<u32>::route(&r, &0, 3)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2, 0]);
        let state = Router::<u32>::checkpoint(&r);
        assert_eq!(state.kind, "round-robin");
        assert_eq!(state.cursor, 7);
        let fresh = RoundRobin::new();
        assert!(Router::<u32>::restore(&fresh, &state));
        assert_eq!(Router::<u32>::route(&fresh, &0, 3), 1);
    }

    #[test]
    fn restore_refuses_foreign_kinds() {
        let r = RoundRobin::new();
        let foreign = RouterState {
            kind: "hash".into(),
            cursor: 9,
            shards: 0,
        };
        assert!(!Router::<u32>::restore(&r, &foreign));
        // Nothing changed: the cursor still starts at shard 0.
        assert_eq!(Router::<u32>::route(&r, &0, 3), 0);
    }

    #[test]
    fn hash_router_is_stable_per_point() {
        let r = HashRouter;
        let a = r.route(&"alpha", 5);
        assert_eq!(a, r.route(&"alpha", 5));
        assert!(a < 5);
        let state = Router::<&str>::checkpoint(&r);
        assert_eq!(state.kind, "hash");
        assert_eq!(state.cursor, 0);
        assert!(Router::<&str>::restore(&r, &state));
    }

    #[test]
    fn fn_router_applies_the_function() {
        let r = FnRouter(|x: &u64| *x);
        assert_eq!(r.route(&10, 4), 2);
        assert_eq!(r.route(&3, 4), 3);
        assert_eq!(Router::<u64>::kind(&r), "fn");
    }

    #[test]
    fn skew_is_max_over_mean() {
        let r = RoundRobin::new();
        assert_eq!(Router::<u32>::skew(&r, &[5, 5, 5]), 1.0);
        // 12 points, 3 shards, fullest holds 8 = 2x its fair share.
        assert_eq!(Router::<u32>::skew(&r, &[8, 2, 2]), 2.0);
        assert_eq!(occupancy_skew(&[1]), 1.0);
    }

    /// Regression: empty and all-empty pools report `1.0` — the same
    /// side of any rebalance threshold as "perfectly balanced". The
    /// old `0.0` sentinel inverted the scale for exactly the state a
    /// threshold rebalancer most needs to leave alone.
    #[test]
    fn empty_and_balanced_sit_on_the_same_side_of_any_threshold() {
        let r = RoundRobin::new();
        assert_eq!(Router::<u32>::skew(&r, &[]), 1.0);
        assert_eq!(Router::<u32>::skew(&r, &[0, 0, 0]), 1.0);
        assert_eq!(occupancy_skew(&[]), 1.0);
        assert_eq!(occupancy_skew(&[0]), 1.0);
        assert_eq!(occupancy_skew(&[0, 0, 0, 0]), 1.0);
        // Every skewed pool strictly exceeds every balanced/empty one.
        for balanced in [
            occupancy_skew(&[]),
            occupancy_skew(&[0, 0]),
            occupancy_skew(&[7, 7]),
        ] {
            assert!(occupancy_skew(&[9, 1]) > balanced);
        }
    }
}
