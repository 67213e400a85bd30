//! # diversity-serve
//!
//! The **warm-path serving layer**: a long-lived pool of shards that
//! absorbs inserts and deletes continuously and answers `Task`-shaped
//! queries from maintained state — the fourth substrate beside the
//! facade's sequential, streaming and MapReduce runs, and the repo's
//! one fully dynamic engine (a one-shard pool is a fully dynamic set).
//!
//! The pieces:
//!
//! * [`ShardPool`] — `N` shards, each keeping round 1 of the paper's
//!   2-round MapReduce algorithm current: the prefix of
//!   `GMM(S_i, m + 1)` over its alive points, `m` the largest `k'`
//!   asked so far (the [`prefix`] module). Updates compute under one
//!   shard's read lock and publish under its write lock; queries read
//!   every shard's first `k'` centers, compose them with
//!   [`Coreset::merge`](diversity_core::coreset::Coreset::merge), and
//!   finish with the same combiner every sharded run uses. Answers are
//!   the standard [`diversity::Report`].
//! * [`Router`] — where updates land ([`RoundRobin`], [`HashRouter`],
//!   [`FnRouter`]); placement never affects soundness.
//! * [`rebalance`] — live shard rebalancing on router skew:
//!   [`ShardPool::maybe_rebalance`] quiesces the pool when
//!   [`ShardPool::skew`] crosses a [`RebalanceConfig`] threshold
//!   (`DIVMAX_REBALANCE`), re-partitions the consistent cut
//!   ([`rebalance_state`] — sound for *arbitrary* partitions by the
//!   paper's Definition 2), and swaps the rebuilt shard set in
//!   atomically; pre-rebalance [`ShardedId`]s keep resolving through
//!   a [`RemapEntry`] table.
//! * [`PoolState`] / [`ShardPool::checkpoint`] /
//!   [`ShardPool::restore`] — snapshots of the whole pool: per shard
//!   its points with ids, the start id and the next id
//!   ([`ShardState`]). The prefix is derived from them, so restored
//!   pools answer bit-identically and seeding costs `O(1)` per point.
//! * [`Serve`] — the extension trait that puts
//!   [`serve`](Serve::serve) on `diversity::Task`: the caller's opt-in
//!   to a persistent handle whose answers are tagged
//!   `Backend::ShardedDynamic`.
//! * [`churn`] — the reusable churn-stress driver the `serve_churn`
//!   test (and any downstream soak test) is built on, plus its chaos
//!   variant [`chaos_round`] for runs against a pool with a fault plan.
//!
//! ## Why a warm answer is exact
//!
//! A shard's answer for `k'` is its first `k'` centers (GMM-EXT
//! problems add each center's first `k - 1` cluster members), with
//! radius the `(k'+1)`-th insertion distance: every alive point of the
//! shard lies within it of those centers. The union of the shards'
//! answers certifies the union of their points within the largest
//! radius by Definition 2, whatever the placement. And because each
//! prefix equals a fresh traversal of its shard's part (start first,
//! then by id), the answer equals `two_round`'s on those parts, value
//! and selection bit for bit.
//!
//! ## Fault tolerance
//!
//! Each shard carries a [`ShardHealth`] state machine. A panicking
//! mutation is caught (`catch_unwind`), the shard is **quarantined**,
//! and recovery rebuilds it from the last checkpoint plus the log of
//! acknowledged operations — so no acknowledged write is ever lost and
//! a recovered shard answers bit-identically to one that never failed.
//! While shards are quarantined (or miss a [`ShardPool::query_within`]
//! deadline), queries **degrade** instead of failing: the surviving
//! shards' core-sets merge (dropping a shard from
//! [`Coreset::merge`](diversity_core::coreset::Coreset::merge) is
//! sound — the union of the survivors' artifacts is a valid core-set
//! of exactly the survivors' points) and the [`diversity::Report`]
//! carries a [`diversity::Degradation`] block scoping the certificate.
//! Deterministic fault injection lives in `diversity-faults`; a pool
//! rolls its injection points (named in [`ShardPool`]'s docs) only on
//! the plan handed to it with [`ShardPool::with_faults`].
//!
//! ## Cold vs warm
//!
//! ```text
//! cold  Task::run_mapreduce(parts, .., TwoRound)   GMM per part → merge → solve   (per query)
//! warm  Task::serve(..) → pool     [round 1 kept current across queries]
//!         pool.insert/delete       one shard: ≤ m distances, or a resume from the first changed step
//!         pool.query(&task)        read k' centers per shard → merge → solve
//! ```
//!
//! The `ablation_serve` bench records the gap; the cold path reruns
//! GMM over every part per query, while a warm query costs only the
//! core-set size.
//!
//! ## Quick start
//!
//! ```
//! use diversity::prelude::*;
//! use diversity_serve::Serve;
//!
//! let task = Task::new(Problem::RemoteEdge, 3).budget(Budget::KPrime(12));
//! let pool = task.serve(Euclidean, 4)?;
//!
//! // Traffic: routed inserts, deletes by handle.
//! let ids = pool.extend((0..40).map(|i| VecPoint::from([i as f64 * 2.0, 0.0])))?;
//! pool.delete(ids[0])?;
//!
//! // Warm-path answer with the composed certificate.
//! let report = pool.query(&task)?;
//! assert_eq!(report.len(), 3);
//! assert!(report.coreset_radius.is_some());
//! assert!(report.degradation.is_none()); // every shard answered
//!
//! // Snapshot and restore: bit-identical answers.
//! let restored = diversity_serve::ShardPool::restore(Euclidean, pool.checkpoint()?)?;
//! assert_eq!(restored.query(&task)?.value, report.value);
//! # Ok::<(), diversity::DivError>(())
//! ```

pub mod churn;
pub mod pool;
pub mod prefix;
pub mod rebalance;
pub mod router;
pub mod task_ext;
pub mod wire;

pub use churn::{
    assert_degradation_consistent, chaos_round, churn_round, env_ops, value_loss, ChaosOutcome,
    ChurnConfig, ChurnOutcome,
};
pub use pool::{PointId, PoolConfig, PoolState, ShardHealth, ShardPool, ShardState, ShardedId};
pub use prefix::ShardStats;
pub use rebalance::{
    rebalance_state, RebalanceConfig, RebalanceReport, RebalanceStats, RemapEntry,
};
pub use router::{occupancy_skew, FnRouter, HashRouter, RoundRobin, Router, RouterState};
pub use task_ext::Serve;
