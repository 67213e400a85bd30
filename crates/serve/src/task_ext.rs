//! `Task::serve` — the front door's opt-in to a persistent warm-path
//! handle.
//!
//! `diversity::Task` cannot name [`ShardPool`] itself (the serve crate
//! sits above the facade), so the method arrives through an extension
//! trait: `use diversity_serve::Serve;` and every `Task` gains
//! [`serve`](Serve::serve) / [`serve_seeded`](Serve::serve_seeded).

use crate::pool::{PoolConfig, ShardPool};
use diversity::{Budget, DivError, Task};
use diversity_mapreduce::Partitions;
use metric::Metric;

/// Extension trait giving [`Task`] the persistent-handle entry point
/// into the serving layer. Where `Task::run_mapreduce` with
/// `Strategy::TwoRound` runs the 2-round job over every part for one
/// query, `serve` hands back the long-lived [`ShardPool`] whose shards
/// keep that job's round 1 current, so updates amortize and queries
/// read the maintained prefixes ([`ShardPool::query`]). A one-shard
/// pool is the fully dynamic set: inserts, deletes and queries on one
/// maintained traversal.
pub trait Serve {
    /// An empty pool of `shards` shards, configured from this task's
    /// budget: [`Budget::Eps`] seeds the pool's [`PoolConfig`] with
    /// the target `ε` and dimension (so `Auto` budgets agree with the
    /// task's accuracy intent); other budgets use the default.
    /// Feed traffic with [`ShardPool::insert`]/[`delete`](ShardPool::delete),
    /// answer with [`ShardPool::query`]`(&task)`.
    fn serve<P, M>(&self, metric: M, shards: usize) -> Result<ShardPool<P, M>, DivError>
    where
        P: Clone + Send + Sync,
        M: Metric<P> + Clone;

    /// A pool pre-loaded from an existing partitioning — one shard per
    /// part, points inserted in part order — so a cold 2-round
    /// deployment can hand its data layout to the warm path. At the
    /// quiescent point right after seeding, `pool.query(&task)` returns
    /// what `task.run_mapreduce(&parts, .., Strategy::TwoRound)`
    /// returns, bit for bit (provenance and backend tag differ: the
    /// pool speaks [`crate::ShardedId`]s, the cold path original input
    /// positions).
    fn serve_seeded<P, M>(
        &self,
        partitions: &Partitions<P>,
        metric: M,
    ) -> Result<ShardPool<P, M>, DivError>
    where
        P: Clone + Send + Sync,
        M: Metric<P> + Clone;
}

impl Serve for Task {
    fn serve<P, M>(&self, metric: M, shards: usize) -> Result<ShardPool<P, M>, DivError>
    where
        P: Clone + Send + Sync,
        M: Metric<P> + Clone,
    {
        if self.k() == 0 {
            return Err(DivError::InvalidK { k: 0, n: None });
        }
        if shards == 0 {
            return Err(DivError::InvalidShards);
        }
        let config = match self.budget_spec() {
            Budget::Eps { eps, dim } => PoolConfig { epsilon: eps, dim },
            _ => PoolConfig::default(),
        };
        // Budget validation up front: a pool that can never answer its
        // own task (cap < k, eps out of range) is refused here, not at
        // the first query.
        config.k_prime(self)?;
        Ok(ShardPool::with_config(metric, config, shards))
    }

    fn serve_seeded<P, M>(
        &self,
        partitions: &Partitions<P>,
        metric: M,
    ) -> Result<ShardPool<P, M>, DivError>
    where
        P: Clone + Send + Sync,
        M: Metric<P> + Clone,
    {
        if partitions.parts.is_empty() {
            return Err(DivError::InvalidShards);
        }
        let pool = self.serve(metric, partitions.parts.len())?;
        for (shard, part) in partitions.parts.iter().enumerate() {
            for point in part {
                pool.insert_to(shard, point.clone())?;
            }
        }
        Ok(pool)
    }
}
