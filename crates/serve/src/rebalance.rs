//! Live shard rebalancing: the pure re-partition behind
//! [`ShardPool::rebalance`](crate::ShardPool::rebalance).
//!
//! ## Why re-partitioning a quiesced cut is sound
//!
//! The paper's composability result (Definition 2, with the covering
//! argument of Lemmas 3–4) states the core-set law for **arbitrary**
//! partitions of the data: however the points are split across shards,
//! the union of the per-shard core-sets is a lawful core-set of the
//! whole, with radius `max_i r_i`. Nothing in the certificate depends
//! on *which* shard holds *which* point. A consistent cut of the pool
//! (every shard imaged under every shard's write lock — no mutation
//! can interleave) is therefore free to be re-split any way at all:
//! the re-partitioned pool holds exactly the same multiset of points,
//! so every extraction, merge, and combiner solve over it certifies
//! the same ground truth. [`rebalance_state`] exploits this to undo
//! router skew — it reassigns the cut's points greedily
//! (largest-donor-first into the currently least-occupied target,
//! deterministic given the cut) into one fresh shard state per shard.
//!
//! ## ID discipline
//!
//! Rebuilt shards assign fresh shard-local ids, so every alive point's
//! [`ShardedId`](crate::ShardedId) changes. Two guarantees
//! keep pre-rebalance handles safe:
//!
//! * **Remapping** — [`rebalance_state`] returns a [`RemapEntry`]
//!   table from each old encoded id to its new one; the pool folds it
//!   into its live remap table (composing with the table from earlier
//!   rebalances) so a handle issued *any* number of rebalances ago
//!   still resolves.
//! * **No reuse** — every rebuilt shard's id space is shifted past
//!   the largest `next_id` of the cut, so a fresh id can never collide
//!   with a handle issued before the rebalance. A stale handle to a
//!   point that died *before* the cut resolves to nothing (delete
//!   returns `false`, lookup `None`) instead of silently aliasing a
//!   different point.

use crate::pool::{PointId, PoolState, ShardState};
use diversity::DivError;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One entry of the rebalance remap table: a pre-rebalance encoded
/// [`ShardedId`](crate::ShardedId) and the encoded id the same point
/// carries now. Persisted inside [`PoolState`] so a restored pool
/// resolves old handles exactly like the live one.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RemapEntry {
    /// The encoded id a client may still hold.
    pub from: u64,
    /// The encoded id the point lives under now.
    pub to: u64,
}

/// When the pool acts on skew: the strict-parsed policy behind the
/// `DIVMAX_REBALANCE` environment knob
/// (`DIVMAX_REBALANCE=threshold=1.5,min_interval_ms=500`).
///
/// `threshold` is compared against [`crate::ShardPool::skew`]
/// (max/mean; `1.0` is perfectly balanced — and, since the skew
/// sentinel fix, so is an empty pool), so it must be a finite value
/// strictly above `1.0`. `min_interval_ms` (default `0`) bounds how
/// often [`maybe_rebalance`](crate::ShardPool::maybe_rebalance) will
/// act, so a churn storm that keeps skew high triggers one rebalance
/// per interval, not one per poll.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RebalanceConfig {
    /// Rebalance when `skew() >= threshold`. Finite, `> 1.0`.
    pub threshold: f64,
    /// Minimum milliseconds between rebalances (`0` = every poll may
    /// act).
    pub min_interval_ms: u64,
}

impl RebalanceConfig {
    /// Strict-parses a `key=value,key=value` spec (the
    /// `DIVMAX_REBALANCE` format). `threshold` is required; duplicate
    /// or unknown keys reject the whole spec — a typo must not
    /// half-apply a policy.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut threshold: Option<f64> = None;
        let mut min_interval_ms: Option<u64> = None;
        let mut seen: Vec<&str> = Vec::new();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                return Err("empty key=value entry".into());
            }
            let Some((key, value)) = part.split_once('=') else {
                return Err(format!("`{part}` is not a key=value pair"));
            };
            let key = key.trim();
            if seen.contains(&key) {
                return Err(format!("duplicate key `{key}`"));
            }
            match key {
                "threshold" => {
                    let trimmed = value.trim();
                    if trimmed.is_empty() || trimmed.starts_with('+') {
                        return Err(format!("threshold: not a number: `{trimmed}`"));
                    }
                    let v: f64 = trimmed
                        .parse()
                        .map_err(|_| format!("threshold: not a number: `{trimmed}`"))?;
                    if !v.is_finite() || v <= 1.0 {
                        return Err(format!(
                            "threshold {v} must be finite and > 1.0 (1.0 is perfectly balanced)"
                        ));
                    }
                    threshold = Some(v);
                }
                "min_interval_ms" => {
                    let v = diversity_obs::env::parse_u64(value)
                        .map_err(|why| format!("min_interval_ms: {why}"))?;
                    min_interval_ms = Some(v);
                }
                other => return Err(format!("unknown key `{other}`")),
            }
            seen.push(key);
        }
        let Some(threshold) = threshold else {
            return Err("missing required key `threshold`".into());
        };
        Ok(Self {
            threshold,
            min_interval_ms: min_interval_ms.unwrap_or(0),
        })
    }

    /// Reads `DIVMAX_REBALANCE`: `None` when unset **or** invalid
    /// (rejections are reported through
    /// [`diversity_obs::env::report_rejected`] — warn once, count
    /// always — and fall back to "no rebalancing", never to a guessed
    /// policy).
    pub fn from_env() -> Option<Self> {
        let raw = std::env::var("DIVMAX_REBALANCE").ok()?;
        match Self::parse(&raw) {
            Ok(config) => Some(config),
            Err(why) => {
                diversity_obs::env::report_rejected(
                    "DIVMAX_REBALANCE",
                    &raw,
                    &why,
                    "no rebalancing",
                );
                None
            }
        }
    }
}

/// What one committed rebalance did — returned by
/// [`crate::ShardPool::rebalance`] and recorded by the
/// `ablation_rebalance` bench.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RebalanceReport {
    /// [`crate::ShardPool::skew`] over the cut's occupancies.
    pub skew_before: f64,
    /// Skew of the freshly committed shard set.
    pub skew_after: f64,
    /// Alive points whose [`crate::ShardedId`] changed (the size of
    /// this pass's fresh remap).
    pub ids_remapped: usize,
    /// Wall time writers were fenced: from all shard write locks held
    /// to the swap commit.
    pub pause: std::time::Duration,
}

/// Rolling rebalance counters for monitoring (`Stats` over the wire):
/// how many rebalances have committed and the skew the latest one saw
/// before/after. Zeroes (`0`, `0.0`, `0.0`) mean "never rebalanced".
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RebalanceStats {
    /// Committed rebalances over this pool's lifetime.
    pub rebalances: u64,
    /// Skew the most recent rebalance started from.
    pub last_skew_before: f64,
    /// Skew the most recent rebalance ended at.
    pub last_skew_after: f64,
}

/// Re-partitions a consistent cut: the **pure** core of
/// [`crate::ShardPool::rebalance`], exposed so tests (and offline
/// tooling — the cut is just bytes) can build the never-rebalanced
/// twin a live rebalance must answer bit-identically to.
///
/// Deterministic given the cut: donor shards are visited in descending
/// occupancy (ties: lower index first), their alive points in
/// ascending id, and each point lands in the currently
/// least-occupied target shard (ties: lowest index) — greedy
/// largest-first, which leaves target occupancies within one point of
/// each other, i.e. skew as close to `1.0` as the population allows.
/// The shard *count* is preserved; only placement changes.
///
/// Returns the re-partitioned [`PoolState`] — router state carried
/// over verbatim, `remap` already composed with the cut's own table so
/// handles from *earlier* rebalances keep resolving — plus this pass's
/// fresh remap (one entry per alive point whose id changed), whose
/// length is what the `serve.ids_remapped` counter reports.
///
/// Soundness (Definition 2): the output holds exactly the same
/// multiset of points as the cut, so restoring it yields a pool whose
/// every extraction/merge/solve certifies the same ground truth — see
/// the module docs.
pub fn rebalance_state<P: Clone>(
    cut: &PoolState<P>,
) -> Result<(PoolState<P>, Vec<RemapEntry>), DivError> {
    let shards = cut.shards.len();
    if shards == 0 {
        return Err(DivError::CorruptState {
            reason: "pool checkpoint holds no shards".into(),
        });
    }
    let (epsilon, dim) = (cut.shards[0].epsilon, cut.shards[0].dim);
    // Fresh ids must never collide with any id the cut could have
    // issued: shift every rebuilt shard's id space past the largest
    // allocator position in the cut.
    let base = cut.shards.iter().map(|s| s.next_id).max().unwrap_or(0);

    // Alive points per donor shard, ascending by id (the checkpoint
    // stores them in that order, but sort anyway — the assignment
    // order below is contract).
    let mut donors: Vec<(usize, Vec<(u64, P)>)> = Vec::with_capacity(shards);
    for (shard, s) in cut.shards.iter().enumerate() {
        if s.epsilon != epsilon || s.dim != dim {
            return Err(DivError::CorruptState {
                reason: format!("shard {shard} checkpointed under a different configuration"),
            });
        }
        if s.ids.len() != s.points.len() {
            return Err(DivError::CorruptState {
                reason: format!(
                    "shard {shard}: {} ids for {} points",
                    s.ids.len(),
                    s.points.len()
                ),
            });
        }
        let mut alive: Vec<(u64, P)> = s.ids.iter().copied().zip(s.points.clone()).collect();
        alive.sort_by_key(|(id, _)| *id);
        donors.push((shard, alive));
    }
    // Largest donor first; ties broken toward the lower shard index.
    donors.sort_by(|(ia, a), (ib, b)| b.len().cmp(&a.len()).then(ia.cmp(ib)));

    // Greedy assignment into the currently least-occupied target.
    let mut assigned: Vec<Vec<(u64, P)>> = (0..shards).map(|_| Vec::new()).collect();
    for (donor, alive) in donors {
        for (local_id, point) in alive {
            let target = assigned
                .iter()
                .enumerate()
                .min_by_key(|(i, bucket)| (bucket.len(), *i))
                .map(|(i, _)| i)
                .expect("shards >= 1");
            let from = crate::ShardedId {
                shard: donor,
                id: PointId::from_raw(local_id),
            }
            .try_encode()?;
            assigned[target].push((from, point));
        }
    }

    // One shard per target, as if its points were inserted in order
    // into an empty shard whose id space starts at `base`: ids
    // `base, base + 1, ...`, the first of them the start.
    let mut states = Vec::with_capacity(shards);
    let mut fresh = Vec::new();
    for (target, bucket) in assigned.into_iter().enumerate() {
        let mut ids = Vec::with_capacity(bucket.len());
        let mut points = Vec::with_capacity(bucket.len());
        for (from, point) in bucket {
            let id = base + ids.len() as u64;
            let to = crate::ShardedId {
                shard: target,
                id: PointId::from_raw(id),
            }
            .try_encode()?;
            fresh.push(RemapEntry { from, to });
            ids.push(id);
            points.push(point);
        }
        states.push(ShardState {
            start: ids.first().copied(),
            next_id: base + ids.len() as u64,
            ids,
            points,
            epsilon,
            dim,
        });
    }

    // Compose with the cut's own remap so handles from *earlier*
    // rebalances follow their points one more hop; entries whose
    // target died before this cut are dropped (they resolve to
    // nothing, which is correct — the point is gone).
    let this_pass: HashMap<u64, u64> = fresh.iter().map(|e| (e.from, e.to)).collect();
    let mut remap: Vec<RemapEntry> = fresh.clone();
    for old in &cut.remap {
        if let Some(&to) = this_pass.get(&old.to) {
            remap.push(RemapEntry { from: old.from, to });
        }
    }
    remap.sort_by_key(|e| e.from);

    Ok((
        PoolState {
            shards: states,
            router: cut.router.clone(),
            remap,
        },
        fresh,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_strictly() {
        assert_eq!(
            RebalanceConfig::parse("threshold=1.5,min_interval_ms=500"),
            Ok(RebalanceConfig {
                threshold: 1.5,
                min_interval_ms: 500,
            })
        );
        assert_eq!(
            RebalanceConfig::parse("threshold=2"),
            Ok(RebalanceConfig {
                threshold: 2.0,
                min_interval_ms: 0,
            })
        );
        // Whitespace around keys and values is tolerated.
        assert_eq!(
            RebalanceConfig::parse(" threshold = 1.25 , min_interval_ms = 7 "),
            Ok(RebalanceConfig {
                threshold: 1.25,
                min_interval_ms: 7,
            })
        );
    }

    #[test]
    fn spec_rejections() {
        for bad in [
            "",
            "threshold",
            "threshold=",
            "threshold=balanced",
            "threshold=+1.5",
            "threshold=1.0", // 1.0 is perfectly balanced — would always fire
            "threshold=0.5", // below balanced
            "threshold=inf", // not finite
            "threshold=NaN",
            "min_interval_ms=500",               // threshold is required
            "threshold=1.5,threshold=2.0",       // duplicate key
            "threshold=1.5,min_interval=5",      // unknown key
            "threshold=1.5,min_interval_ms=-1",  // negative interval
            "threshold=1.5,min_interval_ms=1.5", // fractional interval
            "threshold=1.5,,min_interval_ms=5",  // empty entry
        ] {
            assert!(
                RebalanceConfig::parse(bad).is_err(),
                "accepted garbage spec {bad:?}"
            );
        }
    }
}
