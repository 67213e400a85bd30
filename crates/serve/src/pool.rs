//! The long-lived shard pool — the warm path, whose answers are tagged
//! `Backend::ShardedDynamic` — with per-shard fault isolation: panic
//! quarantine, checkpoint+log recovery, and certified degraded answers
//! when shards drop out.

use crate::prefix::{Prefix, Removal, ShardStats};
use crate::rebalance::{
    rebalance_state, RebalanceConfig, RebalanceReport, RebalanceStats, RemapEntry,
};
use crate::router::{RoundRobin, Router, RouterState};
use diversity::{Backend, Degradation, DivError, Report, StageMemory, StageTiming, Task};
use diversity_core::coreset::Coreset;
use diversity_core::Problem;
use diversity_faults::{self as faults, FaultPlan};
use diversity_mapreduce::two_round::solve_union;
use diversity_mapreduce::MapReduceRuntime;
use metric::Metric;
use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Process-wide pool id source: every pool gets a distinct telemetry
/// namespace (`serve.pool{id}.shard{i}.occupancy`), so concurrently
/// live pools — parallel tests, blue/green serving — never write each
/// other's gauges.
static NEXT_POOL_ID: AtomicUsize = AtomicUsize::new(0);

/// Precomputed per-shard gauge names for one pool: publishing a gauge
/// on the insert/delete path must not allocate.
fn occupancy_gauge_names(pool_id: usize, shards: usize) -> Vec<String> {
    (0..shards)
        .map(|i| format!("serve.pool{pool_id}.shard{i}.occupancy"))
        .collect()
}

/// Bits of a [`ShardedId`] encoding reserved for the shard-local
/// [`PointId`]; the remaining high bits carry the shard index.
const RAW_BITS: u32 = 48;

/// A shard-local point handle. A shard issues ids counting up from 0
/// in insertion order and never reuses one after a delete, so on a
/// shard that has only seen inserts the id is the insertion position.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PointId(u64);

impl PointId {
    /// The numeric id.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Reassembles a handle from its [`raw`](Self::raw) value, as
    /// [`ShardedId::decode`] does for ids shipped over the wire. A raw
    /// value that was never issued, or whose point was deleted, names
    /// no alive point: deletes and lookups report it as absent.
    pub fn from_raw(raw: u64) -> Self {
        Self(raw)
    }
}

impl std::fmt::Display for PointId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A pool-wide point handle: the shard a point lives in plus its
/// shard-local [`PointId`]. Encodes into a single `u64` (shard in the
/// high 16 bits, shard id in the low 48) — the provenance the pool's
/// extracted [`Coreset`]s and [`Report`] indices carry, so a selected
/// point can always be traced back to its shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShardedId {
    /// Index of the owning shard.
    pub shard: usize,
    /// The shard-local handle.
    pub id: PointId,
}

impl ShardedId {
    /// Packs the handle into one `u64`: `shard << 48 | raw`.
    ///
    /// # Panics
    /// Panics past 2^16 shards or 2^48 updates on one shard — both far
    /// beyond anything a single pool holds. Paths that handle
    /// wire-received or remapped ids use the checked
    /// [`try_encode`](Self::try_encode) instead: the old
    /// unchecked shift silently *corrupted* out-of-range handles
    /// (`shard << 48 | raw` with `raw >= 2^48` bleeds into the shard
    /// bits), which mattered the moment rebalancing started remapping
    /// ids across shards.
    pub fn encode(self) -> u64 {
        let raw = self.id.raw();
        assert!(raw < 1 << RAW_BITS, "shard id overflows the encoding");
        assert!(self.shard < 1 << 16, "shard index overflows the encoding");
        ((self.shard as u64) << RAW_BITS) | raw
    }

    /// Checked [`encode`](Self::encode): [`DivError::InvalidShards`]
    /// instead of a panic when `raw >= 2^48` or `shard >= 2^16` — the
    /// boundary past which the packed form can no longer represent the
    /// handle losslessly.
    pub fn try_encode(self) -> Result<u64, DivError> {
        let raw = self.id.raw();
        if raw >= 1 << RAW_BITS || self.shard >= 1 << 16 {
            return Err(DivError::InvalidShards);
        }
        Ok(((self.shard as u64) << RAW_BITS) | raw)
    }

    /// Inverse of [`encode`](Self::encode).
    pub fn decode(encoded: u64) -> Self {
        Self {
            shard: (encoded >> RAW_BITS) as usize,
            id: PointId::from_raw(encoded & ((1 << RAW_BITS) - 1)),
        }
    }
}

impl std::fmt::Display for ShardedId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}@{}", self.id, self.shard)
    }
}

/// What sizes a pool's [`Budget::Auto`](diversity::Budget::Auto)
/// queries, and all a pool takes as configuration: the kernel budget
/// `(base/ε)^D · k` of [`Task::dynamic_k_prime`] with this `ε` and
/// `D`. The maintained prefixes need no setting: their length follows
/// the largest `k'` asked.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PoolConfig {
    /// Target core-set accuracy `ε`.
    pub epsilon: f64,
    /// Assumed doubling dimension `D` of the data.
    pub dim: u32,
}

impl Default for PoolConfig {
    /// `ε = 1` and `D = 2`.
    fn default() -> Self {
        Self {
            epsilon: 1.0,
            dim: 2,
        }
    }
}

impl PoolConfig {
    /// The `k'` a pool with this configuration answers `task` with:
    /// [`Budget::KPrime`](diversity::Budget::KPrime) as given,
    /// [`Budget::Eps`](diversity::Budget::Eps) through the Theorem 4–5
    /// formula, `Auto` through this `ε` and `D` (capped at the
    /// budget's cap, floored at `k`; see [`Task::dynamic_k_prime`]).
    pub fn k_prime(&self, task: &Task) -> Result<usize, DivError> {
        task.dynamic_k_prime(self.epsilon, self.dim)
    }
}

/// One shard's checkpoint: its alive points with their ids, the start
/// id and the next id to issue, plus the `ε` and dimension that size
/// `Budget::Auto`. The maintained prefix is not part of it: it is a
/// function of these, and the next query regrows it.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ShardState<P> {
    /// Alive ids, ascending.
    pub ids: Vec<u64>,
    /// The points behind `ids`, in the same order.
    pub points: Vec<P>,
    /// The traversal's start (`None` exactly when the shard is empty).
    pub start: Option<u64>,
    /// The id the next insert gets: ids are never reused.
    pub next_id: u64,
    /// [`PoolConfig::epsilon`] of the pool.
    pub epsilon: f64,
    /// [`PoolConfig::dim`] of the pool.
    pub dim: u32,
}

impl<P> ShardState<P> {
    /// Number of alive points.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when the shard held no point.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// A serde-able snapshot of an entire pool: one [`ShardState`] per
/// shard plus the router's opaque state. Produced by
/// [`ShardPool::checkpoint`], consumed by [`ShardPool::restore`];
/// queries on the restored pool are bit-identical to the live one
/// (each shard's points, ids and start round-trip losslessly, and the
/// traversal over them is deterministic).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PoolState<P> {
    /// Per-shard checkpoints, in shard order.
    pub shards: Vec<ShardState<P>>,
    /// The router's checkpointed state ([`Router::checkpoint`]) —
    /// always present, always tagged with the router kind, and stamped
    /// with the shard count it was routing over, so a restore can tell
    /// whether the pool was checkpointed under the same placement
    /// discipline *and* the same shard layout.
    pub router: RouterState,
    /// The rebalance remap table ([`RemapEntry`]), sorted by `from`:
    /// every pre-rebalance encoded [`ShardedId`] still resolvable to a
    /// live point, however many rebalances ago it was issued. Empty
    /// for a never-rebalanced pool.
    pub remap: Vec<RemapEntry>,
}

impl<P> PoolState<P> {
    /// Total alive points across the checkpointed shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(ShardState::len).sum()
    }

    /// `true` when no shard held a point.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(ShardState::is_empty)
    }
}

/// The health state machine of one shard.
///
/// ```text
///            panic caught in a mutation
///  Healthy ────────────────────────────► Quarantined
///     ▲                                      │
///     │            rebuild succeeded         │ recovery begins (under
///     └──────────── Recovering ◄─────────────┘ the shard's writer lock)
/// ```
///
/// * **Healthy** — serves queries, accepts updates.
/// * **Quarantined** — excluded from every query merge (answers become
///   *degraded*, see [`Degradation`]) and from
///   [`len`](ShardPool::len)/[`alive`](ShardPool::alive); updates
///   routed here trigger an in-line recovery attempt first.
/// * **Recovering** — transient: the shard is being rebuilt from its
///   last checkpoint plus the acknowledged-operation log, under the
///   shard's writer lock. Ends in `Healthy` (rebuild succeeded) or back
///   in `Quarantined` (transient faults exhausted the backoff budget).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ShardHealth {
    /// Serving and accepting updates.
    Healthy = 0,
    /// Excluded from queries; awaiting recovery.
    Quarantined = 1,
    /// Being rebuilt from checkpoint + log (held briefly, under the
    /// shard's writer lock).
    Recovering = 2,
}

impl ShardHealth {
    fn from_u8(v: u8) -> Self {
        match v {
            0 => ShardHealth::Healthy,
            1 => ShardHealth::Quarantined,
            _ => ShardHealth::Recovering,
        }
    }
}

/// One acknowledged mutation, replayed during recovery. Ids come from
/// the shard's counter, so replaying the log in acknowledgement order
/// reproduces the exact pre-failure state, ids and start included.
enum Op<P> {
    Insert(P),
    Delete(PointId),
}

/// A shard's recovery material: the last checkpointed state plus every
/// mutation acknowledged since. `base + log` always equals the
/// acknowledged state of the shard, so recovery never loses an
/// acknowledged write. [`ShardPool::checkpoint`] folds the log into a
/// fresh `base` (truncating it), bounding replay time and log memory
/// between checkpoints.
struct RecoveryState<P> {
    base: ShardState<P>,
    log: Vec<Op<P>>,
}

/// One shard slot: the points and their prefix behind a read-write
/// lock, the writer lock, its health, and its last-acknowledged
/// occupancy (readable without any lock — what a degraded answer's
/// coverage fraction uses for skipped shards).
///
/// Lock discipline: every change to `data` holds `writer` for its
/// whole length — compute under `data`'s read lock, publish under its
/// write lock — so queries wait on the write lock only while a change
/// is swapped in, never while it is computed. Paths that take several
/// shards take their writer locks in shard order, before any `data`
/// lock.
struct Shard<P> {
    /// Serializes the shard's writers (updates, prefix growth,
    /// recovery, checkpoints) and holds the recovery material.
    writer: Mutex<RecoveryState<P>>,
    data: RwLock<Prefix<P>>,
    health: AtomicU8,
    occupancy: AtomicUsize,
}

impl<P> Shard<P> {
    fn new(data: Prefix<P>, base: ShardState<P>) -> Self {
        Self {
            occupancy: AtomicUsize::new(data.len()),
            writer: Mutex::new(RecoveryState {
                base,
                log: Vec::new(),
            }),
            data: RwLock::new(data),
            health: AtomicU8::new(ShardHealth::Healthy as u8),
        }
    }

    fn health(&self) -> ShardHealth {
        ShardHealth::from_u8(self.health.load(Ordering::Acquire))
    }

    fn set_health(&self, h: ShardHealth) {
        self.health.store(h as u8, Ordering::Release);
    }
}

/// What one per-shard extraction pass produced (see
/// `ShardPool::extract_shards`).
struct Extraction<P> {
    /// Shard count of the snapshot this extraction ran over (constant
    /// across rebalances, but read from the same snapshot as the
    /// artifacts so one query never mixes generations).
    shards_total: usize,
    /// Artifacts of the shards that answered, in shard order.
    artifacts: Vec<Coreset<P>>,
    /// Shards that dropped out: quarantined, past the deadline, lock
    /// not acquired within the deadline, or a panic caught during
    /// extraction.
    skipped: Vec<usize>,
    /// Alive points seen across the answering shards.
    total: usize,
    /// Largest single answering shard.
    max_shard: usize,
    /// Time spent waiting on shard locks.
    lock_wait_secs: f64,
    /// Last-acknowledged occupancy summed over the skipped shards.
    skipped_occupancy: usize,
}

/// A long-lived pool of `N` shards, each keeping the round-1 core-set
/// of the paper's 2-round MapReduce algorithm current under inserts
/// and deletes: the prefix of `GMM(S_i, m + 1)` over its alive points
/// `S_i`, where `m` is the largest `k'` asked so far (see
/// [`crate::prefix`]). Inserts and deletes route to one shard; queries
/// read every shard's prefix under its read lock, compose the
/// artifacts with [`Coreset::merge`], and solve the union with the
/// same combiner `two_round` uses (`solve_union`).
///
/// ## Why a warm answer is `two_round`'s answer
///
/// * A query for `k'` reads each shard's first `min(k', n_i)` centers
///   (GMM-EXT problems add each center's first `k - 1` cluster members
///   in id order, read off the chains). The shard's radius is the
///   `(k'+1)`-th insertion distance: every alive point of the shard is
///   within it of those centers (the anticover property of GMM).
/// * The union of the shard artifacts covers the union of the shards
///   within the largest radius: Definition 2's composition
///   ([`Coreset::merge`]), which holds for arbitrary partitions, so
///   routing and deletions cannot break it. The combiner solves the
///   union directly (no [`Coreset::deepen`]), and the reported
///   `coreset_radius` bounds the value loss through the proxy-function
///   Lemmas 1–2.
/// * The prefix equals a fresh traversal of the shard's part listed
///   start first, then by id. So a quiescent query returns, bit for
///   bit, what `two_round` (and `Task::run_mapreduce` with
///   `Strategy::TwoRound`) returns on those parts: same value, same
///   radius, same points, with indices in
///   [`ShardedId`] space instead of input positions.
///
/// Shards drift independently under churn — grow, shrink, empty out
/// (an empty shard contributes [`Coreset::empty`], the merge identity)
/// — and every answer carries an honest certificate for exactly the
/// points alive when each shard was read. The pool does **not**
/// promise a cross-shard atomic snapshot: read locks are taken shard
/// by shard, so a query concurrent with writes may see shard `A` before
/// an insert and shard `B` after one.
///
/// ## Update cost, and its cliff
///
/// An insert evaluates its distances to at most `m` centers; deleting
/// a point that is not a center evaluates none. An update that changes
/// the selection (the new point would have been picked, or a center
/// died) resumes the traversal from that step, `n` evaluations per
/// step, under the shard's read lock: queries keep reading the old
/// prefix until the new one is published under a brief write lock. A
/// query for a larger `k'` extends every shard's prefix once. That is
/// also the cliff: one query with `k'` near a shard's size makes every
/// later insert there cost about `n` distance evaluations, and an
/// adversarial insert order (decreasing norm) recomputes on every
/// insert.
///
/// ## Fault tolerance
///
/// The same composition law makes *partial* answers principled: a
/// shard that cannot answer simply drops out of the merge, and the
/// union of the surviving artifacts is still a valid core-set of
/// exactly the union of the surviving shards' alive points. Faults are
/// injected only through the pool's own plan
/// ([`with_faults`](Self::with_faults)); a pool without one rolls
/// nothing.
///
/// * **Panic isolation.** Every mutation runs under `catch_unwind`
///   (with the [`faults::sites::SHARD_MUTATE`] injection point inside
///   the guarded scope). A panic while computing leaves the published
///   shard untouched; a panic while publishing quarantines the shard
///   before its write lock drops. Either way an in-line recovery is
///   attempted immediately.
/// * **Quarantine & recovery.** Each shard carries a
///   [`ShardHealth`] state. Recovery rebuilds the shard from its last
///   checkpoint plus the log of every mutation acknowledged since — so
///   acknowledged writes are never lost and a recovered shard answers
///   **bit-identically** to one that never failed. Transient faults
///   during recovery ([`faults::sites::RECOVERY`]) back off
///   exponentially for up to
///   [`RECOVERY_ATTEMPTS`](Self::RECOVERY_ATTEMPTS) tries; exhaustion
///   leaves the shard `Quarantined` and the update returns
///   [`DivError::ShardUnavailable`] while the rest of the pool keeps
///   serving.
/// * **Degraded answers.** [`query`](Self::query) merges whatever
///   shards can answer. When any shard drops out (quarantine, a
///   deadline miss in [`query_within`](Self::query_within), or a panic
///   caught during extraction) the [`Report`] carries
///   [`Degradation`] — shards answered/total, the skipped indices, and
///   the covered fraction of the pool's last-known population — and
///   its `coreset_radius` certificate is scoped to exactly the
///   surviving points. Only when *no* shard answers does the query
///   fail, with [`DivError::PoolUnavailable`].
/// * **Deadline budgets.** [`query_within`](Self::query_within) bounds
///   a query's wall time: shards whose locks cannot be acquired in
///   time (e.g. a straggling writer holding one —
///   [`faults::sites::LOCK_HOLD`]) or whose turn comes after the
///   deadline are skipped, degrading the answer instead of stalling
///   it.
/// * **Transient retries.** Query admission retries injected transient
///   failures ([`faults::sites::QUERY`]) with bounded backoff before
///   giving up with [`DivError::TransientFailure`].
///
/// Construction: [`ShardPool::new`]/[`with_config`](Self::with_config)
/// for an empty pool, `Task::serve` (the `Serve` extension trait) to
/// opt into a persistent handle from the front door, or
/// [`restore`](Self::restore) to resume a [`checkpoint`](Self::checkpoint).
pub struct ShardPool<P, M> {
    /// The live shard set, swapped **atomically** by
    /// [`rebalance`](Self::rebalance): readers clone the `Arc` under a
    /// brief outer read lock (never holding it across shard-lock
    /// acquisition), so in-flight queries on a superseded set finish
    /// undisturbed while new routes see the replacement.
    shards: RwLock<Arc<Vec<Shard<P>>>>,
    metric: M,
    config: PoolConfig,
    router: Box<dyn Router<P>>,
    runtime: MapReduceRuntime,
    /// The fault plan this pool rolls its injection sites on.
    faults: Option<Arc<FaultPlan>>,
    /// This pool's telemetry namespace (`serve.pool{id}.…`).
    pool_id: usize,
    /// Precomputed occupancy gauge names, one per shard (shard count
    /// is invariant across rebalances, so the names survive swaps).
    gauge_names: Vec<String>,
    /// Mutation epoch: bumped (under the touched shard's write lock)
    /// on every acknowledged mutation, every shard health transition,
    /// and every committed rebalance — anything that could change a
    /// query's answer *or its id space*. Two reads of
    /// [`epoch`](Self::epoch) bracketing equal values witness a
    /// quiescent pool, which is what the network layer's query
    /// coalescing keys on; the rebalance bump is what guarantees a
    /// coalesced follower can never be handed a pre-swap extraction as
    /// current.
    epoch: AtomicU64,
    /// Swap generation: bumped under the outer `shards` write lock on
    /// every committed rebalance. Writers re-check it after acquiring
    /// a shard writer lock — a mutation applied to a superseded shard
    /// set would be silently lost, so a stale writer retries against
    /// the fresh snapshot instead.
    generation: AtomicU64,
    /// Old encoded [`ShardedId`] → current encoded id, folded across
    /// every committed rebalance ([`RemapEntry`] composition), so
    /// handles issued any number of rebalances ago keep resolving.
    remap: RwLock<HashMap<u64, u64>>,
    /// Serializes rebalances and carries the last-commit instant
    /// (`min_interval_ms` pacing) — held across the whole quiesce →
    /// re-partition → swap sequence.
    rebalance_ctl: Mutex<RebalanceCtl>,
    /// Committed rebalances (monotone; mirrored to `serve.rebalances`).
    rebalances: AtomicU64,
    /// `f64::to_bits` of the skew the latest rebalance started from.
    last_skew_before: AtomicU64,
    /// `f64::to_bits` of the skew the latest rebalance ended at.
    last_skew_after: AtomicU64,
    /// Router state from a restored checkpoint whose kind did not
    /// match the active router; held for [`with_router`]
    /// (Self::with_router) to apply when the matching router arrives.
    pending_router: Option<RouterState>,
}

/// Rebalance serialization state (see `ShardPool::rebalance_ctl`).
struct RebalanceCtl {
    /// When the last rebalance committed; `None` before the first.
    last: Option<Instant>,
}

impl<P, M> std::fmt::Debug for ShardPool<P, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let shards = self.shards();
        f.debug_struct("ShardPool")
            .field("shards", &shards.len())
            .field("config", &self.config)
            .field(
                "health",
                &shards.iter().map(Shard::health).collect::<Vec<_>>(),
            )
            .finish_non_exhaustive()
    }
}

impl<P, M> ShardPool<P, M> {
    /// The current shard set. The outer read lock is held only for the
    /// `Arc` clone — never across shard-lock acquisition — so a
    /// rebalance's swap (outer write lock) can never deadlock against
    /// readers or writers parked on shard locks.
    fn shards(&self) -> Arc<Vec<Shard<P>>> {
        self.shards.read().clone()
    }

    /// The current shard set plus the swap generation it belongs to,
    /// read under one outer lock so the pair is consistent. Writers
    /// re-check the generation after acquiring a shard writer lock: a
    /// mismatch means a rebalance swapped the set out from under them
    /// and the mutation must retry on the fresh snapshot (applying it
    /// to the superseded set would lose the write).
    fn snapshot(&self) -> (Arc<Vec<Shard<P>>>, u64) {
        let guard = self.shards.read();
        let generation = self.generation.load(Ordering::Acquire);
        (guard.clone(), generation)
    }

    fn panic_point(&self, site: &'static str) {
        if let Some(plan) = &self.faults {
            plan.panic_point(site);
        }
    }

    fn slow_point(&self, site: &'static str) {
        if let Some(plan) = &self.faults {
            plan.slow_point(site);
        }
    }

    fn should_fail(&self, site: &'static str) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|plan| plan.should_fail(site))
    }
}

impl<P, M> ShardPool<P, M>
where
    P: Clone + Send + Sync,
    M: Metric<P> + Clone,
{
    /// Passes an update gets at the [`faults::sites::SHARD_MUTATE`]
    /// injection point: the first execution plus one retry after a
    /// successful in-line recovery.
    pub const MUTATE_ATTEMPTS: usize = 2;

    /// Rebuild attempts a recovery makes before giving up and leaving
    /// the shard `Quarantined`; attempts after a transient failure
    /// back off exponentially (0.2 ms, 0.4 ms, 0.8 ms, …).
    pub const RECOVERY_ATTEMPTS: usize = 4;

    /// Admission attempts a query gets at the
    /// [`faults::sites::QUERY`] injection point before failing with
    /// [`DivError::TransientFailure`]; retries back off exponentially.
    pub const QUERY_ATTEMPTS: usize = 3;

    /// An empty pool of `shards` shards with the default
    /// [`PoolConfig`] and a [`RoundRobin`] router.
    ///
    /// # Panics
    /// Panics if `shards == 0` (`Task::serve` returns
    /// [`DivError::InvalidShards`] instead).
    pub fn new(metric: M, shards: usize) -> Self {
        Self::with_config(metric, PoolConfig::default(), shards)
    }

    /// An empty pool whose `Budget::Auto` queries are sized by
    /// `config`'s `ε` and dimension.
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn with_config(metric: M, config: PoolConfig, shards: usize) -> Self {
        assert!(shards >= 1, "a pool needs at least one shard");
        let empty = ShardState {
            ids: Vec::new(),
            points: Vec::new(),
            start: None,
            next_id: 0,
            epsilon: config.epsilon,
            dim: config.dim,
        };
        let slots = (0..shards)
            .map(|_| Shard::new(Prefix::new(), empty.clone()))
            .collect();
        Self::assemble(metric, config, slots, HashMap::new(), None)
    }

    fn assemble(
        metric: M,
        config: PoolConfig,
        shards: Vec<Shard<P>>,
        remap: HashMap<u64, u64>,
        pending_router: Option<RouterState>,
    ) -> Self {
        let pool_id = NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed);
        Self {
            gauge_names: occupancy_gauge_names(pool_id, shards.len()),
            shards: RwLock::new(Arc::new(shards)),
            metric,
            config,
            router: Box::new(RoundRobin::new()),
            runtime: MapReduceRuntime::with_threads(1),
            faults: None,
            pool_id,
            epoch: AtomicU64::new(0),
            generation: AtomicU64::new(0),
            remap: RwLock::new(remap),
            rebalance_ctl: Mutex::new(RebalanceCtl { last: None }),
            rebalances: AtomicU64::new(0),
            last_skew_before: AtomicU64::new(0),
            last_skew_after: AtomicU64::new(0),
            pending_router,
        }
    }

    /// Resumes a pool from a [`checkpoint`](Self::checkpoint). Each
    /// shard is rebuilt with its points, ids and start and no prefix
    /// (`O(1)` per point); the next query regrows one, so queries on
    /// the restored pool are bit-identical to the pool that produced
    /// the state.
    ///
    /// The router starts as the default [`RoundRobin`]. When the
    /// checkpointed [`RouterState`] carries a matching kind its state
    /// (the cursor) is re-applied immediately; a state of a *different*
    /// kind — the pool was checkpointed under e.g. a `HashRouter` — is
    /// held aside and applied by [`with_router`](Self::with_router)
    /// when the matching router is re-attached, so no checkpointed
    /// router state is silently dropped.
    ///
    /// A corrupt state — no shards, an `ε` that is not positive and
    /// finite, shards checkpointed under different configurations, a
    /// router state stamped with a *different* shard count than the
    /// checkpoint holds (restoring it would mis-route every stable-id
    /// placement — e.g. a `HashRouter` hashing over the wrong
    /// `shards.len()`), a remap entry pointing at a shard the pool does
    /// not have, or an inconsistent shard (ids out of order, a start
    /// that is not alive, an id at or past `next_id`) — returns
    /// [`DivError::CorruptState`] so the caller can keep its last good
    /// pool instead of aborting. States that `checkpoint` produces on a
    /// pool whose `ε` is positive and finite always restore.
    pub fn restore(metric: M, state: PoolState<P>) -> Result<Self, DivError> {
        if state.shards.is_empty() {
            return Err(DivError::CorruptState {
                reason: "pool checkpoint holds no shards".into(),
            });
        }
        if state.router.shards as usize != state.shards.len() {
            return Err(DivError::CorruptState {
                reason: format!(
                    "router state was checkpointed over {} shards but the pool holds {}",
                    state.router.shards,
                    state.shards.len()
                ),
            });
        }
        for entry in &state.remap {
            let to = ShardedId::decode(entry.to);
            if to.shard >= state.shards.len() {
                return Err(DivError::CorruptState {
                    reason: format!(
                        "remap entry {} -> {} points at shard {} of a {}-shard pool",
                        entry.from,
                        entry.to,
                        to.shard,
                        state.shards.len()
                    ),
                });
            }
        }
        let config = PoolConfig {
            epsilon: state.shards[0].epsilon,
            dim: state.shards[0].dim,
        };
        if !(config.epsilon > 0.0 && config.epsilon.is_finite()) {
            return Err(DivError::CorruptState {
                reason: format!(
                    "pool checkpoint holds epsilon = {}; it must be positive and finite",
                    config.epsilon
                ),
            });
        }
        let span = diversity_obs::span("serve.restore_ns");
        let shards = shards_from_states(state.shards, "shard")?;
        let router = RoundRobin::new();
        let pending_router = if Router::<P>::restore(&router, &state.router) {
            None
        } else {
            Some(state.router)
        };
        let remap: HashMap<u64, u64> = state.remap.iter().map(|e| (e.from, e.to)).collect();
        let pool = Self::assemble(metric, config, shards, remap, pending_router);
        drop(span);
        if diversity_obs::enabled() {
            // Publish the restored occupancy so the pool's gauges are
            // correct before any traffic arrives.
            for (shard, slot) in pool.shards().iter().enumerate() {
                let occupancy = slot.occupancy.load(Ordering::Acquire);
                diversity_obs::gauge_set(&pool.gauge_names[shard], occupancy as i64);
            }
        }
        Ok(pool)
    }

    /// Replaces the router (builder-style). Routing affects placement
    /// only, never soundness — see the type-level docs.
    ///
    /// When the pool was [restored](Self::restore) from a checkpoint
    /// whose router state belonged to a different kind, that held
    /// state is applied now if `router` matches it — re-attaching the
    /// checkpointed router picks up exactly where it left off.
    pub fn with_router(mut self, router: impl Router<P> + 'static) -> Self {
        if let Some(state) = &self.pending_router {
            if router.restore(state) {
                self.pending_router = None;
            }
        }
        self.router = Box::new(router);
        self
    }

    /// Hands the pool a fault plan (builder-style): its five injection
    /// sites ([`faults::sites::SHARD_MUTATE`], [`faults::sites::LOCK_HOLD`],
    /// [`faults::sites::QUERY`], [`faults::sites::RECOVERY`],
    /// [`faults::sites::REBALANCE`]) roll on `plan` from here on,
    /// replacing any earlier plan. No other pool sees it, and a pool
    /// that never gets one injects nothing. [`FaultPlan::disarm`] ends
    /// the chaos without replacing the plan.
    pub fn with_faults(mut self, plan: Arc<FaultPlan>) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Checkpointed router state still awaiting its matching router
    /// (see [`restore`](Self::restore)); `None` once applied.
    pub fn pending_router_state(&self) -> Option<&RouterState> {
        self.pending_router.as_ref()
    }

    /// Number of shards (invariant across rebalances — only placement
    /// changes).
    pub fn num_shards(&self) -> usize {
        self.shards().len()
    }

    /// This pool's telemetry namespace prefix: every per-shard
    /// occupancy gauge is named `{gauge_prefix()}shard{i}.occupancy`.
    /// At any quiescent point,
    /// `Snapshot::gauge_prefix_sum(&pool.gauge_prefix())` equals
    /// [`len`](Self::len).
    pub fn gauge_prefix(&self) -> String {
        format!("serve.pool{}.", self.pool_id)
    }

    /// The health state of shard `shard`.
    pub fn shard_health(&self, shard: usize) -> ShardHealth {
        self.shards()[shard].health()
    }

    /// Every shard's health, in shard order.
    pub fn healths(&self) -> Vec<ShardHealth> {
        self.shards().iter().map(Shard::health).collect()
    }

    /// Number of shards currently `Healthy`.
    pub fn healthy_shards(&self) -> usize {
        self.shards()
            .iter()
            .filter(|s| s.health() == ShardHealth::Healthy)
            .count()
    }

    /// The pool's mutation epoch. Bumped under the touched shard's
    /// write lock on every acknowledged mutation and every shard
    /// health transition — anything that could change what a query
    /// would answer. Equal values from two reads bracketing an
    /// operation witness that the pool was quiescent in between;
    /// that is the key the network layer's query coalescing uses to
    /// share one extraction among concurrent identical queries.
    /// Growing a prefix changes no answer and bumps nothing.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    fn bump_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::AcqRel);
    }

    /// Every shard's last-acknowledged occupancy, in shard order —
    /// read lock-free, so safe to poll from a rebalancing loop.
    /// Quarantined shards report the occupancy they last acknowledged
    /// (the population a recovery will restore), not zero.
    pub fn occupancies(&self) -> Vec<usize> {
        self.shards()
            .iter()
            .map(|s| s.occupancy.load(Ordering::Acquire))
            .collect()
    }

    /// The router's imbalance figure over the current
    /// [`occupancies`](Self::occupancies) ([`Router::skew`]; the
    /// default policy is max/mean — `1.0` is perfectly balanced, and
    /// an empty pool also reports `1.0`). This is what
    /// [`maybe_rebalance`](Self::maybe_rebalance) compares against its
    /// threshold.
    pub fn skew(&self) -> f64 {
        self.router.skew(&self.occupancies())
    }

    /// Alive points in shard `shard` (`0` while it is quarantined —
    /// quarantined shards are excluded from the serving population
    /// until they recover).
    pub fn shard_len(&self, shard: usize) -> usize {
        let shards = self.shards();
        let slot = &shards[shard];
        if slot.health() != ShardHealth::Healthy {
            return 0;
        }
        let len = slot.data.read().len();
        len
    }

    /// Total alive points across the **healthy** shards — the
    /// population queries currently certify. Under concurrent writers
    /// this is a momentary sum (shards are read one at a time).
    /// Quarantined shards rejoin the count when they recover; their
    /// last-acknowledged occupancy is still visible to degraded
    /// answers' coverage accounting ([`Degradation::coverage`]).
    pub fn len(&self) -> usize {
        self.shards()
            .iter()
            .filter(|s| s.health() == ShardHealth::Healthy)
            .map(|s| s.data.read().len())
            .sum()
    }

    /// `true` when every healthy shard is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configuration whose `ε` and dimension size `Budget::Auto`
    /// queries ([`PoolConfig::k_prime`]).
    pub fn config(&self) -> &PoolConfig {
        &self.config
    }

    /// Inserts a point, routing it through the pool's [`Router`].
    /// Takes one shard's locks; other shards (and readers of other
    /// shards) proceed untouched.
    ///
    /// When the routed shard is quarantined, an in-line recovery is
    /// attempted first; [`DivError::ShardUnavailable`] means the shard
    /// could not be recovered (the rest of the pool keeps serving —
    /// there is no silent re-route, so placement stays deterministic).
    pub fn insert(&self, point: P) -> Result<ShardedId, DivError> {
        let shard = self.router.route(&point, self.num_shards());
        self.insert_to(shard, point)
    }

    /// Inserts into an explicit shard, bypassing the router (how
    /// `Task::serve_seeded` replays a partitioning).
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    pub fn insert_to(&self, shard: usize, point: P) -> Result<ShardedId, DivError> {
        match self.mutate(shard, Op::Insert(point))? {
            MutOutcome::Inserted(id) => Ok(ShardedId { shard, id }),
            MutOutcome::Deleted(_) => unreachable!("insert ops produce insert outcomes"),
        }
    }

    /// Inserts many points through the router, returning their
    /// handles. Stops at the first unavailable shard.
    pub fn extend(&self, points: impl IntoIterator<Item = P>) -> Result<Vec<ShardedId>, DivError> {
        points.into_iter().map(|p| self.insert(p)).collect()
    }

    /// Deletes an alive point; `Ok(false)` when the handle was already
    /// gone (or its shard index is out of range). Like
    /// [`insert`](Self::insert), a quarantined shard is recovered
    /// in-line first or the delete fails with
    /// [`DivError::ShardUnavailable`] — in which case the point is
    /// still alive (the operation was not applied).
    ///
    /// Handles issued before a [`rebalance`](Self::rebalance) are
    /// [resolved](Self::resolve) through the remap table first, so
    /// pre-rebalance ids keep deleting the point they named.
    pub fn delete(&self, id: ShardedId) -> Result<bool, DivError> {
        loop {
            let generation = self.generation.load(Ordering::Acquire);
            let resolved = self.resolve(id);
            if resolved.shard >= self.num_shards() {
                return Ok(false);
            }
            let deleted = match self.mutate(resolved.shard, Op::Delete(resolved.id))? {
                MutOutcome::Deleted(deleted) => deleted,
                MutOutcome::Inserted(_) => unreachable!("delete ops produce delete outcomes"),
            };
            if deleted || self.generation.load(Ordering::Acquire) == generation {
                return Ok(deleted);
            }
            // A rebalance committed between resolving the handle and
            // applying the delete, so the miss may be an artifact of
            // the stale resolution. Re-resolve against the fresh remap
            // table and retry (a *successful* delete is never retried).
        }
    }

    /// Follows the rebalance remap table: the current [`ShardedId`] of
    /// the point `id` named when it was issued. Ids the table does not
    /// know — ids issued after the last rebalance, ids of points that
    /// died before one, out-of-range hand-built ids — pass through
    /// unchanged (and then simply miss, since rebuilt id spaces never
    /// reuse pre-rebalance ids). One lookup suffices however many
    /// rebalances have happened: each commit folds the new hop into
    /// the table instead of chaining.
    pub fn resolve(&self, id: ShardedId) -> ShardedId {
        let Ok(key) = id.try_encode() else {
            return id;
        };
        match self.remap.read().get(&key) {
            Some(&to) => ShardedId::decode(to),
            None => id,
        }
    }

    /// Quarantines a shard administratively — e.g. to drain it for
    /// maintenance or to fence a suspect replica. Queries degrade
    /// around it exactly as after a caught panic;
    /// [`recover`](Self::recover) (or the next update routed to it)
    /// brings it back with no data loss.
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    pub fn quarantine(&self, shard: usize) {
        loop {
            let (shards, generation) = self.snapshot();
            let slot = &shards[shard];
            // Under the writer lock so the transition cannot interleave
            // with a mutation's own health handling.
            let _writer = slot.writer.lock();
            if self.generation.load(Ordering::Acquire) != generation {
                // A rebalance swapped the set while we waited for the
                // lock; fencing the superseded shard would be a no-op.
                continue;
            }
            slot.set_health(ShardHealth::Quarantined);
            self.bump_epoch();
            diversity_obs::count("serve.quarantines", 1);
            return;
        }
    }

    /// Recovers shard `shard` if it is quarantined: rebuilds it from
    /// the last checkpoint plus the acknowledged-operation log (no
    /// acknowledged write is lost), with bounded exponential backoff
    /// across transient faults. No-op on a healthy shard.
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    pub fn recover(&self, shard: usize) -> Result<(), DivError> {
        loop {
            let (shards, generation) = self.snapshot();
            let slot = &shards[shard];
            if slot.health() == ShardHealth::Healthy {
                return Ok(());
            }
            let mut writer = slot.writer.lock();
            if self.generation.load(Ordering::Acquire) != generation {
                drop(writer); // superseded set; re-check the fresh one
                continue;
            }
            if slot.health() == ShardHealth::Healthy {
                return Ok(()); // someone else recovered while we waited
            }
            return self.recover_locked(slot, shard, &mut writer);
        }
    }

    /// Recovers every non-healthy shard ([`recover`](Self::recover)),
    /// returning the first failure.
    pub fn recover_all(&self) -> Result<(), DivError> {
        for shard in 0..self.num_shards() {
            self.recover(shard)?;
        }
        Ok(())
    }

    /// Rebuilds a shard from `checkpoint + log` while holding its
    /// writer lock, then publishes it under the write lock. `Healthy`
    /// on success; `Quarantined` (and a typed error) when transient
    /// faults exhaust the backoff budget or the recovery material
    /// itself is corrupt.
    fn recover_locked(
        &self,
        slot: &Shard<P>,
        shard: usize,
        recovery: &mut RecoveryState<P>,
    ) -> Result<(), DivError> {
        slot.set_health(ShardHealth::Recovering);
        let started = Instant::now();
        for attempt in 1..=Self::RECOVERY_ATTEMPTS {
            if self.should_fail(faults::sites::RECOVERY) {
                if attempt == Self::RECOVERY_ATTEMPTS {
                    slot.set_health(ShardHealth::Quarantined);
                    return Err(DivError::TransientFailure {
                        site: faults::sites::RECOVERY.into(),
                    });
                }
                // Bounded exponential backoff: 0.2 ms, 0.4 ms, 0.8 ms.
                std::thread::sleep(Duration::from_micros(200 << (attempt - 1)));
                continue;
            }
            let base = &recovery.base;
            let mut rebuilt = match Prefix::from_parts(
                base.ids.clone(),
                base.points.clone(),
                base.start,
                base.next_id,
            ) {
                Ok(rebuilt) => rebuilt,
                Err(reason) => {
                    slot.set_health(ShardHealth::Quarantined);
                    return Err(DivError::CorruptState {
                        reason: format!("shard {shard} recovery checkpoint: {reason}"),
                    });
                }
            };
            // Replay every acknowledged mutation since the checkpoint;
            // ids and the start follow deterministically, so the
            // rebuilt shard answers bit-identically to one that never
            // failed. With no prefix yet, replay evaluates no distance.
            for op in &recovery.log {
                match op {
                    Op::Insert(p) => {
                        rebuilt.insert(p.clone(), &self.metric);
                    }
                    Op::Delete(id) => {
                        rebuilt.delete(id.raw(), &self.metric);
                    }
                }
            }
            let occupancy = rebuilt.len();
            {
                let mut data = slot.data.write();
                rebuilt.set_stats(data.stats());
                *data = rebuilt;
            }
            slot.occupancy.store(occupancy, Ordering::Release);
            slot.set_health(ShardHealth::Healthy);
            self.bump_epoch();
            diversity_obs::observe("serve.recovery_ns", started.elapsed().as_nanos() as u64);
            diversity_obs::count("serve.recoveries", 1);
            if diversity_obs::enabled() {
                diversity_obs::gauge_set(&self.gauge_names[shard], occupancy as i64);
            }
            return Ok(());
        }
        unreachable!("the attempt loop returns on success or exhaustion")
    }

    /// Applies one mutation to a shard with panic isolation, holding
    /// the shard's writer lock throughout: a panic quarantines the
    /// shard and triggers an immediate recovery plus one retry of the
    /// operation.
    fn mutate(&self, shard: usize, op: Op<P>) -> Result<MutOutcome, DivError> {
        let mut attempt = 1;
        loop {
            let (shards, generation) = self.snapshot();
            let slot = &shards[shard];
            // A quarantined shard gets an in-line recovery before the
            // operation is applied (or refused).
            if slot.health() != ShardHealth::Healthy {
                self.recover(shard)
                    .map_err(|_| DivError::ShardUnavailable { shard })?;
            }
            let mut writer = slot.writer.lock();
            if self.generation.load(Ordering::Acquire) != generation {
                // A rebalance swapped the shard set while we waited
                // for the lock: applying the op to the superseded
                // shard would silently lose the write. Retry on the
                // fresh snapshot (does not consume a fault attempt).
                continue;
            }
            if slot.health() != ShardHealth::Healthy {
                // Quarantined while we waited for the lock; loop back
                // through recovery.
                continue;
            }
            match self.apply(slot, shard, &op) {
                Some(out) => {
                    // Acknowledged: log the op for recovery (a miss
                    // changed nothing and needs no replay).
                    match (&op, &out) {
                        (Op::Insert(p), _) => writer.log.push(Op::Insert(p.clone())),
                        (Op::Delete(id), MutOutcome::Deleted(true)) => {
                            writer.log.push(Op::Delete(*id))
                        }
                        _ => {}
                    }
                    return Ok(out);
                }
                None => {
                    // The shard is fenced (quarantined by `apply`, or
                    // its published state untouched); rebuild it in
                    // place, still under the writer lock.
                    if slot.health() == ShardHealth::Healthy {
                        slot.set_health(ShardHealth::Quarantined);
                        self.bump_epoch();
                        diversity_obs::count("serve.quarantines", 1);
                    }
                    let recovered = self.recover_locked(slot, shard, &mut writer);
                    drop(writer);
                    if recovered.is_err() || attempt == Self::MUTATE_ATTEMPTS {
                        return Err(DivError::ShardUnavailable { shard });
                    }
                    // Recovered: retry the operation once.
                    attempt += 1;
                }
            }
        }
    }

    /// One mutation's compute and publish steps, the caller holding
    /// the writer lock. `None` when a step panicked.
    fn apply(&self, slot: &Shard<P>, shard: usize, op: &Op<P>) -> Option<MutOutcome> {
        let metric = &self.metric;
        match op {
            Op::Insert(point) => {
                let probe = self.compute(slot, |data| {
                    self.panic_point(faults::sites::SHARD_MUTATE);
                    data.probe(point, metric)
                })?;
                if !probe.resumes() {
                    let (id, _) =
                        self.publish(slot, shard, true, |data| data.append(point.clone(), &probe))?;
                    return Some(MutOutcome::Inserted(PointId::from_raw(id)));
                }
                // The new point changes the selection: park it as a
                // pending slot, recompute beside it, then publish.
                let (id, pending) = self.publish(slot, shard, false, |data| {
                    data.append(point.clone(), &probe)
                })?;
                let resumed =
                    self.compute(slot, |data| data.resume_insert(pending, &probe, metric))?;
                self.publish(slot, shard, true, |data| data.publish(resumed))?;
                Some(MutOutcome::Inserted(PointId::from_raw(id)))
            }
            Op::Delete(id) => {
                let removal = self.compute(slot, |data| {
                    self.panic_point(faults::sites::SHARD_MUTATE);
                    data.plan_delete(id.raw(), metric)
                })?;
                if matches!(removal, Removal::Gone) {
                    return Some(MutOutcome::Deleted(false));
                }
                self.publish(slot, shard, true, |data| data.remove(removal))?;
                Some(MutOutcome::Deleted(true))
            }
        }
    }

    /// Runs `f` on the shard's data under its read lock; `None` when it
    /// panics (the published state is untouched).
    fn compute<T>(&self, slot: &Shard<P>, f: impl FnOnce(&Prefix<P>) -> T) -> Option<T> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&slot.data.read()))).ok()
    }

    /// Runs `f` on the shard's data under its write lock. When `ack`,
    /// this publish acknowledges the mutation: occupancy, epoch and
    /// gauge move before the lock drops. A panic quarantines the shard
    /// while the lock is still held — a half-applied change is never
    /// visible — and returns `None`.
    fn publish<T>(
        &self,
        slot: &Shard<P>,
        shard: usize,
        ack: bool,
        f: impl FnOnce(&mut Prefix<P>) -> T,
    ) -> Option<T> {
        let t0 = Instant::now();
        let mut data = slot.data.write();
        let acquired = Instant::now();
        self.slow_point(faults::sites::LOCK_HOLD);
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut data)));
        match &out {
            Ok(_) if ack => {
                slot.occupancy.store(data.len(), Ordering::Release);
                self.bump_epoch();
                if diversity_obs::enabled() {
                    diversity_obs::gauge_set(&self.gauge_names[shard], data.len() as i64);
                }
            }
            Ok(_) => {}
            Err(_) => {
                slot.set_health(ShardHealth::Quarantined);
                self.bump_epoch();
                diversity_obs::count("serve.quarantines", 1);
            }
        }
        drop(data);
        if diversity_obs::enabled() {
            diversity_obs::observe(
                "serve.lock.write_wait_ns",
                (acquired - t0).as_nanos() as u64,
            );
            diversity_obs::observe(
                "serve.lock.write_hold_ns",
                acquired.elapsed().as_nanos() as u64,
            );
        }
        out.ok()
    }

    /// The point behind an alive handle, cloned out under the shard's
    /// read lock. `None` while the owning shard is quarantined.
    /// Pre-rebalance handles are [resolved](Self::resolve) through the
    /// remap table first.
    pub fn point(&self, id: ShardedId) -> Option<P> {
        // Resolve while holding the outer read lock: a rebalance
        // commits its swap *and* its remap update under the outer
        // write lock, so the (shard set, resolution) pair read here can
        // never straddle a swap.
        let (shards, id) = {
            let guard = self.shards.read();
            (guard.clone(), self.resolve(id))
        };
        let slot = shards.get(id.shard)?;
        if slot.health() != ShardHealth::Healthy {
            return None;
        }
        let point = slot.data.read().point(id.id.raw()).cloned();
        point
    }

    /// Snapshot of all alive `(handle, point)` pairs across the
    /// **healthy** shards, shard by shard, each in id order — the
    /// population a query's certificate covers right now.
    pub fn alive(&self) -> Vec<(ShardedId, P)> {
        let mut out = Vec::new();
        let shards = self.shards();
        for (shard, slot) in shards.iter().enumerate() {
            if slot.health() != ShardHealth::Healthy {
                continue;
            }
            let data = slot.data.read();
            out.extend(data.alive().map(|(id, p)| {
                (
                    ShardedId {
                        shard,
                        id: PointId::from_raw(id),
                    },
                    p.clone(),
                )
            }));
        }
        out
    }

    /// Per-shard cumulative update-work counters ([`ShardStats`]);
    /// quarantined shards report zeroes until they recover.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards()
            .iter()
            .map(|s| {
                if s.health() == ShardHealth::Healthy {
                    s.data.read().stats()
                } else {
                    ShardStats::default()
                }
            })
            .collect()
    }

    /// Checks every healthy shard's prefix against a fresh
    /// `gmm_plain` from its start over its part — centers, insertion
    /// distances, every point's distance, assignment and chain, bit
    /// for bit (test support; `O(n·m)` per shard).
    ///
    /// # Panics
    /// Panics on the first disagreement.
    pub fn validate(&self) {
        for shard in self.shards().iter() {
            if shard.health() == ShardHealth::Healthy {
                shard.data.read().validate(&self.metric);
            }
        }
    }

    /// Grows shard `slot`'s prefix until it holds `min(k', n)` steps:
    /// under the writer lock, computed under the read lock, published
    /// under the write lock. Returns the time spent waiting for the
    /// writer lock, or `None` when the deadline passed first or the
    /// computation panicked (which quarantines the shard).
    fn grow(
        &self,
        slot: &Shard<P>,
        k_prime: usize,
        started: Instant,
        deadline: Option<Duration>,
    ) -> Option<Duration> {
        let t0 = Instant::now();
        let _writer = match deadline {
            None => slot.writer.lock(),
            Some(budget) => loop {
                if let Some(guard) = slot.writer.try_lock() {
                    break guard;
                }
                if started.elapsed() >= budget {
                    return None;
                }
                std::thread::yield_now();
            },
        };
        let waited = t0.elapsed();
        if slot.health() != ShardHealth::Healthy {
            return Some(waited); // the extraction re-checks and skips
        }
        let grown = self.compute(slot, |data| {
            data.shortfall(k_prime)
                .map(|target| data.extend(target, &self.metric))
        });
        let published = match grown {
            Some(Some(resumed)) => {
                let mut data = slot.data.write();
                let published = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    data.publish(resumed)
                }));
                if published.is_err() {
                    // Fence the half-published shard before the lock drops.
                    slot.set_health(ShardHealth::Quarantined);
                }
                drop(data); // the replaced buffers free outside the lock
                published.is_ok()
            }
            Some(None) => true,
            None => {
                slot.set_health(ShardHealth::Quarantined);
                false
            }
        };
        if !published {
            self.bump_epoch();
            diversity_obs::count("serve.quarantines", 1);
            return None;
        }
        Some(waited)
    }

    /// Extracts core-sets from every shard able to answer (read locks,
    /// one shard at a time) with provenance rewritten to encoded
    /// [`ShardedId`]s, first growing any prefix shorter than `k'`. A
    /// shard drops out — into `skipped` — when it is quarantined, the
    /// deadline has passed (or its locks could not be acquired in
    /// time), or its extraction panics (which also quarantines it).
    fn extract_shards(
        &self,
        problem: Problem,
        k: usize,
        k_prime: usize,
        deadline: Option<Duration>,
    ) -> Extraction<P> {
        let started = Instant::now();
        // One whole query runs against one snapshot: a rebalance
        // mid-extraction swaps the pool's set, but this query keeps
        // reading the generation it started on (the old shards stay
        // alive behind the `Arc` until the last in-flight reader is
        // done), so the merged certificate never mixes two partitions
        // of the same points.
        let shards = self.shards();
        let mut ex = Extraction {
            shards_total: shards.len(),
            artifacts: Vec::with_capacity(shards.len()),
            skipped: Vec::new(),
            total: 0,
            max_shard: 0,
            lock_wait_secs: 0.0,
            skipped_occupancy: 0,
        };
        let skip = |ex: &mut Extraction<P>, shard: usize, slot: &Shard<P>| {
            ex.skipped.push(shard);
            ex.skipped_occupancy += slot.occupancy.load(Ordering::Acquire);
        };
        'shards: for (shard, slot) in shards.iter().enumerate() {
            let art = loop {
                if slot.health() != ShardHealth::Healthy {
                    skip(&mut ex, shard, slot);
                    continue 'shards;
                }
                let t0 = Instant::now();
                let data = match deadline {
                    None => slot.data.read(),
                    Some(budget) => {
                        // A shard whose turn comes at or past the
                        // deadline is skipped outright.
                        if started.elapsed() >= budget {
                            skip(&mut ex, shard, slot);
                            continue 'shards;
                        }
                        // Bounded acquisition: a straggler holding the
                        // write lock must not stall the whole query.
                        let mut guard = slot.data.try_read();
                        while guard.is_none() && started.elapsed() < budget {
                            std::thread::yield_now();
                            guard = slot.data.try_read();
                        }
                        match guard {
                            Some(g) => g,
                            None => {
                                skip(&mut ex, shard, slot);
                                continue 'shards;
                            }
                        }
                    }
                };
                let acquired = Instant::now();
                ex.lock_wait_secs += (acquired - t0).as_secs_f64();
                if diversity_obs::enabled() {
                    diversity_obs::observe(
                        "serve.lock.read_wait_ns",
                        (acquired - t0).as_nanos() as u64,
                    );
                }
                // Re-check under the lock: a mutation that panicked
                // while we waited has quarantined this shard.
                if slot.health() != ShardHealth::Healthy {
                    drop(data);
                    skip(&mut ex, shard, slot);
                    continue 'shards;
                }
                if data.shortfall(k_prime).is_some() {
                    // A larger k' than this shard's prefix holds: grow
                    // it once, then read again.
                    drop(data);
                    match self.grow(slot, k_prime, started, deadline) {
                        Some(waited) => ex.lock_wait_secs += waited.as_secs_f64(),
                        None => {
                            skip(&mut ex, shard, slot);
                            continue 'shards;
                        }
                    }
                    continue;
                }
                let n_s = data.len();
                let art = if n_s == 0 {
                    // A drained shard contributes the merge identity.
                    Some(Coreset::empty(k_prime))
                } else {
                    // Extraction is read-only, but a panic here (a bug,
                    // or corruption that slipped past the health fence)
                    // must cost this shard's contribution, not the
                    // process.
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        data.coreset(problem, k, k_prime)
                    }))
                    .ok()
                };
                drop(data); // provenance rewrite needs no lock
                if diversity_obs::enabled() {
                    diversity_obs::observe(
                        "serve.lock.read_hold_ns",
                        acquired.elapsed().as_nanos() as u64,
                    );
                }
                break art.map(|art| (art, n_s));
            };
            let Some((art, n_s)) = art else {
                slot.set_health(ShardHealth::Quarantined);
                self.bump_epoch();
                diversity_obs::count("serve.quarantines", 1);
                skip(&mut ex, shard, slot);
                continue;
            };
            ex.total += n_s;
            ex.max_shard = ex.max_shard.max(n_s);
            ex.artifacts.push(art.map_sources(|raw| {
                ShardedId {
                    shard,
                    id: PointId::from_raw(raw),
                }
                .encode()
            }));
        }
        ex
    }

    /// The merged warm-path core-set a [`query`](Self::query) for
    /// `(problem, k, k_prime)` would solve on: per-shard extractions
    /// of every shard currently able to answer, composed by
    /// [`Coreset::merge`], radius = max of the shard radii, sources =
    /// encoded [`ShardedId`]s. With quarantined shards present this is
    /// the *surviving* core-set — exactly what a degraded answer's
    /// certificate is scoped to. Exposed for certificate audits
    /// (`coreset.certifies(&alive_points, ..)`) and tests.
    pub fn coreset(&self, problem: Problem, k: usize, k_prime: usize) -> Coreset<P> {
        let ex = self.extract_shards(problem, k, k_prime, None);
        Coreset::merge_all(ex.artifacts).unwrap_or_else(|| Coreset::empty(k_prime))
    }

    /// Answers a [`Task`] on the **warm path**: per-shard reads of the
    /// maintained prefixes, composed through [`Coreset::merge`] and
    /// solved by the shared 2-round combiner — at a quiescent point,
    /// bit for bit the answer `two_round` gives on the shards' parts.
    /// Returns the standard [`Report`] with
    /// [`Backend::ShardedDynamic`], the composed radius certificate in
    /// `coreset_radius`, and indices/provenance in encoded
    /// [`ShardedId`] space ([`ShardedId::decode`] recovers the shard
    /// and id).
    ///
    /// Budget resolution is [`PoolConfig::k_prime`]: `Auto` defers to
    /// the pool's [`PoolConfig`] sizing rather than sampling the data
    /// (the warm path never rescans points). No `(α+ε)` certificate is
    /// attached — the per-query composed radius is the honest accuracy
    /// witness.
    ///
    /// When shards are quarantined the answer **degrades** instead of
    /// failing: the surviving shards' artifacts merge, and the report
    /// carries [`Degradation`] scoping the certificate to the
    /// survivors (see the type-level docs). Only a pool with *no*
    /// answering shard errors, with [`DivError::PoolUnavailable`].
    pub fn query(&self, task: &Task) -> Result<Report<P>, DivError> {
        self.query_opts(task, None)
    }

    /// [`query`](Self::query) under a wall-clock budget: shards whose
    /// locks cannot be acquired before `deadline` elapses (or whose
    /// turn comes after it) are skipped, degrading the answer rather
    /// than stalling it. The deadline bounds the *extraction* phase —
    /// lock acquisition and per-shard reads; growing a prefix for a
    /// larger `k'` and the final combiner solve on the (small) merged
    /// core-set run to completion once started, so answers past the
    /// deadline are still certified.
    pub fn query_within(&self, task: &Task, deadline: Duration) -> Result<Report<P>, DivError> {
        self.query_opts(task, Some(deadline))
    }

    fn query_opts(&self, task: &Task, deadline: Option<Duration>) -> Result<Report<P>, DivError> {
        let k = task.k();
        if k == 0 {
            return Err(DivError::InvalidK { k, n: None });
        }
        let problem = task.problem();
        let k_prime = self.config.k_prime(task)?;

        // Admission: transient failures retry with bounded backoff
        // (0.1 ms, 0.2 ms) before surfacing as a typed error.
        for attempt in 1..=Self::QUERY_ATTEMPTS {
            if !self.should_fail(faults::sites::QUERY) {
                break;
            }
            if attempt == Self::QUERY_ATTEMPTS {
                return Err(DivError::TransientFailure {
                    site: faults::sites::QUERY.into(),
                });
            }
            std::thread::sleep(Duration::from_micros(100 << (attempt - 1)));
        }

        let e2e = diversity_obs::span("serve.query.e2e_ns");
        let t0 = Instant::now();
        let ex = self.extract_shards(problem, k, k_prime, deadline);
        let extract_secs = t0.elapsed().as_secs_f64();
        if diversity_obs::enabled() {
            diversity_obs::observe("serve.extract_ns", (extract_secs * 1e9) as u64);
        }
        let shards_total = ex.shards_total;
        let shards_answered = shards_total - ex.skipped.len();
        if shards_answered == 0 {
            return Err(DivError::PoolUnavailable {
                healthy: 0,
                total: shards_total,
            });
        }
        if ex.total == 0 {
            // Nothing alive among the answering shards: an empty pool
            // when full coverage, otherwise an unanswerable query (the
            // points that exist are all behind skipped shards).
            return if ex.skipped.is_empty() {
                Err(DivError::EmptyInput)
            } else {
                Err(DivError::PoolUnavailable {
                    healthy: shards_answered,
                    total: shards_total,
                })
            };
        }
        if k > ex.total {
            return Err(DivError::InvalidK {
                k,
                n: Some(ex.total),
            });
        }
        let degradation = if ex.skipped.is_empty() {
            None
        } else {
            diversity_obs::count("serve.query.degraded", 1);
            let known = ex.total + ex.skipped_occupancy;
            Some(Degradation {
                shards_answered,
                shards_total,
                skipped_shards: ex.skipped.clone(),
                coverage: if known == 0 {
                    1.0
                } else {
                    ex.total as f64 / known as f64
                },
            })
        };

        let union = Coreset::merge_all(ex.artifacts).expect("at least one shard answered");
        let (solution, solve_input_size, coreset_radius, round_stats) = solve_union(
            problem,
            &union,
            &self.metric,
            k,
            &self.runtime,
            "combine:solve",
        );
        // The selected points come from the union, not the shards: a
        // concurrent writer may have deleted one since, but it was alive
        // in the extraction this answer certifies.
        let mut points = Vec::with_capacity(solution.indices.len());
        for &encoded in &solution.indices {
            let at = union
                .sources()
                .iter()
                .position(|&src| src == encoded as u64)
                .ok_or_else(|| DivError::CorruptState {
                    reason: format!("combiner selected {encoded}, absent from the union's sources"),
                })?;
            points.push(union.points()[at].clone());
        }

        // End the e2e span before snapshotting so this very query is
        // already in the histogram the report carries.
        drop(e2e);
        let report = Report {
            problem,
            backend: Backend::ShardedDynamic,
            k,
            k_prime,
            coreset_size: solve_input_size,
            coreset_radius: Some(coreset_radius),
            indices: solution.indices,
            points,
            value: solution.value,
            timings: vec![
                StageTiming {
                    stage: "warm-extract".into(),
                    secs: extract_secs,
                },
                // Component of warm-extract spent *waiting* for shard
                // locks — the contention share of warm latency.
                // Row names are pinned in `tests/serve_pool.rs`.
                StageTiming {
                    stage: "warm-lock-wait".into(),
                    secs: ex.lock_wait_secs,
                },
                StageTiming {
                    stage: round_stats.name.clone(),
                    secs: round_stats.wall.as_secs_f64(),
                },
            ],
            memory: vec![
                StageMemory {
                    stage: "warm-extract".into(),
                    reducers: shards_answered,
                    max_local_points: ex.max_shard,
                    total_points: ex.total,
                    emitted_points: solve_input_size,
                },
                StageMemory {
                    stage: round_stats.name.clone(),
                    reducers: round_stats.reducers,
                    max_local_points: round_stats.max_local_points,
                    total_points: round_stats.total_points,
                    emitted_points: round_stats.emitted_points,
                },
            ],
            certificate: None,
            degradation,
            telemetry: diversity_obs::snapshot(),
        };
        Ok(report)
    }

    /// Snapshots every shard into a serde-able [`PoolState`]. Shards
    /// are imaged one at a time, each under its writer lock: the
    /// snapshot is per-shard consistent; take it at a quiescent point
    /// for a cross-shard-exact image.
    ///
    /// The checkpoint doubles as each shard's recovery baseline: the
    /// acknowledged-operation log is folded into it and truncated, so
    /// periodic checkpoints bound both recovery replay time and log
    /// memory. Quarantined shards are recovered first (their state is
    /// fully reconstructible); a shard that cannot be recovered fails
    /// the checkpoint with the recovery's typed error.
    pub fn checkpoint(&self) -> Result<PoolState<P>, DivError> {
        let _span = diversity_obs::span("serve.checkpoint_ns");
        'restart: loop {
            let (shards, generation) = self.snapshot();
            let mut states = Vec::with_capacity(shards.len());
            for (shard, slot) in shards.iter().enumerate() {
                self.recover(shard)?;
                let mut writer = slot.writer.lock();
                if self.generation.load(Ordering::Acquire) != generation {
                    // A rebalance landed mid-walk: states imaged so far
                    // belong to the superseded partition and mixing
                    // generations could snapshot a point twice. Start
                    // over on the fresh set.
                    continue 'restart;
                }
                if slot.health() != ShardHealth::Healthy {
                    self.recover_locked(slot, shard, &mut writer)?;
                }
                states.push(self.rebase(slot, &mut writer));
            }
            return Ok(self.pool_state(states));
        }
    }

    /// Images a shard whose writer lock the caller holds.
    fn image(&self, slot: &Shard<P>) -> ShardState<P> {
        let (ids, points, start, next_id) = slot.data.read().export();
        ShardState {
            ids,
            points,
            start,
            next_id,
            epsilon: self.config.epsilon,
            dim: self.config.dim,
        }
    }

    /// [`image`](Self::image), made the shard's recovery baseline (the
    /// log folds in and truncates).
    fn rebase(&self, slot: &Shard<P>, recovery: &mut RecoveryState<P>) -> ShardState<P> {
        let state = self.image(slot);
        recovery.base = state.clone();
        recovery.log.clear();
        state
    }

    /// A [`PoolState`] of `states` with the router's state and the remap
    /// table.
    fn pool_state(&self, states: Vec<ShardState<P>>) -> PoolState<P> {
        let mut router = self.router.checkpoint();
        router.shards = states.len() as u64;
        let mut remap: Vec<RemapEntry> = self
            .remap
            .read()
            .iter()
            .map(|(&from, &to)| RemapEntry { from, to })
            .collect();
        remap.sort_by_key(|e| e.from);
        PoolState {
            shards: states,
            router,
            remap,
        }
    }

    /// Every shard's writer lock, in shard order, with every shard
    /// recovered: the pool's writers are fenced while the guards live
    /// (readers are not). `None` when a rebalance swapped the set in
    /// the meantime.
    fn quiesce<'a>(
        &self,
        shards: &'a [Shard<P>],
        generation: u64,
    ) -> Result<Option<Vec<parking_lot::MutexGuard<'a, RecoveryState<P>>>>, DivError> {
        // Recovery takes the writer lock itself, so run it before the
        // global acquisition pass.
        self.recover_all()?;
        let mut writers: Vec<_> = shards.iter().map(|slot| slot.writer.lock()).collect();
        if self.generation.load(Ordering::Acquire) != generation {
            return Ok(None);
        }
        // Health transitions need a writer lock, all of which we now
        // hold — but one may have slipped in between `recover_all` and
        // our acquisition. Recover in place.
        for (shard, writer) in writers.iter_mut().enumerate() {
            if shards[shard].health() != ShardHealth::Healthy {
                self.recover_locked(&shards[shard], shard, writer)?;
            }
        }
        Ok(Some(writers))
    }

    /// [`checkpoint`](Self::checkpoint) with **quiesced writers**: all
    /// shard writer locks are acquired (in shard order, so two
    /// concurrent consistent checkpoints cannot deadlock each other or
    /// the one-shard-at-a-time paths) before any shard is imaged, so
    /// the snapshot is an exact cross-shard image — no concurrent
    /// mutation can land between imaging shard `A` and shard `B`.
    /// Restoring it yields a pool bit-identical to this one at the
    /// moment of the snapshot, even when taken mid-churn.
    ///
    /// The cost is availability for writers: updates to *every* shard
    /// block for the duration. Readers keep answering from the
    /// published prefixes. Use the plain [`checkpoint`](Self::checkpoint)
    /// when per-shard consistency is enough. Like `checkpoint`,
    /// quarantined shards are recovered first and each shard's
    /// recovery baseline is refreshed (log folded in and truncated).
    pub fn checkpoint_consistent(&self) -> Result<PoolState<P>, DivError> {
        let _span = diversity_obs::span("serve.checkpoint_consistent_ns");
        loop {
            let (shards, generation) = self.snapshot();
            let Some(mut writers) = self.quiesce(&shards, generation)? else {
                // A rebalance swapped the set while we were acquiring:
                // these locks fence the superseded shards. Retry on
                // the fresh set.
                continue;
            };
            let states = shards
                .iter()
                .zip(writers.iter_mut())
                .map(|(slot, writer)| self.rebase(slot, writer))
                .collect();
            diversity_obs::count("serve.checkpoints.consistent", 1);
            return Ok(self.pool_state(states));
        }
    }

    /// Rolling rebalance counters — committed rebalances plus the skew
    /// the most recent one saw before/after (zeroes before the first).
    /// This is what the network layer's `Stats` reply reports.
    pub fn rebalance_stats(&self) -> RebalanceStats {
        RebalanceStats {
            rebalances: self.rebalances.load(Ordering::Acquire),
            last_skew_before: f64::from_bits(self.last_skew_before.load(Ordering::Acquire)),
            last_skew_after: f64::from_bits(self.last_skew_after.load(Ordering::Acquire)),
        }
    }

    /// Rebalances the pool unconditionally (no threshold or pacing
    /// check — that is [`maybe_rebalance`](Self::maybe_rebalance)):
    /// quiesce, re-partition, swap. See `rebalance_locked` for the
    /// protocol and the soundness argument.
    pub fn rebalance(&self) -> Result<RebalanceReport, DivError> {
        let mut ctl = self.rebalance_ctl.lock();
        self.rebalance_locked(&mut ctl)
    }

    /// Rebalances iff [`skew`](Self::skew) has reached
    /// `config.threshold` **and** at least `config.min_interval_ms` has
    /// passed since the last committed rebalance. `Ok(None)` when
    /// either gate holds the pool back — the cheap, always-safe call a
    /// serving loop makes after every write burst. Concurrent callers
    /// serialize on the rebalance lock, so a churn storm triggers one
    /// rebalance per interval, not one per caller.
    pub fn maybe_rebalance(
        &self,
        config: &RebalanceConfig,
    ) -> Result<Option<RebalanceReport>, DivError> {
        let mut ctl = self.rebalance_ctl.lock();
        if self.skew() < config.threshold {
            return Ok(None);
        }
        if let Some(last) = ctl.last {
            if last.elapsed() < Duration::from_millis(config.min_interval_ms) {
                return Ok(None);
            }
        }
        self.rebalance_locked(&mut ctl).map(Some)
    }

    /// The live rebalance protocol, under the rebalance lock:
    ///
    /// 1. **Quiesce** — recover every shard, then take every shard
    ///    writer lock in shard order (the `checkpoint_consistent`
    ///    discipline), fencing writers. Readers keep extracting from
    ///    the old shards — the old set stays alive behind its `Arc`
    ///    until the last of them is done.
    /// 2. **Cut** — image every shard into a consistent [`PoolState`].
    /// 3. **Re-partition** — [`rebalance_state`]: greedy largest-first
    ///    reassignment and a composed remap table. Runs under
    ///    `catch_unwind` with the [`faults::sites::REBALANCE`]
    ///    injection point inside, and nothing observable mutates until
    ///    step 5 — an injected panic (or any error) leaves the old pool
    ///    serving bit-identical answers: rebalance is **all-or-nothing**.
    /// 4. **Rebuild** — one shard per re-partitioned state, with its
    ///    points and no prefix (`O(1)` per point; the next query grows
    ///    the prefixes).
    /// 5. **Commit** — under the outer `shards` write lock: swap the
    ///    `Arc`, bump the swap generation (stale writers retry), fold
    ///    the remap table, bump the mutation epoch (a coalesced
    ///    follower can never be handed a pre-swap extraction), stamp
    ///    the pacing clock, publish telemetry. Pure moves and atomic
    ///    stores — this step cannot fail.
    ///
    /// ## Soundness (Definition 2)
    ///
    /// The paper states core-set composability for **arbitrary**
    /// partitions: the union of per-shard core-sets is a lawful
    /// core-set of the union of the shards, radius `max_i r_i`,
    /// regardless of which shard holds which point. The cut taken in
    /// step 2 is exact (all writer locks held), the re-partition holds
    /// the same multiset of points, and each rebuilt shard's traversal
    /// is deterministic given the cut — so every quiescent query after
    /// the swap answers bit-identically to a never-rebalanced pool
    /// restored from the same re-partitioned cut, and its merged radius
    /// certificate certifies the same ground truth. Only placement (and
    /// therefore skew) changes.
    fn rebalance_locked(&self, ctl: &mut RebalanceCtl) -> Result<RebalanceReport, DivError> {
        let _span = diversity_obs::span("serve.rebalance_ns");
        let skew_before = self.skew();
        // Only a rebalance commit swaps the shard set, and we hold the
        // rebalance lock — this snapshot cannot be superseded beneath us.
        let (shards, generation) = self.snapshot();
        let writers = self
            .quiesce(&shards, generation)?
            .expect("only a rebalance swaps the shard set");
        // Writers are fenced from here to the commit: that scope is the
        // pause the report charges to the rebalance.
        let pause_started = Instant::now();
        let cut = self.pool_state(shards.iter().map(|slot| self.image(slot)).collect());
        let repartitioned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.panic_point(faults::sites::REBALANCE);
            rebalance_state(&cut)
        }));
        let (next, fresh) = match repartitioned {
            Ok(result) => result?,
            Err(_panic) => {
                return Err(DivError::TransientFailure {
                    site: faults::sites::REBALANCE.into(),
                });
            }
        };
        let new_shards = shards_from_states(next.shards, "rebalanced shard")?;
        let occupancies: Vec<usize> = new_shards
            .iter()
            .map(|s| s.occupancy.load(Ordering::Relaxed))
            .collect();
        let skew_after = self.router.skew(&occupancies);

        // Commit. Everything below is moves and atomic stores — no
        // fallible operation may appear past this comment. The remap
        // fold happens under the outer write lock so resolution and
        // shard set can never be observed straddling the swap.
        {
            let mut live = self.shards.write();
            *live = Arc::new(new_shards);
            self.generation.fetch_add(1, Ordering::AcqRel);
            let mut table = self.remap.write();
            *table = next.remap.iter().map(|e| (e.from, e.to)).collect();
            drop(table);
            self.bump_epoch();
        }
        let pause = pause_started.elapsed();
        drop(writers); // the superseded set; last in-flight reader frees it
        ctl.last = Some(Instant::now());
        self.rebalances.fetch_add(1, Ordering::AcqRel);
        self.last_skew_before
            .store(skew_before.to_bits(), Ordering::Release);
        self.last_skew_after
            .store(skew_after.to_bits(), Ordering::Release);
        diversity_obs::count("serve.rebalances", 1);
        diversity_obs::count("serve.ids_remapped", fresh.len() as u64);
        if diversity_obs::enabled() {
            for (shard, occupancy) in occupancies.iter().enumerate() {
                diversity_obs::gauge_set(&self.gauge_names[shard], *occupancy as i64);
            }
        }
        Ok(RebalanceReport {
            skew_before,
            skew_after,
            ids_remapped: fresh.len(),
            pause,
        })
    }
}

/// Builds one shard per checkpointed state, each with no prefix; every
/// state must share the first one's `ε` and dimension.
fn shards_from_states<P: Clone>(
    states: Vec<ShardState<P>>,
    what: &str,
) -> Result<Vec<Shard<P>>, DivError> {
    let (epsilon, dim) = (states[0].epsilon, states[0].dim);
    states
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            if s.epsilon != epsilon || s.dim != dim {
                return Err(DivError::CorruptState {
                    reason: format!("{what} {i} checkpointed under a different configuration"),
                });
            }
            let data = Prefix::from_parts(s.ids.clone(), s.points.clone(), s.start, s.next_id)
                .map_err(|reason| DivError::CorruptState {
                    reason: format!("{what} {i}: {reason}"),
                })?;
            Ok(Shard::new(data, s))
        })
        .collect()
}

/// What a mutation produced (see `ShardPool::mutate`).
enum MutOutcome {
    Inserted(PointId),
    Deleted(bool),
}
