//! A reusable churn-stress driver: concurrent writer threads
//! (interleaved inserts + deletes) against concurrent reader threads
//! (warm-path queries), over one [`ShardPool`].
//!
//! The driver runs **one round** of churn on `core::par` scoped
//! threads and joins them all before returning, so the moment
//! [`churn_round`] returns is a *quiescent point*: the caller can
//! compare the pool's answer against a fresh sequential solve of the
//! surviving points, audit the composed certificate against ground
//! truth, and round-trip a checkpoint — exactly the assertions the
//! `serve_churn` stress test runs after every round. Iteration counts
//! scale with the `SERVE_CHURN_OPS` environment knob ([`env_ops`]) so
//! CI smoke runs stay bounded while local runs can turn the pressure
//! up.
//!
//! [`chaos_round`] is the fault-tolerant variant: run it on a pool
//! holding a seeded [`diversity_faults::FaultPlan`]
//! ([`ShardPool::with_faults`]) and it drives the same
//! concurrent schedule while *tolerating* the typed failure surface —
//! updates may be refused ([`DivError::ShardUnavailable`],
//! [`DivError::TransientFailure`]), answers may be degraded (a
//! [`Report`] carrying `degradation`) or refused
//! ([`DivError::PoolUnavailable`]) — and asserting the invariants that
//! must hold *anyway*: an acknowledged insert is never lost, a
//! degraded answer's [`Degradation`] is internally consistent, and
//! every answer still carries the composed certificate.

use crate::pool::{ShardPool, ShardedId};
use diversity::{Degradation, DivError, Report, Task};
use diversity_core::par;
use diversity_core::Problem;
use metric::Metric;

/// Shape of one churn round.
#[derive(Clone, Copy, Debug)]
pub struct ChurnConfig {
    /// Concurrent writer threads.
    pub writers: usize,
    /// Concurrent reader threads.
    pub readers: usize,
    /// Points each writer inserts during the round.
    pub inserts_per_writer: usize,
    /// After every `delete_every` inserts a writer deletes the oldest
    /// point *it inserted this round* (`0` disables deletions). Only
    /// own-round points are deleted, so anything the pool held when
    /// the round started survives — which is what lets readers assert
    /// success: the pool never shrinks below its seed.
    pub delete_every: usize,
    /// Queries each reader issues during the round.
    pub queries_per_reader: usize,
}

/// What one round produced, for the caller's quiescent assertions.
#[derive(Debug)]
pub struct ChurnOutcome<P> {
    /// Handles inserted this round and still alive at the join.
    pub survivors: Vec<ShardedId>,
    /// Points deleted by the writers this round.
    pub deleted: usize,
    /// Every successful concurrent read, in per-reader order.
    pub reports: Vec<Report<P>>,
}

/// What one **chaos** round produced ([`chaos_round`]): the
/// [`ChurnOutcome`] accounting plus the fault-path tallies the caller
/// audits against the pool's plan's log.
#[derive(Debug)]
pub struct ChaosOutcome<P> {
    /// Handles *acknowledged* this round and still alive at the join —
    /// the pool's durability obligation, whatever faults fired.
    pub survivors: Vec<ShardedId>,
    /// Acknowledged deletions.
    pub deleted: usize,
    /// Every answer a reader received (full and degraded alike).
    pub reports: Vec<Report<P>>,
    /// How many of those answers carried a [`Degradation`].
    pub degraded: usize,
    /// Updates refused with a typed error (shard unavailable after
    /// recovery exhaustion, transient injection) — never silently
    /// dropped, never partially applied.
    pub update_rejections: usize,
    /// Queries refused with a typed error (pool unavailable, transient
    /// admission failure).
    pub query_rejections: usize,
}

/// Reads the `SERVE_CHURN_OPS` knob: the per-writer insert count for
/// stress runs, defaulting to `default` when unset. CI smoke sets a
/// small value to bound wall-clock; local stress runs can raise it
/// without touching the test. Parsing is strict: an invalid value
/// (empty, zero, signed, non-numeric, overflow) warns once on stderr,
/// bumps the `env.invalid_value` counter through the observability
/// layer, and falls back to `default` — it is never silently coerced.
pub fn env_ops(default: usize) -> usize {
    diversity_obs::env::positive_usize("SERVE_CHURN_OPS", default.max(1))
}

/// Runs one churn round: `writers + readers` scoped threads hammer the
/// pool concurrently, and the call returns only after **all** of them
/// joined (a quiescent point).
///
/// Writers insert `gen(writer, i)` and interleave deletions of their
/// own insertions per [`ChurnConfig::delete_every`]. Readers issue
/// `pool.query(task)` and assert every answer's shape (exactly `k`
/// points, finite positive value, a composed radius present);
/// [`DivError::InvalidK`]/[`DivError::EmptyInput`] are tolerated only
/// while the pool is genuinely smaller than `k` — seed the pool with
/// `k` undeletable points to make every read assert success.
///
/// This driver expects a **fault-free** pool: any typed failure
/// (shard unavailable, transient error) fails the calling test. Use
/// [`chaos_round`] when the pool holds a fault plan.
///
/// # Panics
/// Panics (failing the calling test) when a reader observes a
/// malformed answer or an unexpected error, or when a writer's update
/// is refused.
pub fn churn_round<P, M>(
    pool: &ShardPool<P, M>,
    task: &Task,
    cfg: &ChurnConfig,
    gen: impl Fn(usize, usize) -> P + Send + Sync,
) -> ChurnOutcome<P>
where
    P: Clone + Send + Sync,
    M: Metric<P> + Clone,
{
    enum Out<P> {
        Writer(Vec<ShardedId>, usize),
        Reader(Vec<Report<P>>),
    }
    let seeded = pool.len();
    let gen = &gen;

    let mut tasks: Vec<Box<dyn FnOnce() -> Out<P> + Send + '_>> = Vec::new();
    for w in 0..cfg.writers {
        tasks.push(Box::new(move || {
            let mut mine: Vec<ShardedId> = Vec::with_capacity(cfg.inserts_per_writer);
            let mut next_delete = 0usize;
            let mut deleted = 0usize;
            for i in 0..cfg.inserts_per_writer {
                mine.push(pool.insert(gen(w, i)).expect("insert on a fault-free pool"));
                if cfg.delete_every > 0 && (i + 1) % cfg.delete_every == 0 {
                    // Delete own oldest survivor — never the seed.
                    if next_delete < mine.len() {
                        assert!(
                            pool.delete(mine[next_delete])
                                .expect("delete on a fault-free pool"),
                            "a writer's own id vanished without its delete"
                        );
                        deleted += 1;
                        next_delete += 1;
                    }
                }
            }
            Out::Writer(mine.split_off(next_delete), deleted)
        }));
    }
    for _ in 0..cfg.readers {
        tasks.push(Box::new(move || {
            let mut reports = Vec::with_capacity(cfg.queries_per_reader);
            for _ in 0..cfg.queries_per_reader {
                match pool.query(task) {
                    Ok(report) => {
                        assert_eq!(report.len(), task.k(), "a read returned the wrong k");
                        assert!(
                            report.value.is_finite() && report.value >= 0.0,
                            "a read returned a malformed value: {}",
                            report.value
                        );
                        assert!(
                            report.coreset_radius.is_some(),
                            "warm-path reads always carry the composed certificate"
                        );
                        reports.push(report);
                    }
                    Err(DivError::InvalidK { .. } | DivError::EmptyInput) if seeded < task.k() => {
                        // The pool really can be smaller than k.
                    }
                    Err(e) => panic!("concurrent read failed: {e}"),
                }
            }
            Out::Reader(reports)
        }));
    }

    let mut survivors = Vec::new();
    let mut deleted = 0usize;
    let mut reports = Vec::new();
    for out in par::run_tasks(tasks) {
        match out {
            Out::Writer(mine, d) => {
                survivors.extend(mine);
                deleted += d;
            }
            Out::Reader(r) => reports.extend(r),
        }
    }
    ChurnOutcome {
        survivors,
        deleted,
        reports,
    }
}

/// Checks a degraded answer's [`Degradation`] block for internal
/// consistency (used by [`chaos_round`]'s readers and exposed for the
/// chaos tests' own audits).
///
/// # Panics
/// Panics when the block is inconsistent: zero or over-counted
/// answered shards, skipped list disagreeing with the counts, skipped
/// indices out of range or duplicated, or coverage outside `(0, 1]`.
pub fn assert_degradation_consistent(d: &Degradation, shards: usize) {
    assert!(
        d.shards_total == shards,
        "degradation reports {} shards, pool has {shards}",
        d.shards_total
    );
    assert!(d.shards_answered >= 1, "a degraded answer still answered");
    assert!(
        d.shards_answered + d.skipped_shards.len() == d.shards_total,
        "answered {} + skipped {} must cover all {} shards",
        d.shards_answered,
        d.skipped_shards.len(),
        d.shards_total
    );
    assert!(
        !d.skipped_shards.is_empty(),
        "degraded answers name their skips"
    );
    let mut seen = vec![false; shards];
    for &s in &d.skipped_shards {
        assert!(s < shards, "skipped shard {s} out of range");
        assert!(!seen[s], "skipped shard {s} listed twice");
        seen[s] = true;
    }
    assert!(
        d.coverage > 0.0 && d.coverage <= 1.0,
        "coverage {} outside (0, 1]",
        d.coverage
    );
}

/// Runs one **chaos** round: the same concurrent schedule as
/// [`churn_round`], on a pool holding a
/// [`diversity_faults::FaultPlan`]. Where the fault-free driver
/// asserts that nothing fails, this one asserts that failures stay
/// *typed and bounded*:
///
/// * an update either succeeds (and its handle is durable — the
///   returned survivors must all be alive at the join) or is refused
///   with [`DivError::ShardUnavailable`] /
///   [`DivError::TransientFailure`]; a refused delete leaves its
///   target alive, so the writer retires it at the quiescent point;
/// * a read either answers in full, answers degraded (every
///   [`Degradation`] block is checked with
///   [`assert_degradation_consistent`], and the answer still carries
///   the composed radius), or is refused with
///   [`DivError::PoolUnavailable`] / [`DivError::TransientFailure`];
/// * nothing else: any other error, malformed answer, or process
///   panic fails the calling test.
///
/// The join is **not** automatically a fault-free quiescent point —
/// shards may still be quarantined. Callers typically disarm the
/// plan ([`diversity_faults::FaultPlan::disarm`]), call
/// [`ShardPool::recover_all`], and then run the usual ground-truth
/// audits.
pub fn chaos_round<P, M>(
    pool: &ShardPool<P, M>,
    task: &Task,
    cfg: &ChurnConfig,
    gen: impl Fn(usize, usize) -> P + Send + Sync,
) -> ChaosOutcome<P>
where
    P: Clone + Send + Sync,
    M: Metric<P> + Clone,
{
    enum Out<P> {
        Writer {
            survivors: Vec<ShardedId>,
            deleted: usize,
            rejections: usize,
        },
        Reader {
            reports: Vec<Report<P>>,
            degraded: usize,
            rejections: usize,
        },
    }
    let seeded = pool.len();
    let shards = pool.num_shards();
    let gen = &gen;

    let mut tasks: Vec<Box<dyn FnOnce() -> Out<P> + Send + '_>> = Vec::new();
    for w in 0..cfg.writers {
        tasks.push(Box::new(move || {
            let mut mine: Vec<ShardedId> = Vec::with_capacity(cfg.inserts_per_writer);
            let mut next_delete = 0usize;
            let mut deleted = 0usize;
            let mut rejections = 0usize;
            for i in 0..cfg.inserts_per_writer {
                match pool.insert(gen(w, i)) {
                    Ok(id) => mine.push(id),
                    Err(DivError::ShardUnavailable { .. } | DivError::TransientFailure { .. }) => {
                        rejections += 1
                    }
                    Err(e) => panic!("chaos insert failed untypedly: {e}"),
                }
                if cfg.delete_every > 0
                    && (i + 1) % cfg.delete_every == 0
                    && next_delete < mine.len()
                {
                    match pool.delete(mine[next_delete]) {
                        Ok(gone) => {
                            // An acknowledged insert can only disappear
                            // through our own delete.
                            assert!(gone, "an acknowledged id vanished without its delete");
                            deleted += 1;
                            next_delete += 1;
                        }
                        Err(
                            DivError::ShardUnavailable { .. } | DivError::TransientFailure { .. },
                        ) => {
                            // Refused ⇒ not applied; the id stays in
                            // `mine` as a survivor.
                            rejections += 1;
                        }
                        Err(e) => panic!("chaos delete failed untypedly: {e}"),
                    }
                }
            }
            Out::Writer {
                survivors: mine.split_off(next_delete),
                deleted,
                rejections,
            }
        }));
    }
    for _ in 0..cfg.readers {
        tasks.push(Box::new(move || {
            let mut reports = Vec::with_capacity(cfg.queries_per_reader);
            let mut degraded = 0usize;
            let mut rejections = 0usize;
            for _ in 0..cfg.queries_per_reader {
                match pool.query(task) {
                    Ok(report) => {
                        assert_eq!(report.len(), task.k(), "a read returned the wrong k");
                        assert!(
                            report.value.is_finite() && report.value >= 0.0,
                            "a read returned a malformed value: {}",
                            report.value
                        );
                        assert!(
                            report.coreset_radius.is_some(),
                            "degraded or not, answers carry the composed certificate"
                        );
                        if let Some(d) = &report.degradation {
                            assert_degradation_consistent(d, shards);
                            degraded += 1;
                        }
                        reports.push(report);
                    }
                    Err(DivError::PoolUnavailable { .. } | DivError::TransientFailure { .. }) => {
                        rejections += 1
                    }
                    Err(DivError::InvalidK { .. } | DivError::EmptyInput) if seeded < task.k() => {}
                    Err(e) => panic!("chaos read failed untypedly: {e}"),
                }
            }
            Out::Reader {
                reports,
                degraded,
                rejections,
            }
        }));
    }

    let mut outcome = ChaosOutcome {
        survivors: Vec::new(),
        deleted: 0,
        reports: Vec::new(),
        degraded: 0,
        update_rejections: 0,
        query_rejections: 0,
    };
    for out in par::run_tasks(tasks) {
        match out {
            Out::Writer {
                survivors,
                deleted,
                rejections,
            } => {
                outcome.survivors.extend(survivors);
                outcome.deleted += deleted;
                outcome.update_rejections += rejections;
            }
            Out::Reader {
                reports,
                degraded,
                rejections,
            } => {
                outcome.reports.extend(reports);
                outcome.degraded += degraded;
                outcome.query_rejections += rejections;
            }
        }
    }
    outcome
}

/// Upper bound on the objective-value loss of solving `problem` on a
/// core-set with covering radius `radius` instead of the full set —
/// the "structure-reported" accuracy term a warm-path answer's
/// `coreset_radius` certifies. Derivation (proxy-function Lemmas 1–2):
/// each of the `k` optimum points maps to a core-set point within
/// `radius`, perturbing any single pairwise distance by at most
/// `2·radius`; the objective sums (or minimizes over) a known number
/// of pairwise terms, so the loss is that term count times
/// `2·radius`:
/// min-terms (edge) 1, clique `k(k−1)/2`, star/tree `k−1`, cycle `k`,
/// bipartition `⌊k/2⌋·⌈k/2⌉`.
pub fn value_loss(problem: Problem, k: usize, radius: f64) -> f64 {
    let k = k as f64;
    let pairs = match problem {
        Problem::RemoteEdge => 1.0,
        Problem::RemoteClique => k * (k - 1.0) / 2.0,
        Problem::RemoteStar | Problem::RemoteTree => k - 1.0,
        Problem::RemoteCycle => k,
        Problem::RemoteBipartition => (k / 2.0).floor() * (k / 2.0).ceil(),
    };
    2.0 * radius * pairs
}
