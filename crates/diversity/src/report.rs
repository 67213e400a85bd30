//! The uniform result type every [`crate::Task`] entry point returns.
//!
//! The paper's pipelines all end the same way — a core-set in one
//! machine's memory, the sequential `α`-approximation run on it — but
//! the legacy free functions return differently-shaped results
//! (`Solution` with indices, `StreamSolution` with owned points,
//! `MrOutcome` wrappers). [`Report`] unifies them:
//! selected **indices and owned points**, the objective value, core-set
//! provenance, per-stage timings, and — when the task was sized from an
//! accuracy target — the theory-side `(α + ε)` certificate.

use diversity_core::Problem;
use serde::{Deserialize, Serialize};

/// Which execution substrate produced a [`Report`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Backend {
    /// Single-machine core-set pipeline (`pipeline::coreset_then_solve`).
    Sequential,
    /// One-pass streaming (Theorem 3).
    Streaming,
    /// Simulated MapReduce (Theorems 6–8, 10).
    MapReduce,
    /// The serving pool's warm answer
    /// (`diversity_serve::ShardPool::query`): each shard keeps round 1
    /// of the 2-round algorithm current under inserts and deletes, and
    /// the query merges the shards' core-sets through its combiner.
    ShardedDynamic,
}

/// Wall-clock time of one named pipeline stage (a MapReduce round, the
/// core-set extraction, the final sequential solve, ...).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StageTiming {
    /// Stage label, e.g. `"coreset"`, `"solve"`, `"round1:coreset"`.
    pub stage: String,
    /// Stage wall-clock in seconds.
    pub secs: f64,
}

/// Memory accounting of one pipeline stage, in **points** — the
/// quantity the paper's `M_L` / `M_T` bounds govern (Table 3). For
/// MapReduce backends this surfaces the per-round
/// `diversity_mapreduce::RoundStats` that used to stay inside
/// `MrOutcome`; for streaming it reports the pass's peak residency.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StageMemory {
    /// Stage label, aligned with the [`StageTiming`] of the same stage.
    pub stage: String,
    /// Number of logical reducers (1 for non-MapReduce stages).
    pub reducers: usize,
    /// Largest number of points resident in a single reducer — the
    /// paper's per-machine `M_L`.
    pub max_local_points: usize,
    /// Total points resident across reducers (`M_T` is linear in this).
    pub total_points: usize,
    /// Points shipped out of the stage (shuffle volume into the next).
    pub emitted_points: usize,
}

/// The theory-side accuracy certificate attached when the task was
/// sized with [`crate::Budget::Eps`]: on inputs of doubling dimension
/// at most the budget's `dim`, the executing backend's theorem
/// (Theorem 3 streaming, Theorems 5–6 MapReduce, their `ℓ = 1` case
/// sequentially — each with its own kernel sizing, which the budget
/// resolution applies) guarantees `value >= OPT / (alpha + eps)`. A
/// serving pool's warm answer never attaches one: its composed
/// `coreset_radius` is the accuracy witness.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Certificate {
    /// The sequential algorithm's approximation factor `α` (Table 1).
    pub alpha: f64,
    /// The accuracy target the kernel was sized for.
    pub eps: f64,
    /// The combined guarantee `α + ε`.
    pub factor: f64,
}

impl Certificate {
    /// Whether this certificate's claim holds for an achieved `value`
    /// against a known lower bound on `OPT`: the guarantee is
    /// `value ≥ OPT / factor`, so it certifies iff
    /// `value · factor ≥ opt_lower_bound`. Useful for checking a run
    /// against ground truth (exact `div_k` on small instances, or a
    /// planted optimum) — including projected runs, whose widened
    /// factor must still certify the *original-space* optimum.
    pub fn certifies(&self, value: f64, opt_lower_bound: f64) -> bool {
        value * self.factor >= opt_lower_bound
    }
}

/// How much of the pool a degraded warm-path answer actually saw.
///
/// Attached by the serving pool's `query` when one or more shards were
/// quarantined (or missed the query's deadline budget) and dropped out
/// of the [`Coreset`](diversity_core::coreset::Coreset) merge. The
/// answer — and its `coreset_radius` certificate — is **scoped to the
/// survivors**: by the composition law (Definition 2, Lemmas 3–4 —
/// union-with-max-radius over *arbitrary* partitions), the merge of the
/// answering shards' extractions is a valid core-set of exactly the
/// union of their alive points, so dropping a shard shrinks the
/// certified population but never invalidates the certificate.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Degradation {
    /// Shards whose extraction reached the merge.
    pub shards_answered: usize,
    /// Total shards in the pool.
    pub shards_total: usize,
    /// Indices of the shards that dropped out (quarantined, deadline
    /// miss, or a panic caught during extraction).
    pub skipped_shards: Vec<usize>,
    /// Fraction of the pool's known alive points the answer covers:
    /// `answered points / (answered points + skipped shards' last
    /// known occupancy)`. `1.0` would mean the skipped shards were all
    /// empty.
    pub coverage: f64,
}

/// The uniform result of a diversity task, identical in shape across
/// all four backends.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Report<P> {
    /// The objective that was maximized.
    pub problem: Problem,
    /// The substrate that executed the task.
    pub backend: Backend,
    /// Requested solution size; `indices`/`points` have exactly this
    /// many entries.
    pub k: usize,
    /// The resolved kernel budget `k'` the core-set was built with.
    pub k_prime: usize,
    /// Size of the core-set the final sequential solve ran on (for
    /// MapReduce: the union of per-partition core-sets shipped out of
    /// the last extraction round).
    pub coreset_size: usize,
    /// Covering-radius certificate of that core-set, when the backend
    /// produces one: every input point is within this distance of some
    /// core-set point (the `δ` of the proxy-function lemmas, composed
    /// across partitions/levels/shards by the
    /// [`Coreset`](diversity_core::coreset::Coreset) laws — `max` under
    /// union, `+` under re-extraction). `None` only when the backend
    /// has no certificate for the run (e.g. a recursive run is reported
    /// with its composed sum; a plain sequential run with its kernel
    /// range).
    pub coreset_radius: Option<f64>,
    /// The selected points' positions in the backend's index space:
    /// slice positions (sequential), original positions through the
    /// partition mapping (MapReduce), stream arrival order (streaming),
    /// or encoded pool handles (`diversity_serve::ShardedId`, whose
    /// shard-local ids on an insert-only shard are insertion order).
    pub indices: Vec<usize>,
    /// The selected points themselves, aligned with `indices`.
    pub points: Vec<P>,
    /// `div(points)` under `problem`'s objective.
    pub value: f64,
    /// Per-stage wall-clock timings, in execution order.
    pub timings: Vec<StageTiming>,
    /// Per-stage memory accounting (points resident / shipped), in
    /// execution order. Populated by the backends that measure
    /// residency — every MapReduce round, the streaming pass and the
    /// pool's extraction and combiner; empty for the sequential
    /// backend, which holds the input wholesale.
    pub memory: Vec<StageMemory>,
    /// Present iff the task's budget was [`crate::Budget::Eps`].
    pub certificate: Option<Certificate>,
    /// Present iff the answer is **degraded**: a warm-path query in
    /// which one or more shards dropped out of the merge. The value
    /// and `coreset_radius` then certify the surviving points only —
    /// see [`Degradation`]. `None` for every full-coverage answer and
    /// every non-pool backend.
    pub degradation: Option<Degradation>,
    /// A point-in-time [`Snapshot`](diversity_obs::Snapshot) of the
    /// installed observability recorder, taken as the run finished.
    /// `None` unless a recorder was installed
    /// ([`diversity_obs::install`]) when the task ran — the snapshot is
    /// cumulative across the recorder's lifetime, not scoped to this
    /// run.
    pub telemetry: Option<diversity_obs::Snapshot>,
}

impl<P> Report<P> {
    /// Number of selected points (always `k` on success).
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// `true` if nothing was selected (never the case on success).
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Total wall-clock across all recorded stages, in seconds.
    pub fn total_secs(&self) -> f64 {
        self.timings.iter().map(|t| t.secs).sum()
    }

    /// Checks this report's value against a known lower bound on `OPT`
    /// through its attached certificate
    /// ([`Certificate::certifies`]). `None` when the run carried no
    /// certificate (budget was not [`crate::Budget::Eps`]).
    pub fn certifies(&self, opt_lower_bound: f64) -> Option<bool> {
        self.certificate
            .map(|c| c.certifies(self.value, opt_lower_bound))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metric::VecPoint;

    fn sample() -> Report<VecPoint> {
        Report {
            problem: Problem::RemoteClique,
            backend: Backend::MapReduce,
            k: 2,
            k_prime: 8,
            coreset_size: 5,
            coreset_radius: Some(1.5),
            indices: vec![3, 7],
            points: vec![VecPoint::from([0.0, 1.0]), VecPoint::from([2.5, -1.0])],
            value: 4.25,
            timings: vec![
                StageTiming {
                    stage: "round1:coreset".into(),
                    secs: 0.25,
                },
                StageTiming {
                    stage: "round2:solve".into(),
                    secs: 0.5,
                },
            ],
            memory: vec![StageMemory {
                stage: "round1:coreset".into(),
                reducers: 3,
                max_local_points: 40,
                total_points: 100,
                emitted_points: 5,
            }],
            certificate: Some(Certificate {
                alpha: 2.0,
                eps: 0.5,
                factor: 2.5,
            }),
            degradation: None,
            telemetry: None,
        }
    }

    #[test]
    fn accessors() {
        let r = sample();
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
        assert!((r.total_secs() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn certifies_checks_the_factor_claim() {
        let r = sample(); // value 4.25, factor 2.5 → certifies OPT ≤ 10.625
        assert_eq!(r.certifies(10.0), Some(true));
        assert_eq!(r.certifies(10.625), Some(true), "boundary is inclusive");
        assert_eq!(r.certifies(11.0), Some(false));
        let mut bare = sample();
        bare.certificate = None;
        assert_eq!(bare.certifies(1.0), None);
    }

    #[test]
    fn serde_roundtrip() {
        let r = sample();
        let json = serde_json::to_string(&r).expect("serialize");
        let back: Report<VecPoint> = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(r, back);
    }

    #[test]
    fn telemetry_roundtrips() {
        let mut r = sample();
        let reg = diversity_obs::Registry::new();
        use diversity_obs::Recorder;
        reg.count("gmm.rounds", 7);
        reg.observe("serve.query.e2e_ns", 1234);
        r.telemetry = Some(reg.snapshot_now());
        let json = serde_json::to_string(&r).expect("serialize");
        let back: Report<VecPoint> = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(r, back);
        let snap = back.telemetry.expect("telemetry present");
        assert_eq!(snap.counter("gmm.rounds"), Some(7));
        assert_eq!(snap.histogram("serve.query.e2e_ns").unwrap().count, 1);
    }

    #[test]
    fn certificate_none_roundtrips() {
        let mut r = sample();
        r.certificate = None;
        let json = serde_json::to_string(&r).expect("serialize");
        assert!(json.contains("\"certificate\":null"));
        let back: Report<VecPoint> = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(r, back);
    }

    #[test]
    fn degradation_roundtrips() {
        let mut r = sample();
        assert!(
            serde_json::to_string(&r)
                .expect("serialize")
                .contains("\"degradation\":null"),
            "full-coverage answers carry an explicit null"
        );
        r.degradation = Some(Degradation {
            shards_answered: 3,
            shards_total: 4,
            skipped_shards: vec![2],
            coverage: 0.75,
        });
        let json = serde_json::to_string(&r).expect("serialize");
        let back: Report<VecPoint> = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(r, back);
        let d = back.degradation.expect("degraded");
        assert_eq!(d.skipped_shards, vec![2]);
        assert_eq!(d.shards_answered, 3);
    }
}
