//! The one front door: [`Task`] describes *what* to optimize —
//! problem, `k`, accuracy budget, thread cap — independently of *how*;
//! the `run_*` methods execute the same task on the sequential,
//! streaming and MapReduce substrates, a serving pool
//! (`diversity-serve`) answers it from maintained state, and all four
//! return the same [`Report`] shape.
//!
//! ```
//! use diversity::prelude::*;
//!
//! let (points, _) = datasets::sphere_shell(500, 4, 2, 42);
//! let task = Task::new(Problem::RemoteEdge, 4).budget(Budget::KPrime(16));
//!
//! // The same task, three substrates, one report type.
//! let seq = task.run_seq(&points, &Euclidean)?;
//! let stream = task.run_stream(points.iter().cloned(), &Euclidean)?;
//! let parts = mapreduce::partition::split_random(points.clone(), 4, 7);
//! let rt = mapreduce::MapReduceRuntime::with_threads(4);
//! let mr = task.run_mapreduce(&parts, &Euclidean, &rt, Strategy::TwoRound)?;
//!
//! assert_eq!(seq.len(), 4);
//! assert_eq!(stream.len(), 4);
//! assert_eq!(mr.len(), 4);
//! # Ok::<(), diversity::DivError>(())
//! ```

use std::cell::Cell;
use std::time::Instant;

use crate::error::DivError;
use crate::report::{Backend, Certificate, Report, StageMemory, StageTiming};
use diversity_core::{coreset, eval, par, pipeline, seq, Problem};
use diversity_mapreduce::{
    randomized::randomized_two_round, recursive::recursive_owned, three_round::three_round,
    two_round::two_round, MapReduceRuntime, MrOutcome, MrStats, Partitions,
};
use diversity_streaming::{Smm, SmmExt};
use metric::{DenseStore, Euclidean, JlProjection, Metric, VecPoint};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Default accuracy target for [`Budget::Auto`] when none is given.
const DEFAULT_AUTO_EPS: f64 = 0.5;
/// Default kernel-size cap for [`Budget::Auto`], as a multiple of `k`
/// (the paper's experiments find small multiples of `k` already
/// excellent; 32k sits at the generous end of its `8k`–`64k` range).
const DEFAULT_AUTO_CAP_MULTIPLE: usize = 32;
/// Points sampled for the doubling-dimension estimate in
/// [`Budget::Auto`] (taken at a uniform stride over the input —
/// [`strided_sample`] — so estimation cost stays bounded on large
/// inputs without biasing toward any one region).
const AUTO_SAMPLE_LIMIT: usize = 2048;

/// How the kernel budget `k'` — the size of the core-set every backend
/// funnels through — is determined.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Budget {
    /// Data-driven sizing: estimate the doubling dimension from a
    /// sample of the input and plug it into the Theorem 4–5 formula,
    /// capped at `cap` points (default: `32·k`). A `cap` below `k` is a
    /// [`DivError::BudgetTooSmall`] — unlike the legacy
    /// `coreset::suggest_kernel_size`, which silently clamps it up to
    /// `k`. Backends without random access resolve `Auto` differently:
    /// streaming uses `cap` directly as its center budget, and the
    /// serving pool sizes from its configured `ε` and dimension
    /// ([`Task::dynamic_k_prime`], capped at `cap`).
    Auto {
        /// Accuracy target `ε` in `(0, 1]`.
        eps: f64,
        /// Kernel-size cap; `None` means `32·k`.
        cap: Option<usize>,
    },
    /// An explicit kernel size `k'`, as the low-level free functions
    /// take. Must be at least `k`.
    KPrime(usize),
    /// Theory-driven sizing `k' = (base/ε')^D · k` from a target
    /// accuracy and a *known* doubling dimension, with the base
    /// matching the executing backend's lemma: Theorems 4–5 constants
    /// for sequential/MapReduce, doubled (Lemmas 3–4) for streaming.
    /// The returned [`Report`] carries the `(α + ε)` [`Certificate`]
    /// (except a serving pool's warm answer, whose composed covering
    /// radius is its accuracy witness). Beware the exponent: theory
    /// constants are pessimistic, so moderate `dim` values already
    /// produce enormous `k'` — resident state stays bounded by the
    /// input size, but run time grows accordingly; [`Budget::Auto`] is
    /// the practical choice.
    Eps {
        /// Accuracy target `ε` in `(0, 1]`.
        eps: f64,
        /// Doubling dimension `D` the guarantee is conditioned on.
        dim: u32,
    },
}

impl Default for Budget {
    /// `Auto` with `ε = 0.5` and the default `32·k` cap.
    fn default() -> Self {
        Budget::Auto {
            eps: DEFAULT_AUTO_EPS,
            cap: None,
        }
    }
}

impl Budget {
    /// Upfront validation shared by every backend: `eps` in `(0, 1]`,
    /// budget able to hold `k` points.
    fn validate(&self, k: usize) -> Result<(), DivError> {
        match *self {
            Budget::Auto { eps, cap } => {
                if !(eps > 0.0 && eps <= 1.0) {
                    return Err(DivError::InvalidEps { eps });
                }
                if let Some(cap) = cap {
                    if cap < k {
                        return Err(DivError::BudgetTooSmall { k_prime: cap, k });
                    }
                }
                Ok(())
            }
            Budget::KPrime(k_prime) => {
                if k_prime < k {
                    return Err(DivError::BudgetTooSmall { k_prime, k });
                }
                Ok(())
            }
            Budget::Eps { eps, .. } => {
                if !(eps > 0.0 && eps <= 1.0) {
                    return Err(DivError::InvalidEps { eps });
                }
                Ok(())
            }
        }
    }

    fn auto_cap(cap: Option<usize>, k: usize) -> usize {
        cap.unwrap_or_else(|| k.saturating_mul(DEFAULT_AUTO_CAP_MULTIPLE))
    }
}

// Budget carries data, which the vendored serde derive does not cover —
// hand-rolled externally-tagged impls, property-tested in
// `tests/task_serde.rs`.
impl Serialize for Budget {
    fn serialize_json(&self, out: &mut String) {
        match self {
            Budget::Auto { eps, cap } => {
                out.push_str("{\"Auto\":{\"eps\":");
                eps.serialize_json(out);
                out.push_str(",\"cap\":");
                cap.serialize_json(out);
                out.push_str("}}");
            }
            Budget::KPrime(k_prime) => {
                out.push_str("{\"KPrime\":");
                k_prime.serialize_json(out);
                out.push('}');
            }
            Budget::Eps { eps, dim } => {
                out.push_str("{\"Eps\":{\"eps\":");
                eps.serialize_json(out);
                out.push_str(",\"dim\":");
                dim.serialize_json(out);
                out.push_str("}}");
            }
        }
    }
}

impl Deserialize for Budget {
    fn deserialize_json(p: &mut serde::Parser<'_>) -> Result<Self, serde::Error> {
        p.expect(b'{')?;
        let tag = p.parse_key()?;
        let value = match tag.as_str() {
            "Auto" => {
                p.expect(b'{')?;
                expect_key(p, "eps")?;
                let eps = f64::deserialize_json(p)?;
                p.expect(b',')?;
                expect_key(p, "cap")?;
                let cap = Option::<usize>::deserialize_json(p)?;
                p.expect(b'}')?;
                Budget::Auto { eps, cap }
            }
            "KPrime" => Budget::KPrime(usize::deserialize_json(p)?),
            "Eps" => {
                p.expect(b'{')?;
                expect_key(p, "eps")?;
                let eps = f64::deserialize_json(p)?;
                p.expect(b',')?;
                expect_key(p, "dim")?;
                let dim = u32::deserialize_json(p)?;
                p.expect(b'}')?;
                Budget::Eps { eps, dim }
            }
            other => {
                return Err(serde::Error::custom(format!(
                    "unknown Budget variant `{other}`"
                )))
            }
        };
        p.expect(b'}')?;
        Ok(value)
    }
}

/// Which MapReduce algorithm [`Task::run_mapreduce`] executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// The deterministic 2-round algorithm (Theorem 6). Works for all
    /// six problems.
    TwoRound,
    /// The 3-round generalized-core-set algorithm (Theorem 10):
    /// `O(k)`-factor less shuffle volume. Injective-proxy problems
    /// only.
    ThreeRound,
    /// The randomized 2-round algorithm (Theorem 7). The input is
    /// **re-partitioned randomly** with `seed` before round 1 (keeping
    /// the caller's part count), because the reduced delegate cap is a
    /// w.h.p. guarantee *over the partitioning* — running it on an
    /// adversarial partition would silently void the theorem.
    /// Injective-proxy problems only.
    Randomized {
        /// Seed of the enforced random re-partitioning.
        seed: u64,
    },
    /// The multi-round recursive algorithm (Theorem 8) for local
    /// memories too small to union the round-1 core-sets.
    Recursive {
        /// Per-reducer memory budget in points (must be positive).
        memory_limit: usize,
    },
}

impl Serialize for Strategy {
    fn serialize_json(&self, out: &mut String) {
        match self {
            Strategy::TwoRound => out.push_str("\"TwoRound\""),
            Strategy::ThreeRound => out.push_str("\"ThreeRound\""),
            Strategy::Randomized { seed } => {
                out.push_str("{\"Randomized\":{\"seed\":");
                seed.serialize_json(out);
                out.push_str("}}");
            }
            Strategy::Recursive { memory_limit } => {
                out.push_str("{\"Recursive\":{\"memory_limit\":");
                memory_limit.serialize_json(out);
                out.push_str("}}");
            }
        }
    }
}

impl Deserialize for Strategy {
    fn deserialize_json(p: &mut serde::Parser<'_>) -> Result<Self, serde::Error> {
        if p.peek() == Some(b'"') {
            let tag = p.parse_string()?;
            return match tag.as_str() {
                "TwoRound" => Ok(Strategy::TwoRound),
                "ThreeRound" => Ok(Strategy::ThreeRound),
                other => Err(serde::Error::custom(format!(
                    "unknown Strategy variant `{other}`"
                ))),
            };
        }
        p.expect(b'{')?;
        let tag = p.parse_key()?;
        let value = match tag.as_str() {
            "Randomized" => {
                p.expect(b'{')?;
                expect_key(p, "seed")?;
                let seed = u64::deserialize_json(p)?;
                p.expect(b'}')?;
                Strategy::Randomized { seed }
            }
            "Recursive" => {
                p.expect(b'{')?;
                expect_key(p, "memory_limit")?;
                let memory_limit = usize::deserialize_json(p)?;
                p.expect(b'}')?;
                Strategy::Recursive { memory_limit }
            }
            other => {
                return Err(serde::Error::custom(format!(
                    "unknown Strategy variant `{other}`"
                )))
            }
        };
        p.expect(b'}')?;
        Ok(value)
    }
}

fn expect_key(p: &mut serde::Parser<'_>, want: &str) -> Result<(), serde::Error> {
    let key = p.parse_key()?;
    if key != want {
        return Err(serde::Error::custom(format!(
            "expected field `{want}`, found `{key}`"
        )));
    }
    Ok(())
}

/// An opt-in seeded Johnson–Lindenstrauss projection stage for
/// [`Task::run_projected`]: the pipeline runs in
/// `O(log k / eps²)`-dimensional projected space, then re-evaluates
/// the selected subset on the **original** points, and the attached
/// [`Certificate`] factor widens by `(1 + eps)/(1 − eps)` to account
/// for the distortion (see [`metric::JlProjection`] for the full
/// accounting against the paper's Lemmas 3–4). Deterministic: the same
/// `(eps, seed)` always draws the same matrix.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Projection {
    /// Distortion target `ε` in `(0, 1)` — pairwise distances are
    /// preserved within `(1 ± ε)` with high probability.
    pub eps: f64,
    /// Seed for the deterministic matrix draw.
    pub seed: u64,
}

/// A diversity-maximization job description: problem, solution size,
/// accuracy budget, and an optional thread cap. `Serialize` /
/// `Deserialize`, so a serving layer can accept it as a wire-format
/// job spec; execution is a separate, explicit step
/// ([`run_seq`](Task::run_seq), [`run_stream`](Task::run_stream),
/// [`run_mapreduce`](Task::run_mapreduce), or a serving pool's
/// query).
///
/// Unlike the low-level free functions, every entry point validates
/// upfront and returns [`DivError`] instead of panicking, and `k` is
/// strict: `k > n` is an error rather than a silently smaller answer.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Task {
    problem: Problem,
    k: usize,
    budget: Budget,
    threads: Option<usize>,
    projection: Option<Projection>,
}

impl Task {
    /// A task for `problem` selecting `k` points, with the default
    /// [`Budget::Auto`] sizing and automatic threading.
    pub fn new(problem: Problem, k: usize) -> Self {
        Self {
            problem,
            k,
            budget: Budget::default(),
            threads: None,
            projection: None,
        }
    }

    /// Sets how the kernel budget `k'` is determined.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Caps the threads used for the core-set extraction stage of
    /// [`run_seq`](Task::run_seq) (`0` restores the automatic choice).
    /// The other backends own their threading: MapReduce through its
    /// [`MapReduceRuntime`], and streaming is single-threaded per
    /// update by design.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = if threads == 0 { None } else { Some(threads) };
        self
    }

    /// The objective being maximized.
    pub fn problem(&self) -> Problem {
        self.problem
    }

    /// The requested solution size.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The configured budget.
    pub fn budget_spec(&self) -> Budget {
        self.budget
    }

    /// The configured thread cap, if any.
    pub fn thread_cap(&self) -> Option<usize> {
        self.threads
    }

    /// Opts into a seeded JL projection stage with distortion target
    /// `eps` — consumed only by [`run_projected`](Task::run_projected);
    /// the other entry points ignore it.
    pub fn project(mut self, eps: f64, seed: u64) -> Self {
        self.projection = Some(Projection { eps, seed });
        self
    }

    /// The configured projection stage, if any.
    pub fn projection_spec(&self) -> Option<Projection> {
        self.projection
    }

    // ---- shared validation helpers ----------------------------------

    fn check_k(&self, n: usize) -> Result<(), DivError> {
        if self.k == 0 || self.k > n {
            return Err(DivError::InvalidK {
                k: self.k,
                n: Some(n),
            });
        }
        Ok(())
    }

    /// The `(α+ε)` certificate for the theorem-backed backends
    /// (sequential, streaming, MapReduce — each of which sizes `k'`
    /// from its own lemma constants).
    fn certificate(&self) -> Option<Certificate> {
        match self.budget {
            Budget::Eps { eps, .. } => {
                let alpha = self.problem.alpha();
                Some(Certificate {
                    alpha,
                    eps,
                    factor: alpha + eps,
                })
            }
            _ => None,
        }
    }

    /// Resolves `k'` where a random-access sample is available
    /// (sequential, MapReduce). `sample` is consulted only for
    /// [`Budget::Auto`] and must already be representative (see
    /// [`strided_sample`]).
    fn resolve_budget_sampled<P, M: Metric<P>>(
        &self,
        sample: &[P],
        metric: &M,
    ) -> Result<usize, DivError> {
        self.budget.validate(self.k)?;
        Ok(match self.budget {
            Budget::KPrime(k_prime) => k_prime,
            Budget::Eps { eps, dim } => {
                coreset::theoretical_kernel_size(self.problem, self.k, eps, dim)
            }
            Budget::Auto { eps, cap } => {
                let cap = Budget::auto_cap(cap, self.k);
                coreset::suggest_kernel_size(self.problem, sample, metric, self.k, eps, cap)
            }
        })
    }

    /// Whether budget resolution will consult a data sample.
    fn needs_sample(&self) -> bool {
        matches!(self.budget, Budget::Auto { .. })
    }

    /// Resolves `k'` without data access (streaming): `Auto` falls back
    /// to its cap — in a one-pass setting the cap *is* the memory
    /// budget, the only meaningful data-free knob — and `Eps` uses the
    /// streaming lemmas' sizing, which doubles the MapReduce kernel
    /// base (Lemmas 3–4 vs 5–6): `(2·base/ε')^D·k = 2^D ·` the
    /// [`coreset::theoretical_kernel_size`] value, so the attached
    /// certificate's precondition is actually met.
    fn resolve_budget_memoryless(&self) -> Result<usize, DivError> {
        self.budget.validate(self.k)?;
        Ok(match self.budget {
            Budget::KPrime(k_prime) => k_prime,
            Budget::Eps { eps, dim } => {
                let mr_sized = coreset::theoretical_kernel_size(self.problem, self.k, eps, dim);
                mr_sized.saturating_mul(1usize.checked_shl(dim).unwrap_or(usize::MAX))
            }
            Budget::Auto { cap, .. } => Budget::auto_cap(cap, self.k),
        })
    }

    // ---- sequential --------------------------------------------------

    /// Runs the single-machine core-set pipeline (`GMM`/`GMM-EXT`, then
    /// the sequential `α`-approximation). Indices in the report are
    /// positions in `points`.
    pub fn run_seq<P, M>(&self, points: &[P], metric: &M) -> Result<Report<P>, DivError>
    where
        P: Clone + Sync,
        M: Metric<P>,
    {
        if points.is_empty() {
            return Err(DivError::EmptyInput);
        }
        self.check_k(points.len())?;
        let sample = if self.needs_sample() {
            strided_sample(points.len(), points.iter().cloned())
        } else {
            Vec::new()
        };
        let k_prime = self.resolve_budget_sampled(&sample, metric)?;
        let threads = self
            .threads
            .unwrap_or_else(|| par::auto_threads(points.len()));

        let t0 = Instant::now();
        let coreset = pipeline::extract_coreset_artifact_with_threads(
            self.problem,
            points,
            metric,
            self.k,
            k_prime,
            threads,
        );
        let coreset_secs = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let sol = pipeline::solve_coreset(self.problem, &coreset, metric, self.k);
        let solve_secs = t1.elapsed().as_secs_f64();

        Ok(Report {
            problem: self.problem,
            backend: Backend::Sequential,
            k: self.k,
            k_prime,
            coreset_size: coreset.len(),
            coreset_radius: Some(coreset.radius()),
            points: sol.indices.iter().map(|&i| points[i].clone()).collect(),
            indices: sol.indices,
            value: sol.value,
            timings: vec![
                StageTiming {
                    stage: "coreset".into(),
                    secs: coreset_secs,
                },
                StageTiming {
                    stage: "solve".into(),
                    secs: solve_secs,
                },
            ],
            memory: Vec::new(),
            certificate: self.certificate(),
            degradation: None,
            telemetry: diversity_obs::snapshot(),
        })
    }

    /// Runs the sequential pipeline through the task's seeded JL
    /// projection stage ([`Task::project`]): project the store down to
    /// `t = O(log k / eps²)` dimensions, run
    /// [`run_seq`](Task::run_seq) in projected space (where the batched
    /// SIMD kernels have far less data to stream), then map the
    /// selected indices back and **re-evaluate the objective on the
    /// original, unprojected points** — the reported `value` is always
    /// an original-space quantity.
    ///
    /// Euclidean-only by construction: the JL lemma is a statement
    /// about `ℓ₂`, so this entry point takes a [`DenseStore`] and fixes
    /// the metric to [`Euclidean`].
    ///
    /// Certificate accounting (see [`metric::JlProjection`] for the
    /// derivation): a [`Budget::Eps`] task's `(α + ε_c)` certificate
    /// widens by `(1 + ε)/(1 − ε)` — the claim
    /// `value ≥ OPT / factor` then holds against the *original-space*
    /// optimum. The coreset covering radius is likewise scaled by
    /// `1/(1 − ε)` to upper-bound its original-space counterpart.
    ///
    /// If the sufficient target dimension is not actually smaller than
    /// the input dimension (low-dim input, or a tight `eps`), the
    /// projection is skipped entirely — identity fallback, no
    /// certificate widening — rather than inflating the data.
    ///
    /// Deterministic: the same `(eps, seed)` draws the same matrix, so
    /// reports are reproducible from the task description alone.
    pub fn run_projected(&self, store: &DenseStore) -> Result<Report<VecPoint>, DivError> {
        let Some(Projection { eps, seed }) = self.projection else {
            return Err(DivError::ProjectionMissing);
        };
        if !(eps > 0.0 && eps < 1.0) {
            return Err(DivError::InvalidEps { eps });
        }
        if store.is_empty() {
            return Err(DivError::EmptyInput);
        }
        self.check_k(store.len())?;

        let t0 = Instant::now();
        let target = JlProjection::target_dim(self.k, eps);
        // Identity fallback: projecting sideways or *up* buys nothing.
        // `jl_eps = 0` below then makes every distortion adjustment a
        // no-op, so the report is exactly a `run_seq` report.
        let (projected, jl_eps) = if target >= store.dim() {
            (None, 0.0)
        } else {
            let jl = JlProjection::sparse(store.dim(), target, seed);
            (Some(jl.project_store(store)), eps)
        };
        let project_secs = t0.elapsed().as_secs_f64();

        let solve_store = projected.as_ref().unwrap_or(store);
        let rows = solve_store.rows();
        let inner = self.run_seq(&rows, &Euclidean)?;

        // Same indices, original coordinates: project_store preserves
        // point order, so index i of the projected store IS point i of
        // the input.
        let original = store.rows();
        let value = eval::evaluate_subset(self.problem, &original, &Euclidean, &inner.indices);
        let points: Vec<VecPoint> = inner.indices.iter().map(|&i| store.point(i)).collect();

        let mut timings = vec![StageTiming {
            stage: "project".into(),
            secs: project_secs,
        }];
        timings.extend(inner.timings);

        Ok(Report {
            problem: inner.problem,
            backend: inner.backend,
            k: inner.k,
            k_prime: inner.k_prime,
            coreset_size: inner.coreset_size,
            coreset_radius: inner.coreset_radius.map(|r| r / (1.0 - jl_eps)),
            points,
            indices: inner.indices,
            value,
            timings,
            memory: inner.memory,
            certificate: inner.certificate.map(|c| {
                let factor = JlProjection::widen_factor(c.factor, jl_eps);
                Certificate {
                    alpha: c.alpha,
                    eps: factor - c.alpha,
                    factor,
                }
            }),
            degradation: None,
            telemetry: diversity_obs::snapshot(),
        })
    }

    // ---- streaming ---------------------------------------------------

    /// Runs the one-pass streaming algorithm (Theorem 3) over
    /// `stream`. Indices in the report are stream arrival positions
    /// (0-based) — the provenance the streaming pass itself records in
    /// its [`Coreset`](diversity_core::coreset::Coreset) artifact, so
    /// the stream feeds the metric's **batched kernels** directly (no
    /// tagging wrapper hiding them behind scalar loops). An empty
    /// stream is detected on the *first* poll — no data is buffered
    /// before the error — and a stream shorter than `k` reports
    /// [`DivError::InvalidK`] with the observed length.
    pub fn run_stream<P, M, I>(&self, stream: I, metric: &M) -> Result<Report<P>, DivError>
    where
        P: Clone + Sync,
        M: Metric<P>,
        I: IntoIterator<Item = P>,
    {
        if self.k == 0 {
            return Err(DivError::InvalidK { k: 0, n: None });
        }
        let k_prime = self.resolve_budget_memoryless()?;

        let mut iter = stream.into_iter();
        let Some(first) = iter.next() else {
            return Err(DivError::EmptyStream);
        };

        let seen = Cell::new(0usize);
        let counted_stream = std::iter::once(first).chain(iter).inspect(|_| {
            seen.set(seen.get() + 1);
        });

        let t0 = Instant::now();
        let (coreset, peak_memory) = if self.problem.needs_injective_proxy() {
            let res = SmmExt::run(metric, self.k, k_prime, counted_stream);
            let peak = res.peak_memory_points;
            (res.into_coreset(), peak)
        } else {
            let res = Smm::run(metric, self.k, k_prime, counted_stream);
            let peak = res.peak_memory_points;
            (res.into_coreset(), peak)
        };
        let coreset_secs = t0.elapsed().as_secs_f64();

        let n = seen.get();
        if n < self.k {
            return Err(DivError::InvalidK {
                k: self.k,
                n: Some(n),
            });
        }

        let t1 = Instant::now();
        let sol = seq::solve(self.problem, coreset.points(), metric, self.k);
        let solve_secs = t1.elapsed().as_secs_f64();

        Ok(Report {
            problem: self.problem,
            backend: Backend::Streaming,
            k: self.k,
            k_prime,
            coreset_size: coreset.len(),
            coreset_radius: Some(coreset.radius()),
            indices: sol
                .indices
                .iter()
                .map(|&i| coreset.sources()[i] as usize)
                .collect(),
            points: sol
                .indices
                .iter()
                .map(|&i| coreset.points()[i].clone())
                .collect(),
            value: sol.value,
            timings: vec![
                StageTiming {
                    stage: "stream-coreset".into(),
                    secs: coreset_secs,
                },
                StageTiming {
                    stage: "solve".into(),
                    secs: solve_secs,
                },
            ],
            memory: vec![StageMemory {
                stage: "stream-coreset".into(),
                reducers: 1,
                max_local_points: peak_memory,
                total_points: peak_memory,
                emitted_points: coreset.len(),
            }],
            certificate: self.certificate(),
            degradation: None,
            telemetry: diversity_obs::snapshot(),
        })
    }

    // ---- MapReduce ---------------------------------------------------

    /// Runs one of the MapReduce algorithms over pre-partitioned input.
    /// Indices in the report are positions in the original (pre-
    /// partitioning) input, through the partition's `global_indices`
    /// mapping — which is validated upfront
    /// ([`DivError::MalformedPartitions`]) since partitions may arrive
    /// hand-built or over the wire.
    pub fn run_mapreduce<P, M>(
        &self,
        partitions: &Partitions<P>,
        metric: &M,
        runtime: &MapReduceRuntime,
        strategy: Strategy,
    ) -> Result<Report<P>, DivError>
    where
        P: Clone + Send + Sync,
        M: Metric<P>,
    {
        let n = validate_partitions(partitions)?;
        if n == 0 {
            return Err(DivError::EmptyInput);
        }
        self.check_k(n)?;
        let sample = if self.needs_sample() {
            // Stride across *all* parts: sampling one partition would
            // bias the dimension estimate under sorted-chunk
            // (adversarial) partitioning.
            strided_sample(n, partitions.parts.iter().flatten().cloned())
        } else {
            Vec::new()
        };
        let k_prime = self.resolve_budget_sampled(&sample, metric)?;

        let outcome: MrOutcome = match strategy {
            Strategy::TwoRound => {
                two_round(self.problem, partitions, metric, self.k, k_prime, runtime)
            }
            Strategy::ThreeRound => {
                if !self.problem.needs_injective_proxy() {
                    return Err(DivError::UnsupportedStrategy {
                        problem: self.problem,
                        strategy,
                    });
                }
                three_round(self.problem, partitions, metric, self.k, k_prime, runtime)
            }
            Strategy::Randomized { seed } => {
                if !self.problem.needs_injective_proxy() {
                    return Err(DivError::UnsupportedStrategy {
                        problem: self.problem,
                        strategy,
                    });
                }
                let reshuffled = reshuffle(partitions, seed);
                randomized_two_round(self.problem, &reshuffled, metric, self.k, k_prime, runtime)
            }
            Strategy::Recursive { memory_limit } => {
                if memory_limit == 0 {
                    return Err(DivError::InvalidMemoryLimit);
                }
                // The recursive driver takes the flat input; rebuild it
                // in original order so its indices are already global,
                // handing the copy over as its level-0 working set.
                let flat = flatten(partitions, n);
                recursive_owned(
                    self.problem,
                    flat,
                    metric,
                    self.k,
                    k_prime,
                    memory_limit,
                    runtime,
                )
            }
        };

        Ok(Report {
            problem: self.problem,
            backend: Backend::MapReduce,
            k: self.k,
            k_prime,
            coreset_size: outcome.solve_input_size,
            coreset_radius: Some(outcome.coreset_radius),
            points: points_at(partitions, n, &outcome.solution.indices),
            indices: outcome.solution.indices,
            value: outcome.solution.value,
            timings: outcome
                .stats
                .rounds
                .iter()
                .map(|r| StageTiming {
                    stage: r.name.clone(),
                    secs: r.wall.as_secs_f64(),
                })
                .collect(),
            memory: memory_stages(&outcome.stats),
            certificate: self.certificate(),
            degradation: None,
            telemetry: diversity_obs::snapshot(),
        })
    }

    /// Resolves the kernel budget `k'` for a query answered from
    /// maintained state, without a data sample: the sizing
    /// `diversity-serve`'s `ShardPool` applies, with its configured
    /// `epsilon` and `dim`. [`Budget::KPrime`] as given,
    /// [`Budget::Eps`] through the Theorem 4–5 formula, and
    /// [`Budget::Auto`] as `(base/epsilon)^dim · k`, `base` the
    /// problem's kernel constant, capped at the budget's cap and
    /// floored at `k`. An `Auto` budget with an `epsilon` that is not
    /// positive and finite is [`DivError::InvalidEps`].
    pub fn dynamic_k_prime(&self, epsilon: f64, dim: u32) -> Result<usize, DivError> {
        self.budget.validate(self.k)?;
        Ok(match self.budget {
            Budget::KPrime(k_prime) => k_prime,
            Budget::Eps { eps, dim } => {
                coreset::theoretical_kernel_size(self.problem, self.k, eps, dim)
            }
            Budget::Auto { cap, .. } => {
                if !(epsilon > 0.0 && epsilon.is_finite()) {
                    return Err(DivError::InvalidEps { eps: epsilon });
                }
                let per_center = (self.problem.kernel_base() / epsilon).powi(dim as i32);
                // The cast saturates: an overflowing size is `usize::MAX`.
                let sized = (per_center * self.k as f64).ceil() as usize;
                sized.min(Budget::auto_cap(cap, self.k)).max(self.k)
            }
        })
    }
}

/// [`StageMemory`] rows from a MapReduce run's per-round stats — the
/// `Report`-level surface of the `M_L` / `M_T` accounting.
fn memory_stages(stats: &MrStats) -> Vec<StageMemory> {
    stats
        .rounds
        .iter()
        .map(|r| StageMemory {
            stage: r.name.clone(),
            reducers: r.reducers,
            max_local_points: r.max_local_points,
            total_points: r.total_points,
            emitted_points: r.emitted_points,
        })
        .collect()
}

/// Up to [`AUTO_SAMPLE_LIMIT`] points taken at a uniform stride across
/// the whole collection, so that ordered (or adversarially partitioned)
/// data does not bias [`Budget::Auto`]'s doubling-dimension estimate
/// the way a prefix or single-partition sample would.
fn strided_sample<P>(total: usize, points: impl Iterator<Item = P>) -> Vec<P> {
    let stride = total.div_ceil(AUTO_SAMPLE_LIMIT).max(1);
    points.step_by(stride).take(AUTO_SAMPLE_LIMIT).collect()
}

/// Checks part/index row alignment and that `global_indices` is a
/// permutation of `0..n`; returns `n`.
fn validate_partitions<P>(partitions: &Partitions<P>) -> Result<usize, DivError> {
    if partitions.parts.len() != partitions.global_indices.len() {
        return Err(DivError::MalformedPartitions {
            reason: format!(
                "{} parts but {} global-index rows",
                partitions.parts.len(),
                partitions.global_indices.len()
            ),
        });
    }
    let n = partitions.total_points();
    let mut seen = vec![false; n];
    for (part_id, (part, globals)) in partitions
        .parts
        .iter()
        .zip(&partitions.global_indices)
        .enumerate()
    {
        if part.len() != globals.len() {
            return Err(DivError::MalformedPartitions {
                reason: format!(
                    "part {part_id} holds {} points but {} global indices",
                    part.len(),
                    globals.len()
                ),
            });
        }
        for &global in globals {
            if global >= n {
                return Err(DivError::MalformedPartitions {
                    reason: format!("global index {global} out of range for {n} points"),
                });
            }
            if seen[global] {
                return Err(DivError::MalformedPartitions {
                    reason: format!("global index {global} appears twice"),
                });
            }
            seen[global] = true;
        }
    }
    Ok(n)
}

/// The points at global indices `wanted`, in that order, found in one
/// pass over validated partitions of `n` points.
fn points_at<P: Clone>(partitions: &Partitions<P>, n: usize, wanted: &[usize]) -> Vec<P> {
    let mut is_wanted = vec![false; n];
    for &g in wanted {
        is_wanted[g] = true;
    }
    let mut found: Vec<Option<P>> = vec![None; wanted.len()];
    for (part, globals) in partitions.parts.iter().zip(&partitions.global_indices) {
        for (point, &g) in part.iter().zip(globals) {
            if is_wanted[g] {
                for (slot, _) in wanted.iter().enumerate().filter(|&(_, &w)| w == g) {
                    found[slot] = Some(point.clone());
                }
            }
        }
    }
    found
        .into_iter()
        .map(|p| p.expect("validated partitions hold every global index"))
        .collect()
}

/// The flat input in original order, from validated partitions of `n`
/// points.
fn flatten<P: Clone>(partitions: &Partitions<P>, n: usize) -> Vec<P> {
    let mut flat: Vec<Option<P>> = vec![None; n];
    for (part, globals) in partitions.parts.iter().zip(&partitions.global_indices) {
        for (point, &g) in part.iter().zip(globals) {
            flat[g] = Some(point.clone());
        }
    }
    flat.into_iter()
        .map(|p| p.expect("validated partitions hold every global index"))
        .collect()
}

/// Random re-partitioning that preserves the original global indices
/// and the part count — the precondition [`Strategy::Randomized`]'s
/// w.h.p. delegate bound stands on.
fn reshuffle<P: Clone>(partitions: &Partitions<P>, seed: u64) -> Partitions<P> {
    let ell = partitions.parts.len().max(1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut parts: Vec<Vec<P>> = vec![Vec::new(); ell];
    let mut global_indices: Vec<Vec<usize>> = vec![Vec::new(); ell];
    for (part, globals) in partitions.parts.iter().zip(&partitions.global_indices) {
        for (point, &global) in part.iter().zip(globals) {
            let target = rng.gen_range(0..ell);
            parts[target].push(point.clone());
            global_indices[target].push(global);
        }
    }
    Partitions {
        parts,
        global_indices,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metric::{Euclidean, VecPoint};

    fn line(xs: &[f64]) -> Vec<VecPoint> {
        xs.iter().map(|&x| VecPoint::from([x])).collect()
    }

    #[test]
    fn builder_accumulates() {
        let t = Task::new(Problem::RemoteStar, 7)
            .budget(Budget::KPrime(21))
            .threads(2);
        assert_eq!(t.problem(), Problem::RemoteStar);
        assert_eq!(t.k(), 7);
        assert_eq!(t.budget_spec(), Budget::KPrime(21));
        assert_eq!(t.thread_cap(), Some(2));
        assert_eq!(t.threads(0).thread_cap(), None);
    }

    #[test]
    fn seq_report_is_consistent() {
        let pts = line(&[0.0, 0.2, 0.4, 5.0, 9.6, 9.8, 10.0]);
        let report = Task::new(Problem::RemoteEdge, 3)
            .budget(Budget::KPrime(5))
            .run_seq(&pts, &Euclidean)
            .expect("valid input");
        assert_eq!(report.backend, Backend::Sequential);
        assert_eq!(report.len(), 3);
        assert_eq!(report.k_prime, 5);
        assert_eq!(report.coreset_size, 5);
        for (&i, p) in report.indices.iter().zip(&report.points) {
            assert_eq!(&pts[i], p, "points must align with indices");
        }
        assert_eq!(report.timings.len(), 2);
        assert!(report.certificate.is_none());
    }

    #[test]
    fn seq_matches_low_level_pipeline() {
        let pts = line(&(0..60).map(|i| ((i * 31) % 47) as f64).collect::<Vec<_>>());
        let report = Task::new(Problem::RemoteClique, 4)
            .budget(Budget::KPrime(12))
            .run_seq(&pts, &Euclidean)
            .unwrap();
        let direct = pipeline::coreset_then_solve(Problem::RemoteClique, &pts, &Euclidean, 4, 12);
        assert_eq!(report.indices, direct.indices);
        assert_eq!(report.value, direct.value);
    }

    #[test]
    fn threads_do_not_change_the_answer() {
        let pts = line(
            &(0..300)
                .map(|i| ((i * 53) % 211) as f64)
                .collect::<Vec<_>>(),
        );
        let base = Task::new(Problem::RemoteEdge, 5).budget(Budget::KPrime(20));
        let one = base.clone().threads(1).run_seq(&pts, &Euclidean).unwrap();
        let four = base.threads(4).run_seq(&pts, &Euclidean).unwrap();
        assert_eq!(one.indices, four.indices);
        assert_eq!(one.value, four.value);
    }

    #[test]
    fn eps_budget_attaches_certificate() {
        let pts = line(&(0..40).map(|i| i as f64).collect::<Vec<_>>());
        let report = Task::new(Problem::RemoteEdge, 3)
            .budget(Budget::Eps { eps: 0.5, dim: 1 })
            .run_seq(&pts, &Euclidean)
            .unwrap();
        let cert = report.certificate.expect("Eps budget carries certificate");
        assert_eq!(cert.alpha, 2.0);
        assert_eq!(cert.eps, 0.5);
        assert_eq!(cert.factor, 2.5);
        assert_eq!(
            report.k_prime,
            coreset::theoretical_kernel_size(Problem::RemoteEdge, 3, 0.5, 1)
        );
    }

    #[test]
    fn streaming_eps_sizing_doubles_the_kernel_base() {
        // Lemmas 3–4 double the MapReduce base: (2b/ε')^D = 2^D (b/ε')^D.
        let xs: Vec<f64> = (0..300).map(|i| ((i * 41) % 173) as f64).collect();
        let pts = line(&xs);
        let task = Task::new(Problem::RemoteEdge, 3).budget(Budget::Eps { eps: 0.5, dim: 2 });
        let seq = task.run_seq(&pts, &Euclidean).unwrap();
        let stream = task.run_stream(pts.iter().cloned(), &Euclidean).unwrap();
        assert_eq!(stream.k_prime, seq.k_prime * 4, "2^dim with dim = 2");
        assert!(stream.certificate.is_some());
    }

    #[test]
    fn huge_eps_budget_streams_without_aborting() {
        // Regression: theory sizing at moderate dim produces astronomical
        // k'; the streaming state must not pre-allocate by k' (only by
        // what actually arrives) and the run must return, not abort.
        let pts = line(&(0..60).map(|i| i as f64).collect::<Vec<_>>());
        let report = Task::new(Problem::RemoteClique, 4)
            .budget(Budget::Eps { eps: 0.5, dim: 8 })
            .run_stream(pts.iter().cloned(), &Euclidean)
            .unwrap();
        assert_eq!(report.len(), 4);
        assert!(report.k_prime > 1_000_000_000_000, "sizing really is huge");
        assert!(report.coreset_size <= 60, "resident state bounded by n");
    }

    #[test]
    fn dynamic_auto_sizing_matches_lemma_constants() {
        let auto = |problem, k, cap| Task::new(problem, k).budget(Budget::Auto { eps: 0.5, cap });
        // remote-edge base 8: (8/2)^2 * k = 16k.
        let edge = auto(Problem::RemoteEdge, 3, Some(1000));
        assert_eq!(edge.dynamic_k_prime(2.0, 2), Ok(48));
        // remote-clique base 16: (16/2)^2 * k = 64k, capped at 32k.
        let clique = auto(Problem::RemoteClique, 3, None);
        assert_eq!(clique.dynamic_k_prime(2.0, 2), Ok(96));
        // Never below k, and an overflowing size meets the cap.
        assert_eq!(edge.dynamic_k_prime(1e9, 2), Ok(3));
        assert_eq!(edge.dynamic_k_prime(1e-300, 4), Ok(1000));
        for eps in [0.0, -1.0, f64::INFINITY] {
            assert_eq!(
                edge.dynamic_k_prime(eps, 2),
                Err(DivError::InvalidEps { eps })
            );
        }
        assert!(matches!(
            edge.dynamic_k_prime(f64::NAN, 2),
            Err(DivError::InvalidEps { eps }) if eps.is_nan()
        ));
    }

    #[test]
    fn mapreduce_coreset_size_is_the_solve_input() {
        use diversity_mapreduce::partition::split_round_robin;
        let pts = line(
            &(0..200)
                .map(|i| ((i * 13) % 151) as f64)
                .collect::<Vec<_>>(),
        );
        let parts = split_round_robin(pts, 4);
        let rt = MapReduceRuntime::with_threads(2);
        let report = Task::new(Problem::RemoteEdge, 3)
            .budget(Budget::KPrime(6))
            .run_mapreduce(&parts, &Euclidean, &rt, Strategy::TwoRound)
            .unwrap();
        // 4 partitions × k' = 6 kernel points each (remote-edge: no
        // delegates) union on the solve reducer.
        assert_eq!(report.coreset_size, 24);
    }

    #[test]
    fn auto_cap_below_k_is_typed_not_clamped() {
        let pts = line(&[0.0, 1.0, 2.0, 3.0, 4.0]);
        let err = Task::new(Problem::RemoteEdge, 3)
            .budget(Budget::Auto {
                eps: 0.5,
                cap: Some(2),
            })
            .run_seq(&pts, &Euclidean)
            .unwrap_err();
        assert_eq!(err, DivError::BudgetTooSmall { k_prime: 2, k: 3 });
    }

    #[test]
    fn stream_indices_are_arrival_positions() {
        let xs: Vec<f64> = (0..500).map(|i| ((i * 37) % 251) as f64).collect();
        let pts = line(&xs);
        let report = Task::new(Problem::RemoteEdge, 4)
            .budget(Budget::KPrime(16))
            .run_stream(pts.iter().cloned(), &Euclidean)
            .unwrap();
        assert_eq!(report.backend, Backend::Streaming);
        assert_eq!(report.len(), 4);
        for (&pos, p) in report.indices.iter().zip(&report.points) {
            assert_eq!(&pts[pos], p, "stream position must recover the point");
        }
    }

    #[test]
    fn mapreduce_strategies_agree_on_shape() {
        use diversity_mapreduce::partition::split_round_robin;
        let xs: Vec<f64> = (0..240).map(|i| ((i * 37) % 211) as f64).collect();
        let pts = line(&xs);
        let parts = split_round_robin(pts.clone(), 6);
        let rt = MapReduceRuntime::with_threads(4);
        let task = Task::new(Problem::RemoteClique, 4).budget(Budget::KPrime(8));
        for strategy in [
            Strategy::TwoRound,
            Strategy::ThreeRound,
            Strategy::Randomized { seed: 3 },
            Strategy::Recursive { memory_limit: 50 },
        ] {
            let report = task
                .run_mapreduce(&parts, &Euclidean, &rt, strategy)
                .unwrap_or_else(|e| panic!("{strategy:?}: {e}"));
            assert_eq!(report.backend, Backend::MapReduce);
            assert_eq!(report.len(), 4, "{strategy:?}");
            for (&g, p) in report.indices.iter().zip(&report.points) {
                assert_eq!(&pts[g], p, "{strategy:?}: global index mismatch");
            }
            assert!(!report.timings.is_empty(), "{strategy:?}");
        }
    }

    #[test]
    fn mapreduce_report_exposes_memory_accounting() {
        use diversity_mapreduce::partition::split_round_robin;
        let pts = line(&(0..120).map(|i| ((i * 31) % 97) as f64).collect::<Vec<_>>());
        let parts = split_round_robin(pts, 4);
        let rt = MapReduceRuntime::with_threads(2);
        let report = Task::new(Problem::RemoteEdge, 3)
            .budget(Budget::KPrime(6))
            .run_mapreduce(&parts, &Euclidean, &rt, Strategy::TwoRound)
            .unwrap();
        assert_eq!(report.memory.len(), report.timings.len());
        let round1 = &report.memory[0];
        assert_eq!(round1.stage, "round1:coreset");
        assert_eq!(round1.reducers, 4);
        assert_eq!(round1.max_local_points, 30);
        assert_eq!(round1.total_points, 120);
        assert_eq!(round1.emitted_points, 24, "4 parts x k'=6 kernels");
        let round2 = &report.memory[1];
        assert_eq!(round2.reducers, 1);
        assert_eq!(round2.max_local_points, 24, "union resident on one reducer");
    }

    #[test]
    fn two_round_composes_part_radii() {
        use diversity_mapreduce::partition::split_round_robin;
        let pts = line(
            &(0..240)
                .map(|i| ((i * 37) % 211) as f64)
                .collect::<Vec<_>>(),
        );
        let parts = split_round_robin(pts.clone(), 4);
        let rt = MapReduceRuntime::with_threads(4);
        let task = Task::new(Problem::RemoteEdge, 4).budget(Budget::KPrime(16));
        let report = task
            .run_mapreduce(&parts, &Euclidean, &rt, Strategy::TwoRound)
            .unwrap();
        assert_eq!(report.len(), 4);
        for (&g, p) in report.indices.iter().zip(&report.points) {
            assert_eq!(&pts[g], p, "global index must recover the point");
        }
        // The composed certificate is the max of the per-part
        // extraction radii — recompute them directly.
        let expected = parts
            .parts
            .iter()
            .map(|part| {
                pipeline::extract_coreset_artifact(Problem::RemoteEdge, part, &Euclidean, 4, 16)
                    .radius()
            })
            .fold(0.0f64, f64::max);
        assert_eq!(report.coreset_radius, Some(expected));
        assert_eq!(report.memory.len(), 2, "round1 + combiner");
        assert_eq!(report.memory[0].stage, "round1:coreset");
    }

    #[test]
    fn malformed_partitions_are_rejected() {
        let parts = Partitions {
            parts: vec![line(&[0.0, 1.0]), line(&[2.0])],
            global_indices: vec![vec![0, 1], vec![1]], // duplicate global
        };
        let err = Task::new(Problem::RemoteEdge, 2)
            .budget(Budget::KPrime(2))
            .run_mapreduce(
                &parts,
                &Euclidean,
                &MapReduceRuntime::with_threads(2),
                Strategy::TwoRound,
            )
            .unwrap_err();
        assert!(matches!(err, DivError::MalformedPartitions { .. }));
    }

    #[test]
    fn reshuffle_preserves_globals() {
        use diversity_mapreduce::partition::split_round_robin;
        let pts = line(&(0..100).map(|i| i as f64).collect::<Vec<_>>());
        let parts = split_round_robin(pts, 5);
        let shuffled = reshuffle(&parts, 99);
        assert_eq!(shuffled.parts.len(), 5);
        assert_eq!(shuffled.total_points(), 100);
        let mut globals: Vec<usize> = shuffled.global_indices.iter().flatten().copied().collect();
        globals.sort_unstable();
        assert_eq!(globals, (0..100).collect::<Vec<_>>());
    }
}
