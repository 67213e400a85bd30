//! # diversity-mapreduce
//!
//! A simulated MapReduce runtime and the paper's MapReduce diversity
//! maximization algorithms (Sections 5 and 6.2).
//!
//! ## Why a simulator
//!
//! The paper's evaluation runs on Spark over a 16-machine cluster; the
//! algorithms themselves, however, are *coordination-free within a
//! round*: round 1 computes an independent core-set per partition,
//! round 2 unions them on one reducer. Everything the paper measures —
//! approximation quality as a function of `(k', parallelism,
//! partitioning)`, per-reducer memory, per-round work — is a property
//! of the algorithm, not of Spark. This crate therefore executes
//! reducers on real OS threads inside one process, with explicit
//! bookkeeping of what a distributed run would ship and hold:
//! [`runtime::RoundStats`] records per-round maximum local residency
//! (`M_L`), aggregate memory (`M_T`), and wall-clock time.
//!
//! ## Algorithms
//!
//! * [`two_round`] — Theorem 6: round 1 `GMM`/`GMM-EXT` per partition,
//!   round 2 union + sequential algorithm.
//! * [`randomized`] — Theorem 7: random partitioning lets each cluster
//!   keep only `Θ(max{log n, k/ℓ})` delegates instead of `k`.
//! * [`three_round`] — Theorem 10: `GMM-GEN` generalized core-sets,
//!   multiset solve, then a third instantiation round.
//! * [`recursive`] — Theorem 8: recursively shrink the union until it
//!   fits the local memory budget.
//!
//! Partitioning strategies (round-robin, seeded random, and the
//! adversarial sorted-chunk partitioning of Section 7.2) live in
//! [`partition`].
//!
//! ## The hand-off is a typed artifact
//!
//! What round 1 ships to round 2 — and what every recursion level
//! ships to the next — is the composable
//! [`diversity_core::coreset::Coreset`] artifact, not a bare vector:
//! points travel with their global provenance, their weights
//! (multiplicities, for the generalized 3-round variant) and a
//! covering-radius certificate that the composition laws maintain
//! (`max` under [`Coreset::merge`](diversity_core::coreset::Coreset::merge),
//! `+` under re-extraction). The union step of every driver *is*
//! `Coreset::merge`, so the (α+ε) bookkeeping lives in one place.
//!
//! The per-algorithm free functions are the stable low-level layer:
//! raw `(k, k')` parameters, panicking contracts, full [`MrStats`]
//! accounting. The `diversity` facade's `Task::run_mapreduce` wraps
//! them behind one validated, non-panicking entry point that selects
//! the algorithm via a `Strategy` value and returns the cross-backend
//! `Report` shape.

pub mod partition;
pub mod randomized;
pub mod recursive;
pub mod runtime;
pub mod three_round;
pub mod two_round;

pub use partition::Partitions;
pub use runtime::{MapReduceRuntime, MrStats, RoundStats};

use diversity_core::Solution;
use metric::Metric;
use std::borrow::Cow;

/// The rows a round-1 reducer runs GMM, GMM-EXT or GMM-GEN on. A split
/// leaves a part's rows spread over the heap of the whole input, and
/// GMM reads them `k'` times, so the reducer copies its part; where
/// GMM's block path runs, its own locality-ordered copy replaces that
/// copy.
pub(crate) fn local_rows<'a, P: Clone, M: Metric<P>>(
    part: &'a [P],
    metric: &M,
    k_prime: usize,
) -> Cow<'a, [P]> {
    if diversity_core::gmm::takes_block_path(part, metric, k_prime) {
        Cow::Borrowed(part)
    } else {
        Cow::Owned(part.to_vec())
    }
}

/// Result of a MapReduce diversity run: the solution (indices into the
/// original input) plus per-round execution statistics.
#[derive(Clone, Debug)]
pub struct MrOutcome {
    /// Solution with indices into the caller's original point slice.
    pub solution: Solution,
    /// Size of the core-set the final sequential solve consumed: the
    /// union of per-partition core-sets (2-round variants), the union
    /// generalized core-set's size (3-round), or the surviving working
    /// set (recursive).
    pub solve_input_size: usize,
    /// Covering-radius certificate of that core-set over the full
    /// input, composed by the `Coreset` laws: `max` of the
    /// per-partition radii under union (Definition 2), `+` across
    /// recursion levels (the Lemma 3–4 telescope).
    pub coreset_radius: f64,
    /// Per-round statistics (memory, shuffle, wall time).
    pub stats: MrStats,
}
