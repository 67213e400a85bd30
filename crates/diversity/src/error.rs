//! The typed error vocabulary of the [`crate::Task`] front door.
//!
//! The low-level free functions (`core::pipeline`,
//! `streaming::pipeline`, the MapReduce drivers) keep their documented
//! `panic!` contracts — they are experiment-harness plumbing whose
//! callers control every argument. `Task`
//! validates the same conditions *upfront* and returns these errors
//! instead, so a serving layer can reject a malformed job spec without
//! unwinding.

use crate::task::Strategy;
use diversity_core::Problem;

/// Everything that can go wrong between building a [`crate::Task`] and
/// obtaining a [`crate::Report`].
#[derive(Clone, Debug, PartialEq)]
pub enum DivError {
    /// The input point set (or partitioned input, or serving pool)
    /// contains no points.
    EmptyInput,
    /// The stream yielded no items. Detected on the first poll of the
    /// iterator — *before* any processing — unlike the legacy
    /// `streaming::pipeline::one_pass`, which consumed the entire
    /// stream before panicking on emptiness.
    EmptyStream,
    /// `k` is outside `1..=n`. `n` is `None` when the input size is
    /// unknowable upfront (a stream rejected for `k == 0`); a stream
    /// that ends with fewer than `k` items reports `n = Some(seen)`.
    InvalidK { k: usize, n: Option<usize> },
    /// The resolved kernel budget `k'` is smaller than `k`: a core-set
    /// smaller than `k` can never contain a `k`-point solution. Raised
    /// by [`crate::Budget::KPrime`] with `k' < k` and by
    /// [`crate::Budget::Auto`] with a cap below `k` (which the legacy
    /// `coreset::suggest_kernel_size` silently clamps instead).
    BudgetTooSmall { k_prime: usize, k: usize },
    /// An accuracy target outside `(0, 1]` (the range Theorems 4–5
    /// cover).
    InvalidEps { eps: f64 },
    /// The strategy's preconditions exclude this problem: the 3-round
    /// and randomized algorithms save *delegates*, which only the four
    /// injective-proxy problems carry (remote-edge/cycle have none —
    /// use [`Strategy::TwoRound`]).
    UnsupportedStrategy {
        problem: Problem,
        strategy: Strategy,
    },
    /// [`Strategy::Recursive`] with a zero per-reducer memory budget.
    InvalidMemoryLimit,
    /// The caller-built [`crate::mapreduce::Partitions`] is
    /// inconsistent: part/index rows of different lengths, or
    /// `global_indices` not a permutation of `0..n`. (The partition
    /// constructors in `mapreduce::partition` always produce consistent
    /// ones; this guards hand-assembled or wire-received partitions.)
    MalformedPartitions { reason: String },
    /// A serving pool was requested with zero shards — there would be
    /// nowhere to route an insert.
    InvalidShards,
    /// A checkpointed state failed structural validation on restore:
    /// truncated or bit-flipped wire bytes, ids out of order, a start
    /// that is not alive, a shard-less pool snapshot. The process degrades (the caller keeps
    /// its last good state) instead of aborting.
    CorruptState { reason: String },
    /// The shard an update routed to is quarantined and could not be
    /// recovered in-line; the rest of the pool keeps serving.
    ShardUnavailable { shard: usize },
    /// A query found **no** shard able to answer: every shard was
    /// quarantined or missed the deadline. (With at least one surviving
    /// shard the pool answers in degraded mode instead — see
    /// `Report::degradation`.)
    PoolUnavailable { healthy: usize, total: usize },
    /// A transient (injected or environmental) failure persisted
    /// through the bounded retry/backoff loop at `site`.
    TransientFailure { site: String },
    /// `Task::run_projected` was called on a task that never opted into
    /// a projection stage (`Task::project` was not set). The projected
    /// entry point refuses to silently fall back to the unprojected
    /// pipeline — the caller's certificate accounting depends on
    /// knowing which one ran.
    ProjectionMissing,
}

impl std::fmt::Display for DivError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DivError::EmptyInput => write!(f, "input contains no points"),
            DivError::EmptyStream => write!(f, "stream yielded no items"),
            DivError::InvalidK { k, n: Some(n) } => {
                write!(f, "k must satisfy 1 <= k <= n (k={k}, n={n})")
            }
            DivError::InvalidK { k, n: None } => {
                write!(f, "k must be positive (k={k})")
            }
            DivError::BudgetTooSmall { k_prime, k } => {
                write!(f, "kernel budget k'={k_prime} cannot hold a k={k} solution")
            }
            DivError::InvalidEps { eps } => {
                write!(f, "accuracy target eps={eps} outside (0, 1]")
            }
            DivError::UnsupportedStrategy { problem, strategy } => {
                write!(
                    f,
                    "{strategy:?} saves delegates, which {problem} does not use; \
                     use Strategy::TwoRound"
                )
            }
            DivError::InvalidMemoryLimit => {
                write!(f, "recursive strategy needs a positive memory limit")
            }
            DivError::MalformedPartitions { reason } => {
                write!(f, "malformed partitions: {reason}")
            }
            DivError::InvalidShards => {
                write!(f, "a serving pool needs at least one shard")
            }
            DivError::CorruptState { reason } => {
                write!(f, "corrupt checkpointed state: {reason}")
            }
            DivError::ShardUnavailable { shard } => {
                write!(
                    f,
                    "shard {shard} is quarantined and was not recoverable in-line"
                )
            }
            DivError::PoolUnavailable { healthy, total } => {
                write!(f, "no shard could answer ({healthy} healthy of {total})")
            }
            DivError::TransientFailure { site } => {
                write!(f, "transient failure at {site} persisted through retries")
            }
            DivError::ProjectionMissing => {
                write!(
                    f,
                    "task has no projection spec; configure one with Task::project"
                )
            }
        }
    }
}

impl std::error::Error for DivError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = DivError::BudgetTooSmall { k_prime: 3, k: 5 };
        assert!(e.to_string().contains("k'=3"));
        assert!(e.to_string().contains("k=5"));
        let e = DivError::InvalidK { k: 9, n: Some(4) };
        assert!(e.to_string().contains("k=9"));
        assert!(e.to_string().contains("n=4"));
        let e = DivError::InvalidK { k: 0, n: None };
        assert!(e.to_string().contains("k=0"));
    }

    #[test]
    fn fault_variants_display_their_context() {
        let e = DivError::CorruptState {
            reason: "dangling parent 9".into(),
        };
        assert!(e.to_string().contains("dangling parent 9"));
        let e = DivError::ShardUnavailable { shard: 3 };
        assert!(e.to_string().contains("shard 3"));
        let e = DivError::PoolUnavailable {
            healthy: 0,
            total: 4,
        };
        assert!(e.to_string().contains("0 healthy of 4"));
        let e = DivError::TransientFailure {
            site: "serve.query".into(),
        };
        assert!(e.to_string().contains("serve.query"));
        let e = DivError::ProjectionMissing;
        assert!(e.to_string().contains("Task::project"));
    }

    #[test]
    fn is_a_std_error() {
        fn takes_error(_: &dyn std::error::Error) {}
        takes_error(&DivError::EmptyInput);
    }
}
