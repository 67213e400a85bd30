//! Metric-space substrate for the diversity-maximization stack.
//!
//! The paper ("MapReduce and Streaming Algorithms for Diversity Maximization
//! in Metric Spaces of Bounded Doubling Dimension", Ceccarello et al.,
//! PVLDB 2017) states all of its results for an abstract metric space
//! `(D, d)`; its experiments use three concrete instantiations:
//!
//! * low-dimensional Euclidean space (`R^2`, `R^3`) for the synthetic
//!   workloads,
//! * the *cosine distance* `arccos(u·v / (‖u‖‖v‖))` on 5,000-dimensional
//!   sparse word-count vectors (the musiXmatch dataset), and
//! * it motivates applicability to Jaccard-style dissimilarities.
//!
//! This crate provides those metrics (and several more), the point types
//! they operate on, a cached distance matrix for `O(k^2)` objective
//! evaluation, and an empirical doubling-dimension estimator.
//!
//! # Design
//!
//! Distances are computed by zero-sized *metric structs* implementing
//! [`Metric<P>`], rather than by methods on the point types. This lets a
//! single point type (say [`VecPoint`]) carry several metrics (Euclidean,
//! Manhattan, Chebyshev, ...) without newtype gymnastics, and lets every
//! algorithm in the stack be generic over `(P, M: Metric<P>)`.
//!
//! All metrics here satisfy the metric axioms (identity of indiscernibles,
//! symmetry, triangle inequality); this is enforced by property tests in
//! `tests/axioms.rs`.
//!
//! # Example
//!
//! ```
//! use metric::{Euclidean, Metric, VecPoint};
//!
//! let a = VecPoint::new(vec![0.0, 0.0]);
//! let b = VecPoint::new(vec![3.0, 4.0]);
//! assert_eq!(Euclidean.distance(&a, &b), 5.0);
//! ```

// Every `unsafe` block in this crate (all of them in `simd.rs`) must
// be explicit and carry its own `// SAFETY:` justification.
#![deny(unsafe_op_in_unsafe_fn)]

mod bitset;
mod chebyshev;
mod colmajor;
mod cosine;
mod dense;
mod discrete;
pub mod doubling;
mod euclidean;
mod hamming;
mod jaccard;
mod kernels;
mod levenshtein;
mod lp;
mod manhattan;
mod matrix;
mod morton;
pub mod par;
mod project;
pub mod simd;
mod sparse;
mod store;
mod traits;

pub use bitset::BitSetPoint;
pub use chebyshev::Chebyshev;
pub use colmajor::{ColRow, DenseStoreColMajor};
pub use cosine::CosineDistance;
pub use dense::VecPoint;
pub use discrete::Discrete;
pub use doubling::{estimate_doubling_dimension, DoublingEstimate};
pub use euclidean::Euclidean;
pub use hamming::Hamming;
pub use jaccard::Jaccard;
pub use kernels::{euclidean_many_flat, euclidean_relax_flat};
pub use levenshtein::Levenshtein;
pub use lp::Lp;
pub use manhattan::Manhattan;
pub use matrix::DistanceMatrix;
pub use morton::morton_sort;
pub use project::{JlKind, JlProjection};
pub use sparse::SparseVector;
pub use store::{DenseRow, DenseStore};
pub use traits::Metric;

/// Compares two `f64` distances, treating them as totally ordered.
///
/// Distances produced by the metrics in this crate are never NaN, but
/// `f64: Ord` does not hold in Rust; algorithms use this helper (a thin
/// wrapper over [`f64::total_cmp`]) when they need to `max_by`/`sort_by`
/// distances.
#[inline]
pub fn cmp_dist(a: &f64, b: &f64) -> std::cmp::Ordering {
    a.total_cmp(b)
}

/// Returns the index of the maximum value in `values` under [`cmp_dist`],
/// or `None` if `values` is empty. Ties resolve to the smallest index,
/// which keeps the farthest-point traversals in `diversity-core`
/// deterministic.
pub fn argmax(values: &[f64]) -> Option<usize> {
    let (first, rest) = values.split_first()?;
    let mut best = (0usize, *first);
    for (i, &v) in rest.iter().enumerate() {
        if v > best.1 {
            best = (i + 1, v);
        }
    }
    Some(best.0)
}

/// Returns `(index, value)` of the minimum entry, or `None` if
/// `values` is empty. A candidate replaces iff strictly smaller
/// (`v < best`), so ties resolve to the smallest index — the same
/// first-minimum rule the scalar nearest-center scans use (which also
/// means a NaN entry never wins), so batched argmin swaps stay
/// behaviour-identical.
pub fn argmin(values: &[f64]) -> Option<(usize, f64)> {
    let (first, rest) = values.split_first()?;
    let mut best = (0usize, *first);
    for (i, &v) in rest.iter().enumerate() {
        if v < best.1 {
            best = (i + 1, v);
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argmax_empty_is_none() {
        assert_eq!(argmax(&[]), None);
    }

    #[test]
    fn argmax_singleton() {
        assert_eq!(argmax(&[42.0]), Some(0));
    }

    #[test]
    fn argmax_ties_resolve_to_first() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), Some(1));
    }

    #[test]
    fn argmax_handles_negative_values() {
        assert_eq!(argmax(&[-5.0, -1.0, -3.0]), Some(1));
    }

    #[test]
    fn cmp_dist_orders_normally() {
        assert_eq!(cmp_dist(&1.0, &2.0), std::cmp::Ordering::Less);
        assert_eq!(cmp_dist(&2.0, &1.0), std::cmp::Ordering::Greater);
        assert_eq!(cmp_dist(&1.0, &1.0), std::cmp::Ordering::Equal);
    }
}
