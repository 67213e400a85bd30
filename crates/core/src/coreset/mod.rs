//! Composable core-set constructions (Sections 3, 5, 6.2 of the paper).
//!
//! All three constructions share the same kernel — a farthest-point
//! traversal of the local subset — and differ in what they attach to it:
//!
//! * [`gmm_coreset`]: the bare `k'`-point kernel. A `(1+ε)`-composable
//!   core-set for remote-edge and remote-cycle when
//!   `k' = (8/ε')^D · k` (Theorem 4).
//! * [`gmm_ext`]: kernel plus up to `k−1` *delegate* points per kernel
//!   cluster (Algorithm 1). A `(1+ε)`-composable core-set for
//!   remote-clique/star/bipartition/tree when `k' = (16/ε')^D · k`
//!   (Theorem 5) — these objectives need an injective proxy function,
//!   hence the delegates.
//! * [`gmm_gen`]: kernel plus per-cluster delegate *counts* — a
//!   generalized core-set of size `s(T) = k'` instead of `k·k'`
//!   (Section 6.2, Lemma 8), traded against an extra instantiation
//!   round.
//!
//! What the constructions *hand to other machines* is the typed
//! [`Coreset`] artifact: points + provenance + weights + the `(k',
//! radius)` certificate, with the composition laws
//! ([`Coreset::merge`], [`Coreset::deepen`]) stated once for every
//! substrate.

mod artifact;
mod gmm_ext;
mod gmm_gen;

pub use artifact::Coreset;
pub use gmm_ext::{gmm_ext, gmm_ext_with_threads, GmmExtOutcome};
pub use gmm_gen::{gmm_gen, GmmGenOutcome};

use crate::gmm::gmm_default;
use metric::Metric;

/// `GMM(S, k')`: the plain kernel core-set for remote-edge and
/// remote-cycle. Returns `min(k', n)` indices into `points` in
/// farthest-point insertion order (so any prefix is itself a GMM run).
///
/// # Panics
/// Panics if `points` is empty or `k_prime == 0`.
pub fn gmm_coreset<P: Sync, M: Metric<P>>(points: &[P], metric: &M, k_prime: usize) -> Vec<usize> {
    gmm_default(points, metric, k_prime).selected
}

/// [`gmm_coreset`] with an explicit thread count for the underlying
/// farthest-point traversal (`threads <= 1` runs sequentially; the
/// selection is bit-identical for every thread count).
///
/// # Panics
/// Panics if `points` is empty or `k_prime == 0`.
pub fn gmm_coreset_with_threads<P: Sync, M: Metric<P>>(
    points: &[P],
    metric: &M,
    k_prime: usize,
    threads: usize,
) -> Vec<usize> {
    crate::gmm::gmm_with_threads(points, metric, k_prime, 0, threads).selected
}

/// Suggested kernel size `k'` for a target accuracy `ε` and doubling
/// dimension `D`, following Theorems 4–5: `k' = (base/ε')^D · k` with
/// `1 − ε' = 1/(1+ε)`. In practice the paper finds much smaller `k'`
/// (a small multiple of `k`) already excellent; this helper exists so
/// examples can show the theory-driven sizing.
pub fn theoretical_kernel_size(problem: crate::Problem, k: usize, eps: f64, dim: u32) -> usize {
    assert!(eps > 0.0 && eps <= 1.0, "need 0 < eps <= 1");
    let eps_prime = 1.0 - 1.0 / (1.0 + eps);
    let per_point = (problem.kernel_base() / eps_prime).powi(dim as i32);
    // Saturate instead of overflowing for aggressive (ε, D) combos.
    let size = per_point * k as f64;
    if size >= usize::MAX as f64 {
        usize::MAX
    } else {
        size.ceil() as usize
    }
}

/// Data-driven kernel sizing: estimates the doubling dimension of a
/// sample empirically ([`metric::estimate_doubling_dimension`]) and
/// plugs it into [`theoretical_kernel_size`], capped at `max_size`
/// (theory constants are pessimistic — the paper's experiments show
/// small multiples of `k` suffice, so callers typically cap at
/// `8k`–`64k`).
///
/// **Clamp caveat:** the result is clamped to `[k, max(max_size, k)]`,
/// so a `max_size` *below* `k` is silently inflated to `k` rather than
/// honoured or rejected — a core-set smaller than `k` could never
/// contain a `k`-point solution. This legacy behaviour is kept for
/// compatibility; the high-level `diversity::Budget::Auto` path
/// surfaces the same situation as a typed `BudgetTooSmall` error
/// instead of clamping.
///
/// # Panics
/// Panics if `sample` is empty or `k == 0` or `eps` outside `(0, 1]`.
pub fn suggest_kernel_size<P, M: Metric<P>>(
    problem: crate::Problem,
    sample: &[P],
    metric: &M,
    k: usize,
    eps: f64,
    max_size: usize,
) -> usize {
    assert!(!sample.is_empty(), "need a non-empty sample");
    assert!(k > 0, "k must be positive");
    let est = metric::estimate_doubling_dimension(sample, metric, 4, 0xD1CE);
    let dim = est.dimension.ceil().max(1.0) as u32;
    theoretical_kernel_size(problem, k, eps, dim).clamp(k, max_size.max(k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Problem;
    use metric::{Euclidean, VecPoint};

    #[test]
    fn gmm_coreset_is_gmm_prefix_order() {
        let pts: Vec<VecPoint> = [0.0, 4.0, 9.0, 10.0]
            .iter()
            .map(|&x| VecPoint::from([x]))
            .collect();
        let cs = gmm_coreset(&pts, &Euclidean, 3);
        assert_eq!(cs[0], 0);
        assert_eq!(cs[1], 3); // farthest from 0
        assert_eq!(cs.len(), 3);
    }

    #[test]
    fn kernel_size_grows_with_accuracy_and_dimension() {
        let loose = theoretical_kernel_size(Problem::RemoteEdge, 10, 1.0, 2);
        let tight = theoretical_kernel_size(Problem::RemoteEdge, 10, 0.1, 2);
        assert!(tight > loose);
        let low_d = theoretical_kernel_size(Problem::RemoteEdge, 10, 0.5, 2);
        let high_d = theoretical_kernel_size(Problem::RemoteEdge, 10, 0.5, 3);
        assert!(high_d > low_d);
    }

    #[test]
    fn injective_problems_need_larger_kernels() {
        let edge = theoretical_kernel_size(Problem::RemoteEdge, 10, 0.5, 2);
        let clique = theoretical_kernel_size(Problem::RemoteClique, 10, 0.5, 2);
        assert_eq!(clique, 4 * edge); // (16/8)^2
    }

    #[test]
    fn huge_parameters_saturate() {
        let huge = theoretical_kernel_size(Problem::RemoteClique, 1000, 0.001, 16);
        assert_eq!(huge, usize::MAX);
    }

    #[test]
    fn suggestion_respects_bounds() {
        let pts: Vec<VecPoint> = (0..200)
            .map(|i| VecPoint::from([(i % 20) as f64, (i / 20) as f64]))
            .collect();
        let k = 5;
        let s = suggest_kernel_size(Problem::RemoteEdge, &pts, &Euclidean, k, 0.5, 16 * k);
        assert!(s >= k, "suggestion below k");
        assert!(s <= 16 * k, "cap not applied");
    }

    #[test]
    fn lower_dimension_suggests_smaller_kernel() {
        let line: Vec<VecPoint> = (0..200).map(|i| VecPoint::from([i as f64])).collect();
        let grid: Vec<VecPoint> = (0..196)
            .map(|i| VecPoint::from([(i % 14) as f64, (i / 14) as f64]))
            .collect();
        let k = 4;
        let cap = usize::MAX / 2;
        let s_line = suggest_kernel_size(Problem::RemoteEdge, &line, &Euclidean, k, 1.0, cap);
        let s_grid = suggest_kernel_size(Problem::RemoteEdge, &grid, &Euclidean, k, 1.0, cap);
        assert!(s_line <= s_grid, "line {s_line} vs grid {s_grid}");
    }
}
