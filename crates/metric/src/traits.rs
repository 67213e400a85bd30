//! The [`Metric`] trait: the single abstraction every algorithm in the
//! workspace is generic over.

/// A distance function `d : P × P → R≥0` satisfying the metric axioms.
///
/// Implementors must guarantee, for all `a`, `b`, `c`:
///
/// 1. `d(a, b) >= 0`, and `d(a, b) == 0` iff `a` and `b` are
///    indistinguishable under the metric;
/// 2. `d(a, b) == d(b, a)` (symmetry);
/// 3. `d(a, c) <= d(a, b) + d(b, c)` (triangle inequality).
///
/// The triangle inequality is load-bearing: every approximation guarantee
/// in the paper (Lemmas 1, 2, 7) is a triangle-inequality argument, so a
/// non-metric "distance" (e.g. squared Euclidean) silently voids them.
/// The property tests in `tests/axioms.rs` check all shipped metrics.
///
/// Metrics are required to be `Send + Sync` so the simulated MapReduce
/// runtime can share one metric instance across reducer threads; all
/// metrics in this crate are zero-sized, so this costs nothing.
pub trait Metric<P: ?Sized>: Send + Sync {
    /// Computes the distance between `a` and `b`. Must never return NaN
    /// or a negative value for valid points.
    fn distance(&self, a: &P, b: &P) -> f64;

    /// Returns the minimum distance from `p` to any point of `set`
    /// (`d(p, S) = min_{q in S} d(p, q)` in the paper's notation), or
    /// `f64::INFINITY` if `set` is empty.
    fn distance_to_set(&self, p: &P, set: &[P]) -> f64
    where
        P: Sized,
    {
        set.iter()
            .map(|q| self.distance(p, q))
            .fold(f64::INFINITY, f64::min)
    }

    /// Batch hook: writes `d(p, others[i])` into `out[i]` for every `i`.
    ///
    /// The default is the obvious loop over [`Metric::distance`];
    /// metrics with a cheap coordinate representation (Euclidean,
    /// Manhattan, Lp) override it with an auto-vectorizable kernel.
    /// Overrides MUST be *bitwise-identical* to the default loop — the
    /// algorithms in `diversity-core` rely on this for deterministic,
    /// layout-independent results, and the property tests in
    /// `tests/batch_equivalence.rs` enforce it.
    ///
    /// # Panics
    /// Panics if `out.len() != others.len()`.
    fn distance_many(&self, p: &P, others: &[P], out: &mut [f64])
    where
        P: Sized,
    {
        assert_eq!(out.len(), others.len(), "output length mismatch");
        for (o, q) in out.iter_mut().zip(others.iter()) {
            *o = self.distance(p, q);
        }
    }

    /// Batch hook: the GMM relaxation step. For every `i`, computes
    /// `d = d(center, points[i])` and, **iff `d < dists[i]`**, sets
    /// `dists[i] = d` and `assignment[i] = cj` (strict `<` keeps ties
    /// assigned to the earliest center, matching Algorithm 1). Returns
    /// the farthest survivor — `(index, value)` of the maximum of the
    /// *updated* `dists`, ties to the smallest index (the argmax GMM
    /// needs next, folded in so the traversal saves a second sweep) —
    /// or `None` when `points` is empty.
    ///
    /// This is *threshold-aware*: an override may skip the expensive
    /// part of a distance (e.g. the square root) whenever it can prove
    /// the comparison fails, but the observable effect on `dists` /
    /// `assignment` and the returned argmax MUST be bitwise-identical
    /// to the default loop, and each index must be treated
    /// independently (element-wise) so the parallel GMM may relax
    /// disjoint chunks on separate threads.
    ///
    /// # Panics
    /// Panics if `dists.len()` or `assignment.len()` differ from
    /// `points.len()`.
    fn relax(
        &self,
        center: &P,
        points: &[P],
        dists: &mut [f64],
        assignment: &mut [usize],
        cj: usize,
    ) -> Option<(usize, f64)>
    where
        P: Sized,
    {
        assert_eq!(dists.len(), points.len(), "dists length mismatch");
        assert_eq!(assignment.len(), points.len(), "assignment length mismatch");
        for (i, p) in points.iter().enumerate() {
            let d = self.distance(center, p);
            if d < dists[i] {
                dists[i] = d;
                assignment[i] = cj;
            }
        }
        // The scalar fallback still fuses the argmax into the round,
        // but records itself as non-kernel so the fused-argmax hit
        // ratio in `gmm.*` reflects batch-kernel coverage.
        diversity_obs::count("kernel.relax_scalar_rounds", 1);
        crate::argmax(dists).map(|i| (i, dists[i]))
    }

    /// Early-exit membership check: `true` iff some `q ∈ set` has
    /// `d(p, q) <= threshold`. Scanning stops at the first hit, so on
    /// covered inputs this inspects far fewer points than
    /// [`Metric::distance_to_set`]; overrides may additionally skip the
    /// expensive tail of each distance (see the Euclidean kernel), but
    /// must decide every comparison exactly as the default does.
    fn distance_to_set_within(&self, p: &P, set: &[P], threshold: f64) -> bool
    where
        P: Sized,
    {
        set.iter().any(|q| self.distance(p, q) <= threshold)
    }

    /// Flat-row hook for GMM (`diversity_core::gmm`) and the greedy
    /// matching (`diversity_core::seq::matching`): the points'
    /// coordinates as one row-major buffer, `dim` values per point, with
    /// `points[i]` as row `i`.
    ///
    /// `Some((rows, dim))` vouches that this metric's distance between
    /// `points[i]` and `points[j]` equals, bit for bit, the flat
    /// Euclidean kernels' distance between rows `i` and `j`
    /// ([`crate::euclidean_many_flat`], [`crate::euclidean_relax_flat`]),
    /// so a caller may run on the rows and its outcome stays that of its
    /// loop over `points`. It also vouches that every computed distance
    /// is within a relative `1e-10` plus an absolute `1e-151` of the
    /// true one: GMM's block path skips points by a triangle-inequality
    /// test with that much slack.
    ///
    /// The default returns `None`, which keeps callers on their loops
    /// over `points`. Only `Euclidean` on `VecPoint` answers, and it
    /// returns `None` too when `points` is empty, the points disagree on
    /// dimension, the dimension is 0 or above `max_dim`, or a coordinate
    /// is not finite.
    fn euclidean_rows(&self, points: &[P], max_dim: usize) -> Option<(Vec<f64>, usize)>
    where
        P: Sized,
    {
        let _ = (points, max_dim);
        None
    }
}

// A reference to a metric is itself a metric: this lets algorithms take
// metrics by value while callers keep ownership. Every method forwards
// so batch-kernel overrides survive the indirection.
impl<P: ?Sized, M: Metric<P> + ?Sized> Metric<P> for &M {
    #[inline]
    fn distance(&self, a: &P, b: &P) -> f64 {
        (**self).distance(a, b)
    }

    #[inline]
    fn distance_to_set(&self, p: &P, set: &[P]) -> f64
    where
        P: Sized,
    {
        (**self).distance_to_set(p, set)
    }

    #[inline]
    fn distance_many(&self, p: &P, others: &[P], out: &mut [f64])
    where
        P: Sized,
    {
        (**self).distance_many(p, others, out)
    }

    #[inline]
    fn relax(
        &self,
        center: &P,
        points: &[P],
        dists: &mut [f64],
        assignment: &mut [usize],
        cj: usize,
    ) -> Option<(usize, f64)>
    where
        P: Sized,
    {
        (**self).relax(center, points, dists, assignment, cj)
    }

    #[inline]
    fn distance_to_set_within(&self, p: &P, set: &[P], threshold: f64) -> bool
    where
        P: Sized,
    {
        (**self).distance_to_set_within(p, set, threshold)
    }

    #[inline]
    fn euclidean_rows(&self, points: &[P], max_dim: usize) -> Option<(Vec<f64>, usize)>
    where
        P: Sized,
    {
        (**self).euclidean_rows(points, max_dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Euclidean, VecPoint};

    #[test]
    fn distance_to_set_of_empty_is_infinite() {
        let p = VecPoint::new(vec![0.0]);
        assert_eq!(Euclidean.distance_to_set(&p, &[]), f64::INFINITY);
    }

    #[test]
    fn distance_to_set_takes_minimum() {
        let p = VecPoint::new(vec![0.0]);
        let set = vec![
            VecPoint::new(vec![5.0]),
            VecPoint::new(vec![2.0]),
            VecPoint::new(vec![9.0]),
        ];
        assert_eq!(Euclidean.distance_to_set(&p, &set), 2.0);
    }

    #[test]
    fn reference_to_metric_is_metric() {
        fn takes_metric<M: Metric<VecPoint>>(m: M) -> f64 {
            m.distance(&VecPoint::new(vec![0.0]), &VecPoint::new(vec![1.0]))
        }
        let e = Euclidean;
        assert_eq!(takes_metric(e), 1.0);
        assert_eq!(takes_metric(e), 1.0);
    }
}
