//! The Euclidean (`L2`) metric.

use crate::kernels;
use crate::{DenseRow, Metric, VecPoint};

/// Euclidean distance `d(u, v) = ‖u − v‖₂`.
///
/// Euclidean space of constant dimension `D` has doubling dimension
/// `O(D)` (Gupta–Krauthgamer–Lee, FOCS'03), which is the regime where the
/// paper's `(1+ε)` core-set bounds apply.
///
/// Note that *squared* Euclidean distance is **not** a metric (it violates
/// the triangle inequality: on the line, `d(0,2)² = 4 > d(0,1)² + d(1,2)² =
/// 2`), so no such metric is provided: using it would silently void every
/// approximation guarantee in the stack.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Euclidean;

/// The batch hooks are implemented once over coordinate rows
/// (`kernels::euclidean_*`) and shared by the [`VecPoint`] and
/// [`DenseRow`] impls; they are bitwise-identical to the scalar
/// `distance` loop (see the `kernels` module docs for the argument,
/// and `tests/batch_equivalence.rs` for the enforcement).
impl Metric<VecPoint> for Euclidean {
    #[inline]
    fn distance(&self, a: &VecPoint, b: &VecPoint) -> f64 {
        self.distance(a.coords(), b.coords())
    }

    fn distance_many(&self, p: &VecPoint, others: &[VecPoint], out: &mut [f64]) {
        let dim = p.dim();
        if dim > 4 && crate::simd::enabled() {
            // Gathering four row pointers per vector still beats the
            // scalar add-latency chain at high dim; the O(n) pointer
            // collection is noise next to the O(n·d) kernel.
            let rows: Vec<&[f64]> = others.iter().map(VecPoint::coords).collect();
            if crate::simd::try_many(
                &crate::simd::Batch::Ptrs { rows: &rows, dim },
                p.coords(),
                out,
            ) {
                return;
            }
        }
        kernels::euclidean_many(p.coords(), others.iter().map(VecPoint::coords), out);
    }

    fn relax(
        &self,
        center: &VecPoint,
        points: &[VecPoint],
        dists: &mut [f64],
        assignment: &mut [usize],
        cj: usize,
    ) -> Option<(usize, f64)> {
        let dim = center.dim();
        if dim > 4 && crate::simd::enabled() {
            let rows: Vec<&[f64]> = points.iter().map(VecPoint::coords).collect();
            if let Some(best) = crate::simd::try_relax(
                &crate::simd::Batch::Ptrs { rows: &rows, dim },
                center.coords(),
                dists,
                assignment,
                cj,
            ) {
                return best;
            }
        }
        kernels::euclidean_relax(
            center.coords(),
            points.iter().map(VecPoint::coords),
            dists,
            assignment,
            cj,
        )
    }

    fn distance_to_set_within(&self, p: &VecPoint, set: &[VecPoint], threshold: f64) -> bool {
        kernels::euclidean_within(p.coords(), set.iter().map(VecPoint::coords), threshold)
    }

    /// Morton order over the points' bounding cube (`crate::morton`).
    fn locality_copy(
        &self,
        points: &[VecPoint],
        max_dim: usize,
    ) -> Option<(Vec<VecPoint>, Vec<usize>)> {
        crate::morton::morton_copy(points, max_dim)
    }
}

/// The `DenseRow` hooks use the fused-verification kernels: each
/// 8-point block checks whether its rows are consecutive rows of one
/// flat buffer (exact — a permuted batch can never alias a run) and
/// streams the flat coordinates cache-linearly when they are, falling
/// back to per-row loads when they aren't. Both paths are
/// bitwise-identical to the scalar loop.
impl Metric<DenseRow<'_>> for Euclidean {
    #[inline]
    fn distance(&self, a: &DenseRow<'_>, b: &DenseRow<'_>) -> f64 {
        self.distance(a.coords(), b.coords())
    }

    fn distance_many(&self, p: &DenseRow<'_>, others: &[DenseRow<'_>], out: &mut [f64]) {
        kernels::euclidean_many_rows(p.coords(), others, out);
    }

    fn relax(
        &self,
        center: &DenseRow<'_>,
        points: &[DenseRow<'_>],
        dists: &mut [f64],
        assignment: &mut [usize],
        cj: usize,
    ) -> Option<(usize, f64)> {
        kernels::euclidean_relax_rows(center.coords(), points, dists, assignment, cj)
    }

    fn distance_to_set_within(
        &self,
        p: &DenseRow<'_>,
        set: &[DenseRow<'_>],
        threshold: f64,
    ) -> bool {
        // Only pay the O(n) run check when a SIMD sweep can cash it
        // in; at low dim the early-exit per-row scan is the right
        // shape (the first in-range row ends it).
        if p.dim() > 4 && crate::simd::enabled() {
            if let Some((flat, dim)) = DenseRow::contiguous_run(set) {
                debug_assert_eq!(p.dim(), dim, "dimension mismatch");
                return kernels::euclidean_within_flat(p.coords(), flat, dim, threshold);
            }
        }
        kernels::euclidean_within(p.coords(), set.iter().map(DenseRow::coords), threshold)
    }
}

impl Metric<[f64]> for Euclidean {
    #[inline]
    fn distance(&self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
        crate::kernels::l2_sq(a, b).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pythagorean_triple() {
        let a = VecPoint::from([0.0, 0.0]);
        let b = VecPoint::from([3.0, 4.0]);
        assert_eq!(Euclidean.distance(&a, &b), 5.0);
    }

    #[test]
    fn identity() {
        let a = VecPoint::from([1.5, -2.5, 3.0]);
        assert_eq!(Euclidean.distance(&a, &a), 0.0);
    }

    #[test]
    fn works_on_slices() {
        assert_eq!(Euclidean.distance(&[0.0][..], &[7.0][..]), 7.0);
    }

    #[test]
    fn one_dimension_is_absolute_difference() {
        let a = VecPoint::from([-2.0]);
        let b = VecPoint::from([5.0]);
        assert_eq!(Euclidean.distance(&a, &b), 7.0);
    }
}
