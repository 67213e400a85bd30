//! The core-set → sequential-algorithm composition.
//!
//! Both the streaming algorithm (Theorem 3) and the MapReduce algorithm
//! (Theorem 6) end the same way: a core-set `T` sits in one machine's
//! memory and the best sequential algorithm runs on it. This module is
//! that final step, used directly for single-machine runs and reused by
//! the `diversity-streaming` and `diversity-mapreduce` crates.
//!
//! These free functions are the stable **low-level layer**: they take
//! raw `(k, k')` parameters and `panic!` on degenerate inputs, which
//! suits experiment harnesses that control their own arguments. The
//! `diversity` facade crate's `Task` builder wraps this layer with
//! upfront validation (typed errors instead of panics), accuracy-budget
//! sizing, and a uniform report type — prefer it at application
//! boundaries.

use crate::coreset::{gmm_coreset_with_threads, gmm_ext_with_threads, Coreset};
use crate::par;
use crate::{seq, Problem, Solution};
use metric::Metric;

/// Extracts the problem-appropriate core-set from `points`
/// (`GMM` for remote-edge/cycle, `GMM-EXT` for the injective-proxy
/// problems) with kernel size `k_prime`, then runs the sequential
/// `α`-approximation on the core-set. Returns a solution whose indices
/// refer to the *original* `points` slice.
///
/// This single-machine pipeline is the `ℓ = 1` special case of the
/// MapReduce algorithm; with a theory-driven `k_prime`
/// ([`crate::coreset::theoretical_kernel_size`]) it is an
/// `(α+ε)`-approximation on bounded-doubling-dimension inputs.
///
/// # Panics
/// Panics if `points` is empty, `k == 0`, or `k_prime < k`.
pub fn coreset_then_solve<P: Clone + Sync, M: Metric<P>>(
    problem: Problem,
    points: &[P],
    metric: &M,
    k: usize,
    k_prime: usize,
) -> Solution {
    coreset_then_solve_with_threads(
        problem,
        points,
        metric,
        k,
        k_prime,
        par::auto_threads(points.len()),
    )
}

/// [`coreset_then_solve`] with an explicit thread count for the
/// core-set extraction stage (`threads <= 1` runs it sequentially; the
/// result is bit-identical for every thread count).
///
/// # Panics
/// Panics if `points` is empty, `k == 0`, or `k_prime < k`.
pub fn coreset_then_solve_with_threads<P: Clone + Sync, M: Metric<P>>(
    problem: Problem,
    points: &[P],
    metric: &M,
    k: usize,
    k_prime: usize,
    threads: usize,
) -> Solution {
    assert!(k_prime >= k, "k' must be at least k (k'={k_prime}, k={k})");
    let coreset =
        extract_coreset_artifact_with_threads(problem, points, metric, k, k_prime, threads);
    solve_coreset(problem, &coreset, metric, k)
}

/// Extracts the problem-appropriate core-set of `points` as the typed
/// [`Coreset`] artifact: owned points, provenance (positions in
/// `points`), unit weights, and the kernel's covering radius as the
/// certificate. This is what the sequential substrate hands to the
/// composition layer; [`extract_coreset`] remains the index-only view
/// for callers that keep the slice.
pub fn extract_coreset_artifact<P: Clone + Sync, M: Metric<P>>(
    problem: Problem,
    points: &[P],
    metric: &M,
    k: usize,
    k_prime: usize,
) -> Coreset<P> {
    extract_coreset_artifact_with_threads(
        problem,
        points,
        metric,
        k,
        k_prime,
        par::auto_threads(points.len()),
    )
}

/// [`extract_coreset_artifact`] with an explicit thread count.
pub fn extract_coreset_artifact_with_threads<P: Clone + Sync, M: Metric<P>>(
    problem: Problem,
    points: &[P],
    metric: &M,
    k: usize,
    k_prime: usize,
    threads: usize,
) -> Coreset<P> {
    let (indices, radius) = if problem.needs_injective_proxy() {
        let out = gmm_ext_with_threads(points, metric, k, k_prime, threads);
        (out.coreset, out.radius)
    } else {
        let out = crate::gmm::gmm_with_threads(points, metric, k_prime, 0, threads);
        let radius = out.radius();
        (out.selected, radius)
    };
    let owned: Vec<P> = indices.iter().map(|&i| points[i].clone()).collect();
    let sources: Vec<u64> = indices.iter().map(|&i| i as u64).collect();
    Coreset::unweighted(owned, sources, k_prime, radius)
}

/// Runs the sequential algorithm on a [`Coreset`] artifact, returning
/// a solution whose indices are the artifact's *sources* — positions
/// in whatever index space the producing substrate used.
///
/// # Panics
/// Panics if the core-set is empty or carries non-unit weights (a
/// weighted/generalized core-set needs the multiset machinery in
/// [`crate::generalized`], not the plain sequential algorithm).
pub fn solve_coreset<P: Clone + Sync, M: Metric<P>>(
    problem: Problem,
    coreset: &Coreset<P>,
    metric: &M,
    k: usize,
) -> Solution {
    assert!(!coreset.is_empty(), "cannot solve on an empty core-set");
    assert!(
        coreset.is_unweighted(),
        "plain sequential solve requires an unweighted core-set"
    );
    let local = seq::solve(problem, coreset.points(), metric, k);
    Solution {
        indices: local
            .indices
            .iter()
            .map(|&i| coreset.sources()[i] as usize)
            .collect(),
        value: local.value,
    }
}

/// Re-extracts a core-set *from* a core-set (the recursion step of the
/// multi-round MapReduce driver): runs the problem-appropriate
/// extraction over `parent`'s points, maps provenance through
/// `parent`'s sources, and composes the certificate **additively**
/// ([`Coreset::deepen`] — the Lemma 3–4 telescope).
///
/// # Panics
/// Panics if `parent` is empty or weighted.
pub fn shrink_coreset<P: Clone + Sync, M: Metric<P>>(
    problem: Problem,
    parent: &Coreset<P>,
    metric: &M,
    k: usize,
    k_prime: usize,
    threads: usize,
) -> Coreset<P> {
    assert!(
        parent.is_unweighted(),
        "re-extraction requires an unweighted core-set"
    );
    let fresh = extract_coreset_artifact_with_threads(
        problem,
        parent.points(),
        metric,
        k,
        k_prime,
        threads,
    );
    fresh
        .map_sources(|local| parent.sources()[local as usize])
        .deepen(parent.radius())
}

/// Extracts the problem-appropriate core-set (indices into `points`).
pub fn extract_coreset<P: Sync, M: Metric<P>>(
    problem: Problem,
    points: &[P],
    metric: &M,
    k: usize,
    k_prime: usize,
) -> Vec<usize> {
    extract_coreset_with_threads(
        problem,
        points,
        metric,
        k,
        k_prime,
        par::auto_threads(points.len()),
    )
}

/// [`extract_coreset`] with an explicit thread count for the underlying
/// farthest-point traversal.
pub fn extract_coreset_with_threads<P: Sync, M: Metric<P>>(
    problem: Problem,
    points: &[P],
    metric: &M,
    k: usize,
    k_prime: usize,
    threads: usize,
) -> Vec<usize> {
    if problem.needs_injective_proxy() {
        gmm_ext_with_threads(points, metric, k, k_prime, threads).coreset
    } else {
        gmm_coreset_with_threads(points, metric, k_prime, threads)
    }
}

/// Runs the sequential algorithm on the subset `candidate_indices` of
/// `points`, translating the result back to original indices.
pub fn solve_on_subset<P: Clone + Sync, M: Metric<P>>(
    problem: Problem,
    points: &[P],
    metric: &M,
    k: usize,
    candidate_indices: &[usize],
) -> Solution {
    let subset: Vec<P> = candidate_indices
        .iter()
        .map(|&i| points[i].clone())
        .collect();
    let local = seq::solve(problem, &subset, metric, k);
    Solution {
        indices: local
            .indices
            .iter()
            .map(|&i| candidate_indices[i])
            .collect(),
        value: local.value,
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
    fn indices_refer_to_original_slice() {
        let pts = line(&[0.0, 0.2, 0.4, 5.0, 9.6, 9.8, 10.0]);
        let sol = coreset_then_solve(Problem::RemoteEdge, &pts, &Euclidean, 3, 5);
        assert_eq!(sol.len(), 3);
        assert!(sol.indices.iter().all(|&i| i < pts.len()));
        // The solution's value must equal the evaluation of the returned
        // indices in the original point set.
        let direct =
            crate::eval::evaluate_subset(Problem::RemoteEdge, &pts, &Euclidean, &sol.indices);
        assert_eq!(sol.value, direct);
    }

    #[test]
    fn coreset_equal_to_input_recovers_sequential() {
        let pts = line(&[0.0, 1.0, 3.5, 7.0, 11.0]);
        let via_coreset = coreset_then_solve(Problem::RemoteClique, &pts, &Euclidean, 3, 5);
        let direct = seq::solve(Problem::RemoteClique, &pts, &Euclidean, 3);
        assert_eq!(via_coreset.value, direct.value);
    }

    #[test]
    fn extract_uses_delegates_only_when_needed() {
        let pts = line(&[0.0, 0.1, 0.2, 10.0, 10.1, 10.2]);
        let plain = extract_coreset(Problem::RemoteEdge, &pts, &Euclidean, 3, 2);
        let ext = extract_coreset(Problem::RemoteClique, &pts, &Euclidean, 3, 2);
        assert_eq!(plain.len(), 2, "kernel only");
        assert!(ext.len() > 2, "kernel plus delegates");
    }

    #[test]
    fn larger_kernel_never_hurts_remote_edge_here() {
        let pts = line(&(0..50).map(|i| (i as f64).sqrt() * 3.0).collect::<Vec<_>>());
        let small = coreset_then_solve(Problem::RemoteEdge, &pts, &Euclidean, 4, 4);
        let large = coreset_then_solve(Problem::RemoteEdge, &pts, &Euclidean, 4, 16);
        assert!(large.value >= small.value - 1e-9);
    }

    #[test]
    #[should_panic]
    fn rejects_k_prime_below_k() {
        let pts = line(&[0.0, 1.0, 2.0]);
        let _ = coreset_then_solve(Problem::RemoteEdge, &pts, &Euclidean, 3, 2);
    }

    #[test]
    fn artifact_matches_index_extraction() {
        let pts = line(&(0..60).map(|i| ((i * 31) % 47) as f64).collect::<Vec<_>>());
        for problem in [Problem::RemoteEdge, Problem::RemoteClique] {
            let indices = extract_coreset(problem, &pts, &Euclidean, 3, 8);
            let artifact = extract_coreset_artifact(problem, &pts, &Euclidean, 3, 8);
            let sources: Vec<usize> = artifact.sources().iter().map(|&s| s as usize).collect();
            assert_eq!(sources, indices, "{problem}");
            for (&s, p) in artifact.sources().iter().zip(artifact.points()) {
                assert_eq!(&pts[s as usize], p, "{problem}: provenance recovers point");
            }
            assert!(artifact.is_unweighted());
            assert_eq!(artifact.k_prime(), 8);
        }
    }

    #[test]
    fn artifact_radius_certifies_the_input() {
        let pts = line(&(0..80).map(|i| ((i * 53) % 67) as f64).collect::<Vec<_>>());
        for problem in [Problem::RemoteEdge, Problem::RemoteTree] {
            let artifact = extract_coreset_artifact(problem, &pts, &Euclidean, 4, 10);
            assert!(
                artifact.certifies(&pts, &Euclidean, 1e-9),
                "{problem}: radius certificate must cover every input point"
            );
        }
    }

    #[test]
    fn solve_coreset_matches_solve_on_subset() {
        let pts = line(&(0..50).map(|i| ((i * 17) % 41) as f64).collect::<Vec<_>>());
        let artifact = extract_coreset_artifact(Problem::RemoteClique, &pts, &Euclidean, 3, 6);
        let via_artifact = solve_coreset(Problem::RemoteClique, &artifact, &Euclidean, 3);
        let indices: Vec<usize> = artifact.sources().iter().map(|&s| s as usize).collect();
        let via_subset = solve_on_subset(Problem::RemoteClique, &pts, &Euclidean, 3, &indices);
        assert_eq!(via_artifact.indices, via_subset.indices);
        assert_eq!(via_artifact.value, via_subset.value);
    }

    #[test]
    fn shrink_composes_radii_and_provenance() {
        let pts = line(
            &(0..120)
                .map(|i| ((i * 37) % 101) as f64)
                .collect::<Vec<_>>(),
        );
        let parent = extract_coreset_artifact(Problem::RemoteEdge, &pts, &Euclidean, 4, 24);
        let child = shrink_coreset(Problem::RemoteEdge, &parent, &Euclidean, 4, 8, 1);
        assert!(child.len() <= 8);
        assert!(child.radius() >= parent.radius());
        // Child provenance points straight at the original slice.
        for (&s, p) in child.sources().iter().zip(child.points()) {
            assert_eq!(&pts[s as usize], p);
        }
        // And the composed radius really covers the original input.
        assert!(child.certifies(&pts, &Euclidean, 1e-9));
    }
}
