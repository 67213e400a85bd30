//! The randomized 2-round algorithm (Theorem 7).
//!
//! For the four injective-proxy problems, `GMM-EXT` keeps up to `k−1`
//! delegates per kernel point because, in the worst case, a single
//! partition could hold almost all `k` points of the optimal solution.
//! Under *random* partitioning a balls-into-bins argument shows that
//! w.h.p. no partition holds more than `Θ(max{log n, k/ℓ})` of them —
//! so that many delegates suffice, shrinking `M_L` as in Theorem 7.

use crate::runtime::MapReduceRuntime;
use crate::two_round::solve_union;
use crate::{MrOutcome, MrStats, Partitions};
use diversity_core::coreset::{gmm_ext, Coreset};
use diversity_core::Problem;
use metric::Metric;

/// Delegate cap `Θ(max{log n, k/ℓ})` with the constant used in our
/// experiments (2·ln n matches the usual w.h.p. balls-into-bins bound
/// for ℓ ≤ n bins).
pub fn delegate_cap(n: usize, k: usize, ell: usize) -> usize {
    let log_term = (2.0 * (n.max(2) as f64).ln()).ceil() as usize;
    let share_term = k.div_ceil(ell.max(1));
    log_term.max(share_term).max(1)
}

/// Runs the randomized 2-round algorithm. The caller is responsible
/// for having partitioned *randomly* (e.g.
/// [`crate::partition::split_random`]); with adversarial partitions the
/// w.h.p. guarantee is void (the run still completes and the harness
/// can measure exactly how much quality degrades).
///
/// # Panics
/// Panics if `problem` does not need injective proxies (use
/// [`crate::two_round::two_round`] — there are no delegates to save),
/// or on the same degenerate inputs as `two_round`.
pub fn randomized_two_round<P, M>(
    problem: Problem,
    partitions: &Partitions<P>,
    metric: &M,
    k: usize,
    k_prime: usize,
    runtime: &MapReduceRuntime,
) -> MrOutcome
where
    P: Clone + Send + Sync,
    M: Metric<P>,
{
    assert!(
        problem.needs_injective_proxy(),
        "randomized delegate saving applies to the injective-proxy problems"
    );
    assert!(k > 0, "k must be positive");
    assert!(k_prime >= k, "k' must be at least k");
    let n = partitions.total_points();
    assert!(n > 0, "empty input");
    let cap = delegate_cap(n, k, partitions.len());

    let mut stats = MrStats::default();

    let (round1_out, round1_stats) = runtime.run_round(
        "round1:coreset(randomized)",
        &partitions.parts,
        |part_id, part: &Vec<P>| {
            if part.is_empty() {
                return Coreset::unweighted(Vec::new(), Vec::new(), k_prime, 0.0);
            }
            let part = crate::local_rows(part, metric, k_prime);
            // GMM-EXT with the reduced delegate cap: `k` in Algorithm 1
            // is exactly the per-cluster delegate budget.
            let out = gmm_ext(&part, metric, cap, k_prime);
            let globals = &partitions.global_indices[part_id];
            let points: Vec<P> = out.coreset.iter().map(|&i| part[i].clone()).collect();
            let sources: Vec<u64> = out.coreset.iter().map(|&i| globals[i] as u64).collect();
            Coreset::unweighted(points, sources, k_prime, out.radius)
        },
        Vec::len,
        Coreset::len,
    );
    stats.rounds.push(round1_stats);

    // Shuffle + round 2: the shared composition-law combiner.
    let union = Coreset::merge_all(round1_out).expect("at least one partition");
    let (solution, solve_input_size, coreset_radius, round2_stats) =
        solve_union(problem, &union, metric, k, runtime, "round2:solve");
    stats.rounds.push(round2_stats);

    MrOutcome {
        solution,
        solve_input_size,
        coreset_radius,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::split_random;
    use metric::{Euclidean, VecPoint};

    fn line(xs: &[f64]) -> Vec<VecPoint> {
        xs.iter().map(|&x| VecPoint::from([x])).collect()
    }

    fn rt() -> MapReduceRuntime {
        MapReduceRuntime::with_threads(4)
    }

    #[test]
    fn delegate_cap_shapes() {
        // log-dominated regime
        assert!(delegate_cap(1_000_000, 4, 64) >= 27); // 2 ln 1e6 ≈ 27.6
                                                       // share-dominated regime
        assert_eq!(delegate_cap(10, 100, 2), 50);
        // never zero
        assert!(delegate_cap(1, 1, 1) >= 1);
    }

    #[test]
    fn produces_k_global_indices() {
        let xs: Vec<f64> = (0..300).map(|i| ((i * 41) % 223) as f64).collect();
        let points = line(&xs);
        let parts = split_random(points.clone(), 6, 11);
        let out = randomized_two_round(Problem::RemoteClique, &parts, &Euclidean, 6, 12, &rt());
        assert_eq!(out.solution.indices.len(), 6);
        let direct = diversity_core::eval::evaluate_subset(
            Problem::RemoteClique,
            &points,
            &Euclidean,
            &out.solution.indices,
        );
        assert!((out.solution.value - direct).abs() < 1e-9);
    }

    #[test]
    fn smaller_round1_output_than_deterministic_when_log_small() {
        // Choose k much larger than the delegate cap so the saving is
        // visible in the emitted (shuffled) volume.
        let xs: Vec<f64> = (0..800).map(|i| ((i * 61) % 509) as f64).collect();
        let points = line(&xs);
        let parts = split_random(points.clone(), 4, 3);
        let k = 64;
        let k_prime = 64;
        let det = crate::two_round::two_round(
            Problem::RemoteClique,
            &parts,
            &Euclidean,
            k,
            k_prime,
            &rt(),
        );
        let rand =
            randomized_two_round(Problem::RemoteClique, &parts, &Euclidean, k, k_prime, &rt());
        assert!(
            rand.stats.rounds[0].emitted_points <= det.stats.rounds[0].emitted_points,
            "randomized should not ship more: {} vs {}",
            rand.stats.rounds[0].emitted_points,
            det.stats.rounds[0].emitted_points
        );
        assert_eq!(rand.solution.indices.len(), k);
    }

    #[test]
    #[should_panic]
    fn rejects_remote_edge() {
        let points = line(&[0.0, 1.0, 2.0, 3.0]);
        let parts = split_random(points, 2, 1);
        let _ = randomized_two_round(Problem::RemoteEdge, &parts, &Euclidean, 2, 2, &rt());
    }
}
