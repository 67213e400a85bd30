//! The multi-round recursive algorithm (Theorem 8).
//!
//! When the local memory budget `M_L` is too small for the 2-round
//! algorithm's union-of-core-sets to fit on one reducer, the core-set
//! strategy is applied *recursively*: partition, extract core-sets,
//! union — and if the union still exceeds `M_L`, treat it as the new
//! input. Each level multiplies the approximation loss by `(1+ε_level)`,
//! which the parameter choice in Theorem 8 keeps summing to `ε`.

use crate::runtime::MapReduceRuntime;
use crate::two_round::solve_union;
use crate::{MrOutcome, MrStats};
use diversity_core::coreset::Coreset;
use diversity_core::{par, pipeline, Problem};
use metric::Metric;

/// Runs the recursive algorithm with a local-memory budget of
/// `memory_limit` points per reducer.
///
/// Levels partition the current working set into
/// `⌈|working| / memory_limit⌉` parts and shrink each to a core-set;
/// when the union fits in `memory_limit` (or stops shrinking — possible
/// when the budget is below the core-set size, which the paper's
/// parameter regime excludes; we stop and solve anyway, documenting the
/// breach in the stats), the sequential algorithm finishes the job.
///
/// # Panics
/// Panics if `points` is empty, `k == 0`, `k_prime < k`, or
/// `memory_limit == 0`.
pub fn recursive<P, M>(
    problem: Problem,
    points: &[P],
    metric: &M,
    k: usize,
    k_prime: usize,
    memory_limit: usize,
    runtime: &MapReduceRuntime,
) -> MrOutcome
where
    P: Clone + Send + Sync,
    M: Metric<P>,
{
    recursive_owned(
        problem,
        points.to_vec(),
        metric,
        k,
        k_prime,
        memory_limit,
        runtime,
    )
}

/// [`recursive`] taking ownership of the input: the level-0 working set
/// *is* the passed vector, avoiding one full copy of the dataset.
///
/// # Panics
/// Same contract as [`recursive`].
pub fn recursive_owned<P, M>(
    problem: Problem,
    points: Vec<P>,
    metric: &M,
    k: usize,
    k_prime: usize,
    memory_limit: usize,
    runtime: &MapReduceRuntime,
) -> MrOutcome
where
    P: Clone + Send + Sync,
    M: Metric<P>,
{
    assert!(!points.is_empty(), "empty input");
    assert!(k > 0, "k must be positive");
    assert!(k_prime >= k, "k' must be at least k");
    assert!(memory_limit > 0, "memory limit must be positive");

    let mut stats = MrStats::default();
    // The working set *is* a `Coreset` of the original input — level 0
    // trivially so (every point, radius 0). Each level shrinks it
    // through `pipeline::shrink_coreset`, which composes the radius
    // certificate **additively** across levels (the Lemma 3–4
    // telescope behind Theorem 8's per-level `(1+ε_level)` losses).
    let n = points.len() as u64;
    let mut working = Coreset::unweighted(points, (0..n).collect(), k_prime, 0.0);
    let mut level = 0usize;

    while working.len() > memory_limit {
        level += 1;
        let ell = working.len().div_ceil(memory_limit);
        let chunks = working.split_round_robin(ell);
        let before: usize = chunks.iter().map(Coreset::len).sum();

        let (outs, round_stats) = runtime.run_round(
            &format!("level{level}:coreset"),
            &chunks,
            |_, chunk: &Coreset<P>| {
                if chunk.is_empty() {
                    return chunk.clone();
                }
                let threads = par::auto_threads(chunk.len());
                pipeline::shrink_coreset(problem, chunk, metric, k, k_prime, threads)
            },
            Coreset::len,
            Coreset::len,
        );
        stats.rounds.push(round_stats);

        working = Coreset::merge_all(outs).expect("at least one chunk");
        if working.len() >= before {
            // No shrink: the budget is below the core-set size. Stop
            // recursing; the final solve below still yields a sound
            // (if memory-over-budget) answer.
            break;
        }
    }

    // Final sequential solve on the surviving working set (the shared
    // union combiner — the working set's sources are already global).
    let (solution, solve_input_size, coreset_radius, final_stats) =
        solve_union(problem, &working, metric, k, runtime, "final:solve");
    stats.rounds.push(final_stats);

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
    use metric::{Euclidean, VecPoint};

    fn line(xs: &[f64]) -> Vec<VecPoint> {
        xs.iter().map(|&x| VecPoint::from([x])).collect()
    }

    fn rt() -> MapReduceRuntime {
        MapReduceRuntime::with_threads(4)
    }

    #[test]
    fn multiple_levels_until_fit() {
        let xs: Vec<f64> = (0..2000).map(|i| ((i * 37) % 1201) as f64).collect();
        let points = line(&xs);
        let out = recursive(Problem::RemoteEdge, &points, &Euclidean, 4, 8, 100, &rt());
        // 2000 -> 20 parts × 8 = 160 -> 2 parts × 8 = 16 (fits).
        assert!(out.stats.num_rounds() >= 3, "expected >= 2 levels + final");
        assert_eq!(out.solution.indices.len(), 4);
        // Every level's reducers must respect the memory budget.
        for round in &out.stats.rounds {
            assert!(
                round.max_local_points <= 100,
                "{}: {} points resident",
                round.name,
                round.max_local_points
            );
        }
    }

    #[test]
    fn large_budget_degenerates_to_single_solve() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let points = line(&xs);
        let out = recursive(Problem::RemoteEdge, &points, &Euclidean, 3, 6, 1000, &rt());
        assert_eq!(out.stats.num_rounds(), 1);
        let direct = diversity_core::seq::solve(Problem::RemoteEdge, &points, &Euclidean, 3);
        assert_eq!(out.solution.value, direct.value);
    }

    #[test]
    fn quality_degrades_gracefully_with_levels() {
        let xs: Vec<f64> = (0..3000).map(|i| ((i * 53) % 2003) as f64).collect();
        let points = line(&xs);
        let shallow = recursive(Problem::RemoteEdge, &points, &Euclidean, 4, 16, 2000, &rt());
        let deep = recursive(Problem::RemoteEdge, &points, &Euclidean, 4, 16, 120, &rt());
        assert!(deep.stats.num_rounds() > shallow.stats.num_rounds());
        // Each extra level can lose accuracy but not collapse.
        assert!(deep.solution.value >= shallow.solution.value / 2.0);
    }

    #[test]
    fn non_shrinking_budget_terminates() {
        // memory_limit smaller than the core-set size: must not loop.
        let xs: Vec<f64> = (0..200).map(|i| i as f64).collect();
        let points = line(&xs);
        let out = recursive(Problem::RemoteClique, &points, &Euclidean, 4, 8, 10, &rt());
        assert_eq!(out.solution.indices.len(), 4);
    }

    #[test]
    fn radius_composes_additively_across_levels() {
        let xs: Vec<f64> = (0..3000).map(|i| ((i * 53) % 2003) as f64).collect();
        let points = line(&xs);
        let shallow = recursive(Problem::RemoteEdge, &points, &Euclidean, 4, 16, 2000, &rt());
        let deep = recursive(Problem::RemoteEdge, &points, &Euclidean, 4, 16, 120, &rt());
        // One level vs several: the deep run telescopes more radii.
        assert!(deep.coreset_radius >= shallow.coreset_radius);
        assert!(deep.coreset_radius.is_finite() && deep.coreset_radius > 0.0);
        // A single-solve run (everything fits) has a zero certificate:
        // the "coreset" is the input itself.
        let all = recursive(Problem::RemoteEdge, &points, &Euclidean, 4, 16, 5000, &rt());
        assert_eq!(all.coreset_radius, 0.0);
    }

    #[test]
    fn indices_are_global_through_levels() {
        let xs: Vec<f64> = (0..1500).map(|i| ((i * 97) % 1103) as f64).collect();
        let points = line(&xs);
        let out = recursive(Problem::RemoteEdge, &points, &Euclidean, 5, 10, 200, &rt());
        let direct = diversity_core::eval::evaluate_subset(
            Problem::RemoteEdge,
            &points,
            &Euclidean,
            &out.solution.indices,
        );
        assert!((out.solution.value - direct).abs() < 1e-9);
    }
}
