//! The 3-round MapReduce algorithm with generalized core-sets
//! (Theorem 10).
//!
//! Round 1: each reducer runs `GMM-GEN(S_i, k, k')`, emitting only
//! `k'` (point, multiplicity) pairs — an `O(k)`-factor less shuffle
//! volume than `GMM-EXT`. Round 2: one reducer unions the generalized
//! core-sets and runs the multiset-adapted sequential algorithm
//! (Fact 2), producing a coherent subset `T̂` with `m(T̂) = k`.
//! Round 3: the pairs of `T̂` are routed back to their origin
//! partitions, where each reducer materializes `m_p` distinct delegates
//! within `r_T` of each of its pairs (a δ-instantiation, Lemma 7).

use crate::runtime::MapReduceRuntime;
use crate::{MrOutcome, MrStats, Partitions};
use diversity_core::coreset::{gmm_gen, Coreset};
use diversity_core::generalized::{instantiate, solve_multiset};
use diversity_core::{GenPair, GeneralizedCoreset, Problem, Solution};
use metric::Metric;
use std::collections::{HashMap, HashSet};

/// Runs the 3-round algorithm for one of the four injective-proxy
/// problems.
///
/// # Panics
/// Panics if `problem` is remote-edge/cycle (no delegates to save), if
/// the partition is empty, `k == 0`, `k_prime < k`, or the input has
/// fewer than `k` points.
pub fn three_round<P, M>(
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
        "generalized core-sets target the injective-proxy problems"
    );
    assert!(k > 0, "k must be positive");
    assert!(k_prime >= k, "k' must be at least k");
    assert!(partitions.total_points() >= k, "fewer than k points");

    let mut stats = MrStats::default();

    // ---- Round 1: per-partition generalized core-set artifacts ------
    // Each reducer emits a **weighted** `Coreset`: kernel points with
    // their delegate counts as multiplicities, sources already global.
    let (round1_out, round1_stats) = runtime.run_round(
        "round1:gmm-gen",
        &partitions.parts,
        |part_id, part: &Vec<P>| {
            if part.is_empty() {
                return Coreset::new(Vec::new(), Vec::new(), Vec::new(), k_prime, 0.0);
            }
            let part = crate::local_rows(part, metric, k_prime);
            let out = gmm_gen(&part, metric, k, k_prime);
            let globals = &partitions.global_indices[part_id];
            let pairs = out.coreset.pairs();
            let points: Vec<P> = pairs.iter().map(|p| part[p.index].clone()).collect();
            let sources: Vec<u64> = pairs.iter().map(|p| globals[p.index] as u64).collect();
            let weights: Vec<usize> = pairs.iter().map(|p| p.multiplicity).collect();
            Coreset::new(points, sources, weights, k_prime, out.radius)
        },
        Vec::len,
        Coreset::len,
    );
    stats.rounds.push(round1_stats);

    // ---- Shuffle: the composition law (radius = max = δ) -------------
    let union = Coreset::merge_all(round1_out).expect("at least one partition");
    let delta = union.radius();

    // ---- Round 2: multiset sequential algorithm ----------------------
    // The weighted artifact *is* the generalized core-set; re-express
    // its weights as `GenPair`s over its own point order for the
    // multiset solver.
    let solve_input_size = union.len();
    let union_gcs = GeneralizedCoreset::new(
        union
            .weights()
            .iter()
            .enumerate()
            .map(|(index, &multiplicity)| GenPair {
                index,
                multiplicity,
            })
            .collect(),
    );
    let kernel_points = union.points();
    let round2_input = vec![union_gcs];
    let (mut round2_out, round2_stats) = runtime.run_round(
        "round2:multiset-solve",
        &round2_input,
        |_, gcs: &GeneralizedCoreset| solve_multiset(problem, kernel_points, metric, gcs, k),
        GeneralizedCoreset::size,
        GeneralizedCoreset::size,
    );
    stats.rounds.push(round2_stats);
    let coherent = round2_out.pop().expect("single reducer");

    // ---- Round 3: per-partition instantiation ------------------------
    // Route each pair of T̂ back to its origin partition through the
    // artifact's global provenance. Only T̂'s own globals need routing
    // — `O(|T̂|)` bookkeeping over one scan of the partition maps, not
    // an `O(n)` table (the driver's whole point is `M_L ≪ n`, Table 3).
    let needed: HashSet<usize> = coherent
        .pairs()
        .iter()
        .map(|pair| union.sources()[pair.index] as usize)
        .collect();
    let mut locate: HashMap<usize, (usize, usize)> = HashMap::with_capacity(needed.len());
    for (part_id, globals) in partitions.global_indices.iter().enumerate() {
        for (local, &g) in globals.iter().enumerate() {
            if needed.contains(&g) {
                locate.insert(g, (part_id, local));
            }
        }
    }
    let mut per_part_pairs: Vec<Vec<GenPair>> = vec![Vec::new(); partitions.len()];
    for pair in coherent.pairs() {
        let global = union.sources()[pair.index] as usize;
        let (part_id, local_idx) = locate[&global];
        per_part_pairs[part_id].push(GenPair {
            index: local_idx,
            multiplicity: pair.multiplicity,
        });
    }
    let (round3_out, round3_stats) = runtime.run_round(
        "round3:instantiate",
        &per_part_pairs,
        |part_id, pairs: &Vec<GenPair>| {
            if pairs.is_empty() {
                return Vec::new();
            }
            let part = &partitions.parts[part_id];
            let pool: Vec<usize> = (0..part.len()).collect();
            let local_gcs = GeneralizedCoreset::new(pairs.clone());
            let inst = instantiate(part, metric, &local_gcs, &pool, delta);
            inst.indices
                .iter()
                .map(|&local| partitions.global_indices[part_id][local])
                .collect::<Vec<usize>>()
        },
        |pairs| pairs.iter().map(|p| p.multiplicity).sum::<usize>(),
        Vec::len,
    );
    stats.rounds.push(round3_stats);

    let indices: Vec<usize> = round3_out.into_iter().flatten().collect();
    debug_assert_eq!(
        indices.len(),
        k,
        "instantiation must produce exactly k points"
    );

    // Final evaluation against the original input. The partition's
    // parts are clones of the original points, so evaluating through
    // global indices is exact.
    let value = evaluate_global(problem, partitions, metric, &indices);
    MrOutcome {
        solution: Solution { indices, value },
        solve_input_size,
        coreset_radius: delta,
        stats,
    }
}

/// Evaluates a set of *global* indices by locating each point through
/// the partition maps.
fn evaluate_global<P: Clone + Sync, M: Metric<P>>(
    problem: Problem,
    partitions: &Partitions<P>,
    metric: &M,
    global_indices: &[usize],
) -> f64 {
    // Build a global -> (part, local) lookup for just the needed ids.
    let mut wanted: Vec<usize> = global_indices.to_vec();
    wanted.sort_unstable();
    let mut points: Vec<Option<P>> = vec![None; global_indices.len()];
    for (part_id, globals) in partitions.global_indices.iter().enumerate() {
        for (local, &g) in globals.iter().enumerate() {
            if wanted.binary_search(&g).is_ok() {
                for (slot, &want) in global_indices.iter().enumerate() {
                    if want == g {
                        points[slot] = Some(partitions.parts[part_id][local].clone());
                    }
                }
            }
        }
    }
    let pts: Vec<P> = points
        .into_iter()
        .map(|p| p.expect("global index present in partitions"))
        .collect();
    let dm = metric::DistanceMatrix::build(&pts, metric);
    diversity_core::eval::evaluate(problem, &dm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{split_random, split_round_robin};
    use metric::{Euclidean, VecPoint};

    fn line(xs: &[f64]) -> Vec<VecPoint> {
        xs.iter().map(|&x| VecPoint::from([x])).collect()
    }

    fn rt() -> MapReduceRuntime {
        MapReduceRuntime::with_threads(4)
    }

    #[test]
    fn produces_k_distinct_global_indices() {
        let xs: Vec<f64> = (0..400).map(|i| ((i * 37) % 307) as f64).collect();
        let points = line(&xs);
        let parts = split_random(points, 5, 17);
        let out = three_round(Problem::RemoteClique, &parts, &Euclidean, 6, 12, &rt());
        assert_eq!(out.solution.indices.len(), 6);
        let mut s = out.solution.indices.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 6, "duplicate selections");
        assert_eq!(out.stats.num_rounds(), 3);
    }

    #[test]
    fn shuffle_volume_is_k_prime_not_k_times_k_prime() {
        let xs: Vec<f64> = (0..600).map(|i| ((i * 61) % 401) as f64).collect();
        let points = line(&xs);
        let parts = split_round_robin(points, 4);
        let k = 16;
        let k_prime = 20;
        let gen = three_round(Problem::RemoteTree, &parts, &Euclidean, k, k_prime, &rt());
        let det =
            crate::two_round::two_round(Problem::RemoteTree, &parts, &Euclidean, k, k_prime, &rt());
        // Round-1 emission: GEN ships at most (k'+... ) pairs per part;
        // EXT ships up to k·k' points per part.
        assert!(
            gen.stats.rounds[0].emitted_points * 2 < det.stats.rounds[0].emitted_points,
            "generalized core-set should shuffle much less: {} vs {}",
            gen.stats.rounds[0].emitted_points,
            det.stats.rounds[0].emitted_points
        );
    }

    #[test]
    fn value_close_to_two_round_on_benign_input() {
        let xs: Vec<f64> = (0..500).map(|i| ((i * 97) % 353) as f64).collect();
        let points = line(&xs);
        let parts = split_round_robin(points, 5);
        for problem in [
            Problem::RemoteClique,
            Problem::RemoteStar,
            Problem::RemoteTree,
        ] {
            let three = three_round(problem, &parts, &Euclidean, 5, 10, &rt());
            let two = crate::two_round::two_round(problem, &parts, &Euclidean, 5, 10, &rt());
            assert!(
                three.solution.value >= 0.5 * two.solution.value,
                "{problem}: 3-round {} vs 2-round {}",
                three.solution.value,
                two.solution.value
            );
        }
    }

    #[test]
    fn all_four_injective_problems_run() {
        let xs: Vec<f64> = (0..300).map(|i| ((i * 13) % 199) as f64).collect();
        let points = line(&xs);
        let parts = split_round_robin(points, 3);
        for problem in [
            Problem::RemoteClique,
            Problem::RemoteStar,
            Problem::RemoteBipartition,
            Problem::RemoteTree,
        ] {
            let out = three_round(problem, &parts, &Euclidean, 4, 8, &rt());
            assert_eq!(out.solution.indices.len(), 4, "{problem}");
            assert!(out.solution.value > 0.0, "{problem}");
        }
    }

    #[test]
    #[should_panic]
    fn rejects_remote_cycle() {
        let points = line(&[0.0, 1.0, 2.0, 3.0]);
        let parts = split_round_robin(points, 2);
        let _ = three_round(Problem::RemoteCycle, &parts, &Euclidean, 2, 2, &rt());
    }
}
