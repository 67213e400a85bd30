//! Generalized core-sets (Section 6 of the paper): compact multiset
//! representations, their diversity, the adapted sequential algorithms
//! (Fact 2), and δ-instantiation (Lemma 7).
//!
//! A generalized core-set is a set of pairs `(p, m_p)`: kernel point
//! plus multiplicity. Its *expansion* is the multiset with `m_p` copies
//! of each `p`, where copies sit at distance 0 from one another.
//! Solving the diversity problem on the expansion and then replacing
//! copies by distinct nearby *delegates* (a `δ`-instantiation) costs at
//! most `f(k)·2δ` of objective value (Lemma 7) — the trick that cuts the
//! streaming/MapReduce memory for the four injective-proxy problems.

use crate::eval::evaluate;
use crate::seq::matching::FarthestPairs;
use crate::{Problem, Solution};
use metric::{DistanceMatrix, Metric};
use serde::{Deserialize, Serialize};

/// One `(point, multiplicity)` entry of a generalized core-set. The
/// point is an index into whatever point universe the caller manages.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct GenPair {
    /// Index of the kernel point in the caller's point slice.
    pub index: usize,
    /// Number of delegates this point stands for, itself included
    /// (`m_p ≥ 1`).
    pub multiplicity: usize,
}

/// A generalized core-set `T = {(p, m_p)}` (Section 6).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct GeneralizedCoreset {
    pairs: Vec<GenPair>,
}

impl GeneralizedCoreset {
    /// Builds a generalized core-set; pairs with zero multiplicity are
    /// dropped.
    ///
    /// # Panics
    /// Panics if two pairs share the same point index (the paper
    /// requires first components to be distinct).
    pub fn new(pairs: Vec<GenPair>) -> Self {
        let mut pairs: Vec<GenPair> = pairs.into_iter().filter(|p| p.multiplicity > 0).collect();
        pairs.sort_by_key(|p| p.index);
        for w in pairs.windows(2) {
            assert_ne!(
                w[0].index, w[1].index,
                "duplicate point in generalized core-set"
            );
        }
        Self { pairs }
    }

    /// `s(T)`: number of pairs.
    pub fn size(&self) -> usize {
        self.pairs.len()
    }

    /// `true` if the core-set has no pairs.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// `m(T) = Σ m_p`: size of the expansion.
    pub fn expanded_size(&self) -> usize {
        self.pairs.iter().map(|p| p.multiplicity).sum()
    }

    /// The pairs, sorted by point index.
    pub fn pairs(&self) -> &[GenPair] {
        &self.pairs
    }

    /// Union of generalized core-sets over *disjoint* index universes
    /// (the MapReduce aggregation step).
    ///
    /// # Panics
    /// Panics if the operands share a point index.
    pub fn union(mut self, other: Self) -> Self {
        self.pairs.extend(other.pairs);
        Self::new(self.pairs)
    }

    /// The coherent-subset relation `self ⊑ other`: every pair of `self`
    /// appears in `other` with at least the same multiplicity.
    pub fn is_coherent_subset_of(&self, other: &Self) -> bool {
        self.pairs.iter().all(|p| {
            other
                .pairs
                .binary_search_by_key(&p.index, |q| q.index)
                .map(|pos| other.pairs[pos].multiplicity >= p.multiplicity)
                .unwrap_or(false)
        })
    }

    /// Expands into a list of point indices with repetition (`m_p`
    /// copies of each `p`), in sorted index order.
    pub fn expansion(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.expanded_size());
        for p in &self.pairs {
            out.extend(std::iter::repeat_n(p.index, p.multiplicity));
        }
        out
    }
}

/// `gen-div(T)`: the diversity of the expansion of `T`, with replicas of
/// the same point at distance 0 from each other. Only sensible for
/// small expansions (it materializes the `m(T)²` distance matrix).
pub fn gen_div<P, M: Metric<P>>(
    problem: Problem,
    points: &[P],
    metric: &M,
    coreset: &GeneralizedCoreset,
) -> f64 {
    let expansion = coreset.expansion();
    let dm = DistanceMatrix::from_fn(expansion.len(), |i, j| {
        if expansion[i] == expansion[j] {
            0.0
        } else {
            metric.distance(&points[expansion[i]], &points[expansion[j]])
        }
    });
    evaluate(problem, &dm)
}

/// Fact 2: the sequential approximation algorithms adapted to run on a
/// generalized core-set, producing a coherent subset `T̂ ⊑ T` with
/// `m(T̂) = k` and `gen-div(T̂) ≥ gen-div_k(T)/α`, in `O(s(T))` working
/// space (plus an optional `O(s(T)²)` distance cache).
///
/// * remote-edge/tree/cycle: farthest-point traversal over the distinct
///   kernel points; replicas (distance 0) are only drawn once the
///   distinct points are exhausted — exactly what GMM on the expansion
///   would do.
/// * remote-clique/star/bipartition: greedy farthest-pair matching with
///   per-point capacities; a pair of replicas of one point (distance 0)
///   is only picked when no two distinct points have remaining capacity.
///
/// # Panics
/// Panics if `k == 0` or `m(T) < k`.
pub fn solve_multiset<P, M: Metric<P>>(
    problem: Problem,
    points: &[P],
    metric: &M,
    coreset: &GeneralizedCoreset,
    k: usize,
) -> GeneralizedCoreset {
    assert!(k > 0, "k must be positive");
    assert!(
        coreset.expanded_size() >= k,
        "m(T) = {} < k = {k}",
        coreset.expanded_size()
    );
    let bases: Vec<usize> = coreset.pairs().iter().map(|p| p.index).collect();
    let caps: Vec<usize> = coreset.pairs().iter().map(|p| p.multiplicity).collect();
    let s = bases.len();

    // Distance cache over kernel points (s is a core-set size, small).
    let dm = DistanceMatrix::from_fn(s, |i, j| {
        metric.distance(&points[bases[i]], &points[bases[j]])
    });

    let chosen: Vec<usize> = match problem {
        Problem::RemoteEdge | Problem::RemoteTree | Problem::RemoteCycle => {
            multiset_gmm(&dm, &caps, k)
        }
        Problem::RemoteClique | Problem::RemoteStar | Problem::RemoteBipartition => {
            multiset_matching(&dm, &caps, k)
        }
    };

    GeneralizedCoreset::new(
        chosen
            .iter()
            .enumerate()
            .map(|(i, &m)| GenPair {
                index: bases[i],
                multiplicity: m,
            })
            .collect(),
    )
}

/// GMM over the expansion: farthest-point traversal over distinct bases
/// first, then replicas by remaining capacity. Returns per-base counts.
fn multiset_gmm(dm: &DistanceMatrix, caps: &[usize], k: usize) -> Vec<usize> {
    let s = dm.len();
    let mut counts = vec![0usize; s];
    let mut dist = vec![f64::INFINITY; s];
    let mut taken_bases = 0usize;
    let mut total = 0usize;

    // Start from base 0 (arbitrary start, as GMM allows).
    let mut next = 0usize;
    while total < k && taken_bases < s {
        counts[next] += 1;
        total += 1;
        taken_bases += 1;
        for j in 0..s {
            let d = dm.get(next, j);
            if d < dist[j] {
                dist[j] = d;
            }
        }
        // Farthest untaken base.
        let far = (0..s)
            .filter(|&j| counts[j] == 0)
            .max_by(|&a, &b| dist[a].total_cmp(&dist[b]));
        match far {
            Some(f) => next = f,
            None => break,
        }
    }
    // Replicas: fill remaining slots from bases with spare capacity, in
    // index order (all replicas are at distance 0 from their base, so
    // the order is immaterial to the objective).
    let mut j = 0;
    while total < k {
        if counts[j] > 0 && counts[j] < caps[j] {
            counts[j] += 1;
            total += 1;
        } else if counts[j] == 0 && caps[j] > 0 {
            // Only possible when k > number of bases was not reached
            // because capacities blocked; take fresh bases too.
            counts[j] += 1;
            total += 1;
        } else {
            j += 1;
            assert!(j < s, "capacities exhausted before reaching k");
        }
    }
    counts
}

/// Greedy farthest-pair matching with capacities over the expansion.
/// A base is available while it has remaining capacity, so a pair whose
/// two ends both keep capacity stays first on its row's list and is
/// taken again without a sweep.
fn multiset_matching(dm: &DistanceMatrix, caps: &[usize], k: usize) -> Vec<usize> {
    let s = dm.len();
    let mut counts = vec![0usize; s];
    let mut remaining: Vec<usize> = caps.to_vec();
    let mut total = 0usize;
    let mut pairs = FarthestPairs::new(s, |u, out: &mut [f64]| {
        for (o, v) in out.iter_mut().zip(u + 1..) {
            *o = dm.get(u, v);
        }
    });

    while total + 2 <= k {
        // Farthest pair of distinct bases with remaining capacity.
        let Some((bu, bv)) = pairs.farthest(|u| remaining[u] > 0) else {
            // No two distinct bases left: pair replicas of one base.
            let u = (0..s)
                .find(|&u| remaining[u] >= 2)
                .expect("capacities exhausted before reaching k");
            remaining[u] -= 2;
            counts[u] += 2;
            total += 2;
            continue;
        };
        remaining[bu] -= 1;
        remaining[bv] -= 1;
        counts[bu] += 1;
        counts[bv] += 1;
        total += 2;
    }
    if total < k {
        // Odd k: the base with remaining capacity farthest (max-min)
        // from the selection.
        let best = (0..s)
            .filter(|&u| remaining[u] > 0)
            .max_by(|&a, &b| {
                let da = min_dist_to_selection(dm, &counts, a);
                let db = min_dist_to_selection(dm, &counts, b);
                da.total_cmp(&db)
            })
            .expect("capacities exhausted before reaching k");
        counts[best] += 1;
    }
    counts
}

fn min_dist_to_selection(dm: &DistanceMatrix, counts: &[usize], u: usize) -> f64 {
    let mut best = f64::INFINITY;
    for (v, &c) in counts.iter().enumerate() {
        if c > 0 {
            let d = if v == u { 0.0 } else { dm.get(u, v) };
            if d < best {
                best = d;
            }
        }
    }
    best
}

/// Result of a δ-instantiation (Lemma 7).
#[derive(Clone, Debug)]
pub struct Instantiation {
    /// The `m(T̂)` selected delegate indices (distinct points of the
    /// candidate pool).
    pub indices: Vec<usize>,
    /// The largest kernel-to-delegate distance actually used. At most
    /// the requested `δ` unless the repair pass had to widen (which the
    /// caller should treat as a quality warning, not an error).
    pub achieved_delta: f64,
}

/// Materializes a δ-instantiation `I(T̂)` of `solution` from the pool
/// `candidates` (indices into `points`): for each pair `(p, m_p)`,
/// `m_p` distinct delegates within `δ` of `p`, pools disjoint across
/// pairs. Delegates are chosen nearest-first (the kernel point itself,
/// at distance 0, is always its own first delegate and is added to the
/// pool if missing). If some pair cannot fill its quota within `δ` —
/// possible only when the pool is not the set the core-set was built
/// from — a repair pass takes the nearest unused candidates regardless
/// of `δ` and reports the widened radius in `achieved_delta`.
///
/// # Panics
/// Panics if the pool (plus kernel points) has fewer than `m(T̂)`
/// distinct points.
pub fn instantiate<P, M: Metric<P>>(
    points: &[P],
    metric: &M,
    solution: &GeneralizedCoreset,
    candidates: &[usize],
    delta: f64,
) -> Instantiation {
    // Deduplicated pool including every kernel point.
    let mut pool: Vec<usize> = candidates.to_vec();
    pool.extend(solution.pairs().iter().map(|p| p.index));
    pool.sort_unstable();
    pool.dedup();
    assert!(
        pool.len() >= solution.expanded_size(),
        "candidate pool smaller than m(T̂)"
    );

    let mut used = vec![false; pool.len()];
    let mut indices = Vec::with_capacity(solution.expanded_size());
    let mut achieved: f64 = 0.0;
    let mut shortfall: Vec<(usize, usize)> = Vec::new(); // (pair pos, missing)

    for pair in solution.pairs() {
        // Distances from this kernel point to the whole pool,
        // nearest-first. The kernel point itself is at distance 0.
        let mut order: Vec<(f64, usize)> = pool
            .iter()
            .enumerate()
            .filter(|&(pos, _)| !used[pos])
            .map(|(pos, &idx)| {
                let d = if idx == pair.index {
                    0.0
                } else {
                    metric.distance(&points[idx], &points[pair.index])
                };
                (d, pos)
            })
            .collect();
        order.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut taken = 0usize;
        for &(d, pos) in &order {
            if taken == pair.multiplicity || d > delta {
                break;
            }
            used[pos] = true;
            indices.push(pool[pos]);
            achieved = achieved.max(d);
            taken += 1;
        }
        if taken < pair.multiplicity {
            shortfall.push((pair.index, pair.multiplicity - taken));
        }
    }

    // Repair: fill any shortfall with the nearest unused candidates,
    // widening delta honestly.
    for (kernel_idx, missing) in shortfall {
        let mut order: Vec<(f64, usize)> = pool
            .iter()
            .enumerate()
            .filter(|&(pos, _)| !used[pos])
            .map(|(pos, &idx)| (metric.distance(&points[idx], &points[kernel_idx]), pos))
            .collect();
        order.sort_by(|a, b| a.0.total_cmp(&b.0));
        for &(d, pos) in order.iter().take(missing) {
            used[pos] = true;
            indices.push(pool[pos]);
            achieved = achieved.max(d);
        }
    }
    assert_eq!(
        indices.len(),
        solution.expanded_size(),
        "instantiation failed to reach m(T̂) despite sufficient pool"
    );
    Instantiation {
        indices,
        achieved_delta: achieved,
    }
}

/// Convenience: solve on a generalized core-set and immediately
/// instantiate from a pool, returning an ordinary [`Solution`]
/// evaluated with the real (instantiated) points.
pub fn solve_and_instantiate<P, M: Metric<P>>(
    problem: Problem,
    points: &[P],
    metric: &M,
    coreset: &GeneralizedCoreset,
    k: usize,
    candidates: &[usize],
    delta: f64,
) -> Solution {
    let coherent = solve_multiset(problem, points, metric, coreset, k);
    let inst = instantiate(points, metric, &coherent, candidates, delta);
    let value = crate::eval::evaluate_subset(problem, points, metric, &inst.indices);
    Solution {
        indices: inst.indices,
        value,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metric::{Euclidean, VecPoint};
    use proptest::prelude::*;

    fn line(xs: &[f64]) -> Vec<VecPoint> {
        xs.iter().map(|&x| VecPoint::from([x])).collect()
    }

    /// The textbook loop [`multiset_matching`] must reproduce exactly:
    /// rescan every pair of bases with remaining capacity for each pair
    /// taken.
    fn multiset_matching_by_full_rescan(
        dm: &DistanceMatrix,
        caps: &[usize],
        k: usize,
    ) -> Vec<usize> {
        let s = dm.len();
        let mut counts = vec![0usize; s];
        let mut remaining: Vec<usize> = caps.to_vec();
        let mut total = 0usize;
        while total + 2 <= k {
            let (mut bu, mut bv, mut bd) = (usize::MAX, usize::MAX, f64::NEG_INFINITY);
            for u in 0..s {
                if remaining[u] == 0 {
                    continue;
                }
                for v in u + 1..s {
                    if remaining[v] == 0 {
                        continue;
                    }
                    let d = dm.get(u, v);
                    if d > bd {
                        bd = d;
                        bu = u;
                        bv = v;
                    }
                }
            }
            if bu == usize::MAX {
                let u = (0..s)
                    .find(|&u| remaining[u] >= 2)
                    .expect("capacities exhausted before reaching k");
                remaining[u] -= 2;
                counts[u] += 2;
                total += 2;
                continue;
            }
            remaining[bu] -= 1;
            remaining[bv] -= 1;
            counts[bu] += 1;
            counts[bv] += 1;
            total += 2;
        }
        if total < k {
            let best = (0..s)
                .filter(|&u| remaining[u] > 0)
                .max_by(|&a, &b| {
                    let da = min_dist_to_selection(dm, &counts, a);
                    let db = min_dist_to_selection(dm, &counts, b);
                    da.total_cmp(&db)
                })
                .expect("capacities exhausted before reaching k");
            counts[best] += 1;
        }
        counts
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Bases on a small integer grid tie everywhere; running every k
        /// up to m(T) drains capacities into the replica-pair fallback
        /// and the odd-k tail.
        #[test]
        fn multiset_matching_matches_full_rescan_on_tie_heavy_grids(
            bases in prop::collection::vec((0u32..6, 0u32..6, 1usize..5), 1..25),
            side in 1u32..7,
        ) {
            let points: Vec<VecPoint> = bases
                .iter()
                .map(|&(x, y, _)| VecPoint::from([f64::from(x % side), f64::from(y % side)]))
                .collect();
            let caps: Vec<usize> = bases.iter().map(|b| b.2).collect();
            let dm = DistanceMatrix::build(&points, &Euclidean);
            for k in 1..=caps.iter().sum::<usize>() {
                prop_assert_eq!(
                    multiset_matching(&dm, &caps, k),
                    multiset_matching_by_full_rescan(&dm, &caps, k),
                    "s = {}, k = {k}",
                    caps.len()
                );
            }
        }
    }

    fn gcs(pairs: &[(usize, usize)]) -> GeneralizedCoreset {
        GeneralizedCoreset::new(
            pairs
                .iter()
                .map(|&(index, multiplicity)| GenPair {
                    index,
                    multiplicity,
                })
                .collect(),
        )
    }

    #[test]
    fn sizes() {
        let t = gcs(&[(0, 3), (5, 1), (9, 2)]);
        assert_eq!(t.size(), 3);
        assert_eq!(t.expanded_size(), 6);
        assert_eq!(t.expansion(), vec![0, 0, 0, 5, 9, 9]);
    }

    #[test]
    fn zero_multiplicity_pairs_dropped() {
        let t = gcs(&[(0, 0), (1, 2)]);
        assert_eq!(t.size(), 1);
    }

    #[test]
    #[should_panic]
    fn duplicate_indices_rejected() {
        let _ = gcs(&[(3, 1), (3, 2)]);
    }

    #[test]
    fn coherence_is_reflexive_and_respects_multiplicity() {
        let big = gcs(&[(0, 3), (5, 2)]);
        let small = gcs(&[(0, 2)]);
        let too_big = gcs(&[(0, 4)]);
        let foreign = gcs(&[(7, 1)]);
        assert!(big.is_coherent_subset_of(&big));
        assert!(small.is_coherent_subset_of(&big));
        assert!(!too_big.is_coherent_subset_of(&big));
        assert!(!foreign.is_coherent_subset_of(&big));
    }

    #[test]
    fn union_of_disjoint_universes() {
        let a = gcs(&[(0, 1), (2, 2)]);
        let b = gcs(&[(5, 3)]);
        let u = a.union(b);
        assert_eq!(u.size(), 3);
        assert_eq!(u.expanded_size(), 6);
    }

    #[test]
    fn gen_div_treats_replicas_as_distance_zero() {
        let pts = line(&[0.0, 10.0]);
        let t = gcs(&[(0, 2), (1, 1)]);
        // Expansion {0,0,1}: remote-clique = 0 + 10 + 10 = 20.
        let v = gen_div(Problem::RemoteClique, &pts, &Euclidean, &t);
        assert_eq!(v, 20.0);
        // remote-edge = 0 (two replicas).
        let e = gen_div(Problem::RemoteEdge, &pts, &Euclidean, &t);
        assert_eq!(e, 0.0);
    }

    #[test]
    fn solve_multiset_clique_prefers_distinct_far_points() {
        let pts = line(&[0.0, 1.0, 9.0, 10.0]);
        let t = gcs(&[(0, 4), (3, 4)]);
        let sol = solve_multiset(Problem::RemoteClique, &pts, &Euclidean, &t, 4);
        assert!(sol.is_coherent_subset_of(&t));
        assert_eq!(sol.expanded_size(), 4);
        // Greedy picks (0,3) twice: multiplicity 2 each.
        assert_eq!(sol.pairs().len(), 2);
        assert!(sol.pairs().iter().all(|p| p.multiplicity == 2));
    }

    #[test]
    fn solve_multiset_gmm_spreads_over_bases_first() {
        let pts = line(&[0.0, 5.0, 10.0]);
        let t = gcs(&[(0, 2), (1, 2), (2, 2)]);
        let sol = solve_multiset(Problem::RemoteEdge, &pts, &Euclidean, &t, 3);
        assert_eq!(sol.size(), 3, "should take each base once");
        assert!(sol.pairs().iter().all(|p| p.multiplicity == 1));
    }

    #[test]
    fn solve_multiset_overflows_into_replicas() {
        let pts = line(&[0.0, 10.0]);
        let t = gcs(&[(0, 3), (1, 3)]);
        let sol = solve_multiset(Problem::RemoteTree, &pts, &Euclidean, &t, 5);
        assert_eq!(sol.expanded_size(), 5);
        assert!(sol.is_coherent_subset_of(&t));
    }

    #[test]
    fn solve_multiset_odd_k_matching() {
        let pts = line(&[0.0, 4.0, 10.0]);
        let t = gcs(&[(0, 2), (1, 2), (2, 2)]);
        let sol = solve_multiset(Problem::RemoteClique, &pts, &Euclidean, &t, 3);
        assert_eq!(sol.expanded_size(), 3);
    }

    /// The capacity-aware matching on one fixture, pinned: 80 bases
    /// (every fifth point of a sphere shell) with multiplicities 1 to 4,
    /// and `k` large enough that pairs are taken again, most bases run
    /// out of capacity and rows exhaust their partner lists.
    #[test]
    fn solve_multiset_matching_is_pinned_on_a_sphere_shell() {
        let (points, _) = diversity_datasets::sphere_shell(400, 8, 3, 23);
        let t = GeneralizedCoreset::new(
            (0..points.len())
                .step_by(5)
                .map(|index| GenPair {
                    index,
                    multiplicity: 1 + index % 4,
                })
                .collect(),
        );
        let sol = solve_multiset(Problem::RemoteClique, &points, &Euclidean, &t, 151);
        let mut taken = vec![0; t.size()];
        for p in sol.pairs() {
            taken[p.index / 5] = p.multiplicity;
        }
        let pinned = [
            1, 2, 1, 4, 1, 2, 3, 0, 1, 0, 3, 4, 1, 2, 3, 4, 1, 1, 3, 4, 1, 0, 1, 4, 1, 2, 3, 4, 1,
            2, 3, 4, 1, 2, 0, 4, 1, 0, 3, 2, 0, 0, 3, 0, 1, 2, 3, 0, 1, 0, 3, 0, 1, 2, 3, 4, 1, 2,
            3, 4, 1, 0, 3, 4, 1, 2, 0, 0, 1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 0, 4,
        ];
        assert_eq!(taken, pinned);
    }

    #[test]
    #[should_panic]
    fn solve_multiset_requires_enough_mass() {
        let pts = line(&[0.0]);
        let t = gcs(&[(0, 2)]);
        let _ = solve_multiset(Problem::RemoteEdge, &pts, &Euclidean, &t, 3);
    }

    #[test]
    fn instantiate_uses_nearby_distinct_delegates() {
        // Kernel 0 at x=0 with m=3; cluster points at 0.1, 0.2 within
        // delta; kernel 5 at x=10 with m=1.
        let pts = line(&[0.0, 0.1, 0.2, 5.0, 9.9, 10.0]);
        let sol = gcs(&[(0, 3), (5, 1)]);
        let inst = instantiate(&pts, &Euclidean, &sol, &[0, 1, 2, 3, 4, 5], 0.5);
        assert_eq!(inst.indices.len(), 4);
        let mut sorted = inst.indices.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4, "delegates must be distinct");
        assert!(inst.achieved_delta <= 0.5);
        assert!(sorted.contains(&0) && sorted.contains(&5));
    }

    #[test]
    fn instantiate_repair_widens_delta_honestly() {
        // Only far-away candidates available for the second delegate.
        let pts = line(&[0.0, 3.0, 10.0]);
        let sol = gcs(&[(0, 2)]);
        let inst = instantiate(&pts, &Euclidean, &sol, &[0, 1, 2], 0.5);
        assert_eq!(inst.indices.len(), 2);
        assert!(inst.achieved_delta >= 3.0 - 1e-12);
    }

    #[test]
    fn lemma7_bound_holds_on_instantiations() {
        // div(I(T)) >= gen-div(T) − f(k)·2δ for remote-clique,
        // f(k) = C(k,2).
        let pts = line(&[0.0, 0.3, 0.6, 10.0, 10.3, 20.0]);
        let t = gcs(&[(0, 3), (3, 2), (5, 1)]);
        let delta = 0.6;
        let k = t.expanded_size();
        let inst = instantiate(&pts, &Euclidean, &t, &[0, 1, 2, 3, 4, 5], delta);
        let div_inst =
            crate::eval::evaluate_subset(Problem::RemoteClique, &pts, &Euclidean, &inst.indices);
        let gdiv = gen_div(Problem::RemoteClique, &pts, &Euclidean, &t);
        let f_k = (k * (k - 1) / 2) as f64;
        assert!(
            div_inst >= gdiv - f_k * 2.0 * delta - 1e-9,
            "Lemma 7 violated: {div_inst} < {gdiv} - {}",
            f_k * 2.0 * delta
        );
    }
}
