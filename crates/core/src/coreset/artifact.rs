//! The composable core-set **artifact**: one typed, weighted,
//! serde-able [`Coreset`] that every execution substrate produces and
//! consumes.
//!
//! The paper's central trick (Definition 2, Theorems 4–5) is that the
//! GMM-style kernels are *composable*: if `T_i` is a core-set of
//! partition `S_i` with covering radius `r_i`, then `∪_i T_i` is a
//! core-set of `∪_i S_i` with covering radius `max_i r_i` — and
//! re-extracting a core-set *from* a core-set composes radii
//! **additively** (a point is within `r_1` of the first kernel, whose
//! points are within `r_2` of the second — the triangle-inequality
//! telescope of Lemmas 3–4). Those two laws are exactly
//! [`Coreset::merge`] and [`Coreset::deepen`]; everything the substrates
//! hand each other — per-partition kernels, streaming outputs, serving
//! shards' extractions, recursive working sets — is this one artifact,
//! so the laws are stated (and property-tested) once instead of
//! re-derived as ad-hoc `Vec` plumbing in every round driver.
//!
//! A [`Coreset`] carries:
//!
//! * the core-set **points** themselves (owned — a core-set's whole
//!   purpose is to travel to another machine);
//! * per-point **provenance** (`sources`): the point's index in the
//!   producing substrate's index space (slice position, MapReduce
//!   global index, stream arrival position, encoded serving-pool
//!   handle), so a solution found on the core-set can always be traced
//!   back;
//! * per-point **weights** (multiplicities): 1 for plain/delegate
//!   core-sets, the delegate *counts* for generalized core-sets
//!   (Section 6.2), so the 3-round algorithm's shuffle speaks the same
//!   type;
//! * the kernel budget **`k'`** it was built with;
//! * a **radius certificate**: every point of the producing set is
//!   within `radius` of some core-set point. This is the `δ` of the
//!   proxy-function lemmas (Lemmas 1–2), so it bounds the value loss
//!   of solving on the core-set instead of the full set.

use metric::Metric;
use serde::{Deserialize, Serialize};

/// A composable core-set: points + provenance + weights + the `(k',
/// radius)` certificate. The laws: [`merge`](Coreset::merge) unions
/// with radius = max (Definition 2), [`deepen`](Coreset::deepen)
/// composes re-extraction radii additively (Lemmas 3–4).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Coreset<P> {
    points: Vec<P>,
    sources: Vec<u64>,
    weights: Vec<usize>,
    k_prime: usize,
    radius: f64,
}

impl<P> Coreset<P> {
    /// A weighted core-set. `sources[i]` is `points[i]`'s index in the
    /// producing substrate's index space; `weights[i]` the multiplicity
    /// it stands for (≥ 1).
    ///
    /// # Panics
    /// Panics if the three vectors' lengths differ, any weight is 0, or
    /// `radius` is negative/non-finite.
    pub fn new(
        points: Vec<P>,
        sources: Vec<u64>,
        weights: Vec<usize>,
        k_prime: usize,
        radius: f64,
    ) -> Self {
        assert_eq!(points.len(), sources.len(), "provenance length mismatch");
        assert_eq!(points.len(), weights.len(), "weight length mismatch");
        assert!(weights.iter().all(|&w| w >= 1), "weights must be >= 1");
        assert!(
            radius.is_finite() && radius >= 0.0,
            "radius certificate must be finite and non-negative (got {radius})"
        );
        Self {
            points,
            sources,
            weights,
            k_prime,
            radius,
        }
    }

    /// An unweighted core-set (every weight 1) — the shape the plain
    /// and delegate-augmented constructions produce.
    ///
    /// # Panics
    /// Same contract as [`Coreset::new`].
    pub fn unweighted(points: Vec<P>, sources: Vec<u64>, k_prime: usize, radius: f64) -> Self {
        let weights = vec![1; points.len()];
        Self::new(points, sources, weights, k_prime, radius)
    }

    /// The core-set of an **empty** producing set: no points, radius 0.
    /// This is what a shard that deletions have drained contributes to
    /// a composition — and it is the identity of
    /// [`merge`](Self::merge): the empty set is (vacuously) covered
    /// within any radius, so merging an empty operand changes neither
    /// the union's points nor its `max`-radius certificate (only the
    /// bookkeeping `max` of the budgets).
    pub fn empty(k_prime: usize) -> Self {
        Self::new(Vec::new(), Vec::new(), Vec::new(), k_prime, 0.0)
    }

    /// Number of resident core-set points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when the core-set holds no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The core-set points.
    pub fn points(&self) -> &[P] {
        &self.points
    }

    /// Per-point provenance: index in the producing substrate's index
    /// space, aligned with [`points`](Self::points).
    pub fn sources(&self) -> &[u64] {
        &self.sources
    }

    /// Per-point multiplicities, aligned with [`points`](Self::points).
    pub fn weights(&self) -> &[usize] {
        &self.weights
    }

    /// The kernel budget `k'` this core-set was built with (after a
    /// [`merge`](Self::merge): the largest constituent budget).
    pub fn k_prime(&self) -> usize {
        self.k_prime
    }

    /// The covering-radius certificate: every point of the producing
    /// set is within this distance of some core-set point.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Total mass `m(T) = Σ weights` — equals [`len`](Self::len) for
    /// unweighted core-sets, the expanded size for generalized ones.
    pub fn total_weight(&self) -> usize {
        self.weights.iter().sum()
    }

    /// `true` when every weight is 1.
    pub fn is_unweighted(&self) -> bool {
        self.weights.iter().all(|&w| w == 1)
    }

    /// Decomposes the artifact into `(points, sources, weights,
    /// k_prime, radius)`.
    pub fn into_parts(self) -> (Vec<P>, Vec<u64>, Vec<usize>, usize, f64) {
        (
            self.points,
            self.sources,
            self.weights,
            self.k_prime,
            self.radius,
        )
    }

    /// Rewrites the provenance through `f` (e.g. partition-local index
    /// → global index).
    pub fn map_sources(mut self, f: impl Fn(u64) -> u64) -> Self {
        for s in &mut self.sources {
            *s = f(*s);
        }
        self
    }

    /// **The composition law** (Definition 2; the glue of Theorems
    /// 4–6): the union of core-sets of the parts is a core-set of the
    /// union of the parts, with covering radius `max` of the parts'
    /// radii — every point of `S_1 ∪ S_2` is within `max(r_1, r_2)` of
    /// `T_1 ∪ T_2` because it is within its own part's radius of its
    /// own part's core-set. Weights and provenance concatenate; `k'`
    /// takes the larger constituent budget. Associative, and
    /// commutative up to point order (the multiset of `(point, source,
    /// weight)` triples and the certificate are order-independent —
    /// property-tested in `tests/coreset_laws.rs`).
    pub fn merge(mut self, other: Self) -> Self {
        self.points.extend(other.points);
        self.sources.extend(other.sources);
        self.weights.extend(other.weights);
        self.k_prime = self.k_prime.max(other.k_prime);
        self.radius = self.radius.max(other.radius);
        self
    }

    /// Folds an iterator of core-sets with [`merge`](Self::merge);
    /// `None` on an empty iterator.
    pub fn merge_all(parts: impl IntoIterator<Item = Self>) -> Option<Self> {
        parts.into_iter().reduce(Self::merge)
    }

    /// **The recursion law** (the triangle-inequality telescope of
    /// Lemmas 3–4): this artifact was extracted *from* a set that is
    /// itself a core-set with radius `parent_radius`, so over the
    /// original data its certificate is the **sum** `parent_radius +
    /// self.radius` — any original point is within `parent_radius` of
    /// the parent core-set, whose points are within `self.radius` of
    /// this one. Used by the recursive MapReduce driver (each level
    /// adds its extraction radius) and by any re-extraction from a
    /// merged union.
    pub fn deepen(mut self, parent_radius: f64) -> Self {
        assert!(
            parent_radius.is_finite() && parent_radius >= 0.0,
            "parent radius must be finite and non-negative"
        );
        self.radius += parent_radius;
        self
    }

    /// Splits the artifact into `ell` round-robin chunks, each keeping
    /// the parent's `k'` and radius certificate (a chunk is not a
    /// core-set of anything by itself — it is working-set plumbing for
    /// drivers that re-partition, carrying the certificate forward so a
    /// later [`merge`](Self::merge) + [`deepen`](Self::deepen)
    /// reconstructs the composed bound).
    ///
    /// # Panics
    /// Panics if `ell == 0`.
    pub fn split_round_robin(self, ell: usize) -> Vec<Self> {
        assert!(ell > 0, "need at least one chunk");
        let (k_prime, radius) = (self.k_prime, self.radius);
        let mut chunks: Vec<Self> = (0..ell)
            .map(|_| Self {
                points: Vec::new(),
                sources: Vec::new(),
                weights: Vec::new(),
                k_prime,
                radius,
            })
            .collect();
        for (i, ((point, source), weight)) in self
            .points
            .into_iter()
            .zip(self.sources)
            .zip(self.weights)
            .enumerate()
        {
            let chunk = &mut chunks[i % ell];
            chunk.points.push(point);
            chunk.sources.push(source);
            chunk.weights.push(weight);
        }
        chunks
    }

    /// Checks the radius certificate against the producing set:
    /// `true` iff every point of `universe` is within
    /// [`radius`](Self::radius) (plus `slack` for float accumulation)
    /// of some core-set point. `O(|universe| · |T|)` — validation and
    /// test support, not a hot path.
    pub fn certifies<M: Metric<P>>(&self, universe: &[P], metric: &M, slack: f64) -> bool {
        universe
            .iter()
            .all(|p| metric.distance_to_set_within(p, &self.points, self.radius + slack))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metric::{Euclidean, VecPoint};

    fn cs(xs: &[f64], k_prime: usize, radius: f64) -> Coreset<VecPoint> {
        let points: Vec<VecPoint> = xs.iter().map(|&x| VecPoint::from([x])).collect();
        let sources: Vec<u64> = (0..xs.len() as u64).collect();
        Coreset::unweighted(points, sources, k_prime, radius)
    }

    #[test]
    fn merge_takes_max_radius_and_budget() {
        let a = cs(&[0.0, 1.0], 4, 0.5);
        let b = cs(&[5.0], 8, 2.0);
        let m = a.merge(b);
        assert_eq!(m.len(), 3);
        assert_eq!(m.k_prime(), 8);
        assert_eq!(m.radius(), 2.0);
        assert_eq!(m.total_weight(), 3);
    }

    #[test]
    fn deepen_adds_radii() {
        let a = cs(&[0.0], 4, 1.5);
        assert_eq!(a.deepen(2.5).radius(), 4.0);
    }

    #[test]
    fn split_preserves_everything() {
        let a = Coreset::new(
            (0..7).map(|i| VecPoint::from([i as f64])).collect(),
            (0..7).collect(),
            vec![1, 2, 1, 3, 1, 1, 2],
            16,
            1.25,
        );
        let total = a.total_weight();
        let chunks = a.split_round_robin(3);
        assert_eq!(chunks.len(), 3);
        assert!(chunks.iter().all(|c| c.k_prime() == 16));
        assert!(chunks.iter().all(|c| c.radius() == 1.25));
        assert_eq!(chunks.iter().map(Coreset::len).sum::<usize>(), 7);
        assert_eq!(
            chunks.iter().map(Coreset::total_weight).sum::<usize>(),
            total
        );
        let merged = Coreset::merge_all(chunks).unwrap();
        let mut triples: Vec<(u64, usize)> = merged
            .sources()
            .iter()
            .copied()
            .zip(merged.weights().iter().copied())
            .collect();
        triples.sort_unstable();
        assert_eq!(
            triples,
            vec![(0, 1), (1, 2), (2, 1), (3, 3), (4, 1), (5, 1), (6, 2)]
        );
    }

    #[test]
    fn empty_is_the_merge_identity() {
        // The law a drained shard stands on: contributing an empty
        // core-set (radius 0) leaves the composition's points and
        // certificate untouched, on both sides of the merge.
        let a = cs(&[0.0, 3.0, 7.0], 4, 1.5);
        let left = Coreset::<VecPoint>::empty(2).merge(a.clone());
        let right = a.clone().merge(Coreset::empty(2));
        assert_eq!(left, a);
        assert_eq!(right, a);
        assert_eq!(left.radius(), 1.5);
        assert_eq!(left.k_prime(), 4, "budget max keeps the real budget");

        // An empty operand with the *larger* budget still only bumps
        // the bookkeeping, never the contents.
        let bumped = a.clone().merge(Coreset::empty(16));
        assert_eq!(bumped.points(), a.points());
        assert_eq!(bumped.radius(), a.radius());
        assert_eq!(bumped.k_prime(), 16);

        // Degenerate compositions stay lawful: all-empty merges are
        // empty with radius 0 (and certify nothing but the empty set).
        let none = Coreset::<VecPoint>::merge_all([Coreset::empty(4), Coreset::empty(8)]).unwrap();
        assert!(none.is_empty());
        assert_eq!(none.radius(), 0.0);
        assert!(none.certifies(&[], &Euclidean, 0.0));
        assert!(!none.certifies(&[VecPoint::from([1.0])], &Euclidean, 1e9));
    }

    #[test]
    fn map_sources_rewrites_provenance() {
        let a = cs(&[0.0, 1.0], 4, 0.0).map_sources(|s| s + 100);
        assert_eq!(a.sources(), &[100, 101]);
    }

    #[test]
    fn certifies_checks_the_radius() {
        let universe: Vec<VecPoint> = (0..10).map(|i| VecPoint::from([i as f64])).collect();
        let t = Coreset::unweighted(
            vec![VecPoint::from([0.0]), VecPoint::from([9.0])],
            vec![0, 9],
            2,
            4.0,
        );
        assert!(t.certifies(&universe, &Euclidean, 1e-9));
        let too_tight = Coreset::unweighted(
            vec![VecPoint::from([0.0]), VecPoint::from([9.0])],
            vec![0, 9],
            2,
            3.0,
        );
        assert!(!too_tight.certifies(&universe, &Euclidean, 1e-9));
    }

    #[test]
    #[should_panic]
    fn zero_weight_rejected() {
        let _ = Coreset::new(vec![VecPoint::from([0.0])], vec![0], vec![0], 1, 0.0);
    }

    #[test]
    fn serde_roundtrip() {
        let a = Coreset::new(
            vec![VecPoint::from([1.0, 2.0]), VecPoint::from([3.0, 4.0])],
            vec![7, 11],
            vec![1, 3],
            8,
            0.75,
        );
        let json = serde_json::to_string(&a).expect("serialize");
        let back: Coreset<VecPoint> = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(a, back);
    }
}
