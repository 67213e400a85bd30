//! The public engine: `DynamicDiversity<P, M>`.

use crate::config::DynamicConfig;
use crate::cover::CoverHierarchy;
use crate::solve::{
    extract_artifact, extract_coreset, solve_on_coreset, CoresetInfo, DynamicSolution,
};
use crate::stats::UpdateStats;
use diversity_core::coreset::{Coreset, CoresetSource};
use diversity_core::Problem;
use metric::Metric;

/// Stable handle of an inserted point. Ids are unique over the lifetime
/// of an engine (never reused after deletion).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PointId(pub(crate) u64);

impl PointId {
    /// The numeric id. Ids count up from 0 in insertion order, so on an
    /// engine that has only seen inserts this doubles as the insertion
    /// index (the `diversity::Task` front door reports it as such).
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Reassembles a handle from its [`raw`](Self::raw) value — the
    /// inverse a serving layer needs after shipping ids over the wire
    /// (e.g. `serve::ShardedId` encodes `(shard, raw)` into one `u64`).
    /// A raw value that was never issued (or was already deleted) is
    /// harmless: every engine entry point treats unknown ids as "not
    /// alive".
    pub fn from_raw(raw: u64) -> Self {
        Self(raw)
    }
}

impl std::fmt::Display for PointId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A fully dynamic diversity-maximization engine: maintains an
/// ε-coreset for all six [`Problem`]s under arbitrary interleavings of
/// [`insert`](Self::insert) and [`delete`](Self::delete), answering
/// [`solve`](Self::solve) from the maintained structure without
/// touching the full dataset.
pub struct DynamicDiversity<P, M> {
    cover: CoverHierarchy<P>,
    metric: M,
    config: DynamicConfig,
    stats: UpdateStats,
    next_id: u64,
}

impl<P: Clone + Sync, M: Metric<P>> DynamicDiversity<P, M> {
    /// Creates an engine with the default configuration.
    pub fn new(metric: M) -> Self {
        Self::with_config(metric, DynamicConfig::default())
    }

    /// Creates an engine with an explicit configuration.
    pub fn with_config(metric: M, config: DynamicConfig) -> Self {
        Self {
            cover: CoverHierarchy::new(config.max_depth),
            metric,
            config,
            stats: UpdateStats::default(),
            next_id: 0,
        }
    }

    /// Number of alive points.
    pub fn len(&self) -> usize {
        self.cover.len()
    }

    /// `true` when no points are alive.
    pub fn is_empty(&self) -> bool {
        self.cover.is_empty()
    }

    /// Whether `id` is alive.
    pub fn contains(&self, id: PointId) -> bool {
        self.cover.contains(id.0)
    }

    /// The point behind an alive id.
    pub fn point(&self, id: PointId) -> Option<&P> {
        self.cover.point(id.0)
    }

    /// Snapshot of all alive `(id, point)` pairs (arbitrary order).
    pub fn alive(&self) -> Vec<(PointId, P)> {
        self.cover
            .iter()
            .map(|(id, p)| (PointId(id), p.clone()))
            .collect()
    }

    /// The engine's configuration.
    pub fn config(&self) -> &DynamicConfig {
        &self.config
    }

    /// Cumulative update-work counters.
    pub fn stats(&self) -> &UpdateStats {
        &self.stats
    }

    /// Resets the work counters (e.g. between bench phases).
    pub fn reset_stats(&mut self) {
        self.stats = UpdateStats::default();
    }

    /// Inserts a point, returning its handle. Cost is bounded by the
    /// cover structure (`O(c^O(1) · depth)` distance evaluations), not
    /// by the number of alive points.
    pub fn insert(&mut self, point: P) -> PointId {
        let id = self.next_id;
        self.next_id += 1;
        if diversity_obs::enabled() {
            let before = self.stats;
            let start = std::time::Instant::now();
            self.cover.insert(id, point, &self.metric, &mut self.stats);
            diversity_obs::observe("dynamic.insert_ns", start.elapsed().as_nanos() as u64);
            record_update_delta(&before, &self.stats);
        } else {
            self.cover.insert(id, point, &self.metric, &mut self.stats);
        }
        PointId(id)
    }

    /// Deletes an alive point; orphaned structure is repaired locally.
    /// Returns `false` when the id was already gone.
    pub fn delete(&mut self, id: PointId) -> bool {
        if diversity_obs::enabled() {
            let before = self.stats;
            let start = std::time::Instant::now();
            let deleted = self.cover.delete(id.0, &self.metric, &mut self.stats);
            diversity_obs::observe("dynamic.delete_ns", start.elapsed().as_nanos() as u64);
            record_update_delta(&before, &self.stats);
            deleted
        } else {
            self.cover.delete(id.0, &self.metric, &mut self.stats)
        }
    }

    /// Extracts the current coreset for `problem` using the
    /// configuration-derived kernel budget and runs the sequential
    /// `α`-approximation on it.
    ///
    /// # Panics
    /// Panics if the engine is empty or `k == 0`.
    pub fn solve(&self, problem: Problem, k: usize) -> DynamicSolution {
        self.solve_with_budget(problem, k, self.config.kernel_budget(problem, k))
    }

    /// [`solve`](Self::solve) with an explicit kernel budget `k'`
    /// (mirroring `pipeline::coreset_then_solve`'s `k_prime`).
    ///
    /// # Panics
    /// Panics if the engine is empty, `k == 0`, or `budget < k`.
    pub fn solve_with_budget(&self, problem: Problem, k: usize, budget: usize) -> DynamicSolution {
        assert!(k > 0, "k must be positive");
        assert!(
            budget >= k,
            "budget must be at least k (budget={budget}, k={k})"
        );
        assert!(!self.is_empty(), "cannot solve on an empty engine");
        let (artifact, info) = extract_artifact(&self.cover, problem, k, budget);
        solve_on_coreset(&self.metric, problem, k, &artifact, info)
    }

    /// Extracts the engine's current core-set as the typed composable
    /// [`Coreset`] artifact: owned points, the engine's [`PointId`] raw
    /// values as provenance, and the extraction level's covering radius
    /// as the certificate — every alive point is within that radius of
    /// some artifact point. This is the dynamic substrate's hand-off to
    /// the composition layer: per-shard engines extract, the artifacts
    /// [`merge`](Coreset::merge) (radius = max of shards), and the
    /// 2-round MapReduce combiner finishes the job
    /// (`diversity::Task::run_sharded`).
    ///
    /// # Panics
    /// Panics if the engine is empty, `k == 0`, or `budget < k`.
    pub fn extract_coreset(&self, problem: Problem, k: usize, budget: usize) -> Coreset<P> {
        assert!(k > 0, "k must be positive");
        assert!(budget >= k, "budget must be at least k");
        assert!(!self.is_empty(), "cannot extract from an empty engine");
        extract_artifact(&self.cover, problem, k, budget).0
    }

    /// The coreset ids (and provenance) a solve would run on — exposed
    /// for tests and diagnostics.
    pub fn coreset(
        &self,
        problem: Problem,
        k: usize,
        budget: usize,
    ) -> (Vec<PointId>, CoresetInfo) {
        assert!(k > 0, "k must be positive");
        assert!(budget >= k, "budget must be at least k");
        let (ids, info) = extract_coreset(&self.cover, problem, k, budget);
        (ids.into_iter().map(PointId).collect(), info)
    }

    /// Exhaustively validates the cover invariants (`O(n²)`; test
    /// support).
    pub fn validate(&self) {
        self.cover.validate(&self.metric);
    }
}

impl<P: Clone + Sync, M: Metric<P>> CoresetSource<P> for DynamicDiversity<P, M> {
    fn extract_coreset(&self, problem: Problem, k: usize, k_prime: usize) -> Coreset<P> {
        DynamicDiversity::extract_coreset(self, problem, k, k_prime)
    }
}

/// Publishes what one update did to the cover structure, as the delta
/// of the engine's cumulative [`UpdateStats`] across the call (the
/// counters only grow within an update, so the subtraction is exact).
fn record_update_delta(before: &UpdateStats, after: &UpdateStats) {
    diversity_obs::count(
        "dynamic.levels_skipped",
        after.levels_skipped.saturating_sub(before.levels_skipped),
    );
    diversity_obs::count(
        "dynamic.delegates_adopted",
        after
            .delegates_adopted
            .saturating_sub(before.delegates_adopted),
    );
    diversity_obs::count(
        "dynamic.repair.orphans",
        after.orphans_rehomed.saturating_sub(before.orphans_rehomed),
    );
    diversity_obs::count(
        "dynamic.distance_evals",
        after.distance_evals.saturating_sub(before.distance_evals),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use diversity_core::Problem;
    use metric::{Euclidean, VecPoint};

    fn grid(n: usize) -> Vec<VecPoint> {
        (0..n)
            .map(|i| VecPoint::from([(i % 10) as f64 * 3.0, (i / 10) as f64 * 3.0]))
            .collect()
    }

    #[test]
    fn insert_then_solve_all_problems() {
        let mut e = DynamicDiversity::new(Euclidean);
        for p in grid(60) {
            e.insert(p);
        }
        e.validate();
        for problem in Problem::ALL {
            let sol = e.solve_with_budget(problem, 4, 24);
            assert_eq!(sol.ids.len(), 4, "{problem}");
            assert!(sol.value.is_finite() && sol.value > 0.0, "{problem}");
            for id in &sol.ids {
                assert!(e.contains(*id), "{problem}: stale id in solution");
            }
        }
    }

    #[test]
    fn delete_repairs_structure() {
        let mut e = DynamicDiversity::new(Euclidean);
        let ids: Vec<PointId> = grid(80).into_iter().map(|p| e.insert(p)).collect();
        // Delete every other point, validating as we go.
        for (i, id) in ids.iter().enumerate() {
            if i % 2 == 0 {
                assert!(e.delete(*id));
            }
        }
        e.validate();
        assert_eq!(e.len(), 40);
        let sol = e.solve_with_budget(Problem::RemoteEdge, 3, 16);
        assert_eq!(sol.ids.len(), 3);
        // Deleted ids are really gone.
        assert!(!e.delete(ids[0]));
        assert!(!e.contains(ids[0]));
    }

    #[test]
    fn delete_down_to_empty_and_reuse() {
        let mut e = DynamicDiversity::new(Euclidean);
        let ids: Vec<PointId> = grid(25).into_iter().map(|p| e.insert(p)).collect();
        for id in ids {
            assert!(e.delete(id));
            if !e.is_empty() {
                e.validate();
            }
        }
        assert!(e.is_empty());
        // The engine is reusable after emptying.
        e.insert(VecPoint::from([1.0, 1.0]));
        e.insert(VecPoint::from([5.0, 5.0]));
        let sol = e.solve_with_budget(Problem::RemoteEdge, 2, 4);
        assert_eq!(sol.ids.len(), 2);
        assert!((sol.value - 32.0f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn duplicate_points_bucket_without_hanging() {
        let mut e = DynamicDiversity::new(Euclidean);
        for _ in 0..50 {
            e.insert(VecPoint::from([1.0, 2.0]));
        }
        for i in 0..10 {
            e.insert(VecPoint::from([i as f64 * 10.0, 0.0]));
        }
        assert_eq!(e.len(), 60);
        let sol = e.solve_with_budget(Problem::RemoteEdge, 3, 12);
        assert_eq!(sol.ids.len(), 3);
        assert!(sol.value > 0.0);
    }

    #[test]
    fn update_cost_is_structure_bounded() {
        // Cost per update must not grow with n: compare mean distance
        // evaluations per insert between a small and a large prefix.
        let mut e = DynamicDiversity::new(Euclidean);
        let points: Vec<VecPoint> = (0..4000)
            .map(|i| {
                let x = ((i * 73) % 997) as f64;
                let y = ((i * 131) % 983) as f64;
                VecPoint::from([x, y])
            })
            .collect();
        for p in &points[..500] {
            e.insert(p.clone());
        }
        let early = e.stats().distance_evals as f64 / 500.0;
        e.reset_stats();
        for p in &points[500..4000] {
            e.insert(p.clone());
        }
        let late = e.stats().distance_evals as f64 / 3500.0;
        // 8x headroom: the bound is O(c^O(1) · depth); with n growing
        // 8x, per-op cost should stay flat, not scale with n.
        assert!(
            late <= early * 8.0 + 50.0,
            "per-insert cost grew with n: early {early:.1}, late {late:.1}"
        );
    }

    #[test]
    fn solve_matches_pipeline_when_budget_covers_everything() {
        let pts = grid(40);
        let mut e = DynamicDiversity::new(Euclidean);
        for p in &pts {
            e.insert(p.clone());
        }
        let sol = e.solve_with_budget(Problem::RemoteEdge, 4, 1000);
        assert_eq!(sol.coreset.size, 40, "budget > n keeps every point");
        assert_eq!(sol.coreset.radius, 0.0);
        let direct = diversity_core::seq::solve(Problem::RemoteEdge, &pts, &Euclidean, 4);
        assert!((sol.value - direct.value).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn solve_on_empty_panics() {
        let e: DynamicDiversity<VecPoint, _> = DynamicDiversity::new(Euclidean);
        let _ = e.solve(Problem::RemoteEdge, 2);
    }

    #[test]
    fn extracted_artifact_certifies_the_alive_set() {
        let mut e = DynamicDiversity::new(Euclidean);
        let ids: Vec<PointId> = grid(70).into_iter().map(|p| e.insert(p)).collect();
        for id in &ids[..20] {
            e.delete(*id);
        }
        for problem in [Problem::RemoteEdge, Problem::RemoteClique] {
            let artifact = e.extract_coreset(problem, 4, 12);
            assert!(artifact.is_unweighted(), "{problem}");
            assert_eq!(artifact.k_prime(), 12, "{problem}");
            // Provenance: sources are alive engine ids recovering the
            // artifact's points.
            for (&src, p) in artifact.sources().iter().zip(artifact.points()) {
                assert_eq!(e.point(PointId(src)), Some(p), "{problem}");
            }
            // Certificate: every alive point within the radius.
            let alive: Vec<VecPoint> = e.alive().into_iter().map(|(_, p)| p).collect();
            assert!(
                artifact.certifies(&alive, &Euclidean, 1e-9),
                "{problem}: radius must cover the alive set"
            );
        }
    }

    #[test]
    fn trait_extraction_matches_inherent() {
        use diversity_core::coreset::CoresetSource;
        let mut e = DynamicDiversity::new(Euclidean);
        for p in grid(40) {
            e.insert(p);
        }
        let via_trait = CoresetSource::extract_coreset(&e, Problem::RemoteEdge, 3, 9);
        let direct = e.extract_coreset(Problem::RemoteEdge, 3, 9);
        assert_eq!(via_trait, direct);
    }

    #[test]
    fn level_skip_fires_on_large_aspect_ratio() {
        // Two far-apart tight clusters: the hierarchy spans ~40 scales
        // of which almost all are empty — descents must jump them.
        let mut e = DynamicDiversity::new(Euclidean);
        for i in 0..40 {
            e.insert(VecPoint::from([i as f64 * 1e-3, 0.0]));
            e.insert(VecPoint::from([1e9 + i as f64 * 1e-3, 0.0]));
        }
        e.validate();
        assert!(
            e.stats().levels_skipped > 0,
            "empty levels must be jumped, not iterated"
        );
        // Deletions (re-homing descents) skip too, and repair stays sound.
        let ids: Vec<PointId> = e.alive().into_iter().map(|(id, _)| id).collect();
        for id in ids.iter().take(30) {
            e.delete(*id);
        }
        e.validate();
        let sol = e.solve_with_budget(Problem::RemoteEdge, 2, 8);
        assert!(sol.value >= 1e9 - 1.0, "clusters both represented");
    }

    #[test]
    fn skipping_matches_small_aspect_behaviour() {
        // Dense grid (small aspect ratio): results must be identical to
        // the exhaustive invariants regardless of how many levels were
        // skipped — validate() is the exhaustive oracle.
        let mut e = DynamicDiversity::new(Euclidean);
        for p in grid(100) {
            e.insert(p);
        }
        e.validate();
        let sol = e.solve_with_budget(Problem::RemoteClique, 5, 20);
        assert_eq!(sol.ids.len(), 5);
    }
}
