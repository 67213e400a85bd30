//! The dynamic cover hierarchy: a compressed navigating-net /
//! cover-tree over the alive points.
//!
//! # Invariants
//!
//! Writing `C_i = { p : level(p) >= i }` for the centers of level `i`
//! (so `C_top ⊆ … ⊆ C_bottom` by construction):
//!
//! 1. **Nesting** — immediate from the residence-level definition.
//! 2. **Separation** — distinct `p, q ∈ C_i` have `d(p, q) > 2^i`
//!    (relaxed only inside the bottom *bucket* level, where exact
//!    duplicates land; see [`crate::DynamicConfig::max_depth`]).
//! 3. **Covering** — every non-root `p` has `parent(p)` with
//!    `level(parent) > level(p)` and `d(p, parent) ≤ 2^(level(p)+1)`.
//!
//! Walking a parent chain from any alive point up to `C_i` telescopes
//! to `Σ_{j ≤ i} 2^j < 2^(i+1)`: **every alive point is within
//! `2^(i+1)` of `C_i`** — the covering radius that makes `C_i` a
//! coreset kernel.
//!
//! Searches and inserts descend the hierarchy with candidate sets
//! pruned by the triangle inequality; in a doubling metric the
//! candidate sets have size `c^O(1)`, making every update
//! `O(c^O(1) · depth)` — independent of the number of alive points.

use crate::node::Node;
use crate::stats::UpdateStats;
use diversity_core::doubling::{distance_to_scale, scale_to_distance};
use metric::Metric;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// One visited level during an insert descent: the level, its pruned
/// near-view as `(id, distance)` pairs, and the view's min distance.
type LevelView = (i32, Vec<(u64, f64)>, f64);

/// The view of the lowest *visited* level at or above `level` (`views`
/// is strictly descending by level). Levels the descent skipped have no
/// residents, so that view's center set equals `C_level` out to its
/// pruning radius — see the level-skip notes in `insert`.
fn view_at_or_above(views: &[LevelView], level: i32) -> &LevelView {
    views
        .iter()
        .rev()
        .find(|v| v.0 >= level)
        .expect("the top view covers every queried level")
}

/// The hierarchy. Generic over the point type only; the metric is
/// passed into each operation (mirroring `DoublingCore`).
#[derive(Clone, Debug)]
pub struct CoverHierarchy<P> {
    nodes: HashMap<u64, Node<P>>,
    /// Residence index: level -> ids residing exactly there. `BTreeSet`
    /// keeps extraction deterministic.
    by_level: BTreeMap<i32, BTreeSet<u64>>,
    root: Option<u64>,
    top_level: i32,
    /// Descents stop `max_depth` below the top level; placements there
    /// skip the separation requirement (duplicate bucket).
    max_depth: u32,
}

impl<P: Clone> CoverHierarchy<P> {
    pub fn new(max_depth: u32) -> Self {
        Self {
            nodes: HashMap::new(),
            by_level: BTreeMap::new(),
            root: None,
            top_level: 0,
            max_depth,
        }
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    pub fn contains(&self, id: u64) -> bool {
        self.nodes.contains_key(&id)
    }

    pub fn point(&self, id: u64) -> Option<&P> {
        self.nodes.get(&id).map(|n| &n.point)
    }

    pub fn top_level(&self) -> i32 {
        self.top_level
    }

    /// The root node's id (`None` iff empty).
    pub fn root_id(&self) -> Option<u64> {
        self.root
    }

    /// Iterates `(id, point)` over all alive points (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = (u64, &P)> {
        self.nodes.iter().map(|(&id, n)| (id, &n.point))
    }

    fn floor_level(&self) -> i32 {
        self.top_level - self.max_depth as i32
    }

    fn set_level(&mut self, id: u64, level: i32) {
        let node = self.nodes.get_mut(&id).expect("node exists");
        let old = node.level;
        node.level = level;
        if let Some(set) = self.by_level.get_mut(&old) {
            set.remove(&id);
            if set.is_empty() {
                self.by_level.remove(&old);
            }
        }
        self.by_level.entry(level).or_default().insert(id);
    }

    fn index_new(&mut self, id: u64, level: i32) {
        self.by_level.entry(level).or_default().insert(id);
    }

    fn deindex(&mut self, id: u64, level: i32) {
        if let Some(set) = self.by_level.get_mut(&level) {
            set.remove(&id);
            if set.is_empty() {
                self.by_level.remove(&level);
            }
        }
    }

    fn dist<M: Metric<P>>(&self, metric: &M, stats: &mut UpdateStats, a: &P, b: &P) -> f64 {
        stats.distance_evals += 1;
        metric.distance(a, b)
    }

    /// Raises the root's residence so that `2^top >= needed` (a far
    /// point became coverable). No other invariant is affected: the new
    /// levels' center sets are the singleton root.
    fn raise_top(&mut self, needed: f64, stats: &mut UpdateStats) {
        let mut top = self.top_level;
        while scale_to_distance(top) < needed {
            top += 1;
        }
        if top != self.top_level {
            let root = self.root.expect("raise with root");
            self.set_level(root, top);
            self.top_level = top;
            stats.root_raises += 1;
        }
    }

    // -----------------------------------------------------------------
    // Insert
    // -----------------------------------------------------------------

    /// Inserts `point` under `id` (caller allocates ids).
    pub fn insert<M: Metric<P>>(&mut self, id: u64, point: P, metric: &M, stats: &mut UpdateStats) {
        stats.inserts += 1;
        let Some(root) = self.root else {
            self.nodes.insert(id, Node::new(point, 0, None));
            self.index_new(id, 0);
            self.root = Some(id);
            self.top_level = 0;
            return;
        };

        let d_root = self.dist(metric, stats, &point, &self.nodes[&root].point);
        if d_root > scale_to_distance(self.top_level) {
            self.raise_top(d_root, stats);
        }
        let root = self.root.expect("root unchanged by raise");
        let floor = self.floor_level();

        // Phase 1 — descend while covered. `views` records, per visited
        // level j, the near-view of C_j (complete for every center
        // within 3·2^j, by the pruning-retention induction below) and
        // its min distance. Descent continues while
        // d(point, C_j) ≤ 2^(j+1) and stops either at the first
        // uncovered level or at the duplicate-bucket floor.
        //
        // **Level skip:** a level with no residents changes neither the
        // candidate set (children extension only adds nodes residing
        // exactly there) nor the min distance — its view would be the
        // level above's, filtered tighter. So the descent jumps
        // straight to the highest level that *can* change the outcome:
        // the next occupied level, the level where the uncovered
        // condition first triggers at the current min distance
        // (`d_min > 2^(j+1)` ⟺ `j ≤ scale(d_min) − 2`), or the floor.
        // On large-aspect-ratio data (top scale ≫ typical spacing) this
        // removes the empty-level iterations entirely; the completeness
        // induction survives because a skipped ancestor chain has no
        // residents to lose (`descent_views_complete_within_3_scale`
        // and `validate` hold unchanged).
        let mut views: Vec<LevelView> = vec![(self.top_level, vec![(root, d_root)], d_root)];
        let mut bucket = false;
        loop {
            let (i, cands, d_min_here) = views.last().expect("seeded");
            let (i, d_min_here) = (*i, *d_min_here);
            if i <= floor {
                bucket = true;
                break;
            }
            let next_occupied = self
                .by_level
                .range(..i)
                .next_back()
                .map_or(i32::MIN, |(&l, _)| l);
            let first_uncovered = if d_min_here > 0.0 {
                distance_to_scale(d_min_here) - 2
            } else {
                i32::MIN
            };
            let next = next_occupied.max(first_uncovered).max(floor);
            debug_assert!(next < i, "jump target must descend");
            if next < i - 1 {
                stats.levels_skipped += (i - 1 - next) as u64;
            }
            let mut view = self.extend_with_children(next, cands, &point, metric, stats);
            // Pruning radius θ_j = 3·2^j. This is the tightest budget
            // the covering argument sustains: a center c ∈ C_j with
            // d(point, c) ≤ 3·2^j has its lowest ancestor a above j
            // within d(point, a) ≤ 3·2^j + 2^(j+1) = 5·2^j ≤ 3·2^(j+1)
            // ≤ θ of the previous *visited* level (levels between are
            // unoccupied, so a resides at or above it), hence `a`
            // survived the previous retain and `c` is in this view —
            // inductively the view is complete out to 3·2^j. The
            // descent and bubble-up only ever query the view for
            // centers within the covering radius 2^(j+1) < 3·2^j, so
            // nothing is lost, while the old θ_j = 4·2^j budget carried
            // strictly more candidates per level (a measurable shrink
            // in 3D; see `descent_views_complete_within_3_scale`).
            let theta = 3.0 * scale_to_distance(next);
            view.retain(|&(_, d)| d <= theta);
            stats.max_candidates = stats.max_candidates.max(view.len());
            let d_min = view.iter().map(|&(_, d)| d).fold(f64::INFINITY, f64::min);
            views.push((next, view, d_min));
            if d_min > 2.0 * scale_to_distance(next) {
                break; // first uncovered level: d(point, C_next) > 2^(next+1)
            }
        }

        if bucket {
            // Exact-duplicate (or pathologically deep) placement: reside
            // at the floor under the nearest node one level up, waiving
            // separation and doubling the covering allowance.
            let (level, view, _) = views.last().expect("seeded");
            let parent = view
                .iter()
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .map(|&(pid, _)| pid)
                .expect("descent views are never empty");
            let mut node = Node::new(point, level - 1, Some(parent));
            node.bucketed = true;
            self.nodes.insert(id, node);
            self.index_new(id, level - 1);
            self.nodes
                .get_mut(&parent)
                .expect("parent")
                .children
                .push(id);
            return;
        }

        // Phase 2 — bubble up to the lowest residence with a covering
        // parent: place at residence r once d(point, C_(r+1)) ≤ 2^(r+1).
        // Each level s skipped on the way certifies the separation
        // d(point, C_s) > 2^s that residing below it requires; the
        // stop level j0 certifies every residence ≤ j0 through the
        // parent-chain telescope (see module docs). Levels the descent
        // jumped over have no residents, so `C_(r+1)` equals the center
        // set of the lowest *visited* level ≥ r+1 — whose recorded view
        // answers the query.
        let mut r = views.last().expect("seeded").0;
        loop {
            let (_, above_view, above_min) = view_at_or_above(&views, r + 1);
            if *above_min <= 2.0 * scale_to_distance(r) {
                let parent = above_view
                    .iter()
                    .min_by(|a, b| a.1.total_cmp(&b.1))
                    .map(|&(pid, _)| pid)
                    .expect("finite min implies a candidate");
                self.nodes.insert(id, Node::new(point, r, Some(parent)));
                self.index_new(id, r);
                self.nodes
                    .get_mut(&parent)
                    .expect("parent")
                    .children
                    .push(id);
                return;
            }
            // No parent within 2^(r+1): certified d(point, C_(r+1)) >
            // 2^(r+1), so residing at r+1 is separated; try above.
            r += 1;
            debug_assert!(
                r < self.top_level,
                "bubble must stop below the top: d(point, root) fits 2^top"
            );
        }
    }

    /// Candidates for level `level`: the carried set plus children (of
    /// carried nodes) residing exactly at `level`, with distances.
    fn extend_with_children<M: Metric<P>>(
        &self,
        level: i32,
        cands: &[(u64, f64)],
        target: &P,
        metric: &M,
        stats: &mut UpdateStats,
    ) -> Vec<(u64, f64)> {
        let mut out = cands.to_vec();
        for &(cid, _) in cands {
            for &child in &self.nodes[&cid].children {
                let cn = &self.nodes[&child];
                if cn.level == level {
                    let d = self.dist(metric, stats, target, &cn.point);
                    out.push((child, d));
                }
            }
        }
        out
    }

    // -----------------------------------------------------------------
    // Delete
    // -----------------------------------------------------------------

    /// Deletes `id`, re-homing its orphaned children. Returns `false`
    /// if the id is not alive.
    pub fn delete<M: Metric<P>>(&mut self, id: u64, metric: &M, stats: &mut UpdateStats) -> bool {
        let Some(node) = self.nodes.remove(&id) else {
            return false;
        };
        stats.deletes += 1;
        self.deindex(id, node.level);

        // Detach from the parent.
        if let Some(pid) = node.parent {
            let siblings = &mut self.nodes.get_mut(&pid).expect("parent alive").children;
            siblings.retain(|&c| c != id);
        }

        let mut orphans = node.children;
        if self.nodes.is_empty() {
            self.root = None;
            self.top_level = 0;
            return true;
        }
        let thinned = node.parent.filter(|pid| self.nodes.contains_key(pid));

        // Highest orphans first: once re-homed they can cover the rest.
        orphans.sort_by_key(|&o| std::cmp::Reverse(self.nodes[&o].level));

        if self.root == Some(id) {
            // Promote the highest orphan to be the new root. The levels
            // it skips are empty (every other node's residence is below
            // its ancestor orphan's), so separation is trivial.
            let new_root = orphans.remove(0);
            self.set_level(new_root, self.top_level);
            self.nodes.get_mut(&new_root).expect("new root").parent = None;
            self.root = Some(new_root);
        }

        // Temporarily detach the remaining orphans so searches cannot
        // route through them, then re-home each.
        for &o in &orphans {
            let level = self.nodes[&o].level;
            self.deindex(o, level);
            self.nodes.get_mut(&o).expect("orphan").parent = None;
        }
        for o in orphans {
            self.rehome(o, metric, stats);
        }
        // Deletion-aware delegate refresh: the deleted node's parent
        // just lost part of its subtree at scale `node.level`.
        if let Some(center) = thinned {
            if self.nodes.contains_key(&center) {
                self.refresh_delegates(center, node.level, metric, stats);
            }
        }
        true
    }

    /// Deletion-aware delegate refresh (repair on delete).
    ///
    /// Subtrees are assigned at *insert* time (each point attaches to
    /// the nearest covering candidate that existed back then) and are
    /// never rebalanced, so after deletions thin a center's subtree the
    /// injective-proxy delegate harvest
    /// ([`subtree_delegates`](Self::subtree_delegates)) can find fewer
    /// than `k` delegates for that center even when `k` points remain
    /// nearby — they sit in a *sibling's* subtree. This repair runs
    /// after every delete whose parent `center` survives: a bounded
    /// descent collects the nodes residing at or above the deleted
    /// child's `scale` within the covering range `2^(scale+1)` of
    /// `center`, and every such node that (a) resides strictly below
    /// `center` and (b) is **strictly closer** to `center` than to its
    /// current parent is re-parented under `center`.
    ///
    /// Soundness: an adoptee `q` found by the search has
    /// `d(q, center) ≤ 2^(scale+1) ≤ 2^(level(q)+1)` (its residence is
    /// at least `scale`), so the covering invariant holds at its new
    /// parent; its residence level never changes, so separation and
    /// nesting are untouched; and `level(q) < level(center)` rules out
    /// adopting an ancestor (no cycles). The strict-improvement
    /// condition makes each node's parent distance monotically
    /// decreasing between its own re-homings, so repairs cannot
    /// ping-pong a node between two centers. Cost is one extra bounded
    /// descent per delete — the same `O(c^O(1) · depth)` budget the
    /// delete already spends re-homing orphans.
    fn refresh_delegates<M: Metric<P>>(
        &mut self,
        center: u64,
        scale: i32,
        metric: &M,
        stats: &mut UpdateStats,
    ) {
        let center_level = self.nodes[&center].level;
        if scale >= center_level {
            return; // adoptees must reside strictly below the center
        }
        let point = self.nodes[&center].point.clone();
        // Search down to the thinned scale, pruned wide enough to keep
        // any node the center could cover at all (`2^center_level` is
        // the covering allowance of its highest possible child); each
        // candidate is then checked against its *own* residence's
        // covering bound below.
        let radius = scale_to_distance(center_level);
        let cands = self.search_down_to(&point, center, scale, radius, metric, stats);
        for (q, d) in cands {
            let qn = &self.nodes[&q];
            if qn.level >= center_level || qn.parent == Some(center) {
                continue;
            }
            if d > 2.0 * scale_to_distance(qn.level) {
                continue; // covering would break at q's residence
            }
            let Some(old_parent) = qn.parent else {
                continue; // the root keeps its place
            };
            let d_old = self.dist(metric, stats, &qn.point, &self.nodes[&old_parent].point);
            if d < d_old {
                // Adopt: strictly closer to the thinned center than to
                // its current parent.
                let siblings = &mut self.nodes.get_mut(&old_parent).expect("parent").children;
                siblings.retain(|&c| c != q);
                self.nodes.get_mut(&q).expect("adoptee").parent = Some(center);
                self.nodes
                    .get_mut(&center)
                    .expect("center")
                    .children
                    .push(q);
                stats.delegates_adopted += 1;
            }
        }
    }

    /// Finds a new parent for a detached orphan, promoting it one level
    /// at a time while no center of the next level up is within
    /// covering range (each failed search certifies the separation the
    /// promotion needs).
    fn rehome<M: Metric<P>>(&mut self, orphan: u64, metric: &M, stats: &mut UpdateStats) {
        let point = self.nodes[&orphan].point.clone();
        let mut level = self.nodes[&orphan].level;
        loop {
            if level + 1 > self.top_level {
                // Nothing above can cover it: raise the root until it
                // does (d > 0 here — a zero-distance parent would have
                // been found at any level).
                let root = self.root.expect("root alive");
                let d_root = self.dist(metric, stats, &point, &self.nodes[&root].point);
                let needed = d_root.max(scale_to_distance(self.top_level + 1));
                self.raise_top(needed, stats);
            }
            if let Some(parent) = self.find_parent_at(&point, orphan, level + 1, metric, stats) {
                self.set_level(orphan, level);
                let n = self.nodes.get_mut(&orphan).expect("orphan");
                n.parent = Some(parent);
                self.nodes
                    .get_mut(&parent)
                    .expect("parent")
                    .children
                    .push(orphan);
                stats.orphans_rehomed += 1;
                return;
            }
            // No center of C_(level+1) within 2^(level+1): the orphan
            // itself joins that level, separation certified.
            level += 1;
            stats.promotions += 1;
        }
    }

    /// Searches `C_target_level` for a center within
    /// `2^target_level` of `point`, descending from the root.
    /// `exclude` guards against self-adoption (the orphan is detached,
    /// but cheap certainty beats subtle bugs).
    fn find_parent_at<M: Metric<P>>(
        &self,
        point: &P,
        exclude: u64,
        target_level: i32,
        metric: &M,
        stats: &mut UpdateStats,
    ) -> Option<u64> {
        if target_level > self.top_level {
            return None;
        }
        let radius = scale_to_distance(target_level);
        self.search_down_to(point, exclude, target_level, radius, metric, stats)
            .iter()
            .filter(|&&(cid, d)| d <= radius && self.nodes[&cid].level >= target_level)
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|&(cid, _)| cid)
    }

    /// The shared descent behind [`find_parent_at`](Self::find_parent_at)
    /// and the delegate refresh: walks from the root down to
    /// `target_level`, pruning each visited level's candidates to
    /// `θ_j = radius + 2^(j+1)` — complete out to `radius` by the usual
    /// covering induction (any node of residence ≥ `target_level`
    /// within `radius` has its lowest ancestor above `j` within
    /// `radius + 2^(j+1)`). Returns the final candidate set: every node
    /// of residence ≥ `target_level` within `radius` of `point` is in
    /// it (alongside some farther ones the caller filters). `exclude`
    /// is dropped everywhere (self-adoption / self-parenting guard).
    fn search_down_to<M: Metric<P>>(
        &self,
        point: &P,
        exclude: u64,
        target_level: i32,
        radius: f64,
        metric: &M,
        stats: &mut UpdateStats,
    ) -> Vec<(u64, f64)> {
        let root = self.root.expect("search requires a root");
        let d_root = self.dist(metric, stats, point, &self.nodes[&root].point);
        // The seed may be the excluded node itself: keep it so the
        // descent can still reach its children, and drop it at the end.
        let mut cands: Vec<(u64, f64)> = vec![(root, d_root)];
        let mut i = self.top_level;
        while i > target_level {
            // Level skip: unoccupied levels add no children and their
            // θ filter is subsumed by the tighter one below, so jump
            // straight to the next occupied level (or the target).
            let next_occupied = self
                .by_level
                .range(..i)
                .next_back()
                .map_or(i32::MIN, |(&l, _)| l);
            let next = next_occupied.max(target_level);
            if next < i - 1 {
                stats.levels_skipped += (i - 1 - next) as u64;
            }
            let mut next_cands = self.extend_with_children(next, &cands, point, metric, stats);
            // Any center of C_target within `radius` has its lowest
            // ancestor above j within radius + 2^(j+1).
            let theta = radius + 2.0 * scale_to_distance(next);
            next_cands.retain(|&(cid, d)| cid != exclude && d <= theta);
            stats.max_candidates = stats.max_candidates.max(next_cands.len());
            cands = next_cands;
            i = next;
        }
        cands.retain(|&(cid, _)| cid != exclude);
        cands
    }

    // -----------------------------------------------------------------
    // Coreset extraction
    // -----------------------------------------------------------------

    /// Chooses the finest level whose center count fits `budget`.
    /// Returns `(kernel_level, covering_radius, kernel_size)`; the
    /// radius is 0 when the kernel is the entire alive set.
    pub fn kernel_level(&self, budget: usize) -> (i32, f64, usize) {
        assert!(budget >= 1, "kernel budget must be positive");
        // Bucketed nodes have a doubled covering hop; one extra
        // floor-scale term keeps the telescoped radius an upper bound.
        let bucket_slack = 4.0 * scale_to_distance(self.floor_level());
        let mut cumulative = 0usize;
        for (&level, set) in self.by_level.iter().rev() {
            let here = cumulative + set.len();
            if here > budget {
                // C_(level+1) is the finest fit; every alive point is
                // within its covering radius 2^(level+2) (plus the
                // negligible duplicate-bucket slack).
                return (
                    level + 1,
                    4.0 * scale_to_distance(level) + bucket_slack,
                    cumulative,
                );
            }
            cumulative = here;
        }
        // Everything fits: the kernel is the entire alive set.
        (i32::MIN, 0.0, cumulative)
    }

    /// All centers of `C_level` (ids, deterministic order).
    pub fn centers_at(&self, level: i32) -> Vec<u64> {
        self.by_level
            .range(level..)
            .flat_map(|(_, set)| set.iter().copied())
            .collect()
    }

    /// Collects up to `cap` subtree points of `center` (itself first),
    /// descending only into children below `kernel_level` so sibling
    /// kernels keep disjoint subtrees. This is the delegate harvest of
    /// the injective-proxy coresets.
    pub fn subtree_delegates(&self, center: u64, kernel_level: i32, cap: usize) -> Vec<u64> {
        let mut out = Vec::with_capacity(cap.min(8));
        let mut stack = vec![center];
        while let Some(id) = stack.pop() {
            if out.len() >= cap {
                break;
            }
            out.push(id);
            for &child in &self.nodes[&id].children {
                if self.nodes[&child].level < kernel_level {
                    stack.push(child);
                }
            }
        }
        out
    }

    // -----------------------------------------------------------------
    // Checkpointing (state export / import)
    // -----------------------------------------------------------------

    /// The configured duplicate-bucket depth.
    pub fn max_depth(&self) -> u32 {
        self.max_depth
    }

    // -----------------------------------------------------------------
    // Invariant validation (test support)
    // -----------------------------------------------------------------

    /// Exhaustively checks the three invariants; `O(n²)`. Intended for
    /// tests — panics with a description on violation. Bucketed nodes
    /// are exempt from separation and get the doubled covering
    /// allowance.
    pub fn validate<M: Metric<P>>(&self, metric: &M) {
        let ids: Vec<u64> = self.nodes.keys().copied().collect();
        for &id in &ids {
            let n = &self.nodes[&id];
            assert!(
                n.level <= self.top_level,
                "node {id} resides above the top level"
            );
            match n.parent {
                None => assert_eq!(Some(id), self.root, "non-root {id} without parent"),
                Some(pid) => {
                    let p = self
                        .nodes
                        .get(&pid)
                        .unwrap_or_else(|| panic!("node {id} has dangling parent {pid}"));
                    assert!(
                        p.level > n.level,
                        "parent {pid} (level {}) not above child {id} (level {})",
                        p.level,
                        n.level
                    );
                    assert!(
                        p.children.contains(&id),
                        "parent {pid} does not list child {id}"
                    );
                    let d = metric.distance(&n.point, &p.point);
                    let allowance = if n.bucketed { 4.0 } else { 2.0 };
                    let bound = allowance * scale_to_distance(n.level);
                    assert!(
                        d <= bound + 1e-9,
                        "covering violated: d({id},{pid}) = {d} > {bound}"
                    );
                }
            }
        }
        // Residence index consistency.
        for (&level, set) in &self.by_level {
            for &id in set {
                assert_eq!(
                    self.nodes[&id].level, level,
                    "by_level index out of sync for {id}"
                );
            }
        }
        // Separation for every pair at their joint residence level
        // (bucketed nodes waived it).
        for a in 0..ids.len() {
            for b in 0..a {
                let (x, y) = (&self.nodes[&ids[a]], &self.nodes[&ids[b]]);
                if x.bucketed || y.bucketed {
                    continue;
                }
                let joint = x.level.min(y.level);
                let d = metric.distance(&x.point, &y.point);
                assert!(
                    d > scale_to_distance(joint) - 1e-9,
                    "separation violated at level {joint}: d = {d}"
                );
            }
        }
    }
}
