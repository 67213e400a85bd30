//! One shard of the pool: its alive points in id order and the
//! maintained prefix of the farthest-point traversal over them.
//!
//! Round 1 of the paper's 2-round MapReduce algorithm runs `GMM(S_i,
//! k')` on each part (`diversity_mapreduce::two_round`). A shard keeps
//! that traversal current under inserts and deletes for `m`, the
//! largest `k'` asked so far (capped at the shard's size): every
//! smaller `k'` is a prefix of it. The part a shard stands for lists
//! its alive points with the **start** first, then by id, and ties in
//! the traversal go to the earliest point of that order, exactly as in
//! [`diversity_core::gmm::gmm_plain`] over that part.
//!
//! What the shard keeps besides the points:
//!
//! * `centers[t]`, the point selected at step `t < m`;
//! * `far[t]` for `t ≤ m`: the largest distance of a point to the first
//!   `t` centers (`far[0] = ∞`). It is the insertion distance of `c_t`,
//!   and `far[k']` is the covering radius of the `k'`-prefix;
//! * per point, its **chain**: each step at which its distance to the
//!   selected centers strictly dropped, with the new distance. Chains
//!   are stored flat, one array of links plus one offset per point; a
//!   `Vec` per point costs as much as resuming saves.
//!
//! How updates keep the prefix equal to a fresh traversal, with their
//! cost in distance evaluations:
//!
//! * **Insert `p`**: `p`'s distances to the centers, in order (at most
//!   `m`). If after `j` centers `p` is strictly farther than `far[j]`,
//!   the traversal would have picked `p` at step `j` (`p` is last in the
//!   order, so it loses ties), and it resumes from `j`. Otherwise `p` is
//!   appended with its chain, and nothing before it moves.
//! * **Delete** of a point that is not a center evaluates no distance:
//!   it never was the argmax of any step. Deleting `c_j` resumes from
//!   step `j`. Deleting the start restarts from the newest point, so
//!   FIFO churn does not restart on every delete.
//! * **Resume from `j`**: every chain is cut to its steps `< j`, which
//!   gives each point's distance to the first `j` centers for free, and
//!   the traversal continues through [`Metric::relax`], one evaluation
//!   per point per step — the plain loop of `diversity_core::gmm`.
//!
//! Under random or FIFO churn an update costs `O(m)` evaluations plus
//! rare recomputes. Two orders defeat it: inserting by decreasing norm
//! recomputes on every insert, and one query with `k'` near the shard
//! size makes every later insert cost about `n` evaluations (`m ≈ n`).
//!
//! A one-shard pool is this crate's fully dynamic set. Against a cover
//! hierarchy (Pellizzoni–Pietracaprina–Pucci, arXiv 2302.07771), which
//! bounds per-update work by its structure, it gives up two things:
//!
//! * **Update work grows with the shard.** A recompute relaxes every
//!   alive point for each resumed step. `examples/dynamic_window.rs`
//!   (a 2,000-point FIFO window, 10,000 arrivals, `m = 64`) reads 2,169
//!   distance evaluations per update and 516 recomputes in 18,000
//!   updates; the decreasing-norm order above recomputes on every
//!   insert (`tests/prefix_oracle.rs` pins it).
//! * **The pool logs every acknowledged mutation** for recovery until
//!   [`crate::ShardPool::checkpoint`] folds the log in, so a window
//!   that never checkpoints holds memory in proportion to its total
//!   op count, not to the window. The example checkpoints at each
//!   refresh.
//!
//! Deleted points stay as dead slots (distance `-∞`, which no relax
//! moves and no argmax picks) until a quarter of the slots are dead;
//! the shard then compacts in place.

use diversity_core::coreset::Coreset;
use diversity_core::Problem;
use metric::Metric;

/// Update-work counters of one shard ([`crate::ShardPool::shard_stats`]).
/// The field names are those the benchmark and dashboards read; each is
/// defined here for the maintained prefix.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Distances evaluated by updates and by prefix growth: each
    /// insert's distances to the centers, plus every recompute's
    /// relaxations (one per slot per step).
    pub distance_evals: u64,
    /// Points inserted.
    pub inserts: u64,
    /// Points deleted.
    pub deletes: u64,
    /// Recomputes: traversals resumed by an update or extended by a
    /// query for a larger `k'`.
    pub orphans_rehomed: u64,
    /// Points relaxed by the largest recompute, counted per step (slots
    /// × steps).
    pub max_candidates: usize,
}

/// One strict improvement of a point's distance to the selected
/// centers: at `step` its nearest center became `centers[step]`, at
/// distance `dist`.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Link {
    step: u32,
    dist: f64,
}

/// The distance of a dead slot: no relax moves it, no argmax picks it.
const DEAD: f64 = f64::NEG_INFINITY;

/// Dead slots a shard tolerates before it may compact.
const COMPACT_MIN: usize = 64;

/// A shard's points and the maintained traversal (see the module
/// docs). Slots hold points in ascending id order; `dist` and the
/// chains are indexed by slot. A point's nearest center is the step of
/// its chain's last link (step 0 for an empty chain).
pub(crate) struct Prefix<P> {
    ids: Vec<u64>,
    points: Vec<P>,
    /// Distance to the nearest of the `m` centers; [`DEAD`] for a dead
    /// or pending slot, `∞` before the first step.
    dist: Vec<f64>,
    /// Slot `s`'s chain is `links[chain_at[s]..chain_at[s + 1]]`.
    chain_at: Vec<usize>,
    links: Vec<Link>,
    live: usize,
    /// Slot of the start; `None` exactly when no point is alive.
    start: Option<usize>,
    centers: Vec<usize>,
    far: Vec<f64>,
    /// The argmax after all `m` steps: the center step `m` would pick.
    next: Option<usize>,
    next_id: u64,
    stats: ShardStats,
}

/// What an insert does, decided under the read lock.
pub(crate) struct Probe {
    links: Vec<Link>,
    /// The step the traversal resumes from when the new point would
    /// have been picked before step `m`.
    resume: Option<usize>,
    /// The new point is the farthest after all `m` steps.
    farthest: bool,
    evals: u64,
}

impl Probe {
    /// Whether the insert needs a recompute.
    pub(crate) fn resumes(&self) -> bool {
        self.resume.is_some()
    }
}

/// A recomputed traversal, built under the read lock and swapped in
/// under the write lock ([`Prefix::publish`]).
pub(crate) struct Resumed {
    /// The slot whose liveness the recompute toggles: a pending insert
    /// comes alive, a deleted point dies.
    flip: Option<usize>,
    start: usize,
    dist: Vec<f64>,
    chain_at: Vec<usize>,
    links: Vec<Link>,
    centers: Vec<usize>,
    far: Vec<f64>,
    next: usize,
    evals: u64,
}

/// What a delete does, decided under the read lock.
pub(crate) enum Removal {
    /// The id is not alive.
    Gone,
    /// A point that is no center: mark its slot dead.
    Drop(usize),
    /// The last point.
    Clear,
    /// A center, the start, or a point the shrinking prefix must shed.
    Resume(Resumed),
}

impl<P> Prefix<P> {
    /// An empty shard.
    pub(crate) fn new() -> Self {
        Self {
            ids: Vec::new(),
            points: Vec::new(),
            dist: Vec::new(),
            chain_at: vec![0],
            links: Vec::new(),
            live: 0,
            start: None,
            centers: Vec::new(),
            far: vec![f64::INFINITY],
            next: None,
            next_id: 0,
            stats: ShardStats::default(),
        }
    }

    /// A shard holding `points` under `ids` (ascending), with no prefix
    /// yet: the next query grows one. Seeding is `O(1)` per point.
    pub(crate) fn from_parts(
        ids: Vec<u64>,
        points: Vec<P>,
        start: Option<u64>,
        next_id: u64,
    ) -> Result<Self, String> {
        let n = ids.len();
        if points.len() != n {
            return Err(format!("{} ids for {} points", n, points.len()));
        }
        if let Some(w) = ids.windows(2).find(|w| w[0] >= w[1]) {
            return Err(format!("ids {} and {} are not ascending", w[0], w[1]));
        }
        if let Some(&last) = ids.last() {
            if last >= next_id {
                return Err(format!("id {last} was never issued (next id {next_id})"));
            }
        }
        let start = match start {
            Some(id) => Some(
                ids.binary_search(&id)
                    .map_err(|_| format!("start id {id} is not alive"))?,
            ),
            None if n > 0 => return Err("a non-empty shard has no start".into()),
            None => None,
        };
        Ok(Self {
            dist: vec![f64::INFINITY; n],
            chain_at: vec![0; n + 1],
            links: Vec::new(),
            live: n,
            start,
            centers: Vec::new(),
            far: vec![f64::INFINITY],
            next: start,
            next_id,
            ids,
            points,
            stats: ShardStats::default(),
        })
    }

    /// Alive points.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// `m`: the steps the prefix holds.
    pub(crate) fn steps(&self) -> usize {
        self.centers.len()
    }

    /// The start's id; `None` when empty.
    pub(crate) fn start_id(&self) -> Option<u64> {
        self.start.map(|s| self.ids[s])
    }

    pub(crate) fn stats(&self) -> ShardStats {
        self.stats
    }

    pub(crate) fn set_stats(&mut self, stats: ShardStats) {
        self.stats = stats;
    }

    fn is_live(&self, slot: usize) -> bool {
        self.dist[slot] != DEAD
    }

    fn slot(&self, id: u64) -> Option<usize> {
        let slot = self.ids.binary_search(&id).ok()?;
        self.is_live(slot).then_some(slot)
    }

    fn chain(&self, slot: usize) -> &[Link] {
        &self.links[self.chain_at[slot]..self.chain_at[slot + 1]]
    }

    /// The point behind an alive id.
    pub(crate) fn point(&self, id: u64) -> Option<&P> {
        self.slot(id).map(|s| &self.points[s])
    }

    /// Alive `(id, point)` pairs in id order.
    pub(crate) fn alive(&self) -> impl Iterator<Item = (u64, &P)> + '_ {
        (0..self.ids.len())
            .filter(|&s| self.is_live(s))
            .map(|s| (self.ids[s], &self.points[s]))
    }

    /// The prefix a query for `k'` reads must hold `min(k', n)` steps:
    /// `Some(target)` when it holds fewer.
    pub(crate) fn shortfall(&self, k_prime: usize) -> Option<usize> {
        let target = k_prime.min(self.live);
        (target > self.steps()).then_some(target)
    }

    /// Slot `s`'s nearest center among the first `steps` ones, ties to
    /// the earliest: the last link of its chain before `steps`.
    fn assignment(&self, slot: usize, steps: usize) -> usize {
        let chain = self.chain(slot);
        let keep = chain.partition_point(|l| (l.step as usize) < steps);
        chain[..keep].last().map_or(0, |l| l.step as usize)
    }

    /// Appends a new point with the chain `probe` found: alive, or
    /// pending (dead) when the probe calls for a recompute, which
    /// brings it alive ([`resume_insert`](Self::resume_insert)). Returns
    /// its id and slot.
    pub(crate) fn append(&mut self, point: P, probe: &Probe) -> (u64, usize) {
        let id = self.next_id;
        self.next_id += 1;
        let slot = self.ids.len();
        self.ids.push(id);
        self.points.push(point);
        self.links.extend_from_slice(&probe.links);
        self.chain_at.push(self.links.len());
        self.stats.distance_evals += probe.evals;
        if probe.resumes() {
            self.dist.push(DEAD);
            return (id, slot);
        }
        let dist = probe.links.last().map_or(f64::INFINITY, |l| l.dist);
        self.dist.push(dist);
        self.live += 1;
        self.stats.inserts += 1;
        if self.start.is_none() {
            self.start = Some(slot);
            self.next = Some(slot);
        } else if probe.farthest {
            self.next = Some(slot);
            let m = self.steps();
            self.far[m] = dist;
        }
        (id, slot)
    }

    /// Swaps in a recomputed traversal. Returns the replaced buffers, so
    /// a caller under a lock can free them after releasing it.
    pub(crate) fn publish(&mut self, mut r: Resumed) -> Resumed {
        if let Some(slot) = r.flip {
            if self.is_live(slot) {
                self.live -= 1;
                self.stats.deletes += 1;
            } else {
                self.live += 1;
                self.stats.inserts += 1;
            }
        }
        std::mem::swap(&mut self.dist, &mut r.dist);
        std::mem::swap(&mut self.chain_at, &mut r.chain_at);
        std::mem::swap(&mut self.links, &mut r.links);
        std::mem::swap(&mut self.centers, &mut r.centers);
        std::mem::swap(&mut self.far, &mut r.far);
        self.start = Some(r.start);
        self.next = Some(r.next);
        self.stats.distance_evals += r.evals;
        self.stats.orphans_rehomed += 1;
        self.stats.max_candidates = self.stats.max_candidates.max(r.evals as usize);
        self.compact_if_sparse();
        r
    }

    /// Applies a delete decided by [`plan_delete`](Self::plan_delete).
    /// Returns a recompute's replaced buffers, as
    /// [`publish`](Self::publish) does.
    pub(crate) fn remove(&mut self, removal: Removal) -> Option<Resumed> {
        match removal {
            Removal::Gone => {}
            Removal::Drop(slot) => {
                self.dist[slot] = DEAD;
                self.live -= 1;
                self.stats.deletes += 1;
                if self.next == Some(slot) {
                    let (next, top) = farthest(&self.dist, self.start.expect("alive points"));
                    self.next = Some(next);
                    let m = self.steps();
                    self.far[m] = top;
                }
                self.compact_if_sparse();
            }
            Removal::Clear => {
                let (next_id, mut stats) = (self.next_id, self.stats);
                stats.deletes += 1;
                *self = Self::new();
                self.next_id = next_id;
                self.stats = stats;
            }
            Removal::Resume(r) => return Some(self.publish(r)),
        }
        None
    }

    /// Drops dead slots once they are a quarter of all slots (and at
    /// least [`COMPACT_MIN`]), in place.
    fn compact_if_sparse(&mut self) {
        let dead = self.ids.len() - self.live;
        if dead < COMPACT_MIN || 4 * dead < self.ids.len() {
            return;
        }
        let keep: Vec<bool> = self.dist.iter().map(|&d| d != DEAD).collect();
        let mut to = vec![usize::MAX; keep.len()];
        let (mut n, mut at) = (0, 0);
        for (slot, &kept) in keep.iter().enumerate() {
            if !kept {
                continue;
            }
            // Every index written so far is below `slot`, so this
            // slot's range is still the original one.
            let (lo, hi) = (self.chain_at[slot], self.chain_at[slot + 1]);
            self.links.copy_within(lo..hi, at);
            self.chain_at[n] = at;
            to[slot] = n;
            at += hi - lo;
            n += 1;
        }
        self.chain_at.truncate(n);
        self.chain_at.push(at);
        self.links.truncate(at);
        retain_slots(&mut self.ids, &keep);
        retain_slots(&mut self.points, &keep);
        retain_slots(&mut self.dist, &keep);
        self.start = self.start.map(|s| to[s]);
        self.next = self.next.map(|s| to[s]);
        for c in &mut self.centers {
            *c = to[*c];
        }
    }
}

impl<P: Sync> Prefix<P> {
    /// An insert's probe: `p`'s distances to the centers in order,
    /// stopping at the first step that would have picked `p`.
    pub(crate) fn probe<M: Metric<P>>(&self, p: &P, metric: &M) -> Probe {
        let m = self.steps();
        let mut links = Vec::new();
        let mut r = f64::INFINITY;
        for (t, &c) in self.centers.iter().enumerate() {
            let d = metric.distance(&self.points[c], p);
            if d < r {
                r = d;
                links.push(Link {
                    step: t as u32,
                    dist: d,
                });
            }
            if r > self.far[t + 1] {
                let j = t + 1;
                return Probe {
                    links,
                    resume: (j < m).then_some(j),
                    farthest: j == m,
                    evals: j as u64,
                };
            }
        }
        Probe {
            links,
            resume: None,
            farthest: false,
            evals: m as u64,
        }
    }

    /// The recompute a pending insert at `slot` calls for.
    pub(crate) fn resume_insert<M: Metric<P>>(
        &self,
        slot: usize,
        probe: &Probe,
        metric: &M,
    ) -> Resumed {
        let from = probe.resume.expect("the probe calls for a recompute");
        let start = self.start.expect("a pending insert has company");
        self.resume(from, self.steps(), start, Some(slot), metric)
    }

    /// What deleting `id` does; computes the recompute when one is due.
    pub(crate) fn plan_delete<M: Metric<P>>(&self, id: u64, metric: &M) -> Removal {
        let Some(slot) = self.slot(id) else {
            return Removal::Gone;
        };
        if self.live == 1 {
            return Removal::Clear;
        }
        let m = self.steps().min(self.live - 1);
        if self.start == Some(slot) {
            let newest = (0..self.ids.len())
                .rev()
                .find(|&s| s != slot && self.is_live(s))
                .expect("another point is alive");
            return Removal::Resume(self.resume(0, m, newest, Some(slot), metric));
        }
        let from = self
            .centers
            .iter()
            .position(|&c| c == slot)
            .unwrap_or(m)
            .min(m);
        if from == self.steps() {
            return Removal::Drop(slot);
        }
        let start = self.start.expect("alive points");
        Removal::Resume(self.resume(from, m, start, Some(slot), metric))
    }

    /// The recompute that extends the prefix to `target` steps.
    pub(crate) fn extend<M: Metric<P>>(&self, target: usize, metric: &M) -> Resumed {
        let start = self.start.expect("a prefix grows over alive points");
        self.resume(self.steps(), target, start, None, metric)
    }

    /// Reruns the traversal from step `from` to `m` steps over the
    /// alive slots — `flip` toggled — from `start`. Chains are cut to
    /// their steps `< from`; the steps after run the plain loop.
    fn resume<M: Metric<P>>(
        &self,
        from: usize,
        m: usize,
        start: usize,
        flip: Option<usize>,
        metric: &M,
    ) -> Resumed {
        let _span = diversity_obs::span("serve.prefix.resume_ns");
        let slots = self.ids.len();
        let mut dist = Vec::with_capacity(slots);
        // Each slot's nearest center, for `relax` to keep current: a
        // fresh link is due where it becomes step `t`.
        let mut assign = Vec::with_capacity(slots);
        let mut kept = Vec::with_capacity(slots);
        for slot in 0..slots {
            if self.is_live(slot) == (flip == Some(slot)) {
                dist.push(DEAD);
                assign.push(usize::MAX);
                kept.push(0);
                continue;
            }
            let chain = self.chain(slot);
            let keep = chain.partition_point(|l| (l.step as usize) < from);
            let (d, a) = chain[..keep]
                .last()
                .map_or((f64::INFINITY, 0), |l| (l.dist, l.step as usize));
            dist.push(d);
            assign.push(a);
            kept.push(keep);
        }

        let mut centers = self.centers[..from].to_vec();
        let mut far = self.far[..from].to_vec();
        let (mut pick, mut top) = farthest(&dist, start);
        let mut fresh: Vec<(usize, Link)> = Vec::new();
        for t in from..m {
            far.push(top);
            centers.push(pick);
            let (i, d) = metric
                .relax(&self.points[pick], &self.points, &mut dist, &mut assign, t)
                .expect("a live point");
            for (slot, &a) in assign.iter().enumerate() {
                if a == t {
                    fresh.push((
                        slot,
                        Link {
                            step: t as u32,
                            dist: dist[slot],
                        },
                    ));
                }
            }
            // The relax's argmax is the first maximum in slot order;
            // the part lists the start first.
            (pick, top) = if dist[start] == d { (start, d) } else { (i, d) };
        }
        far.push(top);

        // Kept links, then the fresh ones, per slot in step order.
        let mut chain_at = Vec::with_capacity(slots + 1);
        let mut cursor = Vec::with_capacity(slots);
        chain_at.push(0);
        let mut count = kept.clone();
        for &(slot, _) in &fresh {
            count[slot] += 1;
        }
        for c in count {
            cursor.push(*chain_at.last().expect("seeded"));
            chain_at.push(chain_at.last().expect("seeded") + c);
        }
        let mut links = vec![Link { step: 0, dist: 0.0 }; *chain_at.last().expect("seeded")];
        for (slot, &keep) in kept.iter().enumerate() {
            let old = &self.chain(slot)[..keep];
            links[cursor[slot]..cursor[slot] + keep].copy_from_slice(old);
            cursor[slot] += keep;
        }
        for (slot, link) in fresh {
            links[cursor[slot]] = link;
            cursor[slot] += 1;
        }
        Resumed {
            flip,
            start,
            dist,
            chain_at,
            links,
            centers,
            far,
            next: pick,
            evals: ((m - from) * slots) as u64,
        }
    }

    /// Appends `point` and keeps the prefix current in one go (replay,
    /// rebuilds and tests; the pool splits the read and write halves).
    pub(crate) fn insert<M: Metric<P>>(&mut self, point: P, metric: &M) -> u64 {
        let probe = self.probe(&point, metric);
        let (id, slot) = self.append(point, &probe);
        if probe.resumes() {
            let resumed = self.resume_insert(slot, &probe, metric);
            self.publish(resumed);
        }
        id
    }

    /// Deletes `id` in one go; `false` when it was not alive.
    pub(crate) fn delete<M: Metric<P>>(&mut self, id: u64, metric: &M) -> bool {
        let removal = self.plan_delete(id, metric);
        let alive = !matches!(removal, Removal::Gone);
        self.remove(removal);
        alive
    }
}

impl<P: Clone + Sync> Prefix<P> {
    /// The alive ids and points, the start id and the next id: all a
    /// checkpoint keeps.
    pub(crate) fn export(&self) -> (Vec<u64>, Vec<P>, Option<u64>, u64) {
        let (ids, points) = self.alive().map(|(id, p)| (id, p.clone())).unzip();
        (ids, points, self.start_id(), self.next_id)
    }

    /// The core-set `two_round`'s round 1 extracts from this shard's
    /// part for `(problem, k, k')`, with ids as sources: the first
    /// `min(k', n)` centers (GMM-EXT adds each center's first `k - 1`
    /// cluster members in part order), radius `far[min(k', n)]`.
    ///
    /// # Panics
    /// Panics if the shard is empty or its prefix is shorter than
    /// `min(k', n)` ([`shortfall`](Self::shortfall)).
    pub(crate) fn coreset(&self, problem: Problem, k: usize, k_prime: usize) -> Coreset<P> {
        let steps = k_prime.min(self.live);
        assert!(steps > 0, "an empty shard has no core-set");
        assert!(steps <= self.steps(), "the prefix is too short");
        let kernel = &self.centers[..steps];
        let members = if problem.needs_injective_proxy() {
            self.clusters(kernel, k)
        } else {
            kernel.to_vec()
        };
        Coreset::unweighted(
            members.iter().map(|&s| self.points[s].clone()).collect(),
            members.iter().map(|&s| self.ids[s]).collect(),
            k_prime,
            self.far[steps],
        )
    }

    /// GMM-EXT's clusters for `kernel`: each center, then up to `k - 1`
    /// members assigned to it, in part order (`gmm_ext`'s rule).
    fn clusters(&self, kernel: &[usize], k: usize) -> Vec<usize> {
        let start = self.start.expect("alive points");
        let mut clusters: Vec<Vec<usize>> = kernel.iter().map(|&c| vec![c]).collect();
        let others = (0..self.ids.len()).filter(|&s| s != start && self.is_live(s));
        for slot in std::iter::once(start).chain(others) {
            let a = self.assignment(slot, kernel.len());
            if kernel[a] != slot && clusters[a].len() < k {
                clusters[a].push(slot);
            }
        }
        clusters.concat()
    }

    /// Checks the shard against a fresh [`gmm_plain`] from its start
    /// over its part: centers, insertion distances, every point's
    /// distance, assignment and chain, bit for bit. `O(n·m)`; test
    /// support.
    ///
    /// [`gmm_plain`]: diversity_core::gmm::gmm_plain
    ///
    /// # Panics
    /// Panics on the first disagreement.
    pub(crate) fn validate<M: Metric<P>>(&self, metric: &M) {
        let slots = self.ids.len();
        for v in [self.points.len(), self.dist.len(), self.chain_at.len() - 1] {
            assert_eq!(v, slots, "per-slot arrays disagree in length");
        }
        assert!(self.ids.windows(2).all(|w| w[0] < w[1]), "ids ascend");
        assert!(self.ids.last().is_none_or(|&id| id < self.next_id));
        let live: Vec<usize> = (0..slots).filter(|&s| self.is_live(s)).collect();
        assert_eq!(live.len(), self.live, "live count");
        let m = self.steps();
        assert_eq!(self.far.len(), m + 1, "far holds m + 1 distances");
        let Some(start) = self.start else {
            assert_eq!(self.live, 0, "alive points need a start");
            assert_eq!(m, 0);
            assert_eq!(self.next, None);
            return;
        };
        assert!(self.is_live(start), "the start is alive");
        assert!(m <= self.live, "m never exceeds the shard's size");
        let order: Vec<usize> = std::iter::once(start)
            .chain(live.iter().copied().filter(|&s| s != start))
            .collect();
        let part: Vec<P> = order.iter().map(|&s| self.points[s].clone()).collect();
        let bits = |v: &[f64]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
        let (dists, assignment) = if m == 0 {
            (vec![f64::INFINITY; part.len()], vec![0; part.len()])
        } else {
            let out = diversity_core::gmm::gmm_plain(&part, metric, m, 0, 1);
            let centers: Vec<usize> = out.selected.iter().map(|&i| order[i]).collect();
            assert_eq!(centers, self.centers, "centers");
            assert_eq!(bits(&out.insertion_dist), bits(&self.far[..m]), "far");
            (out.dist_to_centers, out.assignment)
        };
        for (i, &slot) in order.iter().enumerate() {
            assert_eq!(dists[i].to_bits(), self.dist[slot].to_bits(), "dist");
            assert_eq!(assignment[i], self.assignment(slot, m), "assignment");
            let mut chain = Vec::new();
            let mut r = f64::INFINITY;
            for (t, &c) in self.centers.iter().enumerate() {
                let d = metric.distance(&self.points[c], &self.points[slot]);
                if d < r {
                    r = d;
                    chain.push(Link {
                        step: t as u32,
                        dist: d,
                    });
                }
            }
            assert_eq!(chain, self.chain(slot), "chain of id {}", self.ids[slot]);
        }
        let i = metric::argmax(&dists).expect("alive points");
        assert_eq!(self.next, Some(order[i]), "next center");
        assert_eq!(self.far[m].to_bits(), dists[i].to_bits(), "far[m]");
    }
}

/// Keeps the slots `keep` marks, in order.
fn retain_slots<T>(v: &mut Vec<T>, keep: &[bool]) {
    let mut slot = 0;
    v.retain(|_| {
        slot += 1;
        keep[slot - 1]
    });
}

/// The argmax of `dist` in part order: the start first, then slot
/// order, ties to the earliest.
fn farthest(dist: &[f64], start: usize) -> (usize, f64) {
    let mut best = (start, dist[start]);
    for (slot, &d) in dist.iter().enumerate() {
        if d > best.1 {
            best = (slot, d);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use metric::{Euclidean, VecPoint};

    fn pt(x: f64, y: f64) -> VecPoint {
        VecPoint::from([x, y])
    }

    fn grown(points: &[VecPoint], m: usize) -> Prefix<VecPoint> {
        let mut shard = Prefix::new();
        for p in points {
            shard.insert(p.clone(), &Euclidean);
        }
        if let Some(target) = shard.shortfall(m) {
            let r = shard.extend(target, &Euclidean);
            shard.publish(r);
        }
        shard.validate(&Euclidean);
        shard
    }

    #[test]
    fn inserts_and_deletes_keep_the_traversal() {
        let pts: Vec<VecPoint> = (0..60)
            .map(|i| pt(((i * 37) % 23) as f64, ((i * 11) % 17) as f64))
            .collect();
        let mut shard = grown(&pts[..30], 8);
        for p in &pts[30..] {
            shard.insert(p.clone(), &Euclidean);
            shard.validate(&Euclidean);
        }
        for id in (0..60).step_by(3) {
            assert!(shard.delete(id, &Euclidean));
            shard.validate(&Euclidean);
        }
        assert!(!shard.delete(0, &Euclidean), "a dead id stays dead");
        assert_eq!(shard.len(), 40);
    }

    #[test]
    fn deleting_the_start_restarts_from_the_newest_point() {
        let pts: Vec<VecPoint> = (0..10).map(|i| pt(i as f64, 0.0)).collect();
        let mut shard = grown(&pts, 4);
        assert_eq!(shard.start_id(), Some(0));
        assert!(shard.delete(0, &Euclidean));
        assert_eq!(shard.start_id(), Some(9));
        shard.validate(&Euclidean);
    }

    #[test]
    fn the_prefix_shrinks_with_the_shard() {
        let pts = [pt(0.0, 0.0), pt(1.0, 0.0), pt(1.0, 0.0), pt(5.0, 0.0)];
        let mut shard = grown(&pts, 10);
        assert_eq!(shard.steps(), 4, "m is capped at the shard's size");
        for id in [2, 3, 1] {
            assert!(shard.delete(id, &Euclidean));
            shard.validate(&Euclidean);
        }
        assert_eq!(shard.steps(), 1);
        assert!(shard.delete(0, &Euclidean));
        assert_eq!(shard.len(), 0);
        shard.validate(&Euclidean);
        assert_eq!(
            shard.insert(pt(2.0, 2.0), &Euclidean),
            4,
            "ids never repeat"
        );
        shard.validate(&Euclidean);
    }

    #[test]
    fn compaction_keeps_the_traversal() {
        let pts: Vec<VecPoint> = (0..400)
            .map(|i| pt(((i * 7919) % 1009) as f64, ((i * 104_729) % 997) as f64))
            .collect();
        let mut shard = grown(&pts, 12);
        for id in 0..300 {
            shard.delete(id, &Euclidean);
        }
        assert!(shard.ids.len() < 400, "dead slots were compacted");
        shard.validate(&Euclidean);
    }
}
