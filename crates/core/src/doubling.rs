//! The doubling-algorithm phase machinery shared by the streaming
//! core-sets (SMM, SMM-EXT, SMM-GEN).
//!
//! This module owns the pieces that are common to every
//! threshold-at-scale construction in the workspace:
//!
//! * [`Payload`] — variant-specific per-center bookkeeping (nothing,
//!   delegate points, or delegate counts);
//! * [`DelegateSet`] / [`DelegateCount`] — the two non-trivial payloads
//!   (Theorem 2's delegates and Theorem 9's counts);
//! * [`Center`] — a point plus its payload;
//! * [`DoublingCore`] — the single-threshold phase machinery of the
//!   streaming doubling algorithm (Section 4).
//!
//! # The phase machinery
//!
//! State: a set `T` of at most `k'+1` centers, each carrying a
//! variant-specific payload, and a threshold `d_i`. One *phase* is:
//!
//! * **merge step**: build the graph on `T` with an edge wherever
//!   `d(t1, t2) ≤ 2d_i`, take a maximal independent set `I` (greedy in
//!   insertion order), fold each removed center's payload into a
//!   neighbour in `I`, and remember the removed centers in `M` (used by
//!   plain SMM to pad the final output to ≥ k points — the paper's
//!   modification of the classical algorithm);
//! * **update step**: a new point farther than `4d_i` from every center
//!   becomes a center; otherwise it is offered to its nearest center's
//!   payload (delegate set / count) or dropped. When `T` reaches
//!   `k'+1` centers the phase ends and `d_{i+1} = 2d_i`.
//!
//! The paper's invariants, checked by the property tests in
//! `diversity-streaming/tests/invariants.rs`:
//!
//! 1. every processed point is within `2d_{i+1}`… (running bound
//!    `r_T ≤ 4·d_ℓ` at the end, Lemma 3);
//! 2. distinct centers are at pairwise distance `≥ d_i`;
//! 3. `|T| ≤ k' + 1` at all times.
//!
//! # Degenerate inputs
//!
//! The classical algorithm assumes distinct points: with duplicates the
//! initial `d_1 = min pairwise` can be 0 and `d` would never grow. We
//! follow the standard fix of advancing the threshold to the smallest
//! *positive* pairwise center distance whenever doubling would leave it
//! at 0; exact duplicates then merge on the next phase.

use metric::{argmin, Metric};
use serde::{Deserialize, Serialize};

/// Variant-specific per-center bookkeeping.
///
/// Every hook receives the stream point's **arrival position** (0-based
/// index in the stream) alongside the point itself, so payloads that
/// retain points can retain their provenance too — which is how the
/// streaming substrate's [`crate::coreset::Coreset`] artifacts carry
/// real source indices without wrapping the point type (wrapping would
/// hide the metric's batched kernels behind scalar forwarding).
pub trait Payload<P>: Sized {
    /// Whether the update step must locate the *nearest* center for a
    /// covered point (to route the offer), or only decide coverage.
    /// Payloads that discard offers (plain SMM's `()`) set this to
    /// `false`, letting the update step use the early-exit
    /// [`Metric::distance_to_set_within`] membership check instead of
    /// a full nearest-center scan.
    const NEEDS_NEAREST: bool = true;

    /// Payload for a freshly promoted center that arrived at stream
    /// position `pos`.
    fn new_center(point: &P, pos: u64) -> Self;
    /// Folds `other` into `self` when `other`'s center is merged away
    /// (the paper's "inherit `min(|E_t1|, k − |E_t2|)` delegates").
    fn absorb(&mut self, other: Self, k: usize);
    /// Offers a non-center stream point (arrived at `pos`) to this
    /// center. Returns `true` if retained (delegate added / count
    /// bumped), `false` to discard.
    fn offer(&mut self, point: &P, pos: u64, k: usize) -> bool;
    /// Number of points this payload accounts for (center included).
    fn mass(&self) -> usize;
}

/// Payload for plain SMM: centers carry nothing.
impl<P> Payload<P> for () {
    const NEEDS_NEAREST: bool = false;

    fn new_center(_: &P, _: u64) -> Self {}
    fn absorb(&mut self, _: Self, _: usize) {}
    fn offer(&mut self, _: &P, _: u64, _: usize) -> bool {
        false
    }
    fn mass(&self) -> usize {
        1
    }
}

/// Delegate set `E_t` of a center: up to `k` points including the
/// center itself — the bookkeeping of SMM-EXT (Theorem 2).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DelegateSet<P> {
    delegates: Vec<P>,
    /// Stream arrival positions, in lockstep with `delegates`.
    positions: Vec<u64>,
}

impl<P> DelegateSet<P> {
    /// The retained delegate points, center first.
    pub fn delegates(&self) -> &[P] {
        &self.delegates
    }

    /// The delegates' stream arrival positions, aligned with
    /// [`delegates`](Self::delegates).
    pub fn positions(&self) -> &[u64] {
        &self.positions
    }

    /// Consumes the set, yielding the delegate points.
    pub fn into_delegates(self) -> Vec<P> {
        self.delegates
    }

    /// Consumes the set, yielding `(points, arrival positions)`.
    pub fn into_indexed_delegates(self) -> (Vec<P>, Vec<u64>) {
        (self.delegates, self.positions)
    }
}

impl<P: Clone> Payload<P> for DelegateSet<P> {
    fn new_center(point: &P, pos: u64) -> Self {
        Self {
            delegates: vec![point.clone()],
            positions: vec![pos],
        }
    }

    /// Merge-step inheritance. The paper's text says the surviving set
    /// inherits "max{|E_t1|, k − |E_t2|}" points — read as `min` (one
    /// cannot inherit more points than `E_t1` holds nor beyond the cap
    /// `k`); the surrounding proofs (Lemma 4) only need that full sets
    /// stay full and mass is preserved up to the cap.
    fn absorb(&mut self, other: Self, k: usize) {
        let room = k.saturating_sub(self.delegates.len());
        self.delegates
            .extend(other.delegates.into_iter().take(room));
        self.positions
            .extend(other.positions.into_iter().take(room));
    }

    fn offer(&mut self, point: &P, pos: u64, k: usize) -> bool {
        if self.delegates.len() < k {
            self.delegates.push(point.clone());
            self.positions.push(pos);
            true
        } else {
            false
        }
    }

    fn mass(&self) -> usize {
        self.delegates.len()
    }
}

/// Count payload: how many stream points this center stands for
/// (capped at `k`, itself included) — the bookkeeping of SMM-GEN
/// (Section 6.1, first pass of Theorem 9).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct DelegateCount {
    count: usize,
}

impl DelegateCount {
    /// The retained count.
    pub fn count(&self) -> usize {
        self.count
    }
}

impl<P> Payload<P> for DelegateCount {
    fn new_center(_: &P, _: u64) -> Self {
        Self { count: 1 }
    }

    fn absorb(&mut self, other: Self, k: usize) {
        self.count = (self.count + other.count).min(k);
    }

    fn offer(&mut self, _: &P, _: u64, k: usize) -> bool {
        if self.count < k {
            self.count += 1;
            true
        } else {
            false
        }
    }

    fn mass(&self) -> usize {
        1 // only the center is resident; the count is O(1) memory
    }
}

/// A center, its payload, and its stream arrival position.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Center<P, Y> {
    pub point: P,
    pub payload: Y,
    /// 0-based arrival position of the center's own point.
    pub pos: u64,
}

/// Everything [`DoublingCore::finish`] hands back at stream end.
#[derive(Clone, Debug)]
pub struct FinishedCore<P, Y> {
    /// The final centers, payloads and arrival positions included.
    pub centers: Vec<Center<P, Y>>,
    /// Centers removed by the final phase's merges (SMM's `M`).
    pub removed: Vec<P>,
    /// Arrival positions of `removed`, in lockstep.
    pub removed_positions: Vec<u64>,
    /// Final threshold `d_ℓ`; every processed point is within
    /// `4·d_ℓ` of the centers (Lemma 3's `r_T ≤ 4 d_ℓ`).
    pub final_threshold: f64,
    /// Number of completed phases.
    pub phases: usize,
}

/// The shared doubling-algorithm state. `k` is the solution size
/// (delegate cap), `k_prime` the center budget.
///
/// The state is (de)serializable — everything a long-running streaming
/// job needs to checkpoint and resume lives here (the metric is
/// supplied again at restore time; see the `Smm*::resume` helpers in
/// `diversity-streaming`).
///
/// **Checkpoint format note:** the batched-kernel work added the
/// `center_points` mirror and `scratch` buffer to the serialized
/// state, and the composable-coreset work added arrival-position
/// provenance (`Center::pos`, `DelegateSet::positions`,
/// `removed_positions`), so checkpoints written before those changes
/// do not deserialize (the vendored serde stand-in has no
/// field-skip/default support to paper over it). Checkpoints are
/// versioned with the binary: replay the stream once after upgrading.
/// A `#[serde(default)]`-style self-heal is the upgrade path if
/// cross-version resume ever becomes a requirement.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DoublingCore<P, Y> {
    k: usize,
    k_prime: usize,
    /// Current distance threshold `d_i`; `None` until the first
    /// `k'+1` points have arrived (initialization).
    threshold: Option<f64>,
    centers: Vec<Center<P, Y>>,
    /// Mirror of `centers[i].point`, kept in lockstep so the per-point
    /// update step can run through the `&[P]` batch hooks
    /// ([`Metric::distance_many`] / [`Metric::distance_to_set_within`])
    /// instead of one scalar call per center. Centers mutate rarely
    /// (promotions and merges), points arrive constantly — the mirror
    /// trades `O(|T|)` occasional clones for a vectorizable hot loop.
    center_points: Vec<P>,
    /// Centers removed by merge steps of the *current* phase.
    removed: Vec<P>,
    /// Arrival positions of `removed`, in lockstep.
    removed_positions: Vec<u64>,
    phases: usize,
    points_seen: usize,
    /// Reusable distance buffer for the nearest-center batch scan
    /// (contents are transient; serialized only because the derive
    /// stand-in has no field-skip support, and harmless to restore).
    scratch: Vec<f64>,
}

impl<P: Clone, Y: Payload<P>> DoublingCore<P, Y> {
    /// Creates an empty state.
    ///
    /// # Panics
    /// Panics unless `k >= 1` and `k_prime >= k`.
    pub fn new(k: usize, k_prime: usize) -> Self {
        assert!(k >= 1, "k must be positive");
        assert!(k_prime >= k, "k' must be at least k");
        // The reservation is only a warm-up optimization: resident
        // centers are bounded by min(k'+1, points seen), so a huge k'
        // (theory-driven sizing can produce astronomical values) must
        // not translate into a huge upfront allocation — growth beyond
        // the cap is amortized as centers actually appear.
        let reserve = k_prime.saturating_add(1).min(1 << 16);
        Self {
            k,
            k_prime,
            threshold: None,
            centers: Vec::with_capacity(reserve),
            center_points: Vec::with_capacity(reserve),
            removed: Vec::new(),
            removed_positions: Vec::new(),
            phases: 0,
            points_seen: 0,
            scratch: Vec::new(),
        }
    }

    /// Number of stream points consumed so far.
    pub fn points_seen(&self) -> usize {
        self.points_seen
    }

    /// Number of completed phases.
    pub fn phases(&self) -> usize {
        self.phases
    }

    /// The solution-size parameter `k` this state was created with.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The center budget `k'` this state was created with.
    pub fn k_prime(&self) -> usize {
        self.k_prime
    }

    /// The current threshold `d_i` (0 until initialization completes).
    pub fn threshold(&self) -> f64 {
        self.threshold.unwrap_or(0.0)
    }

    /// Upper bound on `max_p d(p, T)` over all processed points:
    /// `4·d_i` (Lemma 3's `r_T ≤ 4 d_ℓ`).
    pub fn radius_bound(&self) -> f64 {
        4.0 * self.threshold()
    }

    /// Current centers.
    pub fn centers(&self) -> &[Center<P, Y>] {
        &self.centers
    }

    /// Centers removed by merges in the current phase (SMM's `M`).
    pub fn removed(&self) -> &[P] {
        &self.removed
    }

    /// Arrival positions of [`removed`](Self::removed), in lockstep.
    pub fn removed_positions(&self) -> &[u64] {
        &self.removed_positions
    }

    /// Number of points currently resident (centers + removed + payload
    /// delegates) — the quantity Table 3's memory bounds govern.
    pub fn memory_points(&self) -> usize {
        self.removed.len() + self.centers.iter().map(|c| c.payload.mass()).sum::<usize>()
    }

    /// Processes one stream point.
    pub fn push<M: Metric<P>>(&mut self, point: P, metric: &M) {
        let pos = self.points_seen as u64;
        self.points_seen += 1;

        if self.threshold.is_none() {
            // Initialization: the first k'+1 points all become centers.
            self.add_center(point, pos);
            if self.centers.len() == self.k_prime + 1 {
                // d_1 = min pairwise distance among the initial centers.
                let d1 = self.min_pairwise(metric).unwrap_or(0.0);
                self.threshold = Some(d1);
                self.begin_phase(metric);
            }
            return;
        }

        // Update step: promote iff farther than 4·d_i from every
        // center; otherwise the point is covered and is offered to a
        // center's payload (or dropped).
        let d_i = self.threshold.expect("initialized");
        let limit = 4.0 * d_i;
        let covered = if Y::NEEDS_NEAREST {
            // Route the offer to the nearest center: one batched
            // distance pass over the center mirror, then an argmin
            // (first-minimum, like the scalar scan it replaces).
            self.scratch.resize(self.center_points.len(), 0.0);
            metric.distance_many(&point, &self.center_points, &mut self.scratch);
            let (nearest, dist) = argmin(&self.scratch).expect("centers are non-empty");
            if dist <= limit {
                let retained = self.centers[nearest].payload.offer(&point, pos, self.k);
                let _ = retained;
                true
            } else {
                false
            }
        } else {
            // Coverage-only payloads: the early-exit membership check
            // stops at the first center within range.
            metric.distance_to_set_within(&point, &self.center_points, limit)
        };
        if !covered {
            self.add_center(point, pos);
            if self.centers.len() == self.k_prime + 1 {
                // Phase ends: double the threshold and merge.
                self.advance_threshold(metric);
                self.begin_phase(metric);
            }
        }
    }

    /// Appends a center, keeping the point mirror in lockstep.
    fn add_center(&mut self, point: P, pos: u64) {
        let payload = Y::new_center(&point, pos);
        self.center_points.push(point.clone());
        self.centers.push(Center {
            point,
            payload,
            pos,
        });
    }

    /// Ends the stream, returning the final state — centers (with
    /// payloads and arrival positions), the removed-set `M` with its
    /// positions, the final threshold, and the phase count.
    pub fn finish(self) -> FinishedCore<P, Y> {
        if diversity_obs::enabled() {
            diversity_obs::count("stream.points", self.points_seen as u64);
            diversity_obs::count("stream.centers", self.centers.len() as u64);
        }
        FinishedCore {
            final_threshold: self.threshold.unwrap_or(0.0),
            centers: self.centers,
            removed: self.removed,
            removed_positions: self.removed_positions,
            phases: self.phases,
        }
    }

    /// Doubles the threshold, or advances it to the smallest positive
    /// pairwise distance when doubling would leave it at 0 (duplicate
    /// points in the initial buffer — see module docs).
    fn advance_threshold<M: Metric<P>>(&mut self, metric: &M) {
        let d = self.threshold.expect("initialized");
        let next = if d > 0.0 {
            2.0 * d
        } else {
            self.min_positive_pairwise(metric).unwrap_or(0.0)
        };
        self.threshold = Some(next);
    }

    /// Merge step, repeated with threshold doubling until room exists.
    fn begin_phase<M: Metric<P>>(&mut self, metric: &M) {
        loop {
            self.phases += 1;
            // Phase-boundary telemetry only: the per-point update step
            // stays untouched, and the serialized checkpoint shape is
            // unchanged (observability is derived, never persisted).
            let before = self.centers.len();
            if diversity_obs::enabled() {
                diversity_obs::count("stream.phases", 1);
                diversity_obs::observe("stream.phase.centers", before as u64);
            }
            self.removed.clear();
            self.removed_positions.clear();
            self.merge_step(metric);
            if diversity_obs::enabled() {
                diversity_obs::count("stream.merges", 1);
                diversity_obs::count(
                    "stream.merged_centers",
                    (before - self.centers.len()) as u64,
                );
            }
            if self.centers.len() <= self.k_prime {
                return;
            }
            // All centers pairwise > 2d_i: double and merge again.
            self.advance_threshold(metric);
        }
    }

    /// Greedy maximal independent set on the `≤ 2d_i` graph; removed
    /// centers fold their payloads into an adjacent survivor.
    fn merge_step<M: Metric<P>>(&mut self, metric: &M) {
        let d_i = self.threshold.expect("initialized");
        let limit = 2.0 * d_i;
        let old = std::mem::take(&mut self.centers);
        let mut kept: Vec<Center<P, Y>> = Vec::with_capacity(old.len());
        for cand in old {
            // First kept center within the merge radius absorbs it.
            let home = kept
                .iter()
                .position(|kc| metric.distance(&kc.point, &cand.point) <= limit);
            match home {
                Some(survivor) => {
                    self.removed.push(cand.point.clone());
                    self.removed_positions.push(cand.pos);
                    kept[survivor].payload.absorb(cand.payload, self.k);
                }
                None => kept.push(cand),
            }
        }
        self.centers = kept;
        self.center_points = self.centers.iter().map(|c| c.point.clone()).collect();
    }

    fn min_pairwise<M: Metric<P>>(&self, metric: &M) -> Option<f64> {
        let mut best: Option<f64> = None;
        for i in 1..self.centers.len() {
            for j in 0..i {
                let d = metric.distance(&self.centers[i].point, &self.centers[j].point);
                best = Some(best.map_or(d, |b: f64| b.min(d)));
            }
        }
        best
    }

    fn min_positive_pairwise<M: Metric<P>>(&self, metric: &M) -> Option<f64> {
        let mut best: Option<f64> = None;
        for i in 1..self.centers.len() {
            for j in 0..i {
                let d = metric.distance(&self.centers[i].point, &self.centers[j].point);
                if d > 0.0 {
                    best = Some(best.map_or(d, |b: f64| b.min(d)));
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metric::{Euclidean, VecPoint};

    fn feed(core: &mut DoublingCore<VecPoint, ()>, xs: &[f64]) {
        for &x in xs {
            core.push(VecPoint::from([x]), &Euclidean);
        }
    }

    #[test]
    fn initialization_buffers_k_prime_plus_one() {
        let mut core: DoublingCore<VecPoint, ()> = DoublingCore::new(2, 3);
        feed(&mut core, &[0.0, 10.0, 20.0]);
        assert_eq!(core.threshold(), 0.0, "still initializing");
        assert_eq!(core.centers().len(), 3);
        feed(&mut core, &[30.0]);
        assert!(core.threshold() > 0.0, "initialized after k'+1 points");
    }

    #[test]
    fn center_budget_respected() {
        let mut core: DoublingCore<VecPoint, ()> = DoublingCore::new(2, 3);
        feed(
            &mut core,
            &(0..200).map(|i| i as f64 * 7.3).collect::<Vec<_>>(),
        );
        assert!(core.centers().len() <= 4, "|T| must stay <= k'+1");
    }

    #[test]
    fn pairwise_separation_invariant() {
        let mut core: DoublingCore<VecPoint, ()> = DoublingCore::new(2, 4);
        feed(
            &mut core,
            &(0..300)
                .map(|i| ((i * 37) % 101) as f64 * 1.7)
                .collect::<Vec<_>>(),
        );
        let d = core.threshold();
        let pts: Vec<&VecPoint> = core.centers().iter().map(|c| &c.point).collect();
        for i in 1..pts.len() {
            for j in 0..i {
                assert!(
                    Euclidean.distance(pts[i], pts[j]) >= d - 1e-12,
                    "centers closer than d_i"
                );
            }
        }
    }

    #[test]
    fn all_points_covered_within_radius_bound() {
        let xs: Vec<f64> = (0..500).map(|i| ((i * 53) % 211) as f64).collect();
        let mut core: DoublingCore<VecPoint, ()> = DoublingCore::new(3, 5);
        feed(&mut core, &xs);
        let bound = core.radius_bound();
        let centers: Vec<VecPoint> = core.centers().iter().map(|c| c.point.clone()).collect();
        // Coverage uses centers ∪ removed (removed only covers its own
        // phase; the 4d bound still holds against current centers).
        for &x in &xs {
            let p = VecPoint::from([x]);
            let d = Euclidean.distance_to_set(&p, &centers);
            assert!(
                d <= bound + 1e-9,
                "point {x} at distance {d} > bound {bound}"
            );
        }
    }

    #[test]
    fn duplicates_do_not_hang() {
        let mut core: DoublingCore<VecPoint, ()> = DoublingCore::new(2, 3);
        feed(
            &mut core,
            &[1.0, 1.0, 1.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0],
        );
        assert!(core.centers().len() <= 4);
        assert!(core.points_seen() == 10);
    }

    #[test]
    fn short_stream_keeps_everything() {
        let mut core: DoublingCore<VecPoint, ()> = DoublingCore::new(2, 10);
        feed(&mut core, &[0.0, 5.0, 9.0]);
        assert_eq!(core.centers().len(), 3);
        let fin = core.finish();
        assert_eq!(fin.centers.len(), 3);
        assert!(fin.removed.is_empty());
        assert!(fin.removed_positions.is_empty());
        assert_eq!(fin.final_threshold, 0.0);
        assert_eq!(fin.phases, 0);
    }

    #[test]
    fn delegate_set_caps_at_k() {
        let p = VecPoint::from([0.0]);
        let mut set: DelegateSet<VecPoint> = DelegateSet::new_center(&p, 0);
        for i in 0..10 {
            set.offer(&VecPoint::from([i as f64]), i + 1, 4);
        }
        assert_eq!(set.mass(), 4);
        assert_eq!(set.delegates().len(), 4);
        // Positions stay in lockstep: the center's own, then the first
        // three retained offers.
        assert_eq!(set.positions(), &[0, 1, 2, 3]);
    }

    #[test]
    fn delegate_count_caps_at_k() {
        let p = VecPoint::from([0.0]);
        let mut count: DelegateCount = <DelegateCount as Payload<VecPoint>>::new_center(&p, 0);
        for i in 0..10 {
            <DelegateCount as Payload<VecPoint>>::offer(
                &mut count,
                &VecPoint::from([i as f64]),
                i + 1,
                4,
            );
        }
        assert_eq!(count.count(), 4);
        let other = count;
        <DelegateCount as Payload<VecPoint>>::absorb(&mut count, other, 6);
        assert_eq!(count.count(), 6, "absorb caps at k");
    }

    #[test]
    fn center_positions_are_arrival_positions() {
        let xs: Vec<f64> = (0..300).map(|i| ((i * 37) % 101) as f64 * 1.3).collect();
        let mut core: DoublingCore<VecPoint, ()> = DoublingCore::new(3, 5);
        feed(&mut core, &xs);
        let fin = core.finish();
        for c in &fin.centers {
            assert_eq!(
                c.point,
                VecPoint::from([xs[c.pos as usize]]),
                "center position must recover the stream item"
            );
        }
        for (p, &pos) in fin.removed.iter().zip(&fin.removed_positions) {
            assert_eq!(
                p,
                &VecPoint::from([xs[pos as usize]]),
                "removed position must recover the stream item"
            );
        }
    }
}
