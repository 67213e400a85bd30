//! GMM: the Gonzalez farthest-point traversal.
//!
//! `GMM(S, k)` greedily grows a set `T`, starting from an arbitrary
//! point and repeatedly adding the point of `S \ T` farthest from `T`.
//! Classical facts the paper builds on (Section 3):
//!
//! * `r_T ≤ 2 r*_k` — 2-approximation for k-center (Gonzalez'85);
//! * the *anticover* property `r_T ≤ ρ_T`: every prefix's range is at
//!   most its farness, because each added point was at distance ≥ the
//!   current radius from all previous ones;
//! * hence `r*_k ≤ ρ*_k` (Fact 1), tying the k-center range to the
//!   remote-edge optimum;
//! * the k-prefix of a GMM run is a 2-approximation for remote-edge, and
//!   (Halldórsson et al.'99) a 4- and 3-approximation for remote-tree
//!   and remote-cycle respectively.
//!
//! The plain loop is the standard `O(n·k)` one: maintain each point's
//! distance to the nearest selected center and scan for the maximum.
//! Two layers make that hot loop run at hardware speed:
//!
//! * the relax step goes through the [`Metric::relax`] batch hook, so
//!   coordinate metrics use their vectorized, root-eliding kernels;
//! * above [`metric::par::PAR_MIN_WORK`] points the relax+argmax pass
//!   is chunked across scoped threads ([`gmm_plain`]), with the
//!   per-chunk argmaxes combined in chunk order so the result is
//!   **bit-identical** to the sequential traversal — same selection
//!   order, same tie-breaks, same assignments, same distances
//!   (enforced by `tests/parallel_gmm.rs`).
//!
//! # The block path
//!
//! At low dimension and large `k` most of those `n·k` pairs cannot
//! change anything: a point far from the new center keeps its
//! distance. The block path evaluates only the pairs that can. One gate
//! in [`gmm_with_threads`], which [`gmm`], the core-set builders, the
//! sequential pipeline and every MapReduce reducer reach, decides from
//! the input alone whether it runs:
//!
//! * `n ≥ 16,384` points and `min(k, n) ≥ 128` centers, and
//! * the metric hands over a locality-ordered copy
//!   ([`Metric::locality_copy`]) of points of dimension `≤ 3`. Only
//!   `Euclidean` on `VecPoint` does, and only for finite coordinates.
//!
//! Everything else keeps the plain loop: other metrics and point
//! types, higher dimensions, small `k` (the remote-clique job's
//! `k' = 32`) and the serving path's small unions. The block path runs
//! single-threaded whatever thread count it is handed: inside MapReduce
//! reducers the runtime's threads already fill the host.
//!
//! **The traversal.** The copy is sorted along a Morton curve and cut
//! into runs of 64 consecutive points. Each run has a pivot (its middle
//! member), a radius `r` (the largest computed distance from the pivot
//! to a member) and a maximum `m` (the largest current distance of a
//! member to the selected centers). For each new center `c` a run is
//! skipped when, in computed distances and evaluated left to right,
//!
//! ```text
//! d(c, pivot) − r − m  >  1e-9 · (d(c, pivot) + r + m) + 1e-150
//! ```
//!
//! and every other run relaxes through [`Metric::relax`]. The next
//! center is a point at the largest `m` with the smallest *input*
//! index, the plain loop's first-maximum rule; only runs whose `m` is
//! the largest are scanned for it.
//!
//! **Why the outcome is bit-identical to the plain loop** (enforced by
//! the workspace test `tests/block_gmm.rs`, which calls [`gmm_plain`]
//! as its oracle). Relaxation is element-wise, so it suffices that a
//! skipped run has no member `q` whose computed `d̂(c, q)` is below its
//! current distance, which is at most `m`. Write `a = d̂(c, pivot)`,
//! `b = r`, `S = a + b + m`, and `δ` for the relative rounding error of
//! a computed distance (below `(d/2 + 2)·ε` for a `d`-dimensional
//! Euclidean one, `ε = 2⁻⁵³`). The triangle inequality on true
//! distances gives `d(c, q) ≥ d(c, pivot) − d(pivot, q)`, hence
//! `d̂(c, q) ≥ a − b − 2δ·a` to first order, while the test's own
//! subtractions err by at most `2ε·S`. So a passed test leaves
//! `d̂(c, q) − m ≥ (1e-9 − 2δ − 3ε)·S > 0`: the relax would not have
//! moved `q`. The slack must scale with `S`, not with `m` alone: when
//! `r ≈ d(c, pivot) ≫ m` the subtraction `a − b` cancels, and its
//! error, relative to `a`, exceeds any margin relative to `m`. Squares
//! in the subnormal range round with an absolute error instead, at most
//! about `√d·2⁻⁵³⁷` in a distance, which the `1e-150` term covers. A
//! test with an infinite or NaN term never passes, so no run is
//! skipped before it has a finite maximum.
//!
//! **The record behind the gate.** One 125,215-point part of the
//! `batch-mr` benchmark's input (`sphere_shell(1_000_000, 32, d, 7)`
//! split by `split_random(.., 8, 7)`, copied), one thread, medians of 5
//! alternating runs on a shared 2-vCPU Intel Xeon (AVX2) host. The
//! block path's time includes its sort and copy. Each cell is its
//! speed-up over the plain loop, then the share of the `n·k` pairs it
//! relaxed:
//!
//! | d | k = 32 | k = 64 | k = 128 | k = 256 |
//! |---|---|---|---|---|
//! | 2 | 0.75× · 14.0 % | 1.29× · 9.3 % | 2.10× · 6.3 % | 3.40× · 4.4 % |
//! | 3 | 0.65× · 25.1 % | 1.04× · 18.7 % | 1.76× · 14.1 % | 2.63× · 11.0 % |
//! | 4 | 0.37× · 42.1 % | 0.65× · 34.1 % | 0.93× · 28.4 % | 1.56× · 22.9 % |
//! | 8 | 0.45× · 99.3 % | 0.62× · 98.5 % | 0.74× · 96.7 % | 0.84× · 93.8 % |
//!
//! At d = 3 the first 16,384 points of that part give 1.17×, 1.55× and
//! 2.16× at k = 64, 128 and 256 (8,192 points: 1.03×, 1.45×, 1.63×).
//! The whole input (n = 1M, d = 3), the shape of a sequential run,
//! against the plain loop on 2 threads: 2.61× at k = 128 and 3.95× at
//! k = 256, relaxing 5.0 % of the pairs. d = 4 gains only at k = 256,
//! which no workload runs, so the gate stops at d = 3.

use metric::{par, Metric};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};

/// The result of a farthest-point traversal.
#[derive(Clone, Debug)]
pub struct GmmOutcome {
    /// Selected point indices, in insertion order. `selected[0]` is the
    /// starting point.
    pub selected: Vec<usize>,
    /// `insertion_dist[j]` = distance from `selected[j]` to
    /// `{selected[0..j]}` at the moment of insertion (`d_j` in Lemma 5's
    /// notation). `insertion_dist[0] = f64::INFINITY`. This sequence is
    /// non-increasing, and for every prefix `T(j)`:
    /// `r_T(j) ≤ insertion_dist[j] ≤ ρ_T(j)`.
    pub insertion_dist: Vec<f64>,
    /// For every input point, the index *into `selected`* of its nearest
    /// selected center (ties to the earliest-inserted center, matching
    /// Algorithm 1's cluster definition `C_j`).
    pub assignment: Vec<usize>,
    /// For every input point, its distance to the nearest selected
    /// center. `max(dist_to_centers)` is the range `r_T` of the final
    /// selection.
    pub dist_to_centers: Vec<f64>,
}

impl GmmOutcome {
    /// The range `r_T = max_{p∈S} d(p, T)` of the final selection.
    pub fn radius(&self) -> f64 {
        self.dist_to_centers.iter().copied().fold(0.0, f64::max)
    }
}

/// Runs the farthest-point traversal from `points[start]`, selecting
/// `min(k, n)` points. `O(n·k)` distance evaluations at most, `O(n)`
/// memory. Takes the block path where the gate admits the input (see
/// the module docs), else parallelizes the plain loop across
/// [`metric::par::auto_threads`] threads on large inputs; the outcome
/// is identical either way and for every thread count.
///
/// # Panics
/// Panics if `points` is empty, `k == 0`, or `start >= points.len()`.
pub fn gmm<P: Sync, M: Metric<P>>(points: &[P], metric: &M, k: usize, start: usize) -> GmmOutcome {
    gmm_with_threads(points, metric, k, start, par::auto_threads(points.len()))
}

/// [`gmm`] with an explicit thread count for the plain loop
/// (`threads <= 1` runs it sequentially). The block path ignores
/// `threads`: it runs single-threaded wherever the gate admits the
/// input. Exposed for the kernel benches; library callers should
/// prefer [`gmm`], which applies the sequential fallback below the
/// parallel threshold.
pub fn gmm_with_threads<P: Sync, M: Metric<P>>(
    points: &[P],
    metric: &M,
    k: usize,
    start: usize,
    threads: usize,
) -> GmmOutcome {
    check_args(points.len(), k, start);
    let k = k.min(points.len());
    let ordered = if gate_admits(points.len(), k) {
        metric.locality_copy(points, BLOCK_MAX_DIM)
    } else {
        None
    };
    match ordered {
        Some((ordered, order)) => blocks(&ordered, &order, metric, k, start),
        None => plain(points, metric, k, start, threads),
    }
}

/// Whether [`gmm`] over `points` with `k` centers takes the block
/// path, judged from the input's size and its first point: a caller
/// that copies its input for locality (the MapReduce reducers) need not
/// when GMM makes its own ordered copy. A non-finite coordinate further
/// in still sends [`gmm`] to the plain loop.
pub fn takes_block_path<P, M: Metric<P>>(points: &[P], metric: &M, k: usize) -> bool {
    gate_admits(points.len(), k) && metric.locality_copy(&points[..1], BLOCK_MAX_DIM).is_some()
}

/// The gate's size thresholds; [`BLOCK_MAX_DIM`] is the third.
fn gate_admits(n: usize, k: usize) -> bool {
    n >= BLOCK_MIN_POINTS && k.min(n) >= BLOCK_MIN_CENTERS
}

/// The plain loop, whatever the gate says: the oracle the block path
/// is tested against. `threads <= 1` runs it sequentially.
///
/// # Panics
/// Panics if `points` is empty, `k == 0`, or `start >= points.len()`.
pub fn gmm_plain<P: Sync, M: Metric<P>>(
    points: &[P],
    metric: &M,
    k: usize,
    start: usize,
    threads: usize,
) -> GmmOutcome {
    check_args(points.len(), k, start);
    plain(points, metric, k.min(points.len()), start, threads)
}

/// The block path, whatever the gate's thresholds say: `None` if the
/// metric hands over no ordered copy ([`Metric::locality_copy`], at
/// any dimension). Its outcome equals [`gmm_plain`]'s bit for bit.
///
/// # Panics
/// Panics if `points` is empty, `k == 0`, or `start >= points.len()`.
pub fn gmm_blocked<P: Sync, M: Metric<P>>(
    points: &[P],
    metric: &M,
    k: usize,
    start: usize,
) -> Option<GmmOutcome> {
    check_args(points.len(), k, start);
    let (ordered, order) = metric.locality_copy(points, usize::MAX)?;
    Some(blocks(&ordered, &order, metric, k.min(points.len()), start))
}

fn check_args(n: usize, k: usize, start: usize) {
    assert!(n > 0, "GMM requires a non-empty input");
    assert!(k > 0, "GMM requires k > 0");
    assert!(start < n, "start index out of range");
}

fn record(k: usize, relaxed: u64) {
    if diversity_obs::enabled() {
        diversity_obs::count("gmm.runs", 1);
        diversity_obs::count("gmm.rounds", k as u64);
        diversity_obs::count("gmm.relaxations", relaxed);
    }
}

fn plain<P: Sync, M: Metric<P>>(
    points: &[P],
    metric: &M,
    k: usize,
    start: usize,
    threads: usize,
) -> GmmOutcome {
    let span = diversity_obs::span("gmm.run_ns");
    let out = if threads > 1 {
        gmm_parallel(points, metric, k, start, threads)
    } else {
        gmm_sequential(points, metric, k, start)
    };
    drop(span);
    record(k, (k as u64).saturating_mul(points.len() as u64));
    out
}

fn gmm_sequential<P, M: Metric<P>>(points: &[P], metric: &M, k: usize, start: usize) -> GmmOutcome {
    let n = points.len();
    let mut selected = Vec::with_capacity(k);
    let mut insertion_dist = Vec::with_capacity(k);
    let mut assignment = vec![0usize; n];
    let mut dist_to_centers = vec![f64::INFINITY; n];

    let mut next = start;
    let mut next_dist = f64::INFINITY;
    for _ in 0..k {
        let c = next;
        selected.push(c);
        insertion_dist.push(next_dist);
        let cj = selected.len() - 1;
        // Relax distances against the new center via the batch hook
        // (bitwise-identical to the scalar loop; strict `<` keeps ties
        // assigned to the earliest center, as Algorithm 1 requires).
        // The hook returns the farthest survivor — the next candidate —
        // saving the separate argmax sweep over `dist_to_centers`.
        let (far, far_dist) = metric
            .relax(
                &points[c],
                points,
                &mut dist_to_centers,
                &mut assignment,
                cj,
            )
            .expect("non-empty input");
        next = far;
        next_dist = far_dist;
    }

    GmmOutcome {
        selected,
        insertion_dist,
        assignment,
        dist_to_centers,
    }
}

/// The parallel traversal: one scoped worker per contiguous chunk,
/// kept alive across all `k` rounds (spawning per round would pay the
/// fork cost `k` times). Each round the coordinator publishes the new
/// center, a barrier releases the workers to relax their chunk and
/// compute its local `(argmax, max)`, a second barrier hands control
/// back, and the coordinator folds the chunk results *in chunk order*
/// with a strict `>` — which reproduces the sequential global argmax's
/// first-max-wins tie-break exactly. Relaxation is element-wise (the
/// [`Metric::relax`] contract), so chunking cannot change any value.
fn gmm_parallel<P: Sync, M: Metric<P>>(
    points: &[P],
    metric: &M,
    k: usize,
    start: usize,
    threads: usize,
) -> GmmOutcome {
    let n = points.len();
    let ranges = par::split_ranges(n, threads);
    let workers = ranges.len();

    let mut assignment = vec![0usize; n];
    let mut dist_to_centers = vec![f64::INFINITY; n];
    let mut selected = Vec::with_capacity(k);
    let mut insertion_dist = Vec::with_capacity(k);

    // Round state: the current center, published before the start
    // barrier; per-worker (argmax, max) slots, read after the finish
    // barrier. Barriers provide the happens-before edges. `aborted` is
    // the panic escape hatch: a worker whose relax panics would
    // otherwise skip its barrier waits and deadlock every other party,
    // so panics are caught, flagged before the finish barrier, and
    // every participant breaks at the same round boundary — the scope
    // then re-raises the original payload at join, matching the
    // sequential path's clean panic.
    let center = AtomicUsize::new(start);
    let aborted = std::sync::atomic::AtomicBool::new(false);
    let start_barrier = Barrier::new(workers + 1);
    let finish_barrier = Barrier::new(workers + 1);
    let locals: Vec<Mutex<(usize, f64)>> = (0..workers).map(|_| Mutex::new((0, 0.0))).collect();

    std::thread::scope(|s| {
        let mut dist_rest: &mut [f64] = &mut dist_to_centers;
        let mut assign_rest: &mut [usize] = &mut assignment;
        for (w, range) in ranges.iter().enumerate() {
            let (dist_chunk, dist_tail) = dist_rest.split_at_mut(range.len());
            let (assign_chunk, assign_tail) = assign_rest.split_at_mut(range.len());
            dist_rest = dist_tail;
            assign_rest = assign_tail;
            let chunk_points = &points[range.clone()];
            let lo = range.start;
            let (center, locals, aborted) = (&center, &locals, &aborted);
            let (start_barrier, finish_barrier) = (&start_barrier, &finish_barrier);
            s.spawn(move || {
                let dist_chunk = dist_chunk;
                let assign_chunk = assign_chunk;
                for cj in 0..k {
                    start_barrier.wait();
                    let round = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let c = center.load(Ordering::SeqCst);
                        let (local_far, local_dist) = metric
                            .relax(&points[c], chunk_points, dist_chunk, assign_chunk, cj)
                            .expect("chunks are non-empty");
                        *locals[w].lock().expect("no poisoning") = (lo + local_far, local_dist);
                    }));
                    if round.is_err() {
                        aborted.store(true, Ordering::SeqCst);
                    }
                    finish_barrier.wait();
                    if aborted.load(Ordering::SeqCst) {
                        if let Err(payload) = round {
                            std::panic::resume_unwind(payload);
                        }
                        return;
                    }
                }
            });
        }

        // Coordinator.
        let mut next = start;
        let mut next_dist = f64::INFINITY;
        for _ in 0..k {
            selected.push(next);
            insertion_dist.push(next_dist);
            center.store(next, Ordering::SeqCst);
            start_barrier.wait();
            finish_barrier.wait();
            if aborted.load(Ordering::SeqCst) {
                // A worker panicked this round; every party breaks at
                // this barrier boundary and the scope re-raises the
                // worker's panic after joining.
                break;
            }
            // Fold chunk results in order; replace only on strict `>`
            // so the earliest chunk (and within it the earliest index)
            // wins ties — and a NaN chunk value never wins — exactly
            // matching the sequential argmax rule.
            let mut best: Option<(usize, f64)> = None;
            for slot in locals.iter() {
                let (i, v) = *slot.lock().expect("no poisoning");
                match best {
                    Some((_, bv)) => {
                        if v > bv {
                            best = Some((i, v));
                        }
                    }
                    None => best = Some((i, v)),
                }
            }
            let (far, far_dist) = best.expect("at least one worker");
            next = far;
            next_dist = far_dist;
        }
    });

    GmmOutcome {
        selected,
        insertion_dist,
        assignment,
        dist_to_centers,
    }
}

/// Convenience wrapper: GMM started from index 0 (the paper lets the
/// initial point be arbitrary; a fixed start keeps runs deterministic).
pub fn gmm_default<P: Sync, M: Metric<P>>(points: &[P], metric: &M, k: usize) -> GmmOutcome {
    gmm(points, metric, k, 0)
}

/// The gate's largest dimension.
const BLOCK_MAX_DIM: usize = 3;
/// The gate's smallest input.
const BLOCK_MIN_POINTS: usize = 16_384;
/// The gate's fewest centers.
const BLOCK_MIN_CENTERS: usize = 128;
/// Points per run of the ordered copy.
const RUN: usize = 64;
/// Relative slack of the skip test ([`can_skip`]).
const SKIP_SLACK: f64 = 1e-9;
/// Absolute slack of the skip test, above the error underflow can put
/// in a computed distance (`√d·2⁻⁵³⁷`, about `1e-161` per distance).
const SKIP_FLOOR: f64 = 1e-150;

/// One run of the block path: up to [`RUN`] consecutive points of the
/// ordered copy.
struct Run {
    /// Position of the member the run's bound is taken from.
    pivot: usize,
    /// Largest computed distance from the pivot to a member.
    radius: f64,
    /// Largest current distance of a member to the selected centers.
    max: f64,
}

/// Whether no member of a run can move when a center at computed
/// distance `to_pivot` from the run's pivot is added (see the module
/// docs for the bound). An infinite input never passes.
#[inline]
fn can_skip(to_pivot: f64, radius: f64, max: f64) -> bool {
    to_pivot - radius - max > SKIP_SLACK * (to_pivot + radius + max) + SKIP_FLOOR
}

/// The block path over `ordered`, a copy of the input with
/// `order[q]` the input index of `ordered[q]`. Outcomes are reported
/// in input order.
fn blocks<P, M: Metric<P>>(
    ordered: &[P],
    order: &[usize],
    metric: &M,
    k: usize,
    start: usize,
) -> GmmOutcome {
    let span = diversity_obs::span("gmm.run_ns");
    let n = ordered.len();
    let mut scratch = [0.0f64; RUN];
    let mut runs: Vec<Run> = (0..n)
        .step_by(RUN)
        .map(|lo| {
            let members = &ordered[lo..(lo + RUN).min(n)];
            let pivot = lo + members.len() / 2;
            let to_pivot = &mut scratch[..members.len()];
            metric.distance_many(&ordered[pivot], members, to_pivot);
            Run {
                pivot,
                radius: to_pivot.iter().copied().fold(0.0, f64::max),
                max: f64::INFINITY,
            }
        })
        .collect();

    let mut dist = vec![f64::INFINITY; n];
    let mut assign = vec![0usize; n];
    let mut selected = Vec::with_capacity(k);
    let mut insertion_dist = Vec::with_capacity(k);
    let (mut relaxed, mut pruned) = (0u64, 0u64);
    let mut next = order
        .iter()
        .position(|&i| i == start)
        .expect("start index out of range");
    let mut next_dist = f64::INFINITY;
    for cj in 0..k {
        let c = next;
        selected.push(order[c]);
        insertion_dist.push(next_dist);
        let center = &ordered[c];
        for (r, run) in runs.iter_mut().enumerate() {
            let lo = r * RUN;
            let hi = (lo + RUN).min(n);
            if can_skip(
                metric.distance(center, &ordered[run.pivot]),
                run.radius,
                run.max,
            ) {
                pruned += (hi - lo) as u64;
                continue;
            }
            let (_, max) = metric
                .relax(
                    center,
                    &ordered[lo..hi],
                    &mut dist[lo..hi],
                    &mut assign[lo..hi],
                    cj,
                )
                .expect("runs are non-empty");
            run.max = max;
            relaxed += (hi - lo) as u64;
        }
        (next, next_dist) = farthest(&runs, &dist, order);
    }

    let mut dist_to_centers = vec![0.0; n];
    let mut assignment = vec![0usize; n];
    for (q, &i) in order.iter().enumerate() {
        dist_to_centers[i] = dist[q];
        assignment[i] = assign[q];
    }
    drop(span);
    record(k, relaxed);
    diversity_obs::count("kernel.pruned_relaxations", pruned);
    GmmOutcome {
        selected,
        insertion_dist,
        assignment,
        dist_to_centers,
    }
}

/// The next center of the block path: `(position, distance)` of the
/// largest current distance, ties to the smallest *input* index, which
/// is the plain loop's first-maximum rule in input order. Only runs
/// whose maximum is the largest are scanned.
fn farthest(runs: &[Run], dist: &[f64], order: &[usize]) -> (usize, f64) {
    let best = runs.iter().map(|r| r.max).fold(f64::NEG_INFINITY, f64::max);
    let mut pick: Option<usize> = None;
    for (r, _) in runs.iter().enumerate().filter(|(_, run)| run.max == best) {
        let lo = r * RUN;
        for q in lo..(lo + RUN).min(dist.len()) {
            if dist[q] == best && pick.is_none_or(|p| order[q] < order[p]) {
                pick = Some(q);
            }
        }
    }
    (pick.expect("a run attains the largest maximum"), best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use metric::{Euclidean, VecPoint};

    fn line(xs: &[f64]) -> Vec<VecPoint> {
        xs.iter().map(|&x| VecPoint::from([x])).collect()
    }

    #[test]
    fn selects_extremes_first() {
        let pts = line(&[0.0, 1.0, 2.0, 3.0, 10.0]);
        let out = gmm(&pts, &Euclidean, 3, 0);
        assert_eq!(out.selected[0], 0);
        assert_eq!(out.selected[1], 4, "farthest from 0 is 10.0");
        // Next farthest from {0, 10} is 3.0 (index 3) at distance 3... no:
        // distances to {0,10}: 1->1, 2->2, 3->3; point 3 wins.
        assert_eq!(out.selected[2], 3);
    }

    #[test]
    fn insertion_distances_non_increasing() {
        let pts = line(&[0.0, 5.0, 9.0, 12.0, 13.0, 20.0]);
        let out = gmm(&pts, &Euclidean, 6, 0);
        for w in out.insertion_dist.windows(2) {
            assert!(w[0] >= w[1], "insertion distances must not increase");
        }
    }

    #[test]
    fn anticover_property_on_every_prefix() {
        // r_T(j) <= d_j <= rho_T(j) for every prefix T(j), j >= 2.
        let pts = line(&[0.0, 2.0, 3.0, 7.0, 8.5, 11.0, 20.0, 21.5]);
        let out = gmm(&pts, &Euclidean, 8, 0);
        for j in 2..=out.selected.len() {
            let prefix: Vec<VecPoint> = out.selected[..j].iter().map(|&i| pts[i].clone()).collect();
            let d_j = out.insertion_dist[j - 1];
            // range of the prefix
            let r = pts
                .iter()
                .map(|p| Euclidean.distance_to_set(p, &prefix))
                .fold(0.0, f64::max);
            // farness of the prefix
            let mut rho = f64::INFINITY;
            for a in 0..j {
                for b in 0..j {
                    if a != b {
                        rho = rho.min(Euclidean.distance(&prefix[a], &prefix[b]));
                    }
                }
            }
            assert!(r <= d_j + 1e-12, "range {r} > d_j {d_j} at prefix {j}");
            assert!(
                d_j <= rho + 1e-12,
                "d_j {d_j} > farness {rho} at prefix {j}"
            );
        }
    }

    #[test]
    fn two_approximation_for_k_center() {
        // Optimal 2-center range for {0, 1, 10, 11} is 0.5; GMM must be
        // within factor 2.
        let pts = line(&[0.0, 1.0, 10.0, 11.0]);
        let out = gmm(&pts, &Euclidean, 2, 0);
        assert!(out.radius() <= 2.0 * 0.5 + 1e-12);
    }

    #[test]
    fn k_geq_n_selects_everything() {
        let pts = line(&[0.0, 1.0, 2.0]);
        let out = gmm(&pts, &Euclidean, 10, 0);
        assert_eq!(out.selected.len(), 3);
        assert_eq!(out.radius(), 0.0);
    }

    #[test]
    fn assignment_points_to_nearest_center() {
        let pts = line(&[0.0, 1.0, 9.0, 10.0]);
        let out = gmm(&pts, &Euclidean, 2, 0);
        // Centers are 0.0 and 10.0; 1.0 -> center 0, 9.0 -> center 1.
        let c0 = out.selected[0];
        let c1 = out.selected[1];
        assert_eq!((c0, c1), (0, 3));
        assert_eq!(out.assignment[1], 0);
        assert_eq!(out.assignment[2], 1);
        assert_eq!(out.dist_to_centers[1], 1.0);
    }

    #[test]
    fn duplicate_points_are_fine() {
        let pts = line(&[1.0, 1.0, 1.0, 5.0]);
        let out = gmm(&pts, &Euclidean, 4, 0);
        assert_eq!(out.selected.len(), 4);
        // After the two distinct locations are taken, remaining
        // insertions happen at distance 0.
        assert_eq!(out.insertion_dist[2], 0.0);
    }

    #[test]
    #[should_panic]
    fn rejects_empty_input() {
        let _ = gmm::<VecPoint, _>(&[], &Euclidean, 1, 0);
    }

    #[test]
    fn deterministic_given_start() {
        let pts = line(&[3.0, 1.0, 4.0, 1.5, 9.0, 2.6]);
        let a = gmm(&pts, &Euclidean, 4, 2);
        let b = gmm(&pts, &Euclidean, 4, 2);
        assert_eq!(a.selected, b.selected);
    }

    #[test]
    fn prune_actually_prunes_on_separated_clusters() {
        // Four far-apart 2-D clusters, large enough for the gate, so
        // `gmm` itself takes the block path.
        let pts: Vec<VecPoint> = (0..4 * 5_000)
            .map(|i| {
                let (c, j) = (i / 5_000, i % 5_000);
                VecPoint::from([
                    (c as f64) * 1000.0 + (j % 100) as f64 * 0.1,
                    (j / 100) as f64 * 0.1,
                ])
            })
            .collect();
        let k = 128;
        assert!(takes_block_path(&pts, &Euclidean, k));
        let registry = std::sync::Arc::new(diversity_obs::Registry::new());
        diversity_obs::install(registry.clone());
        let out = gmm(&pts, &Euclidean, k, 0);
        let snap = registry.snapshot_now();
        diversity_obs::uninstall();
        assert_eq!(out.selected.len(), k);
        // Lower bounds only: the recorder is process-global, and other
        // tests in this binary may add to it.
        let pairs = (pts.len() * k) as u64;
        let pruned = snap.counter("kernel.pruned_relaxations").unwrap_or(0);
        let relaxed = snap.counter("gmm.relaxations").unwrap_or(0);
        assert!(
            pruned >= pairs / 2,
            "separated clusters must skip most runs: {pruned} of {pairs} pairs"
        );
        assert!(
            relaxed >= pts.len() as u64,
            "the first center relaxes every point"
        );
    }

    #[test]
    fn gate_keeps_small_high_dim_and_foreign_inputs_plain() {
        let grid = |n: usize, dim: usize| -> Vec<VecPoint> {
            (0..n)
                .map(|i| VecPoint::new((0..dim).map(|j| ((i * (j + 7)) % 101) as f64).collect()))
                .collect()
        };
        assert!(takes_block_path(
            &grid(BLOCK_MIN_POINTS, 3),
            &Euclidean,
            BLOCK_MIN_CENTERS
        ));
        assert!(!takes_block_path(
            &grid(BLOCK_MIN_POINTS - 1, 3),
            &Euclidean,
            BLOCK_MIN_CENTERS
        ));
        assert!(!takes_block_path(
            &grid(BLOCK_MIN_POINTS, 3),
            &Euclidean,
            BLOCK_MIN_CENTERS - 1
        ));
        assert!(!takes_block_path(
            &grid(BLOCK_MIN_POINTS, BLOCK_MAX_DIM + 1),
            &Euclidean,
            256
        ));
        assert!(!takes_block_path(
            &grid(BLOCK_MIN_POINTS, 3),
            &metric::Manhattan,
            256
        ));
        assert!(gmm_blocked(&grid(100, 3), &metric::Manhattan, 8, 0).is_none());
    }
}
