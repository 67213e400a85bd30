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
//! * the relax step goes through a vectorized, root-eliding batch
//!   kernel: the metric's [`Metric::relax`] hook, or the flat Euclidean
//!   kernel on flat rows (below);
//! * above [`metric::par::PAR_MIN_WORK`] points the relax+argmax pass
//!   is chunked across scoped threads, with the per-chunk argmaxes
//!   combined in chunk order so the result is **bit-identical** to the
//!   sequential traversal — same selection order, same tie-breaks, same
//!   assignments, same distances (enforced by `tests/parallel_gmm.rs`).
//!
//! # Flat rows
//!
//! A large input of `Euclidean` `VecPoint`s sits in as many heap
//! allocations as points, and a MapReduce split scatters them over the
//! heap of the whole input, while GMM reads every point `k` times. So
//! one gate in [`gmm_with_threads`], which [`gmm`], the core-set
//! builders, the sequential pipeline and every MapReduce reducer reach,
//! first asks the metric for the points' coordinates as one row-major
//! buffer ([`Metric::euclidean_rows`]) when
//!
//! * `n ≥ 16,384` points, and
//! * the dimension is at most 4, the widest of the flat kernels'
//!   fixed-width cases. Only `Euclidean` on `VecPoint` answers, and only
//!   when every point has that dimension and finite coordinates.
//!
//! With rows in hand GMM takes the **block path** (below) at dimension
//! `≤ 3` with `min(k, n) ≥ 128` centers, and otherwise the plain loop on
//! the rows in input order, through [`metric::euclidean_relax_flat`]
//! ("the flat plain loop"). Everything else keeps the plain loop over
//! the points: other metrics and point types (`DenseRow`s keep their
//! own contiguity scan), higher dimensions, and the serving path's
//! small unions. The hook vouches that the flat kernel's distances are
//! the metric's, bit for bit, so every path returns the same outcome.
//! The block path runs single-threaded whatever thread count it is
//! handed: inside MapReduce reducers the runtime's threads already fill
//! the host.
//!
//! # The block path
//!
//! At low dimension and large `k` most of those `n·k` pairs cannot
//! change anything: a point far from the new center keeps its
//! distance. The block path evaluates only the pairs that can.
//!
//! **The traversal.** A copy of the rows is sorted along a Morton curve
//! ([`metric::morton_sort`]) and cut into runs of 64 consecutive rows.
//! Each run has a pivot (its middle member, whose coordinates are also
//! kept in one buffer with the other pivots'), a radius `r` (the largest
//! computed distance from the pivot to a member) and a maximum `m` (the
//! largest current distance of a member to the selected centers). For
//! each new center `c` one sweep over the pivot buffer
//! ([`metric::euclidean_many_flat`]) yields every `d(c, pivot)`, and a
//! run is skipped when, in computed distances and evaluated left to
//! right,
//!
//! ```text
//! d(c, pivot) − r − m  >  1e-9 · (d(c, pivot) + r + m) + 1e-150
//! ```
//!
//! and every other run relaxes its slice of the rows through
//! [`metric::euclidean_relax_flat`]. The next center is a point at the
//! largest `m` with the smallest *input* index, the plain loop's
//! first-maximum rule; only runs whose `m` is the largest are scanned
//! for it.
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
//! split by `split_random(.., 8, 7)`, as a reducer receives it), one
//! thread, medians of 10 runs in two interleaved rounds on a shared
//! 2-vCPU Intel Xeon (AVX2) host. Both paths' times include gathering
//! the rows from the part, and the block path's its sort. Each cell is
//! the block path's speed-up over the flat plain loop, then the share of
//! the `n·k` pairs it relaxed:
//!
//! | d | k = 32 | k = 64 | k = 128 | k = 256 |
//! |---|---|---|---|---|
//! | 2 | 1.18× · 14.0 % | 1.55× · 9.3 % | 2.57× · 6.3 % | 3.36× · 4.4 % |
//! | 3 | 1.06× · 25.1 % | 1.44× · 18.7 % | 1.96× · 14.1 % | 2.27× · 11.0 % |
//! | 4 | 0.59× · 42.1 % | 0.79× · 34.1 % | 1.08× · 28.4 % | 1.53× · 22.9 % |
//!
//! The flat plain loop against the plain loop over the points, d = 3,
//! one thread, medians of 5: on the part, against copying it first and
//! looping over the copy (what a round-1 reducer ran before), and on
//! the whole 1M-point input in generation order, which a sequential run
//! reads uncopied:
//!
//! | input | k = 2 | k = 4 | k = 8 | k = 16 | k = 32 | k = 64 |
//! |---|---|---|---|---|---|---|
//! | the part | 3.38× | 2.74× | 2.36× | 2.02× | 1.92× | 1.93× |
//! | the whole input | 1.53× | 2.31× | 2.92× | 2.90× | 3.62× | 3.78× |
//!
//! The gate keeps its thresholds although the block path now reads
//! faster than the flat loop at d ≤ 3 from k = 32. Of the workloads,
//! only the remote-clique job's `k' = 32` lies there, at 1.06×, inside
//! this host's spread for that cell; moving the gate is left to a
//! change that measures that job.

use metric::{par, Metric};
use std::ops::Range;
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
    let rows = if points.len() >= FLAT_MIN_POINTS {
        metric.euclidean_rows(points, FLAT_MAX_DIM)
    } else {
        None
    };
    match rows {
        Some((rows, dim)) if dim <= BLOCK_MAX_DIM && k >= BLOCK_MIN_CENTERS => {
            blocks(rows, dim, k, start)
        }
        Some((rows, dim)) => plain_flat(&rows, dim, k, start, threads),
        None => plain_generic(points, metric, k, start, threads),
    }
}

/// Whether [`gmm`] over `points` runs on flat coordinate rows (the
/// block path or the flat plain loop), judged from the input's size and
/// its first point: a caller that copies its input for locality (the
/// MapReduce reducers) need not when GMM gathers the rows itself. Mixed
/// dimensions or a non-finite coordinate further in still send [`gmm`]
/// to the loop over the points.
pub fn takes_flat_path<P, M: Metric<P>>(points: &[P], metric: &M) -> bool {
    points.len() >= FLAT_MIN_POINTS && metric.euclidean_rows(&points[..1], FLAT_MAX_DIM).is_some()
}

/// Whether [`gmm`] over `points` with `k` centers takes the block path,
/// judged as [`takes_flat_path`] judges.
pub fn takes_block_path<P, M: Metric<P>>(points: &[P], metric: &M, k: usize) -> bool {
    points.len() >= FLAT_MIN_POINTS
        && k.min(points.len()) >= BLOCK_MIN_CENTERS
        && metric.euclidean_rows(&points[..1], BLOCK_MAX_DIM).is_some()
}

/// The plain loop over the points, whatever the gate says: the oracle
/// both flat paths are tested against. `threads <= 1` runs it
/// sequentially.
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
    plain_generic(points, metric, k.min(points.len()), start, threads)
}

/// The block path, whatever the gate's thresholds say: `None` if the
/// metric hands over no rows ([`Metric::euclidean_rows`], at any
/// dimension). Its outcome equals [`gmm_plain`]'s bit for bit.
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
    let (rows, dim) = metric.euclidean_rows(points, usize::MAX)?;
    Some(blocks(rows, dim, k.min(points.len()), start))
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

/// The plain loop over the points, each relax step through the
/// [`Metric::relax`] batch hook.
fn plain_generic<P: Sync, M: Metric<P>>(
    points: &[P],
    metric: &M,
    k: usize,
    start: usize,
    threads: usize,
) -> GmmOutcome {
    plain(
        points.len(),
        k,
        start,
        threads,
        &|c, range, dists, assignment, cj| {
            metric
                .relax(&points[c], &points[range], dists, assignment, cj)
                .expect("ranges are non-empty")
        },
    )
}

/// The plain loop over `dim`-coordinate rows in input order, each relax
/// step through the flat Euclidean kernel.
fn plain_flat(rows: &[f64], dim: usize, k: usize, start: usize, threads: usize) -> GmmOutcome {
    let row = |i: usize| &rows[i * dim..(i + 1) * dim];
    plain(
        rows.len() / dim,
        k,
        start,
        threads,
        &|c, range, dists, assignment, cj| {
            let chunk = &rows[range.start * dim..range.end * dim];
            metric::euclidean_relax_flat(row(c), chunk, dim, dists, assignment, cj)
                .expect("ranges are non-empty")
        },
    )
}

/// One relax step of the plain loop: `relax(c, range, dists,
/// assignment, cj)` relaxes the points in `range`, whose slices `dists`
/// and `assignment` are, against point `c` as center `cj`, and returns
/// the range's farthest survivor with its index relative to
/// `range.start` (the [`Metric::relax`] contract on that range). It is
/// called once per round and chunk, so the dynamic call costs nothing.
type Relax<'a> =
    dyn Fn(usize, Range<usize>, &mut [f64], &mut [usize], usize) -> (usize, f64) + Sync + 'a;

/// The plain loop over `n` points.
fn plain(n: usize, k: usize, start: usize, threads: usize, relax: &Relax) -> GmmOutcome {
    let span = diversity_obs::span("gmm.run_ns");
    let out = if threads > 1 {
        gmm_parallel(n, k, start, threads, relax)
    } else {
        gmm_sequential(n, k, start, relax)
    };
    drop(span);
    record(k, (k as u64).saturating_mul(n as u64));
    out
}

fn gmm_sequential(n: usize, k: usize, start: usize, relax: &Relax) -> GmmOutcome {
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
        // Relax distances against the new center (bitwise-identical to
        // the scalar loop; strict `<` keeps ties assigned to the
        // earliest center, as Algorithm 1 requires). The step returns
        // the farthest survivor — the next candidate — saving the
        // separate argmax sweep over `dist_to_centers`.
        (next, next_dist) = relax(c, 0..n, &mut dist_to_centers, &mut assignment, cj);
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
fn gmm_parallel(n: usize, k: usize, start: usize, threads: usize, relax: &Relax) -> GmmOutcome {
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
            let range = range.clone();
            let (center, locals, aborted) = (&center, &locals, &aborted);
            let (start_barrier, finish_barrier) = (&start_barrier, &finish_barrier);
            s.spawn(move || {
                let dist_chunk = dist_chunk;
                let assign_chunk = assign_chunk;
                for cj in 0..k {
                    start_barrier.wait();
                    let round = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let c = center.load(Ordering::SeqCst);
                        let (local_far, local_dist) =
                            relax(c, range.clone(), dist_chunk, assign_chunk, cj);
                        *locals[w].lock().expect("no poisoning") =
                            (range.start + local_far, local_dist);
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

/// The smallest input either flat path takes.
const FLAT_MIN_POINTS: usize = 16_384;
/// The largest dimension of the flat plain loop, the widest of the flat
/// kernels' fixed-width cases.
const FLAT_MAX_DIM: usize = 4;
/// The block path's largest dimension.
const BLOCK_MAX_DIM: usize = 3;
/// The block path's fewest centers.
const BLOCK_MIN_CENTERS: usize = 128;
/// Points per run of the ordered rows.
const RUN: usize = 64;
/// Relative slack of the skip test ([`can_skip`]).
const SKIP_SLACK: f64 = 1e-9;
/// Absolute slack of the skip test, above the error underflow can put
/// in a computed distance (`√d·2⁻⁵³⁷`, about `1e-161` per distance).
const SKIP_FLOOR: f64 = 1e-150;

/// One run of the block path: up to [`RUN`] consecutive rows of the
/// ordered copy.
struct Run {
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

/// The block path over `dim`-coordinate `rows` in input order: sorts a
/// copy along a Morton curve, runs there, and reports the outcome in
/// input order.
fn blocks(rows: Vec<f64>, dim: usize, k: usize, start: usize) -> GmmOutcome {
    let (ordered, order) = metric::morton_sort(&rows, dim);
    drop(rows);
    let span = diversity_obs::span("gmm.run_ns");
    let n = order.len();
    let row = |q: usize| &ordered[q * dim..(q + 1) * dim];
    let members = |lo: usize, hi: usize| &ordered[lo * dim..hi * dim];
    // Each run's pivot (its middle member) is copied into `pivots`, so
    // one sweep yields every pivot's distance to a new center.
    let mut pivots = Vec::with_capacity(n.div_ceil(RUN) * dim);
    let mut scratch = [0.0f64; RUN];
    let mut runs: Vec<Run> = (0..n)
        .step_by(RUN)
        .map(|lo| {
            let hi = (lo + RUN).min(n);
            let pivot = row(lo + (hi - lo) / 2);
            let to_pivot = &mut scratch[..hi - lo];
            metric::euclidean_many_flat(pivot, members(lo, hi), dim, to_pivot);
            pivots.extend_from_slice(pivot);
            Run {
                radius: to_pivot.iter().copied().fold(0.0, f64::max),
                max: f64::INFINITY,
            }
        })
        .collect();
    let mut to_pivots = vec![0.0; runs.len()];

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
        let center = row(c);
        metric::euclidean_many_flat(center, &pivots, dim, &mut to_pivots);
        for (r, (run, &to_pivot)) in runs.iter_mut().zip(&to_pivots).enumerate() {
            let lo = r * RUN;
            let hi = (lo + RUN).min(n);
            if can_skip(to_pivot, run.radius, run.max) {
                pruned += (hi - lo) as u64;
                continue;
            }
            let (_, max) = metric::euclidean_relax_flat(
                center,
                members(lo, hi),
                dim,
                &mut dist[lo..hi],
                &mut assign[lo..hi],
                cj,
            )
            .expect("runs are non-empty");
            run.max = max;
            relaxed += (hi - lo) as u64;
        }
        (next, next_dist) = farthest(&runs, &dist, &order);
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
        // `gmm` itself takes the block path, also through `&Euclidean`,
        // which must forward the flat-row hook.
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
        fn run<M: Metric<VecPoint>>(pts: &[VecPoint], metric: &M, k: usize) {
            assert!(takes_block_path(pts, metric, k));
            let registry = std::sync::Arc::new(diversity_obs::Registry::new());
            diversity_obs::install(registry.clone());
            let out = gmm(pts, metric, k, 0);
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
        run(&pts, &Euclidean, k);
        run(&pts, &&Euclidean, k);
    }

    #[test]
    fn gate_keeps_small_high_dim_and_foreign_inputs_plain() {
        let grid = |n: usize, dim: usize| -> Vec<VecPoint> {
            (0..n)
                .map(|i| VecPoint::new((0..dim).map(|j| ((i * (j + 7)) % 101) as f64).collect()))
                .collect()
        };
        let (n, k) = (FLAT_MIN_POINTS, BLOCK_MIN_CENTERS);
        assert!(takes_block_path(&grid(n, 3), &Euclidean, k));
        assert!(!takes_block_path(&grid(n - 1, 3), &Euclidean, k));
        assert!(!takes_block_path(&grid(n, 3), &Euclidean, k - 1));
        assert!(!takes_block_path(
            &grid(n, BLOCK_MAX_DIM + 1),
            &Euclidean,
            256
        ));
        assert!(!takes_block_path(&grid(n, 3), &metric::Manhattan, 256));
        // The flat plain loop takes what the block path leaves, up to
        // the flat kernels' widest fixed dimension.
        assert!(takes_flat_path(&grid(n, FLAT_MAX_DIM), &Euclidean));
        assert!(takes_flat_path(&grid(n, 1), &&Euclidean));
        assert!(!takes_flat_path(&grid(n, FLAT_MAX_DIM + 1), &Euclidean));
        assert!(!takes_flat_path(&grid(n - 1, 3), &Euclidean));
        assert!(!takes_flat_path(&grid(n, 3), &metric::Manhattan));
        assert!(gmm_blocked(&grid(100, 3), &metric::Manhattan, 8, 0).is_none());
    }
}
