//! Batched coordinate kernels shared by the dense metrics.
//!
//! Every algorithm in the workspace bottoms out in `O(n·k)` distance
//! evaluations; these kernels make that hot path run at hardware speed
//! while staying **bitwise-identical** to the scalar implementations
//! (enforced by `tests/batch_equivalence.rs`). Four ingredients:
//!
//! 1. **Dimension dispatch hoisted out of the point loop.** The
//!    per-pair code is monomorphized for the common low dimensions
//!    (`D = 1..=4`, the paper's `R^2`/`R^3` experiments) via const
//!    generics, so the inner loop is fully unrolled, branch-free and
//!    auto-vectorizable.
//! 2. **Threshold-aware root elision.** The GMM relax step only needs
//!    a distance when it *improves* on the incumbent; comparing
//!    squared values first skips the root for the (vast) majority of
//!    points that don't. See [`sq_beats_threshold`] for the exactness
//!    proof.
//! 3. **Fused argmax.** [`crate::Metric::relax`] reports the farthest
//!    survivor, so the blocked kernels fold the reduction into the
//!    relax sweep and GMM never re-reads the distance array.
//! 4. **Flat-buffer blocking.** Contiguous [`crate::DenseStore`] runs
//!    are processed `BLOCK` points at a time straight from the flat
//!    coordinate buffer — no per-row slice plumbing — with the run
//!    check itself folded into each block (one offset comparison per
//!    row, verified exactly; a permuted batch silently takes the
//!    per-row path).
//!
//! All accumulations use the **same association order** as the scalar
//! metrics (`((0 + t_0) + t_1) + …`), and Rust never contracts `a*b+c`
//! into an FMA implicitly, so results are reproducible bit-for-bit
//! across the scalar, batched, and parallel paths.

use crate::DenseRow;

/// Squared Euclidean distance with the scalar accumulation order.
#[inline(always)]
pub(crate) fn l2_sq(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
    let mut sum = 0.0;
    for (x, y) in a.iter().zip(b.iter()) {
        let d = x - y;
        sum += d * d;
    }
    sum
}

/// `l2_sq` monomorphized for a compile-time dimension: the loop unrolls
/// completely and vectorizes across *points* in the batched callers.
#[inline(always)]
fn l2_sq_fixed<const D: usize>(a: &[f64], b: &[f64]) -> f64 {
    let a: &[f64; D] = a[..D].try_into().expect("dimension checked by caller");
    let b: &[f64; D] = b[..D].try_into().expect("dimension checked by caller");
    let mut sum = 0.0;
    for i in 0..D {
        let d = a[i] - b[i];
        sum += d * d;
    }
    sum
}

/// Manhattan distance with the scalar accumulation order.
#[inline(always)]
pub(crate) fn l1(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
    let mut sum = 0.0;
    for (x, y) in a.iter().zip(b.iter()) {
        sum += (x - y).abs();
    }
    sum
}

#[inline(always)]
fn l1_fixed<const D: usize>(a: &[f64], b: &[f64]) -> f64 {
    let a: &[f64; D] = a[..D].try_into().expect("dimension checked by caller");
    let b: &[f64; D] = b[..D].try_into().expect("dimension checked by caller");
    let mut sum = 0.0;
    for i in 0..D {
        sum += (a[i] - b[i]).abs();
    }
    sum
}

/// Whether a squared distance `d_sq` **provably** fails the strict
/// improvement test `sqrt(d_sq) < incumbent` — without taking the root.
///
/// Exactness argument (all quantities IEEE-754 doubles, `y` the
/// incumbent, `t = fl(y·y)` the rounded square):
///
/// * `t` is the representable value nearest `y²`, so `y² < next_up(t)`;
/// * if `d_sq > t` then (both representable) `d_sq >= next_up(t) > y²`,
///   hence `sqrt(d_sq) > y` in real arithmetic, and correctly rounded
///   `fl(sqrt(d_sq)) >= fl(y) = y` — the scalar test `d < y` fails;
/// * if `d_sq <= t` the caller takes the root and runs the scalar
///   comparison verbatim.
///
/// Therefore eliding the root exactly when `d_sq > fl(y·y)` never
/// changes an outcome, and the batched relax stays bitwise-identical
/// to the scalar loop. (`y = INFINITY` gives `t = INFINITY`, so finite
/// `d_sq` always takes the root path, as the first GMM round must.)
#[inline(always)]
pub(crate) fn sq_beats_threshold(d_sq: f64, incumbent: f64) -> bool {
    d_sq > incumbent * incumbent
}

/// Folds one `(index, value)` candidate into a running argmax with the
/// scalar [`crate::argmax`] rule exactly: a candidate replaces iff it
/// compares strictly greater (`v > best`), so the earliest maximum
/// wins ties — and a NaN candidate (outside the [`crate::Metric`]
/// contract, but let's not diverge on it) never replaces, just as
/// `argmax` skips it.
#[inline(always)]
pub(crate) fn consider_max(best: &mut Option<(usize, f64)>, i: usize, v: f64) {
    match best {
        Some((_, bv)) => {
            if v > *bv {
                *best = Some((i, v));
            }
        }
        None => *best = Some((i, v)),
    }
}

macro_rules! dispatch_dim {
    ($dim:expr, $fixed:ident, $general:ident, $p:expr, $q:expr) => {
        match $dim {
            1 => $fixed::<1>($p, $q),
            2 => $fixed::<2>($p, $q),
            3 => $fixed::<3>($p, $q),
            4 => $fixed::<4>($p, $q),
            _ => $general($p, $q),
        }
    };
}

// ---------------------------------------------------------------------
// Per-row kernels (any `&[P]` whose points expose coordinate slices)
// ---------------------------------------------------------------------

/// Batched Euclidean distances over coordinate rows.
pub(crate) fn euclidean_many<'a>(
    p: &[f64],
    rows: impl ExactSizeIterator<Item = &'a [f64]>,
    out: &mut [f64],
) {
    assert_eq!(out.len(), rows.len(), "output length mismatch");
    let dim = p.len();
    for (o, q) in out.iter_mut().zip(rows) {
        *o = dispatch_dim!(dim, l2_sq_fixed, l2_sq, p, q).sqrt();
    }
    diversity_obs::count("kernel.distances", out.len() as u64);
}

/// Batched Euclidean GMM relaxation with root elision and fused
/// argmax — bitwise-identical to the scalar relax loop followed by a
/// scalar argmax (see [`sq_beats_threshold`]).
pub(crate) fn euclidean_relax<'a>(
    center: &[f64],
    rows: impl ExactSizeIterator<Item = &'a [f64]>,
    dists: &mut [f64],
    assignment: &mut [usize],
    cj: usize,
) -> Option<(usize, f64)> {
    assert_eq!(dists.len(), rows.len(), "dists length mismatch");
    assert_eq!(assignment.len(), rows.len(), "assignment length mismatch");
    let dim = center.len();
    let mut best: Option<(usize, f64)> = None;
    let mut elided = 0u64;
    for (i, q) in rows.enumerate() {
        let d_sq = dispatch_dim!(dim, l2_sq_fixed, l2_sq, center, q);
        if !sq_beats_threshold(d_sq, dists[i]) {
            let d = d_sq.sqrt();
            if d < dists[i] {
                dists[i] = d;
                assignment[i] = cj;
            }
        } else {
            elided += 1;
        }
        consider_max(&mut best, i, dists[i]);
    }
    if diversity_obs::enabled() {
        diversity_obs::count("kernel.distances", dists.len() as u64);
        diversity_obs::count("kernel.relax_fused_rounds", 1);
        diversity_obs::count("kernel.roots_elided", elided);
    }
    best
}

/// Early-exit Euclidean coverage check with root elision: `true` iff
/// some row is within `threshold`. Decides every comparison exactly as
/// `sqrt(l2_sq(..)) <= threshold` would.
pub(crate) fn euclidean_within<'a>(
    p: &[f64],
    rows: impl Iterator<Item = &'a [f64]>,
    threshold: f64,
) -> bool {
    let dim = p.len();
    // The scalar test is `d <= threshold` (non-strict), so eliding on
    // `d_sq > fl(thr²)` alone would be wrong: the root of a value one
    // step above fl(thr²) can still round to exactly `threshold`.
    // Guarding with the *next* representable incumbent closes the gap:
    // `d_sq > fl(next_up(thr)²)` certifies `fl(sqrt(d_sq)) >=
    // next_up(thr) > threshold` by the `sq_beats_threshold` argument.
    let guard = threshold.next_up();
    let thr_sq = guard * guard;
    for q in rows {
        let d_sq = dispatch_dim!(dim, l2_sq_fixed, l2_sq, p, q);
        if d_sq <= thr_sq && d_sq.sqrt() <= threshold {
            return true;
        }
    }
    false
}

/// Batched Manhattan distances (no root to elide; the win is the
/// unrolled, vectorizable inner loop).
pub(crate) fn manhattan_many<'a>(
    p: &[f64],
    rows: impl ExactSizeIterator<Item = &'a [f64]>,
    out: &mut [f64],
) {
    assert_eq!(out.len(), rows.len(), "output length mismatch");
    let dim = p.len();
    for (o, q) in out.iter_mut().zip(rows) {
        *o = dispatch_dim!(dim, l1_fixed, l1, p, q);
    }
    diversity_obs::count("kernel.distances", out.len() as u64);
}

/// Batched Manhattan relaxation with fused argmax.
pub(crate) fn manhattan_relax<'a>(
    center: &[f64],
    rows: impl ExactSizeIterator<Item = &'a [f64]>,
    dists: &mut [f64],
    assignment: &mut [usize],
    cj: usize,
) -> Option<(usize, f64)> {
    assert_eq!(dists.len(), rows.len(), "dists length mismatch");
    assert_eq!(assignment.len(), rows.len(), "assignment length mismatch");
    let dim = center.len();
    let mut best: Option<(usize, f64)> = None;
    for (i, q) in rows.enumerate() {
        let d = dispatch_dim!(dim, l1_fixed, l1, center, q);
        if d < dists[i] {
            dists[i] = d;
            assignment[i] = cj;
        }
        consider_max(&mut best, i, dists[i]);
    }
    if diversity_obs::enabled() {
        diversity_obs::count("kernel.distances", dists.len() as u64);
        diversity_obs::count("kernel.relax_fused_rounds", 1);
    }
    best
}

// ---------------------------------------------------------------------
// Flat-buffer kernels (contiguous `DenseStore` data)
// ---------------------------------------------------------------------

/// Lanes per block. 8 × d=3 rows = 192 bytes, three cache lines —
/// enough for the vectorizer, small enough to keep the hit-path cheap.
const BLOCK: usize = 8;

/// Batched Manhattan distances over a contiguous coordinate buffer.
pub(crate) fn manhattan_many_flat(p: &[f64], flat: &[f64], dim: usize, out: &mut [f64]) {
    assert_eq!(flat.len(), dim * out.len(), "flat buffer shape mismatch");
    debug_assert_eq!(p.len(), dim);
    for (o, q) in out.iter_mut().zip(flat.chunks_exact(dim)) {
        *o = dispatch_dim!(dim, l1_fixed, l1, p, q);
    }
}

/// Batched Manhattan relaxation over a contiguous coordinate buffer,
/// argmax fused.
pub(crate) fn manhattan_relax_flat(
    center: &[f64],
    flat: &[f64],
    dim: usize,
    dists: &mut [f64],
    assignment: &mut [usize],
    cj: usize,
) -> Option<(usize, f64)> {
    assert_eq!(flat.len(), dim * dists.len(), "flat buffer shape mismatch");
    assert_eq!(assignment.len(), dists.len(), "assignment length mismatch");
    debug_assert_eq!(center.len(), dim);
    let mut best: Option<(usize, f64)> = None;
    for (i, q) in flat.chunks_exact(dim).enumerate() {
        let d = dispatch_dim!(dim, l1_fixed, l1, center, q);
        if d < dists[i] {
            dists[i] = d;
            assignment[i] = cj;
        }
        consider_max(&mut best, i, dists[i]);
    }
    diversity_obs::count("kernel.relax_fused_rounds", 1);
    best
}

// ---------------------------------------------------------------------
// Flat-buffer Euclidean kernels (proven-contiguous runs)
// ---------------------------------------------------------------------

/// Euclidean distances from `p` to every row of `flat` (row-major,
/// `dim` coordinates per row), written to `out`: monomorphized
/// check-free blocks at the paper's small dimensions, SIMD
/// ([`crate::simd`]) above them when enabled, scalar chunks otherwise.
/// Bitwise-identical across all three paths, and to
/// [`crate::Euclidean`]'s distance on the same coordinates.
///
/// # Panics
/// Panics if `flat.len() != dim * out.len()`.
pub fn euclidean_many_flat(p: &[f64], flat: &[f64], dim: usize, out: &mut [f64]) {
    assert_eq!(flat.len(), dim * out.len(), "flat buffer shape mismatch");
    debug_assert_eq!(p.len(), dim);
    match dim {
        1 => many_flat_fixed::<1>(p, flat, out),
        2 => many_flat_fixed::<2>(p, flat, out),
        3 => many_flat_fixed::<3>(p, flat, out),
        4 => many_flat_fixed::<4>(p, flat, out),
        _ => {
            if crate::simd::enabled()
                && crate::simd::try_many(&crate::simd::Batch::Flat { flat, dim }, p, out)
            {
                return;
            }
            euclidean_many(p, flat.chunks_exact(dim), out);
        }
    }
}

fn many_flat_fixed<const D: usize>(p: &[f64], flat: &[f64], out: &mut [f64]) {
    let c: &[f64; D] = p[..D].try_into().expect("dim checked by caller");
    // A plain `chunks_exact` sweep: the const-D chunk length lets LLVM
    // drop every bounds check and vectorize the sub/mul/add chain AND
    // the roots across points (`llvm.sqrt` lanes are correctly rounded,
    // so vectorizing them is bitwise-free). Any manual blocking or
    // squared-then-root staging measured *slower* here — the interleaved
    // stores and the second pass both break exactly this vectorization.
    for (o, q) in out.iter_mut().zip(flat.chunks_exact(D)) {
        let mut s = 0.0;
        for j in 0..D {
            let d = c[j] - q[j];
            s += d * d;
        }
        *o = s.sqrt();
    }
    diversity_obs::count("kernel.distances", out.len() as u64);
}

/// The GMM relax step ([`crate::Metric::relax`]) of [`crate::Euclidean`]
/// over the rows of `flat` (row-major, `dim` coordinates per row), with
/// root elision and fused argmax; dispatch as [`euclidean_many_flat`].
/// Returns the farthest survivor, `None` for no rows.
///
/// # Panics
/// Panics if `flat.len() != dim * dists.len()` or
/// `assignment.len() != dists.len()`.
pub fn euclidean_relax_flat(
    center: &[f64],
    flat: &[f64],
    dim: usize,
    dists: &mut [f64],
    assignment: &mut [usize],
    cj: usize,
) -> Option<(usize, f64)> {
    assert_eq!(flat.len(), dim * dists.len(), "flat buffer shape mismatch");
    assert_eq!(assignment.len(), dists.len(), "assignment length mismatch");
    debug_assert_eq!(center.len(), dim);
    match dim {
        1 => relax_flat_fixed::<1>(center, flat, dists, assignment, cj),
        2 => relax_flat_fixed::<2>(center, flat, dists, assignment, cj),
        3 => relax_flat_fixed::<3>(center, flat, dists, assignment, cj),
        4 => relax_flat_fixed::<4>(center, flat, dists, assignment, cj),
        _ => {
            if crate::simd::enabled() {
                if let Some(best) = crate::simd::try_relax(
                    &crate::simd::Batch::Flat { flat, dim },
                    center,
                    dists,
                    assignment,
                    cj,
                ) {
                    return best;
                }
            }
            euclidean_relax(center, flat.chunks_exact(dim), dists, assignment, cj)
        }
    }
}

fn relax_flat_fixed<const D: usize>(
    center: &[f64],
    flat: &[f64],
    dists: &mut [f64],
    assignment: &mut [usize],
    cj: usize,
) -> Option<(usize, f64)> {
    let n = dists.len();
    let c: &[f64; D] = center[..D].try_into().expect("dim checked by caller");
    let mut best: Option<(usize, f64)> = None;
    let mut i = 0;
    let mut elided_blocks = 0u64;
    let mut total_blocks = 0u64;
    while i + BLOCK <= n {
        let q = &flat[D * i..D * (i + BLOCK)];
        let mut dsq = [0.0f64; BLOCK];
        total_blocks += 1;
        for w in 0..BLOCK {
            let mut s = 0.0;
            for j in 0..D {
                let d = c[j] - q[D * w + j];
                s += d * d;
            }
            dsq[w] = s;
        }
        let dv: &[f64; BLOCK] = dists[i..i + BLOCK].try_into().expect("block in bounds");
        let mut hit = false;
        for w in 0..BLOCK {
            hit |= !sq_beats_threshold(dsq[w], dv[w]);
        }
        elided_blocks += u64::from(!hit);
        if hit {
            for w in 0..BLOCK {
                if !sq_beats_threshold(dsq[w], dists[i + w]) {
                    let d = dsq[w].sqrt();
                    if d < dists[i + w] {
                        dists[i + w] = d;
                        assignment[i + w] = cj;
                    }
                }
            }
        }
        let (bw, bv) = block_first_max(&dists[i..i + BLOCK]);
        consider_max(&mut best, i + bw, bv);
        i += BLOCK;
    }
    for ii in i..n {
        let d_sq = l2_sq_fixed::<D>(center, &flat[D * ii..D * (ii + 1)]);
        if !sq_beats_threshold(d_sq, dists[ii]) {
            let d = d_sq.sqrt();
            if d < dists[ii] {
                dists[ii] = d;
                assignment[ii] = cj;
            }
        }
        consider_max(&mut best, ii, dists[ii]);
    }
    if diversity_obs::enabled() {
        diversity_obs::count("kernel.distances", n as u64);
        // A proven run streams every block flat.
        diversity_obs::count("kernel.blocks.total", total_blocks);
        diversity_obs::count("kernel.blocks.fast", total_blocks);
        diversity_obs::count("kernel.blocks.elided", elided_blocks);
        diversity_obs::count("kernel.relax_fused_rounds", 1);
    }
    best
}

/// Early-exit Euclidean coverage check over a contiguous buffer.
pub(crate) fn euclidean_within_flat(p: &[f64], flat: &[f64], dim: usize, threshold: f64) -> bool {
    debug_assert_eq!(flat.len() % dim, 0, "flat buffer shape mismatch");
    if dim > 4 && crate::simd::enabled() {
        if let Some(hit) =
            crate::simd::try_within(&crate::simd::Batch::Flat { flat, dim }, p, threshold)
        {
            return hit;
        }
    }
    euclidean_within(p, flat.chunks_exact(dim), threshold)
}

// ---------------------------------------------------------------------
// Kernels over `&[DenseRow]`
// ---------------------------------------------------------------------
//
// A `&[DenseRow]` batch is *usually* a contiguous run of one store
// (`store.rows()` or a chunk of it). One upfront pass over the row
// descriptors (`DenseRow::contiguous_run`, a branch-light compare
// sweep) proves that exactly and hands the whole batch to the
// check-free flat kernels above — at d ≤ 4 that is what lets LLVM
// vectorize the entire sweep, roots included, and at d > 4 it is what
// unlocks the SIMD kernels. But the proof is not free: it reads every
// 32-byte descriptor, so whether to attempt it is a bandwidth
// question, decided by `scan_worthwhile` below. Re-verifying
// contiguity per 8-point block inside the loop — sharing the
// descriptor loads with the compute — was measured and rejected: the
// pointer/offset compares cost more than the d = 3 distance
// arithmetic they guard, and the blocked store pattern breaks the
// root vectorization besides. Batches that skip or fail the scan take
// the per-row kernels — correct for any row shapes.

/// Below this row count a batch's descriptors and coordinates sit in
/// cache together, the sweep is compute-bound, and the contiguity scan
/// is repaid many times over by the flat kernels' cross-point
/// vectorization (~2× at d = 3). Above it a d ≤ 4 sweep is
/// memory-bandwidth-bound: the descriptors have to be streamed either
/// way, so no layout can beat per-row parity and a second pass over
/// them is pure loss — measured at n = 100k/d = 3, the scan alone cost
/// more than the entire flat distance loop it was meant to enable.
const SCAN_WORTH_ROWS: usize = 8192;

/// Whether to attempt the upfront contiguity scan: always at `d > 4`
/// (the `O(n·d)` kernel amortizes it and it unlocks SIMD), only for
/// cache-resident batches at `d ≤ 4`.
#[inline]
fn scan_worthwhile(dim: usize, n: usize) -> bool {
    dim > 4 || n <= SCAN_WORTH_ROWS
}

/// Euclidean relax over row views: contiguity scan where worthwhile,
/// then the flat (and SIMD) kernels; per-row fallback. All paths
/// bitwise-identical.
pub(crate) fn euclidean_relax_rows(
    center: &[f64],
    rows: &[DenseRow<'_>],
    dists: &mut [f64],
    assignment: &mut [usize],
    cj: usize,
) -> Option<(usize, f64)> {
    assert_eq!(dists.len(), rows.len(), "dists length mismatch");
    assert_eq!(assignment.len(), rows.len(), "assignment length mismatch");
    if scan_worthwhile(center.len(), rows.len()) {
        if let Some((flat, dim)) = DenseRow::contiguous_run(rows) {
            debug_assert_eq!(center.len(), dim, "dimension mismatch");
            return euclidean_relax_flat(center, flat, dim, dists, assignment, cj);
        }
    }
    if center.len() > 4 && crate::simd::enabled() {
        // Mixed high-dim batch: gather row pointers for the SIMD lanes,
        // exactly as the `VecPoint` hooks do.
        let coords: Vec<&[f64]> = rows.iter().map(DenseRow::coords).collect();
        let batch = crate::simd::Batch::Ptrs {
            rows: &coords,
            dim: center.len(),
        };
        if let Some(best) = crate::simd::try_relax(&batch, center, dists, assignment, cj) {
            return best;
        }
    }
    match center.len() {
        1 => relax_rows_seq_fixed::<1>(center, rows, dists, assignment, cj),
        2 => relax_rows_seq_fixed::<2>(center, rows, dists, assignment, cj),
        3 => relax_rows_seq_fixed::<3>(center, rows, dists, assignment, cj),
        4 => relax_rows_seq_fixed::<4>(center, rows, dists, assignment, cj),
        _ => euclidean_relax(
            center,
            rows.iter().map(DenseRow::coords),
            dists,
            assignment,
            cj,
        ),
    }
}

/// Per-row fixed-D relax over `DenseRow` views, identical operation
/// order to [`euclidean_relax`]. A dedicated loop rather than the
/// iterator adapter: decoding each row descriptor is the inner-loop
/// cost here, and this shape keeps it to one slice construction per
/// row that LLVM folds into the address arithmetic.
fn relax_rows_seq_fixed<const D: usize>(
    center: &[f64],
    rows: &[DenseRow<'_>],
    dists: &mut [f64],
    assignment: &mut [usize],
    cj: usize,
) -> Option<(usize, f64)> {
    let c: &[f64; D] = center[..D].try_into().expect("dim checked by caller");
    let mut best: Option<(usize, f64)> = None;
    let mut elided = 0u64;
    for (i, r) in rows.iter().enumerate() {
        let q = r.coords();
        let mut s = 0.0;
        for j in 0..D {
            let d = c[j] - q[j];
            s += d * d;
        }
        if !sq_beats_threshold(s, dists[i]) {
            let d = s.sqrt();
            if d < dists[i] {
                dists[i] = d;
                assignment[i] = cj;
            }
        } else {
            elided += 1;
        }
        consider_max(&mut best, i, dists[i]);
    }
    if diversity_obs::enabled() {
        diversity_obs::count("kernel.distances", dists.len() as u64);
        diversity_obs::count("kernel.relax_fused_rounds", 1);
        diversity_obs::count("kernel.roots_elided", elided);
    }
    best
}

/// First-maximum lane of one block (`slice.len() == BLOCK`).
#[inline(always)]
fn block_first_max(lanes: &[f64]) -> (usize, f64) {
    let lanes: &[f64; BLOCK] = lanes.try_into().expect("block-sized slice");
    let (mut bw, mut bv) = (0usize, lanes[0]);
    for (w, &v) in lanes.iter().enumerate().skip(1) {
        if v > bv {
            bw = w;
            bv = v;
        }
    }
    (bw, bv)
}

/// Euclidean distance sweep over row views: contiguity scan where
/// worthwhile, then the flat (and SIMD) kernels; per-row fallback.
pub(crate) fn euclidean_many_rows(p: &[f64], rows: &[DenseRow<'_>], out: &mut [f64]) {
    assert_eq!(out.len(), rows.len(), "output length mismatch");
    if scan_worthwhile(p.len(), rows.len()) {
        if let Some((flat, dim)) = DenseRow::contiguous_run(rows) {
            debug_assert_eq!(p.len(), dim, "dimension mismatch");
            return euclidean_many_flat(p, flat, dim, out);
        }
    }
    if p.len() > 4 && crate::simd::enabled() {
        let coords: Vec<&[f64]> = rows.iter().map(DenseRow::coords).collect();
        let batch = crate::simd::Batch::Ptrs {
            rows: &coords,
            dim: p.len(),
        };
        if crate::simd::try_many(&batch, p, out) {
            return;
        }
    }
    match p.len() {
        1 => many_rows_seq_fixed::<1>(p, rows, out),
        2 => many_rows_seq_fixed::<2>(p, rows, out),
        3 => many_rows_seq_fixed::<3>(p, rows, out),
        4 => many_rows_seq_fixed::<4>(p, rows, out),
        _ => euclidean_many(p, rows.iter().map(DenseRow::coords), out),
    }
}

/// Per-row fixed-D distance sweep over `DenseRow` views — the `many`
/// counterpart of [`relax_rows_seq_fixed`], same rationale.
fn many_rows_seq_fixed<const D: usize>(p: &[f64], rows: &[DenseRow<'_>], out: &mut [f64]) {
    let c: &[f64; D] = p[..D].try_into().expect("dim checked by caller");
    for (o, r) in out.iter_mut().zip(rows.iter()) {
        let q = r.coords();
        let mut s = 0.0;
        for j in 0..D {
            let d = c[j] - q[j];
            s += d * d;
        }
        *o = s.sqrt();
    }
    diversity_obs::count("kernel.distances", out.len() as u64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_dim_matches_general() {
        let a = [0.5, -1.25, 3.0, 0.125];
        let b = [2.0, 0.75, -0.5, 8.0];
        for d in 1..=4usize {
            let gen = l2_sq(&a[..d], &b[..d]);
            let fixed = dispatch_dim!(d, l2_sq_fixed, l2_sq, &a[..d], &b[..d]);
            assert_eq!(gen.to_bits(), fixed.to_bits());
            let gen1 = l1(&a[..d], &b[..d]);
            let fixed1 = dispatch_dim!(d, l1_fixed, l1, &a[..d], &b[..d]);
            assert_eq!(gen1.to_bits(), fixed1.to_bits());
        }
    }

    #[test]
    fn root_elision_never_skips_an_improvement() {
        // Adversarial incumbents: exact distances of nearby points, so
        // the squared comparison sits right on the rounding boundary.
        let pts: Vec<[f64; 1]> = (0..2000).map(|i| [(i as f64) * 0.1 - 100.0]).collect();
        let c = [0.37];
        for p in &pts {
            let d = l2_sq(&c, p).sqrt();
            for q in &pts {
                let d_sq = l2_sq(&c, q);
                if sq_beats_threshold(d_sq, d) {
                    assert!(d_sq.sqrt() >= d, "elided a genuine improvement");
                }
            }
        }
    }

    #[test]
    fn infinity_incumbent_takes_root_path() {
        assert!(!sq_beats_threshold(1e300, f64::INFINITY));
    }
}
