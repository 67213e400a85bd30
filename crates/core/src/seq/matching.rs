//! Greedy maximum-weight matching selection: the sequential algorithm
//! for remote-clique, remote-star, and remote-bipartition.
//!
//! Repeatedly take the farthest remaining pair and add both endpoints
//! until `k` points are selected; for odd `k`, the last point is the one
//! farthest from the current selection (any point preserves the proof;
//! the farthest is the natural deterministic choice). This is
//! Hassin–Rubinstein–Tamir's 2-approximation for remote-clique, and
//! Chandra–Halldórsson analyze the same matching-based scheme into a
//! 2-approximation for remote-star and 3-approximation for
//! remote-bipartition.
//!
//! Complexity: the textbook scheme rescans every available pair for
//! each of the `⌈k/2⌉` pairs it takes, `O(k·n²)` distance evaluations.
//! Here each point `u` instead keeps a list of its `L = 8` farthest
//! partners `v > u`: one `O(n²)` sweep, a batched distance pass per row,
//! fills every list, and taking a pair only withdraws entries. A row is
//! swept again, `O(n)`, only when every partner on its full list has
//! been withdrawn, which cannot happen while fewer than `L` points are
//! withdrawn: for `k − 1 ≤ L` no row is swept twice. The pairs taken are
//! the same as the textbook scheme's, ties included. Only the lists are
//! kept, never a distance matrix, so memory stays `O(L·n)`, linear — the
//! regime Table 1 assumes.
//!
//! The sweep reads the points' coordinates as one row-major buffer when
//! the metric hands one over ([`Metric::euclidean_rows`]: `Euclidean` on
//! `VecPoint`), through [`metric::euclidean_many_flat`], and goes
//! through [`Metric::distance_many`] otherwise. The hook vouches that
//! both give the same distances, bit for bit.
//!
//! On the 4,096-point union of the `batch-mr` benchmark's remote-clique
//! job (k = 16, d = 3), lists of 8 sweep no row twice, lists of 4 sweep
//! 71 rows again, and `select` takes 23–25 ms, one thread on a shared
//! 2-vCPU Intel Xeon (AVX2) host.

use metric::Metric;

/// Partners each row of [`FarthestPairs`] keeps, `L` in the module
/// docs.
const PARTNERS: usize = 8;

/// Selects `min(k, n)` indices by greedy farthest-pair matching.
pub fn select<P, M: Metric<P>>(points: &[P], metric: &M, k: usize) -> Vec<usize> {
    let sweep: Box<Sweep> = match metric.euclidean_rows(points, usize::MAX) {
        Some((rows, dim)) => Box::new(move |u, out| {
            let (row, later) = rows[u * dim..].split_at(dim);
            metric::euclidean_many_flat(row, later, dim, out)
        }),
        None => Box::new(|u, out| metric.distance_many(&points[u], &points[u + 1..], out)),
    };
    greedy(points.len(), k, sweep, |u, v| {
        metric.distance(&points[u], &points[v])
    })
}

/// One row's sweep, as [`FarthestPairs::new`] takes it.
type Sweep<'a> = dyn Fn(usize, &mut [f64]) + 'a;

/// [`select`] over `n` points, with `sweep` as [`FarthestPairs::new`]
/// takes it and `dist` for the odd-`k` tail.
fn greedy(
    n: usize,
    k: usize,
    sweep: impl Fn(usize, &mut [f64]),
    dist: impl Fn(usize, usize) -> f64,
) -> Vec<usize> {
    let k = k.min(n);
    let mut pairs = FarthestPairs::new(n, sweep);
    let mut available = vec![true; n];
    let mut selected = Vec::with_capacity(k);
    while selected.len() + 2 <= k {
        let (u, v) = pairs
            .farthest(|w| available[w])
            .expect("k <= n leaves at least two available points");
        available[u] = false;
        available[v] = false;
        selected.push(u);
        selected.push(v);
    }
    if selected.len() < k {
        // Odd k: farthest remaining point from the selection (or the
        // first available one if the selection is empty, i.e. k = 1).
        let (mut best, mut bd) = (usize::MAX, f64::NEG_INFINITY);
        for u in 0..n {
            if !available[u] {
                continue;
            }
            let d = selected
                .iter()
                .map(|&s| dist(u, s))
                .fold(f64::INFINITY, f64::min);
            let d = if selected.is_empty() { 0.0 } else { d };
            if d > bd || best == usize::MAX {
                bd = d;
                best = u;
            }
        }
        selected.push(best);
    }
    selected
}

/// The farthest pair among the points still available, found without
/// rescanning every pair: row `u` keeps up to [`PARTNERS`] farthest
/// partners `v > u`, by distance descending and then `v` ascending, and
/// answers with the first one still available.
///
/// Callers may withdraw points between calls but never restore them.
/// A list is the top of the row's candidates when it was swept, so its
/// first available entry stays the row's farthest available partner.
/// A list shorter than [`PARTNERS`] held every candidate, so once it
/// runs out the row has none; a full list that runs out is swept
/// again, listing only the available partners. [`select`] and the
/// capacity-aware matching of `crate::generalized` both run on it.
pub(crate) struct FarthestPairs<S> {
    /// `sweep(u, out)` writes `d(u, v)` to `out[v − u − 1]` for every
    /// `v > u`.
    sweep: S,
    /// Row `u`'s list is `lists[u * PARTNERS..][..len[u]]`, entries
    /// `(d(u, v), v)`; those before `head[u]` have been withdrawn.
    lists: Vec<(f64, usize)>,
    len: Vec<usize>,
    head: Vec<usize>,
    /// One sweep's distances.
    scratch: Vec<f64>,
}

impl<S: Fn(usize, &mut [f64])> FarthestPairs<S> {
    /// Sweeps each of the `n` rows once, every point available.
    pub(crate) fn new(n: usize, sweep: S) -> Self {
        let mut pairs = Self {
            sweep,
            lists: vec![(0.0, 0); n * PARTNERS],
            len: vec![0; n],
            head: vec![0; n],
            scratch: vec![0.0; n],
        };
        for u in 0..n {
            pairs.fill(u, |_| true);
        }
        pairs
    }

    /// The farthest pair `(u, v)`, `u < v`, of points for which
    /// `available` holds, ties going to the smallest `u` and then the
    /// smallest `v` — the pair a scan of all pairs in order picks.
    /// `None` if no such pair exists.
    pub(crate) fn farthest(&mut self, available: impl Fn(usize) -> bool) -> Option<(usize, usize)> {
        let mut best: Option<(f64, usize, usize)> = None;
        for u in 0..self.len.len() {
            if !available(u) {
                continue;
            }
            if let Some((d, v)) = self.partner(u, &available) {
                if d > best.map_or(f64::NEG_INFINITY, |b| b.0) {
                    best = Some((d, u, v));
                }
            }
        }
        best.map(|(_, u, v)| (u, v))
    }

    /// Row `u`'s farthest available partner `v > u` as `(d(u, v), v)`,
    /// ties going to the smallest `v`.
    fn partner(&mut self, u: usize, available: &impl Fn(usize) -> bool) -> Option<(f64, usize)> {
        let list = u * PARTNERS;
        while self.head[u] < self.len[u] {
            let entry = self.lists[list + self.head[u]];
            if available(entry.1) {
                return Some(entry);
            }
            self.head[u] += 1;
        }
        if self.len[u] < PARTNERS {
            return None;
        }
        self.fill(u, available);
        (self.len[u] > 0).then(|| self.lists[list])
    }

    /// Sweeps row `u` and lists its farthest available partners. A
    /// candidate must compare strictly greater than the last listed
    /// one, as in a scan with a strict `>`: a later `v` at an equal
    /// distance ranks below, and a NaN distance is never listed.
    fn fill(&mut self, u: usize, available: impl Fn(usize) -> bool) {
        let out = &mut self.scratch[..self.len.len() - u - 1];
        (self.sweep)(u, out);
        let list = &mut self.lists[u * PARTNERS..(u + 1) * PARTNERS];
        let (mut len, mut floor) = (0, f64::NEG_INFINITY);
        for (v, &d) in (u + 1..).zip(out.iter()) {
            if d > floor && available(v) {
                // After every listed entry at least as far.
                let mut at = len.min(PARTNERS - 1);
                while at > 0 && list[at - 1].0 < d {
                    list[at] = list[at - 1];
                    at -= 1;
                }
                list[at] = (d, v);
                len = (len + 1).min(PARTNERS);
                if len == PARTNERS {
                    floor = list[PARTNERS - 1].0;
                }
            }
        }
        self.len[u] = len;
        self.head[u] = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metric::{Euclidean, VecPoint};
    use proptest::prelude::*;
    use std::cell::Cell;

    fn line(xs: &[f64]) -> Vec<VecPoint> {
        xs.iter().map(|&x| VecPoint::from([x])).collect()
    }

    /// The textbook scheme [`select`] must reproduce exactly: rescan
    /// every available pair for each pair taken, `O(k·n²)`.
    fn select_by_full_rescan(n: usize, k: usize, dist: impl Fn(usize, usize) -> f64) -> Vec<usize> {
        let mut available = vec![true; n];
        let mut selected = Vec::with_capacity(k);
        while selected.len() + 2 <= k {
            // Farthest available pair.
            let (mut bu, mut bv, mut bd) = (usize::MAX, usize::MAX, f64::NEG_INFINITY);
            for u in 0..n {
                if !available[u] {
                    continue;
                }
                for v in u + 1..n {
                    if !available[v] {
                        continue;
                    }
                    let d = dist(u, v);
                    if d > bd {
                        bd = d;
                        bu = u;
                        bv = v;
                    }
                }
            }
            debug_assert_ne!(bu, usize::MAX);
            available[bu] = false;
            available[bv] = false;
            selected.push(bu);
            selected.push(bv);
        }
        if selected.len() < k {
            let (mut best, mut bd) = (usize::MAX, f64::NEG_INFINITY);
            for u in 0..n {
                if !available[u] {
                    continue;
                }
                let d = selected
                    .iter()
                    .map(|&s| dist(u, s))
                    .fold(f64::INFINITY, f64::min);
                let d = if selected.is_empty() { 0.0 } else { d };
                if d > bd || best == usize::MAX {
                    bd = d;
                    best = u;
                }
            }
            selected.push(best);
        }
        selected
    }

    fn agrees_with_full_rescan<M: Metric<VecPoint>>(
        points: &[VecPoint],
        metric: &M,
        k: usize,
    ) -> bool {
        let dist = |u: usize, v: usize| Euclidean.distance(&points[u], &points[v]);
        select(points, metric, k) == select_by_full_rescan(points.len(), k.min(points.len()), dist)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Points on a small integer grid repeat distances (and whole
        /// points) everywhere, so every tie-break is exercised; odd k
        /// and k > n are included, and k past `2·PARTNERS` runs lists
        /// out, so rows are swept again.
        #[test]
        fn matches_full_rescan_on_tie_heavy_grids(
            cells in prop::collection::vec((0u32..6, 0u32..6), 1..61),
            side in 1u32..7,
        ) {
            let points: Vec<VecPoint> = cells
                .iter()
                .map(|&(x, y)| VecPoint::from([f64::from(x % side), f64::from(y % side)]))
                .collect();
            for k in 1..=20 {
                prop_assert!(
                    agrees_with_full_rescan(&points, &Euclidean, k),
                    "n = {}, k = {k}",
                    points.len()
                );
            }
        }
    }

    #[test]
    fn matches_full_rescan_on_a_sphere_shell() {
        let (points, _) = diversity_datasets::sphere_shell(4096, 16, 3, 17);
        for k in [16, 32] {
            assert!(agrees_with_full_rescan(&points, &Euclidean, k), "k = {k}");
        }
    }

    /// Euclidean behind a reference whose batch hook must not run: a
    /// sweep through [`Metric::distance_many`] panics, so `select` only
    /// succeeds on the flat sweep, which `&M` must forward the hook for.
    struct FlatOnly;

    impl Metric<VecPoint> for FlatOnly {
        fn distance(&self, a: &VecPoint, b: &VecPoint) -> f64 {
            Euclidean.distance(a, b)
        }

        fn distance_many(&self, _: &VecPoint, _: &[VecPoint], _: &mut [f64]) {
            panic!("the sweep went through distance_many, not the flat rows")
        }

        fn euclidean_rows(&self, points: &[VecPoint], max_dim: usize) -> Option<(Vec<f64>, usize)> {
            Euclidean.euclidean_rows(points, max_dim)
        }
    }

    #[test]
    fn flat_sweep_survives_a_reference_to_the_metric() {
        let (points, _) = diversity_datasets::sphere_shell(600, 8, 3, 31);
        for k in [2, 9, 17, 30] {
            assert!(agrees_with_full_rescan(&points, &&FlatOnly, k), "k = {k}");
            assert!(agrees_with_full_rescan(&points, &&Euclidean, k), "k = {k}");
        }
    }

    /// [`greedy`] with a sweep that counts its calls per row.
    fn sweeps_per_row(points: &[VecPoint], k: usize) -> Vec<usize> {
        let counts: Vec<Cell<usize>> = (0..points.len()).map(|_| Cell::new(0)).collect();
        let sweep = |u: usize, out: &mut [f64]| {
            counts[u].set(counts[u].get() + 1);
            Euclidean.distance_many(&points[u], &points[u + 1..], out);
        };
        let dist = |u: usize, v: usize| Euclidean.distance(&points[u], &points[v]);
        let selected = greedy(points.len(), k, sweep, dist);
        assert_eq!(
            selected,
            select_by_full_rescan(points.len(), k, dist),
            "k = {k}"
        );
        counts.into_iter().map(Cell::into_inner).collect()
    }

    #[test]
    fn rows_are_swept_once_while_k_minus_one_fits_the_lists() {
        let (points, _) = diversity_datasets::sphere_shell(700, 8, 3, 37);
        for k in 1..=PARTNERS + 1 {
            assert!(
                sweeps_per_row(&points, k).iter().all(|&c| c == 1),
                "k = {k}: a row was swept again"
            );
        }
        // Ten points near 0 and ten near 100 on a line: each row of the
        // first group lists the eight farthest of the second, and the
        // pairs taken withdraw exactly those, farthest first, so the
        // ninth pair finds row 8's list spent and sweeps it again.
        let line: Vec<VecPoint> = (0..20)
            .map(|i| VecPoint::from([f64::from(i / 10) * 100.0 + f64::from(i % 10) * 0.01]))
            .collect();
        let counts = sweeps_per_row(&line, 2 * PARTNERS + 2);
        assert_eq!(counts[8], 2, "{counts:?}");
    }

    #[test]
    fn first_pair_is_the_diameter() {
        let pts = line(&[0.0, 2.0, 7.0, 10.0]);
        let sel = select(&pts, &Euclidean, 2);
        let mut s = sel.clone();
        s.sort_unstable();
        assert_eq!(s, vec![0, 3]);
    }

    #[test]
    fn two_pairs_do_not_reuse_points() {
        let pts = line(&[0.0, 1.0, 9.0, 10.0]);
        let mut sel = select(&pts, &Euclidean, 4);
        sel.sort_unstable();
        assert_eq!(sel, vec![0, 1, 2, 3]);
    }

    #[test]
    fn odd_k_adds_farthest_extra() {
        let pts = line(&[0.0, 5.0, 10.0]);
        let mut sel = select(&pts, &Euclidean, 3);
        sel.sort_unstable();
        assert_eq!(sel, vec![0, 1, 2]);
    }

    #[test]
    fn k_one_selects_single_point() {
        let pts = line(&[3.0, 4.0]);
        let sel = select(&pts, &Euclidean, 1);
        assert_eq!(sel.len(), 1);
    }

    #[test]
    fn no_duplicates_for_all_k() {
        let pts = line(&[0.0, 1.0, 2.0, 3.5, 5.0, 8.0, 13.0]);
        for k in 1..=7 {
            let mut sel = select(&pts, &Euclidean, k);
            assert_eq!(sel.len(), k);
            sel.sort_unstable();
            sel.dedup();
            assert_eq!(sel.len(), k, "duplicates at k={k}");
        }
    }
}
