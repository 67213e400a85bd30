//! Oracle tests for GMM's flat paths, the block path and the flat plain
//! loop: on every input each must return what the plain loop over the
//! points returns, bit for bit — the same selection order, insertion
//! distances, assignments and distances to the centers.
//!
//! The block path is called directly (`gmm_blocked` against
//! `gmm_plain`), so inputs far below the gate's thresholds are covered
//! too. The cases aim at what could tell the paths apart: exact ties
//! across and within runs of the ordered copy (integer grids with
//! duplicate points), run boundaries (`n` around multiples of 64),
//! `k >= n`, random starts, and clustered inputs where a run's radius
//! is far above its largest distance, so the skip test subtracts nearly
//! equal magnitudes. The flat plain loop is reached through the gate,
//! on inputs at its size and below the block path's `k`, at every
//! dimension it takes and at thread counts that split the rows
//! unevenly; inputs the flat-row hook refuses keep the loop over the
//! points.

use diversity::core::gmm::{
    gmm, gmm_blocked, gmm_plain, gmm_with_threads, takes_block_path, takes_flat_path,
};
use diversity::core::GmmOutcome;
use diversity::datasets::sphere_shell;
use diversity::metric::{Euclidean, VecPoint};
use proptest::prelude::*;

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn identical(oracle: &GmmOutcome, block: &GmmOutcome) -> Result<(), TestCaseError> {
    prop_assert_eq!(&oracle.selected, &block.selected, "selection order");
    prop_assert_eq!(
        bits(&oracle.insertion_dist),
        bits(&block.insertion_dist),
        "insertion distances"
    );
    prop_assert_eq!(&oracle.assignment, &block.assignment, "assignments");
    prop_assert_eq!(
        bits(&oracle.dist_to_centers),
        bits(&block.dist_to_centers),
        "distances to the centers"
    );
    Ok(())
}

fn check(points: &[VecPoint], k: usize, start: usize) -> Result<(), TestCaseError> {
    let oracle = gmm_plain(points, &Euclidean, k, start, 1);
    let block = gmm_blocked(points, &Euclidean, k, start).expect("finite points are ordered");
    identical(&oracle, &block)
}

/// Sizes at and around run boundaries, then anything up to 300.
fn size(choice: usize, free: usize) -> usize {
    const EDGES: [usize; 10] = [1, 2, 63, 64, 65, 127, 128, 129, 192, 256];
    EDGES.get(choice).copied().unwrap_or(free)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Integer grids with few distinct values per axis: most distances
    /// tie, and many points coincide.
    #[test]
    fn block_path_matches_plain_on_tied_grids(
        (dim, choice, free, side) in (1usize..4, 0usize..16, 1usize..301, 1i64..6),
        raw in prop::collection::vec(0i64..1_000, 900),
        (k_sel, start_sel) in (0usize..1_000, 0usize..1_000),
    ) {
        let n = size(choice, free);
        let points: Vec<VecPoint> = raw
            .chunks_exact(3)
            .take(n)
            .map(|c| VecPoint::new(c[..dim].iter().map(|&x| (x % side) as f64).collect()))
            .collect();
        // k runs past n, where GMM selects every point and then repeats.
        let k = 1 + k_sel % (n + 8);
        check(&points, k, start_sel % n)?;
    }

    /// Tight clusters far apart on a lattice: once every cluster holds a
    /// center, a run's largest distance is tiny while a run that spans
    /// two clusters has a radius near the lattice spacing, and many
    /// centers sit at equal distances from a pivot.
    #[test]
    fn block_path_matches_plain_on_far_apart_clusters(
        (dim, choice, free) in (1usize..4, 0usize..16, 1usize..301),
        (clusters, scale_exp, spread_exp) in (1usize..9, 0i32..7, -12i32..-6),
        raw in prop::collection::vec(0i64..1_000, 900),
        (k_sel, start_sel) in (0usize..1_000, 0usize..1_000),
    ) {
        let n = size(choice, free);
        let scale = 10f64.powi(scale_exp);
        let spread = scale * 10f64.powi(spread_exp);
        let points: Vec<VecPoint> = raw
            .chunks_exact(3)
            .take(n)
            .enumerate()
            .map(|(i, c)| {
                let cluster = i % clusters;
                VecPoint::new(
                    (0..dim)
                        .map(|j| {
                            let cell = ((cluster >> j) & 1) as f64 + (cluster / 4 * j) as f64;
                            cell * scale + (c[j] % 4) as f64 * spread
                        })
                        .collect(),
                )
            })
            .collect();
        let k = 1 + k_sel % (n + 8);
        check(&points, k, start_sel % n)?;
    }
}

/// A sphere shell above the gate: `gmm` itself takes the block path,
/// whatever thread count it is handed, and agrees with the plain loop.
#[test]
fn gated_gmm_matches_plain_on_a_sphere_shell() {
    let (points, _) = sphere_shell(20_000, 32, 3, 11);
    let k = 128;
    assert!(takes_block_path(&points, &Euclidean, k));
    let oracle = gmm_plain(&points, &Euclidean, k, 0, 1);
    for out in [
        gmm(&points, &Euclidean, k, 0),
        gmm_with_threads(&points, &Euclidean, k, 0, 4),
    ] {
        identical(&oracle, &out).expect("block path diverged from the plain loop");
    }
    let start = 12_345;
    let block = gmm_blocked(&points, &Euclidean, k, start).expect("finite points are ordered");
    identical(&gmm_plain(&points, &Euclidean, k, start, 2), &block)
        .expect("block path diverged from the threaded plain loop");
}

/// The case the skip test's slack exists for. One run holds a small
/// cluster (the pivot is one of its points) and, about 1e9 away, a
/// point `q` whose current distance is just above 1; the next center
/// lies 1 beyond `q`, almost on the line from the pivot through `q`.
/// The bound `d(c, pivot) − radius` is then within 1e-12 of `d(c, q)`
/// in real arithmetic, and rounding at the scale of the radius lifts
/// the computed bound above the run's largest distance for some of the
/// offsets below. A slack scaled by the run's largest distance alone
/// then skips the run, and `q` keeps a stale distance and center.
#[test]
fn block_path_matches_plain_where_the_skip_bound_cancels() {
    for j in 0..256 {
        let r = 1e9 * (1.0 + j as f64 / 397.0);
        let mut points: Vec<VecPoint> = (0..62)
            .map(|i| {
                VecPoint::from([
                    0.01 + 0.0061 * i as f64,
                    1000.0 + 0.0037 * ((i * 7) % 62) as f64,
                ])
            })
            .collect();
        let start = points.len();
        // q's first center, at distance √(1 + 1e-8) from q.
        points.push(VecPoint::from([r - 1.0, 1e-4]));
        points.push(VecPoint::from([r, 0.0]));
        // The third center: farthest from the first two, 1 from q.
        points.push(VecPoint::from([r + 1.0, 0.0]));
        for k in 3..6 {
            let oracle = gmm_plain(&points, &Euclidean, k, start, 1);
            let block =
                gmm_blocked(&points, &Euclidean, k, start).expect("finite points are ordered");
            identical(&oracle, &block)
                .unwrap_or_else(|e| panic!("r = {r}, k = {k}: block path diverged: {e:?}"));
        }
    }
}

/// The same geometry at a scale where squared distances are subnormal:
/// their rounding error is absolute, so a slack relative to the
/// magnitudes alone no longer covers it, and the skip test's absolute
/// floor does. In 3-D the three squares round separately, and some of
/// these offsets put the computed `d(c, q)` below `q`'s current
/// distance while the computed bound clears the relative slack.
#[test]
fn block_path_matches_plain_where_squares_underflow() {
    let t = 1e-161;
    let r = 1e6 * t;
    for j in 0..1_000u32 {
        let frac = |x: f64| (f64::from(j) * x) % 1.0;
        let (k1, k2) = (
            0.5 + frac(0.7320508075688772),
            0.5 + frac(0.2360679774997897),
        );
        let step = t * (0.5 + frac(0.4142135623730951));
        let gap = step * (1.0 + k1 * k1 + k2 * k2).sqrt();
        // 62 coincident points at the origin hold the pivot.
        let mut points = vec![VecPoint::from([0.0; 3]); 62];
        let start = points.len();
        // q's first center, up to 2% nearer to q than the next center
        // is; then q; then the next center, beyond q on the line from
        // the origin through q.
        points.push(VecPoint::from([
            r - gap * (1.0 - 0.02 * frac(0.6180339887498949)),
            r * k1,
            r * k2,
        ]));
        points.push(VecPoint::from([r, r * k1, r * k2]));
        points.push(VecPoint::from([
            r + step,
            r * k1 + step * k1,
            r * k2 + step * k2,
        ]));
        let oracle = gmm_plain(&points, &Euclidean, 3, start, 1);
        let block = gmm_blocked(&points, &Euclidean, 3, start).expect("finite points are ordered");
        identical(&oracle, &block)
            .unwrap_or_else(|e| panic!("offset {j}: block path diverged: {e:?}"));
    }
}

/// The flat plain loop: sphere shells at its smallest sizes, every
/// dimension it takes and `k` below the block path's, plus `k = 128` at
/// d = 4, where the block path stops. Each case runs on two of one,
/// two, three and five threads, in rotation.
#[test]
fn flat_plain_loop_matches_plain_on_sphere_shells() {
    const THREADS: [usize; 4] = [1, 2, 3, 5];
    let mut case = 0;
    for dim in 1..=4 {
        let n = 16_384 + 523 * dim;
        let (points, _) = sphere_shell(n, 32, dim, 40 + dim as u64);
        assert!(takes_flat_path(&points, &Euclidean));
        let start = 977 * dim;
        let ks: &[usize] = if dim == 4 {
            &[1, 7, 32, 127, 128]
        } else {
            &[1, 7, 32, 127]
        };
        for &k in ks {
            assert!(!takes_block_path(&points, &Euclidean, k));
            let oracle = gmm_plain(&points, &Euclidean, k, start, 1);
            for threads in [THREADS[case % 4], THREADS[(case + 1) % 4]] {
                identical(
                    &oracle,
                    &gmm_with_threads(&points, &Euclidean, k, start, threads),
                )
                .unwrap_or_else(|e| {
                    panic!("d = {dim}, k = {k}, {threads} threads: flat loop diverged: {e:?}")
                });
            }
            case += 1;
        }
    }
}

/// The gate and the oracle agree on `points` whatever path it takes.
fn gated_matches_plain(points: &[VecPoint], k: usize, start: usize) {
    let oracle = gmm_plain(points, &Euclidean, k, start, 1);
    for threads in [1, 2] {
        identical(
            &oracle,
            &gmm_with_threads(points, &Euclidean, k, start, threads),
        )
        .unwrap_or_else(|e| panic!("k = {k}, {threads} threads: diverged: {e:?}"));
    }
}

/// Inputs the flat-row hook refuses past their first point take the
/// loop over the points: mixed dimensions, and d = 5, above the flat
/// kernels' fixed widths.
#[test]
fn refused_inputs_keep_the_loop_over_the_points() {
    let (mut points, _) = sphere_shell(16_500, 32, 3, 5);
    // A 4-D twin of an earlier point. A 3-D center reads its first
    // three coordinates, so it ties its twin and never becomes a center
    // itself (a 4-D center would read past the 3-D points' ends).
    let twin = points[100].coords().to_vec();
    points[9_000] = VecPoint::new([twin.as_slice(), &[7.0]].concat());
    assert!(takes_flat_path(&points, &Euclidean));
    for k in [7, 128] {
        gated_matches_plain(&points, k, 3);
    }
    let (points, _) = sphere_shell(16_500, 32, 5, 5);
    assert!(!takes_flat_path(&points, &Euclidean));
    gated_matches_plain(&points, 32, 3);
}

/// A non-finite coordinate past index 0. `VecPoint::new` rejects it in
/// debug builds.
#[test]
#[cfg(not(debug_assertions))]
fn non_finite_inputs_keep_the_loop_over_the_points() {
    for bad in [f64::NAN, f64::INFINITY] {
        let (mut points, _) = sphere_shell(16_500, 32, 3, 6);
        points[12_000] = VecPoint::new(vec![0.5, bad, 0.5]);
        assert!(takes_flat_path(&points, &Euclidean));
        for k in [7, 128] {
            gated_matches_plain(&points, k, 3);
        }
    }
}
