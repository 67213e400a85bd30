//! Oracle tests for GMM's block path: on every input it must return
//! what the plain loop returns, bit for bit — the same selection order,
//! insertion distances, assignments and distances to the centers.
//!
//! Both paths are called directly (`gmm_blocked` and `gmm_plain`), so
//! inputs far below the gate's thresholds are covered too. The cases
//! aim at what could tell the paths apart: exact ties across and within
//! runs of the ordered copy (integer grids with duplicate points), run
//! boundaries (`n` around multiples of 64), `k >= n`, random starts,
//! and clustered inputs where a run's radius is far above its largest
//! distance, so the skip test subtracts nearly equal magnitudes.

use diversity::core::gmm::{gmm, gmm_blocked, gmm_plain, gmm_with_threads, takes_block_path};
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
