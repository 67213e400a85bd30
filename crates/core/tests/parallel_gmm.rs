//! Property tests: the parallel GMM traversal returns the *identical*
//! [`GmmOutcome`] as the sequential one — same selection order, same
//! tie-breaks, same assignments, bitwise-same distances — for every
//! thread count, metric, and start point. This is the contract that
//! lets `gmm` pick its thread count from the machine (or
//! `DIVMAX_THREADS`) without results ever depending on where they ran.
//!
//! The tests call the plain loop over the points (`gmm_plain`)
//! explicitly: inputs the gate sends to GMM's flat paths would
//! otherwise never reach this loop's threads. The flat paths have their
//! own oracle test, `tests/block_gmm.rs` in the workspace.

use diversity_core::gmm::gmm_plain;
use metric::{Chebyshev, CosineDistance, Euclidean, Manhattan, Metric, VecPoint};
use proptest::prelude::*;

fn outcomes_identical<P: Sync, M: Metric<P>>(points: &[P], metric: &M, k: usize, start: usize) {
    let seq = gmm_plain(points, metric, k, start, 1);
    for threads in [2usize, 3, 5, 16] {
        let par = gmm_plain(points, metric, k, start, threads);
        assert_eq!(
            seq.selected, par.selected,
            "selection order ({threads} threads)"
        );
        assert_eq!(
            seq.assignment, par.assignment,
            "assignments ({threads} threads)"
        );
        assert_eq!(
            seq.insertion_dist.len(),
            par.insertion_dist.len(),
            "insertion count ({threads} threads)"
        );
        for (a, b) in seq.insertion_dist.iter().zip(par.insertion_dist.iter()) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "insertion_dist bits ({threads} threads)"
            );
        }
        for (i, (a, b)) in seq
            .dist_to_centers
            .iter()
            .zip(par.dist_to_centers.iter())
            .enumerate()
        {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "dist_to_centers[{i}] bits ({threads} threads)"
            );
        }
    }
}

/// Random clouds with heavy duplication pressure: coordinates snap to
/// a coarse lattice so exact ties (the tie-break hazard for a chunked
/// argmax) occur constantly.
fn tied_cloud() -> impl Strategy<Value = (Vec<VecPoint>, usize, usize)> {
    (
        1usize..4,
        8usize..120,
        prop::collection::vec(prop::collection::vec(-8.0..8.0f64, 3), 120),
        1usize..20,
        0usize..1000,
    )
        .prop_map(|(dim, n, rows, k, start_sel)| {
            let points: Vec<VecPoint> = rows
                .into_iter()
                .take(n)
                .map(|r| VecPoint::new(r[..dim].iter().map(|c| c.round()).collect()))
                .collect();
            let start = start_sel % points.len();
            (points, k, start)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn parallel_identical_on_tied_lattices((points, k, start) in tied_cloud()) {
        outcomes_identical(&points, &Euclidean, k, start);
        outcomes_identical(&points, &Manhattan, k, start);
        outcomes_identical(&points, &Chebyshev, k, start);
    }

    #[test]
    fn parallel_identical_on_smooth_clouds(
        rows in prop::collection::vec(prop::collection::vec(-1e3..1e3f64, 3), 16..200),
        k in 1usize..40,
        start_sel in 0usize..1000,
    ) {
        let points: Vec<VecPoint> = rows.into_iter().map(VecPoint::new).collect();
        let start = start_sel % points.len();
        outcomes_identical(&points, &Euclidean, k, start);
        outcomes_identical(&points, &CosineDistance, k, start);
    }
}

/// A fixed larger run (n above the auto-parallel threshold, k = 64)
/// so the barrier loop gets exercised at realistic round counts even
/// when the property cases stay small.
#[test]
fn parallel_identical_at_scale() {
    let points: Vec<VecPoint> = (0..40_000)
        .map(|i| {
            let x = ((i * 2654435761u64 as usize) % 9973) as f64 * 0.01;
            let y = ((i * 40503) % 7919) as f64 * 0.013;
            let z = ((i * 97) % 101) as f64; // heavy ties in z
            VecPoint::from([x, y, z])
        })
        .collect();
    outcomes_identical(&points, &Euclidean, 64, 17);
}

/// A worker panic must propagate like the sequential path's panic, not
/// deadlock the barrier protocol (regression test for the abort flag
/// in `gmm_parallel`).
#[test]
fn worker_panic_propagates_instead_of_deadlocking() {
    struct Trap;
    impl metric::Metric<VecPoint> for Trap {
        fn distance(&self, a: &VecPoint, b: &VecPoint) -> f64 {
            let d = Euclidean.distance(a, b);
            assert!(d < 900.0, "trap sprung");
            d
        }
    }
    let points: Vec<VecPoint> = (0..4000).map(|i| VecPoint::from([i as f64])).collect();
    let result = std::panic::catch_unwind(|| {
        let _ = gmm_plain(&points, &Trap, 8, 0, 4);
    });
    assert!(result.is_err(), "panic must escape the parallel traversal");
}
