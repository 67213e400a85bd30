//! Property tests for the composition laws of the `Coreset` artifact —
//! the algebra every substrate now speaks (Definition 2 and the
//! Lemma 3–4 telescope of the paper):
//!
//! * `merge` is associative, and commutative up to point order: the
//!   multiset of `(source, weight)` pairs, the radius (`max`), and the
//!   budget (`max`) are order-independent, and solving on either order
//!   stays within the sequential algorithm's `α` of the other (both
//!   orders hold the *same candidate set*);
//! * merged radii are the `max` the union law requires, and re-
//!   extraction (`shrink`/`deepen`) *adds* radii — verified against
//!   the ground truth `certifies` check, not just the bookkeeping;
//! * the sharded 2-round run's composed certificate is sound (every
//!   input point within the reported radius of the solve input) and
//!   its value stays within the documented factor of `run_seq` on the
//!   conformance problems.

use diversity::prelude::*;
use proptest::prelude::*;
use proptest::Strategy as _;

const K: usize = 4;
const K_PRIME: usize = 12;

fn arb_points() -> impl proptest::Strategy<Value = Vec<VecPoint>> {
    (40usize..120, 0u64..1000).prop_map(|(n, seed)| {
        (0..n)
            .map(|i| {
                let x = (((i as u64 * 37 + seed * 13) % 223) as f64) * 0.7;
                let y = (((i as u64 * 53 + seed * 7) % 211) as f64) * 1.3;
                VecPoint::from([x, y])
            })
            .collect()
    })
}

/// Extracts one artifact per round-robin shard, sources kept global.
fn shard_artifacts(problem: Problem, points: &[VecPoint], shards: usize) -> Vec<Coreset<VecPoint>> {
    let parts = mapreduce::partition::split_round_robin(points.to_vec(), shards);
    parts
        .parts
        .iter()
        .zip(&parts.global_indices)
        .filter(|(part, _)| !part.is_empty())
        .map(|(part, globals)| {
            pipeline::extract_coreset_artifact(problem, part, &Euclidean, K, K_PRIME)
                .map_sources(|local| globals[local as usize] as u64)
        })
        .collect()
}

/// Order-independent fingerprint of an artifact's contents.
fn fingerprint(cs: &Coreset<VecPoint>) -> Vec<(u64, usize)> {
    let mut pairs: Vec<(u64, usize)> = cs
        .sources()
        .iter()
        .copied()
        .zip(cs.weights().iter().copied())
        .collect();
    pairs.sort_unstable();
    pairs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `merge` is associative on the nose (same concatenation), and
    /// commutative up to point order.
    #[test]
    fn merge_is_associative_and_commutative(points in arb_points()) {
        let arts = shard_artifacts(Problem::RemoteClique, &points, 3);
        prop_assume!(arts.len() == 3);
        let [a, b, c] = <[Coreset<VecPoint>; 3]>::try_from(arts).unwrap();

        let left = a.clone().merge(b.clone()).merge(c.clone());
        let right = a.clone().merge(b.clone().merge(c.clone()));
        prop_assert_eq!(&left, &right, "associativity is exact");

        let ab = a.clone().merge(b.clone());
        let ba = b.merge(a);
        prop_assert_eq!(fingerprint(&ab), fingerprint(&ba));
        prop_assert_eq!(ab.radius(), ba.radius());
        prop_assert_eq!(ab.k_prime(), ba.k_prime());
        prop_assert_eq!(ab.total_weight(), ba.total_weight());
    }

    /// Solving on either merge order stays within the sequential
    /// algorithm's `α`: both orders present the same candidate set, so
    /// each value is in `[OPT_T/α, OPT_T]`.
    #[test]
    fn merge_is_commutative_up_to_objective_value(points in arb_points()) {
        for problem in [Problem::RemoteEdge, Problem::RemoteClique, Problem::RemoteTree] {
            let arts = shard_artifacts(problem, &points, 2);
            prop_assume!(arts.len() == 2);
            let (a, b) = (arts[0].clone(), arts[1].clone());
            let ab = pipeline::solve_coreset(problem, &a.clone().merge(b.clone()), &Euclidean, K);
            let ba = pipeline::solve_coreset(problem, &b.merge(a), &Euclidean, K);
            let alpha = problem.alpha();
            prop_assert!(
                ab.value * alpha >= ba.value - 1e-9 && ba.value * alpha >= ab.value - 1e-9,
                "{problem}: orders diverged beyond alpha: {} vs {}",
                ab.value,
                ba.value
            );
        }
    }

    /// The merged radius is the `max` the union law requires — and it
    /// is *sound*: the union certifies the whole input. A smaller
    /// radius than some constituent's would be unsound whenever that
    /// shard has a point at its full covering distance.
    #[test]
    fn merged_radius_is_the_lawful_max(points in arb_points()) {
        let arts = shard_artifacts(Problem::RemoteEdge, &points, 3);
        let expected = arts.iter().map(Coreset::radius).fold(0.0f64, f64::max);
        let merged = Coreset::merge_all(arts).unwrap();
        prop_assert_eq!(merged.radius(), expected);
        prop_assert!(merged.certifies(&points, &Euclidean, 1e-9),
            "union must cover the whole input within the max radius");
    }

    /// Re-extraction composes radii additively (`deepen`): the child's
    /// certificate is parent + own, and it still certifies the
    /// *original* input — the Lemma 3–4 telescope.
    #[test]
    fn reextraction_adds_radii(points in arb_points()) {
        let parent =
            pipeline::extract_coreset_artifact(Problem::RemoteEdge, &points, &Euclidean, K, 24);
        let child = pipeline::shrink_coreset(Problem::RemoteEdge, &parent, &Euclidean, K, 8, 1);
        // The bookkeeping: child radius ≥ parent radius (additivity
        // with a non-negative own term)...
        prop_assert!(child.radius() >= parent.radius());
        // ...and the ground truth: the composed certificate covers the
        // original points, not just the parent's.
        prop_assert!(child.certifies(&points, &Euclidean, 1e-9));
    }

    /// The sharded composition (`two_round` over the parts): composed
    /// certificate sound, value within the documented factor of
    /// `run_seq`, on ≥ 3 problems.
    #[test]
    fn sharded_dynamic_tracks_run_seq(points in arb_points(), shards in 2usize..5) {
        let parts = mapreduce::partition::split_round_robin(points.clone(), shards);
        let rt = mapreduce::MapReduceRuntime::with_threads(2);
        for problem in [
            Problem::RemoteEdge,
            Problem::RemoteClique,
            Problem::RemoteStar,
            Problem::RemoteTree,
        ] {
            let task = Task::new(problem, K).budget(Budget::KPrime(K_PRIME));
            let seq = task.run_seq(&points, &Euclidean).unwrap();
            let sharded = task
                .run_mapreduce(&parts, &Euclidean, &rt, diversity::Strategy::TwoRound)
                .unwrap();
            prop_assert_eq!(sharded.len(), K);
            // Soundness of the composed radius: rebuild the union the
            // run solved on and certify against the full input.
            let merged = Coreset::merge_all(parts.parts.iter().filter(|p| !p.is_empty()).map(|part| {
                pipeline::extract_coreset_artifact(problem, part, &Euclidean, K, K_PRIME)
            }))
            .unwrap();
            prop_assert_eq!(Some(merged.radius()), sharded.coreset_radius);
            prop_assert!(merged.certifies(&points, &Euclidean, 1e-9),
                "{problem}: composed radius must cover the input");
            // Documented factor: within the sequential algorithm's α
            // (both pipelines run the same α-approximation, on coresets
            // whose quality the radius certificates bound).
            let floor = seq.value / problem.alpha() - 1e-9;
            prop_assert!(
                sharded.value >= floor,
                "{problem}: sharded {} below run_seq {} / alpha {}",
                sharded.value,
                seq.value,
                problem.alpha()
            );
        }
    }
}
