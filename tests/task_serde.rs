//! Serde round-trip property tests for the wire-format types of the
//! unified API: a serving layer will ship `Task`/`Budget` job specs and
//! `Report` results over the wire, so every value must survive
//! serialize → deserialize bit-for-bit.

use diversity::prelude::*;
use diversity::Strategy; // disambiguate from proptest's Strategy trait
use proptest::prelude::*;
use proptest::Strategy as _; // ...while keeping the trait's methods in scope

fn arb_problem() -> impl proptest::Strategy<Value = Problem> {
    (0usize..Problem::ALL.len()).prop_map(|i| Problem::ALL[i])
}

fn arb_budget() -> impl proptest::Strategy<Value = Budget> {
    (0u8..3, 0.001f64..1.0, 1usize..10_000, 0u32..8, 0u8..2).prop_map(
        |(variant, eps, size, dim, cap_some)| match variant {
            0 => Budget::Auto {
                eps,
                cap: (cap_some == 1).then_some(size),
            },
            1 => Budget::KPrime(size),
            _ => Budget::Eps { eps, dim },
        },
    )
}

fn arb_strategy() -> impl proptest::Strategy<Value = Strategy> {
    (0u8..4, 0u64..u64::MAX, 1usize..100_000).prop_map(|(variant, seed, limit)| match variant {
        0 => Strategy::TwoRound,
        1 => Strategy::ThreeRound,
        2 => Strategy::Randomized { seed },
        _ => Strategy::Recursive {
            memory_limit: limit,
        },
    })
}

fn arb_coreset() -> impl proptest::Strategy<Value = Coreset<VecPoint>> {
    (1usize..20, 0u64..1000, 1usize..64, 0.0f64..100.0).prop_map(|(n, seed, k_prime, radius)| {
        let points: Vec<VecPoint> = (0..n)
            .map(|i| {
                let x = (((i as u64 * 31 + seed) % 97) as f64) * 0.5;
                VecPoint::from([x, (i as f64) * 0.25])
            })
            .collect();
        let sources: Vec<u64> = (0..n as u64).map(|i| i * 3 + seed % 7).collect();
        let weights: Vec<usize> = (0..n).map(|i| 1 + (i + seed as usize) % 4).collect();
        Coreset::new(points, sources, weights, k_prime, radius)
    })
}

fn arb_task() -> impl proptest::Strategy<Value = Task> {
    (
        arb_problem(),
        1usize..1000,
        arb_budget(),
        0usize..9,
        (0u8..2, 0.01f64..0.99, 0u64..1000),
    )
        .prop_map(|(problem, k, budget, threads, (project, eps, seed))| {
            let task = Task::new(problem, k).budget(budget).threads(threads);
            if project == 1 {
                task.project(eps, seed)
            } else {
                task
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn budget_roundtrips(budget in arb_budget()) {
        let json = serde_json::to_string(&budget).unwrap();
        let back: Budget = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(budget, back);
    }

    #[test]
    fn strategy_roundtrips(strategy in arb_strategy()) {
        let json = serde_json::to_string(&strategy).unwrap();
        let back: Strategy = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(strategy, back);
    }

    /// The `Coreset` artifact is a wire type too — shards will ship it
    /// to the combiner in a distributed deployment.
    #[test]
    fn coreset_roundtrips(coreset in arb_coreset()) {
        let json = serde_json::to_string(&coreset).unwrap();
        let back: Coreset<VecPoint> = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(coreset, back);
    }

    #[test]
    fn task_roundtrips(task in arb_task()) {
        let json = serde_json::to_string(&task).unwrap();
        let back: Task = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(task, back);
    }

    /// An executed report — the full result shape, generic payload
    /// included — survives the wire.
    #[test]
    fn executed_report_roundtrips(
        seed in 0u64..1000,
        k in 2usize..6,
        problem in arb_problem(),
    ) {
        let points: Vec<VecPoint> = (0..80)
            .map(|i| {
                let x = (((i * 37 + seed as usize) % 113) as f64) * 0.75;
                let y = ((i * 53 % 71) as f64) * 1.25;
                VecPoint::from([x, y])
            })
            .collect();
        let report = Task::new(problem, k)
            .budget(Budget::KPrime(4 * k))
            .run_seq(&points, &Euclidean)
            .unwrap();
        let json = serde_json::to_string(&report).unwrap();
        let back: Report<VecPoint> = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(report, back);
    }
}

/// The wire format itself is part of the contract: a serving layer's
/// clients will construct these by hand.
#[test]
fn wire_format_is_stable() {
    let task = Task::new(Problem::RemoteClique, 8)
        .budget(Budget::Eps { eps: 0.5, dim: 3 })
        .threads(4);
    assert_eq!(
        serde_json::to_string(&task).unwrap(),
        r#"{"problem":"RemoteClique","k":8,"budget":{"Eps":{"eps":0.5,"dim":3}},"threads":4,"projection":null}"#
    );

    let task = Task::new(Problem::RemoteEdge, 2);
    assert_eq!(
        serde_json::to_string(&task).unwrap(),
        r#"{"problem":"RemoteEdge","k":2,"budget":{"Auto":{"eps":0.5,"cap":null}},"threads":null,"projection":null}"#
    );

    let task = Task::new(Problem::RemoteEdge, 2).project(0.25, 7);
    assert_eq!(
        serde_json::to_string(&task).unwrap(),
        r#"{"problem":"RemoteEdge","k":2,"budget":{"Auto":{"eps":0.5,"cap":null}},"threads":null,"projection":{"eps":0.25,"seed":7}}"#
    );

    let spec: Task = serde_json::from_str(
        r#"{"problem":"RemoteTree","k":5,"budget":{"KPrime":40},"threads":null,"projection":null}"#,
    )
    .unwrap();
    assert_eq!(spec.problem(), Problem::RemoteTree);
    assert_eq!(spec.k(), 5);
    assert_eq!(spec.budget_spec(), Budget::KPrime(40));
    assert_eq!(spec.thread_cap(), None);
    assert_eq!(spec.projection_spec(), None);

    assert_eq!(
        serde_json::to_string(&Strategy::TwoRound).unwrap(),
        r#""TwoRound""#
    );
    assert_eq!(
        serde_json::to_string(&Strategy::Randomized { seed: 7 }).unwrap(),
        r#"{"Randomized":{"seed":7}}"#
    );
}

/// The `Coreset` wire format is pinned the same way: shards and the
/// combiner may run different builds, so the field layout is contract.
#[test]
fn coreset_wire_format_is_stable() {
    let coreset = Coreset::new(
        vec![VecPoint::from([1.0, 2.0]), VecPoint::from([3.5, -1.0])],
        vec![10, 42],
        vec![1, 3],
        8,
        0.75,
    );
    assert_eq!(
        serde_json::to_string(&coreset).unwrap(),
        r#"{"points":[{"coords":[1,2]},{"coords":[3.5,-1]}],"sources":[10,42],"weights":[1,3],"k_prime":8,"radius":0.75}"#
    );
    let back: Coreset<VecPoint> = serde_json::from_str(
        r#"{"points":[{"coords":[0.0]}],"sources":[7],"weights":[2],"k_prime":4,"radius":1.5}"#,
    )
    .unwrap();
    assert_eq!(back.len(), 1);
    assert_eq!(back.sources(), &[7]);
    assert_eq!(back.weights(), &[2]);
    assert_eq!(back.k_prime(), 4);
    assert_eq!(back.radius(), 1.5);
}

/// The observability [`Snapshot`](obs::Snapshot) is shipped inside
/// `Report::telemetry` and dumped as `DIVMAX_OBS` JSONL, so its field
/// layout is contract for dashboards and the `divmax-stats` reader —
/// pinned alongside the other wire types.
#[test]
fn obs_snapshot_wire_format_is_stable() {
    use diversity::obs;
    use obs::Recorder;

    let reg = obs::Registry::new();
    reg.count("gmm.rounds", 12);
    reg.gauge_set("serve.pool0.shard0.occupancy", 34);
    reg.observe("serve.query.e2e_ns", 1);
    reg.observe("serve.query.e2e_ns", 16);
    let snap = reg.snapshot_now();
    assert_eq!(
        serde_json::to_string(&snap).unwrap(),
        concat!(
            r#"{"counters":[{"name":"gmm.rounds","value":12}],"#,
            r#""gauges":[{"name":"serve.pool0.shard0.occupancy","value":34}],"#,
            r#""histograms":[{"name":"serve.query.e2e_ns","hist":"#,
            r#"{"count":2,"sum":17,"min":1,"max":16,"buckets":"#,
            r#"[{"index":1,"low":1,"count":1},{"index":16,"low":16,"count":1}]}}]}"#
        )
    );

    // A hand-built payload deserializes (clients construct these).
    let back: obs::Snapshot = serde_json::from_str(
        r#"{"counters":[{"name":"x","value":3}],"gauges":[],"histograms":[]}"#,
    )
    .unwrap();
    assert_eq!(back.counter("x"), Some(3));
    assert!(back.histograms.is_empty());
}

#[test]
fn malformed_specs_are_rejected() {
    for bad in [
        r#"{"problem":"RemoteEdge","k":2,"budget":{"Nope":3},"threads":null}"#,
        r#"{"problem":"NotAProblem","k":2,"budget":{"KPrime":4},"threads":null}"#,
        r#"{"k":2}"#,
        "",
    ] {
        assert!(
            serde_json::from_str::<Task>(bad).is_err(),
            "accepted malformed spec: {bad}"
        );
    }
    // "ShardedDynamic" named the retired sharded strategy.
    for bad in [r#""FourRound""#, r#""ShardedDynamic""#] {
        assert!(serde_json::from_str::<Strategy>(bad).is_err(), "{bad}");
    }
}
