//! Cross-backend conformance suite for the unified `Task` API: every
//! problem, through all four execution substrates (sequential,
//! streaming, MapReduce and a one-shard serving pool), must produce
//! k-sized, finite, index-consistent `Report`s of the same shape — and
//! every degenerate input must come back as the matching typed
//! `DivError`, never a panic.

use diversity::prelude::*;
use diversity_serve::{Serve, ShardPool};

const K: usize = 4;
const K_PRIME: usize = 16;

/// A 2-d workload with enough spread for all six objectives.
fn dataset() -> Vec<VecPoint> {
    (0..240)
        .map(|i| {
            let x = ((i * 37) % 211) as f64;
            let y = ((i * 53) % 97) as f64;
            VecPoint::from([x, y])
        })
        .collect()
}

fn task(problem: Problem) -> Task {
    Task::new(problem, K).budget(Budget::KPrime(K_PRIME))
}

/// Shape checks shared by every backend's report.
fn assert_report_shape(report: &Report<VecPoint>, problem: Problem, backend: Backend) {
    assert_eq!(report.problem, problem, "{problem}");
    assert_eq!(report.backend, backend, "{problem}");
    assert_eq!(report.k, K);
    assert_eq!(report.k_prime, K_PRIME);
    assert_eq!(report.len(), K, "{problem}: k points selected");
    assert_eq!(report.points.len(), K, "{problem}: points align");
    assert!(report.value.is_finite(), "{problem}");
    assert!(report.value > 0.0, "{problem}");
    assert!(report.coreset_size >= K, "{problem}");
    assert!(!report.timings.is_empty(), "{problem}");
    assert!(report.total_secs() >= 0.0);
    assert!(
        report.certificate.is_none(),
        "KPrime budget: no certificate"
    );
    let mut unique = report.indices.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), K, "{problem}: duplicate indices");
}

/// Indices must recover the reported points from the source data.
fn assert_index_consistent(report: &Report<VecPoint>, source: &[VecPoint]) {
    for (&i, p) in report.indices.iter().zip(&report.points) {
        assert!(i < source.len(), "index {i} out of range");
        assert_eq!(&source[i], p, "index {i} does not recover the point");
    }
}

#[test]
fn all_problems_all_backends_one_report_shape() {
    let points = dataset();
    let parts = mapreduce::partition::split_round_robin(points.clone(), 6);
    let rt = mapreduce::MapReduceRuntime::with_threads(4);
    let pool: ShardPool<VecPoint, _> = task(Problem::RemoteEdge).serve(Euclidean, 1).unwrap();
    pool.extend(points.iter().cloned()).unwrap();

    for problem in Problem::ALL {
        let task = task(problem);

        let seq = task.run_seq(&points, &Euclidean).expect("seq");
        assert_report_shape(&seq, problem, Backend::Sequential);
        assert_index_consistent(&seq, &points);
        let direct = eval::evaluate_subset(problem, &points, &Euclidean, &seq.indices);
        assert!(
            (seq.value - direct).abs() < 1e-9,
            "{problem}: reported value must match re-evaluation"
        );

        let stream = task
            .run_stream(points.iter().cloned(), &Euclidean)
            .expect("stream");
        assert_report_shape(&stream, problem, Backend::Streaming);
        assert_index_consistent(&stream, &points); // arrival order == slice order

        let mr = task
            .run_mapreduce(&parts, &Euclidean, &rt, Strategy::TwoRound)
            .expect("mapreduce");
        assert_report_shape(&mr, problem, Backend::MapReduce);
        assert_index_consistent(&mr, &points);
        assert!(
            mr.coreset_radius.expect("composed certificate") >= 0.0,
            "{problem}"
        );

        // A one-shard pool's encoded handles are shard 0's ids, which
        // on an insert-only shard are the insertion positions.
        let warm = pool.query(&task).expect("one-shard pool");
        assert_report_shape(&warm, problem, Backend::ShardedDynamic);
        assert_index_consistent(&warm, &points);
        assert!(
            warm.coreset_radius.expect("composed certificate") >= 0.0,
            "{problem}"
        );
    }
}

/// The serving pool honours the same error contract as MapReduce.
#[test]
fn sharded_error_paths_match_mapreduce() {
    let rt = mapreduce::MapReduceRuntime::with_threads(2);
    let t = task(Problem::RemoteEdge);
    let pool: ShardPool<VecPoint, _> = t.serve(Euclidean, 1).unwrap();
    let empty = mapreduce::partition::split_round_robin(Vec::<VecPoint>::new(), 1);
    assert_eq!(
        t.run_mapreduce(&empty, &Euclidean, &rt, Strategy::TwoRound),
        Err(DivError::EmptyInput)
    );
    assert_eq!(pool.query(&t), Err(DivError::EmptyInput));

    let parts = mapreduce::partition::split_round_robin(dataset(), 1);
    pool.extend(dataset()).unwrap();
    let too_many = Task::new(Problem::RemoteEdge, 1000).budget(Budget::KPrime(1000));
    let expected = DivError::InvalidK {
        k: 1000,
        n: Some(240),
    };
    assert_eq!(
        too_many.run_mapreduce(&parts, &Euclidean, &rt, Strategy::TwoRound),
        Err(expected.clone())
    );
    assert_eq!(pool.query(&too_many), Err(expected));
}

#[test]
fn delegate_saving_strategies_cover_injective_problems() {
    let points = dataset();
    let parts = mapreduce::partition::split_round_robin(points.clone(), 6);
    let rt = mapreduce::MapReduceRuntime::with_threads(4);
    for problem in Problem::ALL
        .into_iter()
        .filter(|p| p.needs_injective_proxy())
    {
        for strategy in [
            Strategy::ThreeRound,
            Strategy::Randomized { seed: 17 },
            Strategy::Recursive { memory_limit: 60 },
        ] {
            let report = task(problem)
                .run_mapreduce(&parts, &Euclidean, &rt, strategy)
                .unwrap_or_else(|e| panic!("{problem} {strategy:?}: {e}"));
            assert_report_shape(&report, problem, Backend::MapReduce);
            assert_index_consistent(&report, &points);
        }
    }
}

#[test]
fn sequential_task_agrees_with_low_level_pipeline() {
    let points = dataset();
    for problem in Problem::ALL {
        let report = task(problem).run_seq(&points, &Euclidean).unwrap();
        let direct = pipeline::coreset_then_solve(problem, &points, &Euclidean, K, K_PRIME);
        assert_eq!(report.indices, direct.indices, "{problem}");
        assert_eq!(report.value, direct.value, "{problem}");
    }
}

// ---- error paths: one test per DivError variant ----------------------

#[test]
fn empty_input_is_typed_everywhere() {
    let t = task(Problem::RemoteEdge);
    assert_eq!(
        t.run_seq(&[] as &[VecPoint], &Euclidean),
        Err(DivError::EmptyInput)
    );

    let empty_parts = mapreduce::partition::split_round_robin(Vec::<VecPoint>::new(), 3);
    let rt = mapreduce::MapReduceRuntime::with_threads(2);
    assert_eq!(
        t.run_mapreduce(&empty_parts, &Euclidean, &rt, Strategy::TwoRound),
        Err(DivError::EmptyInput)
    );

    let pool: ShardPool<VecPoint, _> = t.serve(Euclidean, 1).unwrap();
    assert_eq!(pool.query(&t), Err(DivError::EmptyInput));
}

/// Regression for the legacy `one_pass` bug: emptiness used to be an
/// `assert!` *after* the whole stream had been consumed. The task API
/// must detect it on the first poll and return a typed error — no
/// panic, early or late.
#[test]
fn empty_stream_is_an_upfront_typed_error_not_a_late_panic() {
    struct CountingEmpty<'a>(&'a mut usize);
    impl Iterator for CountingEmpty<'_> {
        type Item = VecPoint;
        fn next(&mut self) -> Option<VecPoint> {
            *self.0 += 1;
            None
        }
    }

    let mut polls = 0;
    let result = task(Problem::RemoteClique).run_stream(CountingEmpty(&mut polls), &Euclidean);
    assert_eq!(result, Err(DivError::EmptyStream));
    assert_eq!(polls, 1, "emptiness must be detected on the first poll");
}

#[test]
fn invalid_k_is_typed() {
    let points = dataset();
    let n = points.len();

    // k == 0, known n.
    let err = Task::new(Problem::RemoteEdge, 0)
        .run_seq(&points, &Euclidean)
        .unwrap_err();
    assert_eq!(err, DivError::InvalidK { k: 0, n: Some(n) });

    // k > n: strict, instead of the low-level layer's silent min(k, n).
    let err = Task::new(Problem::RemoteEdge, n + 1)
        .budget(Budget::KPrime(n + 1))
        .run_seq(&points, &Euclidean)
        .unwrap_err();
    assert_eq!(
        err,
        DivError::InvalidK {
            k: n + 1,
            n: Some(n)
        }
    );

    // k == 0 on a stream: n unknowable upfront.
    let err = Task::new(Problem::RemoteEdge, 0)
        .run_stream(points.iter().cloned(), &Euclidean)
        .unwrap_err();
    assert_eq!(err, DivError::InvalidK { k: 0, n: None });

    // Stream shorter than k: the observed length is reported.
    let err = Task::new(Problem::RemoteEdge, 5)
        .budget(Budget::KPrime(8))
        .run_stream(points.iter().take(3).cloned(), &Euclidean)
        .unwrap_err();
    assert_eq!(err, DivError::InvalidK { k: 5, n: Some(3) });
}

#[test]
fn budget_too_small_is_typed() {
    let points = dataset();
    let err = Task::new(Problem::RemoteEdge, 4)
        .budget(Budget::KPrime(3))
        .run_seq(&points, &Euclidean)
        .unwrap_err();
    assert_eq!(err, DivError::BudgetTooSmall { k_prime: 3, k: 4 });

    // The Auto cap path: the legacy suggest_kernel_size silently clamps
    // a cap below k; Budget::Auto surfaces it instead.
    let err = Task::new(Problem::RemoteEdge, 4)
        .budget(Budget::Auto {
            eps: 0.5,
            cap: Some(1),
        })
        .run_stream(points.iter().cloned(), &Euclidean)
        .unwrap_err();
    assert_eq!(err, DivError::BudgetTooSmall { k_prime: 1, k: 4 });
}

#[test]
fn invalid_eps_is_typed() {
    let points = dataset();
    for eps in [0.0, -1.0, 1.5] {
        let err = task(Problem::RemoteEdge)
            .budget(Budget::Eps { eps, dim: 2 })
            .run_seq(&points, &Euclidean)
            .unwrap_err();
        assert_eq!(err, DivError::InvalidEps { eps });

        let err = task(Problem::RemoteEdge)
            .budget(Budget::Auto { eps, cap: None })
            .run_seq(&points, &Euclidean)
            .unwrap_err();
        assert_eq!(err, DivError::InvalidEps { eps });
    }
}

#[test]
fn unsupported_strategy_is_typed() {
    let points = dataset();
    let parts = mapreduce::partition::split_round_robin(points, 4);
    let rt = mapreduce::MapReduceRuntime::with_threads(2);
    for problem in [Problem::RemoteEdge, Problem::RemoteCycle] {
        for strategy in [Strategy::ThreeRound, Strategy::Randomized { seed: 1 }] {
            let err = task(problem)
                .run_mapreduce(&parts, &Euclidean, &rt, strategy)
                .unwrap_err();
            assert_eq!(err, DivError::UnsupportedStrategy { problem, strategy });
        }
    }
}

#[test]
fn zero_memory_limit_is_typed() {
    let points = dataset();
    let parts = mapreduce::partition::split_round_robin(points, 4);
    let rt = mapreduce::MapReduceRuntime::with_threads(2);
    let err = task(Problem::RemoteEdge)
        .run_mapreduce(
            &parts,
            &Euclidean,
            &rt,
            Strategy::Recursive { memory_limit: 0 },
        )
        .unwrap_err();
    assert_eq!(err, DivError::InvalidMemoryLimit);
}

#[test]
fn malformed_partitions_are_typed() {
    let rt = mapreduce::MapReduceRuntime::with_threads(2);
    let t = task(Problem::RemoteEdge);
    let two = |xs: &[f64]| -> Vec<VecPoint> { xs.iter().map(|&x| VecPoint::from([x])).collect() };

    // Row-count mismatch.
    let parts = mapreduce::Partitions {
        parts: vec![two(&[0.0, 1.0])],
        global_indices: vec![],
    };
    assert!(matches!(
        t.run_mapreduce(&parts, &Euclidean, &rt, Strategy::TwoRound),
        Err(DivError::MalformedPartitions { .. })
    ));

    // Global index out of range.
    let parts = mapreduce::Partitions {
        parts: vec![two(&[0.0, 1.0])],
        global_indices: vec![vec![0, 7]],
    };
    assert!(matches!(
        t.run_mapreduce(&parts, &Euclidean, &rt, Strategy::TwoRound),
        Err(DivError::MalformedPartitions { .. })
    ));

    // Duplicate global index.
    let parts = mapreduce::Partitions {
        parts: vec![two(&[0.0, 1.0]), two(&[2.0, 3.0])],
        global_indices: vec![vec![0, 1], vec![1, 2]],
    };
    assert!(matches!(
        t.run_mapreduce(&parts, &Euclidean, &rt, Strategy::TwoRound),
        Err(DivError::MalformedPartitions { .. })
    ));
}

#[test]
fn eps_budget_certificate_is_sound_on_a_line() {
    // On a 1-d instance small enough to brute-force, the reported value
    // must clear OPT / (alpha + eps) — the certificate's promise.
    let points: Vec<VecPoint> = (0..20).map(|i| VecPoint::from([i as f64])).collect();
    let report = Task::new(Problem::RemoteEdge, 3)
        .budget(Budget::Eps { eps: 1.0, dim: 1 })
        .run_seq(&points, &Euclidean)
        .unwrap();
    let cert = report.certificate.expect("certificate present");
    let opt = exact::divk_exact(Problem::RemoteEdge, &points, &Euclidean, 3);
    assert!(
        report.value >= opt.value / cert.factor - 1e-9,
        "value {} below OPT {} / factor {}",
        report.value,
        opt.value,
        cert.factor
    );
}
