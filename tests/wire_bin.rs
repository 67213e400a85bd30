//! The binary wire codec (`diversity::wire`) under test at the
//! workspace level: golden byte pins freezing the encoding, property
//! tests proving binary round-trips agree with the JSON serde path,
//! and hostile-input rejection (torn buffers, trailing bytes, bogus
//! lengths) — always a typed [`WireError`], never a panic.

use diversity::prelude::*;
use diversity::wire::{from_bytes, to_bytes, WireError};
use diversity_serve::{PoolConfig, PoolState, RouterState, Serve, ShardPool};
use proptest::prelude::*;
use proptest::Strategy as _;

// ---- golden pins ----------------------------------------------------
//
// These byte sequences are the frozen wire contract: a change here is
// a protocol version bump, not a test update.

#[test]
fn golden_task_bytes() {
    let task = Task::new(Problem::RemoteEdge, 8).budget(Budget::KPrime(32));
    // problem tag 0, k=8 varint, budget tag 1 + varint 32, threads
    // None, projection None.
    assert_eq!(to_bytes(&task), vec![0, 8, 1, 32, 0, 0]);
    let with_threads = Task::new(Problem::RemoteCycle, 300)
        .budget(Budget::Eps { eps: 0.5, dim: 3 })
        .threads(2);
    // problem tag 5; 300 = 0xAC 0x02 varint; budget tag 2 + f64(0.5)
    // LE + dim varint 3; threads Some(2); projection None.
    let mut expected = vec![5, 0xAC, 0x02, 2];
    expected.extend_from_slice(&0.5f64.to_bits().to_le_bytes());
    expected.extend_from_slice(&[3, 1, 2, 0]);
    assert_eq!(to_bytes(&with_threads), expected);
    assert_eq!(from_bytes::<Task>(&expected).unwrap(), with_threads);

    // A projection spec appends Option tag 1 + f64(eps) + seed varint.
    let projected = Task::new(Problem::RemoteEdge, 8)
        .budget(Budget::KPrime(32))
        .project(0.25, 7);
    let mut expected = vec![0, 8, 1, 32, 0, 1];
    expected.extend_from_slice(&0.25f64.to_bits().to_le_bytes());
    expected.push(7);
    assert_eq!(to_bytes(&projected), expected);
    assert_eq!(from_bytes::<Task>(&expected).unwrap(), projected);
}

#[test]
fn golden_point_and_router_bytes() {
    let point = VecPoint::new(vec![1.0, -0.5]);
    let mut expected = vec![2];
    expected.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
    expected.extend_from_slice(&(-0.5f64).to_bits().to_le_bytes());
    assert_eq!(to_bytes(&point), expected);

    let router = RouterState {
        kind: "round-robin".into(),
        cursor: 7,
        shards: 4,
    };
    // Kind (varint length + bytes), cursor varint, shard-count varint
    // (appended by the rebalancing PR — a protocol version bump).
    let mut expected = vec![11];
    expected.extend_from_slice(b"round-robin");
    expected.push(7);
    expected.push(4);
    assert_eq!(to_bytes(&router), expected);
}

// ---- generators (mirroring tests/task_serde.rs) ---------------------

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn task_binary_roundtrips_and_is_smaller_than_json(task in arb_task()) {
        let bytes = to_bytes(&task);
        prop_assert_eq!(from_bytes::<Task>(&bytes).unwrap(), task.clone());
        let json = serde_json::to_string(&task).unwrap();
        prop_assert!(
            bytes.len() < json.len(),
            "binary {} >= JSON {}", bytes.len(), json.len()
        );
    }

    #[test]
    fn coreset_binary_roundtrips_and_is_smaller_than_json(coreset in arb_coreset()) {
        let bytes = to_bytes(&coreset);
        prop_assert_eq!(from_bytes::<Coreset<VecPoint>>(&bytes).unwrap(), coreset.clone());
        let json = serde_json::to_string(&coreset).unwrap();
        prop_assert!(bytes.len() < json.len());
    }

    /// Every strict prefix of a valid encoding fails with a typed
    /// error, and every suffix-padded buffer reports the trailing
    /// bytes. No input may panic.
    #[test]
    fn torn_and_padded_task_buffers_fail_typed(task in arb_task()) {
        let bytes = to_bytes(&task);
        for cut in 0..bytes.len() {
            match from_bytes::<Task>(&bytes[..cut]) {
                Err(_) => {}
                Ok(decoded) => prop_assert!(
                    false,
                    "prefix of {} / {} bytes decoded as {decoded:?}",
                    cut, bytes.len()
                ),
            }
        }
        let mut padded = bytes.clone();
        padded.push(0);
        prop_assert_eq!(
            from_bytes::<Task>(&padded).unwrap_err(),
            WireError::TrailingBytes { remaining: 1 }
        );
    }

    /// An executed report — generic payload, certificate, timings —
    /// survives the binary wire bit-for-bit, matching the JSON path.
    #[test]
    fn executed_report_roundtrips_binary(
        seed in 0u64..1000,
        k in 2usize..6,
        problem in arb_problem(),
    ) {
        let (points, _) = datasets::sphere_shell(60, k, 3, seed);
        let task = Task::new(problem, k).budget(Budget::KPrime(4 * k));
        let report = task.run_seq(&points, &Euclidean).unwrap();
        let bytes = to_bytes(&report);
        let back: Report<VecPoint> = from_bytes(&bytes).unwrap();
        prop_assert_eq!(back.indices, report.indices);
        prop_assert_eq!(back.value.to_bits(), report.value.to_bits());
        prop_assert_eq!(back.backend, report.backend);
        prop_assert_eq!(
            back.coreset_radius.map(f64::to_bits),
            report.coreset_radius.map(f64::to_bits)
        );
        let json = serde_json::to_string(&report).unwrap();
        prop_assert!(bytes.len() < json.len());
    }
}

// ---- hostile inputs -------------------------------------------------

#[test]
fn hostile_vec_length_is_rejected_before_allocation() {
    // A Vec<VecPoint> claiming u64::MAX elements in a 3-byte buffer.
    let mut bytes = vec![0xFF; 9];
    bytes.push(0x01);
    match from_bytes::<Vec<VecPoint>>(&bytes) {
        Err(WireError::LengthOverflow { what, .. }) => assert_eq!(what, "sequence"),
        other => panic!("expected LengthOverflow, got {other:?}"),
    }
}

#[test]
fn corrupt_pool_checkpoint_is_rejected_not_a_panic() {
    let task = Task::new(Problem::RemoteEdge, 3).budget(Budget::KPrime(12));
    let pool: ShardPool<VecPoint, _> = task.serve(Euclidean, 2).unwrap();
    pool.extend((0..20).map(|i| VecPoint::from([i as f64, 0.5 * i as f64])))
        .unwrap();
    let bytes = to_bytes(&pool.checkpoint().unwrap());

    // Every strict prefix fails typed.
    for cut in (0..bytes.len()).step_by(7) {
        assert!(
            from_bytes::<PoolState<VecPoint>>(&bytes[..cut]).is_err(),
            "prefix of {cut} bytes decoded"
        );
    }
    // Flipping each byte either still decodes (a value change the
    // pool re-validates on restore) or fails typed — never panics.
    for i in (0..bytes.len()).step_by(11) {
        let mut corrupt = bytes.clone();
        corrupt[i] ^= 0xA5;
        let _ = from_bytes::<PoolState<VecPoint>>(&corrupt);
    }
    // An ε that cannot size `Budget::Auto` decodes, and restore
    // refuses it naming ε rather than panicking at the first query.
    for eps in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        let mut state: PoolState<VecPoint> = from_bytes(&bytes).unwrap();
        for shard in &mut state.shards {
            shard.epsilon = eps;
        }
        let state: PoolState<VecPoint> = from_bytes(&to_bytes(&state)).unwrap();
        match ShardPool::restore(Euclidean, state).err() {
            Some(DivError::CorruptState { reason }) => {
                assert!(reason.contains("epsilon"), "eps {eps}: {reason}")
            }
            other => panic!("eps {eps}: expected CorruptState, got {other:?}"),
        }
    }
    // A pool configured with such an ε refuses `Auto` queries typed.
    let pool = ShardPool::with_config(
        Euclidean,
        PoolConfig {
            epsilon: 0.0,
            dim: 2,
        },
        1,
    );
    pool.extend((0..20).map(|i| VecPoint::from([i as f64, 0.5 * i as f64])))
        .unwrap();
    assert_eq!(
        pool.query(&Task::new(Problem::RemoteEdge, 3)).unwrap_err(),
        DivError::InvalidEps { eps: 0.0 }
    );
}

/// Pool replies carry `Backend::ShardedDynamic` as tag 4; tag 3 (the
/// retired cover-hierarchy backend) is refused, not reused.
#[test]
fn backend_tag_3_is_retired() {
    assert_eq!(to_bytes(&Backend::ShardedDynamic), vec![4]);
    match from_bytes::<Backend>(&[3]) {
        Err(WireError::BadTag {
            what: "Backend",
            tag: 3,
            ..
        }) => {}
        other => panic!("expected BadTag, got {other:?}"),
    }
}

#[test]
fn pool_checkpoint_binary_is_smaller_than_json() {
    let task = Task::new(Problem::RemoteEdge, 4).budget(Budget::KPrime(16));
    let pool: ShardPool<VecPoint, _> = task.serve(Euclidean, 4).unwrap();
    let (points, _) = datasets::sphere_shell(300, 8, 4, 7);
    pool.extend(points).unwrap();
    let state = pool.checkpoint().unwrap();
    let bin = to_bytes(&state);
    let json = serde_json::to_string(&state).unwrap();
    assert!(
        bin.len() < json.len() / 2,
        "binary checkpoint ({} bytes) should be well under half the JSON ({} bytes)",
        bin.len(),
        json.len()
    );

    // And the binary form restores to a bit-identical pool.
    let restored: PoolState<VecPoint> = from_bytes(&bin).unwrap();
    let restored = ShardPool::restore(Euclidean, restored).unwrap();
    let live = pool.query(&task).unwrap();
    let replay = restored.query(&task).unwrap();
    assert_eq!(replay.indices, live.indices);
    assert_eq!(replay.value.to_bits(), live.value.to_bits());
}
