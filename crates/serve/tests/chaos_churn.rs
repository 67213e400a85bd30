//! The chaos extension of the churn-stress harness: the same
//! concurrent writers-vs-readers schedule as `serve_churn`, run on a
//! pool holding a seeded [`faults::FaultPlan`] — injected shard panics,
//! slow held locks, transient query/recovery failures, corrupted
//! checkpoint text — with the full quiescent ground-truth audits after
//! every round:
//!
//! * every fault stays **typed and bounded** (the [`chaos_round`]
//!   driver asserts the failure surface op by op);
//! * after the plan is disarmed and [`ShardPool::recover_all`]
//!   runs, **every shard is `Healthy`** — every injected panic ended
//!   in a completed recovery;
//! * the recovered pool's answer sits inside the structure-reported
//!   accuracy envelope of a fresh `run_seq` on the surviving points,
//!   and the composed certificate `certifies` them — acknowledged
//!   writes survived every injected failure;
//! * checkpoint text corrupted through the
//!   [`faults::sites::CHECKPOINT_BYTES`] hook is **rejected** (parse or
//!   [`DivError::CorruptState`]), while the clean text restores to a
//!   bit-identical pool;
//! * a **degraded** answer (one shard administratively quarantined)
//!   carries a consistent [`Degradation`] block and a certificate that
//!   `certifies` ground truth on exactly the surviving points.
//!
//! `DIVMAX_FAULTS` overrides the built-in chaos mix (CI pins a seed);
//! `DIVMAX_OBS` exports the final telemetry snapshot, which must carry
//! the `fault.*` counters and the `serve.recovery_ns` histogram
//! (`divmax-stats --assert-keys` gates on them).

use diversity::obs;
use diversity::prelude::*;
use diversity_faults as faults;
use diversity_serve::{
    assert_degradation_consistent, chaos_round, value_loss, ChurnConfig, Serve, ShardHealth,
    ShardPool,
};
use std::sync::{Arc, Once};

/// Installs one process-wide [`obs::Registry`] for the whole binary
/// (the recorder is global; pools namespace their gauges).
fn shared_registry() -> Arc<obs::Registry> {
    static INSTALL: Once = Once::new();
    static mut SHARED: Option<Arc<obs::Registry>> = None;
    unsafe {
        INSTALL.call_once(|| {
            let reg = Arc::new(obs::Registry::new());
            obs::install(reg.clone());
            SHARED = Some(reg);
        });
        #[allow(static_mut_refs)]
        SHARED.clone().expect("installed above")
    }
}

/// Injected panics are expected by the hundreds; keep them off stderr
/// while still printing genuine (un-injected) panics.
fn quiet_injected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.contains("injected fault"));
            if !injected {
                default(info);
            }
        }));
    });
}

/// Deterministic pseudo-random 2D point (splitmix-style integer hash).
fn gen_point(stream: u64, i: u64) -> VecPoint {
    let mut z = stream
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(0x94D0_49BB_1331_11EB);
    z ^= z >> 30;
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    let x = (z % 2_000) as f64 * 0.1;
    let y = ((z >> 32) % 2_000) as f64 * 0.1;
    VecPoint::from([x, y])
}

/// The built-in chaos mix: every fault kind the serving stack handles,
/// at rates sized so a few hundred operations see several of each.
/// `DIVMAX_FAULTS` (CI's pinned seed) takes precedence.
fn chaos_plan() -> Arc<faults::FaultPlan> {
    Arc::new(faults::FaultPlan::from_env().unwrap_or_else(|| {
        faults::FaultPlan::from_spec(faults::FaultSpec {
            seed: 42,
            panic: 0.03,
            slow: 0.01,
            slow_ms: 1,
            corrupt: 0.35,
            drop: 0.0,
            transient: 0.02,
        })
    }))
}

/// A plan with only `spec`'s rates, for one phase of a test.
fn plan_of(spec: faults::FaultSpec) -> Arc<faults::FaultPlan> {
    Arc::new(faults::FaultPlan::from_spec(spec))
}

#[test]
fn chaos_churn_survives_and_stays_certified() {
    let registry = shared_registry();
    quiet_injected_panics();

    let problem = Problem::RemoteEdge;
    let k = 5;
    let task = Task::new(problem, k).budget(Budget::KPrime(8 * k));
    let mut pool: ShardPool<VecPoint, _> = task.serve(Euclidean, 4).expect("valid pool spec");
    let k_prime = pool.config().k_prime(&task).expect("valid budget");
    let alpha = problem.alpha();

    // Seed with points no writer ever deletes, so the pool can only
    // fall below k if acknowledged writes were lost.
    for i in 0..160 {
        pool.insert(gen_point(u64::MAX, i)).expect("seed insert");
    }

    let cfg = ChurnConfig {
        writers: 3,
        readers: 2,
        inserts_per_writer: diversity_serve::env_ops(120),
        delete_every: 3,
        queries_per_reader: 6,
    };

    let mut total_faults = 0usize;
    for round in 0..3u64 {
        let plan = chaos_plan();
        pool = pool.with_faults(plan.clone());
        let outcome = chaos_round(&pool, &task, &cfg, |w, i| {
            gen_point(round * 101 + w as u64, i as u64)
        });
        plan.disarm();
        total_faults += plan.log().len();

        // ---- quiescent audits, after full recovery -----------------
        pool.recover_all()
            .expect("every quarantined shard recovers");
        assert!(
            pool.healths().iter().all(|h| *h == ShardHealth::Healthy),
            "round {round}: every injected panic must end Healthy, got {:?}",
            pool.healths()
        );
        pool.validate();

        // Durability: every handle acknowledged (and not deleted) is
        // alive — whatever panicked, quarantined, and recovered.
        let alive: std::collections::HashSet<_> =
            pool.alive().into_iter().map(|(id, _)| id).collect();
        for id in &outcome.survivors {
            assert!(
                alive.contains(id),
                "round {round}: acknowledged id {id} lost to a fault"
            );
        }

        // Accuracy + soundness against fresh ground truth on the
        // survivors, exactly as in the fault-free harness.
        let survivors: Vec<VecPoint> = pool.alive().into_iter().map(|(_, p)| p).collect();
        let warm = pool.query(&task).expect("recovered pool answers in full");
        assert!(
            warm.degradation.is_none(),
            "round {round}: a fully recovered pool must not degrade"
        );
        let fresh = task.run_seq(&survivors, &Euclidean).expect("ground truth");
        let radius = warm.coreset_radius.expect("warm answers certify");
        let loss = value_loss(problem, k, radius);
        assert!(
            alpha * warm.value + loss >= fresh.value - 1e-9,
            "round {round}: warm {} below the certified envelope of fresh {}",
            warm.value,
            fresh.value,
        );
        let merged = pool.coreset(problem, k, k_prime);
        assert!(
            merged.certifies(&survivors, &Euclidean, 1e-9),
            "round {round}: composed certificate must cover all survivors"
        );

        // Checkpoint text through the corruption hook: corrupted text
        // is rejected (never a half-restored pool), clean text restores
        // bit-identically.
        let clean = serde_json::to_string(&pool.checkpoint().expect("healthy checkpoint"))
            .expect("serialize pool");
        let corrupting = plan_of(faults::FaultSpec {
            corrupt: 1.0,
            ..faults::FaultSpec::from_seed(round)
        });
        let mut corrupted = clean.clone();
        assert!(
            corrupting.corrupt_text(faults::sites::CHECKPOINT_BYTES, &mut corrupted),
            "rate-1.0 corruption must fire"
        );
        match serde_json::from_str::<diversity_serve::PoolState<VecPoint>>(&corrupted) {
            Err(_) => {} // truncation broke the JSON: rejected at parse
            Ok(state) => {
                // Truncation that still parses must be caught by the
                // structural validation behind restore.
                let err = ShardPool::<VecPoint, _>::restore(Euclidean, state)
                    .expect_err("corrupt state must not restore");
                assert!(matches!(err, DivError::CorruptState { .. }), "got {err}");
            }
        }
        let restored: ShardPool<VecPoint, _> = ShardPool::restore(
            Euclidean,
            serde_json::from_str(&clean).expect("clean text parses"),
        )
        .expect("clean checkpoint restores");
        let replay = restored.query(&task).expect("restored query");
        assert_eq!(replay.indices, warm.indices, "round {round}");
        assert_eq!(
            replay.value.to_bits(),
            warm.value.to_bits(),
            "round {round}"
        );
    }
    assert!(
        total_faults > 0,
        "three chaos rounds at the configured rates must inject something"
    );

    // ---- degraded answers, audited against ground truth ------------
    // Administrative quarantine = the same code path a caught panic
    // takes; the degraded answer's certificate must certify exactly
    // the surviving (healthy-shard) points.
    pool.quarantine(1);
    let degraded = pool.query(&task).expect("three shards still answer");
    let d = degraded
        .degradation
        .as_ref()
        .expect("skips degrade the answer");
    assert_degradation_consistent(d, pool.num_shards());
    assert_eq!(d.skipped_shards, vec![1]);
    let survivors: Vec<VecPoint> = pool.alive().into_iter().map(|(_, p)| p).collect();
    let surviving_coreset = pool.coreset(problem, k, k_prime);
    assert_eq!(
        Some(surviving_coreset.radius()),
        degraded.coreset_radius,
        "the degraded certificate is the surviving merge's radius"
    );
    assert!(
        surviving_coreset.certifies(&survivors, &Euclidean, 1e-9),
        "degraded certificate must certify ground truth on the survivors"
    );
    let fresh = task.run_seq(&survivors, &Euclidean).expect("ground truth");
    let loss = value_loss(problem, k, degraded.coreset_radius.expect("certified"));
    assert!(
        alpha * degraded.value + loss >= fresh.value - 1e-9,
        "degraded answers keep the certified envelope over the survivors"
    );
    pool.recover(1).expect("administrative quarantine recovers");
    assert_eq!(pool.shard_health(1), ShardHealth::Healthy);

    // ---- guaranteed fault/recovery telemetry ------------------------
    // A rate-1.0 panic plan forces the full panic → quarantine →
    // recovery path regardless of the seeded mix above, so the
    // exported snapshot always carries the keys CI gates on.
    let plan = plan_of(faults::FaultSpec {
        panic: 1.0,
        ..faults::FaultSpec::from_seed(7)
    });
    pool = pool.with_faults(plan.clone());
    let refused = pool.insert(gen_point(3, 3));
    assert!(
        matches!(refused, Err(DivError::ShardUnavailable { .. })),
        "under panic=1.0 both attempts panic: {refused:?}"
    );
    plan.disarm();
    pool.recover_all().expect("recovers once faults stop");
    assert!(pool.healths().iter().all(|h| *h == ShardHealth::Healthy));
    pool.insert(gen_point(3, 4)).expect("healthy again");

    // ---- live rebalance under the pinned fault plan -----------------
    // Skew the pool hard onto shard 0, then rebalance while a panic
    // injector is live: every failed attempt is a typed
    // `TransientFailure` that leaves the old pool serving unchanged
    // (all-or-nothing), and the eventual success strictly lowers the
    // skew while keeping the answer inside the certified envelope. The
    // exported snapshot then carries the `serve.rebalances` /
    // `serve.ids_remapped` counters CI gates on.
    let doubling = pool.len() as u64;
    for i in 0..doubling {
        pool.insert_to(0, gen_point(5, i)).expect("skew insert");
    }
    let skew_before = pool.skew();
    assert!(
        skew_before > 1.5,
        "doubling the pool onto shard 0 must drive the trigger, got {skew_before}"
    );
    let len_before = pool.len();
    let plan = plan_of(faults::FaultSpec {
        panic: 0.5,
        ..faults::FaultSpec::from_seed(20170807)
    });
    pool = pool.with_faults(plan.clone());
    let mut refusals = 0usize;
    let report = loop {
        match pool.rebalance() {
            Ok(report) => break report,
            Err(DivError::TransientFailure { site }) => {
                assert_eq!(site, "serve.rebalance");
                assert_eq!(
                    pool.len(),
                    len_before,
                    "a failed swap must leave the old pool intact"
                );
                assert_eq!(pool.skew(), skew_before, "and its skew untouched");
                refusals += 1;
                assert!(refusals < 200, "panic=0.5 cannot refuse forever");
            }
            Err(other) => panic!("rebalance under faults fails typed, got {other}"),
        }
    };
    plan.disarm();
    assert!(
        report.skew_after < skew_before,
        "a committed rebalance strictly lowers the skew ({} -> {})",
        report.skew_before,
        report.skew_after
    );
    assert!(report.ids_remapped > 0, "live ids must be remapped");
    assert_eq!(
        pool.len(),
        len_before,
        "rebalancing moves points, never loses them"
    );
    let survivors: Vec<VecPoint> = pool.alive().into_iter().map(|(_, p)| p).collect();
    let warm = pool.query(&task).expect("rebalanced pool answers in full");
    let fresh = task.run_seq(&survivors, &Euclidean).expect("ground truth");
    let loss = value_loss(problem, k, warm.coreset_radius.expect("certified"));
    assert!(
        alpha * warm.value + loss >= fresh.value - 1e-9,
        "rebalanced answers keep the certified envelope"
    );

    let snap = registry.snapshot_now();
    assert!(snap.counter("fault.injected").unwrap_or(0) > 0);
    assert!(snap.counter("fault.panic").unwrap_or(0) > 0);
    assert!(snap.counter("serve.quarantines").unwrap_or(0) > 0);
    assert!(snap.counter("serve.recoveries").unwrap_or(0) > 0);
    let recovery = snap
        .histogram("serve.recovery_ns")
        .expect("recoveries were timed");
    assert!(recovery.count > 0 && recovery.p50() >= recovery.min);
    assert!(snap.counter("serve.rebalances").unwrap_or(0) > 0);
    assert!(snap.counter("serve.ids_remapped").unwrap_or(0) > 0);
    let rebalance = snap
        .histogram("serve.rebalance_ns")
        .expect("rebalances were timed");
    assert!(rebalance.count > 0);

    // Export for CI's `divmax-stats --assert-keys` gate.
    obs::export_to_env_path(&snap).expect("JSONL export must not fail");
}

/// The determinism contract (ISSUE acceptance): the same seed over the
/// same single-threaded schedule reproduces the exact fault log and
/// the exact final state — twice through insert/delete/query churn,
/// fresh pool and fresh same-seed plan each time, everything compares
/// equal.
#[test]
fn seeded_chaos_is_deterministic() {
    shared_registry();
    quiet_injected_panics();

    let task = Task::new(Problem::RemoteClique, 4).budget(Budget::KPrime(24));
    let spec = faults::FaultSpec {
        seed: 1234,
        panic: 0.05,
        slow: 0.0,
        slow_ms: 0,
        corrupt: 0.0,
        drop: 0.0,
        transient: 0.05,
    };

    let run = || {
        let plan = Arc::new(faults::FaultPlan::from_spec(spec));
        let pool: ShardPool<VecPoint, _> = task.serve(Euclidean, 3).expect("pool");
        for i in 0..40 {
            pool.insert(gen_point(9, i)).expect("fault-free seeding");
        }
        let pool = pool.with_faults(plan.clone());
        let mut mine = Vec::new();
        let mut next_delete = 0usize;
        let mut outcomes: Vec<String> = Vec::new();
        for i in 0..250u64 {
            match pool.insert(gen_point(11, i)) {
                Ok(id) => mine.push(id),
                Err(e) => outcomes.push(format!("insert {i}: {e}")),
            }
            if i % 3 == 2 && next_delete < mine.len() {
                match pool.delete(mine[next_delete]) {
                    Ok(gone) => {
                        assert!(gone, "acknowledged id lost");
                        next_delete += 1;
                    }
                    Err(e) => outcomes.push(format!("delete {i}: {e}")),
                }
            }
            if i % 10 == 9 {
                match pool.query(&task) {
                    Ok(r) => outcomes.push(format!(
                        "query {i}: value={:016x} degraded={}",
                        r.value.to_bits(),
                        r.degradation.is_some(),
                    )),
                    Err(e) => outcomes.push(format!("query {i}: {e}")),
                }
            }
        }
        plan.disarm();
        pool.recover_all().expect("recovery drains the quarantine");
        let final_value = pool.query(&task).expect("recovered pool answers");
        outcomes.push(format!(
            "final: len={} value={:016x}",
            pool.len(),
            final_value.value.to_bits()
        ));
        (plan.log(), outcomes)
    };

    let (log_a, outcomes_a) = run();
    let (log_b, outcomes_b) = run();
    assert!(!log_a.is_empty(), "the seeded mix must inject something");
    assert_eq!(log_a, log_b, "same seed, same schedule ⇒ same fault log");
    assert_eq!(
        outcomes_a, outcomes_b,
        "same fault log ⇒ same rejections, same degradations, same bits"
    );
    assert!(
        log_a
            .iter()
            .any(|e| e.kind == faults::FaultKind::ShardPanic),
        "panic rate 0.05 over ~250 mutations must fire"
    );
}
