//! Chaos at the wire layer: with a pinned seeded fault plan injecting
//! shard panics, slow locks, and transient failures underneath the
//! server, every client sees **typed wire responses** — degraded
//! answers and backpressure statuses — never a dropped connection or a
//! torn frame. `DIVMAX_FAULTS` (CI pins a seed) overrides the built-in
//! mix.

use diversity::prelude::*;
use diversity_faults as faults;
use diversity_net::{
    frame, NetClient, NetError, Opcode, ReadOutcome, Server, ServerConfig, Status,
};
use diversity_serve::{ShardHealth, ShardPool};
use std::net::TcpStream;
use std::sync::{Arc, Once};
use std::time::Duration;

/// Injected panics are expected; keep them off stderr while still
/// printing genuine ones.
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

/// `DIVMAX_FAULTS` (CI's pinned seed) or the built-in chaos mix.
fn chaos_plan() -> Arc<faults::FaultPlan> {
    Arc::new(faults::FaultPlan::from_env().unwrap_or_else(|| {
        faults::FaultPlan::from_spec(faults::FaultSpec {
            seed: 20170807,
            panic: 0.05,
            slow: 0.01,
            slow_ms: 1,
            corrupt: 0.0,
            drop: 0.0,
            transient: 0.05,
        })
    }))
}

/// A seeded pool behind a server; `plan` perturbs the pool from the
/// first request on (seeding is fault-free).
fn seeded_server(plan: Option<Arc<faults::FaultPlan>>) -> Server<VecPoint, Euclidean> {
    let (points, _) = datasets::sphere_shell(300, 8, 4, 42);
    let mut pool = ShardPool::new(Euclidean, 4);
    pool.extend(points).expect("seed");
    if let Some(plan) = plan {
        pool = pool.with_faults(plan);
    }
    Server::start(
        pool,
        ServerConfig {
            workers: 6,
            ..ServerConfig::default()
        },
    )
    .expect("ephemeral bind")
}

/// A quarantined shard surfaces as a **Degraded wire status** carrying
/// the full report and its `Degradation` block — not a connection
/// drop, not an error status.
#[test]
fn quarantined_shards_degrade_wire_answers_without_dropping_connections() {
    let server = seeded_server(None);
    let task = Task::new(Problem::RemoteEdge, 4).budget(Budget::KPrime(16));
    server.pool().quarantine(1);

    // Raw frame exchange, so the status *byte* itself is visible.
    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    frame::write_frame(&mut raw, Opcode::Query, &diversity::wire::to_bytes(&task))
        .expect("send query");
    let mut reader = frame::FrameReader::new(raw.try_clone().unwrap());
    let response = loop {
        match reader.poll_frame().expect("typed response, not a drop") {
            ReadOutcome::Frame(f) => break f,
            ReadOutcome::Idle => {}
            ReadOutcome::Closed => panic!("server dropped the connection"),
        }
    };
    assert_eq!(response.opcode, Opcode::Query);
    assert_eq!(
        response.payload[0],
        Status::Degraded as u8,
        "quarantine must surface as the Degraded status byte"
    );
    let report: Report<VecPoint> =
        diversity::wire::from_bytes(&response.payload[1..]).expect("degraded body is a Report");
    let degradation = report
        .degradation
        .as_ref()
        .expect("degradation block present");
    assert_eq!(degradation.skipped_shards, vec![1]);
    assert_eq!(degradation.shards_answered, 3);
    assert_eq!(degradation.shards_total, 4);
    assert_eq!(report.len(), 4);

    // Same connection, after recovery: back to full-fidelity Ok.
    server.pool().recover_all().expect("recovers");
    frame::write_frame(&mut raw, Opcode::Query, &diversity::wire::to_bytes(&task))
        .expect("send query");
    let response = loop {
        match reader.poll_frame().expect("typed response") {
            ReadOutcome::Frame(f) => break f,
            ReadOutcome::Idle => {}
            ReadOutcome::Closed => panic!("server dropped the connection"),
        }
    };
    assert_eq!(response.payload[0], Status::Ok as u8);

    let stats = server.shutdown_and_join();
    assert_eq!(stats.protocol_errors, 0);
}

/// With a fault plan in the served pool, concurrent wire traffic keeps
/// every failure typed: responses are success or `NetError::Server`
/// statuses — zero client-side protocol errors, zero server-side ones,
/// and the pool ends healthy after recovery.
#[test]
fn injected_faults_stay_typed_on_the_wire() {
    quiet_injected_panics();
    let plan = chaos_plan();
    let server = seeded_server(Some(plan.clone()));
    let addr = server.addr();
    let task = Task::new(Problem::RemoteEdge, 4).budget(Budget::KPrime(16));

    let outcomes: Vec<(u64, u64, u64)> = std::thread::scope(|scope| {
        (0..4u64)
            .map(|worker| {
                let task = task.clone();
                scope.spawn(move || {
                    let mut client = NetClient::<VecPoint>::connect(addr).expect("connect");
                    let (mut ok, mut typed, mut proto) = (0u64, 0u64, 0u64);
                    for i in 0..40u64 {
                        let roll = worker * 1000 + i;
                        let result = if roll % 3 == 0 {
                            let x = (roll % 97) as f64 * 0.3;
                            client
                                .insert(&VecPoint::new(vec![x, -x, 0.5, 1.0]))
                                .map(|_| ())
                        } else {
                            client.query(&task).map(|_| ())
                        };
                        match result {
                            Ok(()) => ok += 1,
                            Err(NetError::Server { status, .. }) => {
                                assert!(
                                    !status.is_success(),
                                    "error path must carry an error status"
                                );
                                typed += 1;
                            }
                            Err(NetError::Proto(e)) => {
                                proto += 1;
                                eprintln!("protocol failure under chaos: {e}");
                                // The stream may be torn; reconnect.
                                client = NetClient::<VecPoint>::connect(addr).expect("reconnect");
                            }
                        }
                    }
                    (ok, typed, proto)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    plan.disarm();

    let (ok, typed, proto) = outcomes
        .iter()
        .fold((0, 0, 0), |(a, b, c), (x, y, z)| (a + x, b + y, c + z));
    assert_eq!(ok + typed, 160, "every request got a wire answer");
    assert_eq!(proto, 0, "faults must never surface as protocol errors");
    assert!(ok > 0, "some requests must have succeeded");

    // After recovery, the pool is fully healthy and still serving.
    server.pool().recover_all().expect("recover_all");
    assert!(server
        .pool()
        .healths()
        .iter()
        .all(|h| *h == ShardHealth::Healthy));
    let mut client = NetClient::<VecPoint>::connect(addr).expect("connect");
    let report = client.query(&task).expect("post-chaos query");
    assert_eq!(report.len(), 4);
    assert!(report.degradation.is_none());

    let stats = server.shutdown_and_join();
    assert_eq!(
        stats.protocol_errors, 0,
        "server saw only well-formed frames"
    );
}
