//! End-to-end loopback tests: a real `Server` on an ephemeral port, a
//! real `NetClient` over TCP, and raw-socket probes for the
//! protocol-error paths.

use diversity::prelude::*;
use diversity::wire::{BinRead, BinReader, BinWrite, WireError};
use diversity_net::{
    frame, NetClient, NetError, Opcode, ReadOutcome, Server, ServerConfig, Status,
};
use diversity_serve::ShardPool;
use std::io::Write as _;
use std::net::{Ipv4Addr, SocketAddr, TcpStream};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// Runs `f` on its own thread and fails the test if it has not
/// returned within 20 s, so a server that never answers or never stops
/// fails instead of hanging the suite.
fn within<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(20)) {
        Ok(value) => value,
        Err(RecvTimeoutError::Timeout) => panic!("{what} did not return within 20 s"),
        Err(RecvTimeoutError::Disconnected) => panic!("{what} panicked"),
    }
}

fn seeded_server(config: ServerConfig) -> Server<VecPoint, Euclidean> {
    let (points, _) = datasets::sphere_shell(200, 8, 4, 42);
    let pool = ShardPool::new(Euclidean, 4);
    pool.extend(points).expect("seeding the pool");
    Server::start(pool, config).expect("binding an ephemeral port")
}

fn edge_task() -> Task {
    Task::new(Problem::RemoteEdge, 4).budget(Budget::KPrime(16))
}

#[test]
fn query_over_the_wire_matches_the_in_process_answer() {
    let server = seeded_server(ServerConfig::default());
    let task = edge_task();
    let local = server.pool().query(&task).expect("local query");

    let mut client = NetClient::<VecPoint>::connect(server.addr()).expect("connect");
    let remote = client.query(&task).expect("remote query");
    assert_eq!(remote.len(), 4);
    assert_eq!(remote.value, local.value);
    assert_eq!(remote.indices, local.indices);
    assert!(remote.degradation.is_none());

    let stats = client.stats().expect("stats");
    assert!(stats.accepted >= 1);
    assert!(stats.queries >= 1);
    assert_eq!(stats.total_shards, 4);
    assert_eq!(stats.healthy_shards, 4);
    assert_eq!(stats.occupancies.iter().sum::<u64>(), 200);

    server.shutdown_and_join();
}

#[test]
fn mutations_land_and_are_visible_to_queries() {
    let server = seeded_server(ServerConfig::default());
    let mut client = NetClient::<VecPoint>::connect(server.addr()).expect("connect");

    let before = server.pool().len();
    let id = client
        .insert(&VecPoint::new(vec![9.0, 9.0, 9.0, 9.0]))
        .expect("insert");
    assert_eq!(server.pool().len(), before + 1);

    // The far-away point must now appear in a remote-edge answer.
    let report = client.query(&edge_task()).expect("query");
    let far = VecPoint::new(vec![9.0, 9.0, 9.0, 9.0]);
    assert!(report.points.iter().any(|p| p.coords() == far.coords()));

    assert!(client.delete(id).expect("delete"));
    assert!(!client.delete(id).expect("double delete"));
    assert_eq!(server.pool().len(), before);

    server.shutdown_and_join();
}

#[test]
fn checkpoint_over_the_wire_restores_bit_identically() {
    let server = seeded_server(ServerConfig::default());
    let task = edge_task();
    let mut client = NetClient::<VecPoint>::connect(server.addr()).expect("connect");

    let original = client.query(&task).expect("query");
    let state = client.checkpoint().expect("checkpoint");
    let restored = ShardPool::restore(Euclidean, state).expect("restore");
    let after = restored.query(&task).expect("restored query");
    assert_eq!(after.value, original.value);
    assert_eq!(after.indices, original.indices);

    server.shutdown_and_join();
}

#[test]
fn identical_concurrent_queries_coalesce() {
    let server = seeded_server(ServerConfig {
        workers: 8,
        coalesce_hold_ms: 150,
        ..ServerConfig::default()
    });
    let addr = server.addr();
    let task = edge_task();

    let reports: Vec<_> = std::thread::scope(|scope| {
        (0..4)
            .map(|_| {
                let task = task.clone();
                scope.spawn(move || {
                    let mut client = NetClient::<VecPoint>::connect(addr).expect("connect");
                    client.query(&task).expect("query")
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    for pair in reports.windows(2) {
        assert_eq!(pair[0].value, pair[1].value);
        assert_eq!(pair[0].indices, pair[1].indices);
    }

    let stats = server.shutdown_and_join();
    assert_eq!(stats.queries, 4);
    // The 150 ms hold guarantees the later arrivals join the first
    // leader's in-flight extraction.
    assert!(
        stats.coalesced >= 1,
        "expected coalesced followers, got {stats:?}"
    );
    assert_eq!(stats.protocol_errors, 0);
}

#[test]
fn a_mutation_between_queries_defeats_coalescing() {
    let server = seeded_server(ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    });
    let task = edge_task();
    let mut client = NetClient::<VecPoint>::connect(server.addr()).expect("connect");

    client.query(&task).expect("first query");
    client
        .insert(&VecPoint::new(vec![3.0, 3.0, 3.0, 3.0]))
        .expect("insert");
    // Sequential queries with an epoch bump in between: both must be
    // fresh extractions (coalescing keys on the mutation epoch).
    client.query(&task).expect("second query");

    let stats = server.shutdown_and_join();
    assert_eq!(stats.queries, 2);
    assert_eq!(stats.coalesced, 0);
}

/// A rebalance bumps the mutation epoch exactly like a mutation does,
/// so the coalescing cache can never hand a follower a pre-swap
/// extraction as current — and the Stats opcode reports the rebalance
/// counters over the wire.
#[test]
fn a_rebalance_between_queries_defeats_coalescing() {
    let server = seeded_server(ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    });
    let task = edge_task();
    let mut client = NetClient::<VecPoint>::connect(server.addr()).expect("connect");

    client.query(&task).expect("first query");
    let epoch_before = server.pool().epoch();
    let report = server.pool().rebalance().expect("rebalance");
    assert!(
        server.pool().epoch() > epoch_before,
        "a committed rebalance must bump the mutation epoch"
    );
    // Identical payload, but the epoch moved: a fresh extraction, never
    // the pre-swap one (the old ids no longer exist in the new set).
    client.query(&task).expect("second query");

    let stats = client.stats().expect("stats");
    assert_eq!(stats.rebalances, 1);
    assert_eq!(stats.rebalance_skew_before, report.skew_before);
    assert_eq!(stats.rebalance_skew_after, report.skew_after);

    let stats = server.shutdown_and_join();
    assert_eq!(stats.queries, 2);
    assert_eq!(stats.coalesced, 0);
}

#[test]
fn admission_control_rejects_with_a_typed_status() {
    let server = seeded_server(ServerConfig {
        max_inflight: 0,
        ..ServerConfig::default()
    });
    let mut client = NetClient::<VecPoint>::connect(server.addr()).expect("connect");
    match client.query(&edge_task()) {
        Err(NetError::Server {
            status: Status::Overloaded,
            error: None,
            message,
        }) => assert!(message.contains("in flight")),
        other => panic!("expected Overloaded, got {other:?}"),
    }
    // Stats bypass the gate so monitoring works under overload.
    let stats = client.stats().expect("stats under overload");
    assert_eq!(stats.rejected, 1);

    server.shutdown_and_join();
}

#[test]
fn garbage_bytes_get_an_err_frame_then_a_close() {
    let server = seeded_server(ServerConfig::default());
    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    raw.write_all(b"GET / HTTP/1.1\r\n\r\n").expect("write");
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();

    let mut reader = frame::FrameReader::new(raw.try_clone().unwrap());
    let response = loop {
        match reader.poll_frame().expect("server's error frame") {
            ReadOutcome::Frame(f) => break f,
            ReadOutcome::Idle => {}
            ReadOutcome::Closed => panic!("closed without an error frame"),
        }
    };
    assert_eq!(response.opcode, Opcode::Err);
    assert_eq!(response.payload[0], Status::ProtocolError as u8);
    // And the server hangs up afterwards.
    loop {
        match reader.poll_frame() {
            Ok(ReadOutcome::Closed) => break,
            Ok(ReadOutcome::Idle) => {}
            other => panic!("expected close, got {other:?}"),
        }
    }

    let stats = server.shutdown_and_join();
    assert_eq!(stats.protocol_errors, 1);
}

#[test]
fn an_unparseable_task_payload_keeps_the_connection_alive() {
    let server = seeded_server(ServerConfig::default());
    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    // A well-framed Query whose payload is not a Task.
    frame::write_frame(&mut raw, Opcode::Query, &[0xFF, 0xFF, 0xFF]).expect("write");

    let mut reader = frame::FrameReader::new(raw.try_clone().unwrap());
    let response = loop {
        match reader.poll_frame().expect("response") {
            ReadOutcome::Frame(f) => break f,
            ReadOutcome::Idle => {}
            ReadOutcome::Closed => panic!("closed instead of answering"),
        }
    };
    assert_eq!(response.opcode, Opcode::Query);
    assert_eq!(response.payload[0], Status::ProtocolError as u8);

    // Same connection still serves a real query afterwards.
    let task_bytes = diversity::wire::to_bytes(&edge_task());
    frame::write_frame(&mut raw, Opcode::Query, &task_bytes).expect("write");
    let response = loop {
        match reader.poll_frame().expect("response") {
            ReadOutcome::Frame(f) => break f,
            ReadOutcome::Idle => {}
            ReadOutcome::Closed => panic!("closed"),
        }
    };
    assert_eq!(response.payload[0], Status::Ok as u8);

    server.shutdown_and_join();
}

#[test]
fn oversized_frames_are_rejected_before_allocation() {
    let server = seeded_server(ServerConfig {
        max_frame_len: 1024,
        ..ServerConfig::default()
    });
    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut header = Vec::new();
    header.extend_from_slice(&frame::MAGIC);
    header.push(frame::VERSION);
    header.push(Opcode::Query as u8);
    header.extend_from_slice(&u32::MAX.to_le_bytes());
    raw.write_all(&header).expect("write");

    let mut reader = frame::FrameReader::new(raw);
    let response = loop {
        match reader.poll_frame().expect("error frame") {
            ReadOutcome::Frame(f) => break f,
            ReadOutcome::Idle => {}
            ReadOutcome::Closed => panic!("closed without an error frame"),
        }
    };
    assert_eq!(response.opcode, Opcode::Err);
    assert_eq!(response.payload[0], Status::ProtocolError as u8);

    server.shutdown_and_join();
}

#[test]
fn shutdown_opcode_drains_the_server() {
    let server = seeded_server(ServerConfig::default());
    let addr = server.addr();
    let mut client = NetClient::<VecPoint>::connect(addr).expect("connect");
    client.shutdown_server().expect("shutdown");
    // join() (not shutdown_and_join) proves the remote request alone
    // stops the workers.
    let stats = server.join();
    assert!(stats.accepted >= 1);
}

#[test]
fn servers_on_an_unspecified_address_stop_with_idle_workers() {
    let unspecified = || ServerConfig {
        addr: "0.0.0.0:0".into(),
        workers: 4,
        ..ServerConfig::default()
    };
    // Every worker is blocked in accept(): shutdown must wake them all.
    let server = seeded_server(unspecified());
    let stats = within("shutdown_and_join", move || server.shutdown_and_join());
    assert_eq!(stats.accepted, 0, "wake connections are not counted");

    let server = seeded_server(unspecified());
    let loopback = SocketAddr::from((Ipv4Addr::LOCALHOST, server.addr().port()));
    NetClient::<VecPoint>::connect(loopback)
        .expect("connect")
        .shutdown_server()
        .expect("shutdown");
    let stats = within("join after a Shutdown request", move || server.join());
    assert_eq!(stats.accepted, 1);
}

#[test]
fn one_client_completes_a_thousand_mixed_exchanges_on_one_connection() {
    let server = seeded_server(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let before = server.pool().len();
    let mut client = NetClient::<VecPoint>::connect(server.addr()).expect("connect");
    let mut id = None;
    for i in 0..1000 {
        match i % 4 {
            0 => {
                let point = VecPoint::new(vec![i as f64 * 1e-3, 0.5, -0.5, 1.0]);
                id = Some(client.insert(&point).expect("insert"));
            }
            1 => assert_eq!(client.query(&edge_task()).expect("query").len(), 4),
            2 => assert!(client.delete(id.take().expect("inserted")).expect("delete")),
            _ => assert_eq!(client.stats().expect("stats").accepted, 1),
        }
    }
    assert_eq!(server.pool().len(), before);
    let stats = server.shutdown_and_join();
    assert_eq!(
        (stats.accepted, stats.queries, stats.mutates),
        (1, 250, 500)
    );
}

/// A point whose codec panics on the sentinel first coordinate
/// [`TRIPWIRE`]: decoding it panics inside a Mutate handler, encoding
/// it inside a Query answer. Clients send it as a plain `VecPoint`,
/// which has the same encoding.
#[derive(Clone, Debug)]
struct Tripwire(VecPoint);

const TRIPWIRE: f64 = 1.0e6;

impl Tripwire {
    fn check(&self, what: &str) {
        assert!(self.0.coords()[0] != TRIPWIRE, "tripwire point {what}");
    }
}

impl BinWrite for Tripwire {
    fn write_bin(&self, out: &mut Vec<u8>) {
        self.check("encoded");
        self.0.write_bin(out);
    }
}

impl BinRead for Tripwire {
    fn read_bin(r: &mut BinReader<'_>) -> Result<Self, WireError> {
        let point = Tripwire(VecPoint::read_bin(r)?);
        point.check("decoded");
        Ok(point)
    }
}

#[derive(Clone)]
struct TripwireMetric;

impl Metric<Tripwire> for TripwireMetric {
    fn distance(&self, a: &Tripwire, b: &Tripwire) -> f64 {
        Euclidean.distance(&a.0, &b.0)
    }
}

fn tripwire_server(
    extra: Option<VecPoint>,
    config: ServerConfig,
) -> Server<Tripwire, TripwireMetric> {
    let (points, _) = datasets::sphere_shell(200, 8, 4, 42);
    let pool = ShardPool::new(TripwireMetric, 4);
    pool.extend(points.into_iter().chain(extra).map(Tripwire))
        .expect("seeding the pool");
    Server::start(pool, config).expect("binding an ephemeral port")
}

fn expect_panic_reply<T: std::fmt::Debug>(result: Result<T, NetError>) {
    match result {
        Err(NetError::Server {
            status: Status::ProtocolError,
            message,
            ..
        }) => assert!(message.contains("panicked"), "{message}"),
        // The stream may also close before the Err frame arrives.
        Err(NetError::Proto(_)) => {}
        other => panic!("expected the handler's panic, got {other:?}"),
    }
}

#[test]
fn a_panicking_handler_costs_its_connection_not_the_worker() {
    let server = tripwire_server(
        None,
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    );
    let addr = server.addr();
    let mut doomed = NetClient::<VecPoint>::connect(addr).expect("connect");
    expect_panic_reply(doomed.insert(&VecPoint::new(vec![TRIPWIRE, 0.0, 0.0, 0.0])));

    // The only worker must still be there for a new connection.
    within("a new connection's Stats and Query", move || {
        let mut client = NetClient::<VecPoint>::connect(addr).expect("connect");
        assert_eq!(
            client
                .stats()
                .expect("stats")
                .occupancies
                .iter()
                .sum::<u64>(),
            200
        );
        assert_eq!(client.query(&edge_task()).expect("query").len(), 4);
    });
    let stats = server.shutdown_and_join();
    assert_eq!((stats.panics, stats.accepted), (1, 2));
}

#[test]
fn a_panicking_coalesced_leader_still_answers_its_followers() {
    // A far-away tripwire point is in every remote-edge answer, so
    // encoding the answer panics in the leader.
    let server = tripwire_server(
        Some(VecPoint::new(vec![TRIPWIRE, 0.0, 0.0, 0.0])),
        ServerConfig {
            workers: 2,
            coalesce_hold_ms: 150,
            ..ServerConfig::default()
        },
    );
    let addr = server.addr();
    within("both coalesced queries", move || {
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(move || {
                    let mut client = NetClient::<VecPoint>::connect(addr).expect("connect");
                    expect_panic_reply(client.query(&edge_task()));
                });
            }
        })
    });
    let mut client = NetClient::<VecPoint>::connect(addr).expect("connect");
    client.stats().expect("stats after the panic");
    let stats = server.shutdown_and_join();
    assert_eq!((stats.panics, stats.coalesced), (1, 1));
}
