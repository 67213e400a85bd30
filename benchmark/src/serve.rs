//! The serve workloads: a 4-shard `ShardPool` behind an in-process
//! `Server`, driven over loopback TCP by two closed-loop client
//! connections.
//!
//! * `serve-read`: two persistent connections sending remote-edge
//!   queries (k = 8) that cycle k' over 32..39; the connections take
//!   alternate k' values, so concurrent payloads never coincide and
//!   coalescing never merges them.
//! * `serve-churn`: sessions of 32 ops, then a reconnect; about 40%
//!   inserts of fresh points, 35% deletes of ids the connection
//!   inserted earlier (oldest first) and 25% queries.

use crate::client::Client;
use crate::VALUE_GATE;
use diversity::core::Problem;
use diversity::wire::to_bytes;
use diversity::{Budget, Report, Task};
use diversity_net::{NetClient, Server, ServerConfig, StatsReply};
use diversity_serve::{ShardPool, ShardedId};
use divmax_benchmark::record::Outcome;
use divmax_benchmark::stats::{geometric_mean, median, per_second, windowed_percentile};
use divmax_benchmark::trace::Tracer;
use divmax_benchmark::SplitMix;
use metric::{Euclidean, VecPoint};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

type Pool = ShardPool<VecPoint, Euclidean>;
type Srv = Server<VecPoint, Euclidean>;

/// The traffic mix of a serve workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    Read,
    Churn,
}

const N: usize = 20_000;
const DIM: usize = 8;
const PLANTED: usize = 16;
const SHARDS: usize = 4;
const WORKERS: usize = 2;
const CONNECTIONS: usize = 2;
const K: usize = 8;
const K_PRIME_BASE: usize = 32;
const VARIANTS: usize = 8;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Ops per churn session before the client reconnects.
const SESSION_OPS: usize = 32;
/// The query shapes (k, with k' = 4k) `value_ratio` audits. A mean
/// over several k is far steadier across seeds than one remote-edge
/// value, which a single close pair decides.
const AUDIT_K: [usize; 6] = [4, 6, 8, 10, 12, 16];
/// Kernel budget of the `run_seq` reference `value_ratio` divides by.
const REF_K_PRIME: usize = 256;
/// In-process calls timed per kind for `serve.query_us`,
/// `serve.insert_us` and `serve.delete_us`.
const IN_PROCESS_OPS: usize = 256;

/// Request ids, unique across connections and phases.
static NEXT_REQUEST: AtomicU64 = AtomicU64::new(0);

fn query_task(variant: usize) -> Task {
    Task::new(Problem::RemoteEdge, K).budget(Budget::KPrime(K_PRIME_BASE + variant % VARIANTS))
}

/// The points a serve workload seeds its pool with.
pub fn points(seed: u64) -> Vec<VecPoint> {
    diversity_datasets::sphere_shell(N, PLANTED, DIM, seed).0
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Fresh points for inserts, generated in seeded chunks.
struct Fresh {
    seed: u64,
    dim: usize,
    chunk: u64,
    buf: Vec<VecPoint>,
}

impl Fresh {
    fn new(seed: u64, stream: u64, dim: usize) -> Self {
        let seed = SplitMix::new(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F)).next_u64();
        Fresh {
            seed,
            dim,
            chunk: 0,
            buf: Vec::new(),
        }
    }

    fn next(&mut self) -> VecPoint {
        if self.buf.is_empty() {
            self.chunk += 1;
            let (points, _) =
                diversity_datasets::sphere_shell(1024, 1, self.dim, self.seed ^ self.chunk);
            self.buf = points;
        }
        self.buf.pop().expect("chunk refilled above")
    }
}

/// A seeded pool behind a running server.
struct Seeded {
    server: Srv,
    setup_s: f64,
    extend_s: f64,
}

/// Generates the points, seeds the pool, starts the server and waits
/// until its listener has accepted a connection and answered a Stats
/// request.
fn seed_server(make_points: &dyn Fn() -> Vec<VecPoint>) -> Result<Seeded, String> {
    let started = Instant::now();
    let points = make_points();
    let pool = Pool::new(Euclidean, SHARDS);
    let extend_started = Instant::now();
    pool.extend(points)
        .map_err(|e| format!("seeding the pool: {e}"))?;
    let extend_s = extend_started.elapsed().as_secs_f64();
    let config = ServerConfig {
        workers: WORKERS,
        ..ServerConfig::default()
    };
    let server = Server::start(pool, config).map_err(|e| format!("starting the server: {e}"))?;
    let ready = NetClient::<VecPoint>::connect(server.addr()).and_then(|mut c| c.stats());
    if let Err(e) = ready {
        server.shutdown_and_join();
        return Err(format!("first Stats request: {e}"));
    }
    Ok(Seeded {
        server,
        setup_s: started.elapsed().as_secs_f64(),
        extend_s,
    })
}

/// A serve-read answer the wire must reproduce bit for bit.
struct Expected {
    value_bits: u64,
    indices: Vec<usize>,
}

/// One completed operation.
struct Done {
    /// Completion, in seconds since the phase started.
    at_s: f64,
    /// Client round trip.
    us: f64,
    query: bool,
}

/// What one load phase measured.
#[derive(Default)]
struct Samples {
    done: Vec<Done>,
    first_request_us: Vec<f64>,
    connect_us: Vec<f64>,
    reply_bytes: Vec<f64>,
    coreset_points: Vec<f64>,
    encode_report_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Samples {
    fn absorb(&mut self, other: Samples) {
        self.done.extend(other.done);
        self.first_request_us.extend(other.first_request_us);
        self.connect_us.extend(other.connect_us);
        self.reply_bytes.extend(other.reply_bytes);
        self.coreset_points.extend(other.coreset_points);
        self.encode_report_us.extend(other.encode_report_us);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }

    /// Round trips of every completed op.
    fn op_us(&self) -> Vec<f64> {
        self.done.iter().map(|d| d.us).collect()
    }

    /// `(completion, round trip)` of the ops `keep` selects, in
    /// one-second windows over the first `seconds` of the phase.
    fn windows(&self, seconds: u64, keep: impl Fn(&Done) -> bool) -> Vec<Vec<f64>> {
        per_second(
            self.done.iter().filter(|d| keep(d)).map(|d| (d.at_s, d.us)),
            seconds as usize,
        )
    }

    fn note_failure(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(why);
        }
    }
}

/// One load phase's settings.
struct Phase<'a> {
    addr: &'a str,
    mix: Mix,
    seed: u64,
    dim: usize,
    start: Instant,
    deadline: Instant,
    expected: Option<&'a [Expected]>,
    traced: bool,
}

#[derive(Clone, Copy)]
enum Op {
    Query,
    Insert,
    Delete,
}

/// Checks one answer to a query for `k` points, and against `expected`
/// when given.
fn check_answer(
    report: &Report<VecPoint>,
    k: usize,
    expected: Option<&Expected>,
) -> Result<(), String> {
    if report.degradation.is_some() {
        return Err("degraded answer".into());
    }
    if report.indices.len() != k || report.points.len() != k {
        return Err(format!(
            "answer has {} points, not {k}",
            report.indices.len()
        ));
    }
    if !report.coreset_radius.is_some_and(f64::is_finite) {
        return Err("answer carries no coreset_radius".into());
    }
    if let Some(e) = expected {
        if report.value.to_bits() != e.value_bits || report.indices != e.indices {
            return Err(format!(
                "k'={} answer differs from the in-process pool",
                report.k_prime
            ));
        }
    }
    Ok(())
}

/// Runs one client connection's closed loop until the deadline.
fn connection(phase: &Phase<'_>, conn: usize, tracer: &mut Tracer) -> Samples {
    let mut s = Samples::default();
    let mut rng = SplitMix::new(phase.seed ^ (conn as u64 + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93));
    let mut fresh = Fresh::new(phase.seed, conn as u64 + 1, phase.dim);
    let mut owned: VecDeque<u64> = VecDeque::new();
    let mut queries = 0usize;
    while Instant::now() < phase.deadline {
        let connect_started = Instant::now();
        let mut client = match Client::connect(phase.addr, phase.traced) {
            Ok(client) => client,
            Err(e) => {
                s.attempted += 1;
                s.note_failure(format!("connect: {e}"));
                break;
            }
        };
        s.connect_us.push(us(connect_started.elapsed()));
        let session = match phase.mix {
            Mix::Read => usize::MAX,
            Mix::Churn => SESSION_OPS,
        };
        for i in 0..session {
            if Instant::now() >= phase.deadline {
                break;
            }
            let op = match phase.mix {
                Mix::Read => Op::Query,
                Mix::Churn => match rng.next_f64() {
                    r if r < 0.40 => Op::Insert,
                    r if r < 0.75 && !owned.is_empty() => Op::Delete,
                    r if r < 0.75 => Op::Insert,
                    _ => Op::Query,
                },
            };
            let request = NEXT_REQUEST.fetch_add(1, Ordering::Relaxed);
            let started = Instant::now();
            let result = match op {
                Op::Query => {
                    // The two connections take alternate k' values.
                    let variant = 2 * queries + conn;
                    queries += 1;
                    client
                        .query(&query_task(variant), tracer, request)
                        .and_then(|answer| {
                            let elapsed = started.elapsed();
                            let expected = phase.expected.map(|e| &e[variant % VARIANTS]);
                            check_answer(&answer.report, K, expected)?;
                            s.coreset_points.push(answer.report.coreset_size as f64);
                            if phase.traced {
                                s.reply_bytes.push(answer.reply_bytes as f64);
                                if queries % 16 == 1 {
                                    let t0 = Instant::now();
                                    std::hint::black_box(to_bytes(&answer.report));
                                    s.encode_report_us.push(us(t0.elapsed()));
                                }
                            }
                            Ok(elapsed)
                        })
                }
                Op::Insert => {
                    let point = fresh.next();
                    client.insert(&point, tracer, request).map(|id| {
                        owned.push_back(id);
                        started.elapsed()
                    })
                }
                Op::Delete => {
                    let id = owned
                        .pop_front()
                        .expect("delete is picked only with owned ids");
                    client.delete(id, tracer, request).and_then(|hit| {
                        if hit {
                            Ok(started.elapsed())
                        } else {
                            Err(format!(
                                "delete of live id {} returned Deleted(false)",
                                ShardedId::decode(id)
                            ))
                        }
                    })
                }
            };
            s.attempted += 1;
            match result {
                Ok(elapsed) => {
                    let elapsed = us(elapsed);
                    s.done.push(Done {
                        at_s: phase.start.elapsed().as_secs_f64(),
                        us: elapsed,
                        query: matches!(op, Op::Query),
                    });
                    if i == 0 {
                        s.first_request_us.push(elapsed);
                    }
                }
                Err(e) => {
                    s.note_failure(e);
                    // The stream may be out of step: start a new session.
                    break;
                }
            }
        }
    }
    s
}

/// Runs `CONNECTIONS` client threads for one phase and merges their
/// samples and spans.
fn drive(phase: &Phase<'_>, tracer: &mut Tracer) -> Samples {
    let epoch = tracer.epoch();
    let results: Vec<(Samples, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                scope.spawn(move || {
                    let mut own = Tracer::new(epoch);
                    let s = connection(phase, conn, &mut own);
                    (s, own)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut samples = Samples::default();
    for (s, spans) in results {
        samples.absorb(s);
        if phase.traced {
            tracer.absorb(spans);
        }
    }
    samples
}

/// The Stats opcode's counters.
fn wire_stats(addr: &str) -> Result<StatsReply, String> {
    NetClient::<VecPoint>::connect(addr)
        .and_then(|mut c| c.stats())
        .map_err(|e| format!("Stats request: {e}"))
}

/// `value_ratio` of `pool` holding `points`: the geometric mean over
/// the audit query shapes of answer value / `run_seq` value, outside
/// any timed region. Fails the run when one ratio is below the gate.
fn value_ratio(pool: &Pool, points: &[VecPoint], out: &mut Outcome) -> Result<f64, String> {
    let mut ratios = Vec::new();
    for k in AUDIT_K {
        let task = |k_prime| Task::new(Problem::RemoteEdge, k).budget(Budget::KPrime(k_prime));
        let report = pool
            .query(&task(4 * k))
            .map_err(|e| format!("audit query k={k}: {e}"))?;
        check_answer(&report, k, None)?;
        let reference = task(REF_K_PRIME)
            .run_seq(points, &Euclidean)
            .map_err(|e| format!("run_seq reference k={k}: {e}"))?;
        let ratio = report.value / reference.value;
        if ratio < VALUE_GATE {
            out.fail(format!(
                "k={k} answer's value ratio {ratio} is below {VALUE_GATE}"
            ));
        }
        ratios.push(ratio);
    }
    geometric_mean(&ratios).ok_or_else(|| "no audit answer".into())
}

/// Times `ShardPool::query`, `insert` and `delete` in process.
fn time_in_process(pool: &Pool, seed: u64, dim: usize, out: &mut Outcome) {
    let mut query_us = Vec::new();
    for i in 0..IN_PROCESS_OPS {
        let task = query_task(i);
        let t0 = Instant::now();
        let answer = pool.query(&task);
        query_us.push(us(t0.elapsed()));
        if let Err(e) = answer {
            out.fail(format!("in-process query: {e}"));
        }
    }
    let mut fresh = Fresh::new(seed, 0, dim);
    let (mut insert_us, mut delete_us, mut ids) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..IN_PROCESS_OPS {
        let point = fresh.next();
        let t0 = Instant::now();
        let id = pool.insert(point);
        insert_us.push(us(t0.elapsed()));
        match id {
            Ok(id) => ids.push(id),
            Err(e) => out.fail(format!("in-process insert: {e}")),
        }
    }
    for id in ids {
        let t0 = Instant::now();
        let hit = pool.delete(id);
        delete_us.push(us(t0.elapsed()));
        if !matches!(hit, Ok(true)) {
            out.fail(format!("in-process delete of {id}: {hit:?}"));
        }
    }
    for (name, sample) in [
        ("serve.query_us", &query_us),
        ("serve.insert_us", &insert_us),
        ("serve.delete_us", &delete_us),
    ] {
        out.set(name, median(sample).unwrap_or(0.0), sample.len());
    }
}

fn set_median(out: &mut Outcome, name: &'static str, sample: &[f64]) {
    out.set(name, median(sample).unwrap_or(0.0), sample.len());
}

/// The serve-side per-layer rows every traced run reports.
fn set_layer_metrics(
    out: &mut Outcome,
    s: &Samples,
    seeded: &Seeded,
    extend_s: &[f64],
    epoch_before: u64,
) {
    set_median(out, "net.first_request_us", &s.first_request_us);
    set_median(out, "net.connect_us", &s.connect_us);
    set_median(out, "net.reply_bytes", &s.reply_bytes);
    set_median(out, "serve.coreset_points", &s.coreset_points);
    set_median(out, "diversity.wire.encode_report_us", &s.encode_report_us);
    set_median(out, "serve.extend_s", extend_s);
    let pool = seeded.server.pool();
    out.set("serve.epoch_delta", (pool.epoch() - epoch_before) as f64, 1);
    let stats = pool.shard_stats();
    let evals: u64 = stats.iter().map(|s| s.distance_evals).sum();
    let updates: u64 = stats.iter().map(|s| s.inserts + s.deletes).sum();
    out.set(
        "dynamic.distance_evals_per_update",
        evals as f64 / updates.max(1) as f64,
        stats.len(),
    );
    let max_candidates = stats.iter().map(|s| s.max_candidates).max().unwrap_or(0);
    out.set("dynamic.max_candidates", max_candidates as f64, stats.len());
    let orphans: u64 = stats.iter().map(|s| s.orphans_rehomed).sum();
    out.set("dynamic.orphans_rehomed", orphans as f64, stats.len());
}

fn set_wire_stats(out: &mut Outcome, stats: &StatsReply) {
    out.set("net.accepted", stats.accepted as f64, 1);
    out.set("net.coalesced", stats.coalesced as f64, 1);
    out.set("net.rejected", stats.rejected as f64, 1);
}

fn account(out: &mut Outcome, s: &Samples) {
    out.attempted += s.attempted;
    out.failed += s.failed;
    for f in &s.failures {
        out.fail(f.clone());
    }
}

/// Runs `serve-read` or `serve-churn` for `seconds` with data seed
/// `seed`. An untraced run sets the end-to-end metrics; a traced run
/// measures half the time untraced and half traced, and sets the serve,
/// net, dynamic and wire rows.
pub fn run(mix: Mix, seed: u64, seconds: u64, tracer: Option<&mut Tracer>) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = run_inner(mix, seed, seconds, tracer, &mut out) {
        out.attempted += 1;
        out.failed += 1;
        out.fail(e);
    }
    out
}

fn run_inner(
    mix: Mix,
    seed: u64,
    seconds: u64,
    tracer: Option<&mut Tracer>,
    out: &mut Outcome,
) -> Result<(), String> {
    let make_points = || points(seed);
    let (mut setups, mut setup_s, mut extend_s) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..SETUPS {
        let seeded = seed_server(&make_points)?;
        setup_s.push(seeded.setup_s);
        extend_s.push(seeded.extend_s);
        // Keep the last two: one to serve, one as the in-process
        // reference. Stop the others at once.
        if setups.len() == 2 {
            let old: Seeded = setups.remove(0);
            old.server.shutdown_and_join();
        }
        setups.push(seeded);
    }
    let served = setups.pop().expect("SETUPS >= 2");
    let reference = setups.pop().expect("SETUPS >= 2");
    if mix == Mix::Read {
        // The served pool answers like this one, bit for bit.
        let ratio = value_ratio(reference.server.pool(), &make_points(), out)?;
        out.set("value_ratio", ratio, AUDIT_K.len());
    }

    let expected: Option<Vec<Expected>> = match mix {
        Mix::Read => Some(
            (0..VARIANTS)
                .map(|v| {
                    reference
                        .server
                        .pool()
                        .query(&query_task(v))
                        .map(|r| Expected {
                            value_bits: r.value.to_bits(),
                            indices: r.indices,
                        })
                        .map_err(|e| format!("reference query: {e}"))
                })
                .collect::<Result<_, _>>()?,
        ),
        Mix::Churn => None,
    };
    if tracer.is_some() {
        time_in_process(reference.server.pool(), seed, DIM, out);
    }
    reference.server.shutdown_and_join();

    let addr = served.server.addr().to_string();
    let epoch_before = served.server.pool().epoch();
    let phase = |duration, traced| {
        let start = Instant::now();
        Phase {
            addr: &addr,
            mix,
            seed,
            dim: DIM,
            start,
            deadline: start + duration,
            expected: expected.as_deref(),
            traced,
        }
    };
    let duration = Duration::from_secs(seconds);
    match tracer {
        None => {
            let s = drive(&phase(duration, false), &mut Tracer::new(Instant::now()));
            account(out, &s);
            out.set("setup_s", median(&setup_s).unwrap_or(0.0), setup_s.len());
            // Medians over one-second windows: a stall of a few seconds
            // on a shared host moves a few windows, not the figure.
            let all = s.windows(seconds, |_| true);
            let counts: Vec<f64> = all.iter().map(|w| w.len() as f64).collect();
            let n = s.done.len();
            out.set("ops_per_s", median(&counts).ok_or("no op completed")?, n);
            let queries = s.windows(seconds, |d| d.query);
            for (windows, p50, p99) in [
                (&queries, "query_p50_us", "query_p99_us"),
                (&all, "op_p50_us", "op_p99_us"),
            ] {
                let none = || format!("no {p50} sample");
                out.set(p50, windowed_percentile(windows, 50.0).ok_or_else(none)?, n);
                out.set(p99, windowed_percentile(windows, 99.0).ok_or_else(none)?, n);
            }
        }
        Some(tracer) => {
            let untraced = drive(&phase(duration / 2, false), tracer);
            let traced = drive(&phase(duration / 2, true), tracer);
            account(out, &untraced);
            account(out, &traced);
            let base = median(&untraced.op_us()).ok_or("no op completed untraced")?;
            let with = median(&traced.op_us()).ok_or("no op completed traced")?;
            out.set(
                "trace.overhead_pct",
                (with - base) / base * 100.0,
                traced.done.len(),
            );
            set_layer_metrics(out, &traced, &served, &extend_s, epoch_before);
            set_wire_stats(out, &wire_stats(&addr)?);
        }
    }

    if mix == Mix::Churn {
        // The pool the churn left behind, against the points alive now.
        let pool = served.server.pool();
        let alive: Vec<VecPoint> = pool.alive().into_iter().map(|(_, p)| p).collect();
        let ratio = value_ratio(pool, &alive, out)?;
        out.set("value_ratio", ratio, AUDIT_K.len());
    }
    served.server.shutdown_and_join();
    Ok(())
}

/// The serve layers measured on `points` for a workload that has no
/// server of its own: one seeded pool, in-process timings, then
/// `serve-churn` traffic, traced, for `duration`.
pub fn probe(
    points: Vec<VecPoint>,
    seed: u64,
    duration: Duration,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let dim = points.first().map_or(1, |p| p.coords().len());
    let seeded = seed_server(&|| points.clone())?;
    time_in_process(seeded.server.pool(), seed, dim, out);
    let addr = seeded.server.addr().to_string();
    let epoch_before = seeded.server.pool().epoch();
    let s = drive(
        &Phase {
            addr: &addr,
            mix: Mix::Churn,
            seed,
            dim,
            start: Instant::now(),
            deadline: Instant::now() + duration,
            expected: None,
            traced: true,
        },
        tracer,
    );
    account(out, &s);
    set_layer_metrics(out, &s, &seeded, &[seeded.extend_s], epoch_before);
    set_wire_stats(out, &wire_stats(&addr)?);
    seeded.server.shutdown_and_join();
    Ok(())
}
