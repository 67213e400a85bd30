//! The socket server: a thread-per-core accept loop over a shared
//! [`ShardPool`], with admission control and epoch-keyed query
//! coalescing.
//!
//! ## Concurrency model
//!
//! `workers` OS threads each block in `accept()` on one shared
//! listener and serve the connection they accept **inline** until it
//! closes — connection concurrency equals the worker count, there is
//! no hidden thread-per-connection growth. A new connection is taken
//! as soon as a worker is free; the kernel's listen backlog bounds the
//! connections waiting for one. A persistent connection therefore
//! holds its worker until it closes (or, idle, until shutdown). Each
//! connection is a sequence of request frames answered in order;
//! responses echo the request's opcode.
//!
//! Shutdown (local, or the Shutdown opcode) sets a flag, then connects
//! to the listener once per worker: a worker blocked in `accept()`
//! wakes, sees the flag and exits, and a worker serving a connection
//! sees it within one 50-ms read-timeout poll. Wake connections nobody
//! accepts close with the listener.
//!
//! A handler that panics costs its connection, not its worker: each
//! connection runs under `catch_unwind`, and a panic is answered with
//! an [`Opcode::Err`] frame naming it (status `ProtocolError`), counted
//! as `net.panics`, and the worker returns to `accept()`.
//!
//! ## Admission control
//!
//! Query/Mutate/Checkpoint requests pass a bounded in-flight gate
//! (`max_inflight`). Over the bound, the request is rejected with
//! [`Status::Overloaded`] — a typed backpressure signal, not a dropped
//! connection. Stats and Shutdown bypass the gate so monitoring and
//! draining work *under* overload.
//!
//! ## Query coalescing
//!
//! Identical query payloads arriving while the pool is quiescent share
//! one extraction. The key is `(task bytes, pool mutation epoch)`: the
//! pool bumps its epoch on every acknowledged mutation and health
//! transition, so equal epochs witness that no answer-changing event
//! separated the two requests. A follower that joins a leader's
//! in-flight query waits on a condvar and receives the leader's
//! encoded response bytes verbatim; `net.coalesced` counts followers.

use crate::frame::{write_frame, FrameReader, Opcode, ReadOutcome, DEFAULT_MAX_FRAME_LEN};
use crate::proto::{encode_response, status_for, MutateReply, MutateRequest, StatsReply, Status};
use diversity::wire::{from_bytes, BinRead, BinWrite};
use diversity::Task;
use diversity_serve::{ShardPool, ShardedId};
use metric::Metric;
use std::any::Any;
use std::collections::HashMap;
use std::io::{ErrorKind, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// The `net.*` counters the server registers at start so a
/// `divmax-stats --assert-keys` probe sees them even before traffic.
pub const OBS_KEYS: [&str; 7] = [
    "net.accepted",
    "net.queries",
    "net.mutates",
    "net.coalesced",
    "net.rejected",
    "net.protocol_errors",
    "net.panics",
];

/// How long a shutdown's wake connection may take to connect. On
/// loopback it completes at once unless the backlog is full, and then
/// the pending connections wake the workers instead.
const WAKE_CONNECT_TIMEOUT: Duration = Duration::from_millis(100);

/// Pause after an `accept()` error such as EMFILE, so a persistent one
/// cannot spin a worker.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(2);

/// Server configuration. `Default` binds an ephemeral localhost port
/// with one worker per available core.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Accept-loop threads; 0 means one per available core.
    pub workers: usize,
    /// In-flight Query/Mutate/Checkpoint bound; beyond it requests get
    /// [`Status::Overloaded`].
    pub max_inflight: usize,
    /// Whether identical quiescent queries share one extraction.
    pub coalesce: bool,
    /// Test hook: milliseconds a coalescing leader holds the entry
    /// open before executing, widening the join window
    /// deterministically. 0 in production.
    pub coalesce_hold_ms: u64,
    /// Per-frame payload cap.
    pub max_frame_len: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            max_inflight: 64,
            coalesce: true,
            coalesce_hold_ms: 0,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
        }
    }
}

/// A snapshot of the server's own counters (the in-process complement
/// of the Stats opcode).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted.
    pub accepted: u64,
    /// Query requests handled.
    pub queries: u64,
    /// Mutate requests handled.
    pub mutates: u64,
    /// Queries answered from another request's extraction.
    pub coalesced: u64,
    /// Requests rejected by admission control.
    pub rejected: u64,
    /// Frames or payloads that failed protocol validation.
    pub protocol_errors: u64,
    /// Connections closed because their handler panicked.
    pub panics: u64,
}

#[derive(Default)]
struct NetCounters {
    accepted: AtomicU64,
    queries: AtomicU64,
    mutates: AtomicU64,
    coalesced: AtomicU64,
    rejected: AtomicU64,
    protocol_errors: AtomicU64,
    panics: AtomicU64,
}

impl NetCounters {
    fn bump(&self, counter: &AtomicU64, obs_name: &str) {
        counter.fetch_add(1, Ordering::Relaxed);
        diversity_obs::count(obs_name, 1);
    }

    fn snapshot(&self) -> ServerStats {
        ServerStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            mutates: self.mutates.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
        }
    }
}

/// One in-flight coalesced query: the leader publishes the encoded
/// response here; followers wait on the condvar.
struct Inflight {
    done: Mutex<Option<(Status, Arc<Vec<u8>>)>>,
    cv: Condvar,
}

impl Inflight {
    fn new() -> Arc<Self> {
        Arc::new(Inflight {
            done: Mutex::new(None),
            cv: Condvar::new(),
        })
    }

    fn wait(&self) -> (Status, Arc<Vec<u8>>) {
        let mut guard = self.done.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(result) = guard.as_ref() {
                return result.clone();
            }
            guard = self.cv.wait(guard).unwrap_or_else(|e| e.into_inner());
        }
    }
}

enum Claim {
    Leader(Arc<Inflight>),
    Follower(Arc<Inflight>),
}

/// The epoch-keyed coalescing table. An entry is joinable only while
/// its recorded epoch still equals the pool's current epoch — a
/// mutation acked between the leader's start and a would-be follower's
/// arrival makes the follower a new leader instead.
struct Coalescer {
    entries: Mutex<HashMap<Vec<u8>, CoalesceEntry>>,
}

/// A joinable in-flight query: the pool epoch it was claimed at plus
/// the shared completion slot.
type CoalesceEntry = (u64, Arc<Inflight>);

impl Coalescer {
    fn new() -> Self {
        Coalescer {
            entries: Mutex::new(HashMap::new()),
        }
    }

    fn claim(&self, key: &[u8], epoch: u64) -> Claim {
        let mut map = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((entry_epoch, inflight)) = map.get(key) {
            if *entry_epoch == epoch {
                return Claim::Follower(Arc::clone(inflight));
            }
        }
        let inflight = Inflight::new();
        // A stale entry (older epoch) is superseded: late followers of
        // the old leader still hold their own Arc and will be answered.
        map.insert(key.to_vec(), (epoch, Arc::clone(&inflight)));
        Claim::Leader(inflight)
    }

    fn publish(&self, key: &[u8], own: &Arc<Inflight>, status: Status, bytes: Arc<Vec<u8>>) {
        {
            let mut done = own.done.lock().unwrap_or_else(|e| e.into_inner());
            *done = Some((status, bytes));
        }
        own.cv.notify_all();
        let mut map = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((_, current)) = map.get(key) {
            // Only remove our own entry — a newer leader's must survive.
            if Arc::ptr_eq(current, own) {
                map.remove(key);
            }
        }
    }
}

/// Decrements the in-flight gauge on drop, so early returns and write
/// failures cannot leak an admission slot.
struct AdmissionSlot<'a>(&'a AtomicUsize);

impl Drop for AdmissionSlot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

struct Inner<P, M> {
    pool: ShardPool<P, M>,
    config: ServerConfig,
    counters: NetCounters,
    coalescer: Coalescer,
    in_flight: AtomicUsize,
    shutdown: AtomicBool,
    /// Where shutdown connects to wake the workers blocked in
    /// `accept()`: the bound address, on loopback if that is
    /// unspecified.
    wake_addr: SocketAddr,
    /// Worker threads, one wake connection each.
    workers: usize,
    /// `DIVMAX_REBALANCE` policy, read once at start. When set, every
    /// successful mutate polls [`ShardPool::maybe_rebalance`] — the
    /// threshold + pacing gates inside keep the poll cheap, and a
    /// failed rebalance (e.g. an injected mid-swap panic) leaves the
    /// pool serving from the old shard set, so errors are only counted,
    /// never surfaced to the mutating client.
    rebalance: Option<diversity_serve::RebalanceConfig>,
}

/// A running server. Dropping the handle does **not** stop the server;
/// call [`shutdown_and_join`](Server::shutdown_and_join) (or send the
/// Shutdown opcode) to drain it.
pub struct Server<P, M> {
    inner: Arc<Inner<P, M>>,
    addr: SocketAddr,
    workers: Vec<JoinHandle<()>>,
}

impl<P, M> Server<P, M>
where
    P: Clone + Send + Sync + BinRead + BinWrite + 'static,
    M: Metric<P> + Clone + Send + Sync + 'static,
{
    /// Binds `config.addr` and starts the accept loops over `pool`.
    pub fn start(pool: ShardPool<P, M>, config: ServerConfig) -> std::io::Result<Self> {
        for key in OBS_KEYS {
            diversity_obs::count(key, 0);
        }
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let mut wake_addr = addr;
        if addr.ip().is_unspecified() {
            wake_addr.set_ip(match addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let workers = if config.workers == 0 {
            std::thread::available_parallelism().map_or(4, |n| n.get())
        } else {
            config.workers
        };
        let inner = Arc::new(Inner {
            pool,
            config,
            counters: NetCounters::default(),
            coalescer: Coalescer::new(),
            in_flight: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            wake_addr,
            workers,
            rebalance: diversity_serve::RebalanceConfig::from_env(),
        });
        let listener = Arc::new(listener);
        let handles = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                let listener = Arc::clone(&listener);
                std::thread::Builder::new()
                    .name(format!("divmax-net-{i}"))
                    .spawn(move || accept_loop(&inner, &listener))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(Server {
            inner,
            addr,
            workers: handles,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's counters right now.
    pub fn stats(&self) -> ServerStats {
        self.inner.counters.snapshot()
    }

    /// Whether a shutdown (local or via the Shutdown opcode) has been
    /// requested.
    pub fn is_shutting_down(&self) -> bool {
        self.inner.shutdown.load(Ordering::Acquire)
    }

    /// Shared access to the pool being served.
    pub fn pool(&self) -> &ShardPool<P, M> {
        &self.inner.pool
    }

    /// Requests shutdown and joins every worker; returns the final
    /// counters.
    pub fn shutdown_and_join(mut self) -> ServerStats {
        self.inner.shut_down();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        self.inner.counters.snapshot()
    }

    /// Blocks until a Shutdown request (or a local
    /// [`shutdown_and_join`](Server::shutdown_and_join) from another
    /// handle) drains the workers; returns the final counters.
    pub fn join(mut self) -> ServerStats {
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        self.inner.counters.snapshot()
    }
}

impl<P, M> Inner<P, M> {
    /// Sets the shutdown flag, then connects once per worker so that
    /// every worker blocked in `accept()` wakes and sees it.
    fn shut_down(&self) {
        self.shutdown.store(true, Ordering::Release);
        for _ in 0..self.workers {
            let _ = TcpStream::connect_timeout(&self.wake_addr, WAKE_CONNECT_TIMEOUT);
        }
    }
}

fn accept_loop<P, M>(inner: &Inner<P, M>, listener: &TcpListener)
where
    P: Clone + Send + Sync + BinRead + BinWrite,
    M: Metric<P> + Clone,
{
    while !inner.shutdown.load(Ordering::Acquire) {
        let accepted = listener.accept();
        // A shutdown's wake connection, or a client too late to serve.
        if inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                inner
                    .counters
                    .bump(&inner.counters.accepted, "net.accepted");
                serve_connection(inner, stream);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::Interrupted | ErrorKind::ConnectionAborted
                ) => {}
            Err(_) => std::thread::sleep(ACCEPT_ERROR_BACKOFF),
        }
    }
}

/// Serves one connection under `catch_unwind`, so a panicking handler
/// costs this connection and not the worker. Unwinding is safe to
/// stop here: the connection's own state dies with it, and the shared
/// state is atomics, the poison-tolerant coalescer (whose leaders
/// publish before they unwind), a drop-guarded admission slot and the
/// pool, which isolates its own shard panics.
fn serve_connection<P, M>(inner: &Inner<P, M>, stream: TcpStream)
where
    P: Clone + Send + Sync + BinRead + BinWrite,
    M: Metric<P> + Clone,
{
    let served = catch_unwind(AssertUnwindSafe(|| handle_connection(inner, &stream)));
    if let Err(panic) = served {
        inner.counters.bump(&inner.counters.panics, "net.panics");
        let _ = write_frame(&mut &stream, Opcode::Err, &panic_body(&*panic));
    }
}

/// The response naming a handler's panic.
fn panic_body(panic: &(dyn Any + Send)) -> Vec<u8> {
    let message = panic
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("a non-string payload");
    encode_response(
        Status::ProtocolError,
        &format!("request handler panicked: {message}"),
    )
}

fn handle_connection<P, M>(inner: &Inner<P, M>, stream: &TcpStream)
where
    P: Clone + Send + Sync + BinRead + BinWrite,
    M: Metric<P> + Clone,
{
    let _ = stream.set_nodelay(true);
    // Short read timeout: the poll point where an idle connection
    // notices a pending shutdown.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let mut out = stream;
    let mut reader = FrameReader::with_max_len(stream, inner.config.max_frame_len);
    loop {
        match reader.poll_frame() {
            Ok(ReadOutcome::Idle) => {
                if inner.shutdown.load(Ordering::Acquire) {
                    return;
                }
            }
            Ok(ReadOutcome::Closed) => return,
            Ok(ReadOutcome::Frame(frame)) => {
                let keep_going = handle_frame(inner, &mut out, frame.opcode, &frame.payload);
                if !keep_going {
                    return;
                }
            }
            Err(err) => {
                // The stream may be desynchronized: answer with the
                // dedicated Err opcode, then close.
                inner
                    .counters
                    .bump(&inner.counters.protocol_errors, "net.protocol_errors");
                let body = encode_response(Status::ProtocolError, &err.to_string());
                let _ = write_frame(&mut out, Opcode::Err, &body);
                return;
            }
        }
    }
}

/// Handles one request frame; returns `false` when the connection
/// should close (after a Shutdown request).
fn handle_frame<P, M>(
    inner: &Inner<P, M>,
    out: &mut impl Write,
    opcode: Opcode,
    payload: &[u8],
) -> bool
where
    P: Clone + Send + Sync + BinRead + BinWrite,
    M: Metric<P> + Clone,
{
    if inner.shutdown.load(Ordering::Acquire) && opcode != Opcode::Shutdown {
        let body = encode_response(Status::ShuttingDown, &"server draining".to_string());
        let _ = write_frame(out, opcode, &body);
        return false;
    }
    match opcode {
        Opcode::Stats => {
            let body = stats_body(inner);
            write_frame(out, opcode, &body).is_ok()
        }
        Opcode::Shutdown => {
            inner.shut_down();
            let _ = write_frame(out, opcode, &[Status::Ok as u8]);
            false
        }
        Opcode::Query | Opcode::Mutate | Opcode::Checkpoint => {
            // Admission gate: bounded in-flight work.
            let in_flight = inner.in_flight.fetch_add(1, Ordering::AcqRel) + 1;
            let slot = AdmissionSlot(&inner.in_flight);
            if in_flight > inner.config.max_inflight {
                inner
                    .counters
                    .bump(&inner.counters.rejected, "net.rejected");
                drop(slot);
                let body = encode_response(
                    Status::Overloaded,
                    &format!(
                        "{in_flight} requests in flight (bound {})",
                        inner.config.max_inflight
                    ),
                );
                return write_frame(out, opcode, &body).is_ok();
            }
            let body = match opcode {
                Opcode::Query => answer_query(inner, payload),
                Opcode::Mutate => answer_mutate(inner, payload),
                _ => answer_checkpoint(inner, payload),
            };
            drop(slot);
            write_frame(out, opcode, &body).is_ok()
        }
        Opcode::Err => {
            // Err is a response-only opcode; receiving it is a
            // protocol error.
            inner
                .counters
                .bump(&inner.counters.protocol_errors, "net.protocol_errors");
            let body = encode_response(
                Status::ProtocolError,
                &"Err is a response-only opcode".to_string(),
            );
            let _ = write_frame(out, Opcode::Err, &body);
            false
        }
    }
}

fn answer_query<P, M>(inner: &Inner<P, M>, payload: &[u8]) -> Vec<u8>
where
    P: Clone + Send + Sync + BinRead + BinWrite,
    M: Metric<P> + Clone,
{
    inner.counters.bump(&inner.counters.queries, "net.queries");
    if !inner.config.coalesce {
        return run_query(inner, payload).1;
    }
    let epoch = inner.pool.epoch();
    match inner.coalescer.claim(payload, epoch) {
        Claim::Follower(inflight) => {
            inner
                .counters
                .bump(&inner.counters.coalesced, "net.coalesced");
            let (_, bytes) = inflight.wait();
            bytes.as_ref().clone()
        }
        Claim::Leader(inflight) => {
            if inner.config.coalesce_hold_ms > 0 {
                std::thread::sleep(Duration::from_millis(inner.config.coalesce_hold_ms));
            }
            let (status, body) = match catch_unwind(AssertUnwindSafe(|| run_query(inner, payload)))
            {
                Ok(answer) => answer,
                Err(panic) => {
                    // Answer the followers before this connection
                    // unwinds: nobody else will publish for them.
                    let body = Arc::new(panic_body(&*panic));
                    inner
                        .coalescer
                        .publish(payload, &inflight, Status::ProtocolError, body);
                    resume_unwind(panic);
                }
            };
            let shared = Arc::new(body);
            inner
                .coalescer
                .publish(payload, &inflight, status, Arc::clone(&shared));
            shared.as_ref().clone()
        }
    }
}

fn run_query<P, M>(inner: &Inner<P, M>, payload: &[u8]) -> (Status, Vec<u8>)
where
    P: Clone + Send + Sync + BinRead + BinWrite,
    M: Metric<P> + Clone,
{
    let task: Task = match from_bytes(payload) {
        Ok(task) => task,
        Err(err) => return protocol_error_body(inner, "Query payload", &err),
    };
    match inner.pool.query(&task) {
        Ok(report) => {
            let status = if report.degradation.is_some() {
                Status::Degraded
            } else {
                Status::Ok
            };
            (status, encode_response(status, &report))
        }
        Err(err) => {
            let status = status_for(&err);
            (status, encode_response(status, &err))
        }
    }
}

fn answer_mutate<P, M>(inner: &Inner<P, M>, payload: &[u8]) -> Vec<u8>
where
    P: Clone + Send + Sync + BinRead + BinWrite,
    M: Metric<P> + Clone,
{
    inner.counters.bump(&inner.counters.mutates, "net.mutates");
    let request: MutateRequest<P> = match from_bytes(payload) {
        Ok(request) => request,
        Err(err) => return protocol_error_body(inner, "Mutate payload", &err).1,
    };
    let outcome = match request {
        MutateRequest::Insert(point) => inner
            .pool
            .insert(point)
            .map(|id| MutateReply::Inserted(id.encode())),
        MutateRequest::Delete(id) => inner
            .pool
            .delete(ShardedId::decode(id))
            .map(MutateReply::Deleted),
    };
    match outcome {
        Ok(reply) => {
            if let Some(config) = &inner.rebalance {
                // Skew-triggered rebalancing rides the mutate path: the
                // threshold/pacing gates make this a cheap poll, and a
                // failure is invisible to the client (the old shard set
                // keeps serving — rebalance is all-or-nothing).
                let _ = inner.pool.maybe_rebalance(config);
            }
            encode_response(Status::Ok, &reply)
        }
        Err(err) => {
            let status = status_for(&err);
            encode_response(status, &err)
        }
    }
}

fn answer_checkpoint<P, M>(inner: &Inner<P, M>, payload: &[u8]) -> Vec<u8>
where
    P: Clone + Send + Sync + BinRead + BinWrite,
    M: Metric<P> + Clone,
{
    if !payload.is_empty() {
        let err = diversity::wire::WireError::TrailingBytes {
            remaining: payload.len(),
        };
        return protocol_error_body(inner, "Checkpoint payload", &err).1;
    }
    match inner.pool.checkpoint_consistent() {
        Ok(state) => encode_response(Status::Ok, &state),
        Err(err) => {
            let status = status_for(&err);
            encode_response(status, &err)
        }
    }
}

fn protocol_error_body<P, M>(
    inner: &Inner<P, M>,
    what: &str,
    err: &diversity::wire::WireError,
) -> (Status, Vec<u8>) {
    inner
        .counters
        .bump(&inner.counters.protocol_errors, "net.protocol_errors");
    (
        Status::ProtocolError,
        encode_response(Status::ProtocolError, &format!("{what}: {err}")),
    )
}

fn stats_body<P, M>(inner: &Inner<P, M>) -> Vec<u8>
where
    P: Clone + Send + Sync,
    M: Metric<P> + Clone,
{
    let counters = inner.counters.snapshot();
    let occupancies = inner.pool.occupancies();
    let rebalance = inner.pool.rebalance_stats();
    let reply = StatsReply {
        accepted: counters.accepted,
        queries: counters.queries,
        mutates: counters.mutates,
        coalesced: counters.coalesced,
        rejected: counters.rejected,
        protocol_errors: counters.protocol_errors,
        epoch: inner.pool.epoch(),
        healthy_shards: inner.pool.healthy_shards() as u64,
        total_shards: inner.pool.num_shards() as u64,
        skew: inner.pool.skew(),
        occupancies: occupancies.into_iter().map(|n| n as u64).collect(),
        rebalances: rebalance.rebalances,
        rebalance_skew_before: rebalance.last_skew_before,
        rebalance_skew_after: rebalance.last_skew_after,
    };
    encode_response(Status::Ok, &reply)
}
