//! # diversity-obs
//!
//! Zero-cost-when-disabled structured observability for the
//! diversity-maximization stack: counters, gauges, log2-bucketed
//! latency [`Histogram`]s with mergeable [`Snapshot`]s, and lightweight
//! [`span!`] guards — vendored-deps-only, like the rest of the
//! workspace.
//!
//! The paper's whole argument is quantitative (coreset sizes, round
//! counts, `M_L`/`M_T` memory, update/query latencies — §5 of
//! Ceccarello et al., PVLDB 2017), so every layer of the repro is
//! instrumented through this crate: GMM rounds in `diversity-core`,
//! batch kernels in `metric`, the streaming `DoublingCore`'s phases,
//! the MapReduce round driver, and the serving pool's
//! lock/query/checkpoint timings.
//!
//! ## The cost model
//!
//! Nothing records unless a [`Recorder`] is installed. Every
//! instrumentation hook first checks one process-global relaxed
//! `AtomicBool` — so with no recorder the instrumented hot paths pay
//! ~one atomic load per *batch-level* event (never per point; the
//! `BENCH_obs.json` bench records both modes side by side). With a
//! recorder installed, events go to the installed sink: the default
//! [`Registry`] (atomic counters/gauges, per-histogram mutexes), or
//! per-thread [`LocalRecorder`]s merged at a join point when even
//! uncontended atomics are too much sharing.
//!
//! ## Enabling
//!
//! ```
//! use std::sync::Arc;
//! use diversity_obs as obs;
//!
//! let registry = Arc::new(obs::Registry::new());
//! obs::install(registry.clone());
//!
//! obs::count("demo.events", 3);
//! {
//!     let _span = obs::span!("demo.work_ns"); // records elapsed ns on drop
//! }
//! let snap = registry.snapshot_now();
//! assert_eq!(snap.counter("demo.events"), Some(3));
//! assert_eq!(snap.histogram("demo.work_ns").unwrap().count, 1);
//!
//! // Optional offline sink: appends JSON lines when DIVMAX_OBS=path.
//! obs::export_to_env_path(&snap).unwrap();
//! obs::uninstall();
//! ```
//!
//! The `divmax-stats` binary (this crate) pretty-prints a `DIVMAX_OBS`
//! JSONL file — or asserts it contains expected metric keys, which is
//! how CI checks the churn-stress export.

mod export;
mod histogram;
mod recorder;
mod snapshot;

pub mod env;

pub use export::{
    env_path, export_jsonl, export_to_env_path, read_jsonl, to_lines, JsonLine, ENV_VAR,
};
pub use histogram::{bucket_index, bucket_low, Bucket, Histogram, HistogramSnapshot, SUB_BITS};
pub use recorder::{LocalRecorder, Recorder, Registry};
pub use snapshot::{CounterEntry, GaugeEntry, HistogramEntry, Snapshot};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// Fast path: is any recorder installed? One relaxed load.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The installed recorder. Only consulted after [`ENABLED`] reads true.
static GLOBAL: RwLock<Option<Arc<dyn Recorder + Send + Sync>>> = RwLock::new(None);

/// Installs `recorder` as the process-global sink, replacing any
/// previous one. Instrumented code all over the workspace starts
/// recording into it immediately.
pub fn install(recorder: Arc<dyn Recorder + Send + Sync>) {
    let mut slot = GLOBAL.write().unwrap_or_else(|e| e.into_inner());
    *slot = Some(recorder);
    ENABLED.store(true, Ordering::Release);
}

/// Removes the installed recorder (instrumentation reverts to the
/// ~one-atomic disabled path) and returns it, so a harness can drain
/// its final snapshot.
pub fn uninstall() -> Option<Arc<dyn Recorder + Send + Sync>> {
    let mut slot = GLOBAL.write().unwrap_or_else(|e| e.into_inner());
    ENABLED.store(false, Ordering::Release);
    slot.take()
}

/// Whether a recorder is installed — the single relaxed atomic load
/// every hook pays when disabled. Instrumented code may use this to
/// skip preparing event data (formatting names, diffing stats) when
/// nobody is listening.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Runs `f` against the installed recorder, if any.
#[inline]
fn with_recorder(f: impl FnOnce(&dyn Recorder)) {
    if !enabled() {
        return;
    }
    let slot = GLOBAL.read().unwrap_or_else(|e| e.into_inner());
    if let Some(r) = slot.as_deref() {
        f(r);
    }
}

/// Adds `delta` to counter `name` on the installed recorder (no-op
/// when disabled).
#[inline]
pub fn count(name: &str, delta: u64) {
    with_recorder(|r| r.count(name, delta));
}

/// Sets gauge `name` on the installed recorder (no-op when disabled).
#[inline]
pub fn gauge_set(name: &str, value: i64) {
    with_recorder(|r| r.gauge_set(name, value));
}

/// Adds `delta` to gauge `name` on the installed recorder (no-op when
/// disabled).
#[inline]
pub fn gauge_add(name: &str, delta: i64) {
    with_recorder(|r| r.gauge_add(name, delta));
}

/// Records `value` into histogram `name` on the installed recorder
/// (no-op when disabled).
#[inline]
pub fn observe(name: &str, value: u64) {
    with_recorder(|r| r.observe(name, value));
}

/// A point-in-time snapshot of the installed recorder, or `None` when
/// disabled — exactly what `Report.telemetry` carries.
pub fn snapshot() -> Option<Snapshot> {
    let mut out = None;
    with_recorder(|r| out = Some(r.snapshot()));
    out
}

/// A guard that records its elapsed nanoseconds into histogram `name`
/// when dropped. Created by [`span()`] / [`span!`]; nestable (each
/// guard is independent). When no recorder is installed the guard is
/// inert: construction is one atomic load and drop is a `None` check.
#[must_use = "a span records on drop; binding it to `_` drops immediately"]
pub struct Span {
    live: Option<(&'static str, Instant)>,
}

impl Span {
    /// Elapsed time so far, when the span is live (recorder installed
    /// at creation).
    pub fn elapsed_ns(&self) -> Option<u64> {
        self.live
            .map(|(_, t0)| u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX))
    }

    /// Discards the span without recording.
    pub fn cancel(mut self) {
        self.live = None;
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((name, t0)) = self.live.take() {
            let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            observe(name, ns);
        }
    }
}

/// Starts a span recording elapsed-ns into histogram `name` on drop.
/// See [`Span`]; the [`span!`] macro is the conventional spelling at
/// instrumentation sites.
#[inline]
pub fn span(name: &'static str) -> Span {
    Span {
        live: enabled().then(|| (name, Instant::now())),
    }
}

/// `span!("gmm.relax_ns")` — starts a [`Span`] guard that records its
/// elapsed nanoseconds into the named histogram when it goes out of
/// scope.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Global-install tests share process state; serialize them.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn disabled_hooks_are_inert() {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        uninstall();
        count("nobody.listening", 1);
        observe("nobody.listening_ns", 5);
        assert!(snapshot().is_none());
        let s = span("nobody.span_ns");
        assert!(s.elapsed_ns().is_none());
        drop(s);
    }

    #[test]
    fn install_routes_events_and_uninstall_stops_them() {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let registry = Arc::new(Registry::new());
        install(registry.clone());
        count("lib.events", 2);
        gauge_set("lib.level", 9);
        gauge_add("lib.level", -4);
        {
            let _s = span!("lib.block_ns");
        }
        let snap = snapshot().expect("recorder installed");
        assert_eq!(snap.counter("lib.events"), Some(2));
        assert_eq!(snap.gauge("lib.level"), Some(5));
        assert_eq!(snap.histogram("lib.block_ns").unwrap().count, 1);

        let back = uninstall().expect("was installed");
        count("lib.events", 50);
        assert_eq!(back.snapshot().counter("lib.events"), Some(2));
        assert!(snapshot().is_none());
    }

    #[test]
    fn cancelled_spans_do_not_record() {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let registry = Arc::new(Registry::new());
        install(registry.clone());
        span!("lib.cancelled_ns").cancel();
        assert!(registry
            .snapshot_now()
            .histogram("lib.cancelled_ns")
            .is_none());
        uninstall();
    }
}
