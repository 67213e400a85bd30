//! Every metric the benchmark reports: name, unit, layer, and which
//! run reports it.
//! `BENCHMARK.json` and `README.md` list the same names; the tests in
//! `tests/harness.rs` keep the three in step.

/// Which run reports a metric. The regression bounds of the
/// end-to-end metrics live in `BENCHMARK.json`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Reported by untraced runs (`--trace 0`).
    EndToEnd,
    /// Reported by traced runs (`--trace 1`).
    Layer,
}

/// One catalog entry.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// The metric's name, `[A-Za-z0-9_.-]`, starting with a letter or
    /// digit.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// The layer (crate) it measures; `e2e` and `trace` for the
    /// whole-system and tracer rows.
    pub layer: &'static str,
    /// Which run reports it.
    pub kind: Kind,
}

const fn e2e(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        layer: "e2e",
        kind: Kind::EndToEnd,
    }
}

const fn layer(name: &'static str, unit: &'static str, layer: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        layer,
        kind: Kind::Layer,
    }
}

/// The catalog, end-to-end metrics first.
pub const METRICS: &[MetricDef] = &[
    e2e("setup_s", "s"),
    e2e("ops_per_s", "1/s"),
    e2e("query_p50_us", "us"),
    e2e("query_p99_us", "us"),
    e2e("op_p50_us", "us"),
    e2e("op_p99_us", "us"),
    e2e("value_ratio", "ratio"),
    layer("net.first_request_us", "us", "net"),
    layer("net.connect_us", "us", "net"),
    layer("net.accepted", "count", "net"),
    layer("net.self_us", "us", "net"),
    layer("net.reply_bytes", "bytes", "net"),
    layer("net.coalesced", "count", "net"),
    layer("net.rejected", "count", "net"),
    layer("diversity.self_us", "us", "diversity"),
    layer("diversity.wire.encode_task_us", "us", "diversity"),
    layer("diversity.wire.encode_report_us", "us", "diversity"),
    layer("diversity.wire.decode_report_us", "us", "diversity"),
    layer("diversity.task_self_s", "s", "diversity"),
    layer("serve.self_us", "us", "serve"),
    layer("serve.query_us", "us", "serve"),
    layer("serve.extract_us", "us", "serve"),
    layer("serve.lock_wait_us", "us", "serve"),
    layer("serve.solve_us", "us", "serve"),
    layer("serve.coreset_points", "count", "serve"),
    layer("serve.insert_us", "us", "serve"),
    layer("serve.delete_us", "us", "serve"),
    layer("serve.extend_s", "s", "serve"),
    layer("serve.epoch_delta", "count", "serve"),
    layer("dynamic.distance_evals_per_update", "count", "dynamic"),
    layer("dynamic.max_candidates", "count", "dynamic"),
    layer("dynamic.orphans_rehomed", "count", "dynamic"),
    layer("mapreduce.round1_s", "s", "mapreduce"),
    layer("mapreduce.round1_critical_s", "s", "mapreduce"),
    layer("mapreduce.round2_s", "s", "mapreduce"),
    layer("mapreduce.max_local_points", "count", "mapreduce"),
    layer("mapreduce.emitted_points", "count", "mapreduce"),
    layer("mapreduce.retries", "count", "mapreduce"),
    layer("streaming.coreset_s", "s", "streaming"),
    layer("streaming.peak_memory_points", "count", "streaming"),
    layer("core.gmm_s", "s", "core"),
    layer("core.matching_s", "s", "core"),
    layer("metric.relax_ns_per_pair", "ns", "metric"),
    layer("trace.spans", "count", "trace"),
    layer("trace.sum_checked", "count", "trace"),
    layer("trace.sum_violations", "count", "trace"),
    layer("trace.overhead_pct", "%", "trace"),
];

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, the first a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The catalog entries a run reports: end-to-end ones for an
/// untraced run, per-layer ones for a traced run.
pub fn reported(traced: bool) -> impl Iterator<Item = &'static MetricDef> {
    METRICS
        .iter()
        .filter(move |m| (m.kind == Kind::Layer) == traced)
}

/// The entry named `name`.
pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    METRICS.iter().find(|m| m.name == name)
}
