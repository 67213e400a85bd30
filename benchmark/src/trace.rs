//! The benchmark's span tracer. Spans are placed by the benchmark
//! around the calls it makes into each layer; stage rows that a
//! `Report` carries (durations without a clock position) become child
//! spans laid end to end inside the span of the call that returned
//! them. Spans stay in memory until the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Index of the parent span in the same tracer, if any.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one request or job.
    pub request: u64,
    /// What was timed.
    pub name: &'static str,
    /// The layer (crate) the timed work belongs to.
    pub layer: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// `end - start`, saturating at zero.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An append-only span log with a shared time origin.
#[derive(Clone, Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty log measuring from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    /// The time origin.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Appends a span and returns its index.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span starting now; [`close`](Self::close) sets its end.
    /// Opening before the work keeps every parent ahead of its
    /// children in the log.
    pub fn open(
        &mut self,
        parent: Option<usize>,
        request: u64,
        name: &'static str,
        layer: &'static str,
    ) -> usize {
        let now = self.now();
        self.push(Span {
            parent,
            request,
            name,
            layer,
            start_ns: now,
            end_ns: now,
        })
    }

    /// Ends span `index` now.
    pub fn close(&mut self, index: usize) {
        self.spans[index].end_ns = self.now();
    }

    /// Appends a child of `parent` that starts `offset_ns` after the
    /// parent and lasts `duration_ns` — how a reported stage row is
    /// placed. Returns its index.
    pub fn row(
        &mut self,
        parent: usize,
        offset_ns: u64,
        duration_ns: u64,
        name: &'static str,
        layer: &'static str,
    ) -> usize {
        let base = &self.spans[parent];
        let start_ns = base.start_ns + offset_ns;
        let span = Span {
            parent: Some(parent),
            request: base.request,
            name,
            layer,
            start_ns,
            end_ns: start_ns + duration_ns,
        };
        self.push(span)
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves every span of `other` into this log, re-pointing parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Writes one JSON line for each of the first `limit` spans.
    pub fn write_jsonl(&self, out: &mut impl Write, limit: usize) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate().take(limit) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.request, s.name, s.layer, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover (overlapping children count once; a child
/// reaching outside the parent covers only the overlap).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(cursor), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            s.duration_ns() - covered.min(s.duration_ns())
        })
        .collect()
}

/// Self time summed per layer over `spans`.
pub fn self_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by_layer = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        *by_layer.entry(span.layer).or_insert(0) += own;
    }
    by_layer
}

/// Share of a root's duration by which its layer rows may overshoot
/// it before the sum check fails.
pub const SUM_TOLERANCE_FRAC: f64 = 0.01;

/// Absolute slack of the sum check, for clock granularity (ns).
pub const SUM_TOLERANCE_NS: f64 = 1_000.0;

/// The outcome of checking one root's layer rows against its
/// duration.
#[derive(Clone, Debug, PartialEq)]
pub struct LayerSum {
    /// The root's duration minus the sum of the rows: the residual
    /// layer's time.
    pub residual: f64,
    /// Whether every row is non-negative and the rows do not exceed
    /// the total by more than the tolerance.
    pub ok: bool,
}

/// Checks that `rows` (per-layer times, residual layer excluded) plus
/// the residual add up to `total`: no row negative and the residual
/// not below `-(SUM_TOLERANCE_FRAC·total + SUM_TOLERANCE_NS)`.
pub fn check_layer_sum(total: f64, rows: &[f64]) -> LayerSum {
    let residual = total - rows.iter().sum::<f64>();
    let tolerance = SUM_TOLERANCE_FRAC * total + SUM_TOLERANCE_NS;
    LayerSum {
        residual,
        ok: rows.iter().all(|&r| r >= 0.0) && residual >= -tolerance,
    }
}

/// Groups spans by request id, each group keeping its spans'
/// relative parent links (indices into the group).
pub fn by_request(spans: &[Span]) -> BTreeMap<u64, Vec<Span>> {
    let mut groups: BTreeMap<u64, (Vec<Span>, BTreeMap<usize, usize>)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let (group, index) = groups.entry(s.request).or_default();
        index.insert(i, group.len());
        let mut s = s.clone();
        s.parent = s.parent.and_then(|p| index.get(&p).copied());
        group.push(s);
    }
    groups.into_iter().map(|(k, (g, _))| (k, g)).collect()
}
