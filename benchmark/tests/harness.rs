//! Unit tests of the benchmark's bookkeeping: percentiles, span self
//! times, the layer-sum check, metric names, and agreement between the
//! catalog, `BENCHMARK.json` and `README.md`.

use divmax_benchmark::catalog::{self, METRICS};
use divmax_benchmark::record::{result_line, Outcome};
use divmax_benchmark::stats::{
    geometric_mean, median, per_second, percentile, windowed_percentile, Summary,
};
use divmax_benchmark::trace::{
    by_request, check_layer_sum, self_by_layer, self_times, Span, Tracer, SUM_TOLERANCE_NS,
};
use std::path::Path;
use std::time::Instant;

fn span(parent: Option<usize>, layer: &'static str, start_ns: u64, end_ns: u64) -> Span {
    Span {
        parent,
        request: 0,
        name: layer,
        layer,
        start_ns,
        end_ns,
    }
}

#[test]
fn percentile_is_nearest_rank() {
    let sample: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&sample, 50.0), Some(50.0));
    assert_eq!(percentile(&sample, 99.0), Some(99.0));
    assert_eq!(percentile(&sample, 100.0), Some(100.0));
    assert_eq!(percentile(&sample, 0.0), Some(1.0));
    assert_eq!(percentile(&[], 50.0), None);
    assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    // Four values: the median is the 2nd, the 99th percentile the 4th.
    assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), Some(2.0));
    assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 99.0), Some(4.0));
}

#[test]
fn summary_sorts_its_sample() {
    let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]).expect("non-empty");
    assert_eq!((s.n, s.p50, s.p99), (5, 3.0, 5.0));
    assert_eq!(Summary::of(&[]), None);
    assert_eq!(median(&[9.0, 1.0, 5.0]), Some(5.0));
}

#[test]
fn samples_fall_into_whole_one_second_windows() {
    let windows = per_second(
        [(0.1, 1.0), (0.9, 2.0), (1.0, 3.0), (2.5, 4.0), (3.0, 5.0)],
        3,
    );
    assert_eq!(windows, vec![vec![1.0, 2.0], vec![3.0], vec![4.0]]);
}

#[test]
fn windowed_percentile_is_the_median_of_window_percentiles() {
    // One stalled window cannot move the figure.
    let windows = vec![
        vec![1.0, 2.0, 3.0],
        vec![2.0, 3.0, 4.0],
        vec![100.0, 200.0, 300.0],
    ];
    assert_eq!(windowed_percentile(&windows, 99.0), Some(4.0));
    assert_eq!(windowed_percentile(&windows, 50.0), Some(3.0));
    assert_eq!(windowed_percentile(&[vec![], vec![5.0]], 50.0), Some(5.0));
    assert_eq!(windowed_percentile(&[], 50.0), None);
}

#[test]
fn geometric_mean_of_positive_values() {
    let g = geometric_mean(&[1.0, 4.0]).expect("positive values");
    assert!((g - 2.0).abs() < 1e-12);
    assert_eq!(geometric_mean(&[]), None);
    assert_eq!(geometric_mean(&[1.0, 0.0]), None);
}

#[test]
fn self_time_is_parent_minus_covered_child_time() {
    let spans = vec![
        span(None, "net", 0, 100),
        // Two overlapping children cover 10..50 once: 40 ns.
        span(Some(0), "diversity", 10, 30),
        span(Some(0), "serve", 20, 50),
        // A grandchild counts against its own parent only.
        span(Some(2), "core", 25, 45),
    ];
    assert_eq!(self_times(&spans), vec![60, 20, 10, 20]);
}

#[test]
fn a_child_reaching_outside_its_parent_covers_only_the_overlap() {
    let spans = vec![span(None, "net", 0, 100), span(Some(0), "serve", 90, 130)];
    assert_eq!(self_times(&spans), vec![90, 40]);
}

#[test]
fn self_time_sums_per_layer() {
    let spans = vec![
        span(None, "net", 0, 100),
        span(Some(0), "diversity", 0, 10),
        span(Some(0), "net", 10, 90),
        span(Some(2), "serve", 20, 70),
        span(Some(0), "diversity", 90, 100),
    ];
    let by_layer = self_by_layer(&spans);
    assert_eq!(by_layer["net"], 30);
    assert_eq!(by_layer["diversity"], 20);
    assert_eq!(by_layer["serve"], 50);
    assert_eq!(by_layer.values().sum::<u64>(), 100);
}

#[test]
fn layer_rows_and_residual_add_up() {
    let sum = check_layer_sum(100_000.0, &[20_000.0, 50_000.0]);
    assert!(sum.ok);
    assert_eq!(sum.residual, 30_000.0);
}

#[test]
fn a_negative_residual_fails_the_layer_sum_check() {
    // Rows exceeding the round trip by more than the tolerance.
    let sum = check_layer_sum(100_000.0, &[60_000.0, 50_000.0]);
    assert!(!sum.ok);
    assert_eq!(sum.residual, -10_000.0);
    // Within the tolerance (1% + 1 us) the check still passes.
    let sum = check_layer_sum(100_000.0, &[60_000.0, 40_000.0 + SUM_TOLERANCE_NS]);
    assert!(sum.ok);
    assert!(sum.residual < 0.0);
}

#[test]
fn a_negative_row_fails_the_layer_sum_check() {
    assert!(!check_layer_sum(100.0, &[-1.0, 50.0]).ok);
}

#[test]
fn rows_overflowing_their_parent_surface_as_a_negative_residual() {
    // A reply whose stage rows (80 + 40 ns) exceed its 100 ns exchange:
    // the exchange's self time clips to 0, so the rows outside the net
    // layer exceed the request's duration.
    let mut t = Tracer::new(Instant::now());
    let root = t.push(span(None, "net", 0, 10_115));
    t.push(span(Some(root), "diversity", 0, 10));
    let exchange = t.push(span(Some(root), "net", 10, 10_110));
    t.row(exchange, 0, 8_000, "serve.extract", "serve");
    t.row(exchange, 8_000, 4_000, "serve.solve", "serve");
    let by_layer = self_by_layer(t.spans());
    let rows: Vec<f64> = by_layer
        .iter()
        .filter(|(l, _)| **l != "net")
        .map(|(_, &v)| v as f64)
        .collect();
    let sum = check_layer_sum(10_115.0, &rows);
    assert!(!sum.ok, "{sum:?}");
}

#[test]
fn tracer_groups_spans_by_request_with_local_parents() {
    let mut t = Tracer::new(Instant::now());
    let a = t.open(None, 1, "client.query", "net");
    let b = t.open(None, 2, "client.query", "net");
    let a_child = t.open(Some(a), 1, "wire.encode_task", "diversity");
    t.close(a_child);
    let b_child = t.open(Some(b), 2, "wire.encode_task", "diversity");
    t.close(b_child);
    t.close(a);
    t.close(b);
    let groups = by_request(t.spans());
    assert_eq!(groups.len(), 2);
    for group in groups.values() {
        assert_eq!(group.len(), 2);
        assert_eq!(group[0].parent, None);
        assert_eq!(group[1].parent, Some(0));
    }
}

#[test]
fn absorbed_spans_keep_their_parents() {
    let epoch = Instant::now();
    let mut a = Tracer::new(epoch);
    a.push(span(None, "net", 0, 10));
    let mut b = Tracer::new(epoch);
    let root = b.push(span(None, "net", 0, 10));
    b.row(root, 2, 3, "serve.extract", "serve");
    a.absorb(b);
    assert_eq!(a.spans()[2].parent, Some(1));
    assert_eq!((a.spans()[2].start_ns, a.spans()[2].end_ns), (2, 5));
}

#[test]
fn metric_names_are_valid_and_unique() {
    for ok in ["setup_s", "net.self_us", "a-b.c_d", "9lives"] {
        assert!(catalog::valid_name(ok), "{ok}");
    }
    for bad in ["", ".x", "_x", "a b", "a/b", "é", &"x".repeat(65)] {
        assert!(!catalog::valid_name(bad), "{bad}");
    }
    let mut names: Vec<&str> = METRICS.iter().map(|m| m.name).collect();
    for name in &names {
        assert!(catalog::valid_name(name), "{name}");
    }
    for m in METRICS {
        assert!(
            !m.unit.is_empty()
                && m.unit.len() <= 16
                && m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "unit of {}",
            m.name
        );
    }
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), METRICS.len());
    assert!(catalog::lookup("setup_s").is_some());
}

#[test]
fn result_line_needs_every_metric_of_its_kind() {
    let mut outcome = Outcome {
        attempted: 3,
        ..Outcome::default()
    };
    assert!(result_line(&outcome, false).is_err());
    for def in catalog::reported(false) {
        outcome.set(def.name, 1.5, 1);
    }
    let line = result_line(&outcome, false).expect("every end-to-end metric set");
    assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {"));
    assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
    outcome.set("setup_s", f64::NAN, 1);
    assert!(result_line(&outcome, false).is_err());
}

/// `(name, unit, better, bound)` of each object in the named array of
/// `BENCHMARK.json`, read by plain string scanning.
fn spec_entries(spec: &str, key: &str) -> Vec<(String, String, String, String)> {
    let start = spec.find(&format!("\"{key}\"")).expect("key present");
    let open = start + spec[start..].find('[').expect("array");
    let close = open + spec[open..].find(']').expect("array end");
    let field = |obj: &str, f: &str| -> String {
        obj.find(&format!("\"{f}\""))
            .map(|i| {
                let rest = &obj[i + f.len() + 2..];
                let rest = rest[rest.find(':').expect("colon") + 1..].trim_start();
                rest.trim_start_matches('"')
                    .split(['"', ',', '}'])
                    .next()
                    .unwrap_or("")
                    .trim()
                    .to_string()
            })
            .unwrap_or_default()
    };
    spec[open + 1..close]
        .split('{')
        .filter(|o| o.contains("\"name\""))
        .map(|o| {
            (
                field(o, "name"),
                field(o, "unit"),
                field(o, "better"),
                field(o, "bound"),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_catalog() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("repo root");
    let spec = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let e2e = spec_entries(&spec, "end_to_end");
    let layer = spec_entries(&spec, "per_layer");
    let expected_e2e: Vec<_> = catalog::reported(false).collect();
    let expected_layer: Vec<_> = catalog::reported(true).collect();
    assert_eq!(e2e.len(), expected_e2e.len());
    assert_eq!(layer.len(), expected_layer.len());
    for ((name, unit, better, bound), def) in e2e.iter().zip(expected_e2e) {
        assert_eq!((name.as_str(), unit.as_str()), (def.name, def.unit));
        assert!(better == "lower" || better == "higher", "{name}");
        let bound: f64 = bound.parse().expect("numeric bound");
        assert!(bound > 0.0 && bound <= 0.25, "{name}");
    }
    for ((name, unit, better, _), def) in layer.iter().zip(expected_layer) {
        assert_eq!((name.as_str(), unit.as_str()), (def.name, def.unit));
        assert!(better == "lower" || better == "higher", "{name}");
    }
}

#[test]
fn readme_documents_every_metric_and_workload() {
    let readme = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("README.md"))
        .expect("README.md");
    for m in METRICS {
        assert!(
            readme.contains(&format!("`{}`", m.name)),
            "README lacks {}",
            m.name
        );
    }
    for w in ["serve-read", "serve-churn", "batch-mr"] {
        assert!(readme.contains(&format!("`{w}`")), "README lacks {w}");
    }
}
