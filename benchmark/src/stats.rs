//! Percentiles and sample summaries.

/// The nearest-rank `q`-th percentile of an ascending sample: the
/// smallest value with at least `q`% of the sample at or below it.
/// `None` for an empty sample.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median and 99th percentile of a sample, with its size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Samples summarized.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// Nearest-rank 99th percentile.
    pub p99: f64,
}

impl Summary {
    /// Summarizes `sample` (any order). `None` when it is empty.
    pub fn of(sample: &[f64]) -> Option<Summary> {
        let mut sorted = sample.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Summary {
            n: sorted.len(),
            p50: percentile(&sorted, 50.0)?,
            p99: percentile(&sorted, 99.0)?,
        })
    }
}

/// The nearest-rank median of `sample`, or `None` when it is empty.
pub fn median(sample: &[f64]) -> Option<f64> {
    Summary::of(sample).map(|s| s.p50)
}

/// The geometric mean of positive values, or `None` when `values` is
/// empty or holds a value that is not positive.
pub fn geometric_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v.is_nan() || v <= 0.0) {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

/// Groups `(at_s, value)` samples into the one-second windows
/// `0..windows` by `at_s`, dropping samples at or past `windows`
/// seconds (the last, partial window).
pub fn per_second(samples: impl IntoIterator<Item = (f64, f64)>, windows: usize) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); windows];
    for (at_s, value) in samples {
        if at_s >= 0.0 && (at_s as usize) < windows {
            out[at_s as usize].push(value);
        }
    }
    out
}

/// The median over non-empty windows of each window's nearest-rank
/// `q`-th percentile: a tail estimate that one stalled second cannot
/// move by itself.
pub fn windowed_percentile(windows: &[Vec<f64>], q: f64) -> Option<f64> {
    let per_window: Vec<f64> = windows
        .iter()
        .filter_map(|w| {
            let mut sorted = w.clone();
            sorted.sort_by(f64::total_cmp);
            percentile(&sorted, q)
        })
        .collect();
    median(&per_window)
}
