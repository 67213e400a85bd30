//! The result of one run: the last-line JSON object, and a fuller
//! record with the host and source fingerprint appended to a history
//! file.

use crate::catalog;
use std::collections::BTreeMap;
use std::path::Path;

/// What a run measured and whether its outputs were correct.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations (requests or jobs) attempted.
    pub attempted: u64,
    /// Operations that failed, were refused, degraded, or gave a wrong
    /// answer.
    pub failed: u64,
    /// Why the run is not correct; empty when it is.
    pub failures: Vec<String>,
    /// Metric values by catalog name.
    pub values: BTreeMap<&'static str, f64>,
    /// Sample count behind each summarized metric.
    pub samples: BTreeMap<&'static str, usize>,
}

impl Outcome {
    /// Records a metric value with the number of samples behind it.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        debug_assert!(
            catalog::lookup(name).is_some(),
            "{name} is not in the catalog"
        );
        self.values.insert(name, value);
        self.samples.insert(name, samples);
    }

    /// Records a failed check (the run is then not correct).
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failures.push(why.into());
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Failed over attempted operations.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The host, build and source a run measured.
#[derive(Clone, Debug)]
pub struct Fingerprint {
    /// Available parallelism.
    pub nproc: usize,
    /// The metric kernels' dispatch (`avx2`, `neon` or `scalar`).
    pub simd: &'static str,
    /// `release` or `debug`.
    pub profile: &'static str,
    /// `git rev-parse HEAD` of the checkout, or `none` outside git.
    pub git_rev: String,
    /// FNV-1a over the workspace sources the benchmark builds against.
    pub source_hash: String,
    /// The workload name.
    pub workload: String,
    /// The workload seed.
    pub seed: u64,
    /// Measured seconds asked for.
    pub seconds: u64,
    /// Whether this was the traced run.
    pub traced: bool,
}

/// The last line of a run: `correct`, `attempted`, `failed` and the
/// metrics of the run kind. Errors when a metric of that kind is
/// missing or not finite.
pub fn result_line(outcome: &Outcome, traced: bool) -> Result<String, String> {
    let mut metrics = Vec::new();
    for def in catalog::reported(traced) {
        let value = outcome
            .values
            .get(def.name)
            .copied()
            .ok_or_else(|| format!("metric {} was not measured", def.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} is not finite ({value})", def.name));
        }
        metrics.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            def.name, def.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    ))
}

/// The full record: fingerprint, counts, error rate, every measured
/// value with its unit, layer and sample count, and any failures.
pub fn record_line(fp: &Fingerprint, outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .values
        .iter()
        .map(|(name, value)| {
            let def = catalog::lookup(name).expect("values are set from the catalog");
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\", \"layer\": \"{}\", \"samples\": {}}}",
                if value.is_finite() { value.to_string() } else { "null".into() },
                def.unit,
                def.layer,
                outcome.samples.get(name).copied().unwrap_or(1)
            )
        })
        .collect();
    let failures: Vec<String> = outcome.failures.iter().map(|f| json_string(f)).collect();
    format!(
        concat!(
            "{{\"host\": {{\"nproc\": {}, \"simd\": \"{}\", \"profile\": \"{}\"}}, ",
            "\"source\": {{\"git_rev\": {}, \"source_hash\": \"{}\"}}, ",
            "\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"traced\": {}, ",
            "\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"error_rate\": {}, ",
            "\"failures\": [{}], \"metrics\": {{{}}}}}"
        ),
        fp.nproc,
        fp.simd,
        fp.profile,
        json_string(&fp.git_rev),
        fp.source_hash,
        json_string(&fp.workload),
        fp.seed,
        fp.seconds,
        fp.traced,
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        outcome.error_rate(),
        failures.join(", "),
        metrics.join(", ")
    )
}

/// `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// FNV-1a (64-bit) over every file below `dirs` (relative to `root`),
/// visited in sorted path order, hashing each path and its bytes.
/// Unreadable entries are skipped.
pub fn source_hash(root: &Path, dirs: &[&str]) -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for dir in dirs {
        let path = root.join(dir);
        if path.is_file() {
            files.push(path);
        } else {
            walk(&path, &mut files);
        }
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for file in files {
        let Ok(bytes) = std::fs::read(&file) else {
            continue;
        };
        let rel = file.strip_prefix(root).unwrap_or(&file);
        feed(rel.to_string_lossy().as_bytes());
        feed(&bytes);
    }
    format!("{hash:016x}")
}
