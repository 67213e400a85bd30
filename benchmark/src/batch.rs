//! The `batch-mr` workload: an offline job with no server, shaped like
//! the paper's synthetic experiments. It generates
//! `sphere_shell(n = 1_000_000, dim = 3)`, splits it into 8 random
//! parts, and runs three jobs per batch:
//!
//! 1. a one-pass `Task::run_stream`, remote-edge, k = 32, k' = 256;
//! 2. `Task::run_mapreduce`, 2-round, remote-edge, k = 32, k' = 256,
//!    on a 2-thread `MapReduceRuntime`;
//! 3. the same 2-round job for remote-clique, k = 16, k' = 32.

use crate::VALUE_GATE;
use diversity::core::Problem;
use diversity::mapreduce::partition::split_random;
use diversity::mapreduce::two_round::two_round;
use diversity::mapreduce::{MapReduceRuntime, Partitions};
use diversity::{Budget, Report, Strategy, Task};
use divmax_benchmark::record::Outcome;
use divmax_benchmark::stats::{geometric_mean, median, per_second, windowed_percentile};
use divmax_benchmark::trace::Tracer;
use metric::{Euclidean, VecPoint};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const N: usize = 1_000_000;
const DIM: usize = 3;
const PLANTED: usize = 32;
const PARTS: usize = 8;
const THREADS: usize = 2;
/// Set-ups per run; `setup_s` is their median. A set-up takes a few
/// tenths of a second, so one slowed by the host would sway a median of
/// only a few.
const SETUPS: usize = 9;
/// Timed `gmm` calls behind `core.gmm_s`.
const GMM_CALLS: usize = 3;
/// Width in seconds of the windows the latency rows are taken over, a
/// few batches each: each row is the median over windows of the
/// percentile within each window, so one stalled batch does not set p99.
const WINDOW_S: f64 = 5.0;

/// Job ids, distinct from the serve workloads' request ids.
static NEXT_JOB: AtomicU64 = AtomicU64::new(1 << 62);

#[derive(Clone, Copy)]
enum Backend {
    Stream,
    MapReduce,
}

struct Job {
    name: &'static str,
    backend: Backend,
    problem: Problem,
    k: usize,
    k_prime: usize,
}

impl Job {
    fn task(&self) -> Task {
        Task::new(self.problem, self.k).budget(Budget::KPrime(self.k_prime))
    }
}

const JOBS: [Job; 3] = [
    Job {
        name: "task.run_stream",
        backend: Backend::Stream,
        problem: Problem::RemoteEdge,
        k: 32,
        k_prime: 256,
    },
    Job {
        name: "task.run_mapreduce.edge",
        backend: Backend::MapReduce,
        problem: Problem::RemoteEdge,
        k: 32,
        k_prime: 256,
    },
    Job {
        name: "task.run_mapreduce.clique",
        backend: Backend::MapReduce,
        problem: Problem::RemoteClique,
        k: 16,
        k_prime: 32,
    },
];

/// Which layer each reported stage row belongs to, and its span name.
fn row_layer(stage: &str) -> (&'static str, &'static str) {
    match stage {
        "stream-coreset" => ("streaming.coreset", "streaming"),
        "round1:coreset" => ("mapreduce.round1", "mapreduce"),
        "round2:solve" => ("core.round2_solve", "core"),
        _ => ("core.solve", "core"),
    }
}

/// The input, kept whole for streaming and split for MapReduce.
struct Data {
    points: Vec<VecPoint>,
    parts: Partitions<VecPoint>,
    runtime: MapReduceRuntime,
    /// `run_seq` value per job, the base of `value_ratio`.
    reference: Vec<f64>,
}

impl Data {
    fn new(points: Vec<VecPoint>, seed: u64) -> Data {
        let parts = split_random(points.clone(), PARTS, seed);
        Data {
            points,
            parts,
            runtime: MapReduceRuntime::with_threads(THREADS),
            reference: Vec::new(),
        }
    }

    fn with_reference(mut self) -> Result<Data, String> {
        for (j, job) in JOBS.iter().enumerate() {
            // Jobs that share a task share its reference.
            let same = JOBS[..j].iter().position(|o| o.task() == job.task());
            let value = match same {
                Some(i) => self.reference[i],
                None => {
                    job.task()
                        .run_seq(&self.points, &Euclidean)
                        .map_err(|e| format!("{} run_seq reference: {e}", job.name))?
                        .value
                }
            };
            self.reference.push(value);
        }
        Ok(self)
    }

    fn run(&self, job: &Job) -> Result<Report<VecPoint>, String> {
        let task = job.task();
        match job.backend {
            Backend::Stream => task.run_stream(self.points.iter().cloned(), &Euclidean),
            Backend::MapReduce => {
                task.run_mapreduce(&self.parts, &Euclidean, &self.runtime, Strategy::TwoRound)
            }
        }
        .map_err(|e| format!("{}: {e}", job.name))
    }
}

/// What one phase of batches measured.
#[derive(Default)]
struct Samples {
    batch_us: Vec<f64>,
    /// Seconds from the start of the phase to the end of each batch.
    batch_at_s: Vec<f64>,
    /// Wall time of each remote-edge MapReduce job, the query whose
    /// latency `query_p50_us` reports, with the seconds from the start of
    /// the phase to its end.
    query: Vec<(f64, f64)>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// Each job's value as bits, from its first answer.
    values: Vec<Option<u64>>,
    stream_coreset_s: Vec<f64>,
    stream_peak_points: usize,
    round1_s: Vec<f64>,
    round2_s: Vec<f64>,
    matching_s: Vec<f64>,
    max_local_points: usize,
    emitted_points: usize,
}

fn stage_secs(report: &Report<VecPoint>, stage: &str) -> f64 {
    report
        .timings
        .iter()
        .filter(|r| r.stage == stage)
        .map(|r| r.secs)
        .sum()
}

/// Checks one job's answer against its reference and against the
/// first answer of the run (the jobs are deterministic).
fn check(
    job: usize,
    report: &Report<VecPoint>,
    data: &Data,
    s: &mut Samples,
) -> Result<(), String> {
    let name = JOBS[job].name;
    if report.indices.len() != JOBS[job].k || report.points.len() != JOBS[job].k {
        return Err(format!(
            "{name}: {} points, not {}",
            report.indices.len(),
            JOBS[job].k
        ));
    }
    if !report.coreset_radius.is_some_and(f64::is_finite) || report.degradation.is_some() {
        return Err(format!("{name}: no coreset_radius, or degraded"));
    }
    let ratio = report.value / data.reference[job];
    if ratio < VALUE_GATE {
        return Err(format!("{name}: value ratio {ratio} is below {VALUE_GATE}"));
    }
    match s.values[job] {
        None => s.values[job] = Some(report.value.to_bits()),
        Some(bits) if bits != report.value.to_bits() => {
            return Err(format!("{name}: value changed between batches"));
        }
        Some(_) => {}
    }
    Ok(())
}

/// Runs whole batches until `deadline`, at least one.
fn run_batches(data: &Data, deadline: Instant, mut tracer: Option<&mut Tracer>) -> Samples {
    let mut s = Samples {
        values: vec![None; JOBS.len()],
        ..Samples::default()
    };
    let started = Instant::now();
    loop {
        let batch_started = Instant::now();
        let (mut round1, mut round2, mut complete) = (0.0, 0.0, true);
        for (j, job) in JOBS.iter().enumerate() {
            s.attempted += 1;
            let request = NEXT_JOB.fetch_add(1, Ordering::Relaxed);
            let root = tracer
                .as_mut()
                .map(|t| t.open(None, request, job.name, "diversity"));
            let job_started = Instant::now();
            let result = data.run(job);
            let elapsed = job_started.elapsed();
            if let (Some(t), Some(root)) = (tracer.as_mut(), root) {
                t.close(root);
                let mut offset = 0;
                for row in result.iter().flat_map(|report| &report.timings) {
                    let (name, layer) = row_layer(&row.stage);
                    let ns = (row.secs * 1e9) as u64;
                    t.row(root, offset, ns, name, layer);
                    offset += ns;
                }
            }
            match result.and_then(|report| check(j, &report, data, &mut s).map(|()| report)) {
                Ok(report) => match job.backend {
                    Backend::Stream => {
                        s.stream_coreset_s
                            .push(stage_secs(&report, "stream-coreset"));
                        s.stream_peak_points = report
                            .memory
                            .iter()
                            .map(|m| m.max_local_points)
                            .max()
                            .unwrap_or(0);
                    }
                    Backend::MapReduce => {
                        for m in &report.memory {
                            s.max_local_points = s.max_local_points.max(m.max_local_points);
                        }
                        if job.problem == Problem::RemoteEdge {
                            let at_s = started.elapsed().as_secs_f64();
                            s.query.push((at_s, elapsed.as_secs_f64() * 1e6));
                        }
                        round1 += stage_secs(&report, "round1:coreset");
                        round2 += stage_secs(&report, "round2:solve");
                        if job.problem == Problem::RemoteClique {
                            s.matching_s.push(stage_secs(&report, "round2:solve"));
                        }
                        s.emitted_points += report
                            .memory
                            .iter()
                            .filter(|m| m.stage == "round1:coreset")
                            .map(|m| m.emitted_points)
                            .sum::<usize>();
                    }
                },
                Err(e) => {
                    complete = false;
                    s.failed += 1;
                    if s.failures.len() < 5 {
                        s.failures.push(e);
                    }
                }
            }
        }
        if complete {
            s.batch_us.push(batch_started.elapsed().as_secs_f64() * 1e6);
            s.batch_at_s.push(started.elapsed().as_secs_f64());
            s.round1_s.push(round1);
            s.round2_s.push(round2);
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    s
}

fn account(out: &mut Outcome, s: &Samples) {
    out.attempted += s.attempted;
    out.failed += s.failed;
    for f in &s.failures {
        out.fail(f.clone());
    }
}

fn set_median(out: &mut Outcome, name: &'static str, sample: &[f64]) {
    out.set(name, median(sample).unwrap_or(0.0), sample.len());
}

/// The batch-side per-layer rows every traced run reports: the stage
/// rows of the traced batches, plus direct calls for what a `Report`
/// does not carry (round critical paths and retries from
/// `mapreduce::two_round`, and `core::gmm` on one part).
fn set_layer_metrics(out: &mut Outcome, s: &Samples, data: &Data) {
    set_median(out, "streaming.coreset_s", &s.stream_coreset_s);
    out.set(
        "streaming.peak_memory_points",
        s.stream_peak_points as f64,
        1,
    );
    set_median(out, "mapreduce.round1_s", &s.round1_s);
    set_median(out, "mapreduce.round2_s", &s.round2_s);
    set_median(out, "core.matching_s", &s.matching_s);
    out.set("mapreduce.max_local_points", s.max_local_points as f64, 1);
    let batches = s.batch_us.len().max(1);
    out.set(
        "mapreduce.emitted_points",
        (s.emitted_points / batches) as f64,
        batches,
    );

    let (mut critical, mut retries) = (0.0, 0);
    for job in JOBS
        .iter()
        .filter(|j| matches!(j.backend, Backend::MapReduce))
    {
        let outcome = two_round(
            job.problem,
            &data.parts,
            &Euclidean,
            job.k,
            job.k_prime,
            &data.runtime,
        );
        critical += outcome.stats.rounds[0].critical_path.as_secs_f64();
        retries += outcome
            .stats
            .rounds
            .iter()
            .map(|r| r.retries)
            .sum::<usize>();
    }
    out.set("mapreduce.round1_critical_s", critical, 1);
    out.set("mapreduce.retries", retries as f64, 1);

    let part = &data.parts.parts[0];
    let k_prime = JOBS[1].k_prime;
    let gmm_s: Vec<f64> = (0..GMM_CALLS)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(diversity::core::gmm(part, &Euclidean, k_prime, 0));
            t0.elapsed().as_secs_f64()
        })
        .collect();
    let gmm = median(&gmm_s).unwrap_or(0.0);
    out.set("core.gmm_s", gmm, gmm_s.len());
    out.set(
        "metric.relax_ns_per_pair",
        gmm * 1e9 / (part.len() * k_prime.min(part.len())) as f64,
        gmm_s.len(),
    );
}

/// Runs `batch-mr` for `seconds` with data seed `seed`. An untraced run
/// sets the end-to-end metrics; a traced run measures half the time
/// untraced and half traced, and sets the mapreduce, streaming, core
/// and metric rows. `serve_probe` receives the points to measure the
/// serve layers on, for traced runs.
pub fn run(
    seed: u64,
    seconds: u64,
    tracer: Option<&mut Tracer>,
    serve_probe: impl FnOnce(&[VecPoint], &mut Tracer, &mut Outcome) -> Result<(), String>,
) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = run_inner(seed, seconds, tracer, serve_probe, &mut out) {
        out.attempted += 1;
        out.failed += 1;
        out.fail(e);
    }
    out
}

fn run_inner(
    seed: u64,
    seconds: u64,
    tracer: Option<&mut Tracer>,
    serve_probe: impl FnOnce(&[VecPoint], &mut Tracer, &mut Outcome) -> Result<(), String>,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut data = None;
    for _ in 0..SETUPS {
        drop(data.take());
        let started = Instant::now();
        let (points, _) = diversity_datasets::sphere_shell(N, PLANTED, DIM, seed);
        data = Some(Data::new(points, seed));
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let data = data.expect("SETUPS >= 1").with_reference()?;
    let duration = Duration::from_secs(seconds);
    match tracer {
        None => {
            let s = run_batches(&data, Instant::now() + duration, None);
            account(out, &s);
            out.set("setup_s", median(&setup_s).unwrap_or(0.0), setup_s.len());
            let batches: Vec<(f64, f64)> = s
                .batch_at_s
                .iter()
                .copied()
                .zip(s.batch_us.iter().copied())
                .collect();
            let windows = ((seconds as f64 / WINDOW_S) as usize).max(1);
            for (sample, p50, p99) in [
                (&s.query, "query_p50_us", "query_p99_us"),
                (&batches, "op_p50_us", "op_p99_us"),
            ] {
                let by_window = per_second(
                    sample.iter().map(|&(at_s, us)| (at_s / WINDOW_S, us)),
                    windows,
                );
                for (name, q) in [(p50, 50.0), (p99, 99.0)] {
                    let value = windowed_percentile(&by_window, q).ok_or("no batch completed")?;
                    out.set(name, value, sample.len());
                }
            }
            // Batches per second at the median batch time: one slow batch
            // on a shared host does not move it.
            let batch = median(&s.batch_us).ok_or("no batch completed")?;
            out.set("ops_per_s", 1e6 / batch, s.batch_us.len());
            let ratios: Vec<f64> = (s.values.iter().zip(&data.reference))
                .filter_map(|(bits, reference)| bits.map(|b| f64::from_bits(b) / reference))
                .collect();
            let ratio = geometric_mean(&ratios).ok_or("no job answered")?;
            out.set("value_ratio", ratio, ratios.len());
        }
        Some(tracer) => {
            let untraced = run_batches(&data, Instant::now() + duration / 2, None);
            let traced = run_batches(&data, Instant::now() + duration / 2, Some(tracer));
            account(out, &untraced);
            account(out, &traced);
            let base = median(&untraced.batch_us).ok_or("no batch completed untraced")?;
            let with = median(&traced.batch_us).ok_or("no batch completed traced")?;
            out.set(
                "trace.overhead_pct",
                (with - base) / base * 100.0,
                traced.batch_us.len(),
            );
            set_layer_metrics(out, &traced, &data);
            serve_probe(&data.points, tracer, out)?;
        }
    }
    Ok(())
}

/// The batch layers measured on `points` for a workload that runs no
/// batch jobs of its own: one traced batch of the three jobs, with the
/// same direct calls as a `batch-mr` traced run.
pub fn probe(
    points: Vec<VecPoint>,
    seed: u64,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let data = Data::new(points, seed).with_reference()?;
    let s = run_batches(&data, Instant::now(), Some(tracer));
    account(out, &s);
    set_layer_metrics(out, &s, &data);
    Ok(())
}
