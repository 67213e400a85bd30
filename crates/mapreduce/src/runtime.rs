//! The simulated MapReduce runtime: parallel rounds + accounting.

use diversity_faults::FaultPlan;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Execution statistics for one MapReduce round.
#[derive(Clone, Debug)]
pub struct RoundStats {
    /// Human-readable round label (e.g. `"round1:coreset"`).
    pub name: String,
    /// Number of logical reducers in the round.
    pub reducers: usize,
    /// Largest number of points resident in a single reducer — the
    /// quantity the paper's `M_L` bounds govern.
    pub max_local_points: usize,
    /// Total points across all reducers (`M_T` is linear in this).
    pub total_points: usize,
    /// Points shipped out of the round (shuffle volume into the next).
    pub emitted_points: usize,
    /// Wall-clock time of the round on the host machine.
    pub wall: Duration,
    /// Simulated parallel time: the slowest single reducer's execution
    /// time (the round's critical path). On a machine with fewer cores
    /// than simulated processors this — not `wall` — is the faithful
    /// model of a real cluster round, since every reducer's own work
    /// is measured independently.
    pub critical_path: Duration,
    /// Partition executions re-run by the retry-with-reshuffle loop:
    /// reducers whose first pass panicked or whose output was dropped
    /// (an injected [`diversity_faults::sites::MR_PARTITION`] loss, or
    /// a real one). `0` on every fault-free round.
    pub retries: usize,
}

/// Accumulated statistics for a full MapReduce job.
#[derive(Clone, Debug, Default)]
pub struct MrStats {
    /// One entry per executed round, in order.
    pub rounds: Vec<RoundStats>,
}

impl MrStats {
    /// Number of rounds executed.
    pub fn num_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// The job's `M_L`: the worst per-reducer residency over all rounds.
    pub fn max_local_points(&self) -> usize {
        self.rounds
            .iter()
            .map(|r| r.max_local_points)
            .max()
            .unwrap_or(0)
    }

    /// Total wall-clock time across rounds.
    pub fn total_wall(&self) -> Duration {
        self.rounds.iter().map(|r| r.wall).sum()
    }

    /// Total simulated parallel time: the sum of per-round critical
    /// paths — what a cluster with one node per reducer would take,
    /// regardless of how many cores the simulating host has.
    pub fn simulated_wall(&self) -> Duration {
        self.rounds.iter().map(|r| r.critical_path).sum()
    }
}

/// The runtime: a bound on concurrently executing reducer threads.
///
/// Logical reducers may exceed `threads`; they are then multiplexed,
/// exactly as more Spark partitions than cores would be. With
/// `threads = p` and balanced partitions the wall-clock of a round
/// matches a `p`-processor cluster up to constants — the basis of the
/// Figure 5 scalability experiment.
#[derive(Clone, Debug)]
pub struct MapReduceRuntime {
    /// Maximum number of OS threads running reducers at once.
    pub threads: usize,
    /// The plan [`sites::MR_PARTITION`](diversity_faults::sites::MR_PARTITION)
    /// rolls on; a runtime without one drops nothing.
    faults: Option<Arc<FaultPlan>>,
}

impl Default for MapReduceRuntime {
    fn default() -> Self {
        Self::with_threads(std::thread::available_parallelism().map_or(4, |n| n.get()))
    }
}

impl MapReduceRuntime {
    /// Passes a partition gets before its failure is considered
    /// permanent: the first execution plus two retries.
    pub const MAX_ATTEMPTS: usize = 3;

    /// A runtime simulating `p` processors.
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads >= 1, "need at least one thread");
        Self {
            threads,
            faults: None,
        }
    }

    /// This runtime with `plan` deciding which reducer outputs are
    /// lost at [`sites::MR_PARTITION`](diversity_faults::sites::MR_PARTITION),
    /// forcing the retry path of [`run_round`](Self::run_round).
    pub fn with_faults(mut self, plan: Arc<FaultPlan>) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Executes one round: applies `reducer(i, &inputs[i])` to every
    /// logical reducer `i`, at most [`Self::threads`] concurrently, and
    /// returns the outputs in reducer order plus the round's stats. A
    /// pass with one worker (one pending reducer, or a one-thread
    /// runtime) runs on the calling thread: spawning one costs more
    /// than a warm serving query's whole combine.
    ///
    /// `measure_emitted` converts an output to its shuffle size in
    /// points.
    ///
    /// ## Retry-with-reshuffle
    ///
    /// A partition whose reducer panics, or whose output is lost (the
    /// [`diversity_faults::sites::MR_PARTITION`] injection point, rolled
    /// on the plan given to [`with_faults`](Self::with_faults)), is
    /// **re-executed** on the next pass — the simulated form of a
    /// cluster rescheduling a failed task and reshuffling its input,
    /// which is sound here because reducers are pure functions of
    /// `(i, &inputs[i])`. Up to [`Self::MAX_ATTEMPTS`] passes run;
    /// a partition still failing after the last pass re-raises its
    /// panic (a deterministic reducer bug must surface, not loop).
    /// Retries are counted in [`RoundStats::retries`] and the
    /// `fault.mr.retries` obs counter. Since every round driver
    /// (two-round, three-round, randomized, recursive) funnels through
    /// here, all four inherit the retry path.
    pub fn run_round<I, R>(
        &self,
        name: &str,
        inputs: &[I],
        reducer: impl Fn(usize, &I) -> R + Sync,
        measure_input: impl Fn(&I) -> usize,
        measure_emitted: impl Fn(&R) -> usize,
    ) -> (Vec<R>, RoundStats)
    where
        I: Sync,
        R: Send,
    {
        let n = inputs.len();
        let start = Instant::now();
        let results: Mutex<Vec<Option<(R, Duration)>>> = Mutex::new((0..n).map(|_| None).collect());
        let mut pending: Vec<usize> = (0..n).collect();
        let mut retries = 0usize;

        for attempt in 1..=Self::MAX_ATTEMPTS {
            let next = AtomicUsize::new(0);
            let workers = self.threads.min(pending.len().max(1));
            let pending_pass = &pending;
            // The last panic payload of the pass, re-raised only when
            // the partition keeps failing on the final attempt.
            let panic_slot: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

            let work = || loop {
                let slot = next.fetch_add(1, Ordering::Relaxed);
                if slot >= pending_pass.len() {
                    break;
                }
                let i = pending_pass[slot];
                let reducer_start = Instant::now();
                let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    reducer(i, &inputs[i])
                }));
                let took = reducer_start.elapsed();
                match out {
                    // An injected partition loss discards the output;
                    // the next pass re-runs the reducer.
                    Ok(out) => {
                        let dropped = self.faults.as_ref().is_some_and(|plan| {
                            plan.should_drop(diversity_faults::sites::MR_PARTITION)
                        });
                        if !dropped {
                            results.lock()[i] = Some((out, took));
                        }
                    }
                    Err(payload) => {
                        *panic_slot.lock() = Some(payload);
                    }
                }
            };
            if workers == 1 {
                work();
            } else {
                std::thread::scope(|scope| {
                    for _ in 0..workers {
                        scope.spawn(work);
                    }
                });
            }

            {
                let done = results.lock();
                pending.retain(|&i| done[i].is_none());
            }
            if pending.is_empty() {
                break;
            }
            if attempt == Self::MAX_ATTEMPTS {
                match panic_slot.into_inner() {
                    Some(payload) => std::panic::resume_unwind(payload),
                    None => panic!(
                        "mapreduce round {name}: {} partitions failed after {} attempts",
                        pending.len(),
                        Self::MAX_ATTEMPTS
                    ),
                }
            }
            retries += pending.len();
            diversity_obs::count("fault.mr.retries", pending.len() as u64);
        }

        let mut critical_path = Duration::ZERO;
        let outputs: Vec<R> = results
            .into_inner()
            .into_iter()
            .map(|r| {
                let (out, took) = r.expect("every partition completed or the round panicked");
                critical_path = critical_path.max(took);
                out
            })
            .collect();
        let wall = start.elapsed();
        let local_sizes: Vec<usize> = inputs.iter().map(&measure_input).collect();
        let stats = RoundStats {
            name: name.to_string(),
            reducers: n,
            max_local_points: local_sizes.iter().copied().max().unwrap_or(0),
            total_points: local_sizes.iter().sum(),
            emitted_points: outputs.iter().map(&measure_emitted).sum(),
            wall,
            critical_path,
            retries,
        };
        // One report per round — every driver (two-round, three-round,
        // randomized, recursive) funnels through here, so this is the
        // single instrumentation point for the whole MR substrate.
        if diversity_obs::enabled() {
            diversity_obs::count("mr.rounds", 1);
            diversity_obs::count("mr.shuffle.points", stats.emitted_points as u64);
            diversity_obs::observe("mr.round.wall_ns", stats.wall.as_nanos() as u64);
            diversity_obs::observe("mr.round.m_local", stats.max_local_points as u64);
            diversity_obs::observe("mr.round.m_total", stats.total_points as u64);
        }
        (outputs, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_preserves_reducer_order() {
        let rt = MapReduceRuntime::with_threads(4);
        let inputs: Vec<Vec<u32>> = (0..16).map(|i| vec![i as u32; i + 1]).collect();
        let (out, stats) = rt.run_round(
            "test",
            &inputs,
            |i, input| (i, input.len()),
            Vec::len,
            |_| 1,
        );
        for (i, &(idx, len)) in out.iter().enumerate() {
            assert_eq!(idx, i);
            assert_eq!(len, i + 1);
        }
        assert_eq!(stats.reducers, 16);
        assert_eq!(stats.max_local_points, 16);
        assert_eq!(stats.total_points, (1..=16).sum::<usize>());
        assert_eq!(stats.emitted_points, 16);
        assert_eq!(stats.retries, 0, "a fault-free round never retries");
    }

    #[test]
    fn flaky_partitions_are_retried_to_completion() {
        use std::sync::atomic::AtomicUsize;
        let rt = MapReduceRuntime::with_threads(4);
        let inputs: Vec<u64> = (0..8).collect();
        // Partition 3 panics on its first execution only — the model of
        // a task lost to a transient machine failure.
        let fails_left = AtomicUsize::new(1);
        let (out, stats) = rt.run_round(
            "flaky",
            &inputs,
            |i, &x| {
                if i == 3
                    && fails_left
                        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
                        .is_ok()
                {
                    panic!("transient partition failure");
                }
                x * 2
            },
            |_| 1,
            |_| 1,
        );
        assert_eq!(out, (0..8).map(|x| x * 2).collect::<Vec<_>>());
        assert_eq!(stats.retries, 1, "exactly the failed partition re-ran");
    }

    #[test]
    fn deterministic_reducer_bugs_still_surface() {
        let rt = MapReduceRuntime::with_threads(2);
        let inputs: Vec<u64> = (0..4).collect();
        let hits = std::sync::atomic::AtomicUsize::new(0);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.run_round(
                "buggy",
                &inputs,
                |i, &x| {
                    if i == 2 {
                        hits.fetch_add(1, Ordering::SeqCst);
                        panic!("deterministic bug");
                    }
                    x
                },
                |_| 1,
                |_| 0,
            )
        }))
        .expect_err("a permanent failure must propagate");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "deterministic bug", "the original payload re-raises");
        assert_eq!(
            hits.load(Ordering::SeqCst),
            MapReduceRuntime::MAX_ATTEMPTS,
            "the partition got every attempt before giving up"
        );
    }

    #[test]
    fn more_logical_reducers_than_threads() {
        let rt = MapReduceRuntime::with_threads(2);
        let inputs: Vec<u64> = (0..100).collect();
        let (out, _) = rt.run_round("test", &inputs, |_, &x| x * 2, |_| 1, |_| 0);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn a_single_worker_pass_runs_on_the_calling_thread() {
        let rt = MapReduceRuntime::with_threads(4);
        let caller = std::thread::current().id();
        let (out, _) = rt.run_round(
            "one",
            &[7u64],
            |_, &x| (x, std::thread::current().id()),
            |_| 1,
            |_| 1,
        );
        assert_eq!(out, vec![(7, caller)]);
    }

    #[test]
    fn empty_round() {
        let rt = MapReduceRuntime::with_threads(2);
        let inputs: Vec<u64> = vec![];
        let (out, stats) = rt.run_round("test", &inputs, |_, &x| x, |_| 1, |_| 1);
        assert!(out.is_empty());
        assert_eq!(stats.max_local_points, 0);
    }

    #[test]
    fn reducers_actually_run_in_parallel() {
        use std::sync::atomic::AtomicUsize;
        let rt = MapReduceRuntime::with_threads(4);
        let inputs: Vec<u64> = (0..4).collect();
        let concurrent = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        rt.run_round(
            "test",
            &inputs,
            |_, _| {
                let now = concurrent.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(30));
                concurrent.fetch_sub(1, Ordering::SeqCst);
            },
            |_| 1,
            |_| 0,
        );
        assert!(
            peak.load(Ordering::SeqCst) >= 2,
            "expected at least 2 concurrent reducers"
        );
    }

    #[test]
    fn stats_aggregate() {
        let mut stats = MrStats::default();
        stats.rounds.push(RoundStats {
            name: "a".into(),
            reducers: 2,
            max_local_points: 10,
            total_points: 15,
            emitted_points: 4,
            wall: Duration::from_millis(5),
            critical_path: Duration::from_millis(4),
            retries: 0,
        });
        stats.rounds.push(RoundStats {
            name: "b".into(),
            reducers: 1,
            max_local_points: 4,
            total_points: 4,
            emitted_points: 2,
            wall: Duration::from_millis(7),
            critical_path: Duration::from_millis(6),
            retries: 0,
        });
        assert_eq!(stats.num_rounds(), 2);
        assert_eq!(stats.max_local_points(), 10);
        assert_eq!(stats.total_wall(), Duration::from_millis(12));
        assert_eq!(stats.simulated_wall(), Duration::from_millis(10));
    }
}
