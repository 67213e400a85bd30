//! A tiny scoped-thread parallel helper — no vendored dependencies,
//! just `std::thread::scope`.
//!
//! The workspace's hot loops (GMM relax+argmax, core-set builders,
//! [`crate::DistanceMatrix::build`]) are embarrassingly parallel over
//! contiguous index ranges. This module provides the two things they
//! need: a thread-count policy and a fork-join runner. Anything
//! fancier (work stealing, persistent pools) would buy little for
//! loops this regular and would drag in dependencies the offline build
//! environment cannot satisfy.
//!
//! ## Thread-count policy
//!
//! [`num_threads`] honours the `DIVMAX_THREADS` environment variable
//! when set (and ≥ 1), else uses [`std::thread::available_parallelism`].
//! [`auto_threads`] additionally falls back to 1 below a work-size
//! threshold so small inputs keep their sequential fast path — fork
//! and barrier costs are microseconds, which dwarfs a relax pass over
//! a few thousand points.
//!
//! The simulated MapReduce runtime runs reducers on threads. A reducer
//! whose GMM takes the block path (`diversity_core::gmm`: 3-D or lower
//! `VecPoint`s under `Euclidean`, large parts, `k' ≥ 128`) does not
//! fork: that path runs single-threaded, as the runtime's threads
//! already fill the host. Any other reducer's GMM may fork again, and
//! that nesting costs little. On a 2-vCPU x86-64 host, a 2-round
//! remote-edge job over 1M 3-D points in 8 parts on 2 reducer threads
//! (k' = 256) took 2.0–3.6 s with `DIVMAX_THREADS=1` against 1.9–3.9 s
//! with [`auto_threads`], while its reducers ran the plain GMM loop on
//! the parts as split. Memory locality is what mattered: once the
//! round-1 reducers copied their part first, the job took about 0.9 s
//! with either setting. A reducer whose part holds many `Euclidean`
//! `VecPoint`s of dimension up to 4 does not copy it: GMM gathers the
//! coordinates into one flat buffer itself (`Metric::euclidean_rows`),
//! one read of each point instead of an allocation per point. There is
//! no need to pin `DIVMAX_THREADS=1` for MapReduce.

use std::sync::OnceLock;

/// Work-item threshold below which [`auto_threads`] stays sequential.
///
/// Chosen so the ~10µs/thread fork-join overhead is well under 10% of
/// the parallelized loop body (a relax pass at ~2ns/point).
pub const PAR_MIN_WORK: usize = 16_384;

fn configured_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        let default = std::thread::available_parallelism().map_or(1, |n| n.get());
        // Strict parse: garbage values are rejected loudly (once, via
        // the obs layer) instead of silently running at the default.
        diversity_obs::env::positive_usize("DIVMAX_THREADS", default)
    })
}

/// The thread budget: `DIVMAX_THREADS` if set to a valid positive
/// integer (invalid values warn once and are ignored), else the
/// machine's available parallelism (cached after the first call).
pub fn num_threads() -> usize {
    configured_threads()
}

/// The thread count to use for a loop over `work_items` elements: 1
/// below [`PAR_MIN_WORK`] (sequential fast path), else [`num_threads`],
/// and never more than one thread per work item.
pub fn auto_threads(work_items: usize) -> usize {
    if work_items < PAR_MIN_WORK {
        1
    } else {
        num_threads().min(work_items).max(1)
    }
}

/// Fork-join: runs every task on its own scoped thread and returns the
/// results in task order. With zero or one task, runs inline — callers
/// can build their task vectors unconditionally and let degenerate
/// cases skip the fork.
///
/// Panics in a task propagate to the caller (after all tasks joined),
/// matching the behaviour of the loop being parallelized.
pub fn run_tasks<R, F>(tasks: Vec<F>) -> Vec<R>
where
    R: Send,
    F: FnOnce() -> R + Send,
{
    if tasks.len() <= 1 {
        return tasks.into_iter().map(|t| t()).collect();
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = tasks.into_iter().map(|t| s.spawn(t)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel task panicked"))
            .collect()
    })
}

/// Splits `0..n` into at most `parts` contiguous ranges of near-equal
/// length (empty ranges elided). The building block for chunked
/// parallel loops that must stay *deterministic*: chunk boundaries
/// depend only on `(n, parts)`, never on scheduling.
pub fn split_ranges(n: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    if n == 0 || parts == 0 {
        return Vec::new();
    }
    let parts = parts.min(n);
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut lo = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        out.push(lo..lo + len);
        lo += len;
    }
    debug_assert_eq!(lo, n);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_covers_everything_in_order() {
        for n in [0usize, 1, 2, 7, 100, 1001] {
            for parts in [1usize, 2, 3, 8, 200] {
                let ranges = split_ranges(n, parts);
                let mut expect = 0;
                for r in &ranges {
                    assert_eq!(r.start, expect);
                    assert!(!r.is_empty());
                    expect = r.end;
                }
                assert_eq!(expect, n);
                assert!(ranges.len() <= parts.min(n.max(1)));
            }
        }
    }

    #[test]
    fn split_is_balanced() {
        let ranges = split_ranges(10, 3);
        let lens: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
        assert_eq!(lens, vec![4, 3, 3]);
    }

    #[test]
    fn run_tasks_preserves_order() {
        let tasks: Vec<_> = (0..8).map(|i| move || i * i).collect();
        assert_eq!(run_tasks(tasks), vec![0, 1, 4, 9, 16, 25, 36, 49]);
    }

    #[test]
    fn run_tasks_inline_for_singleton() {
        let tasks = vec![|| 42];
        assert_eq!(run_tasks(tasks), vec![42]);
    }

    #[test]
    fn auto_threads_sequential_below_threshold() {
        assert_eq!(auto_threads(PAR_MIN_WORK - 1), 1);
        assert!(auto_threads(PAR_MIN_WORK) >= 1);
    }
}
