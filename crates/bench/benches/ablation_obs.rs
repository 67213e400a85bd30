//! Ablation: what observability costs — and what it buys.
//!
//! The `diversity-obs` contract is *zero cost when disabled*: every
//! instrumented hot path guards its reporting behind one relaxed
//! atomic load, so a process that never installs a recorder pays
//! nothing measurable. This bench records both modes for the three
//! hot paths the issue pins:
//!
//! * **GMM relax** — `gmm_with_threads` over a dense store (the
//!   `O(n·k)` kernel loop every backend bottoms out in);
//! * **pool insert** — `ShardPool::insert` on a one-shard pool whose
//!   prefix an extraction has grown to `k' = 64`: each insert measures
//!   its distances to the centers, or resumes the traversal when it
//!   would have been picked (the update the serving pool pays);
//! * **warm query** — `ShardPool::query`, extraction + merge + solve.
//!
//! With the recorder installed, the same runs also produce a
//! [`Snapshot`](diversity_obs::Snapshot), and the headline quantiles
//! (insert p50/p99, warm-query p50/p99) come out of its histograms —
//! the numbers a serving deployment would alert on. Each timed insert
//! runs inside a `bench.pool_insert_ns` span, in both modes.
//!
//! Writes `BENCH_obs.json` at the workspace root with both modes'
//! timings and the enabled-mode quantiles. Overhead numbers are
//! min-over-trials; treat small deltas as noise (CI only smoke-checks
//! that the disabled mode is within a generous factor of enabled —
//! the real claim, "disabled is one atomic per batch", is structural).

use diversity::prelude::*;
use diversity_bench::{fmt_secs, scaled, timed, trials, Table};
use diversity_core::gmm::gmm_with_threads;
use diversity_datasets::{gaussian_clusters, sphere_shell_dense};
use diversity_obs::Registry;
use diversity_serve::{Serve, ShardPool};
use std::sync::Arc;

struct Modes {
    disabled: f64,
    enabled: f64,
}

impl Modes {
    fn overhead(&self) -> f64 {
        self.enabled / self.disabled.max(1e-12)
    }
}

fn min_over(trials: usize, mut f: impl FnMut() -> f64) -> f64 {
    (0..trials).map(|_| f()).fold(f64::INFINITY, f64::min)
}

fn main() {
    let n = scaled(60_000);
    let k = 64usize;
    let trials = trials();
    assert!(
        diversity_obs::snapshot().is_none(),
        "bench must start with no recorder installed"
    );
    println!("ablation_obs: n={n}, k={k}, trials={trials}");

    let (store, _) = sphere_shell_dense(n, k, 3, 11);
    let rows = store.rows();
    let pool_points = gaussian_clusters(n / 4, 16, 3, 30.0, 99);
    let insert_points = &pool_points[..(n / 8).max(1)];

    // One measurement closure per hot path; each runs identically in
    // both modes, so the only variable is whether a recorder is live.
    let gmm_secs = |rows: &[metric::DenseRow<'_>]| {
        min_over(trials, || {
            timed(|| std::hint::black_box(gmm_with_threads(rows, &Euclidean, k, 0, 1))).1
        })
    };
    let k_prime = 64;
    let task = Task::new(Problem::RemoteEdge, 8).budget(Budget::KPrime(k_prime));
    let insert_secs = |points: &[VecPoint]| {
        let (seed, arrivals) = points.split_at(points.len() / 2);
        min_over(trials, || {
            let pool: ShardPool<VecPoint, Euclidean> = task.serve(Euclidean, 1).unwrap();
            pool.extend(seed.iter().cloned()).expect("seed pool");
            // Grow the prefix to k' outside the warm-query histogram.
            pool.coreset(task.problem(), task.k(), k_prime);
            timed(|| {
                for p in arrivals {
                    let _span = diversity_obs::span("bench.pool_insert_ns");
                    pool.insert(p.clone()).expect("insert");
                }
                std::hint::black_box(pool.len())
            })
            .1
        })
    };
    let make_pool = |points: &[VecPoint]| -> ShardPool<VecPoint, Euclidean> {
        let pool = task.serve(Euclidean, 4).unwrap();
        pool.extend(points.iter().cloned()).expect("seed pool");
        pool
    };
    let query_secs = |pool: &ShardPool<VecPoint, Euclidean>| {
        min_over(trials, || timed(|| pool.query(&task).unwrap()).1)
    };

    // ---- Mode 1: no recorder (the default every library user gets).
    let gmm = Modes {
        disabled: gmm_secs(&rows),
        enabled: 0.0,
    };
    let insert = Modes {
        disabled: insert_secs(insert_points),
        enabled: 0.0,
    };
    let pool = make_pool(&pool_points);
    let query = Modes {
        disabled: query_secs(&pool),
        enabled: 0.0,
    };
    drop(pool);

    // ---- Mode 2: recorder installed, same work.
    let registry = Arc::new(Registry::new());
    diversity_obs::install(registry.clone());
    let gmm = Modes {
        enabled: gmm_secs(&rows),
        ..gmm
    };
    let insert = Modes {
        enabled: insert_secs(insert_points),
        ..insert
    };
    let pool = make_pool(&pool_points);
    let query = Modes {
        enabled: query_secs(&pool),
        ..query
    };
    let snap = registry.snapshot_now();
    diversity_obs::uninstall();

    // The snapshot must actually have seen the instrumented paths.
    assert!(snap.counter("gmm.runs").unwrap_or(0) >= trials as u64);
    let insert_hist = snap.histogram("bench.pool_insert_ns").expect("insert hist");
    let query_hist = snap.histogram("serve.query.e2e_ns").expect("query hist");
    let occupancy = snap.gauge_prefix_sum(&pool.gauge_prefix());
    assert_eq!(
        occupancy,
        pool.len() as i64,
        "per-shard occupancy gauges must sum to the live point count"
    );

    let mut table = Table::new(
        "observability overhead (min over trials; ~1.0x = noise)",
        &[
            "hot path",
            "obs disabled",
            "obs enabled",
            "enabled/disabled",
        ],
    );
    for (name, m) in [
        (format!("gmm relax n={n} k={k}"), &gmm),
        (
            format!("1-shard pool insert x{}", insert_points.len().div_ceil(2)),
            &insert,
        ),
        (format!("warm query ({} pts, 4 shards)", pool.len()), &query),
    ] {
        table.row(vec![
            name,
            fmt_secs(m.disabled),
            fmt_secs(m.enabled),
            format!("{:.2}x", m.overhead()),
        ]);
    }
    table.print();
    println!(
        "\nenabled-mode quantiles: insert p50={}ns p99={}ns; warm query p50={}ns p99={}ns",
        insert_hist.p50(),
        insert_hist.p99(),
        query_hist.p50(),
        query_hist.p99()
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"obs\",\n",
            "  \"n\": {n},\n  \"k\": {k},\n  \"trials\": {trials},\n",
            "  \"gmm_relax_seconds\": {{ \"disabled\": {gd:.6}, \"enabled\": {ge:.6}, \"overhead\": {go:.3} }},\n",
            "  \"pool_insert_seconds\": {{ \"disabled\": {id:.6}, \"enabled\": {ie:.6}, \"overhead\": {io:.3} }},\n",
            "  \"warm_query_seconds\": {{ \"disabled\": {qd:.6}, \"enabled\": {qe:.6}, \"overhead\": {qo:.3} }},\n",
            "  \"enabled_quantiles_ns\": {{\n",
            "    \"pool_insert_p50\": {ip50},\n",
            "    \"pool_insert_p99\": {ip99},\n",
            "    \"warm_query_p50\": {qp50},\n",
            "    \"warm_query_p99\": {qp99}\n",
            "  }}\n",
            "}}\n"
        ),
        n = n,
        k = k,
        trials = trials,
        gd = gmm.disabled,
        ge = gmm.enabled,
        go = gmm.overhead(),
        id = insert.disabled,
        ie = insert.enabled,
        io = insert.overhead(),
        qd = query.disabled,
        qe = query.enabled,
        qo = query.overhead(),
        ip50 = insert_hist.p50(),
        ip99 = insert_hist.p99(),
        qp50 = query_hist.p50(),
        qp99 = query_hist.p99(),
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_obs.json");
    std::fs::write(&path, json).expect("write BENCH_obs.json");
    println!("wrote {}", path.display());
}
