//! Dimension-sweep ablation of the high-dimensional fast path: scalar
//! vs runtime-dispatched SIMD kernels, row-major vs column-major
//! layout, plain GMM, and the end-to-end JL-projected pipeline — at
//! `d ∈ {3, 128, 768}`.
//!
//! The kernel story is dimension-dependent: at `d = 3` the
//! monomorphized fixed-`D` scalar kernels already saturate the memory
//! bus and SIMD is deliberately not dispatched; from `d = 128` up, the
//! across-points SIMD lanes and the projection stage are where the
//! time goes. This bench records the crossover into `BENCH_dims.json`
//! (workspace root). Scale with `DIVMAX_SCALE`, repetitions with
//! `DIVMAX_TRIALS`; `DIVMAX_SIMD=off` forces every row to the scalar
//! path (the forced-`force_mode` comparisons here override it on
//! purpose — that is what they measure).

use diversity::prelude::*;
use diversity_bench::{scaled, timed, trials, Table};
use diversity_core::gmm::gmm_with_threads;
use metric::simd::{self, SimdMode};
use metric::{DenseStoreColMajor, Metric};

/// Steady-state fused relax+argmax rounds, ns/point.
fn time_relax<P, M: Metric<P>>(
    metric: &M,
    center: &P,
    points: &[P],
    dists: &mut [f64],
    assignment: &mut [usize],
    reps: usize,
) -> f64 {
    let (_, secs) = timed(|| {
        for _ in 0..reps {
            std::hint::black_box(metric.relax(center, points, dists, assignment, 1));
        }
    });
    secs * 1e9 / (reps * points.len()) as f64
}

struct DimRow {
    dim: usize,
    n: usize,
    relax_scalar: f64,
    relax_simd: f64,
    relax_col: f64,
    gmm_secs: f64,
    seq_secs: f64,
    proj_secs: f64,
    proj_dim: usize,
    value_ratio: f64,
    certifies: Option<bool>,
}

fn main() {
    let k = 32usize;
    let eps = 0.5f64;
    let seed = 7u64;
    let trials = trials();
    let dispatch = simd::dispatch_label();
    println!("ablation_dims: k={k}, eps={eps}, dispatch={dispatch}, trials={trials}");
    fn min_of(trials: usize, mut f: impl FnMut() -> f64) -> f64 {
        (0..trials).map(|_| f()).fold(f64::INFINITY, f64::min)
    }

    let mut results: Vec<DimRow> = Vec::new();
    // High-dim working sets are sized to stay cache-resident (~2 MB at
    // d = 128) so the relax cells measure kernel throughput rather
    // than DRAM bandwidth; past L2 both paths converge on the memory
    // bus and the comparison says nothing about the kernels.
    for &(dim, base_n) in &[(3usize, 40_000usize), (128, 2_000), (768, 2_000)] {
        let n = scaled(base_n).max(k * 4);
        let store = if dim <= 4 {
            datasets::sphere_shell_dense(n, k, dim, seed).0
        } else {
            datasets::embedding_clusters_dense(n, 16, dim, 0.02, seed)
        };
        let rows = store.rows();
        let col = DenseStoreColMajor::from_store(&store);
        let crows = col.rows();
        // reps sized so every cell streams a comparable op count.
        let reps = (60_000_000 / (n * dim)).max(2);

        // ---- steady-state relax: scalar vs SIMD vs column-major ----
        let warm = gmm_with_threads(&rows, &Euclidean, 8, 0, 1);
        let center = DenseRow::new(store.row(warm.selected[7]));
        let ccenter = crows[warm.selected[7]];
        let measure = |mode: Option<SimdMode>, col_major: bool| -> f64 {
            simd::force_mode(mode);
            let mut d = warm.dist_to_centers.clone();
            let mut a = warm.assignment.clone();
            let ns = if col_major {
                time_relax(&Euclidean, &ccenter, &crows, &mut d, &mut a, reps)
            } else {
                time_relax(&Euclidean, &center, &rows, &mut d, &mut a, reps)
            };
            simd::force_mode(None);
            ns
        };
        // Interleave the variants within each trial round so clock
        // drift (turbo decay on a shared vCPU) hits all three equally
        // instead of penalizing whichever runs last.
        let (mut relax_scalar, mut relax_simd, mut relax_col) =
            (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for _ in 0..trials {
            relax_scalar = relax_scalar.min(measure(Some(SimdMode::Off), false));
            relax_simd = relax_simd.min(measure(Some(SimdMode::On), false));
            relax_col = relax_col.min(measure(Some(SimdMode::On), true));
        }

        // ---- GMM ----
        let gmm_secs = min_of(trials, || {
            timed(|| gmm_with_threads(&rows, &Euclidean, k, 0, 1)).1
        });

        // ---- end-to-end: plain sequential vs JL-projected ----
        let task = Task::new(Problem::RemoteEdge, k)
            .budget(Budget::Eps { eps: 0.4, dim: 1 })
            .threads(1);
        let (baseline, seq_secs) = timed(|| task.run_seq(&rows, &Euclidean).unwrap());
        let projected_task = task.clone().project(eps, seed);
        let (projected, proj_secs) = timed(|| projected_task.run_projected(&store).unwrap());
        let target = JlProjection::target_dim(k, eps);
        let proj_dim = target.min(dim);
        // Any feasible solution's value lower-bounds OPT, so the
        // baseline value is a ground-truth bound the widened
        // certificate must still cover on the unprojected points.
        let certifies = projected.certifies(baseline.value);
        assert_ne!(certifies, Some(false), "widened certificate failed");
        let value_ratio = projected.value / baseline.value;

        results.push(DimRow {
            dim,
            n,
            relax_scalar,
            relax_simd,
            relax_col,
            gmm_secs,
            seq_secs,
            proj_secs,
            proj_dim,
            value_ratio,
            certifies,
        });
    }

    // ---- report ----
    let mut t = Table::new(
        &format!("relax kernel ns/point by dimension (dispatch: {dispatch})"),
        &["d", "n", "scalar", "simd", "simd colmajor", "simd speedup"],
    );
    for r in &results {
        t.row(vec![
            r.dim.to_string(),
            r.n.to_string(),
            format!("{:.2}", r.relax_scalar),
            format!("{:.2}", r.relax_simd),
            format!("{:.2}", r.relax_col),
            format!("{:.2}x", r.relax_scalar / r.relax_simd),
        ]);
    }
    t.print();

    let mut t2 = Table::new(
        "GMM and projected end-to-end",
        &[
            "d",
            "gmm",
            "seq e2e",
            "projected e2e",
            "proj d",
            "value ratio",
        ],
    );
    for r in &results {
        t2.row(vec![
            r.dim.to_string(),
            format!("{:.3}s", r.gmm_secs),
            format!("{:.3}s", r.seq_secs),
            format!("{:.3}s", r.proj_secs),
            r.proj_dim.to_string(),
            format!("{:.4}", r.value_ratio),
        ]);
    }
    t2.print();

    // ---- machine-readable trajectory point ----
    let mut dims_json = String::new();
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            dims_json.push_str(",\n");
        }
        dims_json.push_str(&format!(
            concat!(
                "    {{\n",
                "      \"dim\": {}, \"n\": {},\n",
                "      \"relax_ns_per_point\": {{ \"scalar\": {:.3}, \"simd\": {:.3}, \"simd_colmajor\": {:.3} }},\n",
                "      \"simd_relax_speedup\": {:.3},\n",
                "      \"gmm_seconds\": {{ \"plain\": {:.6} }},\n",
                "      \"e2e_seconds\": {{ \"seq\": {:.6}, \"projected\": {:.6} }},\n",
                "      \"projected_dim\": {},\n",
                "      \"projected_value_ratio\": {:.6},\n",
                "      \"certificate_covers_baseline\": {}\n",
                "    }}"
            ),
            r.dim,
            r.n,
            r.relax_scalar,
            r.relax_simd,
            r.relax_col,
            r.relax_scalar / r.relax_simd,
            r.gmm_secs,
            r.seq_secs,
            r.proj_secs,
            r.proj_dim,
            r.value_ratio,
            match r.certifies {
                Some(true) => "true",
                Some(false) => "false",
                None => "null",
            },
        ));
    }
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"ablation_dims\",\n",
            "  \"k\": {}, \"jl_eps\": {}, \"dispatch\": \"{}\",\n",
            "  \"dims\": [\n{}\n  ]\n",
            "}}\n"
        ),
        k, eps, dispatch, dims_json
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_dims.json");
    std::fs::write(&path, json).expect("write BENCH_dims.json");
    println!("\nwrote {}", path.display());
}
