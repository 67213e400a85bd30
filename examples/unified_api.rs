//! The unified front door end to end: one serde-able `Task` job spec,
//! four execution substrates (the fourth a one-shard serving pool),
//! one `Report` shape, typed errors.
//!
//! Run with: `cargo run --release --example unified_api`

use diversity::prelude::*;
use diversity_serve::{Serve, ShardPool};

fn main() -> Result<(), DivError> {
    let k = 6;
    let (points, _) = datasets::sphere_shell(30_000, k, 3, 1234);

    // A task is a job description. `Budget::Auto` estimates the data's
    // doubling dimension from a sample and sizes the kernel from it,
    // capped at 32k (the paper finds small multiples of k excellent).
    let task = Task::new(Problem::RemoteClique, k).budget(Budget::Auto {
        eps: 0.5,
        cap: None,
    });

    // Tasks are wire-format job specs: what a serving layer would
    // accept over HTTP and hand to a scheduler.
    let spec = serde_json::to_string(&task).expect("tasks serialize");
    println!("job spec: {spec}");
    let task: Task = serde_json::from_str(&spec).expect("round-trips");

    // --- the same task on all four substrates -------------------------
    let seq = task.run_seq(&points, &Euclidean)?;

    let stream = task.run_stream(points.iter().cloned(), &Euclidean)?;

    let parts = mapreduce::partition::split_random(points.clone(), 8, 7);
    let rt = mapreduce::MapReduceRuntime::with_threads(8);
    let mr = task.run_mapreduce(&parts, &Euclidean, &rt, Strategy::TwoRound)?;

    // A fully dynamic set: a one-shard pool absorbs inserts (and
    // deletes) and answers the same task from its maintained state.
    let pool: ShardPool<VecPoint, _> = task.serve(Euclidean, 1)?;
    pool.extend(points.iter().cloned())?;
    let warm = pool.query(&task)?;

    println!(
        "\n{:<12} {:>12} {:>8} {:>10} {:>10}",
        "backend", "value", "k'", "core-set", "time"
    );
    for report in [&seq, &stream, &mr, &warm] {
        println!(
            "{:<12} {:>12.4} {:>8} {:>10} {:>9.1}ms",
            format!("{:?}", report.backend),
            report.value,
            report.k_prime,
            report.coreset_size,
            report.total_secs() * 1e3
        );
    }

    // --- accuracy budgets carry certificates --------------------------
    // `Budget::Eps` sizes the kernel purely from the theory (Theorems
    // 4-5; constants are pessimistic, hence the small instance) and
    // attaches the (alpha + eps) guarantee to the report.
    let (small, _) = datasets::sphere_shell(2_000, k, 2, 99);
    let certified = Task::new(Problem::RemoteClique, k)
        .budget(Budget::Eps { eps: 1.0, dim: 2 })
        .run_seq(&small, &Euclidean)?;
    let cert = certified.certificate.expect("Eps budget certifies");
    println!(
        "\ncertified run: value {:.4} with k' = {} — on doubling-dimension <= 2 \
         inputs, value >= OPT / {:.1} (alpha = {}, eps = {})",
        certified.value, certified.k_prime, cert.factor, cert.alpha, cert.eps
    );

    // --- typed errors instead of panics -------------------------------
    // The low-level free functions panic on degenerate input (their
    // documented harness contract); the front door returns DivError.
    let empty: Vec<VecPoint> = Vec::new();
    match task.run_seq(&empty, &Euclidean) {
        Err(DivError::EmptyInput) => println!("\nempty input    -> DivError::EmptyInput"),
        other => unreachable!("{other:?}"),
    }
    match Task::new(Problem::RemoteClique, 5)
        .budget(Budget::KPrime(3))
        .run_seq(&points, &Euclidean)
    {
        Err(e @ DivError::BudgetTooSmall { .. }) => println!("k' = 3 < k = 5 -> {e}"),
        other => unreachable!("{other:?}"),
    }
    match Task::new(Problem::RemoteEdge, k).run_mapreduce(
        &parts,
        &Euclidean,
        &rt,
        Strategy::ThreeRound,
    ) {
        Err(e @ DivError::UnsupportedStrategy { .. }) => println!("3-round r-edge -> {e}"),
        other => unreachable!("{other:?}"),
    }
    Ok(())
}
