//! # diversity
//!
//! Facade crate for the diversity-maximization stack — a Rust
//! implementation of *"MapReduce and Streaming Algorithms for Diversity
//! Maximization in Metric Spaces of Bounded Doubling Dimension"*
//! (Ceccarello, Pietracaprina, Pucci, Upfal — PVLDB 2017). The
//! `diversity-serve` crate adds the fourth substrate on top of this
//! one: a pool whose shards keep round 1 of the 2-round algorithm
//! current under inserts and deletes.
//!
//! ## The front door: [`Task`]
//!
//! The paper's central message is compositional: one core-set
//! construction feeds one sequential solver, and only the execution
//! substrate changes. [`Task`] says exactly that in code — describe
//! *what* to optimize once, then run it on any substrate; every entry
//! point validates upfront (no panics — typed [`DivError`]s) and
//! returns the same [`Report`] shape:
//!
//! ```
//! use diversity::prelude::*;
//!
//! // 1000 points: 8 planted on the unit sphere, the rest in a ball.
//! let (points, _) = datasets::sphere_shell(1000, 8, 3, 42);
//!
//! // What to optimize: remote-edge, k = 8, kernel budget k' = 32.
//! let task = Task::new(Problem::RemoteEdge, 8).budget(Budget::KPrime(32));
//!
//! // Streaming: one pass, memory independent of n.
//! let stream = task.run_stream(points.iter().cloned(), &Euclidean)?;
//!
//! // MapReduce: 2 rounds over 4 simulated reducers — same task.
//! let parts = mapreduce::partition::split_random(points.clone(), 4, 7);
//! let rt = mapreduce::MapReduceRuntime::with_threads(4);
//! let mr = task.run_mapreduce(&parts, &Euclidean, &rt, Strategy::TwoRound)?;
//!
//! // One report shape everywhere: indices, owned points, value, timings.
//! for report in [&stream, &mr] {
//!     assert_eq!(report.len(), 8);
//!     assert!(report.value > 0.0);
//! }
//! # Ok::<(), diversity::DivError>(())
//! ```
//!
//! [`Task`] and [`Budget`] are `Serialize`/`Deserialize`, so a serving
//! layer can accept them as wire-format job specs; [`Budget::Eps`]
//! sizes the kernel from an accuracy target and attaches the
//! theory-side `(α + ε)` [`Certificate`] to the report.
//!
//! ## The low-level layer
//!
//! The per-crate free functions remain the stable low-level layer —
//! raw `(k, k')` parameters, documented panics, maximal control for
//! experiment harnesses (e.g. `pipeline::coreset_then_solve`,
//! `streaming::pipeline::one_pass`, `mapreduce::two_round::two_round`):
//!
//! * [`metric`] — metric spaces (points, batched distance kernels,
//!   doubling-dimension tools);
//! * [`core`] — the six diversity objectives, GMM/GMM-EXT/GMM-GEN
//!   core-sets, generalized core-sets, sequential algorithms;
//! * [`streaming`] — 1-pass (SMM / SMM-EXT) and 2-pass (SMM-GEN)
//!   streaming algorithms;
//! * [`mapreduce`] — the simulated MapReduce runtime and the 2-round /
//!   randomized / 3-round / recursive algorithms;
//! * [`datasets`] — the paper's workload generators;
//! * [`baselines`] — the AFZ and IMMM comparators.

pub use diversity_baselines as baselines;
pub use diversity_core as core;
pub use diversity_datasets as datasets;
pub use diversity_mapreduce as mapreduce;
pub use diversity_obs as obs;
pub use diversity_streaming as streaming;
pub use metric;

mod error;
mod report;
mod task;
pub mod wire;

pub use error::DivError;
pub use report::{Backend, Certificate, Degradation, Report, StageMemory, StageTiming};
pub use task::{Budget, Projection, Strategy, Task};

/// The commonly needed names in one import.
pub mod prelude {
    pub use crate::{baselines, datasets, mapreduce, streaming};
    pub use crate::{
        Backend, Budget, Certificate, Degradation, DivError, Projection, Report, StageMemory,
        StageTiming, Strategy, Task,
    };
    pub use diversity_core::{
        eval, exact, pipeline, seq, Coreset, GenPair, GeneralizedCoreset, Problem, Solution,
    };
    pub use metric::{
        ColRow, CosineDistance, DenseRow, DenseStore, DenseStoreColMajor, DistanceMatrix,
        Euclidean, Jaccard, JlKind, JlProjection, Manhattan, Metric, SparseVector, VecPoint,
    };
}
