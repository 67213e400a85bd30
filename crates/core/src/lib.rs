//! # diversity-core
//!
//! The primary contribution of *"MapReduce and Streaming Algorithms for
//! Diversity Maximization in Metric Spaces of Bounded Doubling
//! Dimension"* (Ceccarello, Pietracaprina, Pucci, Upfal — PVLDB 2017):
//! a single farthest-point-based core-set construction that yields
//! `(1+ε)`-(composable-)core-sets for **six** diversity objectives on
//! metric spaces of bounded doubling dimension, and the sequential
//! machinery around it.
//!
//! ## What lives here
//!
//! * [`Problem`] — the six objectives of Table 1 and their sequential
//!   approximation factors `α`;
//! * [`eval`] — objective evaluation, including exact/heuristic
//!   evaluators for the NP-hard-to-*evaluate* remote-bipartition and
//!   remote-cycle;
//! * [`mod@gmm`] — the Gonzalez farthest-point traversal with the anticover
//!   property (Fact 1), the kernel of every construction;
//! * [`coreset`] — `GMM`, `GMM-EXT` (Algorithm 1) and `GMM-GEN`
//!   composable core-set constructions (Theorems 4, 5, Lemma 8);
//! * [`generalized`] — generalized core-sets: expansion, coherent
//!   subsets, `δ`-instantiation (Lemma 7), multiset sequential
//!   algorithms (Fact 2);
//! * [`seq`] — the sequential `α`-approximation algorithms of Table 1;
//! * [`exact`] — brute-force `div_k` for validating guarantees on small
//!   instances;
//! * [`local_search`] — the AFZ-style swap local search (baseline +
//!   refinement);
//! * [`matroid`] — remote-clique under partition-matroid constraints
//!   (the Abbassi et al. generalization the paper cites);
//! * [`pipeline`] — the core-set → sequential-algorithm composition
//!   shared by the streaming and MapReduce front ends.
//!
//! ## Quick start
//!
//! ```
//! use diversity_core::{pipeline, Problem};
//! use metric::{Euclidean, VecPoint};
//!
//! let points: Vec<VecPoint> = (0..100)
//!     .map(|i| VecPoint::from([(i as f64 * 0.61803) % 7.0, (i as f64 * 0.41421) % 5.0]))
//!     .collect();
//! // Select k=8 diverse points through a k'=32 core-set.
//! let sol = pipeline::coreset_then_solve(Problem::RemoteEdge, &points, &Euclidean, 8, 32);
//! assert_eq!(sol.indices.len(), 8);
//! assert!(sol.value > 0.0);
//! ```

// The pairwise scans at the heart of these algorithms index several
// parallel arrays (availability flags, capacities, distance matrices)
// by the same loop variable; iterator rewrites would obscure them.
#![allow(clippy::needless_range_loop)]

pub mod coreset;
pub mod doubling;
pub mod eval;
/// The scoped-thread parallel helper the hot loops are chunked with
/// (re-exported from `metric::par`, which sits below every crate that
/// needs it). `DIVMAX_THREADS` caps the thread budget.
pub use metric::par;
pub mod exact;
pub mod generalized;
pub mod gmm;
pub mod local_search;
pub mod matroid;
pub mod pipeline;
mod problem;
pub mod seq;

pub use coreset::Coreset;
pub use generalized::{GenPair, GeneralizedCoreset};
pub use gmm::{gmm, gmm_default, GmmOutcome};
pub use problem::{Problem, Solution};
