//! # diversity-dynamic
//!
//! A **fully dynamic** coreset engine for the six diversity objectives:
//! arbitrary interleavings of `insert`, `delete`, and `solve`, with
//! per-update work bounded by the cover structure rather than the
//! dataset size.
//!
//! The paper this repository reproduces (Ceccarello–Pietracaprina–
//! Pucci–Upfal, PVLDB 2017) builds `(1+ε)`-coresets for insertion-only
//! streams. This crate extends the same doubling-dimension machinery to
//! deletions, following the approach of Pellizzoni, Pietracaprina &
//! Pucci, *"Fully dynamic clustering and diversity maximization in
//! doubling metrics"* (arXiv:2302.07771): maintain a hierarchy of cover
//! levels at distance scales `2^i` — a navigating-net / cover-tree —
//! such that at every scale the centers are a packing (pairwise
//! `> 2^i`) that covers everything below (`≤ 2^{i+1}` parent hops).
//! Under arbitrary insert/delete interleavings, each update touches
//! `O(c^{O(1)} · log Δ)` nodes (`c` the doubling constant, `Δ` the
//! aspect ratio), never the whole dataset.
//!
//! ## Extracting a coreset
//!
//! `solve(problem, k)` walks the level counts from coarse to fine and
//! selects the finest level whose center count fits the kernel budget
//! `k'`; those centers cover every alive point within `2^{i+1}`, which
//! is exactly the proxy-function argument of the paper's Lemmas 1–2.
//! With `k' = (c/ε)^D·k` the extracted set is a `(1+ε)`-coreset for all
//! six objectives; for the four "injective-proxy" objectives the kernel
//! is augmented with up to `k` delegates per center, harvested from the
//! center's subtree — the cap-at-`k` bookkeeping of `SMM-EXT`'s
//! [`diversity_core::doubling::DelegateSet`], applied to cover subtrees.
//! The sequential `α`-approximations from [`diversity_core::seq`] then
//! run on the coreset.
//!
//! ## Quick start
//!
//! ```
//! use diversity_dynamic::DynamicDiversity;
//! use diversity_core::Problem;
//! use metric::{Euclidean, VecPoint};
//!
//! let mut engine = DynamicDiversity::new(Euclidean);
//! let ids: Vec<_> = (0..100)
//!     .map(|i| engine.insert(VecPoint::from([(i % 10) as f64, (i / 10) as f64])))
//!     .collect();
//! // Expire the first half, as a sliding window would.
//! for id in &ids[..50] {
//!     engine.delete(*id);
//! }
//! let sol = engine.solve_with_budget(Problem::RemoteEdge, 4, 32);
//! assert_eq!(sol.ids.len(), 4);
//! assert!(sol.value > 0.0);
//! ```

pub mod config;
pub mod cover;
pub mod engine;
pub mod node;
pub mod solve;
pub mod stats;

pub use config::DynamicConfig;
pub use engine::{DynamicDiversity, PointId};
pub use solve::{CoresetInfo, DynamicSolution};
pub use stats::UpdateStats;

// The composition vocabulary the engine's extraction speaks (see
// `DynamicDiversity::extract_coreset`), re-exported for callers that
// shard engines and merge their artifacts.
pub use diversity_core::coreset::{Coreset, CoresetSource};
