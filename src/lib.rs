//! Workspace umbrella for the diversity-maximization stack.
//!
//! This crate exists to anchor the repository-level integration tests
//! (`tests/`) and runnable examples (`examples/`); the library surface
//! simply re-exports the facade crate.

pub use diversity;
pub use metric;
