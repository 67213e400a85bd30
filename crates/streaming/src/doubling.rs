//! The doubling-algorithm phase machinery shared by SMM, SMM-EXT and
//! SMM-GEN.
//!
//! The machinery itself lives in [`diversity_core::doubling`]; this
//! module re-exports it under the streaming crate's historical path.

pub use diversity_core::doubling::{
    Center, DelegateCount, DelegateSet, DoublingCore, FinishedCore, Payload,
};
