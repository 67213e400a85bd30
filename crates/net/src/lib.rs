//! # diversity-net
//!
//! The **socket serving front** for the warm-path shard pool: a
//! hand-rolled, length-prefixed binary protocol over TCP that exposes
//! [`diversity_serve::ShardPool`] to remote clients — the layer that
//! turns the in-process serving pool into a network service.
//!
//! The pieces:
//!
//! * [`frame`] — the frame layer: `DM` magic + version + opcode +
//!   `u32` payload length, with typed [`ProtoError`]s for every way
//!   the bytes can be wrong (torn frames, hostile lengths, foreign
//!   magic) and never a panic.
//! * [`proto`] — the payload vocabulary: [`Status`] codes mapping
//!   [`diversity::DivError`]'s fault-tolerance variants (and the
//!   pool's degraded answers) onto one response byte, plus the
//!   Mutate/Stats request and reply types. Payload bodies use
//!   [`diversity::wire`], the same compact binary encoding the
//!   Checkpoint opcode ships pool snapshots in.
//! * [`server`] — [`Server`]: a thread-per-core accept loop with
//!   bounded-in-flight **admission control** (typed `Overloaded`
//!   rejections, not dropped connections) and **query coalescing**
//!   (identical queries against a quiescent pool — witnessed by the
//!   pool's mutation epoch — share one extraction). Each worker blocks
//!   in `accept()` and serves its connection inline until it closes,
//!   so a persistent connection holds its worker; the kernel's listen
//!   backlog bounds the connections waiting for one, and shutdown
//!   wakes the blocked workers with one connection each. A panicking
//!   handler costs its connection (an `Err` frame, `net.panics`), not
//!   its worker.
//! * [`client`] — [`NetClient`]: a blocking typed client that keeps
//!   one frame reader for the life of its connection. Every frame, in
//!   either direction, goes to the kernel as one vectored write.
//! * [`loadgen`] — the load-generator harness behind `divmax-loadgen`:
//!   exact p50/p99 latencies and QPS from merged per-connection
//!   samples.
//! * [`cli`] — entry points for the `divmax-serve` / `divmax-loadgen`
//!   binaries.
//!
//! ## Fault tolerance on the wire
//!
//! The serving pool's degraded-answer contract survives the network
//! hop: a query answered by a pool with quarantined shards returns
//! status [`Status::Degraded`] with the full
//! [`diversity::Report`] — including its
//! [`Degradation`](diversity::Degradation) block scoping the
//! certificate — not a connection drop. Backpressure is typed the same
//! way: admission-control rejections are [`Status::Overloaded`]
//! responses the client can retry against.

pub mod cli;
pub mod client;
pub mod frame;
pub mod loadgen;
pub mod proto;
pub mod server;

pub use client::{NetClient, NetError};
pub use frame::{Frame, FrameReader, Opcode, ProtoError, ReadOutcome};
pub use loadgen::{LoadgenConfig, LoadgenReport};
pub use proto::{MutateReply, MutateRequest, StatsReply, Status};
pub use server::{Server, ServerConfig, ServerStats, OBS_KEYS};
