//! Request/response payload types and the status-code vocabulary.
//!
//! Every response payload starts with one **status byte** followed by
//! a status-dependent body, all in [`diversity::wire`] binary
//! encoding:
//!
//! | status | meaning | body |
//! |---|---|---|
//! | 0 `Ok` | full-fidelity answer | the opcode's reply type |
//! | 1 `Degraded` | answer scoped to surviving shards | `Report` (with its `Degradation` block) |
//! | 2 `InvalidTask` | request was well-formed but semantically rejected | `DivError` |
//! | 3 `ShardUnavailable` | a quarantined shard blocked the operation | `DivError` |
//! | 4 `PoolUnavailable` | too few healthy shards to answer at all | `DivError` |
//! | 5 `TransientFailure` | retries exhausted at an injection site | `DivError` |
//! | 6 `CorruptState` | checkpointed state failed validation | `DivError` |
//! | 7 `Overloaded` | admission control rejected the request | `String` |
//! | 8 `ProtocolError` | the request frame/payload was unreadable | `String` |
//! | 9 `ShuttingDown` | server is draining | `String` |
//!
//! Statuses 2–6 are the wire projection of [`DivError`]: the four
//! fault-tolerance variants get their own codes (a load balancer can
//! react to backpressure without decoding Rust types), everything else
//! collapses to `InvalidTask` with the full typed error in the body.

use diversity::wire::{BinRead, BinReader, BinWrite, WireError};
use diversity::DivError;

/// Response status byte. See the module docs for the body each status
/// carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// Full-fidelity success.
    Ok = 0,
    /// Success scoped to the surviving shards; the `Report` body
    /// carries the `Degradation` block.
    Degraded = 1,
    /// A semantic rejection (any `DivError` without a dedicated code).
    InvalidTask = 2,
    /// [`DivError::ShardUnavailable`].
    ShardUnavailable = 3,
    /// [`DivError::PoolUnavailable`].
    PoolUnavailable = 4,
    /// [`DivError::TransientFailure`].
    TransientFailure = 5,
    /// [`DivError::CorruptState`].
    CorruptState = 6,
    /// Rejected by admission control: too many requests in flight.
    Overloaded = 7,
    /// The request itself was unreadable (bad frame or payload).
    ProtocolError = 8,
    /// The server is draining connections after a Shutdown request.
    ShuttingDown = 9,
}

impl Status {
    /// Decodes a status byte.
    pub fn from_u8(byte: u8) -> Option<Status> {
        match byte {
            0 => Some(Status::Ok),
            1 => Some(Status::Degraded),
            2 => Some(Status::InvalidTask),
            3 => Some(Status::ShardUnavailable),
            4 => Some(Status::PoolUnavailable),
            5 => Some(Status::TransientFailure),
            6 => Some(Status::CorruptState),
            7 => Some(Status::Overloaded),
            8 => Some(Status::ProtocolError),
            9 => Some(Status::ShuttingDown),
            _ => None,
        }
    }

    /// True for the two success statuses (`Ok`, `Degraded`).
    pub fn is_success(self) -> bool {
        matches!(self, Status::Ok | Status::Degraded)
    }
}

/// The wire projection of a [`DivError`]: the fault-tolerance variants
/// keep dedicated status codes so clients and load balancers can react
/// to backpressure without decoding the body.
pub fn status_for(err: &DivError) -> Status {
    match err {
        DivError::ShardUnavailable { .. } => Status::ShardUnavailable,
        DivError::PoolUnavailable { .. } => Status::PoolUnavailable,
        DivError::TransientFailure { .. } => Status::TransientFailure,
        DivError::CorruptState { .. } => Status::CorruptState,
        _ => Status::InvalidTask,
    }
}

/// A Mutate-opcode request body.
#[derive(Clone, Debug, PartialEq)]
pub enum MutateRequest<P> {
    /// Route a point into the pool.
    Insert(P),
    /// Delete by encoded [`ShardedId`](diversity_serve::ShardedId).
    Delete(u64),
}

impl<P: BinWrite> BinWrite for MutateRequest<P> {
    fn write_bin(&self, out: &mut Vec<u8>) {
        match self {
            MutateRequest::Insert(p) => {
                out.push(0);
                p.write_bin(out);
            }
            MutateRequest::Delete(id) => {
                out.push(1);
                id.write_bin(out);
            }
        }
    }
}

impl<P: BinRead> BinRead for MutateRequest<P> {
    fn read_bin(r: &mut BinReader<'_>) -> Result<Self, WireError> {
        let offset = r.pos();
        match r.read_u8()? {
            0 => Ok(MutateRequest::Insert(BinRead::read_bin(r)?)),
            1 => Ok(MutateRequest::Delete(BinRead::read_bin(r)?)),
            tag => Err(WireError::BadTag {
                what: "MutateRequest",
                tag,
                offset,
            }),
        }
    }
}

/// A Mutate-opcode success body.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MutateReply {
    /// The encoded [`ShardedId`](diversity_serve::ShardedId) the
    /// insert landed on.
    Inserted(u64),
    /// Whether the delete found a live point.
    Deleted(bool),
}

impl BinWrite for MutateReply {
    fn write_bin(&self, out: &mut Vec<u8>) {
        match self {
            MutateReply::Inserted(id) => {
                out.push(0);
                id.write_bin(out);
            }
            MutateReply::Deleted(hit) => {
                out.push(1);
                hit.write_bin(out);
            }
        }
    }
}

impl BinRead for MutateReply {
    fn read_bin(r: &mut BinReader<'_>) -> Result<Self, WireError> {
        let offset = r.pos();
        match r.read_u8()? {
            0 => Ok(MutateReply::Inserted(BinRead::read_bin(r)?)),
            1 => Ok(MutateReply::Deleted(BinRead::read_bin(r)?)),
            tag => Err(WireError::BadTag {
                what: "MutateReply",
                tag,
                offset,
            }),
        }
    }
}

/// A Stats-opcode success body: the server's own counters plus a
/// summary of pool health, all captured atomically enough for a
/// monitoring poll.
#[derive(Clone, Debug, PartialEq)]
pub struct StatsReply {
    /// Connections accepted since start.
    pub accepted: u64,
    /// Query requests handled (including coalesced followers).
    pub queries: u64,
    /// Mutate requests handled.
    pub mutates: u64,
    /// Query requests answered from another request's extraction.
    pub coalesced: u64,
    /// Requests rejected by admission control.
    pub rejected: u64,
    /// Frames that failed protocol validation.
    pub protocol_errors: u64,
    /// The pool's current mutation epoch.
    pub epoch: u64,
    /// Healthy shards right now.
    pub healthy_shards: u64,
    /// Total shards.
    pub total_shards: u64,
    /// Router occupancy skew (max/mean; 1.0 is perfectly balanced).
    pub skew: f64,
    /// Per-shard live-point counts.
    pub occupancies: Vec<u64>,
    /// Committed rebalances over the pool's lifetime. Appended after
    /// `occupancies` — wire field order is contract.
    pub rebalances: u64,
    /// Skew the most recent rebalance started from (`0.0` before the
    /// first rebalance).
    pub rebalance_skew_before: f64,
    /// Skew the most recent rebalance ended at (`0.0` before the
    /// first rebalance).
    pub rebalance_skew_after: f64,
}

impl BinWrite for StatsReply {
    fn write_bin(&self, out: &mut Vec<u8>) {
        self.accepted.write_bin(out);
        self.queries.write_bin(out);
        self.mutates.write_bin(out);
        self.coalesced.write_bin(out);
        self.rejected.write_bin(out);
        self.protocol_errors.write_bin(out);
        self.epoch.write_bin(out);
        self.healthy_shards.write_bin(out);
        self.total_shards.write_bin(out);
        self.skew.write_bin(out);
        self.occupancies.write_bin(out);
        self.rebalances.write_bin(out);
        self.rebalance_skew_before.write_bin(out);
        self.rebalance_skew_after.write_bin(out);
    }
}

impl BinRead for StatsReply {
    fn read_bin(r: &mut BinReader<'_>) -> Result<Self, WireError> {
        Ok(StatsReply {
            accepted: BinRead::read_bin(r)?,
            queries: BinRead::read_bin(r)?,
            mutates: BinRead::read_bin(r)?,
            coalesced: BinRead::read_bin(r)?,
            rejected: BinRead::read_bin(r)?,
            protocol_errors: BinRead::read_bin(r)?,
            epoch: BinRead::read_bin(r)?,
            healthy_shards: BinRead::read_bin(r)?,
            total_shards: BinRead::read_bin(r)?,
            skew: BinRead::read_bin(r)?,
            occupancies: BinRead::read_bin(r)?,
            rebalances: BinRead::read_bin(r)?,
            rebalance_skew_before: BinRead::read_bin(r)?,
            rebalance_skew_after: BinRead::read_bin(r)?,
        })
    }
}

/// Encodes a response payload: status byte + body bytes.
pub fn encode_response(status: Status, body: &impl BinWrite) -> Vec<u8> {
    let mut out = Vec::new();
    out.push(status as u8);
    body.write_bin(&mut out);
    out
}

/// Splits a response payload into its status and body bytes.
pub fn split_response(payload: &[u8]) -> Result<(Status, &[u8]), WireError> {
    let (&first, body) = payload
        .split_first()
        .ok_or(WireError::UnexpectedEof { offset: 0 })?;
    let status = Status::from_u8(first).ok_or(WireError::BadTag {
        what: "Status",
        tag: first,
        offset: 0,
    })?;
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use diversity::wire::{from_bytes, to_bytes};
    use metric::VecPoint;

    #[test]
    fn status_bytes_are_pinned() {
        // The wire contract: these numbers are frozen.
        for (status, byte) in [
            (Status::Ok, 0u8),
            (Status::Degraded, 1),
            (Status::InvalidTask, 2),
            (Status::ShardUnavailable, 3),
            (Status::PoolUnavailable, 4),
            (Status::TransientFailure, 5),
            (Status::CorruptState, 6),
            (Status::Overloaded, 7),
            (Status::ProtocolError, 8),
            (Status::ShuttingDown, 9),
        ] {
            assert_eq!(status as u8, byte);
            assert_eq!(Status::from_u8(byte), Some(status));
        }
        assert_eq!(Status::from_u8(10), None);
    }

    #[test]
    fn backpressure_errors_get_dedicated_codes() {
        assert_eq!(
            status_for(&DivError::ShardUnavailable { shard: 3 }),
            Status::ShardUnavailable
        );
        assert_eq!(
            status_for(&DivError::PoolUnavailable {
                healthy: 0,
                total: 4
            }),
            Status::PoolUnavailable
        );
        assert_eq!(
            status_for(&DivError::TransientFailure {
                site: "serve.shard.mutate".into()
            }),
            Status::TransientFailure
        );
        assert_eq!(
            status_for(&DivError::CorruptState {
                reason: "bad".into()
            }),
            Status::CorruptState
        );
        assert_eq!(
            status_for(&DivError::InvalidK { k: 0, n: Some(10) }),
            Status::InvalidTask
        );
    }

    #[test]
    fn mutate_types_roundtrip() {
        let insert = MutateRequest::Insert(VecPoint::new(vec![1.0, -2.5]));
        let back: MutateRequest<VecPoint> = from_bytes(&to_bytes(&insert)).unwrap();
        assert_eq!(back, insert);
        let delete = MutateRequest::<VecPoint>::Delete(77);
        let back: MutateRequest<VecPoint> = from_bytes(&to_bytes(&delete)).unwrap();
        assert_eq!(back, delete);
        for reply in [MutateReply::Inserted(9), MutateReply::Deleted(true)] {
            let back: MutateReply = from_bytes(&to_bytes(&reply)).unwrap();
            assert_eq!(back, reply);
        }
    }

    #[test]
    fn response_envelope_roundtrips() {
        let payload = encode_response(Status::Ok, &MutateReply::Inserted(5));
        let (status, body) = split_response(&payload).unwrap();
        assert_eq!(status, Status::Ok);
        let reply: MutateReply = from_bytes(body).unwrap();
        assert_eq!(reply, MutateReply::Inserted(5));
        assert!(split_response(&[]).is_err());
        assert!(split_response(&[200]).is_err());
    }

    #[test]
    fn stats_reply_roundtrips() {
        let stats = StatsReply {
            accepted: 10,
            queries: 100,
            mutates: 50,
            coalesced: 30,
            rejected: 2,
            protocol_errors: 1,
            epoch: 999,
            healthy_shards: 3,
            total_shards: 4,
            skew: 1.25,
            occupancies: vec![10, 12, 8, 0],
            rebalances: 3,
            rebalance_skew_before: 2.5,
            rebalance_skew_after: 1.0625,
        };
        let back: StatsReply = from_bytes(&to_bytes(&stats)).unwrap();
        assert_eq!(back, stats);
    }
}
