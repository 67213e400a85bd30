//! A blocking client for the divmax wire protocol: one `TcpStream`,
//! one request in flight at a time, typed errors for every server
//! status.

use crate::frame::{write_frame, FrameReader, Opcode, ProtoError, ReadOutcome};
use crate::proto::{split_response, MutateReply, MutateRequest, StatsReply, Status};
use diversity::wire::{from_bytes, to_bytes, BinRead, BinWrite};
use diversity::{DivError, Report, Task};
use diversity_serve::PoolState;
use std::marker::PhantomData;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Everything a request can fail with on the client side.
#[derive(Clone, Debug)]
pub enum NetError {
    /// The bytes on the wire were not a valid protocol exchange.
    Proto(ProtoError),
    /// The server answered with a non-success status.
    Server {
        /// The wire status code.
        status: Status,
        /// The typed error body, when the status carries one
        /// (statuses 2–6).
        error: Option<DivError>,
        /// Human-readable detail (the error's display form, or the
        /// server's message for statuses 7–9).
        message: String,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Proto(e) => write!(f, "protocol: {e}"),
            NetError::Server {
                status, message, ..
            } => write!(f, "server {status:?}: {message}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<ProtoError> for NetError {
    fn from(e: ProtoError) -> Self {
        NetError::Proto(e)
    }
}

impl From<diversity::wire::WireError> for NetError {
    fn from(e: diversity::wire::WireError) -> Self {
        NetError::Proto(ProtoError::Codec(e))
    }
}

/// A connected client. `P` is the point type the server was started
/// with; a mismatch surfaces as a codec error, not undefined behavior.
pub struct NetClient<P> {
    /// The one reader of this connection, built at connect: requests
    /// are written on the stream it owns, and its buffer is reused.
    reader: FrameReader<TcpStream>,
    _point: PhantomData<fn() -> P>,
}

impl<P: BinRead + BinWrite> NetClient<P> {
    /// Connects and configures the socket (nodelay, 30 s read
    /// timeout).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, NetError> {
        let stream =
            TcpStream::connect(addr).map_err(|e| NetError::Proto(ProtoError::Io(e.to_string())))?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
        Ok(NetClient {
            reader: FrameReader::new(stream),
            _point: PhantomData,
        })
    }

    /// One request/response exchange. Returns the response opcode,
    /// status, and body bytes.
    fn exchange(&mut self, opcode: Opcode, payload: &[u8]) -> Result<(Status, Vec<u8>), NetError> {
        write_frame(&mut self.reader.get_ref(), opcode, payload)
            .map_err(|e| NetError::Proto(ProtoError::Io(e.to_string())))?;
        loop {
            match self.reader.poll_frame()? {
                ReadOutcome::Frame(frame) => {
                    let (status, body) = split_response(&frame.payload)?;
                    return Ok((status, body.to_vec()));
                }
                ReadOutcome::Idle => {}
                ReadOutcome::Closed => return Err(NetError::Proto(ProtoError::Truncated)),
            }
        }
    }

    /// Decodes a success body, or maps an error status to
    /// [`NetError::Server`]. `Degraded` counts as success — the caller
    /// inspects the report's `degradation` block.
    fn expect_success<T: BinRead>(status: Status, body: &[u8]) -> Result<T, NetError> {
        if status.is_success() {
            return Ok(from_bytes(body)?);
        }
        Err(Self::server_error(status, body))
    }

    fn server_error(status: Status, body: &[u8]) -> NetError {
        match status {
            Status::InvalidTask
            | Status::ShardUnavailable
            | Status::PoolUnavailable
            | Status::TransientFailure
            | Status::CorruptState => match from_bytes::<DivError>(body) {
                Ok(err) => NetError::Server {
                    status,
                    message: err.to_string(),
                    error: Some(err),
                },
                Err(codec) => NetError::Proto(ProtoError::Codec(codec)),
            },
            _ => {
                let message = from_bytes::<String>(body)
                    .unwrap_or_else(|_| "<unreadable message body>".into());
                NetError::Server {
                    status,
                    error: None,
                    message,
                }
            }
        }
    }

    /// Runs a query; both `Ok` and `Degraded` return the report.
    pub fn query(&mut self, task: &Task) -> Result<Report<P>, NetError> {
        let (status, body) = self.exchange(Opcode::Query, &to_bytes(task))?;
        Self::expect_success(status, &body)
    }

    /// Inserts a point; returns the encoded
    /// [`ShardedId`](diversity_serve::ShardedId).
    pub fn insert(&mut self, point: &P) -> Result<u64, NetError> {
        // Hand-encoded `MutateRequest::Insert` (tag 0 + point) so the
        // point is not cloned just to build the enum.
        let mut payload = Vec::new();
        payload.push(0);
        point.write_bin(&mut payload);
        let (status, body) = self.exchange(Opcode::Mutate, &payload)?;
        match Self::expect_success::<MutateReply>(status, &body)? {
            MutateReply::Inserted(id) => Ok(id),
            MutateReply::Deleted(_) => Err(NetError::Proto(ProtoError::Codec(
                diversity::wire::WireError::Invalid {
                    what: "MutateReply",
                    reason: "Deleted reply to an Insert request".into(),
                },
            ))),
        }
    }

    /// Deletes by encoded id; returns whether a live point was found.
    pub fn delete(&mut self, id: u64) -> Result<bool, NetError> {
        let payload = to_bytes(&MutateRequest::<u64>::Delete(id));
        let (status, body) = self.exchange(Opcode::Mutate, &payload)?;
        match Self::expect_success::<MutateReply>(status, &body)? {
            MutateReply::Deleted(hit) => Ok(hit),
            MutateReply::Inserted(_) => Err(NetError::Proto(ProtoError::Codec(
                diversity::wire::WireError::Invalid {
                    what: "MutateReply",
                    reason: "Inserted reply to a Delete request".into(),
                },
            ))),
        }
    }

    /// Requests a snapshot-consistent pool checkpoint in the binary
    /// encoding.
    pub fn checkpoint(&mut self) -> Result<PoolState<P>, NetError> {
        let (status, body) = self.exchange(Opcode::Checkpoint, &[])?;
        Self::expect_success(status, &body)
    }

    /// Fetches the server's counters and pool health.
    pub fn stats(&mut self) -> Result<StatsReply, NetError> {
        let (status, body) = self.exchange(Opcode::Stats, &[])?;
        Self::expect_success(status, &body)
    }

    /// Asks the server to drain and stop.
    pub fn shutdown_server(&mut self) -> Result<(), NetError> {
        let (status, _) = self.exchange(Opcode::Shutdown, &[])?;
        if status == Status::Ok {
            Ok(())
        } else {
            Err(NetError::Server {
                status,
                error: None,
                message: "shutdown refused".into(),
            })
        }
    }
}
