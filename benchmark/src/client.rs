//! The two clients the serve workloads drive. Untraced runs use the
//! public [`NetClient`]. Traced runs use [`TracedClient`], which makes
//! the same calls in the same order (`wire` encode, `write_frame`, a
//! fresh `FrameReader` on a cloned stream, `split_response`, `wire`
//! decode) with a span around each, and places the stage rows of each
//! reply inside the exchange span.

use diversity::wire::{from_bytes, to_bytes, BinWrite};
use diversity::{Report, Task};
use diversity_net::frame::write_frame;
use diversity_net::proto::split_response;
use diversity_net::{FrameReader, MutateReply, MutateRequest, NetClient, Opcode, ReadOutcome};
use divmax_benchmark::trace::Tracer;
use metric::VecPoint;
use std::net::TcpStream;
use std::time::Duration;

/// A query answer with the size of its reply frame payload.
pub struct Answer {
    pub report: Report<VecPoint>,
    pub reply_bytes: usize,
}

/// Either client; every call returns a displayable error.
pub enum Client {
    Plain(NetClient<VecPoint>),
    Traced(TracedClient),
}

impl Client {
    pub fn connect(addr: &str, traced: bool) -> Result<Client, String> {
        Ok(if traced {
            Client::Traced(TracedClient::connect(addr)?)
        } else {
            Client::Plain(NetClient::connect(addr).map_err(|e| e.to_string())?)
        })
    }

    pub fn query(&mut self, task: &Task, t: &mut Tracer, request: u64) -> Result<Answer, String> {
        match self {
            Client::Plain(c) => c
                .query(task)
                .map(|report| Answer {
                    report,
                    reply_bytes: 0,
                })
                .map_err(|e| e.to_string()),
            Client::Traced(c) => c.query(task, t, request),
        }
    }

    pub fn insert(
        &mut self,
        point: &VecPoint,
        t: &mut Tracer,
        request: u64,
    ) -> Result<u64, String> {
        match self {
            Client::Plain(c) => c.insert(point).map_err(|e| e.to_string()),
            Client::Traced(c) => {
                // `NetClient::insert` hand-encodes tag 0 + the point.
                let mut payload = vec![0];
                match c.mutate(
                    "client.insert",
                    t,
                    request,
                    |p| point.write_bin(p),
                    &mut payload,
                )? {
                    MutateReply::Inserted(id) => Ok(id),
                    MutateReply::Deleted(_) => Err("Deleted reply to an Insert request".into()),
                }
            }
        }
    }

    pub fn delete(&mut self, id: u64, t: &mut Tracer, request: u64) -> Result<bool, String> {
        match self {
            Client::Plain(c) => c.delete(id).map_err(|e| e.to_string()),
            Client::Traced(c) => {
                let request_body = MutateRequest::<u64>::Delete(id);
                let mut payload = Vec::new();
                match c.mutate(
                    "client.delete",
                    t,
                    request,
                    |p| request_body.write_bin(p),
                    &mut payload,
                )? {
                    MutateReply::Deleted(hit) => Ok(hit),
                    MutateReply::Inserted(_) => Err("Inserted reply to a Delete request".into()),
                }
            }
        }
    }
}

/// A raw-frame client that records spans.
pub struct TracedClient {
    stream: TcpStream,
}

impl TracedClient {
    /// Connects with `NetClient`'s socket options.
    pub fn connect(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
        Ok(TracedClient { stream })
    }

    /// One request/response exchange, as `NetClient` does it. Returns
    /// the body of a success response and the reply payload size.
    fn exchange(&mut self, opcode: Opcode, payload: &[u8]) -> Result<(Vec<u8>, usize), String> {
        write_frame(&mut self.stream, opcode, payload).map_err(|e| e.to_string())?;
        let read_half = self.stream.try_clone().map_err(|e| e.to_string())?;
        let mut reader = FrameReader::new(read_half);
        loop {
            match reader.poll_frame().map_err(|e| e.to_string())? {
                ReadOutcome::Frame(frame) => {
                    let (status, body) =
                        split_response(&frame.payload).map_err(|e| e.to_string())?;
                    if !status.is_success() {
                        return Err(format!("server status {status:?}"));
                    }
                    return Ok((body.to_vec(), frame.payload.len()));
                }
                ReadOutcome::Idle => {}
                ReadOutcome::Closed => return Err("connection closed mid-exchange".into()),
            }
        }
    }

    fn query(&mut self, task: &Task, t: &mut Tracer, request: u64) -> Result<Answer, String> {
        let root = t.open(None, request, "client.query", "net");
        let span = t.open(Some(root), request, "wire.encode_task", "diversity");
        let payload = to_bytes(task);
        t.close(span);
        let exchange = t.open(Some(root), request, "net.exchange", "net");
        let (body, reply_bytes) = self.exchange(Opcode::Query, &payload)?;
        t.close(exchange);
        let span = t.open(Some(root), request, "wire.decode_report", "diversity");
        let report: Report<VecPoint> = from_bytes(&body).map_err(|e| e.to_string())?;
        t.close(span);
        t.close(root);
        let row = |stage: &str| {
            report
                .timings
                .iter()
                .find(|r| r.stage == stage)
                .map_or(0, |r| (r.secs * 1e9) as u64)
        };
        let (extract, lock_wait, solve) = (
            row("warm-extract"),
            row("warm-lock-wait"),
            row("combine:solve"),
        );
        let extract_span = t.row(exchange, 0, extract, "serve.extract", "serve");
        t.row(extract_span, 0, lock_wait, "serve.lock_wait", "serve");
        t.row(exchange, extract, solve, "serve.solve", "serve");
        Ok(Answer {
            report,
            reply_bytes,
        })
    }

    /// A Mutate exchange: `encode` appends the request body to
    /// `payload` inside the encode span.
    fn mutate(
        &mut self,
        name: &'static str,
        t: &mut Tracer,
        request: u64,
        encode: impl FnOnce(&mut Vec<u8>),
        payload: &mut Vec<u8>,
    ) -> Result<MutateReply, String> {
        let root = t.open(None, request, name, "net");
        let span = t.open(Some(root), request, "wire.encode_mutate", "diversity");
        encode(payload);
        t.close(span);
        let exchange = t.open(Some(root), request, "net.exchange", "net");
        let (body, _) = self.exchange(Opcode::Mutate, payload)?;
        t.close(exchange);
        let span = t.open(Some(root), request, "wire.decode_reply", "diversity");
        let reply = from_bytes(&body).map_err(|e| e.to_string());
        t.close(span);
        t.close(root);
        reply
    }
}
