//! The length-prefixed frame layer: everything between raw TCP bytes
//! and a typed `(opcode, payload)` pair.
//!
//! ```text
//!  0     1     2     3     4           8
//!  +-----+-----+-----+-----+-----------+----------------+
//!  | 'D' | 'M' | ver | op  | len (u32) | payload ...    |
//!  +-----+-----+-----+-----+-----------+----------------+
//!   magic        1     1..5  little-endian   len bytes
//! ```
//!
//! The payload is a [`diversity::wire`] binary value; which type is
//! determined by the opcode (see [`crate::proto`]). Every way the
//! bytes can be wrong — foreign magic, unknown version or opcode, a
//! length past the configured cap, a connection torn mid-frame — is a
//! typed [`ProtoError`], never a panic: the frame layer is the outer
//! trust boundary of the server.

use diversity::wire::WireError;
use std::io::{ErrorKind, IoSlice, Read, Write};

/// The two magic bytes every frame starts with.
pub const MAGIC: [u8; 2] = *b"DM";

/// Protocol version this build speaks. A breaking change to the frame
/// layout *or* to any payload encoding bumps it.
pub const VERSION: u8 = 1;

/// Bytes in a frame header: magic (2) + version (1) + opcode (1) +
/// payload length (4, little-endian).
pub const HEADER_LEN: usize = 8;

/// Default cap on a frame's payload length. Large enough for a full
/// pool checkpoint of any realistic deployment, small enough that a
/// hostile length cannot balloon memory.
pub const DEFAULT_MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// Frame opcodes. Responses echo the request's opcode; the dedicated
/// [`Err`](Opcode::Err) opcode is used only for responses to frames
/// whose own opcode could not be trusted (protocol errors).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// Response to an unparseable request.
    Err = 0x00,
    /// A `Task` to answer from the pool's warm path.
    Query = 0x01,
    /// An insert or delete routed into the pool.
    Mutate = 0x02,
    /// A snapshot-consistent pool checkpoint, in binary encoding.
    Checkpoint = 0x03,
    /// Server-side counters and pool health.
    Stats = 0x04,
    /// Graceful server shutdown.
    Shutdown = 0x05,
}

impl Opcode {
    /// Decodes an opcode byte.
    pub fn from_u8(byte: u8) -> Option<Opcode> {
        match byte {
            0x00 => Some(Opcode::Err),
            0x01 => Some(Opcode::Query),
            0x02 => Some(Opcode::Mutate),
            0x03 => Some(Opcode::Checkpoint),
            0x04 => Some(Opcode::Stats),
            0x05 => Some(Opcode::Shutdown),
            _ => None,
        }
    }
}

/// One decoded frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// What the payload means.
    pub opcode: Opcode,
    /// The payload bytes (a [`diversity::wire`] value).
    pub payload: Vec<u8>,
}

/// Everything that can go wrong below the request dispatcher. The
/// protocol layer's analogue of `DivError`: typed, displayable, and
/// never a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtoError {
    /// The first two bytes were not [`MAGIC`].
    BadMagic {
        /// The bytes received instead.
        got: [u8; 2],
    },
    /// A version this build does not speak.
    BadVersion {
        /// The version byte received.
        got: u8,
    },
    /// An opcode byte outside the defined set.
    UnknownOpcode {
        /// The opcode byte received.
        got: u8,
    },
    /// A declared payload length over the configured cap.
    Oversized {
        /// The declared length.
        len: u32,
        /// The cap in force.
        max: u32,
    },
    /// The connection closed (or timed out) mid-frame.
    Truncated,
    /// The frame was sound but its payload bytes were not a valid
    /// value of the opcode's type.
    Codec(WireError),
    /// A socket-level failure.
    Io(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::BadMagic { got } => {
                write!(f, "bad magic {:#04x} {:#04x}", got[0], got[1])
            }
            ProtoError::BadVersion { got } => write!(f, "unsupported protocol version {got}"),
            ProtoError::UnknownOpcode { got } => write!(f, "unknown opcode {got:#04x}"),
            ProtoError::Oversized { len, max } => {
                write!(f, "frame length {len} over the {max}-byte cap")
            }
            ProtoError::Truncated => write!(f, "connection torn mid-frame"),
            ProtoError::Codec(e) => write!(f, "payload codec: {e}"),
            ProtoError::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<WireError> for ProtoError {
    fn from(e: WireError) -> Self {
        ProtoError::Codec(e)
    }
}

/// Writes one frame. Header and payload go to `w` as one vectored
/// write (one `writev` on a socket, so one segment under `TCP_NODELAY`
/// for a small frame), continued after short writes; the payload is
/// never copied.
pub fn write_frame(w: &mut impl Write, opcode: Opcode, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        std::io::Error::new(ErrorKind::InvalidInput, "frame payload over u32::MAX bytes")
    })?;
    let mut header = [0u8; HEADER_LEN];
    header[..2].copy_from_slice(&MAGIC);
    header[2] = VERSION;
    header[3] = opcode as u8;
    header[4..].copy_from_slice(&len.to_le_bytes());
    let mut slices = [IoSlice::new(&header), IoSlice::new(payload)];
    let mut rest = &mut slices[..];
    while !rest.is_empty() {
        match w.write_vectored(rest) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// What one [`FrameReader::poll_frame`] call produced.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete frame.
    Frame(Frame),
    /// No complete frame yet (the read timed out or would block with a
    /// partial or empty buffer) — poll again.
    Idle,
    /// The peer closed the connection cleanly, on a frame boundary.
    Closed,
}

/// An incremental frame decoder over a byte stream. Accumulates reads
/// into an internal buffer so short reads, read timeouts and torn
/// frames are all handled in one place: a timeout *between* frames is
/// [`ReadOutcome::Idle`] (the server's shutdown-poll point), while a
/// close *inside* a frame is [`ProtoError::Truncated`].
pub struct FrameReader<R> {
    inner: R,
    buf: Vec<u8>,
    max_frame_len: u32,
}

impl<R: Read> FrameReader<R> {
    /// A reader with the [`DEFAULT_MAX_FRAME_LEN`] cap.
    pub fn new(inner: R) -> Self {
        Self::with_max_len(inner, DEFAULT_MAX_FRAME_LEN)
    }

    /// A reader with an explicit payload-length cap.
    pub fn with_max_len(inner: R, max_frame_len: u32) -> Self {
        Self {
            inner,
            buf: Vec::new(),
            max_frame_len,
        }
    }

    /// The stream this reader reads from, e.g. to write requests on the
    /// same socket.
    pub fn get_ref(&self) -> &R {
        &self.inner
    }

    /// Attempts to read one frame, consuming as many stream bytes as
    /// are available. Validation is eager: magic/version/opcode/length
    /// are checked as soon as the header is buffered, so a garbage
    /// prefix is rejected without waiting for its claimed payload.
    pub fn poll_frame(&mut self) -> Result<ReadOutcome, ProtoError> {
        loop {
            // Validate the header as soon as it is complete.
            if self.buf.len() >= HEADER_LEN {
                if self.buf[..2] != MAGIC {
                    return Err(ProtoError::BadMagic {
                        got: [self.buf[0], self.buf[1]],
                    });
                }
                if self.buf[2] != VERSION {
                    return Err(ProtoError::BadVersion { got: self.buf[2] });
                }
                let Some(opcode) = Opcode::from_u8(self.buf[3]) else {
                    return Err(ProtoError::UnknownOpcode { got: self.buf[3] });
                };
                let len = u32::from_le_bytes(self.buf[4..8].try_into().expect("header is 8 bytes"));
                if len > self.max_frame_len {
                    return Err(ProtoError::Oversized {
                        len,
                        max: self.max_frame_len,
                    });
                }
                let total = HEADER_LEN + len as usize;
                if self.buf.len() >= total {
                    let payload = self.buf[HEADER_LEN..total].to_vec();
                    self.buf.drain(..total);
                    return Ok(ReadOutcome::Frame(Frame { opcode, payload }));
                }
            }
            // Need more bytes.
            let mut chunk = [0u8; 4096];
            match self.inner.read(&mut chunk) {
                Ok(0) => {
                    return if self.buf.is_empty() {
                        Ok(ReadOutcome::Closed)
                    } else {
                        Err(ProtoError::Truncated)
                    };
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return Ok(ReadOutcome::Idle);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(ProtoError::Io(e.to_string())),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(opcode: Opcode, payload: &[u8]) -> Frame {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, opcode, payload).unwrap();
        let mut reader = FrameReader::new(&bytes[..]);
        match reader.poll_frame().unwrap() {
            ReadOutcome::Frame(f) => f,
            other => panic!("expected a frame, got {other:?}"),
        }
    }

    #[test]
    fn frames_roundtrip() {
        let f = roundtrip(Opcode::Query, b"payload");
        assert_eq!(f.opcode, Opcode::Query);
        assert_eq!(f.payload, b"payload");
        let f = roundtrip(Opcode::Shutdown, b"");
        assert_eq!(f.opcode, Opcode::Shutdown);
        assert!(f.payload.is_empty());
    }

    #[test]
    fn two_frames_in_one_buffer() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, Opcode::Query, b"a").unwrap();
        write_frame(&mut bytes, Opcode::Stats, b"bb").unwrap();
        let mut reader = FrameReader::new(&bytes[..]);
        let first = match reader.poll_frame().unwrap() {
            ReadOutcome::Frame(f) => f,
            other => panic!("{other:?}"),
        };
        assert_eq!(first.payload, b"a");
        let second = match reader.poll_frame().unwrap() {
            ReadOutcome::Frame(f) => f,
            other => panic!("{other:?}"),
        };
        assert_eq!(second.opcode, Opcode::Stats);
        assert_eq!(second.payload, b"bb");
        assert!(matches!(reader.poll_frame().unwrap(), ReadOutcome::Closed));
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, Opcode::Query, b"x").unwrap();
        bytes[0] = b'X';
        let err = FrameReader::new(&bytes[..]).poll_frame().unwrap_err();
        assert_eq!(err, ProtoError::BadMagic { got: [b'X', b'M'] });
    }

    #[test]
    fn bad_version_and_opcode_are_typed() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, Opcode::Query, b"").unwrap();
        let mut wrong_version = bytes.clone();
        wrong_version[2] = 9;
        assert_eq!(
            FrameReader::new(&wrong_version[..])
                .poll_frame()
                .unwrap_err(),
            ProtoError::BadVersion { got: 9 }
        );
        bytes[3] = 0x77;
        assert_eq!(
            FrameReader::new(&bytes[..]).poll_frame().unwrap_err(),
            ProtoError::UnknownOpcode { got: 0x77 }
        );
    }

    #[test]
    fn oversized_is_rejected_without_reading_the_payload() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        bytes.push(Opcode::Query as u8);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        // No payload bytes at all: the length check must fire first.
        let err = FrameReader::new(&bytes[..]).poll_frame().unwrap_err();
        assert_eq!(
            err,
            ProtoError::Oversized {
                len: u32::MAX,
                max: DEFAULT_MAX_FRAME_LEN
            }
        );
    }

    /// A writer that takes at most `max` bytes per call, across all
    /// slices of a vectored call, and counts its calls: on a socket each
    /// call is one `write`/`writev`.
    struct Chunked {
        out: Vec<u8>,
        max: usize,
        calls: usize,
    }

    impl Chunked {
        fn new(max: usize) -> Self {
            Chunked {
                out: Vec::new(),
                max,
                calls: 0,
            }
        }
    }

    impl Write for Chunked {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            let mut taken = 0;
            for buf in bufs {
                let n = buf.len().min(self.max - taken);
                self.out.extend_from_slice(&buf[..n]);
                taken += n;
                if taken == self.max {
                    break;
                }
            }
            Ok(taken)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn read_one(bytes: &[u8]) -> Frame {
        match FrameReader::new(bytes).poll_frame().unwrap() {
            ReadOutcome::Frame(f) => f,
            other => panic!("expected a frame, got {other:?}"),
        }
    }

    #[test]
    fn a_small_frame_is_one_write() {
        let mut w = Chunked::new(usize::MAX);
        write_frame(&mut w, Opcode::Query, b"payload").unwrap();
        assert_eq!(w.calls, 1, "header and payload go out together");
        let f = read_one(&w.out);
        assert_eq!((f.opcode, &f.payload[..]), (Opcode::Query, &b"payload"[..]));
    }

    #[test]
    fn short_writes_still_produce_the_whole_frame() {
        let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let mut w = Chunked::new(1000);
        write_frame(&mut w, Opcode::Checkpoint, &payload).unwrap();
        assert_eq!(w.calls, (HEADER_LEN + payload.len()).div_ceil(1000));
        let f = read_one(&w.out);
        assert_eq!(f.opcode, Opcode::Checkpoint);
        assert!(
            f.payload == payload,
            "the payload round-trips byte for byte"
        );
    }

    #[test]
    fn torn_frame_is_truncated_not_a_panic() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, Opcode::Query, b"hello world").unwrap();
        for cut in 1..bytes.len() {
            let mut reader = FrameReader::new(&bytes[..cut]);
            match reader.poll_frame() {
                Err(ProtoError::Truncated) => {}
                other => panic!("cut at {cut}: {other:?}"),
            }
        }
    }
}
