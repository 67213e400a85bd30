//! The compact binary codec: the network frame payload format that
//! doubles as the checkpoint encoding.
//!
//! The JSON serde layer (`vendor/serde`) is the debuggable,
//! golden-pinned interchange format; this module is the *dense* one —
//! the encoding `divmax-serve` frames carry and checkpoints can opt
//! into (roughly half the bytes of the JSON image; the `ablation_net`
//! bench records both counts). Design:
//!
//! * **Integers** are LEB128 varints (unsigned); signed integers are
//!   zigzag-folded first, so small magnitudes of either sign stay
//!   short.
//! * **Floats** are the 8 little-endian bytes of [`f64::to_bits`] —
//!   exact for every value including non-finite ones (which the JSON
//!   layer must tag as strings).
//! * **Strings / sequences** are a varint length followed by the
//!   elements; decoders bound their pre-allocations by the bytes
//!   actually remaining, so a hostile length cannot balloon memory.
//! * **Options and enums** are a one-byte tag. Unknown tags are typed
//!   [`WireError`]s, never panics — the unwrap-audit discipline of the
//!   serving layer extends down to the codec.
//!
//! There is no self-description: both ends must agree on the type, and
//! the protocol layer (`diversity-net`) versions the whole frame. The
//! format is pinned by golden tests in `tests/wire_bin.rs` — any byte
//! change is a protocol version bump.
//!
//! [`to_bytes`] / [`from_bytes`] are the entry points; `from_bytes`
//! rejects trailing garbage, so a frame carries exactly one value.

use crate::error::DivError;
use crate::report::{Backend, Certificate, Degradation, Report, StageMemory, StageTiming};
use crate::task::{Budget, Projection, Task};
use diversity_core::coreset::Coreset;
use diversity_core::Problem;
use diversity_obs::{
    Bucket, CounterEntry, GaugeEntry, HistogramEntry, HistogramSnapshot, Snapshot,
};
use metric::VecPoint;

/// A typed decode failure: where it happened and what was wrong.
/// Decoding never panics — torn, truncated, bit-flipped, or hostile
/// bytes all land here.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended inside a value.
    UnexpectedEof {
        /// Byte offset the read started at.
        offset: usize,
    },
    /// A one-byte tag (enum discriminant, `Option`/`bool` marker) held
    /// a value the type does not define.
    BadTag {
        /// The type being decoded.
        what: &'static str,
        /// The offending byte.
        tag: u8,
        /// Byte offset of the tag.
        offset: usize,
    },
    /// A varint ran past 10 bytes or overflowed 64 bits.
    VarintOverflow {
        /// Byte offset the varint started at.
        offset: usize,
    },
    /// A declared length exceeds what the remaining bytes could hold.
    LengthOverflow {
        /// The sequence being decoded.
        what: &'static str,
        /// The declared element count.
        len: u64,
        /// Byte offset of the length.
        offset: usize,
    },
    /// Structurally well-formed bytes that decode to an invalid value
    /// (non-UTF-8 string, a core-set violating its invariants, …).
    Invalid {
        /// The type being decoded.
        what: &'static str,
        /// Human-readable defect.
        reason: String,
    },
    /// [`from_bytes`] decoded a value but bytes remained.
    TrailingBytes {
        /// Bytes left unconsumed.
        remaining: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::UnexpectedEof { offset } => {
                write!(f, "unexpected end of input at byte {offset}")
            }
            WireError::BadTag { what, tag, offset } => {
                write!(f, "invalid tag {tag:#04x} for {what} at byte {offset}")
            }
            WireError::VarintOverflow { offset } => {
                write!(f, "varint overflow at byte {offset}")
            }
            WireError::LengthOverflow { what, len, offset } => {
                write!(
                    f,
                    "declared length {len} for {what} at byte {offset} exceeds the input"
                )
            }
            WireError::Invalid { what, reason } => write!(f, "invalid {what}: {reason}"),
            WireError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after the value")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Cursor over a byte buffer being decoded.
pub struct BinReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> BinReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Current byte offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left to consume.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// One raw byte.
    pub fn read_u8(&mut self) -> Result<u8, WireError> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or(WireError::UnexpectedEof { offset: self.pos })?;
        self.pos += 1;
        Ok(b)
    }

    /// Exactly `n` raw bytes.
    pub fn read_bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEof { offset: self.pos });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// An LEB128 varint.
    pub fn read_varint(&mut self) -> Result<u64, WireError> {
        let start = self.pos;
        let mut value: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.read_u8().map_err(|_| {
                // Report the varint's own start, the more useful anchor.
                WireError::UnexpectedEof { offset: start }
            })?;
            let bits = (byte & 0x7f) as u64;
            if shift >= 63 && (byte > 1 || shift > 63) {
                return Err(WireError::VarintOverflow { offset: start });
            }
            value |= bits << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }

    /// A zigzag-folded signed varint.
    pub fn read_signed(&mut self) -> Result<i64, WireError> {
        let z = self.read_varint()?;
        Ok((z >> 1) as i64 ^ -((z & 1) as i64))
    }

    /// 8 little-endian bytes of [`f64::to_bits`].
    pub fn read_f64(&mut self) -> Result<f64, WireError> {
        let bytes = self.read_bytes(8)?;
        Ok(f64::from_bits(u64::from_le_bytes(
            bytes.try_into().expect("read_bytes returned 8 bytes"),
        )))
    }

    /// A sequence length for `what`: a varint, checked against the
    /// bytes actually remaining (each element costs at least one byte),
    /// so a hostile length fails here instead of in an allocation.
    pub fn read_len(&mut self, what: &'static str) -> Result<usize, WireError> {
        let offset = self.pos;
        let len = self.read_varint()?;
        if len > self.remaining() as u64 {
            return Err(WireError::LengthOverflow { what, len, offset });
        }
        Ok(len as usize)
    }
}

/// Appends an LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends a zigzag-folded signed varint.
pub fn put_signed(out: &mut Vec<u8>, v: i64) {
    put_varint(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// Appends the 8 little-endian bytes of [`f64::to_bits`].
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Types that can append their binary encoding to a buffer.
pub trait BinWrite {
    /// Appends `self`'s encoding to `out`.
    fn write_bin(&self, out: &mut Vec<u8>);
}

/// Types that can decode themselves from a [`BinReader`].
pub trait BinRead: Sized {
    /// Decodes one value, advancing the reader.
    fn read_bin(r: &mut BinReader<'_>) -> Result<Self, WireError>;
}

/// Encodes one value into a fresh buffer.
pub fn to_bytes<T: BinWrite>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.write_bin(&mut out);
    out
}

/// Decodes exactly one value from `buf`; trailing bytes are an error
/// (a frame carries one value, nothing more).
pub fn from_bytes<T: BinRead>(buf: &[u8]) -> Result<T, WireError> {
    let mut r = BinReader::new(buf);
    let value = T::read_bin(&mut r)?;
    if r.remaining() != 0 {
        return Err(WireError::TrailingBytes {
            remaining: r.remaining(),
        });
    }
    Ok(value)
}

// ---- primitives -----------------------------------------------------

impl BinWrite for u64 {
    fn write_bin(&self, out: &mut Vec<u8>) {
        put_varint(out, *self);
    }
}

impl BinRead for u64 {
    fn read_bin(r: &mut BinReader<'_>) -> Result<Self, WireError> {
        r.read_varint()
    }
}

impl BinWrite for usize {
    fn write_bin(&self, out: &mut Vec<u8>) {
        put_varint(out, *self as u64);
    }
}

impl BinRead for usize {
    fn read_bin(r: &mut BinReader<'_>) -> Result<Self, WireError> {
        let offset = r.pos();
        let v = r.read_varint()?;
        usize::try_from(v).map_err(|_| WireError::VarintOverflow { offset })
    }
}

impl BinWrite for u32 {
    fn write_bin(&self, out: &mut Vec<u8>) {
        put_varint(out, *self as u64);
    }
}

impl BinRead for u32 {
    fn read_bin(r: &mut BinReader<'_>) -> Result<Self, WireError> {
        let offset = r.pos();
        let v = r.read_varint()?;
        u32::try_from(v).map_err(|_| WireError::VarintOverflow { offset })
    }
}

impl BinWrite for i64 {
    fn write_bin(&self, out: &mut Vec<u8>) {
        put_signed(out, *self);
    }
}

impl BinRead for i64 {
    fn read_bin(r: &mut BinReader<'_>) -> Result<Self, WireError> {
        r.read_signed()
    }
}

impl BinWrite for i32 {
    fn write_bin(&self, out: &mut Vec<u8>) {
        put_signed(out, *self as i64);
    }
}

impl BinRead for i32 {
    fn read_bin(r: &mut BinReader<'_>) -> Result<Self, WireError> {
        let offset = r.pos();
        let v = r.read_signed()?;
        i32::try_from(v).map_err(|_| WireError::VarintOverflow { offset })
    }
}

impl BinWrite for f64 {
    fn write_bin(&self, out: &mut Vec<u8>) {
        put_f64(out, *self);
    }
}

impl BinRead for f64 {
    fn read_bin(r: &mut BinReader<'_>) -> Result<Self, WireError> {
        r.read_f64()
    }
}

impl BinWrite for bool {
    fn write_bin(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
}

impl BinRead for bool {
    fn read_bin(r: &mut BinReader<'_>) -> Result<Self, WireError> {
        let offset = r.pos();
        match r.read_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag {
                what: "bool",
                tag,
                offset,
            }),
        }
    }
}

impl BinWrite for String {
    fn write_bin(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        out.extend_from_slice(self.as_bytes());
    }
}

impl BinRead for String {
    fn read_bin(r: &mut BinReader<'_>) -> Result<Self, WireError> {
        let len = r.read_len("string")?;
        let bytes = r.read_bytes(len)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|e| WireError::Invalid {
                what: "string",
                reason: e.to_string(),
            })
    }
}

impl<T: BinWrite> BinWrite for Option<T> {
    fn write_bin(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.write_bin(out);
            }
        }
    }
}

impl<T: BinRead> BinRead for Option<T> {
    fn read_bin(r: &mut BinReader<'_>) -> Result<Self, WireError> {
        let offset = r.pos();
        match r.read_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::read_bin(r)?)),
            tag => Err(WireError::BadTag {
                what: "Option",
                tag,
                offset,
            }),
        }
    }
}

impl<T: BinWrite> BinWrite for Vec<T> {
    fn write_bin(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        for item in self {
            item.write_bin(out);
        }
    }
}

impl<T: BinRead> BinRead for Vec<T> {
    fn read_bin(r: &mut BinReader<'_>) -> Result<Self, WireError> {
        let len = r.read_len("sequence")?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::read_bin(r)?);
        }
        Ok(out)
    }
}

// ---- fieldless enum helper -----------------------------------------

macro_rules! bin_fieldless_enum {
    ($ty:ty, $name:literal, { $($variant:path => $tag:literal),+ $(,)? }) => {
        impl BinWrite for $ty {
            fn write_bin(&self, out: &mut Vec<u8>) {
                out.push(match self {
                    $($variant => $tag,)+
                });
            }
        }

        impl BinRead for $ty {
            fn read_bin(r: &mut BinReader<'_>) -> Result<Self, WireError> {
                let offset = r.pos();
                match r.read_u8()? {
                    $($tag => Ok($variant),)+
                    tag => Err(WireError::BadTag { what: $name, tag, offset }),
                }
            }
        }
    };
}

bin_fieldless_enum!(Problem, "Problem", {
    Problem::RemoteEdge => 0,
    Problem::RemoteClique => 1,
    Problem::RemoteStar => 2,
    Problem::RemoteBipartition => 3,
    Problem::RemoteTree => 4,
    Problem::RemoteCycle => 5,
});

bin_fieldless_enum!(Backend, "Backend", {
    Backend::Sequential => 0,
    Backend::Streaming => 1,
    Backend::MapReduce => 2,
    // Tag 3 was the retired cover-hierarchy backend; it decodes as a
    // bad tag and is not reused.
    Backend::ShardedDynamic => 4,
});

// ---- struct helper --------------------------------------------------

macro_rules! bin_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl BinWrite for $ty {
            fn write_bin(&self, out: &mut Vec<u8>) {
                $(self.$field.write_bin(out);)+
            }
        }

        impl BinRead for $ty {
            fn read_bin(r: &mut BinReader<'_>) -> Result<Self, WireError> {
                Ok($ty {
                    $($field: BinRead::read_bin(r)?,)+
                })
            }
        }
    };
}

bin_struct!(StageTiming { stage, secs });
bin_struct!(StageMemory {
    stage,
    reducers,
    max_local_points,
    total_points,
    emitted_points,
});
bin_struct!(Certificate { alpha, eps, factor });
bin_struct!(Degradation {
    shards_answered,
    shards_total,
    skipped_shards,
    coverage,
});
bin_struct!(CounterEntry { name, value });
bin_struct!(GaugeEntry { name, value });
bin_struct!(HistogramEntry { name, hist });
bin_struct!(Bucket { index, low, count });
bin_struct!(HistogramSnapshot {
    count,
    sum,
    min,
    max,
    buckets,
});
bin_struct!(Snapshot {
    counters,
    gauges,
    histograms,
});

// ---- data-carrying enums -------------------------------------------

impl BinWrite for Budget {
    fn write_bin(&self, out: &mut Vec<u8>) {
        match self {
            Budget::Auto { eps, cap } => {
                out.push(0);
                eps.write_bin(out);
                cap.write_bin(out);
            }
            Budget::KPrime(k_prime) => {
                out.push(1);
                k_prime.write_bin(out);
            }
            Budget::Eps { eps, dim } => {
                out.push(2);
                eps.write_bin(out);
                dim.write_bin(out);
            }
        }
    }
}

impl BinRead for Budget {
    fn read_bin(r: &mut BinReader<'_>) -> Result<Self, WireError> {
        let offset = r.pos();
        match r.read_u8()? {
            0 => Ok(Budget::Auto {
                eps: BinRead::read_bin(r)?,
                cap: BinRead::read_bin(r)?,
            }),
            1 => Ok(Budget::KPrime(BinRead::read_bin(r)?)),
            2 => Ok(Budget::Eps {
                eps: BinRead::read_bin(r)?,
                dim: BinRead::read_bin(r)?,
            }),
            tag => Err(WireError::BadTag {
                what: "Budget",
                tag,
                offset,
            }),
        }
    }
}

impl BinWrite for DivError {
    fn write_bin(&self, out: &mut Vec<u8>) {
        match self {
            DivError::EmptyInput => out.push(0),
            DivError::EmptyStream => out.push(1),
            DivError::InvalidK { k, n } => {
                out.push(2);
                k.write_bin(out);
                n.write_bin(out);
            }
            DivError::BudgetTooSmall { k_prime, k } => {
                out.push(3);
                k_prime.write_bin(out);
                k.write_bin(out);
            }
            DivError::InvalidEps { eps } => {
                out.push(4);
                eps.write_bin(out);
            }
            DivError::UnsupportedStrategy { problem, .. } => {
                // Strategy is not itself wire-encoded (the serving
                // layer never transports one); collapse to the problem
                // plus the displayed message.
                out.push(5);
                problem.write_bin(out);
                self.to_string().write_bin(out);
            }
            DivError::InvalidMemoryLimit => out.push(6),
            DivError::MalformedPartitions { reason } => {
                out.push(7);
                reason.write_bin(out);
            }
            DivError::InvalidShards => out.push(8),
            DivError::CorruptState { reason } => {
                out.push(9);
                reason.write_bin(out);
            }
            DivError::ShardUnavailable { shard } => {
                out.push(10);
                shard.write_bin(out);
            }
            DivError::PoolUnavailable { healthy, total } => {
                out.push(11);
                healthy.write_bin(out);
                total.write_bin(out);
            }
            DivError::TransientFailure { site } => {
                out.push(12);
                site.write_bin(out);
            }
            DivError::ProjectionMissing => out.push(13),
        }
    }
}

impl BinRead for DivError {
    fn read_bin(r: &mut BinReader<'_>) -> Result<Self, WireError> {
        let offset = r.pos();
        match r.read_u8()? {
            0 => Ok(DivError::EmptyInput),
            1 => Ok(DivError::EmptyStream),
            2 => Ok(DivError::InvalidK {
                k: BinRead::read_bin(r)?,
                n: BinRead::read_bin(r)?,
            }),
            3 => Ok(DivError::BudgetTooSmall {
                k_prime: BinRead::read_bin(r)?,
                k: BinRead::read_bin(r)?,
            }),
            4 => Ok(DivError::InvalidEps {
                eps: BinRead::read_bin(r)?,
            }),
            5 => {
                // The strategy itself was collapsed to a message on
                // encode; resurface it as the closest structured form.
                let problem: Problem = BinRead::read_bin(r)?;
                let message: String = BinRead::read_bin(r)?;
                let _ = message;
                Ok(DivError::UnsupportedStrategy {
                    problem,
                    strategy: crate::task::Strategy::ThreeRound,
                })
            }
            6 => Ok(DivError::InvalidMemoryLimit),
            7 => Ok(DivError::MalformedPartitions {
                reason: BinRead::read_bin(r)?,
            }),
            8 => Ok(DivError::InvalidShards),
            9 => Ok(DivError::CorruptState {
                reason: BinRead::read_bin(r)?,
            }),
            10 => Ok(DivError::ShardUnavailable {
                shard: BinRead::read_bin(r)?,
            }),
            11 => Ok(DivError::PoolUnavailable {
                healthy: BinRead::read_bin(r)?,
                total: BinRead::read_bin(r)?,
            }),
            12 => Ok(DivError::TransientFailure {
                site: BinRead::read_bin(r)?,
            }),
            13 => Ok(DivError::ProjectionMissing),
            tag => Err(WireError::BadTag {
                what: "DivError",
                tag,
                offset,
            }),
        }
    }
}

// ---- domain types ---------------------------------------------------

impl BinWrite for Projection {
    fn write_bin(&self, out: &mut Vec<u8>) {
        put_f64(out, self.eps);
        self.seed.write_bin(out);
    }
}

impl BinRead for Projection {
    fn read_bin(r: &mut BinReader<'_>) -> Result<Self, WireError> {
        Ok(Projection {
            eps: BinRead::read_bin(r)?,
            seed: BinRead::read_bin(r)?,
        })
    }
}

impl BinWrite for Task {
    fn write_bin(&self, out: &mut Vec<u8>) {
        self.problem().write_bin(out);
        self.k().write_bin(out);
        self.budget_spec().write_bin(out);
        self.thread_cap().write_bin(out);
        self.projection_spec().write_bin(out);
    }
}

impl BinRead for Task {
    fn read_bin(r: &mut BinReader<'_>) -> Result<Self, WireError> {
        let problem: Problem = BinRead::read_bin(r)?;
        let k: usize = BinRead::read_bin(r)?;
        let budget: Budget = BinRead::read_bin(r)?;
        let threads: Option<usize> = BinRead::read_bin(r)?;
        let projection: Option<Projection> = BinRead::read_bin(r)?;
        // The builder normalizes threads(0) back to None, matching the
        // accessor the encoder read.
        let task = Task::new(problem, k)
            .budget(budget)
            .threads(threads.unwrap_or(0));
        Ok(match projection {
            Some(p) => task.project(p.eps, p.seed),
            None => task,
        })
    }
}

impl BinWrite for VecPoint {
    fn write_bin(&self, out: &mut Vec<u8>) {
        put_varint(out, self.coords().len() as u64);
        for &c in self.coords() {
            put_f64(out, c);
        }
    }
}

impl BinRead for VecPoint {
    fn read_bin(r: &mut BinReader<'_>) -> Result<Self, WireError> {
        let len = r.read_len("VecPoint coords")?;
        let mut coords = Vec::with_capacity(len);
        for _ in 0..len {
            coords.push(r.read_f64()?);
        }
        Ok(VecPoint::new(coords))
    }
}

impl<P: BinWrite> BinWrite for Report<P> {
    fn write_bin(&self, out: &mut Vec<u8>) {
        self.problem.write_bin(out);
        self.backend.write_bin(out);
        self.k.write_bin(out);
        self.k_prime.write_bin(out);
        self.coreset_size.write_bin(out);
        self.coreset_radius.write_bin(out);
        self.indices.write_bin(out);
        self.points.write_bin(out);
        self.value.write_bin(out);
        self.timings.write_bin(out);
        self.memory.write_bin(out);
        self.certificate.write_bin(out);
        self.degradation.write_bin(out);
        self.telemetry.write_bin(out);
    }
}

impl<P: BinRead> BinRead for Report<P> {
    fn read_bin(r: &mut BinReader<'_>) -> Result<Self, WireError> {
        Ok(Report {
            problem: BinRead::read_bin(r)?,
            backend: BinRead::read_bin(r)?,
            k: BinRead::read_bin(r)?,
            k_prime: BinRead::read_bin(r)?,
            coreset_size: BinRead::read_bin(r)?,
            coreset_radius: BinRead::read_bin(r)?,
            indices: BinRead::read_bin(r)?,
            points: BinRead::read_bin(r)?,
            value: BinRead::read_bin(r)?,
            timings: BinRead::read_bin(r)?,
            memory: BinRead::read_bin(r)?,
            certificate: BinRead::read_bin(r)?,
            degradation: BinRead::read_bin(r)?,
            telemetry: BinRead::read_bin(r)?,
        })
    }
}

impl<P: BinWrite> BinWrite for Coreset<P> {
    fn write_bin(&self, out: &mut Vec<u8>) {
        // One shared length for the three parallel arrays: the equal-
        // length invariant is structural on the wire, not re-checked.
        put_varint(out, self.points().len() as u64);
        for p in self.points() {
            p.write_bin(out);
        }
        for &s in self.sources() {
            put_varint(out, s);
        }
        for &w in self.weights() {
            put_varint(out, w as u64);
        }
        self.k_prime().write_bin(out);
        put_f64(out, self.radius());
    }
}

impl<P: BinRead> BinRead for Coreset<P> {
    fn read_bin(r: &mut BinReader<'_>) -> Result<Self, WireError> {
        let len = r.read_len("Coreset")?;
        let mut points = Vec::with_capacity(len);
        for _ in 0..len {
            points.push(P::read_bin(r)?);
        }
        let mut sources = Vec::with_capacity(len);
        for _ in 0..len {
            sources.push(r.read_varint()?);
        }
        let mut weights = Vec::with_capacity(len);
        for _ in 0..len {
            weights.push(usize::read_bin(r)?);
        }
        let k_prime = usize::read_bin(r)?;
        let radius = r.read_f64()?;
        // `Coreset::new` panics on invariant violations; pre-validate
        // so corrupt bytes surface as typed errors instead.
        if let Some(&w) = weights.iter().find(|&&w| w == 0) {
            return Err(WireError::Invalid {
                what: "Coreset",
                reason: format!("weight {w} below the >= 1 invariant"),
            });
        }
        if !(radius.is_finite() && radius >= 0.0) {
            return Err(WireError::Invalid {
                what: "Coreset",
                reason: format!("radius {radius} is not finite and non-negative"),
            });
        }
        Ok(Coreset::new(points, sources, weights, k_prime, radius))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_roundtrip_boundaries() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX - 1, u64::MAX] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            let mut r = BinReader::new(&out);
            assert_eq!(r.read_varint().unwrap(), v);
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn signed_roundtrip_both_signs() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            let mut out = Vec::new();
            put_signed(&mut out, v);
            let mut r = BinReader::new(&out);
            assert_eq!(r.read_signed().unwrap(), v);
        }
    }

    #[test]
    fn truncated_varint_is_typed() {
        let err = BinReader::new(&[0x80, 0x80]).read_varint().unwrap_err();
        assert_eq!(err, WireError::UnexpectedEof { offset: 0 });
    }

    #[test]
    fn overlong_varint_is_typed() {
        let err = BinReader::new(&[0xff; 11]).read_varint().unwrap_err();
        assert_eq!(err, WireError::VarintOverflow { offset: 0 });
    }

    #[test]
    fn non_finite_floats_are_exact() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0] {
            let bytes = to_bytes(&v);
            let back: f64 = from_bytes(&bytes).unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn hostile_length_fails_before_allocating() {
        // Declares u64::MAX elements with 1 byte of backing data.
        let mut bytes = Vec::new();
        put_varint(&mut bytes, u64::MAX);
        bytes.push(0);
        let err = from_bytes::<Vec<u64>>(&bytes).unwrap_err();
        assert!(matches!(
            err,
            WireError::LengthOverflow { len: u64::MAX, .. }
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = to_bytes(&7u64);
        bytes.push(0);
        assert_eq!(
            from_bytes::<u64>(&bytes).unwrap_err(),
            WireError::TrailingBytes { remaining: 1 }
        );
    }

    #[test]
    fn task_roundtrips_through_the_builder() {
        let tasks = [
            Task::new(Problem::RemoteEdge, 3),
            Task::new(Problem::RemoteCycle, 9)
                .budget(Budget::KPrime(40))
                .threads(4),
            Task::new(Problem::RemoteClique, 2).budget(Budget::Eps { eps: 0.25, dim: 3 }),
            Task::new(Problem::RemoteStar, 5).budget(Budget::Auto {
                eps: 0.5,
                cap: Some(64),
            }),
        ];
        for task in tasks {
            let back: Task = from_bytes(&to_bytes(&task)).unwrap();
            assert_eq!(back, task);
        }
    }

    #[test]
    fn div_errors_roundtrip() {
        let errors = [
            DivError::EmptyInput,
            DivError::InvalidK { k: 5, n: Some(3) },
            DivError::InvalidK { k: 0, n: None },
            DivError::BudgetTooSmall { k_prime: 2, k: 6 },
            DivError::InvalidEps { eps: 1.5 },
            DivError::InvalidMemoryLimit,
            DivError::MalformedPartitions {
                reason: "dup".into(),
            },
            DivError::InvalidShards,
            DivError::CorruptState {
                reason: "bit flip".into(),
            },
            DivError::ShardUnavailable { shard: 3 },
            DivError::PoolUnavailable {
                healthy: 1,
                total: 4,
            },
            DivError::TransientFailure {
                site: "serve.query".into(),
            },
        ];
        for err in errors {
            let back: DivError = from_bytes(&to_bytes(&err)).unwrap();
            assert_eq!(back, err);
        }
    }

    #[test]
    fn corrupt_coreset_weights_are_typed_not_panics() {
        let coreset = Coreset::new(
            vec![VecPoint::from([0.0]), VecPoint::from([2.0])],
            vec![0, 1],
            vec![1, 3],
            4,
            0.5,
        );
        let mut bytes = to_bytes(&coreset);
        // The weights sit between the sources and k'; zero the last
        // weight varint (value 3 at the known offset from the end:
        // k_prime byte + 8 radius bytes + itself).
        let weight_pos = bytes.len() - 8 - 1 - 1;
        assert_eq!(bytes[weight_pos], 3);
        bytes[weight_pos] = 0;
        let err = from_bytes::<Coreset<VecPoint>>(&bytes).unwrap_err();
        assert!(
            matches!(
                err,
                WireError::Invalid {
                    what: "Coreset",
                    ..
                }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn corrupt_coreset_radius_is_typed_not_panics() {
        let coreset = Coreset::new(vec![VecPoint::from([0.0])], vec![0], vec![1], 2, 1.0);
        let mut bytes = to_bytes(&coreset);
        let radius_pos = bytes.len() - 8;
        bytes[radius_pos..].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        let err = from_bytes::<Coreset<VecPoint>>(&bytes).unwrap_err();
        assert!(matches!(
            err,
            WireError::Invalid {
                what: "Coreset",
                ..
            }
        ));
    }
}
