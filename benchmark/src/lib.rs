//! Support code for the `divmax-benchmark` binary: the metric
//! catalog, percentiles, the span tracer with its self-time and
//! layer-sum arithmetic, and the result record. Everything here is
//! pure bookkeeping so the unit tests in `tests/` can pin it; the
//! workloads themselves live in the binary.

pub mod catalog;
pub mod record;
pub mod stats;
pub mod trace;

/// A small deterministic generator (SplitMix64) for the benchmark's
/// own choices: the churn op mix and the fresh points it inserts. The
/// same seed always gives the same sequence.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform value in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}
