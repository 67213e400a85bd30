//! SMM-EXT: streaming core-set with delegates (Section 4, Theorem 2).

use crate::doubling::DoublingCore;
use diversity_core::coreset::Coreset;
use metric::Metric;

// The delegate-set payload lives in `diversity_core::doubling`;
// re-exported here for compatibility.
pub use crate::doubling::DelegateSet;

/// One-pass core-set construction for remote-clique, remote-star,
/// remote-bipartition and remote-tree: each center accumulates up to
/// `k` delegates, ensuring the injective proxy function Lemma 2 needs.
///
/// With `k' = (64/ε')^D·k` the output `T' = ∪E_t` is a `(1+ε)`-core-set
/// (Theorem 2), in `O((1/ε)^D k²)` memory.
pub struct SmmExt<P, M> {
    core: DoublingCore<P, DelegateSet<P>>,
    metric: M,
    k: usize,
}

/// Output of [`SmmExt::finish`].
#[derive(Clone, Debug)]
pub struct SmmExtResult<P> {
    /// The core-set `T' = ∪_t E_t` (center-first per delegate set).
    pub coreset: Vec<P>,
    /// Stream arrival positions (0-based) of `coreset`, in lockstep.
    pub positions: Vec<u64>,
    /// The kernel `T` (centers only).
    pub kernel: Vec<P>,
    /// The center budget `k'` the pass ran with.
    pub k_prime: usize,
    /// Number of phases executed.
    pub phases: usize,
    /// Final threshold `d_ℓ`.
    pub final_threshold: f64,
    /// Peak resident points, for the memory experiments.
    pub peak_memory_points: usize,
}

impl<P> SmmExtResult<P> {
    /// Covering-radius certificate over the processed stream: `4·d_ℓ`
    /// (the core-set contains the kernel, so Lemma 3's bound applies).
    pub fn radius(&self) -> f64 {
        4.0 * self.final_threshold
    }

    /// Converts the result into the typed composable [`Coreset`]
    /// artifact: sources are stream arrival positions, weights are 1.
    pub fn into_coreset(self) -> Coreset<P> {
        let radius = self.radius();
        Coreset::unweighted(self.coreset, self.positions, self.k_prime, radius)
    }
}

impl<P: Clone, M: Metric<P>> SmmExt<P, M> {
    /// Creates the stream processor.
    ///
    /// # Panics
    /// Panics unless `1 <= k <= k_prime`.
    pub fn new(metric: M, k: usize, k_prime: usize) -> Self {
        Self {
            core: DoublingCore::new(k, k_prime),
            metric,
            k,
        }
    }

    /// Processes one stream point.
    pub fn push(&mut self, point: P) {
        self.core.push(point, &self.metric);
    }

    /// Current resident points (centers + delegates + removed).
    pub fn memory_points(&self) -> usize {
        self.core.memory_points()
    }

    /// The checkpointable state (serialize it with serde to persist a
    /// long-running stream; the metric is re-supplied on [`Self::resume`]).
    pub fn state(&self) -> &DoublingCore<P, DelegateSet<P>> {
        &self.core
    }

    /// Resumes from a checkpointed state.
    pub fn resume(metric: M, state: DoublingCore<P, DelegateSet<P>>) -> Self {
        let k = state.k();
        Self {
            core: state,
            metric,
            k,
        }
    }

    /// Ends the stream and extracts the delegate-augmented core-set.
    pub fn finish(self) -> SmmExtResult<P> {
        let peak = self.core.memory_points();
        let k = self.k;
        let k_prime = self.core.k_prime();
        let fin = self.core.finish();
        let kernel: Vec<P> = fin.centers.iter().map(|c| c.point.clone()).collect();
        let mut coreset: Vec<P> = Vec::new();
        let mut positions: Vec<u64> = Vec::new();
        for c in fin.centers {
            let (points, poss) = c.payload.into_indexed_delegates();
            coreset.extend(points);
            positions.extend(poss);
        }
        // Safety net mirroring SMM's padding: delegates normally keep
        // |T'| >= k for streams of >= k points, but pad from M anyway
        // so downstream code can rely on it unconditionally.
        let mut m_iter = fin.removed.into_iter().zip(fin.removed_positions);
        while coreset.len() < k {
            match m_iter.next() {
                Some((p, pos)) => {
                    coreset.push(p);
                    positions.push(pos);
                }
                None => break,
            }
        }
        SmmExtResult {
            coreset,
            positions,
            kernel,
            k_prime,
            phases: fin.phases,
            final_threshold: fin.final_threshold,
            peak_memory_points: peak,
        }
    }

    /// Convenience: run over an iterator and finish.
    pub fn run(
        metric: M,
        k: usize,
        k_prime: usize,
        stream: impl IntoIterator<Item = P>,
    ) -> SmmExtResult<P> {
        let mut s = Self::new(metric, k, k_prime);
        for p in stream {
            s.push(p);
        }
        s.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metric::{Euclidean, VecPoint};

    fn stream(xs: &[f64]) -> Vec<VecPoint> {
        xs.iter().map(|&x| VecPoint::from([x])).collect()
    }

    #[test]
    fn coreset_at_least_k_for_long_streams() {
        let xs: Vec<f64> = (0..500)
            .map(|i| (i % 3) as f64 * 100.0 + i as f64 * 1e-4)
            .collect();
        let res = SmmExt::run(Euclidean, 6, 8, stream(&xs));
        assert!(res.coreset.len() >= 6, "got {}", res.coreset.len());
    }

    #[test]
    fn memory_bounded_by_k_times_centers() {
        let xs: Vec<f64> = (0..3000).map(|i| ((i * 131) % 1009) as f64).collect();
        let k = 5;
        let k_prime = 9;
        let mut s = SmmExt::new(Euclidean, k, k_prime);
        let mut peak = 0;
        for p in stream(&xs) {
            s.push(p);
            peak = peak.max(s.memory_points());
        }
        // k delegates per center, k'+1 centers, plus one phase's
        // removed set.
        assert!(peak <= k * (k_prime + 1) + (k_prime + 1), "peak {peak}");
    }

    #[test]
    fn delegates_stay_near_their_center() {
        let xs: Vec<f64> = (0..400).map(|i| ((i * 71) % 307) as f64).collect();
        let mut s = SmmExt::new(Euclidean, 4, 6);
        for p in stream(&xs) {
            s.push(p);
        }
        let bound = s.core.radius_bound();
        let res = s.finish();
        // Every delegate is within the coverage bound of some kernel
        // point (delegates were absorbed at <= 4d_i <= 4d_ell, then
        // their center may have merged, adding <= 2d_j hops; 3x the
        // bound is a safe envelope for the test).
        for p in &res.coreset {
            let d = Euclidean.distance_to_set(p, &res.kernel);
            assert!(d <= 3.0 * bound + 1e-9, "delegate at {d}, bound {bound}");
        }
    }

    #[test]
    fn kernel_is_subset_of_coreset() {
        let xs: Vec<f64> = (0..300).map(|i| ((i * 17) % 97) as f64 * 3.3).collect();
        let res = SmmExt::run(Euclidean, 3, 5, stream(&xs));
        for kp in &res.kernel {
            assert!(
                res.coreset.iter().any(|p| p == kp),
                "kernel point missing from coreset"
            );
        }
    }

    #[test]
    fn short_stream_keeps_all() {
        let res = SmmExt::run(Euclidean, 3, 6, stream(&[0.0, 1.0, 2.0, 3.0]));
        assert_eq!(res.coreset.len(), 4);
    }

    #[test]
    fn positions_recover_stream_items() {
        let xs: Vec<f64> = (0..600).map(|i| ((i * 67) % 283) as f64).collect();
        let res = SmmExt::run(Euclidean, 5, 8, stream(&xs));
        assert_eq!(res.positions.len(), res.coreset.len());
        for (p, &pos) in res.coreset.iter().zip(&res.positions) {
            assert_eq!(p.coords()[0], xs[pos as usize], "position {pos}");
        }
        let artifact = res.into_coreset();
        assert_eq!(artifact.k_prime(), 8);
        assert!(
            artifact.certifies(&stream(&xs), &Euclidean, 1e-9),
            "radius certificate must cover the whole stream"
        );
    }
}
