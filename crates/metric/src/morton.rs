//! Morton (Z-order) sorting of flat coordinate rows: the locality order
//! of GMM's block path (`diversity_core::gmm`), which reads the rows
//! [`crate::Metric::euclidean_rows`] hands over.
//!
//! Each coordinate is quantized over the rows' common bounding cube and
//! the bits of the quantized coordinates are interleaved into one
//! 64-bit code, so rows close in space tend to get close codes.
//! Sorting by `(code, position)` is deterministic. Only speed depends
//! on the order: GMM's block path is exact for any permutation.

/// Sorts `rows` (row-major, `dim` coordinates per row) along a Morton
/// curve. Returns the sorted rows and `order`, with `order[q]` the
/// position in `rows` of the sorted buffer's `q`-th row; ties in code
/// go to the smaller position. Rows are expected finite (the hook
/// refuses anything else); a non-finite one is still placed, somewhere.
///
/// # Panics
/// Panics if `dim == 0` or `rows.len()` is not a multiple of `dim`.
pub fn morton_sort(rows: &[f64], dim: usize) -> (Vec<f64>, Vec<usize>) {
    assert!(
        dim > 0 && rows.len().is_multiple_of(dim),
        "rows must be whole rows of a positive dimension"
    );
    let n = rows.len() / dim;
    if n == 0 {
        return (Vec::new(), Vec::new());
    }
    let mut lo = vec![f64::INFINITY; dim];
    let mut hi = vec![f64::NEG_INFINITY; dim];
    for c in rows.chunks_exact(dim) {
        for j in 0..dim {
            lo[j] = lo[j].min(c[j]);
            hi[j] = hi[j].max(c[j]);
        }
    }

    // A key is the code above the position's bits, so one sort of plain
    // integers orders by code, then position.
    let index_bits = u64::BITS - (n as u64 - 1).leading_zeros();
    let bits = ((u64::BITS - index_bits) / dim as u32).min(32);
    let top = (1u64 << bits) - 1;
    // One scale for every axis, so the curve's cells are cubes.
    let span = (0..dim).map(|j| hi[j] - lo[j]).fold(0.0, f64::max);
    let scale = if span > 0.0 && span.is_finite() {
        top as f64 / span
    } else {
        0.0
    };
    let quantize = |x: f64, j: usize| (((x - lo[j]) * scale) as u64).min(top);
    let mut keys: Vec<u64> = rows
        .chunks_exact(dim)
        .enumerate()
        .map(|(i, c)| {
            let code = match dim {
                1 => quantize(c[0], 0),
                2 => spread2(quantize(c[0], 0)) << 1 | spread2(quantize(c[1], 1)),
                3 => {
                    spread3(quantize(c[0], 0)) << 2
                        | spread3(quantize(c[1], 1)) << 1
                        | spread3(quantize(c[2], 2))
                }
                _ => {
                    let mut code = 0u64;
                    for b in (0..bits).rev() {
                        for (j, &x) in c.iter().enumerate() {
                            code = code << 1 | (quantize(x, j) >> b & 1);
                        }
                    }
                    code
                }
            };
            code << index_bits | i as u64
        })
        .collect();
    keys.sort_unstable();

    let mask = (1u64 << index_bits) - 1;
    let order: Vec<usize> = keys.iter().map(|&key| (key & mask) as usize).collect();
    let mut sorted = Vec::with_capacity(rows.len());
    for &i in &order {
        sorted.extend_from_slice(&rows[i * dim..(i + 1) * dim]);
    }
    (sorted, order)
}

/// Spreads the low 32 bits of `x` to the even bit positions.
fn spread2(x: u64) -> u64 {
    let mut x = x & 0xffff_ffff;
    x = (x | x << 16) & 0x0000_ffff_0000_ffff;
    x = (x | x << 8) & 0x00ff_00ff_00ff_00ff;
    x = (x | x << 4) & 0x0f0f_0f0f_0f0f_0f0f;
    x = (x | x << 2) & 0x3333_3333_3333_3333;
    (x | x << 1) & 0x5555_5555_5555_5555
}

/// Spreads the low 21 bits of `x` to every third bit position.
fn spread3(x: u64) -> u64 {
    let mut x = x & 0x1f_ffff;
    x = (x | x << 32) & 0x001f_0000_0000_ffff;
    x = (x | x << 16) & 0x001f_0000_ff00_00ff;
    x = (x | x << 8) & 0x100f_00f0_0f00_f00f;
    x = (x | x << 4) & 0x10c3_0c30_c30c_30c3;
    (x | x << 2) & 0x1249_2492_4924_9249
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Euclidean, Metric, VecPoint};

    /// Interleaves by the bit loop, the reference for the spreads.
    fn interleave(q: &[u64], bits: u32) -> u64 {
        let mut code = 0u64;
        for b in (0..bits).rev() {
            for &qj in q {
                code = code << 1 | (qj >> b & 1);
            }
        }
        code
    }

    /// The hook's rows, then their Morton order.
    fn sorted(points: &[VecPoint], max_dim: usize) -> Option<(Vec<f64>, Vec<usize>)> {
        let (rows, dim) = Euclidean.euclidean_rows(points, max_dim)?;
        Some(morton_sort(&rows, dim))
    }

    #[test]
    fn spreads_match_the_bit_loop() {
        for &(x, y, z) in &[
            (0u64, 0u64, 0u64),
            (1, 2, 3),
            (0x1f_ffff, 0, 0x15_5555),
            (0x12_3456, 0x0a_bcde, 0x1f_ffff),
        ] {
            assert_eq!(
                spread3(x) << 2 | spread3(y) << 1 | spread3(z),
                interleave(&[x, y, z], 21)
            );
        }
        for &(x, y) in &[(0u64, 0u64), (0xffff_ffff, 1), (0x8000_0001, 0x1234_5678)] {
            assert_eq!(spread2(x) << 1 | spread2(y), interleave(&[x, y], 32));
        }
    }

    #[test]
    fn order_is_a_permutation_following_the_curve() {
        let pts: Vec<VecPoint> = [[3.0, 3.0], [0.0, 0.0], [3.0, 0.0], [0.0, 3.0], [0.0, 0.0]]
            .iter()
            .map(|&c| VecPoint::from(c))
            .collect();
        // Z order over the four corners: (0,0) twice, ties by position;
        // then (0,3) before (3,0), as x takes the higher bit of each
        // interleaved pair; then (3,3).
        let (rows, order) = sorted(&pts, 2).expect("2-D finite points");
        assert_eq!(order, vec![1, 4, 3, 2, 0]);
        for (q, &i) in order.iter().enumerate() {
            assert_eq!(&rows[2 * q..2 * q + 2], pts[i].coords());
        }
    }

    #[test]
    fn refuses_what_it_cannot_order() {
        let p = |c: &[f64]| VecPoint::from(c);
        assert!(sorted(&[], 3).is_none());
        assert!(sorted(&[p(&[1.0, 2.0, 3.0, 4.0])], 3).is_none());
        assert!(sorted(&[p(&[1.0]), p(&[1.0, 2.0])], 3).is_none());
        assert!(sorted(&[p(&[1.0, 2.0]), p(&[1.0])], 3).is_none());
        assert!(sorted(&[p(&[])], 3).is_none());
        // Coincident points have a zero-width box: one code, position order.
        let same = vec![p(&[2.0, 2.0]); 3];
        assert_eq!(
            sorted(&same, 3).map(|(_, order)| order),
            Some(vec![0, 1, 2])
        );
        // One point needs no position bits.
        assert_eq!(
            sorted(&[p(&[5.0])], 1).map(|(_, order)| order),
            Some(vec![0])
        );
        assert_eq!(morton_sort(&[], 2), (Vec::new(), Vec::new()));
    }

    /// `VecPoint::new` rejects non-finite coordinates in debug builds.
    #[test]
    #[cfg(not(debug_assertions))]
    fn refuses_non_finite_coordinates() {
        for bad in [f64::NAN, f64::INFINITY] {
            let pts = vec![VecPoint::new(vec![0.0, 1.0]), VecPoint::new(vec![bad, 1.0])];
            assert!(sorted(&pts, 3).is_none());
        }
    }
}
