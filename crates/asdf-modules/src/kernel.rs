//! SIMD-friendly squared-distance kernels and the contiguous storage they
//! read from.
//!
//! The black-box analysis is dominated by nearest-centroid scans over
//! ~120-dimensional metric vectors (paper §4.2: log-scaled 1-NN against
//! k-means centroids). Two things keep that scan from vectorizing when
//! centroids live in a `Vec<Vec<f64>>`:
//!
//! * every candidate chases a fresh heap pointer, so the scan's memory
//!   stream is ragged rather than a single linear walk;
//! * a strict left-to-right `acc += d*d` fold is one serial dependency
//!   chain, which caps throughput at one add per FP-add latency.
//!
//! This module fixes both. [`CentroidBlock`] stores all centroids back to
//! back in one flat, row-major `Vec<f64>`, and the kernels ([`dist2_x4`],
//! [`dist2_bounded_x4`], and the fused [`argmin_dist2`]) accumulate into
//! **four independent lanes** that are folded once at the end. Four lanes
//! break the dependency chain, and LLVM auto-vectorizes the inner loop
//! for whatever vector width the build targets, without any unstable
//! `std::simd` dependency. There is one body per kernel and no runtime
//! dispatch: the loop is add-latency-bound, so a copy recompiled for
//! wider registers measured no faster (DESIGN.md, "Kernel layout").
//!
//! # The lane-fold accumulation contract
//!
//! The 4-lane order is the *canonical* semantics of squared distance in
//! this workspace: lane `j` accumulates components `j, j+4, j+8, ...`,
//! and the total is folded as `(acc0 + acc1) + (acc2 + acc3)`.
//! [`dist2_x4`], its early-exit form and the fused scan all use that
//! order, so their results are **bitwise identical** (pinned by the
//! `kernel_prop` property tests against an independent reference).
//!
//! # The single-precision screen kernels
//!
//! [`ln_f32`] and [`dist2_f32x16`] are the two kernels of the certified
//! `f32` screen in front of [`crate::training::Classifier::classify`]:
//! a branch-free logarithm that LLVM vectorizes over a whole node row,
//! and a 16-lane `f32` squared distance. Neither result is ever emitted.
//! The screen uses them to propose a nearest centroid, and keeps the
//! proposal only when an error budget proves that the `f64` path above
//! would have returned the same index. [`LN_F32_TOL`] is the logarithm's
//! share of that budget, pinned by `kernel_prop` over every `f32`
//! mantissa.

/// Components per accumulation lane group.
pub const LANES: usize = 4;

/// Components between early-exit bound checks in [`dist2_bounded_x4`]
/// (four lane groups).
const BOUND_CHUNK: usize = 4 * LANES;

/// A contiguous, row-major matrix of `f64` rows, built once and scanned
/// many times: every row is `dim` components, stored back to back in one
/// allocation.
///
/// This is the storage behind [`crate::training::BlackBoxModel`]'s
/// centroids.
///
/// # Examples
///
/// ```
/// use asdf_modules::kernel::CentroidBlock;
///
/// let block = CentroidBlock::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
/// assert_eq!(block.len(), 2);
/// assert_eq!(block.dim(), 3);
/// assert_eq!(block.row(1), &[4.0, 5.0, 6.0]);
/// assert_eq!(block.rows().count(), 2);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CentroidBlock {
    data: Vec<f64>,
    dim: usize,
    n_rows: usize,
}

impl CentroidBlock {
    /// Creates an empty block whose future rows have `dim` components.
    pub fn with_dim(dim: usize) -> Self {
        CentroidBlock {
            data: Vec::new(),
            dim,
            n_rows: 0,
        }
    }

    /// Builds a block from ragged storage. The dimension is taken from the
    /// first row; an empty slice yields an empty zero-dimensional block.
    ///
    /// # Panics
    ///
    /// Panics if the rows do not all share one length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let dim = rows.first().map_or(0, Vec::len);
        let mut block = CentroidBlock::with_dim(dim);
        for row in rows {
            block.push_row(row);
        }
        block
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.dim()`.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.dim, "row length must match block dim");
        self.data.extend_from_slice(row);
        self.n_rows += 1;
    }

    /// Number of components per row.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.n_rows
    }

    /// Whether the block has no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.n_rows, "row {i} out of {}", self.n_rows);
        &self.data[i * self.dim..][..self.dim]
    }

    /// Mutable view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.n_rows, "row {i} out of {}", self.n_rows);
        &mut self.data[i * self.dim..][..self.dim]
    }

    /// Iterates the rows in order.
    pub fn rows(&self) -> impl Iterator<Item = &[f64]> + '_ {
        (0..self.n_rows).map(move |i| self.row(i))
    }

    /// Copies the block back out into ragged storage.
    pub fn to_rows(&self) -> Vec<Vec<f64>> {
        self.rows().map(<[f64]>::to_vec).collect()
    }
}

/// Squared Euclidean distance in the canonical 4-lane accumulation order.
///
/// Lane `j` accumulates components `j, j+4, j+8, ...` (a shorter-than-4
/// tail lands in lanes `0..tail`), and the lanes are folded as
/// `(acc0 + acc1) + (acc2 + acc3)`. The order is part of the public
/// contract: [`dist2_bounded_x4`] and [`argmin_dist2`] produce bitwise
/// identical sums.
///
/// Only the common prefix is compared when the slices' lengths differ
/// (`zip` semantics).
pub fn dist2_x4(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut acc = [0.0f64; LANES];
    let mut chunks_a = a.chunks_exact(LANES);
    let mut chunks_b = b.chunks_exact(LANES);
    for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
        for j in 0..LANES {
            let d = ca[j] - cb[j];
            acc[j] += d * d;
        }
    }
    for (j, (x, y)) in chunks_a
        .remainder()
        .iter()
        .zip(chunks_b.remainder())
        .enumerate()
    {
        let d = x - y;
        acc[j] += d * d;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// [`dist2_x4`] with early exit: returns the folded partial sum (which is
/// `>= bound`) as soon as it reaches `bound`, checking once every 16
/// components.
///
/// Lane partial sums are monotone (squared terms are non-negative) and
/// the fold of non-negative lanes is monotone in each lane, so an
/// abandoned candidate provably cannot beat `bound`. A completed
/// computation is bitwise identical to [`dist2_x4`].
#[inline]
pub fn dist2_bounded_x4(a: &[f64], b: &[f64], bound: f64) -> f64 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut acc = [0.0f64; LANES];
    let mut chunks_a = a.chunks_exact(BOUND_CHUNK);
    let mut chunks_b = b.chunks_exact(BOUND_CHUNK);
    for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
        for g in 0..BOUND_CHUNK / LANES {
            for j in 0..LANES {
                let d = ca[g * LANES + j] - cb[g * LANES + j];
                acc[j] += d * d;
            }
        }
        let partial = (acc[0] + acc[1]) + (acc[2] + acc[3]);
        if partial >= bound {
            return partial;
        }
    }
    let mut tail_a = chunks_a.remainder().chunks_exact(LANES);
    let mut tail_b = chunks_b.remainder().chunks_exact(LANES);
    for (ca, cb) in (&mut tail_a).zip(&mut tail_b) {
        for j in 0..LANES {
            let d = ca[j] - cb[j];
            acc[j] += d * d;
        }
    }
    for (j, (x, y)) in tail_a
        .remainder()
        .iter()
        .zip(tail_b.remainder())
        .enumerate()
    {
        let d = x - y;
        acc[j] += d * d;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// Fused nearest-row scan: the index of the row of `block` nearest to
/// `query` in squared Euclidean distance ([`dist2_x4`] semantics), with
/// per-candidate early exit against the best distance so far. Ties keep
/// the lowest index. Returns 0 for an empty block.
///
/// # Panics
///
/// Panics if `query.len() != block.dim()`.
pub fn argmin_dist2(query: &[f64], block: &CentroidBlock) -> usize {
    assert_eq!(
        query.len(),
        block.dim(),
        "query length must match block dim"
    );
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (i, row) in block.rows().enumerate() {
        let d = dist2_bounded_x4(query, row, best_d);
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

/// Accumulator lanes of [`dist2_f32x16`], and the multiple the screen
/// pads its `f32` rows to.
pub const LANES_F32: usize = 16;

/// Exclusive upper end of the `1 + x` inputs on which [`ln_f32`] is pinned
/// to [`LN_F32_TOL`]: `[1, LN_F32_MAX)`, exponents 0 to 99.
pub const LN_F32_MAX: f64 = 1e30;

/// The error bound [`ln_f32`] is pinned to on `[1, LN_F32_MAX)`:
/// `|ln_f32(y) - ln y| <= LN_F32_TOL * (1 + |ln y|)`, with `2^-21`.
pub const LN_F32_TOL: f64 = 1.0 / (1u64 << 21) as f64;

/// Natural logarithm in single precision, for `y` in `[1, LN_F32_MAX)`.
///
/// `y = 2^e * m` with `m` in `[sqrt(1/2), sqrt(2))`, read off the bits, and
/// `ln m = 2 atanh(s)` with `s = (m - 1) / (m + 1)`, `|s| <= 0.172`, as the
/// odd series to `s^7` (truncation under `3e-8`). There is no branch and
/// one division, so a loop over a row vectorizes. Within `[1,
/// LN_F32_MAX)` the error is at most [`LN_F32_TOL`]` * (1 + |ln y|)`;
/// `kernel_prop` checks that over every `f32` mantissa and every
/// exponent. Outside it the result is unspecified but never a panic.
#[inline]
pub fn ln_f32(y: f32) -> f32 {
    /// The bits of `sqrt(1/2)`: subtracting them moves `y`'s exponent
    /// boundary from 1 to `sqrt(1/2)`.
    const SQRT_HALF: u32 = 0x3f35_04f3;
    let ix = y.to_bits().wrapping_sub(SQRT_HALF);
    let e = ((ix as i32) >> 23) as f32;
    let m = f32::from_bits((ix & 0x007f_ffff) + SQRT_HALF);
    let s = (m - 1.0) / (m + 1.0);
    let s2 = s * s;
    let series = s + s * (s2 * (1.0 / 3.0 + s2 * (1.0 / 5.0 + s2 * (1.0 / 7.0))));
    e * std::f32::consts::LN_2 + 2.0 * series
}

/// Squared Euclidean distance in `f32` over [`LANES_F32`] independent
/// accumulators, folded as a pairwise tree.
///
/// Lane `j` accumulates components `j, j+16, j+32, ...`, a tail included,
/// so each lane sums at most `len.div_ceil(16)` terms and the fold adds
/// four levels: the count the screen's rounding bound is built on
/// (`kernel_prop` pins it). The screen's rows are zero-padded to a
/// multiple of [`LANES_F32`], so it never has a tail. Only the common
/// prefix is compared when the lengths differ.
pub fn dist2_f32x16(a: &[f32], b: &[f32]) -> f32 {
    fn accumulate(acc: &mut [f32; LANES_F32], a: &[f32], b: &[f32]) {
        for j in 0..LANES_F32 {
            let d = a[j] - b[j];
            acc[j] += d * d;
        }
    }
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut acc = [0.0f32; LANES_F32];
    let mut chunks_a = a.chunks_exact(LANES_F32);
    let mut chunks_b = b.chunks_exact(LANES_F32);
    for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
        accumulate(&mut acc, ca, cb);
    }
    let tail = chunks_a.remainder().len();
    if tail > 0 {
        let (mut ta, mut tb) = ([0.0f32; LANES_F32], [0.0f32; LANES_F32]);
        ta[..tail].copy_from_slice(chunks_a.remainder());
        tb[..tail].copy_from_slice(chunks_b.remainder());
        accumulate(&mut acc, &ta, &tb);
    }
    let half: [f32; 8] = std::array::from_fn(|j| acc[j] + acc[j + 8]);
    let quarter: [f32; 4] = std::array::from_fn(|j| half[j] + half[j + 4]);
    (quarter[0] + quarter[2]) + (quarter[1] + quarter[3])
}

/// The widest vector unit the distance kernels were compiled for:
/// `"avx2"` when the build enables it (`-C target-feature=+avx2` or a
/// `target-cpu` that has it), `"scalar"` — the target's baseline —
/// otherwise.
///
/// Part of the host fingerprint perf-history records carry — two builds
/// with different vector widths are different populations for trend
/// analysis.
pub fn simd_dispatch() -> &'static str {
    if cfg!(target_feature = "avx2") {
        "avx2"
    } else {
        "scalar"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argmin_ties_keep_the_lowest_index() {
        let rows = vec![vec![1.0, 1.0], vec![3.0, 3.0], vec![1.0, 1.0]];
        let block = CentroidBlock::from_rows(&rows);
        assert_eq!(argmin_dist2(&[1.0, 1.0], &block), 0);
        assert_eq!(argmin_dist2(&[3.1, 3.0], &block), 1);
    }

    #[test]
    fn empty_block_and_empty_dim() {
        let block = CentroidBlock::with_dim(3);
        assert_eq!(argmin_dist2(&[0.0, 0.0, 0.0], &block), 0);
        let zero_dim = CentroidBlock::from_rows(&[vec![], vec![]]);
        assert_eq!(zero_dim.dim(), 0);
        assert_eq!(zero_dim.len(), 2);
        assert_eq!(argmin_dist2(&[], &zero_dim), 0);
    }
}
