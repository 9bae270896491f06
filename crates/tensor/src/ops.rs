//! Matrix and vector kernels.
//!
//! The three GEMM forms ([`matmul`], [`matmul_transpose_a`],
//! [`matmul_transpose_b`]) share one shape: every `out[i][j]` starts at
//! `+0.0` and adds its `k` products in index order, one rounding per
//! multiply and per add, so blocking, lane-parallel accumulation over
//! `j` and row-parallel execution (rayon, above `PAR_THRESHOLD`
//! multiply-adds) cannot change a result bit. The element-wise kernels
//! ([`axpy`], [`scale`]) are unrolled and pinned to scalar references
//! the same way.
//!
//! # Zeros in the left operand
//! `matmul` and `matmul_transpose_a` skip a term whose `a` factor is
//! `±0.0` (about half of a post-ReLU activation is), so there `0 × inf`
//! and `0 × NaN` contribute nothing. `matmul_transpose_b` multiplies
//! every term through, so the same operands give NaN. With finite
//! operands the two agree bit for bit (adding `±0.0` to a sum that
//! started at `+0.0` changes nothing); with non-finite weights they do
//! not, and `tests/kernels.rs` pins one case per kernel.
//!
//! The skip is a list, not a test in the loop: each row of `a` is read
//! [`ZERO_SKIP_STRIP`] elements at a time, the positions of the
//! non-zero ones are compacted into a stack buffer
//! (`idx[n] = i; n += (v != 0.0)`, no branch on `v`), and the inner
//! `j` loop runs once per listed position. Whether a hidden unit fired
//! is close to a coin flip, so `if a_v == 0.0 { continue }` mispredicts
//! on about every other element, and a misprediction costs more than
//! the ten-column row of multiply-adds it skips: the output layer's
//! GEMMs ran at two to three times their dense cost with it.
//!
//! # Two compiled copies of the train-step kernels
//! Two loops hold most of a client's training time: the GEMM row
//! kernel behind [`matmul`] and [`matmul_transpose_b`], and the rank-1
//! updates of [`matmul_transpose_a_into`]. Each body is written once,
//! as plain `#[inline(always)]` code, and on x86-64 a
//! `#[target_feature(enable = "avx2")]` wrapper compiles it a second
//! time, so the loop vectoriser uses 8 lanes instead of the baseline's
//! 4. Each kernel call asks [`KernelCopy::detect`] which copy to run:
//! AVX2 when `is_x86_feature_detected!("avx2")` says the CPU has it,
//! the portable copy otherwise and on every other target.
//!
//! The copies cannot differ in a bit. Every lane does the IEEE `mul`
//! and `add` the scalar expression names, in the same `k` order; only
//! `avx2` is enabled, not `fma`, so no `a * b + c` can become one
//! rounding. `tests/kernels.rs` runs both copies against the naive
//! references.

use crate::Matrix;
use rayon::prelude::*;
use std::cell::Cell;

/// Problems smaller than this many multiply-adds run sequentially.
const PAR_THRESHOLD: usize = 64 * 64 * 64;

/// Which compiled copy of the train-step kernels runs (module docs).
/// The public kernels run [`KernelCopy::detect`]; the hidden `*_with`
/// entry points take a copy, so tests can run both on an AVX2 host.
#[doc(hidden)]
#[derive(Clone, Copy, Debug)]
pub struct KernelCopy {
    /// Set only by [`KernelCopy::avx2`], after the CPU reported AVX2.
    avx2: bool,
}

impl KernelCopy {
    /// The copy every target compiles, in baseline instructions.
    pub const PORTABLE: Self = Self { avx2: false };

    /// The AVX2 copy, if this CPU has AVX2; `None` on other CPUs and
    /// targets.
    #[must_use]
    pub fn avx2() -> Option<Self> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Some(Self { avx2: true });
        }
        None
    }

    /// The copy the public kernels run: AVX2 when the CPU has it.
    #[must_use]
    pub fn detect() -> Self {
        Self::avx2().unwrap_or(Self::PORTABLE)
    }
}

/// Make the kernel function `$kernel` a [`KernelCopy`] method that runs
/// it in that copy: on x86-64 through a nested wrapper that compiles
/// `$kernel` again with AVX2 and nothing else (module docs). `$kernel`
/// must be `#[inline(always)]`, and so must every helper it calls: code
/// not inlined into the wrapper compiles for the baseline only.
macro_rules! two_copies {
    ($kernel:ident $(<const $c:ident: bool>)? ($($arg:ident: $ty:ty),*)) => {
        impl KernelCopy {
            fn $kernel$(<const $c: bool>)?(self, $($arg: $ty),*) {
                #[cfg(target_arch = "x86_64")]
                #[target_feature(enable = "avx2")]
                fn avx2$(<const $c: bool>)?($($arg: $ty),*) {
                    $kernel$(::<$c>)?($($arg),*);
                }
                if self.avx2 {
                    #[cfg(target_arch = "x86_64")]
                    #[expect(unsafe_code, reason = "a `#[target_feature]` function is unsafe to call")]
                    // SAFETY: `self.avx2` is set only by `KernelCopy::avx2`,
                    // after `is_x86_feature_detected!("avx2")` returned true.
                    return unsafe { avx2$(::<$c>)?($($arg),*) };
                }
                $kernel$(::<$c>)?($($arg),*);
            }
        }
    };
}

two_copies!(gemm_row<const SKIP_ZEROS: bool>(a_row: &[f32], b: &[f32], out_row: &mut [f32]));
two_copies!(rank1_updates(a: &Matrix, b: &Matrix, out: &mut [f32]));

/// Run `kernel` on every `(index, row)` of `out`; rows run in parallel
/// once the GEMM has [`PAR_THRESHOLD`] multiply-adds. An `m x 0` output
/// has nothing to compute.
fn for_each_row(out: &mut Matrix, k: usize, kernel: impl Fn((usize, &mut [f32])) + Sync) {
    let n = out.cols();
    if n == 0 {
        return;
    }
    if out.len() * k >= PAR_THRESHOLD {
        out.as_mut_slice()
            .par_chunks_mut(n)
            .enumerate()
            .for_each(kernel);
    } else {
        out.as_mut_slice()
            .chunks_mut(n)
            .enumerate()
            .for_each(kernel);
    }
}

/// Elements of the left operand compacted at a time by the zero skip
/// (module docs). Public so the kernel tests can straddle it.
pub const ZERO_SKIP_STRIP: usize = 64;

/// The positions of `strip`'s elements that are not `±0.0` (NaN counts
/// as non-zero), ascending, compacted into `idx`: a store and an add
/// per element, no branch on its value. `strip` holds at most
/// [`ZERO_SKIP_STRIP`] elements.
#[inline(always)]
fn nonzero_positions<'a>(strip: &[f32], idx: &'a mut [usize; ZERO_SKIP_STRIP]) -> &'a [usize] {
    let mut count = 0;
    for (i, &v) in strip.iter().enumerate() {
        idx[count] = i;
        count += usize::from(v != 0.0);
    }
    &idx[..count]
}

/// `out_row[j] += a_v * b_row[j]`: the inner loop of every GEMM form.
#[inline(always)]
fn add_scaled_row(out_row: &mut [f32], a_v: f32, b_row: &[f32]) {
    for (o, &b_v) in out_row.iter_mut().zip(b_row) {
        *o += a_v * b_v;
    }
}

/// One output row: `out_row (n) += a_row (k) * b (k x n, row-major)`.
/// `ikj` order streams through `b`'s rows and vectorises the inner `j`
/// loop. A function of its own, not the body of [`gemm_rows`]' closure:
/// there `out_row` and `b` are captures, and the inner loop re-checks
/// them for overlap at every position.
#[inline(always)]
fn gemm_row<const SKIP_ZEROS: bool>(a_row: &[f32], b: &[f32], out_row: &mut [f32]) {
    let n = out_row.len();
    if SKIP_ZEROS {
        let mut idx = [0; ZERO_SKIP_STRIP];
        for (strip_idx, a_strip) in a_row.chunks(ZERO_SKIP_STRIP).enumerate() {
            for &at in nonzero_positions(a_strip, &mut idx) {
                let p = strip_idx * ZERO_SKIP_STRIP + at;
                add_scaled_row(out_row, a_strip[at], &b[p * n..(p + 1) * n]);
            }
        }
    } else {
        for (&a_v, b_row) in a_row.iter().zip(b.chunks_exact(n)) {
            add_scaled_row(out_row, a_v, b_row);
        }
    }
}

/// `out (m x n) += a (m x k) * b (k x n, row-major)`, one output row at
/// a time, in `copy`.
fn gemm_rows<const SKIP_ZEROS: bool>(copy: KernelCopy, a: &Matrix, b: &[f32], out: &mut Matrix) {
    for_each_row(out, a.cols(), |(row_idx, out_row)| {
        copy.gemm_row::<SKIP_ZEROS>(a.row(row_idx), b, out_row);
    });
}

/// `a (m x k) * b (k x n) -> (m x n)`. Skips zeros in `a` (module docs).
///
/// # Panics
/// Panics if the inner dimensions disagree.
#[must_use]
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    matmul_with(KernelCopy::detect(), a, b)
}

/// [`matmul`] in the compiled copy `copy`.
#[doc(hidden)]
#[must_use]
pub fn matmul_with(copy: KernelCopy, a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k) = a.shape();
    let (k2, n) = b.shape();
    assert_eq!(k, k2, "matmul inner dimension mismatch: {k} vs {k2}");
    let mut out = Matrix::zeros(m, n);
    gemm_rows::<true>(copy, a, b.as_slice(), &mut out);
    out
}

/// Reference implementation of [`matmul_transpose_b`]: one scalar dot
/// product per output element, nothing packed. The packed kernel is
/// pinned bit-for-bit against this in `tests/kernels.rs`.
///
/// # Panics
/// Panics if the inner dimensions disagree.
#[must_use]
pub fn matmul_transpose_b_scalar(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k) = a.shape();
    let (n, k2) = b.shape();
    assert_eq!(
        k, k2,
        "matmul_transpose_b inner dimension mismatch: {k} vs {k2}"
    );

    let mut out = Matrix::zeros(m, n);
    for_each_row(&mut out, k, |(row_idx, out_row)| {
        let a_row = a.row(row_idx);
        for (j, o) in out_row.iter_mut().enumerate() {
            let b_row = b.row(j);
            let mut acc = 0.0f32;
            for (&x, &y) in a_row.iter().zip(b_row) {
                acc += x * y;
            }
            *o = acc;
        }
    });
    out
}

thread_local! {
    /// The packed `b^T` of [`matmul_transpose_b`], kept per thread so a
    /// train step does not allocate a weight-sized buffer per call.
    static PACKED_BT: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
}

/// `a * b^T`. Multiplies zeros in `a` through (module docs).
///
/// Shape: `a (m x k) * b (n x k) -> (m x n)`. This is the input-gradient
/// workhorse (`dX = dY * W^T`).
/// `b^T` is packed once per call so the accumulation runs lane-parallel
/// over `j`; each element still sums its products in `k` order, so the
/// result is bit-for-bit [`matmul_transpose_b_scalar`]'s.
///
/// # Panics
/// Panics if the inner dimensions disagree.
#[must_use]
pub fn matmul_transpose_b(a: &Matrix, b: &Matrix) -> Matrix {
    matmul_transpose_b_with(KernelCopy::detect(), a, b)
}

/// [`matmul_transpose_b`] in the compiled copy `copy`.
#[doc(hidden)]
#[must_use]
pub fn matmul_transpose_b_with(copy: KernelCopy, a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k) = a.shape();
    let (n, k2) = b.shape();
    assert_eq!(
        k, k2,
        "matmul_transpose_b inner dimension mismatch: {k} vs {k2}"
    );
    // Taken, not borrowed: a nested call on this thread finds an empty
    // buffer and grows its own.
    let mut bt = PACKED_BT.take();
    bt.resize(k * n, 0.0);
    pack_transposed(b, &mut bt);
    let mut out = Matrix::zeros(m, n);
    gemm_rows::<false>(copy, a, &bt, &mut out);
    PACKED_BT.set(bt);
    out
}

/// `bt (k x n) = b (n x k)^T`, eight rows of `b` at a time so both the
/// reads (eight streams) and the writes (32 contiguous bytes) stay
/// sequential.
fn pack_transposed(b: &Matrix, bt: &mut [f32]) {
    const BLOCK: usize = 8;
    let n = b.rows();
    let mut j0 = 0;
    while j0 + BLOCK <= n {
        let rows: [&[f32]; BLOCK] = std::array::from_fn(|jj| b.row(j0 + jj));
        for (ki, dst) in bt.chunks_exact_mut(n).enumerate() {
            for (d, row) in dst[j0..j0 + BLOCK].iter_mut().zip(&rows) {
                *d = row[ki];
            }
        }
        j0 += BLOCK;
    }
    for j in j0..n {
        for (ki, &v) in b.row(j).iter().enumerate() {
            bt[ki * n + j] = v;
        }
    }
}

/// `a^T * b` into `out`, overwriting it. Skips zeros in `a` (module
/// docs).
///
/// Shape: `a (k x m) * b (k x n) -> (m x n)`. This is the weight-gradient
/// workhorse (`dW = X^T * dY`); layers call it on their own gradient
/// buffer.
///
/// # Panics
/// Panics if the inner dimensions disagree or `out` is not `m x n`.
pub fn matmul_transpose_a_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    matmul_transpose_a_into_with(KernelCopy::detect(), a, b, out);
}

/// [`matmul_transpose_a_into`] in the compiled copy `copy`.
#[doc(hidden)]
pub fn matmul_transpose_a_into_with(copy: KernelCopy, a: &Matrix, b: &Matrix, out: &mut Matrix) {
    let (k, m) = a.shape();
    let (k2, n) = b.shape();
    assert_eq!(
        k, k2,
        "matmul_transpose_a inner dimension mismatch: {k} vs {k2}"
    );
    assert_eq!(out.shape(), (m, n), "matmul_transpose_a output shape");
    let out = out.as_mut_slice();
    out.fill(0.0);
    copy.rank1_updates(a, b, out);
}

/// `out (m x n) += a^T * b` for `a (k x m)`, `b (k x n)`: one rank-1
/// update per row of `a`, in `k` order (which keeps it deterministic),
/// skipping zeros in `a`.
#[inline(always)]
fn rank1_updates(a: &Matrix, b: &Matrix, out: &mut [f32]) {
    let n = b.cols();
    let mut idx = [0; ZERO_SKIP_STRIP];
    for ki in 0..a.rows() {
        let b_row = b.row(ki);
        for (strip_idx, a_strip) in a.row(ki).chunks(ZERO_SKIP_STRIP).enumerate() {
            for &at in nonzero_positions(a_strip, &mut idx) {
                let i = strip_idx * ZERO_SKIP_STRIP + at;
                add_scaled_row(&mut out[i * n..(i + 1) * n], a_strip[at], b_row);
            }
        }
    }
}

/// `a^T * b` as a fresh matrix; see [`matmul_transpose_a_into`].
#[must_use]
pub fn matmul_transpose_a(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.cols(), b.cols());
    matmul_transpose_a_into(a, b, &mut out);
    out
}

/// Reference implementation of [`axpy`]: the plain element-order loop.
///
/// The unrolled variant is pinned bit-for-bit against this in the
/// equivalence proptests — `axpy` is element-wise (no reassociated
/// reduction), so unrolling cannot change any result bit.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn axpy_scalar(alpha: f32, x: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), out.len(), "axpy length mismatch");
    for (o, &v) in out.iter_mut().zip(x) {
        *o += alpha * v;
    }
}

/// Element-wise `out[i] += alpha * x[i]` on flat slices.
///
/// 8-wide unrolled; bit-for-bit identical to [`axpy_scalar`] because
/// each lane computes the exact scalar expression `o + alpha * v` with
/// no fused multiply-add.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn axpy(alpha: f32, x: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), out.len(), "axpy length mismatch");
    let mut xs = x.chunks_exact(8);
    let mut os = out.chunks_exact_mut(8);
    for (o, v) in (&mut os).zip(&mut xs) {
        o[0] += alpha * v[0];
        o[1] += alpha * v[1];
        o[2] += alpha * v[2];
        o[3] += alpha * v[3];
        o[4] += alpha * v[4];
        o[5] += alpha * v[5];
        o[6] += alpha * v[6];
        o[7] += alpha * v[7];
    }
    for (o, &v) in os.into_remainder().iter_mut().zip(xs.remainder()) {
        *o += alpha * v;
    }
}

/// Reference implementation of [`scale`]: the plain element-order loop.
pub fn scale_scalar(alpha: f32, out: &mut [f32]) {
    for o in out.iter_mut() {
        *o *= alpha;
    }
}

/// Element-wise scale in place (8-wide unrolled, bit-for-bit identical
/// to [`scale_scalar`]).
pub fn scale(alpha: f32, out: &mut [f32]) {
    let mut os = out.chunks_exact_mut(8);
    for o in &mut os {
        o[0] *= alpha;
        o[1] *= alpha;
        o[2] *= alpha;
        o[3] *= alpha;
        o[4] *= alpha;
        o[5] *= alpha;
        o[6] *= alpha;
        o[7] *= alpha;
    }
    for o in os.into_remainder() {
        *o *= alpha;
    }
}

/// Dot product of two flat slices.
///
/// # Panics
/// Panics if the slices differ in length.
#[must_use]
pub fn dot(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "dot length mismatch");
    x.iter().zip(y).map(|(&a, &b)| a * b).sum()
}

/// Add a row-vector `bias` (len `n`) to every row of `m (rows x n)`.
///
/// # Panics
/// Panics if `bias.len() != m.cols()`.
pub fn add_bias(m: &mut Matrix, bias: &[f32]) {
    assert_eq!(bias.len(), m.cols(), "bias length mismatch");
    let n = m.cols();
    for row in m.as_mut_slice().chunks_mut(n) {
        for (o, &b) in row.iter_mut().zip(bias) {
            *o += b;
        }
    }
}

/// Column-wise sum of `m` into `out`, overwriting it (bias gradient):
/// every column starts at `+0.0` and adds its rows in order.
///
/// # Panics
/// Panics if `out.len() != m.cols()`.
pub fn col_sum_into(m: &Matrix, out: &mut [f32]) {
    let n = m.cols();
    assert_eq!(out.len(), n, "col_sum output length mismatch");
    out.fill(0.0);
    for row in m.as_slice().chunks(n) {
        for (o, &v) in out.iter_mut().zip(row) {
            *o += v;
        }
    }
}

/// Column-wise sum of `m` as a fresh vector; see [`col_sum_into`].
#[must_use]
pub fn col_sum(m: &Matrix) -> Vec<f32> {
    let mut out = vec![0.0f32; m.cols()];
    col_sum_into(m, &mut out);
    out
}

/// Index of the largest element of `row` (the predicted class; `0` when
/// `row` is empty). Of equal elements, and of two that do not compare
/// (NaN), the later wins, as in `Iterator::max_by`.
#[must_use]
pub fn argmax(row: &[f32]) -> usize {
    row.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map_or(0, |(i, _)| i)
}

/// Row-wise [`argmax`] of `m` (predicted class per sample).
#[must_use]
pub fn row_argmax(m: &Matrix) -> Vec<usize> {
    m.as_slice().chunks(m.cols()).map(argmax).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let (m, k) = a.shape();
        let n = b.cols();
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a[(i, p)] * b[(p, j)];
                }
                out[(i, j)] = acc;
            }
        }
        out
    }

    fn approx_eq(a: &Matrix, b: &Matrix, tol: f32) -> bool {
        a.shape() == b.shape()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(&x, &y)| (x - y).abs() <= tol)
    }

    #[test]
    fn matmul_matches_naive_small() {
        let a = Matrix::from_fn(3, 4, |r, c| (r as f32) - (c as f32) * 0.5);
        let b = Matrix::from_fn(4, 2, |r, c| (r as f32) * 0.25 + c as f32);
        assert!(approx_eq(&matmul(&a, &b), &naive_matmul(&a, &b), 1e-5));
    }

    #[test]
    fn matmul_matches_naive_above_parallel_threshold() {
        let a = Matrix::from_fn(70, 70, |r, c| ((r * 31 + c * 17) % 13) as f32 - 6.0);
        let b = Matrix::from_fn(70, 70, |r, c| ((r * 7 + c * 3) % 11) as f32 - 5.0);
        assert!(approx_eq(&matmul(&a, &b), &naive_matmul(&a, &b), 1e-2));
    }

    #[test]
    fn matmul_transpose_b_matches_explicit_transpose() {
        let a = Matrix::from_fn(5, 3, |r, c| (r + c) as f32);
        let b = Matrix::from_fn(4, 3, |r, c| (r * 2 + c) as f32);
        let expected = naive_matmul(&a, &b.transpose());
        assert!(approx_eq(&matmul_transpose_b(&a, &b), &expected, 1e-5));
    }

    #[test]
    fn matmul_transpose_a_matches_explicit_transpose() {
        let a = Matrix::from_fn(3, 5, |r, c| (r + 2 * c) as f32);
        let b = Matrix::from_fn(3, 4, |r, c| (r * 3 + c) as f32);
        let expected = naive_matmul(&a.transpose(), &b);
        assert!(approx_eq(&matmul_transpose_a(&a, &b), &expected, 1e-5));
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_rejects_mismatched_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let _ = matmul(&a, &b);
    }

    #[test]
    fn axpy_accumulates() {
        let mut out = vec![1.0, 2.0];
        axpy(0.5, &[2.0, 4.0], &mut out);
        assert_eq!(out, vec![2.0, 4.0]);
    }

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[3.0, 4.0], &[3.0, 4.0]), 25.0, "a squared norm");
    }

    #[test]
    fn add_bias_broadcasts_rows() {
        let mut m = Matrix::zeros(2, 3);
        add_bias(&mut m, &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn col_sum_sums_rows() {
        let m = Matrix::from_fn(3, 2, |r, c| (r + c) as f32);
        assert_eq!(col_sum(&m), vec![3.0, 6.0]);
        // The in-place form overwrites whatever the buffer held.
        let mut out = vec![f32::NAN, 7.0];
        col_sum_into(&m, &mut out);
        assert_eq!(out, vec![3.0, 6.0]);
    }

    #[test]
    fn row_argmax_picks_max_per_row() {
        let m = Matrix::from_vec(2, 3, vec![0.1, 0.9, 0.0, 0.5, 0.2, 0.7]);
        assert_eq!(row_argmax(&m), vec![1, 2]);
    }

    #[test]
    fn scale_multiplies_in_place() {
        let mut v = vec![1.0, -2.0, 4.0];
        scale(0.5, &mut v);
        assert_eq!(v, vec![0.5, -1.0, 2.0]);
    }

    #[test]
    fn blocked_axpy_is_bitwise_equal_to_scalar_on_awkward_lengths() {
        // Cover remainders 0..7 around the 8-wide blocking.
        for n in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 64, 100] {
            let x: Vec<f32> = (0..n).map(|i| ((i * 37) as f32).sin() * 3.7).collect();
            let mut a: Vec<f32> = (0..n).map(|i| ((i * 13) as f32).cos()).collect();
            let mut b = a.clone();
            axpy(0.3337, &x, &mut a);
            axpy_scalar(0.3337, &x, &mut b);
            assert_eq!(
                a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "axpy diverged from scalar reference at n={n}"
            );
        }
    }

    #[test]
    fn blocked_scale_is_bitwise_equal_to_scalar_on_awkward_lengths() {
        for n in [0usize, 1, 5, 8, 11, 16, 23, 100] {
            let mut a: Vec<f32> = (0..n).map(|i| ((i * 7) as f32).sin() * 9.1).collect();
            let mut b = a.clone();
            scale(0.77, &mut a);
            scale_scalar(0.77, &mut b);
            assert_eq!(
                a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "scale diverged from scalar reference at n={n}"
            );
        }
    }
}
