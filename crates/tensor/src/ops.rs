//! Matrix and vector kernels.
//!
//! The three GEMM forms ([`matmul`], [`matmul_transpose_a`],
//! [`matmul_transpose_b`]) share one shape: every `out[i][j]` starts at
//! `+0.0` and adds its `k` products in index order, one rounding per
//! multiply and per add, so tiling and lane-parallel accumulation over
//! `j` cannot change a result bit. A GEMM runs on the thread that calls
//! it: a client's task is already one of the executor's threads. The
//! element-wise kernels ([`axpy`], [`scale`]) are unrolled and pinned
//! to scalar references the same way.
//!
//! # One register tile
//! All three forms run one micro-kernel. It holds a block of
//! `TILE_ROWS` (4) output rows by `TILE_COLS` (16) output columns in
//! eight 8-lane accumulator locals for the whole `k` loop and stores
//! each output once, when its sum is complete: per `k` step it loads
//! one 16-wide row of `B` and one element of `A` per tile row, and no
//! output goes back to memory between terms. The forms differ only in
//! how their operands are read. [`matmul`] and [`matmul_transpose_b`]
//! read `A` in place, four stored rows per tile;
//! [`matmul_transpose_a_into`] gathers its `A` (the columns of the
//! stored matrix) a cache-sized block at a time into row tiles, four
//! rows interleaved, because reading it in place costs its short `k`
//! loops (a batch) a bounds check per step. `B` is read in place,
//! row-major, when its width is a whole number of 16-column panels;
//! otherwise (the 10-class output layer) it is copied with each row
//! zero-padded to whole panels, and [`matmul_transpose_b`] packs `b^T`
//! the same way. Padded lanes are computed and never stored. The tile
//! walks `B` one panel at a time, each panel against every row tile of
//! a block of `A` while it is in cache. The gathered `A` and the copy
//! of `B` live in per-thread buffers, so a warm train step allocates
//! neither.
//!
//! # The output layer in one pass
//! A train step's output layer is [`output_layer`]: its three GEMMs
//! (the logits `h W`, the weight gradient `hᵀ δ` and `dL/dh = δ Wᵀ`),
//! the loss and the bias terms, in the tile above. Composed from the
//! public forms, each narrow product (10 classes wide, or the batch as
//! its `k`) re-scanned, re-packed and allocated its operands; the pass
//! scans `h` once, packs `W` once per step into both layouts (with the
//! packers the GEMM forms use), and keeps `δ` in a 16-lane padded
//! buffer both of its GEMMs read in place. Its buffers belong to the
//! model ([`OutputLayerScratch`]).
//!
//! # Zeros in the left operand
//! `matmul` and `matmul_transpose_a` skip a term whose `a` factor is
//! `±0.0` (about half of a post-ReLU activation is), so there `0 × inf`
//! and `0 × NaN` contribute nothing. `matmul_transpose_b` multiplies
//! every term through, so the same operands give NaN. With finite
//! operands the two agree bit for bit; with non-finite weights they do
//! not, and `tests/kernels.rs` pins one case per kernel.
//!
//! The skip costs nothing while `B` is finite. An accumulator starts at
//! `+0.0` and is never `−0.0` (`+0.0 + −0.0` is `+0.0`), so adding a
//! zero-`a` term `±0.0 × b` changes no bit unless `b` is `±inf` or NaN.
//! So every term is added as it is unless `A` holds a zero and `B` a
//! non-finite element; then every term is masked, `a == 0 ? +0.0 :
//! a × b`, by clearing the product's bits. One vectorised pass over the
//! smaller operand's bits per call, and over the other's only when the
//! first does not settle it, picks the accumulate. Neither is written
//! as a branch on `a`: whether a hidden unit fired is close to a coin
//! flip, and a mispredicted branch costs more than the term it skips.
//!
//! # Two compiled copies of the train-step kernels
//! The tile holds most of a client's training time. Its body (and the
//! two operand scans, and the RMSprop update [`rmsprop_update`]) is
//! written once, as plain `#[inline(always)]` code, and on x86-64 a
//! `#[target_feature(enable = "avx2")]` wrapper compiles it a second
//! time, so each accumulator is one 8-lane register instead
//! of the baseline's two 4-lane ones. Each kernel call asks
//! [`KernelCopy::detect`] which copy to run: AVX2 when
//! `is_x86_feature_detected!("avx2")` says the CPU has it, the portable
//! copy otherwise and on every other target.
//!
//! The copies cannot differ in a bit. Every lane does the IEEE `mul`
//! and `add` the scalar expression names, in the same `k` order; only
//! `avx2` is enabled, not `fma`, so no `a * b + c` can become one
//! rounding. `tests/kernels.rs` runs both copies against the naive
//! references.

use crate::Matrix;
use std::cell::Cell;

/// Which compiled copy of the train-step kernels runs (module docs).
/// The public kernels run [`KernelCopy::detect`]; the hidden `*_with`
/// entry points take a copy, so tests can run both on an AVX2 host.
#[doc(hidden)]
#[derive(Clone, Copy, Debug)]
pub struct KernelCopy {
    /// Set only by [`KernelCopy::avx2`], after the CPU reported AVX2.
    pub(crate) avx2: bool,
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

two_copies!(gemm_rows<const MASKED: bool>(g: Gemm<'_>, a: &Matrix, out: &mut [f32]));
two_copies!(gemm_tiled<const MASKED: bool>(
    g: Gemm<'_>,
    a_tiles: &[[f32; TILE_ROWS]],
    out: &mut [f32]
));
two_copies!(all_finite(xs: &[f32]) -> bool);
two_copies!(any_zero(xs: &[f32]) -> bool);
two_copies!(rmsprop(
    hyper: (f32, f32, f32),
    cache: &mut [f32],
    params: &mut [f32],
    grads: &[f32]
));

/// Output rows of one register tile.
const TILE_ROWS: usize = 4;

/// Output columns of one register tile: two 8-lane vectors.
const TILE_COLS: usize = 16;

/// Eight `f32` lanes: one AVX2 register, two baseline ones.
type Lanes = [f32; 8];

/// How a GEMM reads a stored matrix as one of its operands.
#[derive(Clone, Copy)]
enum Operand<'a> {
    /// The matrix as stored.
    Rows(&'a Matrix),
    /// Its transpose: operand element `(i, p)` is stored at `(p, i)`.
    Columns(&'a Matrix),
}

impl<'a> Operand<'a> {
    /// The stored elements, in either reading.
    fn data(self) -> &'a [f32] {
        match self {
            Operand::Rows(m) | Operand::Columns(m) => m.as_slice(),
        }
    }
}

/// A `B` as the tile reads it: the `(b, ldb)` of [`Gemm`].
type PackedB<'a> = (&'a [f32], usize);

/// One GEMM as the register tile runs it: `out (m x n) = A (m x k) *
/// B (k x n)`, `out` row-major, for the output rows from `first` on.
#[derive(Clone, Copy)]
struct Gemm<'a> {
    first: usize,
    k: usize,
    n: usize,
    /// `B(p, j)` is `b[p * ldb + j]`: `ldb` is `n` rounded up to whole
    /// 16-column panels. A padding lane is computed and never stored.
    b: &'a [f32],
    ldb: usize,
}

/// `acc[l] += a * b[l]`, or with `MASKED` the term `+0.0` when `a` is
/// `±0.0` (module docs): the product's bits are cleared, not branched
/// around. The mask comes from `a`'s bits, as in [`any_zero`]: the
/// magnitude plus `0x7FFF_FFFF` carries into bit 31 unless it is zero
/// (NaN is not), and an arithmetic shift spreads that bit. A float
/// compare here compiled to a compare and a branch for one tile shape.
#[inline(always)]
fn accumulate<const MASKED: bool>(acc: &mut Lanes, a: f32, b: &Lanes) {
    if MASKED {
        let nonzero = (a.to_bits() & 0x7FFF_FFFF) + 0x7FFF_FFFF;
        let keep = ((nonzero as i32) >> 31) as u32;
        for (c, &b_v) in acc.iter_mut().zip(b) {
            *c += f32::from_bits((a * b_v).to_bits() & keep);
        }
    } else {
        for (c, &b_v) in acc.iter_mut().zip(b) {
            *c += a * b_v;
        }
    }
}

/// Write one tile row's 16 sums, `lo` then `hi`, to `dst` (at most 16
/// long: a padded panel keeps only its real columns).
#[inline(always)]
fn store(dst: &mut [f32], lo: &Lanes, hi: &Lanes) {
    if let Ok(whole) = <&mut [f32; TILE_COLS]>::try_from(&mut *dst) {
        whole[..8].copy_from_slice(lo);
        whole[8..].copy_from_slice(hi);
    } else {
        let (d_lo, d_hi) = dst.split_at_mut(dst.len().min(8));
        for (d, &v) in d_lo.iter_mut().zip(lo) {
            *d = v;
        }
        for (d, &v) in d_hi.iter_mut().zip(hi) {
            *d = v;
        }
    }
}

/// One register tile: the first `ROWS` rows of `out` (row stride `n`),
/// columns `j .. j + width`, from `a_strip` (per `k` step one element
/// of `A` per tile row) and the 16 columns from `j` on of `b_rows`.
/// Eight named accumulators, not an array of them: an array did not
/// stay in registers.
#[inline(always)]
fn tile<const ROWS: usize, const MASKED: bool>(
    a_strip: impl Iterator<Item = [f32; TILE_ROWS]>,
    mut b_rows: std::slice::ChunksExact<'_, f32>,
    out: &mut [f32],
    (n, j, width): (usize, usize, usize),
) {
    let zero = [0.0f32; 8];
    let (mut c00, mut c01, mut c10, mut c11) = (zero, zero, zero, zero);
    let (mut c20, mut c21, mut c30, mut c31) = (zero, zero, zero, zero);
    for a in a_strip {
        // Not a `zip`: its length would divide by the row stride.
        let Some(b_row) = b_rows.next() else { break };
        let b_row = &b_row[j..j + TILE_COLS];
        let b0: Lanes = std::array::from_fn(|l| b_row[l]);
        let b1: Lanes = std::array::from_fn(|l| b_row[8 + l]);
        accumulate::<MASKED>(&mut c00, a[0], &b0);
        accumulate::<MASKED>(&mut c01, a[0], &b1);
        if ROWS > 1 {
            accumulate::<MASKED>(&mut c10, a[1], &b0);
            accumulate::<MASKED>(&mut c11, a[1], &b1);
        }
        if ROWS > 2 {
            accumulate::<MASKED>(&mut c20, a[2], &b0);
            accumulate::<MASKED>(&mut c21, a[2], &b1);
        }
        if ROWS > 3 {
            accumulate::<MASKED>(&mut c30, a[3], &b0);
            accumulate::<MASKED>(&mut c31, a[3], &b1);
        }
    }
    store(&mut out[j..j + width], &c00, &c01);
    if ROWS > 1 {
        store(&mut out[n + j..n + j + width], &c10, &c11);
    }
    if ROWS > 2 {
        store(&mut out[2 * n + j..2 * n + j + width], &c20, &c21);
    }
    if ROWS > 3 {
        store(&mut out[3 * n + j..3 * n + j + width], &c30, &c31);
    }
}

/// The output rows `out` holds (row stride `g.n`), column panel by
/// column panel: a panel of `B` is read by every row tile while it is
/// in cache. Row tile `t` reads its `A` through `strip(i0, live)`, per
/// `k` step one element of each of its `live` rows from row `i0` on
/// (the missing rows of a short tile repeat its last one; the tile
/// reads only its live rows' sums).
#[inline(always)]
fn gemm_tiles<const MASKED: bool, S: Iterator<Item = [f32; TILE_ROWS]>>(
    g: Gemm<'_>,
    out: &mut [f32],
    strip: impl Fn(usize, usize) -> S,
) {
    let n = g.n;
    let rows = out.len() / n;
    let b_rows = g.b.chunks_exact(g.ldb);
    for j in (0..n).step_by(TILE_COLS) {
        let dst = (n, j, TILE_COLS.min(n - j));
        for (t, out) in out.chunks_mut(TILE_ROWS * n).enumerate() {
            let live = TILE_ROWS.min(rows - t * TILE_ROWS);
            let a_strip = strip(g.first + t * TILE_ROWS, live);
            match live {
                1 => tile::<1, MASKED>(a_strip, b_rows.clone(), out, dst),
                2 => tile::<2, MASKED>(a_strip, b_rows.clone(), out, dst),
                3 => tile::<3, MASKED>(a_strip, b_rows.clone(), out, dst),
                _ => tile::<4, MASKED>(a_strip, b_rows.clone(), out, dst),
            }
        }
    }
}

/// [`gemm_tiles`] on an `A` read in place from its stored rows: a tile
/// reads four of them.
#[inline(always)]
fn gemm_rows<const MASKED: bool>(g: Gemm<'_>, a: &Matrix, out: &mut [f32]) {
    let (k, lda) = (g.k, a.cols());
    gemm_tiles::<MASKED, _>(g, out, |i0, live| {
        let row = |r: usize| &a.as_slice()[(i0 + r.min(live - 1)) * lda..][..k];
        let a_rows: [&[f32]; TILE_ROWS] = std::array::from_fn(row);
        (0..k).map(move |p| a_rows.map(|row| row[p]))
    });
}

/// [`gemm_tiles`] on an `A` gathered into row tiles (`a_tiles`, from
/// [`pack_columns`]): entry `t * k + p` holds column `p` of rows
/// `4t .. 4t + 4` of the block.
#[inline(always)]
fn gemm_tiled<const MASKED: bool>(g: Gemm<'_>, a_tiles: &[[f32; TILE_ROWS]], out: &mut [f32]) {
    let k = g.k;
    gemm_tiles::<MASKED, _>(g, out, |i0, _| {
        let t = (i0 - g.first) / TILE_ROWS;
        a_tiles[t * k..(t + 1) * k].iter().copied()
    });
}

/// Bit 31 of `flag(x)` ORed over `xs`: lane-wise integer operations,
/// no branch per element.
#[inline(always)]
fn or_flags(xs: &[f32], flag: impl Fn(u32) -> u32) -> u32 {
    let mut lanes = [0u32; 8];
    let mut chunks = xs.chunks_exact(8);
    for chunk in &mut chunks {
        for (acc, x) in lanes.iter_mut().zip(chunk) {
            *acc |= flag(x.to_bits());
        }
    }
    let tail = chunks
        .remainder()
        .iter()
        .fold(0, |acc, x| acc | flag(x.to_bits()));
    lanes.iter().fold(tail, |acc, &l| acc | l) & 0x8000_0000
}

/// Whether no element of `xs` is `±inf` or NaN. An all-ones exponent
/// carries into bit 31 when `0x0080_0000` is added to it; no other
/// exponent does.
#[inline(always)]
fn all_finite(xs: &[f32]) -> bool {
    or_flags(xs, |bits| (bits & 0x7F80_0000) + 0x0080_0000) == 0
}

/// Whether an element of `xs` is `±0.0` (NaN is not). Adding
/// `0x7FFF_FFFF` to the magnitude bits carries into bit 31 unless they
/// are all zero.
#[inline(always)]
fn any_zero(xs: &[f32]) -> bool {
    or_flags(xs, |bits| !((bits & 0x7FFF_FFFF) + 0x7FFF_FFFF)) != 0
}

thread_local! {
    /// The row tiles of a transposed `A` and the padded copy of a `B`
    /// (module docs), kept per thread so a train step does not allocate
    /// them per call.
    static A_TILES: Cell<Vec<[f32; TILE_ROWS]>> = const { Cell::new(Vec::new()) };
    static B_PACKED: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
}

/// Run `f` on one of this thread's buffers. Taken, not borrowed: a
/// nested call on this thread finds an empty buffer and grows its own.
fn with_buffer<T, R>(
    key: &'static std::thread::LocalKey<Cell<Vec<T>>>,
    f: impl FnOnce(&mut Vec<T>) -> R,
) -> R {
    let mut buf = key.take();
    let result = f(&mut buf);
    key.set(buf);
    result
}

/// The row tiles of `a^T`'s `rows` rows from row `first` on, into
/// `a_tiles` ([`gemm_tiled`]), `+0.0` past the last row. Each tile row
/// is four adjacent elements of a stored row of `a`; read in place
/// instead, the short `k` loops of the weight gradients lost a fifth to
/// their bounds checks.
fn pack_columns(
    a: &Matrix,
    (first, rows, k): (usize, usize, usize),
    a_tiles: &mut Vec<[f32; TILE_ROWS]>,
) {
    a_tiles.clear();
    a_tiles.resize(rows.div_ceil(TILE_ROWS) * k, [0.0; TILE_ROWS]);
    for (t, strip) in a_tiles.chunks_exact_mut(k.max(1)).enumerate() {
        let i0 = first + t * TILE_ROWS;
        let live = TILE_ROWS.min(first + rows - i0);
        for (s, a_row) in strip.iter_mut().zip(a.as_slice().chunks_exact(a.cols())) {
            let src = &a_row[i0..i0 + live];
            if let Ok(whole) = <&[f32; TILE_ROWS]>::try_from(src) {
                *s = *whole;
            } else {
                s[..live].copy_from_slice(src);
            }
        }
    }
}

/// `B` as the tile reads it, `(b, ldb)` of [`Gemm`]: a stored `B`
/// whose width is whole panels is read in place; any other `B` (the
/// 10-class output layer's, a transposed one) is copied into `packed`,
/// each row zero-padded to whole panels.
fn pack_b<'a>(b: Operand<'a>, packed: &'a mut Vec<f32>) -> PackedB<'a> {
    let (k, n) = match b {
        Operand::Rows(b) => b.shape(),
        Operand::Columns(b) => (b.cols(), b.rows()),
    };
    let ldb = n.next_multiple_of(TILE_COLS);
    match b {
        Operand::Rows(b) if ldb == n => return (b.as_slice(), n),
        _ => {}
    }
    packed.clear();
    packed.resize(k * ldb, 0.0);
    match b {
        Operand::Rows(b) => pack_padded(b, packed, ldb),
        Operand::Columns(b) => pack_transposed(b, packed, ldb),
    }
    (packed, ldb)
}

/// `bp (k x ldb) = b (k x n)`, each row followed by `ldb - n` elements
/// that keep the zeros they were made with.
fn pack_padded(b: &Matrix, bp: &mut [f32], ldb: usize) {
    for (dst, src) in bp
        .chunks_exact_mut(ldb)
        .zip(b.as_slice().chunks_exact(b.cols()))
    {
        // An element loop: `copy_from_slice` of a length unknown here
        // is a `memcpy` call per row.
        for (d, &v) in dst.iter_mut().zip(src) {
            *d = v;
        }
    }
}

/// `bt (k x ldb) = b (n x k)^T`, eight rows of `b` at a time so both
/// the reads (eight streams) and the writes (32 contiguous bytes) stay
/// sequential. Columns `n..ldb` keep the zeros they were made with.
fn pack_transposed(b: &Matrix, bt: &mut [f32], ldb: usize) {
    const BLOCK: usize = 8;
    let n = b.rows();
    let mut j0 = 0;
    while j0 + BLOCK <= n {
        let rows: [&[f32]; BLOCK] = std::array::from_fn(|jj| b.row(j0 + jj));
        for (ki, dst) in bt.chunks_exact_mut(ldb).enumerate() {
            for (d, row) in dst[j0..j0 + BLOCK].iter_mut().zip(&rows) {
                *d = row[ki];
            }
        }
        j0 += BLOCK;
    }
    for j in j0..n {
        for (ki, &v) in b.row(j).iter().enumerate() {
            bt[ki * ldb + j] = v;
        }
    }
}

/// Elements of `A` one block of row tiles reads: 32 KB, so the block
/// stays in cache while the panels of `B` pass it.
const A_BLOCK: usize = 8 * 1024;

/// `out (m x n) = A (m x k) * B (k x n)` in `copy`, on the calling
/// thread. With `skip_zeros` a zero in `A` hides a non-finite `B`
/// (module docs).
fn gemm(
    copy: KernelCopy,
    (a, b): (Operand<'_>, Operand<'_>),
    (k, n): (usize, usize),
    skip_zeros: bool,
    out: &mut [f32],
) {
    if n == 0 {
        return;
    }
    // The masked accumulate differs from the dense one only where a zero
    // of `A` meets a non-finite `B`; the smaller operand is scanned
    // first, the other only if that does not settle it.
    let (a_data, b_data) = (a.data(), b.data());
    let zero_in_a = || copy.any_zero(a_data);
    let non_finite_in_b = || !copy.all_finite(b_data);
    let scans: [&dyn Fn() -> bool; 2] = if a_data.len() <= b_data.len() {
        [&zero_in_a, &non_finite_in_b]
    } else {
        [&non_finite_in_b, &zero_in_a]
    };
    let masked = skip_zeros && scans.iter().all(|scan| scan());
    with_buffer(&B_PACKED, |packed| {
        let b = pack_b(b, packed);
        gemm_packed(copy, a, b, (k, n), masked, out);
    });
}

/// [`gemm`] on a `B` already as the tile reads it (`(b, ldb)` of
/// [`Gemm`]), with the accumulate chosen: a block of whole row tiles
/// ([`A_BLOCK`]) at a time, so the block's rows of `A` stay in cache
/// while the panels of `B` pass them.
fn gemm_packed(
    copy: KernelCopy,
    a: Operand<'_>,
    (b, ldb): PackedB<'_>,
    (k, n): (usize, usize),
    masked: bool,
    out: &mut [f32],
) {
    let rows = (A_BLOCK / k.max(1)).max(TILE_ROWS) / TILE_ROWS * TILE_ROWS;
    for (at, out) in out.chunks_mut(rows * n).enumerate() {
        let g = Gemm {
            first: at * rows,
            k,
            n,
            b,
            ldb,
        };
        match (a, masked) {
            (Operand::Rows(a), true) => copy.gemm_rows::<true>(g, a, out),
            (Operand::Rows(a), false) => copy.gemm_rows::<false>(g, a, out),
            (Operand::Columns(a), masked) => with_buffer(&A_TILES, |a_tiles| {
                pack_columns(a, (g.first, out.len() / n, k), a_tiles);
                if masked {
                    copy.gemm_tiled::<true>(g, a_tiles, out);
                } else {
                    copy.gemm_tiled::<false>(g, a_tiles, out);
                }
            }),
        }
    }
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
    let mut out = Matrix::zeros(0, 0);
    matmul_into_with(copy, a, b, &mut out);
    out
}

/// [`matmul`] in the compiled copy `copy`, into `out`, which is
/// reshaped to `m x n` in the memory it holds: a warm caller allocates
/// nothing.
///
/// # Panics
/// Panics if the inner dimensions disagree.
#[doc(hidden)]
pub fn matmul_into_with(copy: KernelCopy, a: &Matrix, b: &Matrix, out: &mut Matrix) {
    let (m, k) = a.shape();
    let (k2, n) = b.shape();
    assert_eq!(k, k2, "matmul inner dimension mismatch: {k} vs {k2}");
    out.reshape(m, n);
    let operands = (Operand::Rows(a), Operand::Rows(b));
    gemm(copy, operands, (k, n), true, out.as_mut_slice());
}

/// Reference implementation of [`matmul_transpose_b`]: one scalar dot
/// product per output element, nothing packed. The tiled kernel is
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
    Matrix::from_fn(m, n, |i, j| {
        let mut acc = 0.0f32;
        for (&x, &y) in a.row(i).iter().zip(b.row(j)) {
            acc += x * y;
        }
        acc
    })
}

/// `a * b^T`. Multiplies zeros in `a` through (module docs).
///
/// Shape: `a (m x k) * b (n x k) -> (m x n)`. This is the input-gradient
/// workhorse (`dX = dY * W^T`). Each element sums its products in `k`
/// order, so the result is bit-for-bit [`matmul_transpose_b_scalar`]'s.
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
    let mut out = Matrix::zeros(m, n);
    let operands = (Operand::Rows(a), Operand::Columns(b));
    gemm(copy, operands, (k, n), false, out.as_mut_slice());
    out
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
    let operands = (Operand::Columns(a), Operand::Rows(b));
    gemm(copy, operands, (k, n), true, out.as_mut_slice());
}

/// `a^T * b` as a fresh matrix; see [`matmul_transpose_a_into`].
#[must_use]
pub fn matmul_transpose_a(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.cols(), b.cols());
    matmul_transpose_a_into(a, b, &mut out);
    out
}

/// The buffers [`output_layer`] writes besides the layer's gradients,
/// kept by the model between steps so that a warm step allocates none.
#[derive(Clone, Debug)]
pub struct OutputLayerScratch {
    /// `W` with each row padded to whole 16-lane panels, the `B` of the
    /// logits (empty while `W`'s rows are whole panels).
    w_rows: Vec<f32>,
    /// `Wᵀ`, each row padded likewise: the `B` of `dL/dh`.
    w_cols: Vec<f32>,
    /// `batch x classes`.
    logits: Matrix,
    /// δ = dL/d(logits): `batch` rows of `classes` padded with zeros to
    /// whole 16-lane panels, the `B` the weight gradient's tile reads in
    /// place, and the `A` of `dL/dh`.
    delta: Matrix,
    /// dL/dh, masked by ReLU: `batch x hidden`.
    dh: Matrix,
}

impl Default for OutputLayerScratch {
    fn default() -> Self {
        Self {
            w_rows: Vec::new(),
            w_cols: Vec::new(),
            logits: Matrix::zeros(0, 0),
            delta: Matrix::zeros(0, 0),
            dh: Matrix::zeros(0, 0),
        }
    }
}

impl OutputLayerScratch {
    /// The last pass's gradient at the hidden activation, masked by
    /// ReLU.
    #[must_use]
    pub fn dh(&self) -> &Matrix {
        &self.dh
    }
}

/// One training step's pass over a dense output layer `logits = h W + b`
/// on the post-ReLU activation `h (batch x hidden)`: the logits (into
/// `scratch`), then `loss(logits, δ, ld)`, which writes
/// `δ = dL/d(logits)` as `batch` rows of stride `ld` (the padding is
/// zero and stays so) and returns the loss; then `W`'s and `b`'s
/// gradients into `grad_w (hidden x classes)` and `grad_b`, and
/// `dL/dh = δ Wᵀ` masked by ReLU at `h` (into `scratch`). Returns the
/// loss.
///
/// Bit for bit [`matmul`], [`add_bias`], the loss,
/// [`matmul_transpose_a_into`], [`col_sum_into`],
/// [`matmul_transpose_b`] and ReLU's backward pass composed, zero-skip
/// decisions included (module docs). What the composition repeats it
/// does once: `h` is scanned for zeros once, `W` is packed once into
/// both layouts its two GEMMs read, `δ` is written where both
/// GEMMs read it in place, and nothing is allocated once `scratch` has
/// grown.
///
/// # Panics
/// Panics if the shapes disagree or `W` has no columns.
pub fn output_layer(
    h: &Matrix,
    (w, b): (&Matrix, &[f32]),
    loss: impl FnOnce(&Matrix, &mut [f32], usize) -> f32,
    (grad_w, grad_b): (&mut Matrix, &mut [f32]),
    scratch: &mut OutputLayerScratch,
) -> f32 {
    let grads = (grad_w, grad_b);
    output_layer_with(KernelCopy::detect(), h, (w, b), loss, grads, scratch)
}

/// [`output_layer`] in the compiled copy `copy`.
#[doc(hidden)]
pub fn output_layer_with(
    copy: KernelCopy,
    h: &Matrix,
    (w, b): (&Matrix, &[f32]),
    loss: impl FnOnce(&Matrix, &mut [f32], usize) -> f32,
    (grad_w, grad_b): (&mut Matrix, &mut [f32]),
    scratch: &mut OutputLayerScratch,
) -> f32 {
    let (batch, hidden) = h.shape();
    let classes = w.cols();
    assert!(classes > 0, "output_layer: no classes");
    assert_eq!(
        w.rows(),
        hidden,
        "output_layer: weight rows vs hidden units"
    );
    assert_eq!(b.len(), classes, "output_layer: bias length");
    assert_eq!(
        grad_w.shape(),
        w.shape(),
        "output_layer: weight gradient shape"
    );
    assert_eq!(grad_b.len(), classes, "output_layer: bias gradient length");
    let OutputLayerScratch {
        w_rows,
        w_cols,
        logits,
        delta,
        dh,
    } = scratch;
    let zero_in_h = copy.any_zero(h.as_slice());

    // `W` as the logits' GEMM reads it, and `Wᵀ` as `dL/dh`'s does,
    // rows padded to whole panels. A buffer is zeroed only when its
    // size changes: a padded lane is computed and never stored, so
    // what it holds changes no result.
    let (ldr, ldc) = (
        classes.next_multiple_of(TILE_COLS),
        hidden.next_multiple_of(TILE_COLS),
    );
    let padded = ldr != classes;
    for (buf, len) in [
        (&mut *w_rows, if padded { hidden * ldr } else { 0 }),
        (&mut *w_cols, classes * ldc),
    ] {
        if buf.len() != len {
            buf.clear();
            buf.resize(len, 0.0);
        }
    }
    let w_rows = if padded {
        pack_padded(w, w_rows, ldr);
        (&w_rows[..], ldr)
    } else {
        (w.as_slice(), ldr)
    };
    pack_transposed(w, w_cols, ldc);
    let w_cols = (&w_cols[..], ldc);
    logits.reshape(batch, classes);
    let masked = zero_in_h && !copy.all_finite(w.as_slice());
    let out = logits.as_mut_slice();
    gemm_packed(
        copy,
        Operand::Rows(h),
        w_rows,
        (hidden, classes),
        masked,
        out,
    );
    add_bias(logits, b);

    let ldd = classes.next_multiple_of(TILE_COLS);
    delta.reshape(batch, ldd);
    delta.as_mut_slice().fill(0.0);
    let loss = loss(logits, delta.as_mut_slice(), ldd);

    let delta_b = (delta.as_slice(), ldd);
    let masked = zero_in_h && !copy.all_finite(delta_b.0);
    let dw = grad_w.as_mut_slice();
    gemm_packed(
        copy,
        Operand::Columns(h),
        delta_b,
        (batch, classes),
        masked,
        dw,
    );
    grad_b.fill(0.0);
    for row in delta.as_slice().chunks_exact(ldd) {
        for (o, &v) in grad_b.iter_mut().zip(row) {
            *o += v;
        }
    }

    dh.reshape(batch, hidden);
    let out = dh.as_mut_slice();
    gemm_packed(
        copy,
        Operand::Rows(delta),
        w_cols,
        (classes, hidden),
        false,
        out,
    );
    for (g, &h) in dh.as_mut_slice().iter_mut().zip(h.as_slice()) {
        *g = if h > 0.0 { *g } else { 0.0 };
    }
    loss
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

/// One RMSprop step in place: per element, `c = rho·c + (1 − rho)·g·g`,
/// then `p −= lr·g / (√c + eps)`, each product and quotient rounded as
/// written (no fused multiply-add), so both compiled copies give the
/// scalar loop's bits.
///
/// # Panics
/// Panics if the three slices differ in length.
pub fn rmsprop_update(
    (lr, rho, eps): (f32, f32, f32),
    cache: &mut [f32],
    params: &mut [f32],
    grads: &[f32],
) {
    rmsprop_update_with(KernelCopy::detect(), (lr, rho, eps), cache, params, grads);
}

/// [`rmsprop_update`] in the compiled copy `copy`.
#[doc(hidden)]
pub fn rmsprop_update_with(
    copy: KernelCopy,
    hyper: (f32, f32, f32),
    cache: &mut [f32],
    params: &mut [f32],
    grads: &[f32],
) {
    assert!(
        cache.len() == params.len() && params.len() == grads.len(),
        "rmsprop_update length mismatch"
    );
    copy.rmsprop(hyper, cache, params, grads);
}

/// The body of [`rmsprop_update`], compiled twice.
#[inline(always)]
fn rmsprop((lr, rho, eps): (f32, f32, f32), cache: &mut [f32], params: &mut [f32], grads: &[f32]) {
    for ((c, p), &g) in cache.iter_mut().zip(params.iter_mut()).zip(grads) {
        *c = rho * *c + (1.0 - rho) * g * g;
        *p -= lr * g / (c.sqrt() + eps);
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
