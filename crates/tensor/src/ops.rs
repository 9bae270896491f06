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
//! `TILE_ROWS` (4) output rows by two `L`-lane vectors of output
//! columns in eight accumulator locals for the whole `k` loop and
//! stores each output once, when its sum is complete: per `k` step it
//! loads one `2 L`-wide row of `B` and one element of `A` per tile row,
//! and no output goes back to memory between terms. `L` is the copy's
//! lane count (below): a 4×16 tile of 8 lanes, or a 4×32 tile of 16.
//! The forms differ only in how their operands are read. [`matmul`] and
//! [`matmul_transpose_b`] read `A` in place, four stored rows per tile;
//! [`matmul_transpose_a_into`] gathers its `A` (the columns of the
//! stored matrix) a cache-sized block at a time into row tiles, four
//! rows interleaved, because reading it in place costs its short `k`
//! loops (a batch) a bounds check per step. `B` is read in place,
//! row-major, when its width is a whole number of 16-column panels;
//! otherwise (the 10-class output layer) it is copied with each row
//! zero-padded to whole panels, and [`matmul_transpose_b`] packs `b^T`
//! the same way. Panels are 16 columns in every copy, so the packing
//! is shared: an 8-lane tile covers one panel, a 16-lane tile two,
//! and where a row ends after one more panel the 16-lane tile runs
//! as a half tile, one vector per row. Padded lanes are computed and
//! never stored. The tile walks `B` one tile width at a time, each
//! against every row tile of a block of `A` while it is in cache. The
//! gathered `A` and the copy of `B` live in per-thread buffers, so a
//! warm train step allocates neither.
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
//! # Three compiled copies of the train-step kernels
//! The tile holds most of a client's training time. Its body (and the
//! two operand scans, and the RMSprop update [`rmsprop_update`]) is
//! written once, as plain `#[inline(always)]` code, and on x86-64 the
//! crate's `kernel_copies!` macro compiles it twice more, in a
//! `#[target_feature(enable = "avx2")]` wrapper and in a
//! `#[target_feature(enable = "avx512f")]` one. The tile's lane count
//! `L` is a const parameter the macro sets per copy:
//!
//! | copy | `L` | tile | an accumulator is |
//! |---|---|---|---|
//! | portable | 8 | 4×16 | two 4-lane SSE registers |
//! | AVX2 | 8 | 4×16 | one `ymm` register |
//! | AVX-512 | 16 | 4×32, half tile 4×16 | one `zmm` register |
//!
//! The scans, the RMSprop update and the int8 encode passes are plain
//! loops that the compiler widens to the registers the copy has. Each
//! kernel call asks [`KernelCopy::detect`] which copy to run: the
//! widest that `is_x86_feature_detected!` reports (AVX-512F, then
//! AVX2), the portable copy otherwise and on every other target. There
//! is no option and no `target-cpu`: one binary runs on all three.
//!
//! The copies cannot differ in a bit. Every lane does the IEEE `mul`
//! and `add` the scalar expression names, in the same `k` order; wider
//! lanes only compute more output columns at once. `avx512f` makes
//! fused multiply-add available to the compiler (it implies `fma`), but
//! Rust never contracts a separate `mul` and `add` into one rounding,
//! and CI checks that the release binary holds no `vfmadd`/`vfmsub`/
//! `vfnmadd`/`vfnmsub`. `tests/kernels.rs` runs every copy the CPU has
//! ([`KernelCopy::available`]) against the naive references, and the
//! 16-lane tiling on every CPU through the portable body at 16 lanes
//! ([`KernelCopy::PORTABLE_WIDE`]).

use crate::Matrix;
use std::cell::Cell;

/// Which compiled copy of the train-step kernels runs (module docs).
/// The public kernels run [`KernelCopy::detect`]; the hidden `*_with`
/// entry points take a copy, so tests can run every copy the CPU has.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KernelCopy {
    /// Set past `Portable` only after the CPU reported the feature.
    pub(crate) isa: Isa,
}

/// The instructions a [`KernelCopy`] is compiled for, and its lanes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Isa {
    Portable,
    /// The portable body at the AVX-512 copy's 16 lanes.
    PortableWide,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl KernelCopy {
    /// The copy every target compiles, in baseline instructions.
    pub const PORTABLE: Self = Self { isa: Isa::Portable };

    /// The portable body instantiated at the AVX-512 copy's 16 lanes (a
    /// 4×32 tile and its 4×16 half tile), in baseline instructions. No
    /// public kernel runs it and [`KernelCopy::available`] does not list
    /// it: it lets tests check the 16-lane tiling against the naive
    /// references on every CPU, AVX-512 or not.
    pub const PORTABLE_WIDE: Self = Self {
        isa: Isa::PortableWide,
    };

    /// The AVX2 copy, if this CPU has AVX2; `None` on other CPUs and
    /// targets.
    fn avx2() -> Option<Self> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Some(Self { isa: Isa::Avx2 });
        }
        None
    }

    /// The AVX-512 copy, if this CPU has AVX-512F; `None` on other CPUs
    /// and targets.
    fn avx512() -> Option<Self> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            return Some(Self { isa: Isa::Avx512 });
        }
        None
    }

    /// Every copy this CPU can run, narrowest first: the portable one,
    /// then AVX2 and AVX-512 as the CPU reports them.
    #[must_use]
    pub fn available() -> Vec<Self> {
        std::iter::once(Self::PORTABLE)
            .chain(Self::avx2())
            .chain(Self::avx512())
            .collect()
    }

    /// The copy the public kernels run: the widest the CPU has.
    #[must_use]
    pub fn detect() -> Self {
        Self::avx512().or_else(Self::avx2).unwrap_or(Self::PORTABLE)
    }

    /// The copy's name: `portable`, `portable-wide`, `avx2` or `avx512`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self.isa {
            Isa::Portable => "portable",
            Isa::PortableWide => "portable-wide",
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => "avx2",
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => "avx512",
        }
    }
}

kernel_copies!(gemm_rows<const LANES: usize, const MASKED: bool>(
    g: Gemm<'_>,
    a: &Matrix,
    out: &mut [f32]
));
kernel_copies!(gemm_tiled<const LANES: usize, const MASKED: bool>(
    g: Gemm<'_>,
    a_tiles: &[[f32; TILE_ROWS]],
    out: &mut [f32]
));
kernel_copies!(all_finite(xs: &[f32]) -> bool);
kernel_copies!(any_zero(xs: &[f32]) -> bool);
kernel_copies!(rmsprop(
    hyper: (f32, f32, f32),
    cache: &mut [f32],
    params: &mut [f32],
    grads: &[f32]
));

/// Output rows of one register tile.
const TILE_ROWS: usize = 4;

/// Columns of one panel of `B`: a packed `B`'s rows are a whole number
/// of panels in every copy.
const PANEL: usize = 16;

/// `L` `f32` lanes: one register of the copy that runs `L` lanes.
type Lanes<const L: usize> = [f32; L];

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
    /// [`PANEL`]s. A padding lane is computed and never stored.
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
fn accumulate<const MASKED: bool, const L: usize>(acc: &mut Lanes<L>, a: f32, b: &Lanes<L>) {
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

/// One tile row's two vectors: [`accumulate`] into `lo` from `b0`, and
/// unless `HALF` into `hi` from `b1`.
#[inline(always)]
fn accumulate_row<const MASKED: bool, const L: usize, const HALF: bool>(
    (lo, hi): (&mut Lanes<L>, &mut Lanes<L>),
    a: f32,
    (b0, b1): (&Lanes<L>, &Lanes<L>),
) {
    accumulate::<MASKED, L>(lo, a, b0);
    if !HALF {
        accumulate::<MASKED, L>(hi, a, b1);
    }
}

/// Write one tile row's sums, `lo` then `hi`, to `dst` (at most `2 L`
/// long: a padded panel keeps only its real columns).
#[inline(always)]
fn store<const L: usize>(dst: &mut [f32], lo: &Lanes<L>, hi: &Lanes<L>) {
    if dst.len() == 2 * L {
        let (d_lo, d_hi) = dst.split_at_mut(L);
        d_lo.copy_from_slice(lo);
        d_hi.copy_from_slice(hi);
    } else {
        let (d_lo, d_hi) = dst.split_at_mut(dst.len().min(L));
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
/// of `A` per tile row) and the `2 L` columns from `j` on of `b_rows`,
/// or with `HALF` the `L` columns of a panel that ends the row. Eight
/// named accumulators, not an array of them: an array did not stay in
/// registers.
#[inline(always)]
fn tile<const ROWS: usize, const MASKED: bool, const L: usize, const HALF: bool>(
    a_strip: impl Iterator<Item = [f32; TILE_ROWS]>,
    mut b_rows: std::slice::ChunksExact<'_, f32>,
    out: &mut [f32],
    (n, j, width): (usize, usize, usize),
) {
    let zero = [0.0f32; L];
    let (mut c00, mut c01, mut c10, mut c11) = (zero, zero, zero, zero);
    let (mut c20, mut c21, mut c30, mut c31) = (zero, zero, zero, zero);
    for a in a_strip {
        // Not a `zip`: its length would divide by the row stride.
        let Some(b_row) = b_rows.next() else { break };
        let b_row = &b_row[j..j + if HALF { L } else { 2 * L }];
        let b0: Lanes<L> = std::array::from_fn(|l| b_row[l]);
        let b1: Lanes<L> = if HALF {
            zero
        } else {
            std::array::from_fn(|l| b_row[L + l])
        };
        let b = (&b0, &b1);
        accumulate_row::<MASKED, L, HALF>((&mut c00, &mut c01), a[0], b);
        if ROWS > 1 {
            accumulate_row::<MASKED, L, HALF>((&mut c10, &mut c11), a[1], b);
        }
        if ROWS > 2 {
            accumulate_row::<MASKED, L, HALF>((&mut c20, &mut c21), a[2], b);
        }
        if ROWS > 3 {
            accumulate_row::<MASKED, L, HALF>((&mut c30, &mut c31), a[3], b);
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

/// [`tile`] for a row tile with `live` rows (1 to 4).
#[inline(always)]
fn tile_rows<const MASKED: bool, const L: usize, const HALF: bool>(
    live: usize,
    a_strip: impl Iterator<Item = [f32; TILE_ROWS]>,
    b_rows: std::slice::ChunksExact<'_, f32>,
    out: &mut [f32],
    dst: (usize, usize, usize),
) {
    match live {
        1 => tile::<1, MASKED, L, HALF>(a_strip, b_rows, out, dst),
        2 => tile::<2, MASKED, L, HALF>(a_strip, b_rows, out, dst),
        3 => tile::<3, MASKED, L, HALF>(a_strip, b_rows, out, dst),
        _ => tile::<4, MASKED, L, HALF>(a_strip, b_rows, out, dst),
    }
}

/// The output rows `out` holds (row stride `g.n`), tile column by tile
/// column (`2 L` columns): the columns of `B` a tile reads are read by
/// every row tile while they are in cache. Row tile `t` reads its `A`
/// through `strip(i0, live)`, per `k` step one element of each of its
/// `live` rows from row `i0` on (the missing rows of a short tile
/// repeat its last one; the tile reads only its live rows' sums). A
/// 16-lane tile spans two panels; where only one is left it runs as a
/// half tile, one vector per row. An 8-lane tile spans one panel and
/// never does.
#[inline(always)]
fn gemm_tiles<const L: usize, const MASKED: bool, S: Iterator<Item = [f32; TILE_ROWS]>>(
    g: Gemm<'_>,
    out: &mut [f32],
    strip: impl Fn(usize, usize) -> S,
) {
    let n = g.n;
    let rows = out.len() / n;
    let b_rows = g.b.chunks_exact(g.ldb);
    for j in (0..n).step_by(2 * L) {
        let half = 2 * L > PANEL && n - j <= L;
        let dst = (n, j, (2 * L).min(n - j));
        for (t, out) in out.chunks_mut(TILE_ROWS * n).enumerate() {
            let live = TILE_ROWS.min(rows - t * TILE_ROWS);
            let a_strip = strip(g.first + t * TILE_ROWS, live);
            if half {
                tile_rows::<MASKED, L, true>(live, a_strip, b_rows.clone(), out, dst);
            } else {
                tile_rows::<MASKED, L, false>(live, a_strip, b_rows.clone(), out, dst);
            }
        }
    }
}

/// [`gemm_tiles`] on an `A` read in place from its stored rows: a tile
/// reads four of them.
#[inline(always)]
fn gemm_rows<const L: usize, const MASKED: bool>(g: Gemm<'_>, a: &Matrix, out: &mut [f32]) {
    let (k, lda) = (g.k, a.cols());
    gemm_tiles::<L, MASKED, _>(g, out, |i0, live| {
        let row = |r: usize| &a.as_slice()[(i0 + r.min(live - 1)) * lda..][..k];
        let a_rows: [&[f32]; TILE_ROWS] = std::array::from_fn(row);
        (0..k).map(move |p| a_rows.map(|row| row[p]))
    });
}

/// [`gemm_tiles`] on an `A` gathered into row tiles (`a_tiles`, from
/// [`pack_columns`]): entry `t * k + p` holds column `p` of rows
/// `4t .. 4t + 4` of the block.
#[inline(always)]
fn gemm_tiled<const L: usize, const MASKED: bool>(
    g: Gemm<'_>,
    a_tiles: &[[f32; TILE_ROWS]],
    out: &mut [f32],
) {
    let k = g.k;
    gemm_tiles::<L, MASKED, _>(g, out, |i0, _| {
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
    let ldb = n.next_multiple_of(PANEL);
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
        classes.next_multiple_of(PANEL),
        hidden.next_multiple_of(PANEL),
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

    let ldd = classes.next_multiple_of(PANEL);
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
/// written (no fused multiply-add), so every compiled copy gives the
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

/// The body of [`rmsprop_update`], compiled once per copy.
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
    fn detect_picks_the_widest_available_copy() {
        let copies = KernelCopy::available();
        assert_eq!(copies.first(), Some(&KernelCopy::PORTABLE));
        assert_eq!(copies.last(), Some(&KernelCopy::detect()));
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
