//! Low-level update-compression kernels.
//!
//! The communication subsystem (`tifl_comm`) shrinks model updates
//! before they cross the simulated wire. The numeric kernels live here,
//! next to the other flat-slice primitives, so they can be benchmarked
//! and tested against the same `f32` conventions as `ops`:
//!
//! * whole-slice affine int8 quantization ([`quantize_i8_into`] /
//!   [`dequantize_i8_axpy`]) — 4x smaller, error bounded by one
//!   quantization step per element;
//! * magnitude top-k selection ([`top_k_by_magnitude_into`]) with
//!   delta-encoded indices ([`axpy_sparse`]) — the classic sparsified
//!   gradient/update format.
//!
//! All kernels are deterministic: ties in the top-k selection break
//! toward the lower index, and every accumulation order is fixed. The
//! decode-side kernels are unrolled for throughput and pinned bit-for-bit
//! against their `_scalar` references; the encode-side kernels write
//! into caller-owned buffers so the per-round hot path allocates
//! nothing.
//!
//! # Non-finite inputs
//!
//! Encode kernels never let a stray NaN or infinity poison the whole
//! update; the mapping is explicit and documented per kernel:
//!
//! * [`minmax`] ranges over the *finite* elements only;
//! * [`quantize_i8_into`] encodes NaN and `-inf` as the `min` endpoint's
//!   code and clamps `+inf` to the `max` endpoint's;
//! * [`top_k_by_magnitude_into`] treats a NaN magnitude as smaller than
//!   every real magnitude, so NaN elements genuinely lose selection.
//!
//! # Two compiled copies of the int8 encode passes
//!
//! A client's compensated int8 upload makes two passes over its update:
//! [`add_into_minmax`] (the compensated sum and its finite range) and
//! [`quantize_i8_residual_into`] (codes and the error left behind).
//! Like the train-step kernels of [`crate::ops`], each body is written
//! once as `#[inline(always)]` code with `#[inline(always)]` helpers and
//! compiled twice, a portable copy and on x86-64 an AVX2 one, and each
//! call runs the copy [`KernelCopy::detect`] picks. The AVX2 copy earns
//! most on the range pass: the baseline instruction set has no 32-bit
//! integer `min`/`max`, so the order-key reduction is emulated there.
//! The copies cannot differ in a bit: every lane does the IEEE add,
//! mul, min, max or truncating convert the scalar expression names,
//! and only `avx2` is enabled, not `fma`. `tests/kernels.rs` runs both
//! copies. Every other kernel here has one copy.
//!
//! # Top-k without a sort
//!
//! [`top_k_by_magnitude_into`] partitions packed `(magnitude, index)`
//! words with `select_nth_unstable`, which leaves the `k` winners
//! unordered. It copies their indices out, turns its `order` scratch
//! into a bitmap with one bit per element, sets the winners' bits and
//! reads the bitmap back word by word: the winners come out in
//! ascending index order in one linear pass, with no sort and no
//! allocation beyond the two output buffers.

use crate::ops::KernelCopy;

/// Minimum and maximum over the *finite* elements of a flat slice
/// (`(0.0, 0.0)` when the slice is empty or contains no finite element).
///
/// NaNs and ±∞ are skipped outright so one bad element cannot blow the
/// quantization range up to infinity.
#[must_use]
pub fn minmax(xs: &[f32]) -> (f32, f32) {
    let mut lo_k = i32::MAX;
    let mut hi_k = i32::MIN;
    for &x in xs {
        let (kl, kh) = minmax_keys(x);
        lo_k = lo_k.min(kl);
        hi_k = hi_k.max(kh);
    }
    minmax_from_keys(lo_k, hi_k)
}

/// All-ones exponent field: the bit pattern shared by ±∞ and every NaN.
const EXP_MASK: u32 = 0x7F80_0000;

/// Branch-free per-element step of the finite min/max reduction.
///
/// Maps `x` to an `i32` *order key* — the standard sign-flip transform
/// under which ascending `i32` order equals ascending float order
/// (an involution; [`order_key`] inverts itself) — and substitutes the
/// reduction's neutral element for non-finite inputs, so the `min`/`max`
/// fold skips them without a branch. The two selects and the integer
/// `min`/`max` all vectorize, unlike a float reduction guarded by
/// `is_finite` (NaN-aware float `min` also defeats the vectorizer).
///
/// The keyed reduction returns the same floats as the old
/// `if x.is_finite() { lo.min(x) … }` loop: the key order agrees with
/// float order on every finite value (it additionally orders
/// `-0.0 < +0.0`, where IEEE `minNum` may return either zero — the two
/// are `==` and behave identically as the quantization offset, so no
/// downstream bit changes).
///
/// Neutral keys are unreachable for finite inputs: `i32::MAX` and
/// `i32::MIN` are the keys of the NaN patterns `0x7FFF_FFFF` and
/// `0xFFFF_FFFF`.
#[inline(always)]
fn minmax_keys(x: f32) -> (i32, i32) {
    let b = x.to_bits();
    let finite = (b & EXP_MASK) != EXP_MASK;
    let k = order_key(b);
    (
        if finite { k } else { i32::MAX },
        if finite { k } else { i32::MIN },
    )
}

/// Sign-flip transform: negative floats get their magnitude bits
/// inverted, so `i32` comparison of keys matches float comparison.
/// Self-inverse (the key's sign bit equals the float's).
#[inline(always)]
fn order_key(b: u32) -> i32 {
    let b = b as i32;
    b ^ (((b >> 31) as u32) >> 1) as i32
}

/// Finish a keyed min/max reduction: `(0.0, 0.0)` when no finite
/// element updated either accumulator, else the keys mapped back to
/// floats.
#[inline]
fn minmax_from_keys(lo_k: i32, hi_k: i32) -> (f32, f32) {
    if lo_k > hi_k {
        (0.0, 0.0)
    } else {
        (
            f32::from_bits(order_key(lo_k as u32) as u32),
            f32::from_bits(order_key(hi_k as u32) as u32),
        )
    }
}

/// Affine int8 quantization over one flat slice: writes one code per
/// element into `codes` (cleared first) and returns `(min, scale)`,
/// with `x ≈ min + scale * (code + 128)` and
/// `scale = (max - min) / 255`.
///
/// A constant slice gets `scale = 0` and decodes exactly to `min`. The
/// reconstruction error is at most `scale` per element (round-to-nearest
/// guarantees `scale / 2`; the bound tested downstream is the full
/// step).
///
/// Non-finite inputs follow the module contract: the range spans the
/// finite elements only, NaN and `-inf` take the `min` endpoint's code
/// (decoding to `min`), and `+inf` saturates to the `max` endpoint's.
///
/// No run calls this: a client's upload quantizes through
/// [`quantize_i8_residual_into`], whose codes are this kernel's. It is
/// the reference those codes are tested against, and what the
/// benchmarks time as the plain int8 encode.
pub fn quantize_i8_into(xs: &[f32], codes: &mut Vec<i8>) -> (f32, f32) {
    codes.clear();
    let (lo, hi) = minmax(xs);
    let range = hi - lo;
    if range <= 0.0 {
        codes.resize(xs.len(), -128);
        return (lo, 0.0);
    }
    let scale = range / 255.0;
    let inv_scale = 255.0 / range;
    codes.extend(xs.iter().map(|&x| quantize_one(x, lo, inv_scale)));
    (lo, scale)
}

/// The per-element affine-quantize step shared by every i8 encode
/// kernel: `round((x − lo) · inv_scale)` clamped to `[0, 255]`, shifted
/// to the i8 code range.
///
/// One multiply instead of a divide, and rounding is `+ 0.5` then
/// truncate — exact because the quotient is non-negative for every
/// finite input (`lo` is the finite minimum). The clamp runs in the
/// *float* domain with `max`/`min`, which implements the non-finite
/// contract for free (IEEE `maxNum`/`minNum` against a constant drop
/// NaN → 0.0 → the min code; −∞ → 0.0; +∞ → 255.0 → the max code) and
/// guarantees the cast operand is always in `[0, 255]` — so the
/// unchecked cast is sound, and the optimizer emits one plain vector
/// truncation instead of the saturating cast's per-lane NaN/overflow
/// fixups (which cost more than the quantize arithmetic itself).
#[inline(always)]
#[allow(
    clippy::manual_clamp,
    reason = "`clamp` propagates NaN; the max/min chain drops it to 0.0 before the unchecked cast"
)]
#[expect(
    unsafe_code,
    reason = "the saturating cast's NaN/overflow fixups cost more than the quantize arithmetic"
)]
fn quantize_one(x: f32, lo: f32, inv_scale: f32) -> i8 {
    let t = ((x - lo) * inv_scale + 0.5).max(0.0).min(255.0);
    // SAFETY: `max`/`min` against finite constants return a finite
    // value in [0.0, 255.0] for every input, including NaN and ±∞.
    let q: i32 = unsafe { t.to_int_unchecked() };
    (q - 128) as i8
}

/// Fused compensate-and-range kernel for the error-feedback encode
/// path: `out[i] = a[i] + b[i]`, returning the finite min/max of the
/// sums in the same pass.
///
/// Bit-for-bit identical to `extend`-ing the sums and then calling
/// [`minmax`] — same element order, same `min`/`max` sequence, same
/// finite-only skip — it just avoids re-reading the sums from memory.
///
/// The fusion is blocked rather than instruction-level: a stateful
/// closure inside `extend` defeats the loop vectorizer, so instead each
/// `FUSE_BLOCK`-element block gets one pure vectorized sum pass and
/// one pure vectorized key-reduction pass while it is still L1-hot.
/// Runs the AVX2 copy when the CPU has AVX2 (module docs).
///
/// # Panics
/// Panics if `a` and `b` differ in length.
pub fn add_into_minmax(a: &[f32], b: &[f32], out: &mut Vec<f32>) -> (f32, f32) {
    add_into_minmax_with(KernelCopy::detect(), a, b, out)
}

/// [`add_into_minmax`] in `copy`.
///
/// # Panics
/// As [`add_into_minmax`].
#[doc(hidden)]
pub fn add_into_minmax_with(
    copy: KernelCopy,
    a: &[f32],
    b: &[f32],
    out: &mut Vec<f32>,
) -> (f32, f32) {
    assert_eq!(a.len(), b.len(), "add_into_minmax length mismatch");
    copy.sum_minmax(a, b, out)
}

two_copies!(sum_minmax(a: &[f32], b: &[f32], out: &mut Vec<f32>) -> (f32, f32));

/// The body of [`add_into_minmax`], compiled once per copy.
#[inline(always)]
fn sum_minmax(a: &[f32], b: &[f32], out: &mut Vec<f32>) -> (f32, f32) {
    out.clear();
    let mut lo_k = i32::MAX;
    let mut hi_k = i32::MIN;
    let mut i = 0;
    while i < a.len() {
        let end = (i + FUSE_BLOCK).min(a.len());
        out.extend(a[i..end].iter().zip(&b[i..end]).map(|(&x, &y)| x + y));
        for &v in &out[i..end] {
            let (kl, kh) = minmax_keys(v);
            lo_k = lo_k.min(kl);
            hi_k = hi_k.max(kh);
        }
        i = end;
    }
    minmax_from_keys(lo_k, hi_k)
}

/// Block length for cache-level kernel fusion: 2048 f32 = 8 KiB per
/// array, so two or three blocks stay resident in a 32 KiB L1d between
/// the passes a fused kernel runs over them.
const FUSE_BLOCK: usize = 2048;

/// Fused quantize-and-residual kernel for the error-feedback encode
/// path: quantizes `xs` over the caller-supplied `(lo, hi)` range
/// (from [`add_into_minmax`]) and writes each element's quantization
/// error `xs[i] − decode(code[i])` into `residual` in the same pass.
///
/// Codes are bit-for-bit [`quantize_i8_into`]'s and the residual is the
/// exact expression a separate pass would compute:
/// `x − (min + scale · (code + 128))`. Runs the AVX2 copy when the CPU
/// has AVX2 (module docs).
///
/// # Panics
/// Panics if `xs` and `residual` differ in length.
pub fn quantize_i8_residual_into(
    xs: &[f32],
    lo: f32,
    hi: f32,
    codes: &mut Vec<i8>,
    residual: &mut [f32],
) -> (f32, f32) {
    quantize_i8_residual_into_with(KernelCopy::detect(), xs, lo, hi, codes, residual)
}

/// [`quantize_i8_residual_into`] in `copy`.
///
/// # Panics
/// As [`quantize_i8_residual_into`].
#[doc(hidden)]
pub fn quantize_i8_residual_into_with(
    copy: KernelCopy,
    xs: &[f32],
    lo: f32,
    hi: f32,
    codes: &mut Vec<i8>,
    residual: &mut [f32],
) -> (f32, f32) {
    assert_eq!(
        xs.len(),
        residual.len(),
        "quantize residual length mismatch"
    );
    codes.clear();
    let range = hi - lo;
    if range <= 0.0 {
        codes.resize(xs.len(), -128);
        for (r, &x) in residual.iter_mut().zip(xs) {
            *r = x - (lo + 0.0 * (f32::from(-128i8) + 128.0));
        }
        return (lo, 0.0);
    }
    let scale = range / 255.0;
    let inv_scale = 255.0 / range;
    copy.quantize_residual(xs, lo, scale, inv_scale, codes, residual);
    (lo, scale)
}

two_copies!(quantize_residual(
    xs: &[f32],
    lo: f32,
    scale: f32,
    inv_scale: f32,
    codes: &mut Vec<i8>,
    residual: &mut [f32]
));

/// The body of [`quantize_i8_residual_into`] over a non-empty range,
/// compiled once per copy.
#[inline(always)]
fn quantize_residual(
    xs: &[f32],
    lo: f32,
    scale: f32,
    inv_scale: f32,
    codes: &mut Vec<i8>,
    residual: &mut [f32],
) {
    // Blocked fusion (see [`add_into_minmax`]): per block, one pure
    // quantize pass and one pure dequantize-and-subtract pass, each a
    // vectorizable elementwise loop, with the block's codes and inputs
    // still L1-resident for the second pass.
    let mut i = 0;
    while i < xs.len() {
        let end = (i + FUSE_BLOCK).min(xs.len());
        codes.extend(xs[i..end].iter().map(|&x| quantize_one(x, lo, inv_scale)));
        for ((r, &c), &x) in residual[i..end]
            .iter_mut()
            .zip(&codes[i..end])
            .zip(&xs[i..end])
        {
            *r = x - (lo + scale * (f32::from(c) + 128.0));
        }
        i = end;
    }
}

/// Reference implementation of [`dequantize_i8_axpy`]: the plain
/// element-order loop the unrolled kernel is pinned against.
///
/// # Panics
/// Panics if the lengths differ.
pub fn dequantize_i8_axpy_scalar(alpha: f32, min: f32, scale: f32, codes: &[i8], out: &mut [f32]) {
    assert_eq!(codes.len(), out.len(), "dequantize_i8_axpy length mismatch");
    for (o, &q) in out.iter_mut().zip(codes) {
        *o += alpha * (min + scale * (f32::from(q) + 128.0));
    }
}

/// `out[i] += alpha * (min + scale * (codes[i] + 128))`: fold a
/// quantized tensor into an accumulator without materialising the
/// dequantized vector.
///
/// 8-wide unrolled; each lane evaluates the exact scalar expression, so
/// the result is bit-for-bit identical to
/// [`dequantize_i8_axpy_scalar`].
///
/// # Panics
/// Panics if the lengths differ.
pub fn dequantize_i8_axpy(alpha: f32, min: f32, scale: f32, codes: &[i8], out: &mut [f32]) {
    assert_eq!(codes.len(), out.len(), "dequantize_i8_axpy length mismatch");
    let mut cs = codes.chunks_exact(8);
    let mut os = out.chunks_exact_mut(8);
    for (o, c) in (&mut os).zip(&mut cs) {
        o[0] += alpha * (min + scale * (f32::from(c[0]) + 128.0));
        o[1] += alpha * (min + scale * (f32::from(c[1]) + 128.0));
        o[2] += alpha * (min + scale * (f32::from(c[2]) + 128.0));
        o[3] += alpha * (min + scale * (f32::from(c[3]) + 128.0));
        o[4] += alpha * (min + scale * (f32::from(c[4]) + 128.0));
        o[5] += alpha * (min + scale * (f32::from(c[5]) + 128.0));
        o[6] += alpha * (min + scale * (f32::from(c[6]) + 128.0));
        o[7] += alpha * (min + scale * (f32::from(c[7]) + 128.0));
    }
    for (o, &q) in os.into_remainder().iter_mut().zip(cs.remainder()) {
        *o += alpha * (min + scale * (f32::from(q) + 128.0));
    }
}

/// Selection key for [`top_k_by_magnitude_into`]: non-negative IEEE-754
/// floats are order-isomorphic to their bit patterns, so `|x|` compares
/// as the low 31 bits. Real magnitudes map to `bits + 1` (so `+0.0`
/// gets key 1, `±inf` the largest key) and NaN magnitudes (payloads
/// above the `+inf` pattern) map to 0 — NaN elements genuinely lose to
/// everything, using only integer compares.
#[inline]
fn magnitude_key(x: f32) -> u32 {
    let mag = x.to_bits() & 0x7FFF_FFFF;
    if mag > 0x7F80_0000 {
        0
    } else {
        mag + 1
    }
}

/// Indices and values of the `k` largest-magnitude elements of `xs`,
/// written in ascending index order into `indices` / `values` (all
/// buffers cleared first; `order` is selection scratch, then the
/// winners' bitmap: module docs). Ties in
/// magnitude break toward the lower index, so the selection is
/// deterministic.
///
/// NaN elements genuinely lose selection (their magnitude sorts below
/// every real magnitude, including `-inf`'s); they are only picked when
/// `k` exceeds the number of non-NaN elements, lowest indices first.
///
/// # Panics
/// Panics if `k` is zero or exceeds `xs.len()`.
pub fn top_k_by_magnitude_into(
    xs: &[f32],
    k: usize,
    order: &mut Vec<u64>,
    indices: &mut Vec<u32>,
    values: &mut Vec<f32>,
) {
    assert!(k > 0 && k <= xs.len(), "top-k of {k} from {}", xs.len());
    order.clear();
    indices.clear();
    values.clear();
    if k == xs.len() {
        // Everything wins; ascending index order is the natural order.
        indices.extend(0..k as u32);
        values.extend_from_slice(xs);
        return;
    }
    // Ascending order on the packed word `(!magnitude_key << 32) | index`
    // is (magnitude desc, index asc): the complemented magnitude key
    // makes larger magnitudes compare smaller, and equal magnitudes fall
    // through to the raw index in the low half. That total order lets
    // `select_nth_unstable` partition with plain `u64` compares — no
    // float comparator on the hot path — while selecting exactly the
    // winners a full sort would. (A histogram pre-select that only
    // materializes candidate words was tried and measured slower on
    // both sweep- and bench-sized inputs: gradient magnitudes cluster
    // into few exponent buckets, so the counting and collection passes
    // cost more than the partition they save.)
    order.extend(
        xs.iter()
            .enumerate()
            .map(|(i, &x)| (u64::from(!magnitude_key(x)) << 32) | i as u64),
    );
    order.select_nth_unstable(k - 1);
    indices.extend(order[..k].iter().map(|&p| p as u32));
    order.clear();
    order.resize(xs.len().div_ceil(64), 0);
    for &i in indices.iter() {
        order[i as usize / 64] |= 1 << (i % 64);
    }
    indices.clear();
    for (w, &word) in order.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            indices.push((w * 64) as u32 + bits.trailing_zeros());
            bits &= bits - 1;
        }
    }
    values.extend(indices.iter().map(|&i| xs[i as usize]));
}

/// Reference implementation of [`axpy_sparse`]: the plain walk the
/// unrolled kernel is pinned against.
///
/// # Panics
/// Panics if the arrays differ in length or an index lands out of
/// bounds.
pub fn axpy_sparse_scalar(alpha: f32, idx_delta: &[u32], values: &[f32], out: &mut [f32]) {
    assert_eq!(idx_delta.len(), values.len(), "axpy_sparse length mismatch");
    let mut idx = 0usize;
    for (pos, (&d, &v)) in idx_delta.iter().zip(values).enumerate() {
        idx = if pos == 0 {
            d as usize
        } else {
            idx + d as usize
        };
        out[idx] += alpha * v;
    }
}

/// `out[idx] += alpha * value` over a delta-encoded sparse vector:
/// `idx_delta[0]` is the first absolute index, every later entry the
/// gap to its predecessor.
///
/// 4-wide unrolled: the running prefix index is resolved inside each
/// block so the four scatter-adds pipeline, and each add is the exact
/// scalar expression in the same order — bit-for-bit identical to
/// [`axpy_sparse_scalar`].
///
/// # Panics
/// Panics if the arrays differ in length or an index lands out of
/// bounds.
pub fn axpy_sparse(alpha: f32, idx_delta: &[u32], values: &[f32], out: &mut [f32]) {
    assert_eq!(idx_delta.len(), values.len(), "axpy_sparse length mismatch");
    let Some((&d0, rest_d)) = idx_delta.split_first() else {
        return;
    };
    let (&v0, rest_v) = values.split_first().expect("same length as idx_delta");
    let mut idx = d0 as usize;
    out[idx] += alpha * v0;
    let mut ds = rest_d.chunks_exact(4);
    let mut vs = rest_v.chunks_exact(4);
    for (d, v) in (&mut ds).zip(&mut vs) {
        let i0 = idx + d[0] as usize;
        let i1 = i0 + d[1] as usize;
        let i2 = i1 + d[2] as usize;
        let i3 = i2 + d[3] as usize;
        out[i0] += alpha * v[0];
        out[i1] += alpha * v[1];
        out[i2] += alpha * v[2];
        out[i3] += alpha * v[3];
        idx = i3;
    }
    for (&d, &v) in ds.remainder().iter().zip(vs.remainder()) {
        idx += d as usize;
        out[idx] += alpha * v;
    }
}

/// Delta-encode ascending absolute indices into `out` (cleared
/// first): the inverse of the walk in [`axpy_sparse`].
///
/// # Panics
/// Panics if the indices are not strictly ascending.
pub fn delta_encode_indices_into(indices: &[u32], out: &mut Vec<u32>) {
    out.clear();
    out.reserve(indices.len());
    let mut prev = 0u32;
    for (pos, &i) in indices.iter().enumerate() {
        if pos == 0 {
            out.push(i);
        } else {
            assert!(i > prev, "indices must be strictly ascending");
            out.push(i - prev);
        }
        prev = i;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quantize(xs: &[f32]) -> (f32, f32, Vec<i8>) {
        let mut codes = Vec::new();
        let (min, scale) = quantize_i8_into(xs, &mut codes);
        (min, scale, codes)
    }

    fn top_k(xs: &[f32], k: usize) -> Vec<(u32, f32)> {
        let (mut order, mut indices, mut values) = (Vec::new(), Vec::new(), Vec::new());
        top_k_by_magnitude_into(xs, k, &mut order, &mut indices, &mut values);
        indices.into_iter().zip(values).collect()
    }

    fn delta_encode(indices: &[u32]) -> Vec<u32> {
        let mut out = Vec::new();
        delta_encode_indices_into(indices, &mut out);
        out
    }

    #[test]
    fn minmax_finds_extremes() {
        assert_eq!(minmax(&[3.0, -1.0, 2.0]), (-1.0, 3.0));
        assert_eq!(minmax(&[]), (0.0, 0.0));
    }

    #[test]
    fn minmax_ignores_non_finite_elements() {
        assert_eq!(
            minmax(&[f32::NAN, 3.0, f32::INFINITY, -1.0, f32::NEG_INFINITY]),
            (-1.0, 3.0)
        );
        assert_eq!(minmax(&[f32::NAN, f32::INFINITY]), (0.0, 0.0));
    }

    #[test]
    fn quantize_error_is_within_one_step() {
        let xs: Vec<f32> = (0..1000).map(|i| ((i * 37) as f32).sin() * 4.2).collect();
        let (min, scale, codes) = quantize(&xs);
        let mut out = vec![0.0f32; xs.len()];
        dequantize_i8_axpy(1.0, min, scale, &codes, &mut out);
        for (x, x_hat) in xs.iter().zip(&out) {
            assert!(
                (x - x_hat).abs() <= scale,
                "error {} exceeds step {scale}",
                (x - x_hat).abs()
            );
        }
    }

    #[test]
    fn quantize_constant_slice_is_exact() {
        let xs = vec![2.5f32; 17];
        let (min, scale, codes) = quantize(&xs);
        assert_eq!(scale, 0.0);
        let mut out = vec![0.0f32; 17];
        dequantize_i8_axpy(1.0, min, scale, &codes, &mut out);
        assert_eq!(out, xs);
    }

    #[test]
    fn quantize_maps_non_finite_inputs_per_contract() {
        let xs = [f32::NAN, -4.0, f32::NEG_INFINITY, 6.0, f32::INFINITY];
        let (min, scale, codes) = quantize(&xs);
        // Range spans the finite elements only.
        assert_eq!(min, -4.0);
        assert!((scale - 10.0 / 255.0).abs() < 1e-6);
        // NaN and -inf land on the min endpoint, +inf on the max.
        assert_eq!(codes[0], -128);
        assert_eq!(codes[2], -128);
        assert_eq!(codes[4], 127);
        let mut out = vec![0.0f32; xs.len()];
        dequantize_i8_axpy(1.0, min, scale, &codes, &mut out);
        assert_eq!(out[0], min);
        assert_eq!(out[2], min);
        assert!((out[4] - 6.0).abs() <= scale);
    }

    #[test]
    fn quantize_all_non_finite_decodes_to_zero() {
        let xs = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        let (min, scale, codes) = quantize(&xs);
        assert_eq!((min, scale), (0.0, 0.0));
        assert_eq!(codes, vec![-128; 3]);
    }

    #[test]
    fn top_k_picks_largest_magnitudes_in_index_order() {
        let xs = [0.1, -5.0, 0.0, 3.0, -0.2];
        let picked = top_k(&xs, 2);
        assert_eq!(picked, vec![(1, -5.0), (3, 3.0)]);
    }

    #[test]
    fn top_k_ties_break_toward_lower_index() {
        let xs = [1.0, -1.0, 1.0];
        let picked = top_k(&xs, 2);
        assert_eq!(picked, vec![(0, 1.0), (1, -1.0)]);
    }

    #[test]
    fn top_k_nan_elements_lose_selection() {
        // A single NaN must not win over any real magnitude — not even
        // over exact zeros.
        let xs = [0.0, f32::NAN, 0.1, -0.2, 0.0];
        let picked = top_k(&xs, 4);
        assert_eq!(
            picked.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
            vec![0, 2, 3, 4]
        );
        // Only when k exceeds the non-NaN count does NaN get picked.
        let all = top_k(&xs, 5);
        assert_eq!(all.len(), 5);
        assert!(all[1].1.is_nan());
    }

    #[test]
    fn top_k_infinite_magnitudes_still_win() {
        let xs = [1.0, f32::NEG_INFINITY, f32::NAN, 2.0];
        let picked = top_k(&xs, 1);
        assert_eq!(picked[0].0, 1);
    }

    #[test]
    fn unrolled_dequantize_matches_scalar_bitwise() {
        for n in [0usize, 1, 7, 8, 9, 63, 64, 100] {
            let codes: Vec<i8> = (0..n).map(|i| ((i * 37) % 256) as u8 as i8).collect();
            let mut a: Vec<f32> = (0..n).map(|i| ((i * 11) as f32).sin()).collect();
            let mut b = a.clone();
            dequantize_i8_axpy(0.21, -1.5, 0.013, &codes, &mut a);
            dequantize_i8_axpy_scalar(0.21, -1.5, 0.013, &codes, &mut b);
            assert_eq!(
                a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "dequantize diverged from scalar reference at n={n}"
            );
        }
    }

    #[test]
    fn unrolled_axpy_sparse_matches_scalar_bitwise() {
        for n in [0usize, 1, 2, 4, 5, 9, 40] {
            let indices: Vec<u32> = (0..n as u32).map(|i| i * 3 + 1).collect();
            let deltas = delta_encode(&indices);
            let values: Vec<f32> = (0..n).map(|i| ((i * 13) as f32).cos() * 2.0).collect();
            let mut a = vec![0.1f32; n * 3 + 2];
            let mut b = a.clone();
            axpy_sparse(0.8, &deltas, &values, &mut a);
            axpy_sparse_scalar(0.8, &deltas, &values, &mut b);
            assert_eq!(
                a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "axpy_sparse diverged from scalar reference at n={n}"
            );
        }
    }

    #[test]
    fn sparse_round_trip_via_delta_indices() {
        let indices = vec![2u32, 5, 6, 40];
        let values = vec![1.0f32, -2.0, 3.0, 0.5];
        let deltas = delta_encode(&indices);
        assert_eq!(deltas, vec![2, 3, 1, 34]);
        let mut out = vec![0.0f32; 41];
        axpy_sparse(2.0, &deltas, &values, &mut out);
        for (i, &v) in indices.iter().zip(&values) {
            assert_eq!(out[*i as usize], 2.0 * v);
        }
        assert_eq!(out.iter().filter(|&&v| v != 0.0).count(), 4);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn delta_encode_rejects_unsorted() {
        let _ = delta_encode(&[3, 2]);
    }
}
