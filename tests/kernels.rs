//! Bit-for-bit equivalence proptests for the blocked/unrolled hot-path
//! kernels and the three GEMM forms against their scalar reference
//! implementations, plus the documented non-finite contract of the
//! codec kernels, the GEMMs' zero-skip asymmetry, and the zero skip
//! itself over sparsity patterns around the GEMMs' register tile.
//!
//! The GEMM kernels behind the three forms, and the two int8 encode
//! passes of a compensated upload, are compiled twice, a portable copy
//! and on x86-64 an AVX2 one, and each call runs the copy the CPU
//! supports. Every test of them here runs each copy this CPU can
//! execute, through the hidden `*_with` entry points, so the portable
//! copy is pinned on an AVX2 host too. Top-k selection is pinned to a
//! naive full sort.
//!
//! Equality is asserted on raw bit patterns, never on approximate
//! values: the aggregation pipeline's two execution backends are pinned
//! bit-for-bit equal, so any kernel that reassociates or fuses floats
//! is a correctness bug here, not a tolerance question.

use proptest::prelude::*;
use std::sync::Once;
use tifl::comm::{encode_compensated, CodecSpec, EncodeScratch, EncodedUpdate};
use tifl::nn::{Optimizer, RmsProp};
use tifl::tensor::ops::KernelCopy;
use tifl::tensor::{codec, ops, Matrix, ParamVec};

/// Every compiled copy of the train-step kernels this CPU can run: the
/// portable one, and the AVX2 one when the CPU has AVX2. Without AVX2
/// the wide half is reported as skipped, once, instead of failing.
#[expect(clippy::print_stderr, reason = "a test helper's skip notice")]
fn copies() -> Vec<KernelCopy> {
    static SKIPPED: Once = Once::new();
    let wide = KernelCopy::avx2();
    if wide.is_none() {
        SKIPPED.call_once(|| eprintln!("kernels: no AVX2 on this CPU; its copy is skipped"));
    }
    std::iter::once(KernelCopy::PORTABLE).chain(wide).collect()
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Overwrite a sprinkling of elements with NaN/±inf/±0.0, driven by a
/// generated tag vector (most tags leave the element as it is).
fn inject_specials(xs: &mut [f32], tags: &[u8]) {
    for (x, &t) in xs.iter_mut().zip(tags) {
        match t {
            0 => *x = f32::NAN,
            1 => *x = f32::INFINITY,
            2 => *x = f32::NEG_INFINITY,
            3 => *x = -0.0,
            4 => *x = 0.0,
            _ => {}
        }
    }
}

/// [`bits`] with every NaN mapped to one pattern. A GEMM element can
/// add two NaNs of different sign (an injected NaN, and the default NaN
/// of `0 × inf` or `inf − inf`); which payload survives depends on the
/// operand order the compiler picks for a commutative add, which IEEE
/// 754 and Rust leave open. Everything else is compared bit for bit.
fn gemm_bits(m: &Matrix) -> Vec<u32> {
    let canonical = |x: &f32| if x.is_nan() { 0x7FC0_0000 } else { x.to_bits() };
    m.as_slice().iter().map(canonical).collect()
}

/// The GEMM contract, spelled out naively: `out[i][j]` starts at `+0.0`
/// and adds `a(i, p) * b(p, j)` for `p` in index order; `skip_zeros`
/// drops the terms whose `a` factor is `±0.0`.
fn gemm_reference(
    (m, k, n): (usize, usize, usize),
    a: impl Fn(usize, usize) -> f32,
    b: impl Fn(usize, usize) -> f32,
    skip_zeros: bool,
) -> Matrix {
    Matrix::from_fn(m, n, |i, j| {
        let mut acc = 0.0f32;
        for p in 0..k {
            if !(skip_zeros && a(i, p) == 0.0) {
                acc += a(i, p) * b(p, j);
            }
        }
        acc
    })
}

/// `a^T * b` in `copy`, as a fresh matrix.
fn matmul_transpose_a_with(copy: KernelCopy, a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.cols(), b.cols());
    ops::matmul_transpose_a_into_with(copy, a, b, &mut out);
    out
}

/// All three GEMM forms at `m x k x n`, in every copy, against
/// [`gemm_reference`], and the packed `A·Bᵀ` against its scalar
/// reference kernel. `a` and `b` are flat operand data, reshaped per
/// form.
fn assert_gemm_forms_match_reference(shape: (usize, usize, usize), a: &[f32], b: &[f32]) {
    let (m, k, n) = shape;
    let (a, b) = (a[..m * k].to_vec(), b[..k * n].to_vec());

    let (x, w) = (
        Matrix::from_vec(m, k, a.clone()),
        Matrix::from_vec(k, n, b.clone()),
    );
    let want = gemm_reference(shape, |i, p| x[(i, p)], |p, j| w[(p, j)], true);
    for copy in copies() {
        assert_eq!(
            gemm_bits(&ops::matmul_with(copy, &x, &w)),
            gemm_bits(&want),
            "matmul {shape:?} {copy:?}"
        );
    }

    let xt = Matrix::from_vec(k, m, a.clone());
    let want = gemm_reference(shape, |i, p| xt[(p, i)], |p, j| w[(p, j)], true);
    for copy in copies() {
        assert_eq!(
            gemm_bits(&matmul_transpose_a_with(copy, &xt, &w)),
            gemm_bits(&want),
            "matmul_transpose_a {shape:?} {copy:?}"
        );
    }

    let wt = Matrix::from_vec(n, k, b);
    let want = gemm_reference(shape, |i, p| x[(i, p)], |p, j| wt[(j, p)], false);
    let scalar = ops::matmul_transpose_b_scalar(&x, &wt);
    for copy in copies() {
        let got = ops::matmul_transpose_b_with(copy, &x, &wt);
        assert_eq!(
            gemm_bits(&got),
            gemm_bits(&want),
            "matmul_transpose_b {shape:?} {copy:?}"
        );
        assert_eq!(
            gemm_bits(&got),
            gemm_bits(&scalar),
            "matmul_transpose_b vs scalar kernel {shape:?} {copy:?}"
        );
    }
}

/// The training shapes of the default MLP's two layers, and of the wide
/// model's, specials included;
/// then, at each, a `b` that is finite but for one `±inf` or NaN under a
/// column of zeros in `a`, so both accumulates of the tile run against
/// the reference: the dense one on the finite operands, the masked one
/// on the poisoned.
#[test]
fn gemm_forms_match_reference_bitwise_at_training_and_parallel_shapes() {
    for shape in [
        (10usize, 64usize, 128usize),
        (10, 128, 10),
        (6, 64, 2048),
        (6, 2048, 10),
    ] {
        let (m, k, n) = shape;
        let wave = |len: usize, f: f32| -> Vec<f32> {
            (0..len).map(|i| (i as f32 * f).sin() * 3.0).collect()
        };
        let tags = |len: usize, step: usize| -> Vec<u8> {
            (0..len).map(|i| ((i * step) % 97) as u8).collect()
        };
        let (mut a, mut b) = (wave(m * k, 0.37), wave(k * n, 0.011));
        assert_gemm_forms_match_reference(shape, &a, &b);
        inject_specials(&mut a, &tags(m * k, 7));
        inject_specials(&mut b, &tags(k * n, 13));
        assert_gemm_forms_match_reference(shape, &a, &b);

        // `b` as `k x n` (`matmul`, `matmul_transpose_a`): the first
        // element, the last, and the first of the second tile panel.
        let (a, b) = (wave(m * k, 0.37), wave(k * n, 0.011));
        for (p, j) in [(0, 0), (k - 1, n - 1), (16, 16.min(n - 1))] {
            for poison in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
                let (mut a, mut b) = (a.clone(), b.clone());
                b[p * n + j] = poison;
                // Column `p` of `a` read as `m x k` and as `k x m`.
                for i in 0..m {
                    a[i * k + p] = 0.0;
                    a[p * m + i] = -0.0;
                }
                assert_gemm_forms_match_reference(shape, &a, &b);
            }
        }
    }
}

/// The zero-skip asymmetry documented in `ops`: a zero in the left
/// operand hides a non-finite weight from `matmul` and
/// `matmul_transpose_a`, and does not from `matmul_transpose_b`.
#[test]
fn zero_times_infinity_is_skipped_by_two_gemm_forms_and_not_the_third() {
    let zero_one = Matrix::from_vec(1, 2, vec![0.0, 1.0]);
    let inf_two = Matrix::from_vec(2, 1, vec![f32::INFINITY, 2.0]);
    // a^T b with a = [0 1]^T (2x1), b = [inf 2]^T (2x1).
    let a = Matrix::from_vec(2, 1, vec![0.0, 1.0]);
    // a b^T with b = [inf 2] (1x2): 0 * inf is multiplied through.
    let b = Matrix::from_vec(1, 2, vec![f32::INFINITY, 2.0]);
    for copy in copies() {
        assert_eq!(
            ops::matmul_with(copy, &zero_one, &inf_two).as_slice(),
            &[2.0]
        );
        assert_eq!(
            matmul_transpose_a_with(copy, &a, &inf_two).as_slice(),
            &[2.0]
        );
        assert!(ops::matmul_transpose_b_with(copy, &zero_one, &b).as_slice()[0].is_nan());
    }
    assert!(ops::matmul_transpose_b_scalar(&zero_one, &b).as_slice()[0].is_nan());
}

/// Row lengths of the skipped operand (as stored): `k` for `matmul`
/// and `m` for `matmul_transpose_a`. They straddle the tile's 4 rows
/// and 16 columns, and run past several whole tiles.
const STRADDLING: [usize; 11] = [1, 3, 4, 5, 15, 16, 17, 63, 64, 65, 129];

/// The longest of [`STRADDLING`].
const LONGEST: usize = STRADDLING[STRADDLING.len() - 1];

/// Every GEMM form against [`gemm_reference`] with the rows of `a` as
/// stored (`rows x len`) under the zero skip of both skipping forms:
/// `matmul` reads `a` as `m x k`, `matmul_transpose_a` as `k x m`.
fn assert_skipping_gemms_match_reference(
    (rows, len, n): (usize, usize, usize),
    a: &[f32],
    b: &[f32],
) {
    assert_gemm_forms_match_reference((rows, len, n), a, b);
    assert_gemm_forms_match_reference((len, rows, n), a, b);
}

/// A zero of either sign in `a` hides whatever it would have multiplied
/// — `±inf` and NaN included — at every position of a row, inside a
/// tile and across tiles; every other term still lands.
#[test]
fn zeros_in_a_hide_non_finite_b_at_every_strip_position() {
    let poison = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
    for len in STRADDLING {
        for hole in 0..len {
            // One stored row of `a`, zero at `hole` and wherever the
            // wave says so; `w`'s row under every zero is poisoned.
            let a: Vec<f32> = (0..len)
                .map(|p| match (p == hole, p % 3) {
                    (true, _) => [0.0, -0.0][hole % 2],
                    (false, 0) => 0.0,
                    (false, _) => (p as f32 * 0.37).sin() + 1.5,
                })
                .collect();
            let n = 3;
            let w: Vec<f32> = (0..len * n)
                .map(|at| match a[at / n] == 0.0 {
                    true => poison[at % 3],
                    false => (at as f32 * 0.11).cos(),
                })
                .collect();
            assert_skipping_gemms_match_reference((1, len, n), &a, &w);
            // The same row as the only row of `aᵀ`'s operand: output
            // row `i` is `a[i] * g`, so a zero leaves it `+0.0` even
            // under a poisoned `g`.
            let (a_row, g) = (
                Matrix::from_vec(1, len, a.clone()),
                Matrix::from_vec(1, n, poison.to_vec()),
            );
            for copy in copies() {
                let got = matmul_transpose_a_with(copy, &a_row, &g);
                for (i, row) in got.as_slice().chunks(n).enumerate() {
                    assert_eq!(
                        row.iter().all(|v| v.to_bits() == 0),
                        a[i] == 0.0,
                        "matmul_transpose_a len {len} hole {hole} row {i} {copy:?}"
                    );
                }
            }
        }
    }
}

/// `len` finite values with `special` at the first element, the last
/// and element 8: the block heads and tails of both copies' loops.
fn with_specials(len: usize, seed: f32, special: f32) -> Vec<f32> {
    let mut xs: Vec<f32> = (0..len).map(|i| (i as f32 * seed).sin() * 3.0).collect();
    for at in [0, len - 1, 8] {
        if at < len {
            xs[at] = special;
        }
    }
    xs
}

/// The lengths the encode passes are run at: [`STRADDLING`], and one
/// past two of their 2 048-element blocks.
fn encode_lengths() -> impl Iterator<Item = usize> {
    STRADDLING.into_iter().chain([2 * 2048 + 3])
}

/// Both copies of the compensate-and-range pass give the same sums and
/// range, bit for bit, and those of a plain sum followed by `minmax`,
/// with NaN and ±inf at the ends and inside the first lanes.
#[test]
fn add_into_minmax_copies_agree_bitwise() {
    for len in encode_lengths() {
        for special in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let a = with_specials(len, 0.37, special);
            let b: Vec<f32> = (0..len).map(|i| (i as f32 * 0.11).cos()).collect();
            let sums: Vec<f32> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
            let (lo, hi) = codec::minmax(&sums);
            for copy in copies() {
                let mut out = vec![7.0; 3];
                let range = codec::add_into_minmax_with(copy, &a, &b, &mut out);
                let case = format!("len {len} special {special} {copy:?}");
                assert_eq!(bits(&out), bits(&sums), "{case}");
                assert_eq!(bits(&[range.0, range.1]), bits(&[lo, hi]), "{case}");
            }
        }
    }
}

/// Both copies of the quantize-and-residual pass write the same codes
/// (`quantize_i8_into`'s), residuals and `(min, scale)`, bit for bit,
/// with NaN and ±inf at the ends and inside the first lanes.
#[test]
fn quantize_i8_residual_copies_agree_bitwise() {
    for len in encode_lengths() {
        for special in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let xs = with_specials(len, 0.29, special);
            let (lo, hi) = codec::minmax(&xs);
            let mut want_codes = Vec::new();
            let want = codec::quantize_i8_into(&xs, &mut want_codes);
            let mut runs = copies().into_iter().map(|copy| {
                let (mut codes, mut residual) = (vec![5; 2], vec![0.0; len]);
                let got = codec::quantize_i8_residual_into_with(
                    copy,
                    &xs,
                    lo,
                    hi,
                    &mut codes,
                    &mut residual,
                );
                (copy, got, codes, residual)
            });
            let (_, first, first_codes, first_residual) = runs.next().expect("the portable copy");
            assert_eq!(first_codes, want_codes, "len {len} special {special}");
            assert_eq!(bits(&[first.0, first.1]), bits(&[want.0, want.1]));
            for (copy, got, codes, residual) in runs {
                let case = format!("len {len} special {special} {copy:?}");
                assert_eq!(codes, first_codes, "{case}");
                assert_eq!(bits(&residual), bits(&first_residual), "{case}");
                assert_eq!(bits(&[got.0, got.1]), bits(&[first.0, first.1]), "{case}");
            }
        }
    }
}

/// Both copies of the RMSprop update give the scalar loop's bits, with
/// NaN, ±inf and ±0 in the gradient and in the state, at lengths around
/// both copies' vector widths.
#[test]
fn rmsprop_update_copies_match_the_scalar_loop_bitwise() {
    let hyper = (0.01f32, 0.9f32, 1e-7f32);
    let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0];
    for len in STRADDLING {
        for (at, special) in specials.into_iter().enumerate() {
            let mut grads = with_specials(len, 0.41, special);
            let mut cache: Vec<f32> = (0..len).map(|i| (i as f32 * 0.23).cos().abs()).collect();
            // The other specials further in, in the state and the
            // gradient both.
            for (i, &s) in specials.iter().cycle().skip(at + 1).take(4).enumerate() {
                let j = (3 + 5 * i) % len;
                cache[(j + 1) % len] = s;
                grads[j] = s;
            }
            let params: Vec<f32> = (0..len).map(|i| (i as f32 * 0.07).sin()).collect();
            let (lr, rho, eps) = hyper;
            let (mut want_c, mut want_p) = (cache.clone(), params.clone());
            for ((c, p), &g) in want_c.iter_mut().zip(&mut want_p).zip(&grads) {
                *c = rho * *c + (1.0 - rho) * g * g;
                *p -= lr * g / (c.sqrt() + eps);
            }
            for copy in copies() {
                let (mut c, mut p) = (cache.clone(), params.clone());
                ops::rmsprop_update_with(copy, hyper, &mut c, &mut p, &grads);
                let case = format!("len {len} special {special} {copy:?}");
                assert_eq!(bits(&c), bits(&want_c), "state, {case}");
                assert_eq!(bits(&p), bits(&want_p), "weights, {case}");
            }
        }
    }
}

/// Top-k spelled out naively: sort every index by magnitude descending
/// (NaN below every real magnitude, `-0.0` equal to `+0.0`), then by
/// index ascending; keep `k`; list them by index.
fn top_k_reference(xs: &[f32], k: usize) -> Vec<u32> {
    let magnitude = |i: usize| (!xs[i].is_nan()).then(|| xs[i].abs());
    let mut by_rank: Vec<usize> = (0..xs.len()).collect();
    by_rank.sort_by(|&i, &j| {
        magnitude(j)
            .partial_cmp(&magnitude(i))
            .expect("magnitudes without NaN are ordered")
            .then(i.cmp(&j))
    });
    let mut picked: Vec<u32> = by_rank[..k].iter().map(|&i| i as u32).collect();
    picked.sort_unstable();
    picked
}

/// `top_k_by_magnitude_into` picks the naive full sort's winners, in
/// index order with their values, on heavy ties (one RMSprop step from
/// zero state gives nearly every weight the same magnitude; a constant
/// slice gives every one), on NaN and ±inf, at `k` from 1 to `n`, and
/// at lengths around the bitmap's 64-bit words. The buffers stay warm
/// across calls.
#[test]
fn top_k_matches_a_full_sort_reference() {
    let (mut order, mut indices, mut values) = (Vec::new(), Vec::new(), Vec::new());
    for n in [1, 2, 63, 64, 65, 129, 1000] {
        let grads: Vec<f32> = (0..n).map(|i| (i as f32 * 0.61).sin()).collect();
        let mut delta = ParamVec::zeros(n);
        RmsProp::new(0.01).step(&mut delta, &ParamVec(grads));
        let mut specials = with_specials(n, 0.43, f32::NAN);
        for at in (3..n).step_by(7) {
            specials[at] = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -0.0, 0.0][at % 5];
        }
        let inputs = [
            ("rmsprop first step", delta.0),
            ("constant", vec![-0.25; n]),
            ("specials", specials),
        ];
        for (name, xs) in &inputs {
            for k in [1, n / 10, n / 2, n.saturating_sub(1), n] {
                if k == 0 {
                    continue;
                }
                codec::top_k_by_magnitude_into(xs, k, &mut order, &mut indices, &mut values);
                let case = format!("{name} n {n} k {k}");
                assert_eq!(indices, top_k_reference(xs, k), "{case}");
                let want: Vec<f32> = indices.iter().map(|&i| xs[i as usize]).collect();
                assert_eq!(bits(&values), bits(&want), "{case}");
            }
        }
    }
}

proptest! {
    /// `ops::axpy` (8-wide unrolled) is bitwise `ops::axpy_scalar`,
    /// including NaN/±inf propagation.
    #[test]
    fn axpy_matches_scalar_reference_bitwise(
        alpha in -10.0f32..10.0,
        xs in prop::collection::vec(-100.0f32..100.0, 0..300),
        out in prop::collection::vec(-100.0f32..100.0, 0..300),
        tags in prop::collection::vec(0u8..40, 0..300),
    ) {
        let n = xs.len().min(out.len());
        let mut x = xs[..n].to_vec();
        inject_specials(&mut x, &tags);
        let mut fast = out[..n].to_vec();
        let mut slow = fast.clone();
        ops::axpy(alpha, &x, &mut fast);
        ops::axpy_scalar(alpha, &x, &mut slow);
        prop_assert_eq!(bits(&fast), bits(&slow));
    }

    /// Every GEMM form is its naive `k`-ordered reference on awkward
    /// shapes, with NaN/±inf/−0.0 in both operands and zeros in `a`;
    /// a zero-size dimension gives an empty or all-zero result. `m`
    /// and `n` reach 33 and 40, so the tile meets every row remainder
    /// after whole 4-row tiles, and two whole 16-column panels before
    /// every padded one.
    #[test]
    fn gemm_forms_match_reference_bitwise(
        m in 0usize..=33,
        k in 0usize..=33,
        n in 0usize..=40,
        a in prop::collection::vec(-4.0f32..4.0, 33 * 40),
        b in prop::collection::vec(-4.0f32..4.0, 33 * 40),
        tags_a in prop::collection::vec(0u8..12, 33 * 40),
        tags_b in prop::collection::vec(0u8..40, 33 * 40),
    ) {
        let (mut a, mut b) = (a, b);
        assert_gemm_forms_match_reference((m, k, n), &a, &b);
        inject_specials(&mut a, &tags_a);
        inject_specials(&mut b, &tags_b);
        assert_gemm_forms_match_reference((m, k, n), &a, &b);
    }

    /// The zero skip is a masked accumulate, not a branch per element:
    /// both skipping GEMMs stay bitwise the naive reference over rows
    /// of `a` that are all zero, all non-zero, or mixed — `-0.0`
    /// counting as zero and NaN as non-zero — at row lengths around
    /// the tile, with non-finite values in `b`.
    #[test]
    fn zero_skipping_gemms_match_reference_on_sparsity_patterns(
        rows in 1usize..=4,
        len_pick in 0usize..STRADDLING.len(),
        n in 1usize..=12,
        row_kinds in prop::collection::vec(0u8..6, 4),
        cells in prop::collection::vec(0u8..8, 4 * LONGEST),
        a in prop::collection::vec(-4.0f32..4.0, 4 * LONGEST),
        b in prop::collection::vec(-4.0f32..4.0, 12 * LONGEST),
        tags_b in prop::collection::vec(0u8..200, 12 * LONGEST),
    ) {
        let len = STRADDLING[len_pick];
        let nonzero = |v: f32| if v == 0.0 { 1.0 } else { v };
        let a: Vec<f32> = (0..rows * len)
            .map(|at| match (row_kinds[at / len], cells[at]) {
                // All zero, of both signs.
                (0, cell) => [0.0, -0.0][usize::from(cell % 2)],
                // All non-zero.
                (1, _) => nonzero(a[at]),
                // Mixed, about half zeros; one row kind in six also
                // carries NaNs (a NaN poisons its whole output row).
                (_, 0..=2) => 0.0,
                (_, 3) => -0.0,
                (2, 4) => f32::NAN,
                _ => nonzero(a[at]),
            })
            .collect();
        let mut b = b;
        inject_specials(&mut b, &tags_b);
        assert_skipping_gemms_match_reference((rows, len, n), &a, &b);
    }

    /// `ops::scale` is bitwise `ops::scale_scalar`.
    #[test]
    fn scale_matches_scalar_reference_bitwise(
        alpha in -10.0f32..10.0,
        out in prop::collection::vec(-100.0f32..100.0, 0..300),
        tags in prop::collection::vec(0u8..40, 0..300),
    ) {
        let mut fast = out.clone();
        inject_specials(&mut fast, &tags);
        let mut slow = fast.clone();
        ops::scale(alpha, &mut fast);
        ops::scale_scalar(alpha, &mut slow);
        prop_assert_eq!(bits(&fast), bits(&slow));
    }

    /// The unrolled dequantize-and-accumulate kernel is bitwise its
    /// scalar reference for every code pattern and affine range.
    #[test]
    fn dequantize_i8_axpy_matches_scalar_reference_bitwise(
        alpha in -4.0f32..4.0,
        min in -50.0f32..50.0,
        scale in 0.0f32..2.0,
        codes in prop::collection::vec(-128i8..=127, 0..300),
        out in prop::collection::vec(-100.0f32..100.0, 0..300),
    ) {
        let n = codes.len().min(out.len());
        let mut fast = out[..n].to_vec();
        let mut slow = fast.clone();
        codec::dequantize_i8_axpy(alpha, min, scale, &codes[..n], &mut fast);
        codec::dequantize_i8_axpy_scalar(alpha, min, scale, &codes[..n], &mut slow);
        prop_assert_eq!(bits(&fast), bits(&slow));
    }

    /// The unrolled sparse scatter-accumulate is bitwise its scalar
    /// reference on arbitrary sorted index subsets.
    #[test]
    fn axpy_sparse_matches_scalar_reference_bitwise(
        alpha in -4.0f32..4.0,
        out in prop::collection::vec(-100.0f32..100.0, 1..300),
        mask in prop::collection::vec(0u8..3, 300),
        vals in prop::collection::vec(-50.0f32..50.0, 300),
    ) {
        let indices: Vec<u32> = (0..out.len() as u32)
            .filter(|&i| mask[i as usize] == 0)
            .collect();
        let mut idx_delta = Vec::new();
        codec::delta_encode_indices_into(&indices, &mut idx_delta);
        let values = &vals[..indices.len()];
        let mut fast = out.clone();
        let mut slow = out.clone();
        codec::axpy_sparse(alpha, &idx_delta, values, &mut fast);
        codec::axpy_sparse_scalar(alpha, &idx_delta, values, &mut slow);
        prop_assert_eq!(bits(&fast), bits(&slow));
    }

    /// Non-finite contract of `quantize_i8_into`: the range covers finite
    /// elements only, NaN/−inf pin to code −128, +inf to 127, and every
    /// finite element round-trips within one quantization step.
    #[test]
    fn quantize_i8_honours_the_non_finite_contract(
        xs in prop::collection::vec(-100.0f32..100.0, 1..300),
        tags in prop::collection::vec(0u8..20, 1..300),
    ) {
        let mut xs = xs;
        inject_specials(&mut xs, &tags);
        let mut codes = Vec::new();
        let (min, scale) = codec::quantize_i8_into(&xs, &mut codes);
        prop_assert_eq!(codes.len(), xs.len());
        prop_assert!(min.is_finite() && scale.is_finite());
        prop_assert!(scale >= 0.0);
        for (&x, &c) in xs.iter().zip(&codes) {
            if x.is_nan() || x == f32::NEG_INFINITY {
                prop_assert_eq!(c, -128, "non-finite low must decode to min");
            } else if x == f32::INFINITY && scale > 0.0 {
                prop_assert_eq!(c, 127, "+inf must saturate to the top code");
            } else if x.is_finite() {
                let decoded = min + scale * (f32::from(c) + 128.0);
                prop_assert!(
                    (decoded - x).abs() <= scale.max(1e-4),
                    "finite {x} decoded to {decoded} (step {scale})"
                );
            }
        }
    }

    /// NaN magnitudes genuinely lose top-k selection: a NaN coordinate
    /// is picked only when k exceeds the number of non-NaN coordinates.
    #[test]
    fn top_k_never_selects_nan_over_non_nan(
        xs in prop::collection::vec(-100.0f32..100.0, 1..200),
        tags in prop::collection::vec(0u8..6, 1..200),
        k_frac in 0.05f32..1.0,
    ) {
        let mut xs = xs;
        inject_specials(&mut xs, &tags);
        let k = ((xs.len() as f32 * k_frac).ceil() as usize).clamp(1, xs.len());
        let (mut order, mut indices, mut values) = (Vec::new(), Vec::new(), Vec::new());
        codec::top_k_by_magnitude_into(&xs, k, &mut order, &mut indices, &mut values);
        let picked: Vec<(u32, f32)> = indices.into_iter().zip(values).collect();
        prop_assert_eq!(picked.len(), k);
        let non_nan = xs.iter().filter(|x| !x.is_nan()).count();
        let picked_nan = picked
            .iter()
            .filter(|&&(i, _)| xs[i as usize].is_nan())
            .count();
        prop_assert_eq!(
            picked_nan,
            k.saturating_sub(non_nan),
            "NaNs must only fill slots no non-NaN value could take"
        );
        // Indices are strictly increasing and values mirror the input.
        for w in picked.windows(2) {
            prop_assert!(w[0].0 < w[1].0);
        }
        for &(i, v) in &picked {
            prop_assert_eq!(v.to_bits(), xs[i as usize].to_bits());
        }
    }

    /// The one encoder, with a zero residual, keeps the kernels'
    /// non-finite contracts: its int8 payload is `quantize_i8_into`'s,
    /// and its top-k payload keeps `top_k_by_magnitude_into`'s
    /// coordinates, NaNs losing selection. (A zero residual turns a
    /// `-0.0` into `+0.0`, so values compare as floats, NaN to NaN.)
    #[test]
    fn compensated_encode_keeps_the_kernel_contracts(
        xs in prop::collection::vec(-100.0f32..100.0, 1..300),
        tags in prop::collection::vec(0u8..20, 1..300),
        frac in 0.05f64..1.0,
    ) {
        let mut xs = xs;
        inject_specials(&mut xs, &tags);
        let p = ParamVec(xs.clone());
        let base = ParamVec::zeros(xs.len());
        let same = |a: f32, b: f32| a == b || (a.is_nan() && b.is_nan());

        let mut codes = Vec::new();
        let (min, scale) = codec::quantize_i8_into(&xs, &mut codes);
        match encode_first(CodecSpec::QuantizeI8, &p, &base) {
            EncodedUpdate::QuantI8 { min: m, scale: s, codes: c, .. } => {
                prop_assert!(m == min && s == scale, "({m}, {s}) vs ({min}, {scale})");
                prop_assert_eq!(c, codes);
            }
            other => panic!("wrong payload {other:?}"),
        }

        let k = CodecSpec::top_k_of(frac, xs.len());
        let (mut order, mut indices, mut values) = (Vec::new(), Vec::new(), Vec::new());
        codec::top_k_by_magnitude_into(&xs, k, &mut order, &mut indices, &mut values);
        let mut want = Vec::new();
        codec::delta_encode_indices_into(&indices, &mut want);
        match encode_first(CodecSpec::TopK { frac }, &p, &base) {
            EncodedUpdate::SparseDelta { idx_delta, values: v, .. } => {
                prop_assert_eq!(idx_delta, want);
                prop_assert!(v.iter().zip(&values).all(|(&a, &b)| same(a, b)));
            }
            other => panic!("wrong payload {other:?}"),
        }
    }

    /// A scratch that has served and recycled payloads encodes exactly
    /// as a fresh one, at the planned wire size, for every codec.
    #[test]
    fn a_warm_scratch_encodes_as_a_fresh_one(
        params in prop::collection::vec(-10.0f32..10.0, 1..400),
        base in prop::collection::vec(-10.0f32..10.0, 1..400),
        frac in 0.05f64..1.0,
    ) {
        let n = params.len().min(base.len());
        let p = ParamVec(params[..n].to_vec());
        let b = ParamVec(base[..n].to_vec());
        let mut warm = EncodeScratch::new();
        for codec in [
            CodecSpec::Identity,
            CodecSpec::QuantizeI8,
            CodecSpec::TopK { frac },
        ] {
            for _ in 0..2 {
                let mut residual = vec![0.0; n];
                let enc = encode_compensated(codec, &mut residual, &p, &b, &mut warm);
                prop_assert_eq!(&enc, &encode_first(codec, &p, &b), "{:?}", codec);
                prop_assert_eq!(enc.wire_bytes(), codec.encoded_bytes(n));
                warm.recycle(enc);
            }
        }
    }
}

/// A client's first upload of `p`: a zero residual, a fresh scratch.
fn encode_first(codec: CodecSpec, p: &ParamVec, base: &ParamVec) -> EncodedUpdate {
    let mut residual = vec![0.0; p.len()];
    encode_compensated(codec, &mut residual, p, base, &mut EncodeScratch::new())
}
