//! The client train step against the public pieces it replaced.
//!
//! `Sequential::train_batch` skips work its result never needed (the
//! first layer's input gradient, the flat `grads()`/`params()` copies)
//! and `local_train`/`eval_model` build their model straight from the
//! global weights. None of that may change a bit: every step is held
//! to a reference composed from `forward`, `backward`, `grads`,
//! `params`, `Optimizer::step` and `set_params`, and `local_train` to
//! digests captured at f97334c, before the step was touched. `relu`
//! and `relu_backward`, whose loops are selects so that they vectorise,
//! are held to the branching loop they replaced.

use tifl::fl::client::{eval_model, local_train, ClientConfig, DpNoiseConfig, OptimizerSpec};
use tifl::nn::{relu, relu_backward, softmax_cross_entropy, Optimizer, RmsProp, Sequential};
use tifl::obs::Digest128;
use tifl::prelude::*;
use tifl::tensor::ops::KernelCopy;
use tifl::tensor::Matrix;

const MLP: ModelSpec = ModelSpec::Mlp {
    input: 64,
    hidden: 32,
    classes: 10,
};

fn data() -> Dataset {
    Generator::new(SynthSpec::family(SynthFamily::Mnist), 5).generate_uniform(60, 0)
}

/// One step from the public pieces only.
fn reference_step(model: &mut Sequential, x: Matrix, y: &[usize], opt: &mut dyn Optimizer) -> f32 {
    let logits = model.forward(x, true);
    let (loss, dlogits) = softmax_cross_entropy(&logits, y);
    let _ = model.backward(dlogits);
    let grads = model.grads();
    let mut params = model.params();
    opt.step(&mut params, &grads);
    model.set_params(&params);
    loss
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn train_batch_equals_the_reference_step_bitwise() {
    let data = data();
    let optimizers = [
        OptimizerSpec::Sgd { lr: 0.05 },
        OptimizerSpec::RmsProp { lr: 0.01 },
    ];
    for optimizer in optimizers {
        let (mut fast, mut slow) = (MLP.build(9), MLP.build(9));
        let (mut fast_opt, mut slow_opt) = (optimizer.build(1.0), optimizer.build(1.0));
        for step in 0..24 {
            // Batches of 10, 7 and 1 rows at shifting offsets.
            let rows = [10, 7, 1][step % 3];
            let batch: Vec<usize> = (0..rows).map(|i| (step * 7 + i) % data.len()).collect();
            let x = data.x.gather_rows(&batch);
            let y: Vec<usize> = batch.iter().map(|&i| data.y[i]).collect();
            let got = fast.train_batch(x.clone(), &y, fast_opt.as_mut());
            let want = reference_step(&mut slow, x, &y, slow_opt.as_mut());
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{optimizer:?} step {step}: loss"
            );
            assert_eq!(
                bits(fast.params().as_slice()),
                bits(slow.params().as_slice()),
                "{optimizer:?} step {step}: weights"
            );
        }
    }
}

/// [`bits`] with every NaN mapped to one pattern: an add of two NaNs
/// keeps the payload of whichever operand the compiler put first, which
/// IEEE 754 and Rust leave open (as `tests/kernels.rs`'s `gemm_bits`
/// says). Everything else is compared bit for bit.
fn canonical_bits(xs: &[f32]) -> Vec<u32> {
    let canonical = |x: &f32| if x.is_nan() { 0x7FC0_0000 } else { x.to_bits() };
    xs.iter().map(canonical).collect()
}

/// Where a special value goes: nowhere, or into `W2`, `b2` or the
/// input at a few positions (the first element, the last, and one
/// inside).
#[derive(Clone, Copy, Debug)]
enum Place {
    Nowhere,
    OutputWeights,
    OutputBias,
    Input,
}

/// The flat positions of `W2` and `b2` in `params()` for
/// `Mlp { input, hidden, classes }`.
fn output_ranges(
    input: usize,
    hidden: usize,
    classes: usize,
) -> (std::ops::Range<usize>, std::ops::Range<usize>) {
    let w2 = input * hidden + hidden;
    let b2 = w2 + hidden * classes;
    (w2..b2, b2..b2 + classes)
}

/// Three positions of a block of `len`: first, last and one inside.
fn spots(range: std::ops::Range<usize>) -> [usize; 3] {
    let len = range.end - range.start;
    [range.start, range.end - 1, range.start + len / 3]
}

/// `train_batch`, in each compiled copy this CPU runs and in the
/// portable body at 16 lanes, equals the reference step bit for bit (up
/// to NaN payloads) over batch sizes around the tile's 4 rows and
/// 16 lanes, hidden widths from 16 to
/// 2048, 2 to 62 classes, and ±0, NaN and ±inf placed in `W2`, `b2`
/// and `x`: the non-finite values drive the zero-skip decisions of the
/// output layer's GEMMs, which the pass must take as the composition
/// does.
#[test]
fn train_batch_equals_the_reference_step_on_every_copy_shape_and_special() {
    const INPUT: usize = 12;
    let mut copies = KernelCopy::available();
    copies.push(KernelCopy::PORTABLE_WIDE);
    let specials = [0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
    let places = [Place::OutputWeights, Place::OutputBias, Place::Input];
    let cases = std::iter::once((Place::Nowhere, 0.0))
        .chain(places.into_iter().flat_map(|p| specials.map(|v| (p, v))));
    let cases: Vec<(Place, f32)> = cases.collect();
    for hidden in [16, 32, 128, 2048] {
        for classes in [2, 10, 62] {
            let spec = ModelSpec::Mlp {
                input: INPUT,
                hidden,
                classes,
            };
            let (w2, b2) = output_ranges(INPUT, hidden, classes);
            for batch in [1, 6, 7, 10, 16] {
                let labels: Vec<usize> = (0..batch).map(|i| (i * 7) % classes).collect();
                for &(place, special) in &cases {
                    let mut params = spec.build(hidden as u64 + classes as u64).params();
                    let mut x = Matrix::from_fn(batch, INPUT, |r, c| {
                        ((r * INPUT + c) as f32 * 0.37).sin() * 2.0
                    });
                    let (target, at) = match place {
                        Place::Nowhere => (&mut params.0[..], vec![]),
                        Place::OutputWeights => (&mut params.0[..], spots(w2.clone()).to_vec()),
                        Place::OutputBias => (&mut params.0[..], spots(b2.clone()).to_vec()),
                        Place::Input => (x.as_mut_slice(), spots(0..batch * INPUT).to_vec()),
                    };
                    for at in at {
                        target[at] = special;
                    }
                    for &copy in &copies {
                        let case = format!(
                            "{copy:?} hidden {hidden} classes {classes} batch {batch} \
                             {special} in {place:?}"
                        );
                        let (mut fast, mut slow) = (spec.build(0), spec.build(0));
                        fast.set_params(&params);
                        slow.set_params(&params);
                        let (mut fast_opt, mut slow_opt) = (RmsProp::new(0.01), RmsProp::new(0.01));
                        for step in 0..2 {
                            let got =
                                fast.train_batch_with(copy, x.clone(), &labels, &mut fast_opt);
                            let want = reference_step(&mut slow, x.clone(), &labels, &mut slow_opt);
                            assert_eq!(
                                canonical_bits(&[got]),
                                canonical_bits(&[want]),
                                "{case} step {step}: loss"
                            );
                            assert_eq!(
                                canonical_bits(fast.params().as_slice()),
                                canonical_bits(slow.params().as_slice()),
                                "{case} step {step}: weights"
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn local_train_output_is_the_parents_with_fedprox_and_dp() {
    let data = data();
    let base = ClientConfig {
        local_epochs: 2,
        ..ClientConfig::paper_synthetic()
    };
    let dp = Some(DpNoiseConfig {
        clip: 0.5,
        noise_multiplier: 0.3,
    });
    let cases = [
        (
            "mlp fedprox",
            ClientConfig {
                proximal_mu: 0.25,
                ..base
            },
            "290cc3015f4f0d3d86bc4bea957d2f7e",
        ),
        (
            "mlp dp",
            ClientConfig { dp, ..base },
            "1bc340f4ca84198e8f274ed9dd6bdf0b",
        ),
    ];
    for (name, config, golden) in cases {
        let global = MLP.build(1).params();
        let updated = local_train(&MLP, &global, &data, &config, 3, 7, 42);
        assert_eq!(Digest128::of_value(&updated).to_string(), golden, "{name}");
    }
}

#[test]
fn eval_model_from_weights_evaluates_like_build_then_set_params() {
    let data = data();
    let global = MLP.build(3).params();
    let mut reference = MLP.build(0);
    reference.set_params(&global);
    let mut model = eval_model(&MLP, &global);
    assert_eq!(model.params(), global);
    let (got, want) = (
        model.evaluate(&data.x, &data.y),
        reference.evaluate(&data.x, &data.y),
    );
    assert_eq!(got, want);
    assert_eq!(got.loss.to_bits(), want.loss.to_bits());
}

/// ReLU as it was written before its loops became selects: forward
/// output, keep-mask, and the gradient the backward pass returns for
/// `grad`.
fn branching_relu(x: &[f32], grad: &[f32]) -> (Vec<f32>, Vec<bool>, Vec<f32>) {
    let mut y = x.to_vec();
    let mut mask = Vec::with_capacity(x.len());
    for v in &mut y {
        let keep = *v > 0.0;
        mask.push(keep);
        if !keep {
            *v = 0.0;
        }
    }
    let mut dx = grad.to_vec();
    for (g, &keep) in dx.iter_mut().zip(&mask) {
        if !keep {
            *g = 0.0;
        }
    }
    (y, mask, dx)
}

#[test]
fn relu_equals_the_branching_loop_bitwise_on_every_class_of_float() {
    let subnormal = f32::from_bits(1);
    let pool = [
        f32::NAN,
        -f32::NAN,
        0.0,
        -0.0,
        subnormal,
        -subnormal,
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        f32::INFINITY,
        f32::NEG_INFINITY,
        1.5,
        -1.5,
        f32::MAX,
        f32::MIN,
        3.0e-5,
        -7.25,
    ];
    let n = pool.len();
    // Every (activation, gradient) pair of the pool, at every offset
    // into a vector lane and with every remainder length.
    for shift in 0..8 {
        let len = n * n + shift;
        let x: Vec<f32> = (0..len).map(|i| pool[(i + shift) % n]).collect();
        let grad: Vec<f32> = (0..len).map(|i| pool[(i + shift) / n % n]).collect();
        let (want_y, want_mask, want_dx) = branching_relu(&x, &grad);

        let mut y = x;
        relu(&mut y);
        assert_eq!(bits(&y), bits(&want_y), "forward, shift {shift}");
        let mut dx = grad;
        relu_backward(&y, &mut dx);
        assert_eq!(bits(&dx), bits(&want_dx), "backward, shift {shift}");
        // The mask itself: a gradient of ones comes back as it.
        let mut ones = vec![1.0; len];
        relu_backward(&y, &mut ones);
        let mask: Vec<bool> = ones.iter().map(|&g| g == 1.0).collect();
        assert_eq!(mask, want_mask, "mask, shift {shift}");
    }
}
