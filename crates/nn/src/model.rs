//! The model: a two-layer MLP trained with softmax cross-entropy.

use crate::loss::{softmax_cross_entropy_into, softmax_cross_entropy_loss};
use crate::metrics;
use crate::optim::Optimizer;
use rand::rngs::StdRng;
use tifl_tensor::ops::{KernelCopy, OutputLayerScratch};
use tifl_tensor::{init, ops, Matrix, ParamVec};

/// ReLU in place: every value that is not above zero (NaN included)
/// becomes `0.0`.
pub fn relu(x: &mut [f32]) {
    // Selects, not branches: whether a unit fired is a coin flip the
    // predictor loses, and a select vectorises.
    for v in x {
        *v = if *v > 0.0 { *v } else { 0.0 };
    }
}

/// ReLU's backward pass in place: zero `grad` wherever the activation
/// `h` that [`relu`] produced is not above zero. A ReLU output is
/// positive exactly where its input was (NaN, ±0 and subnormals
/// included), so `h` is the whole mask.
///
/// # Panics
/// Panics if `h` and `grad` differ in length.
pub fn relu_backward(h: &[f32], grad: &mut [f32]) {
    assert_eq!(h.len(), grad.len(), "relu_backward length mismatch");
    for (g, &h) in grad.iter_mut().zip(h) {
        *g = if h > 0.0 { *g } else { 0.0 };
    }
}

/// A fully connected layer `y = x W + b` and the gradients its last
/// backward pass recorded.
struct Dense {
    w: Matrix,
    b: Vec<f32>,
    grad_w: Matrix,
    grad_b: Vec<f32>,
}

impl Dense {
    /// Xavier-uniform weights drawn from `rng`, or all zero without
    /// one (for a model about to be loaded with parameters); zero bias.
    fn new(in_features: usize, out_features: usize, rng: Option<&mut StdRng>) -> Self {
        Self {
            w: match rng {
                Some(rng) => init::xavier_uniform(in_features, out_features, rng),
                None => Matrix::zeros(in_features, out_features),
            },
            b: vec![0.0; out_features],
            grad_w: Matrix::zeros(in_features, out_features),
            grad_b: vec![0.0; out_features],
        }
    }

    fn len(&self) -> usize {
        self.w.len() + self.b.len()
    }

    /// `x W + b`.
    fn affine(&self, x: &Matrix) -> Matrix {
        let mut y = ops::matmul(x, &self.w);
        ops::add_bias(&mut y, &self.b);
        y
    }

    /// `dW = X^T dY` and `db = column sums of dY`, into the layer's own
    /// gradient buffers.
    fn record_grads(&mut self, copy: KernelCopy, x: &Matrix, grad: &Matrix) {
        ops::matmul_transpose_a_into_with(copy, x, grad, &mut self.grad_w);
        ops::col_sum_into(grad, &mut self.grad_b);
    }

    /// Forward pass plus two backward GEMMs, 2 flops per MAC.
    fn flops_per_sample(&self) -> u64 {
        6 * self.w.len() as u64
    }
}

/// The two-layer MLP `x → relu(x·W1 + b1)·W2 + b2`, trained with
/// softmax cross-entropy.
///
/// This is the "model" unit the FL layer clones to clients each round:
/// it can export/import all parameters as a flat [`ParamVec`]
/// ([`Sequential::params`] / [`Sequential::set_params`]) in the order
/// `W1, b1, W2, b2`, which is what the aggregator averages.
pub struct Sequential {
    hidden: Dense,
    output: Dense,
    /// The last training forward's input and hidden activation, for
    /// the backward pass.
    cache: Option<(Matrix, Matrix)>,
    /// [`Sequential::train_batch`]'s hidden activation, and the logits,
    /// `δ` and `dL/dh` of its output-layer pass: kept between steps, so
    /// a warm step allocates nothing.
    h: Matrix,
    pass: OutputLayerScratch,
}

impl Sequential {
    /// The MLP `input → hidden → classes`, weights drawn from `init` or
    /// all zero.
    pub(crate) fn mlp(
        input: usize,
        hidden: usize,
        classes: usize,
        mut init: Option<&mut StdRng>,
    ) -> Self {
        Self {
            hidden: Dense::new(input, hidden, init.as_deref_mut()),
            output: Dense::new(hidden, classes, init),
            cache: None,
            h: Matrix::zeros(0, 0),
            pass: OutputLayerScratch::default(),
        }
    }

    /// Total trainable parameter count.
    #[must_use]
    pub fn param_count(&self) -> usize {
        self.hidden.len() + self.output.len()
    }

    /// Approximate FLOPs to process one sample (forward + backward).
    /// The simulator's latency model scales this by sample count and the
    /// client's CPU share.
    #[must_use]
    pub fn flops_per_sample(&self) -> u64 {
        let relu = 2 * self.hidden.b.len() as u64;
        self.hidden.flops_per_sample() + relu + self.output.flops_per_sample()
    }

    /// Size of a serialised model update in bytes (4 bytes/param), used
    /// by the simulator's communication model.
    #[must_use]
    pub fn update_bytes(&self) -> u64 {
        4 * self.param_count() as u64
    }

    /// Forward pass, keeping `x` and the hidden activation for
    /// [`Sequential::backward`]. Nothing reads `train` (the model has no
    /// stochastic layer); the frozen benchmark passes it.
    pub fn forward(&mut self, x: Matrix, _train: bool) -> Matrix {
        let mut h = self.hidden.affine(&x);
        relu(h.as_mut_slice());
        let logits = self.output.affine(&h);
        self.cache = Some((x, h));
        logits
    }

    /// Inference: the logits `forward` returns, bit for bit. Nothing is
    /// cached and `x` is only read, so one model serves any number of
    /// threads.
    #[must_use]
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let mut h = self.hidden.affine(x);
        relu(h.as_mut_slice());
        self.output.affine(&h)
    }

    /// Record the parameter gradients for `dL/d(logits)` and return the
    /// gradient at the hidden layer's output, masked by ReLU.
    fn backward_to_hidden(&mut self, grad: &Matrix) -> Matrix {
        let (x, h) = self
            .cache
            .take()
            .expect("Sequential::backward called without a preceding forward");
        let copy = KernelCopy::detect();
        self.output.record_grads(copy, &h, grad);
        let mut dh = ops::matmul_transpose_b(grad, &self.output.w);
        relu_backward(h.as_slice(), dh.as_mut_slice());
        self.hidden.record_grads(copy, &x, &dh);
        dh
    }

    /// Backward pass (call after `forward`): records the parameter
    /// gradients for `dL/d(logits)` and returns `dL/dx`.
    pub fn backward(&mut self, grad: Matrix) -> Matrix {
        let dh = self.backward_to_hidden(&grad);
        ops::matmul_transpose_b(&dh, &self.hidden.w)
    }

    /// Export all parameters as a flat vector.
    #[must_use]
    pub fn params(&self) -> ParamVec {
        let mut out = ParamVec::default();
        self.params_into(&mut out);
        out
    }

    /// Export all parameters into a caller-owned buffer, reusing its
    /// capacity. Allocation-free once `out` has grown to `param_count()`.
    pub fn params_into(&self, out: &mut ParamVec) {
        out.0.clear();
        out.0.reserve(self.param_count());
        for layer in [&self.hidden, &self.output] {
            out.0.extend_from_slice(layer.w.as_slice());
            out.0.extend_from_slice(&layer.b);
        }
    }

    /// Export the gradients recorded by the last backward pass.
    #[must_use]
    pub fn grads(&self) -> ParamVec {
        let mut out = Vec::with_capacity(self.param_count());
        for layer in [&self.hidden, &self.output] {
            out.extend_from_slice(layer.grad_w.as_slice());
            out.extend_from_slice(&layer.grad_b);
        }
        ParamVec(out)
    }

    /// Load parameters from a flat vector.
    ///
    /// # Panics
    /// Panics if `params.len() != self.param_count()`.
    pub fn set_params(&mut self, params: &ParamVec) {
        assert_eq!(
            params.len(),
            self.param_count(),
            "set_params length mismatch: {} vs {}",
            params.len(),
            self.param_count()
        );
        let mut src = params.as_slice();
        for layer in [&mut self.hidden, &mut self.output] {
            let (w, rest) = src.split_at(layer.w.len());
            let (b, rest) = rest.split_at(layer.b.len());
            layer.w.as_mut_slice().copy_from_slice(w);
            layer.b.copy_from_slice(b);
            src = rest;
        }
    }

    /// One optimisation step on a mini-batch; returns the batch loss.
    ///
    /// Equal, bit for bit, to `forward` → loss → `backward` →
    /// `Optimizer::step` on `params()`/`grads()` → `set_params` (a NaN
    /// keeps its place, if not its payload), minus what that
    /// composition throws away: no input gradient `dL/dx`, and the
    /// optimiser steps each weight and bias buffer in place at its
    /// offset in the flat vector. The output layer is one pass
    /// ([`ops::output_layer`]: logits, loss, `δ`, its gradients and
    /// `dL/dh` masked by ReLU), and the hidden activation and every
    /// intermediate live in buffers the model keeps, so a warm step
    /// allocates nothing.
    pub fn train_batch(&mut self, x: Matrix, labels: &[usize], opt: &mut dyn Optimizer) -> f32 {
        self.train_batch_with(KernelCopy::detect(), x, labels, opt)
    }

    /// [`Sequential::train_batch`] with its GEMMs in the compiled copy
    /// `copy`.
    #[doc(hidden)]
    pub fn train_batch_with(
        &mut self,
        copy: KernelCopy,
        x: Matrix,
        labels: &[usize],
        opt: &mut dyn Optimizer,
    ) -> f32 {
        let Self {
            hidden,
            output,
            h,
            pass,
            ..
        } = self;
        ops::matmul_into_with(copy, &x, &hidden.w, h);
        ops::add_bias(h, &hidden.b);
        relu(h.as_mut_slice());
        let loss = ops::output_layer_with(
            copy,
            h,
            (&output.w, &output.b),
            |logits, delta, ld| softmax_cross_entropy_into(logits, labels, delta, ld),
            (&mut output.grad_w, &mut output.grad_b),
            pass,
        );
        hidden.record_grads(copy, &x, pass.dh());
        let mut offset = 0;
        for layer in [hidden, output] {
            opt.step_slice(offset, layer.w.as_mut_slice(), layer.grad_w.as_slice());
            offset += layer.w.len();
            opt.step_slice(offset, &mut layer.b, &layer.grad_b);
            offset += layer.b.len();
        }
        loss
    }

    /// Evaluate mean loss and accuracy on a labelled set: one
    /// [`Sequential::infer`], the loss without its gradient, and a count
    /// of correct rows. Nothing here mutates; `&mut self` is the
    /// signature the frozen benchmark calls.
    #[must_use]
    pub fn evaluate(&mut self, x: &Matrix, labels: &[usize]) -> EvalResult {
        assert_eq!(x.rows(), labels.len(), "evaluate: label count mismatch");
        if labels.is_empty() {
            return EvalResult {
                loss: 0.0,
                accuracy: 0.0,
                samples: 0,
            };
        }
        let logits = self.infer(x);
        EvalResult {
            loss: softmax_cross_entropy_loss(&logits, labels),
            accuracy: metrics::accuracy(&logits, labels),
            samples: labels.len(),
        }
    }
}

/// Result of [`Sequential::evaluate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalResult {
    /// Mean cross-entropy loss.
    pub loss: f32,
    /// Top-1 accuracy in `[0, 1]`.
    pub accuracy: f64,
    /// Number of samples evaluated.
    pub samples: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Sgd;
    use tifl_tensor::seed_rng;

    fn tiny_mlp(seed: u64) -> Sequential {
        Sequential::mlp(4, 16, 3, Some(&mut seed_rng(seed)))
    }

    /// A linearly separable 3-class toy problem.
    fn toy_data(n: usize, seed: u64) -> (Matrix, Vec<usize>) {
        use rand::Rng;
        let mut rng = seed_rng(seed);
        let mut x = Matrix::zeros(n, 4);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let class = rng.gen_range(0..3usize);
            let row = x.row_mut(i);
            for (j, v) in row.iter_mut().enumerate() {
                *v = rng.gen::<f32>() * 0.2 + if j == class { 1.0 } else { 0.0 };
            }
            y.push(class);
        }
        (x, y)
    }

    #[test]
    fn forward_known_values() {
        let mut m = Sequential::mlp(2, 2, 2, None);
        // W1 = [[1, 2], [3, -4]], b1 = [0.5, -0.5],
        // W2 = [[1, -1], [2, 3]], b2 = [0.25, 0].
        let params = [
            1.0, 2.0, 3.0, -4.0, 0.5, -0.5, 1.0, -1.0, 2.0, 3.0, 0.25, 0.0,
        ];
        m.set_params(&ParamVec(params.to_vec()));
        let x = Matrix::from_vec(2, 2, vec![1.0, 1.0, -1.0, 0.5]);
        // Row 0: x W1 + b1 = [4.5, -2.5], ReLU [4.5, 0],
        //        logits [4.5 + 0.25, -4.5] = [4.75, -4.5].
        // Row 1: x W1 + b1 = [1, -4.5], ReLU [1, 0],
        //        logits [1 + 0.25, -1] = [1.25, -1].
        let want = [4.75, -4.5, 1.25, -1.0];
        assert_eq!(m.infer(&x).as_slice(), &want);
        assert_eq!(m.forward(x, false).as_slice(), &want);
    }

    /// Central differences of `L = Σ c ⊙ logits` against the recorded
    /// gradients of all four parameter blocks and against `dL/dx`.
    #[test]
    fn gradients_match_central_differences() {
        let mut m = Sequential::mlp(3, 5, 2, Some(&mut seed_rng(3)));
        let x = Matrix::from_vec(2, 3, vec![0.5, -1.0, 2.0, 1.5, 0.3, -0.7]);
        let c = Matrix::from_vec(2, 2, vec![0.7, -1.3, 0.4, 1.1]);
        let loss = |m: &mut Sequential, x: &Matrix| -> f32 {
            let y = m.forward(x.clone(), true);
            y.as_slice()
                .iter()
                .zip(c.as_slice())
                .map(|(y, c)| y * c)
                .sum()
        };
        const EPS: f32 = 1e-2;
        // No perturbation below moves a pre-activation by more than
        // EPS * 2, so none crosses ReLU's kink, and both sides of it
        // are covered.
        let pre = m.hidden.affine(&x);
        assert!(
            pre.as_slice().iter().all(|v| v.abs() > 4.0 * EPS),
            "{pre:?}"
        );
        assert!(pre.as_slice().iter().any(|&v| v < 0.0));
        assert!(pre.as_slice().iter().any(|&v| v > 0.0));

        m.forward(x.clone(), true);
        let dx = m.backward(c.clone());
        let grads = m.grads();
        let params = m.params();
        let close = |fd: f32, analytic: f32, what: &str| {
            assert!(
                (fd - analytic).abs() < 2e-3,
                "{what}: central difference {fd} vs analytic {analytic}"
            );
        };
        for i in 0..params.len() {
            let mut shifted = params.clone();
            shifted.0[i] += EPS;
            m.set_params(&shifted);
            let plus = loss(&mut m, &x);
            shifted.0[i] -= 2.0 * EPS;
            m.set_params(&shifted);
            let minus = loss(&mut m, &x);
            close(
                (plus - minus) / (2.0 * EPS),
                grads.as_slice()[i],
                &format!("param {i}"),
            );
        }
        m.set_params(&params);
        for r in 0..x.rows() {
            for col in 0..x.cols() {
                let mut shifted = x.clone();
                shifted[(r, col)] += EPS;
                let plus = loss(&mut m, &shifted);
                shifted[(r, col)] -= 2.0 * EPS;
                let minus = loss(&mut m, &shifted);
                close(
                    (plus - minus) / (2.0 * EPS),
                    dx[(r, col)],
                    &format!("x[{r}, {col}]"),
                );
            }
        }
    }

    #[test]
    fn params_round_trip() {
        let m = tiny_mlp(0);
        let p = m.params();
        assert_eq!(p.len(), m.param_count());
        let mut m2 = tiny_mlp(1);
        m2.set_params(&p);
        assert_eq!(m2.params(), p);
    }

    /// The flat vector is each dense layer's weights then its bias,
    /// hidden layer first, for parameters and gradients alike.
    #[test]
    fn dense_param_round_trip() {
        let mut m = Sequential::mlp(3, 4, 2, None);
        let flat = ParamVec((0..m.param_count()).map(|i| i as f32).collect());
        m.set_params(&flat);
        let mut at = 0;
        for layer in [&m.hidden, &m.output] {
            let w = &flat.as_slice()[at..at + layer.w.len()];
            at += layer.w.len();
            let b = &flat.as_slice()[at..at + layer.b.len()];
            at += layer.b.len();
            assert_eq!(layer.w.as_slice(), w);
            assert_eq!(layer.b, b);
        }
        assert_eq!(at, m.hidden.len() + m.output.len());
        assert_eq!(m.params(), flat);

        let x = Matrix::from_vec(2, 3, vec![0.5, -1.0, 2.0, 1.5, 0.3, -0.7]);
        let logits = m.forward(x, true);
        m.backward(Matrix::filled(logits.rows(), logits.cols(), 1.0));
        let grads = m.grads();
        let mut at = 0;
        for layer in [&m.hidden, &m.output] {
            assert_eq!(
                &grads.as_slice()[at..at + layer.w.len()],
                layer.grad_w.as_slice()
            );
            at += layer.w.len();
            assert_eq!(&grads.as_slice()[at..at + layer.b.len()], &layer.grad_b[..]);
            at += layer.b.len();
        }
        assert_eq!(at, grads.len());
    }

    /// `infer` is `forward` with either `train` flag, and an `infer`
    /// between a training forward and its backward leaves the recorded
    /// gradients alone.
    #[test]
    fn infer_equals_forward() {
        let mut m = tiny_mlp(4);
        let (x, _) = toy_data(5, 10);
        let (other, _) = toy_data(7, 11);
        let inferred = m.infer(&x);
        assert_eq!(inferred, m.forward(x.clone(), false));
        assert_eq!(inferred, m.forward(x.clone(), true));
        let grad = Matrix::filled(inferred.rows(), inferred.cols(), 1.0);
        m.backward(grad.clone());
        let want = m.grads();

        m.forward(x, true);
        let _ = m.infer(&other);
        m.backward(grad);
        assert_eq!(m.grads(), want);
    }

    #[test]
    fn relu_zeroes_negatives_and_masks_grads() {
        let mut y = [-1.0, 2.0, 0.0, 3.0, f32::NAN, -0.0];
        relu(&mut y);
        assert_eq!(
            y.map(f32::to_bits),
            [0.0, 2.0, 0.0, 3.0, 0.0, 0.0].map(f32::to_bits)
        );
        let mut g = [1.0; 6];
        relu_backward(&y, &mut g);
        assert_eq!(g, [0.0, 1.0, 0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn set_params_rejects_wrong_length() {
        let mut m = tiny_mlp(0);
        m.set_params(&ParamVec::zeros(3));
    }

    #[test]
    fn training_reduces_loss_and_learns() {
        let mut m = tiny_mlp(2);
        let (x, y) = toy_data(128, 3);
        let mut opt = Sgd::new(0.5);
        let first = m.train_batch(x.clone(), &y, &mut opt);
        let mut last = first;
        for _ in 0..60 {
            last = m.train_batch(x.clone(), &y, &mut opt);
        }
        assert!(last < first * 0.5, "loss {first} -> {last} did not halve");
        let eval = m.evaluate(&x, &y);
        assert!(eval.accuracy > 0.9, "accuracy {}", eval.accuracy);
    }

    #[test]
    fn infer_returns_the_forward_logits_bitwise() {
        let mut m = tiny_mlp(8);
        let (x, _) = toy_data(33, 9);
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let inferred = m.infer(&x);
        assert_eq!(bits(&inferred), bits(&m.forward(x, false)));
    }

    #[test]
    fn evaluate_empty_set_is_zero() {
        let mut m = tiny_mlp(4);
        let r = m.evaluate(&Matrix::zeros(0, 4), &[]);
        assert_eq!(r.samples, 0);
        assert_eq!(r.accuracy, 0.0);
    }

    #[test]
    fn identical_seeds_give_identical_training() {
        let run = || {
            let mut m = tiny_mlp(5);
            let (x, y) = toy_data(64, 6);
            let mut opt = Sgd::new(0.1);
            for _ in 0..5 {
                m.train_batch(x.clone(), &y, &mut opt);
            }
            m.params()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn flops_positive_and_additive() {
        let m = tiny_mlp(7);
        // dense(4x16): 6*64, relu: 32, dense(16x3): 6*48
        assert_eq!(m.flops_per_sample(), 6 * 64 + 32 + 6 * 48);
        assert_eq!(m.update_bytes(), 4 * m.param_count() as u64);
    }
}
