//! Sequential model container.

use crate::layer::Layer;
use crate::loss::{softmax_cross_entropy, softmax_cross_entropy_loss};
use crate::metrics;
use crate::optim::Optimizer;
use std::borrow::Cow;
use tifl_tensor::{Matrix, ParamVec};

/// A stack of layers trained with softmax cross-entropy.
///
/// This is the "model" unit the FL layer clones to clients each round:
/// it can export/import all parameters as a flat [`ParamVec`]
/// ([`Sequential::params`] / [`Sequential::set_params`]), which is what
/// the aggregator averages.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Build from a list of layers.
    #[must_use]
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Self { layers }
    }

    /// Number of layers.
    #[must_use]
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Total trainable parameter count.
    #[must_use]
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Approximate FLOPs to process one sample (forward + backward).
    /// The simulator's latency model scales this by sample count and the
    /// client's CPU share.
    #[must_use]
    pub fn flops_per_sample(&self) -> u64 {
        self.layers.iter().map(|l| l.flops_per_sample()).sum()
    }

    /// Size of a serialised model update in bytes (4 bytes/param), used
    /// by the simulator's communication model.
    #[must_use]
    pub fn update_bytes(&self) -> u64 {
        4 * self.param_count() as u64
    }

    /// Forward pass through all layers.
    pub fn forward(&mut self, x: Matrix, train: bool) -> Matrix {
        self.layers
            .iter_mut()
            .fold(x, |acc, layer| layer.forward(acc, train))
    }

    /// Inference: the logits `forward` returns, bit for bit, through
    /// every layer's [`Layer::infer`]. Nothing is cached, nothing is
    /// masked, and `x` is only read (the first layer borrows it), so one
    /// model serves any number of threads.
    #[must_use]
    pub fn infer(&self, x: &Matrix) -> Matrix {
        self.layers
            .iter()
            .fold(Cow::Borrowed(x), |acc, layer| Cow::Owned(layer.infer(acc)))
            .into_owned()
    }

    /// Backward pass through all layers (call after `forward`).
    pub fn backward(&mut self, grad: Matrix) -> Matrix {
        self.layers
            .iter_mut()
            .rev()
            .fold(grad, |acc, layer| layer.backward(acc))
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
        for layer in &self.layers {
            layer.append_params(&mut out.0);
        }
    }

    /// Export the gradients recorded by the last backward pass.
    #[must_use]
    pub fn grads(&self) -> ParamVec {
        let mut out = Vec::with_capacity(self.param_count());
        for layer in &self.layers {
            layer.append_grads(&mut out);
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
        let mut offset = 0;
        for layer in &mut self.layers {
            offset += layer.load_params(&params.as_slice()[offset..]);
        }
        debug_assert_eq!(offset, params.len());
    }

    /// One optimisation step on a mini-batch; returns the batch loss.
    ///
    /// Equal, bit for bit, to `forward` → loss → `backward` →
    /// `Optimizer::step` on `params()`/`grads()` → `set_params`, minus
    /// what that composition throws away: the first layer computes no
    /// input gradient, and the optimiser steps each layer's own buffers
    /// at their offsets in the flat vector.
    pub fn train_batch(&mut self, x: Matrix, labels: &[usize], opt: &mut dyn Optimizer) -> f32 {
        let logits = self.forward(x, true);
        let (loss, dlogits) = softmax_cross_entropy(&logits, labels);
        if let Some((first, rest)) = self.layers.split_first_mut() {
            let grad = rest
                .iter_mut()
                .rev()
                .fold(dlogits, |acc, layer| layer.backward(acc));
            first.backward_params(grad);
        }
        let mut offset = 0;
        for layer in &mut self.layers {
            layer.for_each_param(&mut |params, grads| {
                opt.step_slice(offset, params, grads);
                offset += params.len();
            });
        }
        debug_assert_eq!(
            offset,
            self.param_count(),
            "a layer's for_each_param does not cover its param_count"
        );
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
    use crate::layer::{Dense, Relu};
    use crate::optim::Sgd;
    use tifl_tensor::seed_rng;

    fn tiny_mlp(seed: u64) -> Sequential {
        let mut rng = seed_rng(seed);
        Sequential::new(vec![
            Box::new(Dense::new(4, 16, &mut rng)),
            Box::new(Relu::new(16)),
            Box::new(Dense::new(16, 3, &mut rng)),
        ])
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
    fn params_round_trip() {
        let m = tiny_mlp(0);
        let p = m.params();
        assert_eq!(p.len(), m.param_count());
        let mut m2 = tiny_mlp(1);
        m2.set_params(&p);
        assert_eq!(m2.params(), p);
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
