//! Optimisers.
//!
//! The paper's synthetic-dataset experiments use RMSprop with initial
//! learning rate 0.01 and per-round decay 0.995 (§5); the LEAF/FEMNIST
//! experiments use plain SGD with lr 0.004. Both operate on flat
//! [`ParamVec`]s so they are agnostic to model structure.

use serde::{Deserialize, Serialize};
use tifl_tensor::{ops, ParamVec};

/// A first-order optimiser over flat parameter vectors.
///
/// Per-parameter state (RMSprop's squared-gradient mean) is one flat
/// vector indexed like the parameters; it starts at zero, grows on
/// demand and leaves with [`Optimizer::take_state`].
pub trait Optimizer: Send {
    /// Apply one update step to the block of the flat parameter vector
    /// that starts at `offset`: mutate `params` using `grads`. Stepping
    /// every block of a model once is one step on the whole vector.
    ///
    /// # Panics
    /// Implementations panic on length mismatch between `params`/`grads`.
    fn step_slice(&mut self, offset: usize, params: &mut [f32], grads: &[f32]);

    /// Apply one update step to a whole parameter vector.
    ///
    /// # Panics
    /// Panics on length mismatch between `params`/`grads`.
    fn step(&mut self, params: &mut ParamVec, grads: &ParamVec) {
        self.step_slice(0, &mut params.0, grads.as_slice());
    }

    /// Current learning rate.
    fn learning_rate(&self) -> f32;

    /// Multiply the learning rate by `factor` (per-round decay).
    fn decay_lr(&mut self, factor: f32);

    /// Hand over the per-parameter state buffer, leaving this optimiser
    /// a fresh zero state, so a later optimiser can keep its state in the
    /// same memory ([`RmsProp::with_state`]). A stateless optimiser hands
    /// over an empty buffer.
    fn take_state(&mut self) -> Vec<f32> {
        Vec::new()
    }
}

/// Plain stochastic gradient descent.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sgd {
    lr: f32,
}

impl Sgd {
    /// SGD with learning rate `lr`.
    #[must_use]
    pub fn new(lr: f32) -> Self {
        Self { lr }
    }
}

impl Optimizer for Sgd {
    fn step_slice(&mut self, _offset: usize, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), grads.len(), "Sgd::step length mismatch");
        ops::axpy(-self.lr, grads, params);
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn decay_lr(&mut self, factor: f32) {
        self.lr *= factor;
    }
}

/// RMSprop: adaptive per-parameter step sizes from a running mean of
/// squared gradients.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RmsProp {
    lr: f32,
    rho: f32,
    eps: f32,
    cache: Vec<f32>,
}

impl RmsProp {
    /// RMSprop with the paper's defaults (`rho = 0.9`, `eps = 1e-7`).
    #[must_use]
    pub fn new(lr: f32) -> Self {
        Self::with_params(lr, 0.9, 1e-7)
    }

    /// RMSprop with explicit smoothing constant and epsilon.
    #[must_use]
    pub fn with_params(lr: f32, rho: f32, eps: f32) -> Self {
        Self {
            lr,
            rho,
            eps,
            cache: Vec::new(),
        }
    }

    /// [`RmsProp::new`], its state kept in `state`'s memory (one that
    /// an earlier optimiser handed over with
    /// [`Optimizer::take_state`]). The buffer is cleared, so the state
    /// starts at zero as a new optimiser's does and steps bit for bit
    /// the same; it only grows into memory that is already mapped.
    #[must_use]
    pub fn with_state(lr: f32, mut state: Vec<f32>) -> Self {
        state.clear();
        Self {
            cache: state,
            ..Self::new(lr)
        }
    }
}

/// The `len` state entries at `offset`, zero-extending `state` to reach.
fn state_block(state: &mut Vec<f32>, offset: usize, len: usize) -> &mut [f32] {
    if state.len() < offset + len {
        state.resize(offset + len, 0.0);
    }
    &mut state[offset..offset + len]
}

impl Optimizer for RmsProp {
    fn step_slice(&mut self, offset: usize, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), grads.len(), "RmsProp::step length mismatch");
        let cache = state_block(&mut self.cache, offset, params.len());
        ops::rmsprop_update((self.lr, self.rho, self.eps), cache, params, grads);
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn decay_lr(&mut self, factor: f32) {
        self.lr *= factor;
    }

    fn take_state(&mut self) -> Vec<f32> {
        std::mem::take(&mut self.cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sgd_moves_against_gradient() {
        let mut opt = Sgd::new(0.1);
        let mut p = ParamVec(vec![1.0, -1.0]);
        opt.step(&mut p, &ParamVec(vec![2.0, -2.0]));
        assert_eq!(p.0, vec![0.8, -0.8]);
    }

    #[test]
    fn rmsprop_normalises_gradient_scale() {
        // With very different gradient magnitudes, RMSprop steps should be
        // of comparable size after warm-up.
        let mut opt = RmsProp::new(0.01);
        let mut p = ParamVec(vec![0.0, 0.0]);
        let g = ParamVec(vec![100.0, 0.01]);
        for _ in 0..50 {
            opt.step(&mut p, &g);
        }
        let ratio = p.0[0] / p.0[1];
        assert!(
            (0.5..2.0).contains(&ratio),
            "steps not normalised, ratio {ratio}"
        );
    }

    #[test]
    fn stepping_every_block_is_one_step_on_the_whole_vector() {
        let builds: [fn() -> Box<dyn Optimizer>; 2] =
            [|| Box::new(Sgd::new(0.1)), || Box::new(RmsProp::new(0.01))];
        for build in builds {
            let (mut whole, mut blocks) = (build(), build());
            let mut p = ParamVec((0..11).map(|i| i as f32 * 0.3 - 1.0).collect());
            let mut q = p.clone();
            for step in 0..4 {
                let g = ParamVec((0..11).map(|i| ((i + step) as f32).sin()).collect());
                whole.step(&mut p, &g);
                for (start, end) in [(0, 4), (4, 5), (5, 11)] {
                    blocks.step_slice(start, &mut q.0[start..end], &g.0[start..end]);
                }
                assert_eq!(p, q, "step {step}");
            }
        }
    }

    #[test]
    fn decay_reduces_lr() {
        let mut opt = RmsProp::new(0.01);
        opt.decay_lr(0.995);
        assert!((opt.learning_rate() - 0.00995).abs() < 1e-9);
    }

    #[test]
    fn reset_clears_state() {
        // A state handed over restarts at zero, in the optimiser that
        // handed it over and in the one that takes it.
        let mut used = RmsProp::new(0.01);
        let mut p = ParamVec(vec![0.5, -0.25, 2.0]);
        let g = ParamVec(vec![0.3, -1.5, 4.0]);
        used.step(&mut p, &g);
        let kept = used.take_state();
        assert_eq!(kept.len(), 3);
        let mut fresh = RmsProp::new(0.01);
        let mut taker = RmsProp::with_state(0.01, kept);
        let (mut a, mut b, mut c) = (p.clone(), p.clone(), p);
        for _ in 0..3 {
            fresh.step(&mut a, &g);
            taker.step(&mut b, &g);
            used.step(&mut c, &g);
        }
        assert_eq!(a, b, "state leaked into the optimiser that took it");
        assert_eq!(a, c, "state leaked across the hand-over");
    }

    #[test]
    fn sgd_minimises_quadratic() {
        // f(x) = (x-3)^2, grad = 2(x-3)
        let mut opt = Sgd::new(0.1);
        let mut p = ParamVec(vec![0.0]);
        for _ in 0..100 {
            let g = ParamVec(vec![2.0 * (p.0[0] - 3.0)]);
            opt.step(&mut p, &g);
        }
        assert!((p.0[0] - 3.0).abs() < 1e-3);
    }

    #[test]
    fn rmsprop_minimises_quadratic() {
        let mut opt = RmsProp::new(0.05);
        let mut p = ParamVec(vec![10.0]);
        for _ in 0..500 {
            let g = ParamVec(vec![2.0 * (p.0[0] - 3.0)]);
            opt.step(&mut p, &g);
        }
        assert!((p.0[0] - 3.0).abs() < 0.05, "got {}", p.0[0]);
    }
}
