//! Composable layers.
//!
//! Each layer owns its parameters and the activation cache needed for the
//! backward pass. Layers communicate through row-major matrices whose
//! rows are samples. Inference ([`Layer::infer`]) reads the parameters
//! only, so one model can serve many threads at once.

use rand::rngs::StdRng;
use std::borrow::Cow;
use tifl_tensor::{init, ops, Matrix};

/// A differentiable layer.
///
/// The contract is the classic two-pass protocol: `forward` must be
/// called before `backward`, and `backward` consumes the cache written by
/// the most recent `forward`.
pub trait Layer: Send + Sync {
    /// Human-readable layer name (diagnostics only).
    fn name(&self) -> &'static str;

    /// Forward pass. No layer reads `train` (the model family has no
    /// stochastic layer); the frozen benchmark passes it.
    fn forward(&mut self, x: Matrix, train: bool) -> Matrix;

    /// Inference pass: bit-for-bit the output of [`Layer::forward`],
    /// with nothing kept for a backward pass. A layer that maps into a
    /// fresh buffer only reads `x`; one that works in place takes it
    /// over, and copies it only if it is borrowed.
    fn infer(&self, x: Cow<'_, Matrix>) -> Matrix;

    /// Backward pass: receives `dL/d(output)`, returns `dL/d(input)` and
    /// records parameter gradients internally.
    fn backward(&mut self, grad: Matrix) -> Matrix;

    /// The parameter half of [`Layer::backward`]: records the parameter
    /// gradients and computes no `dL/d(input)`. `Sequential::train_batch`
    /// calls this on a model's first layer, whose input gradient nobody
    /// reads. The provided method runs the full backward pass.
    fn backward_params(&mut self, grad: Matrix) {
        drop(self.backward(grad));
    }

    /// Number of trainable parameters.
    fn param_count(&self) -> usize {
        0
    }

    /// Hand each parameter block and the gradient recorded for it to
    /// `f`, in [`Layer::append_params`] order, so an optimiser can step
    /// the layer's own buffers in place. A layer with parameters must
    /// override this together with `param_count`, `append_params`,
    /// `append_grads` and `load_params`: `Sequential::train_batch` trains
    /// only what this hands out (and debug-asserts that it is all of
    /// `param_count`).
    fn for_each_param(&mut self, _f: &mut dyn FnMut(&mut [f32], &[f32])) {}

    /// Append the parameters, in a fixed order, to `out`.
    fn append_params(&self, _out: &mut Vec<f32>) {}

    /// Append the gradients recorded by the last `backward`, in the same
    /// order as [`Layer::append_params`].
    fn append_grads(&self, _out: &mut Vec<f32>) {}

    /// Load parameters from the front of `src`, returning how many values
    /// were consumed. Must consume exactly [`Layer::param_count`].
    fn load_params(&mut self, _src: &[f32]) -> usize {
        0
    }

    /// Approximate FLOPs needed to push one sample through the forward
    /// and backward pass. Feeds the simulator's latency model.
    fn flops_per_sample(&self) -> u64;
}

// ---------------------------------------------------------------------------
// Dense
// ---------------------------------------------------------------------------

/// Fully connected layer: `y = x W + b`.
pub struct Dense {
    w: Matrix,
    b: Vec<f32>,
    grad_w: Matrix,
    grad_b: Vec<f32>,
    cache_x: Option<Matrix>,
}

impl Dense {
    /// New dense layer with Xavier-uniform weights and zero bias.
    #[must_use]
    pub fn new(in_features: usize, out_features: usize, rng: &mut StdRng) -> Self {
        Self::init(in_features, out_features, Some(rng))
    }

    /// [`Dense::new`], or with no `rng` all-zero weights (for a model
    /// about to be loaded with parameters).
    pub(crate) fn init(in_features: usize, out_features: usize, rng: Option<&mut StdRng>) -> Self {
        Self {
            w: match rng {
                Some(rng) => init::xavier_uniform(in_features, out_features, rng),
                None => Matrix::zeros(in_features, out_features),
            },
            b: vec![0.0; out_features],
            grad_w: Matrix::zeros(in_features, out_features),
            grad_b: vec![0.0; out_features],
            cache_x: None,
        }
    }

    /// `x W + b`.
    fn affine(&self, x: &Matrix) -> Matrix {
        let mut y = ops::matmul(x, &self.w);
        ops::add_bias(&mut y, &self.b);
        y
    }

    /// `dW = X^T dY` and `db = column sums of dY`, into the layer's own
    /// gradient buffers.
    fn record_grads(&mut self, grad: &Matrix) {
        let x = self
            .cache_x
            .take()
            .expect("Dense::backward called without a preceding forward");
        ops::matmul_transpose_a_into(&x, grad, &mut self.grad_w);
        ops::col_sum_into(grad, &mut self.grad_b);
    }

    /// Input feature count.
    #[must_use]
    pub fn in_features(&self) -> usize {
        self.w.rows()
    }

    /// Output feature count.
    #[must_use]
    pub fn out_features(&self) -> usize {
        self.w.cols()
    }
}

impl Layer for Dense {
    fn name(&self) -> &'static str {
        "dense"
    }

    fn forward(&mut self, x: Matrix, _train: bool) -> Matrix {
        let y = self.affine(&x);
        self.cache_x = Some(x);
        y
    }

    fn infer(&self, x: Cow<'_, Matrix>) -> Matrix {
        self.affine(&x)
    }

    fn backward(&mut self, grad: Matrix) -> Matrix {
        self.record_grads(&grad);
        ops::matmul_transpose_b(&grad, &self.w)
    }

    fn backward_params(&mut self, grad: Matrix) {
        self.record_grads(&grad);
    }

    fn param_count(&self) -> usize {
        self.w.len() + self.b.len()
    }

    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut [f32], &[f32])) {
        f(self.w.as_mut_slice(), self.grad_w.as_slice());
        f(&mut self.b, &self.grad_b);
    }

    fn append_params(&self, out: &mut Vec<f32>) {
        out.extend_from_slice(self.w.as_slice());
        out.extend_from_slice(&self.b);
    }

    fn append_grads(&self, out: &mut Vec<f32>) {
        out.extend_from_slice(self.grad_w.as_slice());
        out.extend_from_slice(&self.grad_b);
    }

    fn load_params(&mut self, src: &[f32]) -> usize {
        let nw = self.w.len();
        let nb = self.b.len();
        self.w.as_mut_slice().copy_from_slice(&src[..nw]);
        self.b.copy_from_slice(&src[nw..nw + nb]);
        nw + nb
    }

    fn flops_per_sample(&self) -> u64 {
        // forward GEMM + two backward GEMMs, 2 flops per MAC.
        6 * (self.w.rows() * self.w.cols()) as u64
    }
}

// ---------------------------------------------------------------------------
// ReLU
// ---------------------------------------------------------------------------

/// Rectified linear unit.
#[derive(Default)]
pub struct Relu {
    mask: Vec<bool>,
    width: usize,
}

impl Relu {
    /// New ReLU for feature width `width` (used only for FLOP counting).
    #[must_use]
    pub fn new(width: usize) -> Self {
        Self {
            mask: Vec::new(),
            width,
        }
    }
}

impl Layer for Relu {
    fn name(&self) -> &'static str {
        "relu"
    }

    fn forward(&mut self, mut x: Matrix, _train: bool) -> Matrix {
        // Selects, not branches: whether a unit fired is a coin flip
        // the predictor loses, and a select vectorises.
        self.mask.clear();
        self.mask.resize(x.len(), false);
        for (v, keep) in x.as_mut_slice().iter_mut().zip(&mut self.mask) {
            *keep = *v > 0.0;
            *v = if *keep { *v } else { 0.0 };
        }
        x
    }

    fn infer(&self, x: Cow<'_, Matrix>) -> Matrix {
        let mut x = x.into_owned();
        for v in x.as_mut_slice() {
            *v = if *v > 0.0 { *v } else { 0.0 };
        }
        x
    }

    fn backward(&mut self, mut grad: Matrix) -> Matrix {
        assert_eq!(
            grad.len(),
            self.mask.len(),
            "Relu::backward shape mismatch with cached forward"
        );
        for (g, &keep) in grad.as_mut_slice().iter_mut().zip(&self.mask) {
            *g = if keep { *g } else { 0.0 };
        }
        grad
    }

    fn flops_per_sample(&self) -> u64 {
        2 * self.width as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tifl_tensor::seed_rng;

    #[test]
    fn dense_forward_known_values() {
        let mut d = Dense::new(2, 2, &mut seed_rng(0));
        d.load_params(&[1.0, 2.0, 3.0, 4.0, 0.5, -0.5]);
        let y = d.forward(Matrix::from_vec(1, 2, vec![1.0, 1.0]), false);
        // [1,1] * [[1,2],[3,4]] + [0.5,-0.5] = [4.5, 5.5]
        assert_eq!(y.as_slice(), &[4.5, 5.5]);
    }

    #[test]
    fn dense_param_round_trip() {
        let d = Dense::new(3, 4, &mut seed_rng(1));
        let mut flat = Vec::new();
        d.append_params(&mut flat);
        assert_eq!(flat.len(), d.param_count());
        let mut d2 = Dense::new(3, 4, &mut seed_rng(2));
        let consumed = d2.load_params(&flat);
        assert_eq!(consumed, flat.len());
        let mut flat2 = Vec::new();
        d2.append_params(&mut flat2);
        assert_eq!(flat, flat2);
    }

    /// Finite-difference check of Dense gradients.
    #[test]
    fn dense_gradients_match_finite_difference() {
        let mut rng = seed_rng(3);
        let mut d = Dense::new(3, 2, &mut rng);
        let x = Matrix::from_vec(2, 3, vec![0.5, -1.0, 2.0, 1.5, 0.3, -0.7]);
        // Loss = sum of outputs; dL/dy = ones.
        let y = d.forward(x.clone(), true);
        let ones = Matrix::filled(y.rows(), y.cols(), 1.0);
        let dx = d.backward(ones);

        let mut params = Vec::new();
        d.append_params(&mut params);
        let mut grads = Vec::new();
        d.append_grads(&mut grads);

        let eps = 1e-3f32;
        for pi in 0..params.len() {
            let mut plus = params.clone();
            plus[pi] += eps;
            let mut minus = params.clone();
            minus[pi] -= eps;
            d.load_params(&plus);
            let lp: f32 = d.forward(x.clone(), true).as_slice().iter().sum();
            d.load_params(&minus);
            let lm: f32 = d.forward(x.clone(), true).as_slice().iter().sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - grads[pi]).abs() < 1e-2,
                "param {pi}: finite-diff {fd} vs analytic {}",
                grads[pi]
            );
        }
        // Input gradient: every input contributes sum of its weight row.
        d.load_params(&params);
        for r in 0..x.rows() {
            for c in 0..x.cols() {
                let mut xp = x.clone();
                xp[(r, c)] += eps;
                let lp: f32 = d.forward(xp, true).as_slice().iter().sum();
                let mut xm = x.clone();
                xm[(r, c)] -= eps;
                let lm: f32 = d.forward(xm, true).as_slice().iter().sum();
                let fd = (lp - lm) / (2.0 * eps);
                assert!((fd - dx[(r, c)]).abs() < 1e-2);
            }
        }
    }

    #[test]
    fn infer_equals_forward() {
        let mut dense = Dense::new(3, 4, &mut seed_rng(4));
        let mut relu = Relu::new(4);
        let x = Matrix::from_vec(2, 3, vec![0.5, -1.0, 2.0, 1.5, 0.3, -0.7]);
        let h = dense.infer(Cow::Borrowed(&x));
        assert_eq!(h, dense.forward(x, false));
        assert_eq!(
            relu.infer(Cow::Borrowed(&h)),
            relu.infer(Cow::Owned(h.clone()))
        );
        assert_eq!(relu.infer(Cow::Borrowed(&h)), relu.forward(h, false));
    }

    #[test]
    fn relu_zeroes_negatives_and_masks_grads() {
        let mut r = Relu::new(4);
        let y = r.forward(Matrix::from_vec(1, 4, vec![-1.0, 2.0, 0.0, 3.0]), true);
        assert_eq!(y.as_slice(), &[0.0, 2.0, 0.0, 3.0]);
        let g = r.backward(Matrix::from_vec(1, 4, vec![1.0, 1.0, 1.0, 1.0]));
        assert_eq!(g.as_slice(), &[0.0, 1.0, 0.0, 1.0]);
    }
}
