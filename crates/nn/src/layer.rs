//! Composable layers.
//!
//! Each layer owns its parameters and the activation cache needed for the
//! backward pass. Layers communicate through row-major matrices whose
//! rows are samples; convolutional layers interpret the feature columns
//! as a flattened `channels x height x width` volume described by
//! [`Shape3`].

use rand::rngs::StdRng;
use rand::Rng;
use tifl_tensor::{init, ops, Matrix};

/// Spatial interpretation of a feature vector: `channels x height x width`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape3 {
    /// Number of channels.
    pub c: usize,
    /// Height in pixels.
    pub h: usize,
    /// Width in pixels.
    pub w: usize,
}

impl Shape3 {
    /// Total number of features (`c*h*w`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.c * self.h * self.w
    }

    /// True when the volume is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A differentiable layer.
///
/// The contract is the classic two-pass protocol: `forward` must be
/// called before `backward`, and `backward` consumes the cache written by
/// the most recent `forward`.
pub trait Layer: Send {
    /// Human-readable layer name (diagnostics only).
    fn name(&self) -> &'static str;

    /// Forward pass. `train` enables stochastic behaviour (dropout).
    fn forward(&mut self, x: Matrix, train: bool) -> Matrix;

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
        let mut y = ops::matmul(&x, &self.w);
        ops::add_bias(&mut y, &self.b);
        self.cache_x = Some(x);
        y
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

// ---------------------------------------------------------------------------
// Dropout
// ---------------------------------------------------------------------------

/// Inverted dropout: at train time zeroes activations with probability
/// `p` and scales survivors by `1/(1-p)`; identity at eval time.
pub struct Dropout {
    p: f32,
    rng: StdRng,
    mask: Vec<f32>,
    width: usize,
}

impl Dropout {
    /// New dropout layer with drop probability `p in [0, 1)`.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1)`.
    #[must_use]
    pub fn new(p: f32, width: usize, rng: StdRng) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout probability must be in [0,1)"
        );
        Self {
            p,
            rng,
            mask: Vec::new(),
            width,
        }
    }
}

impl Layer for Dropout {
    fn name(&self) -> &'static str {
        "dropout"
    }

    fn forward(&mut self, mut x: Matrix, train: bool) -> Matrix {
        if !train || self.p == 0.0 {
            // Identity; mark mask empty so backward passes gradients through.
            self.mask.clear();
            return x;
        }
        let scale = 1.0 / (1.0 - self.p);
        self.mask.clear();
        self.mask.reserve(x.len());
        for v in x.as_mut_slice() {
            let keep = self.rng.gen::<f32>() >= self.p;
            let m = if keep { scale } else { 0.0 };
            self.mask.push(m);
            *v *= m;
        }
        x
    }

    fn backward(&mut self, mut grad: Matrix) -> Matrix {
        if self.mask.is_empty() {
            return grad;
        }
        assert_eq!(
            grad.len(),
            self.mask.len(),
            "Dropout::backward shape mismatch with cached forward"
        );
        for (g, &m) in grad.as_mut_slice().iter_mut().zip(&self.mask) {
            *g *= m;
        }
        grad
    }

    fn flops_per_sample(&self) -> u64 {
        2 * self.width as u64
    }
}

// ---------------------------------------------------------------------------
// Conv2d
// ---------------------------------------------------------------------------

/// 2-D convolution (stride 1, no padding) over flattened `CxHxW` columns.
pub struct Conv2d {
    in_shape: Shape3,
    out_channels: usize,
    ksize: usize,
    /// Weights laid out `[out_c][in_c][kh][kw]`, stored as a matrix of
    /// shape `(out_c, in_c*k*k)` so the forward pass is a GEMM over
    /// im2col patches.
    w: Matrix,
    b: Vec<f32>,
    grad_w: Matrix,
    grad_b: Vec<f32>,
    cache_cols: Option<Matrix>,
    cache_batch: usize,
}

impl Conv2d {
    /// New convolution layer. Output spatial size is
    /// `(h - k + 1) x (w - k + 1)`.
    ///
    /// # Panics
    /// Panics if the kernel does not fit in the input.
    #[must_use]
    pub fn new(in_shape: Shape3, out_channels: usize, ksize: usize, rng: &mut StdRng) -> Self {
        Self::init(in_shape, out_channels, ksize, Some(rng))
    }

    /// [`Conv2d::new`], or with no `rng` all-zero weights (for a model
    /// about to be loaded with parameters).
    pub(crate) fn init(
        in_shape: Shape3,
        out_channels: usize,
        ksize: usize,
        rng: Option<&mut StdRng>,
    ) -> Self {
        assert!(
            ksize <= in_shape.h && ksize <= in_shape.w,
            "kernel {ksize} larger than input {}x{}",
            in_shape.h,
            in_shape.w
        );
        let fan_in = in_shape.c * ksize * ksize;
        Self {
            in_shape,
            out_channels,
            ksize,
            w: match rng {
                Some(rng) => init::he_uniform(out_channels, fan_in, rng),
                None => Matrix::zeros(out_channels, fan_in),
            },
            b: vec![0.0; out_channels],
            grad_w: Matrix::zeros(out_channels, fan_in),
            grad_b: vec![0.0; out_channels],
            cache_cols: None,
            cache_batch: 0,
        }
    }

    /// Output volume shape.
    #[must_use]
    pub fn out_shape(&self) -> Shape3 {
        Shape3 {
            c: self.out_channels,
            h: self.in_shape.h - self.ksize + 1,
            w: self.in_shape.w - self.ksize + 1,
        }
    }

    /// im2col: expand every output position of every sample into a row of
    /// the patch matrix with `in_c*k*k` columns.
    fn im2col(&self, x: &Matrix) -> Matrix {
        let Shape3 { c, h, w } = self.in_shape;
        let k = self.ksize;
        let oh = h - k + 1;
        let ow = w - k + 1;
        let batch = x.rows();
        let mut cols = Matrix::zeros(batch * oh * ow, c * k * k);
        for s in 0..batch {
            let xrow = x.row(s);
            for oy in 0..oh {
                for ox in 0..ow {
                    let dst = cols.row_mut(s * oh * ow + oy * ow + ox);
                    let mut di = 0;
                    for ch in 0..c {
                        let base = ch * h * w;
                        for ky in 0..k {
                            let src = base + (oy + ky) * w + ox;
                            dst[di..di + k].copy_from_slice(&xrow[src..src + k]);
                            di += k;
                        }
                    }
                }
            }
        }
        cols
    }

    /// Reverse of im2col: scatter-add patch-gradient rows back to the
    /// input layout.
    fn col2im(&self, cols: &Matrix, batch: usize) -> Matrix {
        let Shape3 { c, h, w } = self.in_shape;
        let k = self.ksize;
        let oh = h - k + 1;
        let ow = w - k + 1;
        let mut x = Matrix::zeros(batch, c * h * w);
        for s in 0..batch {
            let xrow = x.row_mut(s);
            for oy in 0..oh {
                for ox in 0..ow {
                    let src = cols.row(s * oh * ow + oy * ow + ox);
                    let mut si = 0;
                    for ch in 0..c {
                        let base = ch * h * w;
                        for ky in 0..k {
                            let dst = base + (oy + ky) * w + ox;
                            for kx in 0..k {
                                xrow[dst + kx] += src[si + kx];
                            }
                            si += k;
                        }
                    }
                }
            }
        }
        x
    }

    /// `dW = gp^T cols` and `db = column sums of gp` into the layer's own
    /// gradient buffers; returns `gp`, the output gradient rearranged
    /// patch-major `(batch*oh*ow, out_c)`.
    fn record_grads(&mut self, grad: &Matrix) -> Matrix {
        let cols = self
            .cache_cols
            .take()
            .expect("Conv2d::backward called without a preceding forward");
        let batch = self.cache_batch;
        let out_shape = self.out_shape();
        let oh_ow = out_shape.h * out_shape.w;

        let mut gp = Matrix::zeros(batch * oh_ow, self.out_channels);
        for s in 0..batch {
            let grow = grad.row(s);
            for p in 0..oh_ow {
                let dst = gp.row_mut(s * oh_ow + p);
                for (oc, d) in dst.iter_mut().enumerate() {
                    *d = grow[oc * oh_ow + p];
                }
            }
        }

        ops::matmul_transpose_a_into(&gp, &cols, &mut self.grad_w);
        ops::col_sum_into(&gp, &mut self.grad_b);
        gp
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn forward(&mut self, x: Matrix, _train: bool) -> Matrix {
        assert_eq!(
            x.cols(),
            self.in_shape.len(),
            "Conv2d input width does not match declared shape"
        );
        let batch = x.rows();
        let out_shape = self.out_shape();
        let oh_ow = out_shape.h * out_shape.w;
        let cols = self.im2col(&x);
        // (batch*oh*ow, fan_in) x (fan_in, out_c)
        let prod = ops::matmul_transpose_b(&cols, &self.w);
        // Rearrange to (batch, out_c*oh*ow) with channel-major columns.
        let mut y = Matrix::zeros(batch, out_shape.len());
        for s in 0..batch {
            let yrow = y.row_mut(s);
            for p in 0..oh_ow {
                let prow = prod.row(s * oh_ow + p);
                for (oc, &v) in prow.iter().enumerate() {
                    yrow[oc * oh_ow + p] = v + self.b[oc];
                }
            }
        }
        self.cache_cols = Some(cols);
        self.cache_batch = batch;
        y
    }

    fn backward(&mut self, grad: Matrix) -> Matrix {
        let gp = self.record_grads(&grad);
        // dcols = gp * W
        let dcols = ops::matmul(&gp, &self.w);
        self.col2im(&dcols, self.cache_batch)
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
        let out = self.out_shape();
        let fan_in = self.in_shape.c * self.ksize * self.ksize;
        // forward + two backward GEMM-equivalents.
        6 * (out.h * out.w * out.c * fan_in) as u64
    }
}

// ---------------------------------------------------------------------------
// MaxPool2d
// ---------------------------------------------------------------------------

/// 2x2 max pooling with stride 2 over flattened `CxHxW` columns.
pub struct MaxPool2d {
    in_shape: Shape3,
    argmax: Vec<usize>,
    cache_batch: usize,
}

impl MaxPool2d {
    /// New pooling layer.
    ///
    /// # Panics
    /// Panics if height or width is not even.
    #[must_use]
    pub fn new(in_shape: Shape3) -> Self {
        assert!(
            in_shape.h.is_multiple_of(2) && in_shape.w.is_multiple_of(2),
            "MaxPool2d requires even spatial dims, got {}x{}",
            in_shape.h,
            in_shape.w
        );
        Self {
            in_shape,
            argmax: Vec::new(),
            cache_batch: 0,
        }
    }

    /// Output volume shape.
    #[must_use]
    pub fn out_shape(&self) -> Shape3 {
        Shape3 {
            c: self.in_shape.c,
            h: self.in_shape.h / 2,
            w: self.in_shape.w / 2,
        }
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> &'static str {
        "maxpool2d"
    }

    fn forward(&mut self, x: Matrix, _train: bool) -> Matrix {
        assert_eq!(
            x.cols(),
            self.in_shape.len(),
            "MaxPool2d input width mismatch"
        );
        let Shape3 { c, h, w } = self.in_shape;
        let (oh, ow) = (h / 2, w / 2);
        let batch = x.rows();
        let mut y = Matrix::zeros(batch, c * oh * ow);
        self.argmax.clear();
        self.argmax.resize(batch * c * oh * ow, 0);
        for s in 0..batch {
            let xrow = x.row(s);
            let yrow = y.row_mut(s);
            for ch in 0..c {
                let base = ch * h * w;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let i0 = base + (2 * oy) * w + 2 * ox;
                        let candidates = [i0, i0 + 1, i0 + w, i0 + w + 1];
                        let (best_idx, best_val) = candidates
                            .iter()
                            .map(|&i| (i, xrow[i]))
                            .max_by(|a, b| {
                                a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal)
                            })
                            .expect("non-empty window");
                        let oi = ch * oh * ow + oy * ow + ox;
                        yrow[oi] = best_val;
                        self.argmax[s * c * oh * ow + oi] = best_idx;
                    }
                }
            }
        }
        self.cache_batch = batch;
        y
    }

    fn backward(&mut self, grad: Matrix) -> Matrix {
        let batch = self.cache_batch;
        let out_len = self.out_shape().len();
        assert_eq!(grad.rows(), batch, "MaxPool2d::backward batch mismatch");
        let mut dx = Matrix::zeros(batch, self.in_shape.len());
        for s in 0..batch {
            let grow = grad.row(s);
            let drow = dx.row_mut(s);
            for oi in 0..out_len {
                drow[self.argmax[s * out_len + oi]] += grow[oi];
            }
        }
        dx
    }

    fn flops_per_sample(&self) -> u64 {
        4 * self.in_shape.len() as u64
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
    fn relu_zeroes_negatives_and_masks_grads() {
        let mut r = Relu::new(4);
        let y = r.forward(Matrix::from_vec(1, 4, vec![-1.0, 2.0, 0.0, 3.0]), true);
        assert_eq!(y.as_slice(), &[0.0, 2.0, 0.0, 3.0]);
        let g = r.backward(Matrix::from_vec(1, 4, vec![1.0, 1.0, 1.0, 1.0]));
        assert_eq!(g.as_slice(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn dropout_identity_at_eval() {
        let mut d = Dropout::new(0.5, 4, seed_rng(5));
        let x = Matrix::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]);
        let y = d.forward(x.clone(), false);
        assert_eq!(y, x);
        let g = d.backward(Matrix::filled(1, 4, 1.0));
        assert_eq!(g.as_slice(), &[1.0; 4]);
    }

    #[test]
    fn dropout_scales_survivors_at_train() {
        let mut d = Dropout::new(0.5, 1000, seed_rng(6));
        let y = d.forward(Matrix::filled(1, 1000, 1.0), true);
        let survivors: Vec<f32> = y.as_slice().iter().copied().filter(|&v| v != 0.0).collect();
        assert!(survivors.iter().all(|&v| (v - 2.0).abs() < 1e-6));
        // roughly half survive
        let frac = survivors.len() as f32 / 1000.0;
        assert!((0.4..0.6).contains(&frac), "survivor fraction {frac}");
    }

    #[test]
    fn maxpool_forward_backward() {
        let shape = Shape3 { c: 1, h: 2, w: 2 };
        let mut p = MaxPool2d::new(shape);
        let y = p.forward(Matrix::from_vec(1, 4, vec![1.0, 5.0, 3.0, 2.0]), true);
        assert_eq!(y.as_slice(), &[5.0]);
        let g = p.backward(Matrix::from_vec(1, 1, vec![7.0]));
        assert_eq!(g.as_slice(), &[0.0, 7.0, 0.0, 0.0]);
    }

    #[test]
    fn conv2d_identity_kernel() {
        let shape = Shape3 { c: 1, h: 3, w: 3 };
        let mut conv = Conv2d::new(shape, 1, 1, &mut seed_rng(7));
        conv.load_params(&[2.0, 0.0]); // w = [[2]], b = 0
        let x = Matrix::from_vec(1, 9, (1..=9).map(|v| v as f32).collect());
        let y = conv.forward(x, false);
        assert_eq!(y.cols(), 9);
        for (i, &v) in y.as_slice().iter().enumerate() {
            assert!((v - 2.0 * (i + 1) as f32).abs() < 1e-6);
        }
    }

    #[test]
    fn conv2d_gradients_match_finite_difference() {
        let shape = Shape3 { c: 2, h: 4, w: 4 };
        let mut rng = seed_rng(8);
        let mut conv = Conv2d::new(shape, 3, 3, &mut rng);
        let x = Matrix::from_fn(2, shape.len(), |r, c| {
            ((r * 13 + c * 7) % 11) as f32 / 11.0 - 0.5
        });
        let y = conv.forward(x.clone(), true);
        let ones = Matrix::filled(y.rows(), y.cols(), 1.0);
        let _ = conv.backward(ones);
        let mut params = Vec::new();
        conv.append_params(&mut params);
        let mut grads = Vec::new();
        conv.append_grads(&mut grads);

        let eps = 1e-2f32;
        // Check a deterministic sample of parameters (full sweep is slow).
        for pi in (0..params.len()).step_by(7) {
            let mut plus = params.clone();
            plus[pi] += eps;
            conv.load_params(&plus);
            let lp: f32 = conv.forward(x.clone(), true).as_slice().iter().sum();
            let mut minus = params.clone();
            minus[pi] -= eps;
            conv.load_params(&minus);
            let lm: f32 = conv.forward(x.clone(), true).as_slice().iter().sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - grads[pi]).abs() < 0.05 * grads[pi].abs().max(1.0),
                "param {pi}: fd {fd} vs analytic {}",
                grads[pi]
            );
        }
    }

    #[test]
    fn conv_pool_shapes_compose() {
        let in_shape = Shape3 { c: 1, h: 8, w: 8 };
        let mut rng = seed_rng(9);
        let conv = Conv2d::new(in_shape, 4, 3, &mut rng);
        let cs = conv.out_shape();
        assert_eq!(cs, Shape3 { c: 4, h: 6, w: 6 });
        let pool = MaxPool2d::new(cs);
        assert_eq!(pool.out_shape(), Shape3 { c: 4, h: 3, w: 3 });
    }
}
