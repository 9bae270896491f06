//! Loss functions.

use tifl_tensor::Matrix;

/// Numerically stable softmax cross-entropy.
///
/// Takes raw logits (`batch x classes`) and integer labels; returns the
/// mean loss over the batch and the gradient w.r.t. the logits
/// (`(softmax - onehot) / batch`), ready to feed into the model's
/// backward pass.
///
/// # Panics
/// Panics if `labels.len() != logits.rows()` or a label is out of range.
#[must_use]
pub fn softmax_cross_entropy(logits: &Matrix, labels: &[usize]) -> (f32, Matrix) {
    let (batch, classes) = logits.shape();
    let mut grad = Matrix::zeros(batch, classes);
    let loss = softmax_cross_entropy_into(logits, labels, grad.as_mut_slice(), classes);
    (loss, grad)
}

/// [`softmax_cross_entropy`] with its gradient written into `grad`, row
/// `i` at `grad[i * ld..]`; the `ld - classes` elements after each row
/// are left as they are. Returns the mean loss.
///
/// # Panics
/// Panics if `labels.len() != logits.rows()`, a label is out of range,
/// `ld` is below the class count, or `grad` is shorter than the rows at
/// stride `ld` need.
pub fn softmax_cross_entropy_into(
    logits: &Matrix,
    labels: &[usize],
    grad: &mut [f32],
    ld: usize,
) -> f32 {
    let (batch, classes) = logits.shape();
    assert_eq!(labels.len(), batch, "label count must match batch size");
    assert!(batch > 0, "empty batch");
    assert!(
        ld >= classes,
        "gradient row stride {ld} below {classes} classes"
    );

    let mut total_loss = 0.0f64;
    let inv_batch = 1.0 / batch as f32;

    for (i, &label) in labels.iter().enumerate() {
        let grow = &mut grad[i * ld..i * ld + classes];
        let (loss, sum) = row_loss(logits.row(i), label, |j, e| grow[j] = e);
        total_loss += f64::from(loss);
        for g in grow.iter_mut() {
            *g = *g / sum * inv_batch;
        }
        grow[label] -= inv_batch;
    }

    (total_loss / batch as f64) as f32
}

/// The mean loss of [`softmax_cross_entropy`] without its gradient: the
/// same per-row terms summed in the same order, so bit-for-bit its
/// `.0`, and nothing allocated.
///
/// # Panics
/// Panics if `labels.len() != logits.rows()` or a label is out of range.
#[must_use]
pub fn softmax_cross_entropy_loss(logits: &Matrix, labels: &[usize]) -> f32 {
    let batch = logits.rows();
    assert_eq!(labels.len(), batch, "label count must match batch size");
    assert!(batch > 0, "empty batch");
    let total_loss = labels.iter().enumerate().fold(0.0f64, |acc, (i, &label)| {
        acc + f64::from(row_loss(logits.row(i), label, |_, _| {}).0)
    });
    (total_loss / batch as f64) as f32
}

/// One row's loss term `ln Σ exp(z - max) - (z_label - max)` and its
/// exp-sum, both in f32; `exp` sees every `exp(z - max)` in column
/// order.
#[inline]
fn row_loss(row: &[f32], label: usize, mut exp: impl FnMut(usize, f32)) -> (f32, f32) {
    let classes = row.len();
    assert!(
        label < classes,
        "label {label} out of range for {classes} classes"
    );
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for (j, &z) in row.iter().enumerate() {
        let e = (z - max).exp();
        exp(j, e);
        sum += e;
    }
    (sum.ln() - (row[label] - max), sum)
}

/// Softmax probabilities (row-wise), for inspection / calibration tests.
#[must_use]
pub fn softmax(logits: &Matrix) -> Matrix {
    let (batch, classes) = logits.shape();
    let mut out = Matrix::zeros(batch, classes);
    for i in 0..batch {
        let row = logits.row(i);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let orow = out.row_mut(i);
        let mut sum = 0.0f32;
        for (o, &z) in orow.iter_mut().zip(row) {
            *o = (z - max).exp();
            sum += *o;
        }
        for o in orow.iter_mut() {
            *o /= sum;
        }
    }
    out
}

/// Mean-squared-error loss and gradient, `mean((pred-target)^2)`.
///
/// # Panics
/// Panics if the shapes differ.
#[must_use]
pub fn mse(pred: &Matrix, target: &Matrix) -> (f32, Matrix) {
    assert_eq!(pred.shape(), target.shape(), "mse shape mismatch");
    let n = pred.len() as f32;
    let mut grad = Matrix::zeros(pred.rows(), pred.cols());
    let mut loss = 0.0f64;
    for ((g, &p), &t) in grad
        .as_mut_slice()
        .iter_mut()
        .zip(pred.as_slice())
        .zip(target.as_slice())
    {
        let d = p - t;
        loss += f64::from(d * d);
        *g = 2.0 * d / n;
    }
    ((loss / f64::from(n)) as f32, grad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_logits_give_log_classes_loss() {
        let logits = Matrix::zeros(4, 10);
        let (loss, _) = softmax_cross_entropy(&logits, &[0, 3, 5, 9]);
        assert!((loss - 10.0f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn confident_correct_prediction_has_low_loss() {
        let mut logits = Matrix::zeros(1, 3);
        logits[(0, 1)] = 20.0;
        let (loss, _) = softmax_cross_entropy(&logits, &[1]);
        assert!(loss < 1e-4);
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        let logits = Matrix::from_vec(2, 3, vec![1.0, -2.0, 0.5, 3.0, 0.0, -1.0]);
        let (_, grad) = softmax_cross_entropy(&logits, &[2, 0]);
        for r in 0..2 {
            let s: f32 = grad.row(r).iter().sum();
            assert!(s.abs() < 1e-6, "row {r} grad sum {s}");
        }
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let logits = Matrix::from_vec(2, 3, vec![0.3, -0.8, 0.1, 1.2, 0.4, -0.5]);
        let labels = [1usize, 2];
        let (_, grad) = softmax_cross_entropy(&logits, &labels);
        let eps = 1e-3f32;
        for r in 0..2 {
            for c in 0..3 {
                let mut lp = logits.clone();
                lp[(r, c)] += eps;
                let mut lm = logits.clone();
                lm[(r, c)] -= eps;
                let (loss_p, _) = softmax_cross_entropy(&lp, &labels);
                let (loss_m, _) = softmax_cross_entropy(&lm, &labels);
                let fd = (loss_p - loss_m) / (2.0 * eps);
                assert!(
                    (fd - grad[(r, c)]).abs() < 1e-3,
                    "({r},{c}): fd {fd} vs analytic {}",
                    grad[(r, c)]
                );
            }
        }
    }

    #[test]
    fn softmax_rows_are_distributions() {
        let logits = Matrix::from_vec(2, 3, vec![5.0, 1.0, -2.0, 0.0, 0.0, 0.0]);
        let p = softmax(&logits);
        for r in 0..2 {
            let s: f32 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
            assert!(p.row(r).iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn mse_zero_for_equal_inputs() {
        let a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let (loss, grad) = mse(&a, &a);
        assert_eq!(loss, 0.0);
        assert!(grad.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn label_out_of_range_panics() {
        let _ = softmax_cross_entropy(&Matrix::zeros(1, 3), &[3]);
    }

    #[test]
    #[should_panic(expected = "label 3 out of range for 3 classes")]
    fn loss_without_gradient_checks_labels_too() {
        let _ = softmax_cross_entropy_loss(&Matrix::zeros(1, 3), &[3]);
    }
}
