//! Classification metrics.

use tifl_tensor::{ops, Matrix};

/// Top-1 accuracy of `logits` against integer `labels`.
///
/// # Panics
/// Panics if row counts disagree.
#[must_use]
pub fn accuracy(logits: &Matrix, labels: &[usize]) -> f64 {
    assert_eq!(
        logits.rows(),
        labels.len(),
        "accuracy: label count mismatch"
    );
    if labels.is_empty() {
        return 0.0;
    }
    let correct = labels
        .iter()
        .enumerate()
        .filter(|&(i, &label)| ops::argmax(logits.row(i)) == label)
        .count();
    correct as f64 / labels.len() as f64
}

/// Per-class accuracy: `result[c]` is the accuracy over samples whose
/// true label is `c` (`None` when the class is absent from `labels`).
///
/// Used to measure the class-bias effects the paper attributes to
/// aggressive tier-selection policies.
#[must_use]
pub fn per_class_accuracy(logits: &Matrix, labels: &[usize], classes: usize) -> Vec<Option<f64>> {
    assert_eq!(
        logits.rows(),
        labels.len(),
        "per_class_accuracy: label count mismatch"
    );
    let preds = ops::row_argmax(logits);
    let mut correct = vec![0usize; classes];
    let mut total = vec![0usize; classes];
    for (&p, &l) in preds.iter().zip(labels) {
        assert!(l < classes, "label {l} out of range");
        total[l] += 1;
        if p == l {
            correct[l] += 1;
        }
    }
    correct
        .iter()
        .zip(&total)
        .map(|(&c, &t)| {
            if t == 0 {
                None
            } else {
                Some(c as f64 / t as f64)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn logits_for(preds: &[usize], classes: usize) -> Matrix {
        let mut m = Matrix::zeros(preds.len(), classes);
        for (i, &p) in preds.iter().enumerate() {
            m[(i, p)] = 1.0;
        }
        m
    }

    #[test]
    fn accuracy_counts_matches() {
        let logits = logits_for(&[0, 1, 2, 1], 3);
        assert_eq!(accuracy(&logits, &[0, 1, 0, 1]), 0.75);
    }

    #[test]
    fn accuracy_empty_is_zero() {
        assert_eq!(accuracy(&Matrix::zeros(0, 3), &[]), 0.0);
    }

    #[test]
    fn per_class_handles_absent_classes() {
        let logits = logits_for(&[0, 0], 3);
        let pc = per_class_accuracy(&logits, &[0, 1], 3);
        assert_eq!(pc[0], Some(1.0));
        assert_eq!(pc[1], Some(0.0));
        assert_eq!(pc[2], None);
    }
}
