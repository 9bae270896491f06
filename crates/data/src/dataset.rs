//! Labelled dataset container.

use tifl_tensor::Matrix;

/// A labelled classification dataset: one sample per matrix row.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Features, `samples x features`.
    pub x: Matrix,
    /// Integer labels, one per row of `x`.
    pub y: Vec<usize>,
    /// Number of classes in the label space.
    pub classes: usize,
}

impl Dataset {
    /// Build a dataset, validating shapes and label range.
    ///
    /// # Panics
    /// Panics if `x.rows() != y.len()` or a label is `>= classes`.
    #[must_use]
    pub fn new(x: Matrix, y: Vec<usize>, classes: usize) -> Self {
        assert_eq!(x.rows(), y.len(), "feature/label count mismatch");
        assert!(
            y.iter().all(|&l| l < classes),
            "label out of range for {classes} classes"
        );
        Self { x, y, classes }
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// True when the dataset holds no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Number of features per sample.
    #[must_use]
    pub fn features(&self) -> usize {
        self.x.cols()
    }

    /// Copy the samples at `indices` into a new dataset.
    ///
    /// # Panics
    /// Panics on an out-of-range index.
    #[must_use]
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let x = self.x.gather_rows(indices);
        let y = indices.iter().map(|&i| self.y[i]).collect();
        Dataset {
            x,
            y,
            classes: self.classes,
        }
    }

    /// Per-class sample counts.
    #[must_use]
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.classes];
        for &l in &self.y {
            counts[l] += 1;
        }
        counts
    }

    /// Number of distinct classes actually present.
    #[must_use]
    pub fn distinct_classes(&self) -> usize {
        self.class_counts().iter().filter(|&&c| c > 0).count()
    }

    /// Split off the first `n` samples as one dataset and the rest as
    /// another (deterministic; callers shuffle indices beforehand if they
    /// want a random split).
    ///
    /// # Panics
    /// Panics if `n > self.len()`.
    #[must_use]
    pub fn split_at(&self, n: usize) -> (Dataset, Dataset) {
        assert!(
            n <= self.len(),
            "split_at({n}) beyond {} samples",
            self.len()
        );
        let head: Vec<usize> = (0..n).collect();
        let tail: Vec<usize> = (n..self.len()).collect();
        (self.subset(&head), self.subset(&tail))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        let x = Matrix::from_fn(4, 2, |r, _| r as f32);
        Dataset::new(x, vec![0, 1, 0, 2], 3)
    }

    #[test]
    fn new_validates_labels() {
        let d = tiny();
        assert_eq!(d.len(), 4);
        assert_eq!(d.features(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn new_rejects_bad_label() {
        let _ = Dataset::new(Matrix::zeros(1, 2), vec![5], 3);
    }

    #[test]
    fn subset_preserves_pairing() {
        let d = tiny();
        let s = d.subset(&[2, 0]);
        assert_eq!(s.y, vec![0, 0]);
        assert_eq!(s.x.row(0), &[2.0, 2.0]);
        assert_eq!(s.x.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn class_counts_and_distinct() {
        let d = tiny();
        assert_eq!(d.class_counts(), vec![2, 1, 1]);
        assert_eq!(d.distinct_classes(), 3);
    }

    #[test]
    fn split_at_partitions() {
        let d = tiny();
        let (a, b) = d.split_at(1);
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 3);
        assert_eq!(b.y, vec![1, 0, 2]);
    }

    // -- FEMNIST writers: each client's `Dataset` as the generator
    // built it (the suite of `tifl-leaf`'s `dataset` module, which
    // moved into this crate as `femnist`) ----------------------------

    fn small() -> crate::LeafDataConfig {
        crate::LeafDataConfig {
            global_test_per_class: 2,
            ..Default::default()
        }
    }

    #[test]
    fn builds_requested_clients() {
        let fed = crate::build_femnist(30, &small(), 0);
        assert_eq!(fed.num_clients(), 30);
        assert_eq!(fed.classes, 62);
        assert_eq!(fed.global_test.len(), 124);
    }

    #[test]
    fn quantity_is_heterogeneous() {
        let fed = crate::build_femnist(30, &small(), 1);
        let sizes = fed.train_sizes();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(
            max as f64 / min as f64 > 2.0,
            "expected >2x quantity spread, got {min}..{max}"
        );
        assert!(sizes.iter().all(|&s| s >= 20));
    }

    #[test]
    fn class_content_is_non_iid() {
        let fed = crate::build_femnist(30, &small(), 2);
        for c in fed.clients.iter().take(5) {
            let distinct = c.train.distinct_classes();
            assert!(
                distinct <= 40,
                "writer covers {distinct} classes, expected a subset"
            );
        }
        // Different writers favour different classes.
        let top = |d: &Dataset| {
            d.class_counts()
                .iter()
                .enumerate()
                .max_by_key(|(_, &n)| n)
                .map(|(i, _)| i)
                .unwrap()
        };
        let tops: Vec<usize> = fed.clients.iter().take(10).map(|c| top(&c.train)).collect();
        let mut uniq = tops.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert!(uniq.len() > 3, "writers share favourite classes: {tops:?}");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = crate::build_femnist(30, &small(), 3);
        let b = crate::build_femnist(30, &small(), 3);
        assert_eq!(a.train_sizes(), b.train_sizes());
        assert_eq!(a.clients[7].train, b.clients[7].train);
    }

    #[test]
    fn paper_scale_config() {
        let fed = crate::build_femnist(182, &crate::LeafDataConfig::default(), 4);
        assert_eq!(fed.num_clients(), 182);
    }
}
