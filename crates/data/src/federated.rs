//! Federated view: one dataset per client plus test data.

use crate::dataset::Dataset;
use crate::partition::Partition;
use crate::synth::Generator;
use rand::seq::SliceRandom;
use rayon::prelude::*;
use tifl_tensor::{seed_rng, split_seed};

/// One client's local data.
#[derive(Debug, Clone)]
pub struct ClientData {
    /// Local training samples (never leave the client).
    pub train: Dataset,
    /// Local held-out samples drawn from the *same* label distribution as
    /// the client's training data. The adaptive scheduler evaluates the
    /// global model on the union of these within a tier (`TestData_t` in
    /// Algorithm 2), so they must mirror each client's skew.
    pub test: Dataset,
}

/// A complete federated dataset: per-client data plus a balanced global
/// test set for reporting headline accuracy.
#[derive(Debug, Clone)]
pub struct FederatedDataset {
    /// Per-client local data, indexed by client id.
    pub clients: Vec<ClientData>,
    /// Balanced global test set (the server-side metric of Figs. 3–9).
    pub global_test: Dataset,
    /// Number of classes.
    pub classes: usize,
}

impl FederatedDataset {
    /// Materialise a federated dataset from a partition.
    ///
    /// * `test_fraction` — size of each client's holdout relative to its
    ///   training set (labels resampled from the client's own empirical
    ///   label distribution, so skew is mirrored);
    /// * `global_test_per_class` — samples per class in the global test
    ///   set.
    ///
    /// # Panics
    /// Panics if `test_fraction` is not in `[0, 1]`, a client has no
    /// samples, or a label is not below the generator's class count.
    #[must_use]
    pub fn materialize(
        gen: &Generator,
        partition: &Partition,
        test_fraction: f64,
        global_test_per_class: usize,
        seed: u64,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&test_fraction),
            "test_fraction out of range"
        );
        // Holdout labels: resample from the client's empirical label
        // distribution.
        let test_labels: Vec<Vec<usize>> = partition
            .labels
            .iter()
            .enumerate()
            .map(|(cid, labels)| {
                assert!(!labels.is_empty(), "client {cid} has no samples");
                let n_test = ((labels.len() as f64 * test_fraction).round() as usize).max(1);
                let mut rng = seed_rng(split_seed(seed, 0xE5C0 ^ cid as u64));
                (0..n_test)
                    .map(|_| *labels.choose(&mut rng).expect("non-empty"))
                    .collect()
            })
            .collect();
        Self::from_labels(
            gen,
            &partition.labels,
            &test_labels,
            global_test_per_class,
            seed,
        )
    }

    /// Generate the features of a label plan: client `c` trains on
    /// `train_labels[c]` and holds out `test_labels[c]`, plus a balanced
    /// global test set of `global_test_per_class` samples per class.
    ///
    /// Clients generate in parallel at the ambient rayon thread count.
    /// Each draws from its own `split_seed` streams of `seed`, so the
    /// result is the same at every thread count; and the plan is checked
    /// before any thread starts, so a bad one panics here, on the
    /// caller's thread, naming its lowest offending client.
    ///
    /// # Panics
    /// Panics if the two plans differ in length, a client has no
    /// training samples, or a label is not below the generator's class
    /// count.
    #[must_use]
    pub fn from_labels(
        gen: &Generator,
        train_labels: &[Vec<usize>],
        test_labels: &[Vec<usize>],
        global_test_per_class: usize,
        seed: u64,
    ) -> Self {
        let classes = gen.spec().classes;
        assert_eq!(
            train_labels.len(),
            test_labels.len(),
            "one holdout plan per client"
        );
        for (cid, (train, test)) in train_labels.iter().zip(test_labels).enumerate() {
            assert!(!train.is_empty(), "client {cid} has no samples");
            for &label in train.iter().chain(test) {
                assert!(label < classes, "client {cid}: label {label} out of range");
            }
        }
        let client_ids: Vec<usize> = (0..train_labels.len()).collect();
        let clients = client_ids
            .par_iter()
            .map(|&cid| {
                let style = (gen.spec().style_scale > 0.0).then(|| gen.draw_style(cid as u64));
                let generate = |labels: &[usize], stream: u64| {
                    gen.generate_with_labels_and_style(
                        labels,
                        style.as_deref(),
                        split_seed(seed, stream),
                    )
                };
                ClientData {
                    train: generate(&train_labels[cid], 2 * cid as u64),
                    test: generate(&test_labels[cid], 2 * cid as u64 + 1),
                }
            })
            .collect();
        let global_test = gen.generate_balanced(global_test_per_class, split_seed(seed, 0x6E57));
        Self {
            clients,
            global_test,
            classes,
        }
    }

    /// Number of clients.
    #[must_use]
    pub fn num_clients(&self) -> usize {
        self.clients.len()
    }

    /// Per-client training-set sizes (the FedAvg aggregation weights).
    #[must_use]
    pub fn train_sizes(&self) -> Vec<usize> {
        self.clients.iter().map(|c| c.train.len()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition;
    use crate::synth::{SynthFamily, SynthSpec};

    fn build(seed: u64) -> FederatedDataset {
        let gen = Generator::new(SynthSpec::family(SynthFamily::Mnist), seed);
        let part = partition::class_limit(10, 50, 10, 2, &mut seed_rng(seed));
        FederatedDataset::materialize(&gen, &part, 0.2, 10, seed)
    }

    #[test]
    fn materialize_counts() {
        let fed = build(0);
        assert_eq!(fed.num_clients(), 10);
        assert!(fed.train_sizes().iter().all(|&s| s == 50));
        for c in &fed.clients {
            assert_eq!(c.test.len(), 10); // 20% of 50
        }
        assert_eq!(fed.global_test.len(), 100);
    }

    #[test]
    fn holdout_mirrors_client_skew() {
        let fed = build(1);
        for c in &fed.clients {
            // class_limit(k=2): holdout must use only the client's classes.
            let train_classes: Vec<usize> = c
                .train
                .class_counts()
                .iter()
                .enumerate()
                .filter(|(_, &n)| n > 0)
                .map(|(i, _)| i)
                .collect();
            for (cls, &n) in c.test.class_counts().iter().enumerate() {
                if n > 0 {
                    assert!(
                        train_classes.contains(&cls),
                        "holdout class {cls} absent from training data"
                    );
                }
            }
        }
    }

    #[test]
    fn global_test_is_balanced() {
        let fed = build(2);
        assert!(fed.global_test.class_counts().iter().all(|&c| c == 10));
    }

    #[test]
    fn materialize_is_deterministic() {
        let a = build(4);
        let b = build(4);
        assert_eq!(a.global_test, b.global_test);
        assert_eq!(a.clients[3].train, b.clients[3].train);
    }

    use tifl_tensor::seed_rng;
}
