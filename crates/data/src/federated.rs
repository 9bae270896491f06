//! Federated view: one dataset per client plus test data.

use crate::dataset::Dataset;
use crate::partition::Partition;
use crate::synth::Generator;
use rand::seq::SliceRandom;
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};
use tifl_tensor::{seed_rng, split_seed};

/// One client's rows, built the first time something reads them.
///
/// A `Rows` holds the recipe — the client's validated label plan, the
/// `split_seed` stream and writer its features are drawn from, and the
/// generator — plus a cell the rows land in. [`Rows::len`] answers from
/// the plan and builds nothing; dereferencing to the [`Dataset`] builds
/// the rows on the thread that asks. Two threads that ask at once wait
/// on one build, and the rows are a pure function of the recipe, so
/// they are the same bytes whoever builds them, and whenever.
#[derive(Clone)]
pub struct Rows {
    labels: Vec<usize>,
    stream: u64,
    writer: u64,
    gen: Arc<Generator>,
    built: OnceLock<Dataset>,
}

impl Rows {
    fn new(gen: &Arc<Generator>, labels: &[usize], writer: usize, stream: u64) -> Self {
        Self {
            labels: labels.to_vec(),
            stream,
            writer: writer as u64,
            gen: Arc::clone(gen),
            built: OnceLock::new(),
        }
    }

    /// Number of samples, read from the label plan (builds nothing).
    #[must_use]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the plan holds no samples (builds nothing).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Whether the rows have been built yet.
    #[must_use]
    pub fn is_built(&self) -> bool {
        self.built.get().is_some()
    }
}

impl Deref for Rows {
    type Target = Dataset;

    fn deref(&self) -> &Dataset {
        self.built.get_or_init(|| {
            let gen = &self.gen;
            let style = (gen.spec().style_scale > 0.0).then(|| gen.draw_style(self.writer));
            gen.generate_with_labels_and_style(&self.labels, style.as_deref(), self.stream)
        })
    }
}

impl fmt::Debug for Rows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Rows")
            .field("len", &self.len())
            .field("built", &self.is_built())
            .finish()
    }
}

impl PartialEq for Rows {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

/// One client's local data. Both sets are [`Rows`]: their sizes are
/// known from the label plan, and their features are generated on
/// first touch, by whichever thread reads them.
#[derive(Debug, Clone)]
pub struct ClientData {
    /// Local training samples (never leave the client).
    pub train: Rows,
    /// Local held-out samples drawn from the *same* label distribution as
    /// the client's training data. The adaptive scheduler evaluates the
    /// global model on the union of these within a tier (`TestData_t` in
    /// Algorithm 2), so they must mirror each client's skew.
    pub test: Rows,
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
    /// Plan a federated dataset from a partition.
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

    /// A federated dataset over a label plan: client `c` trains on
    /// `train_labels[c]` and holds out `test_labels[c]`, plus a balanced
    /// global test set of `global_test_per_class` samples per class.
    ///
    /// Only the global test set is generated here. Each client's sets
    /// are [`Rows`], built on first touch by whichever thread reads them
    /// — a training task on an executor worker, or an evaluation chunk —
    /// from their own `split_seed` streams of `seed`, so the bytes do not
    /// depend on which thread builds them, or when. The whole plan is
    /// checked here, on the caller's thread, so a bad one panics naming
    /// its lowest offending client.
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
        let shared = Arc::new(gen.clone());
        let clients = train_labels
            .iter()
            .zip(test_labels)
            .enumerate()
            .map(|(cid, (train, test))| {
                assert!(!train.is_empty(), "client {cid} has no samples");
                for &label in train.iter().chain(test) {
                    assert!(label < classes, "client {cid}: label {label} out of range");
                }
                let stream = 2 * cid as u64;
                ClientData {
                    train: Rows::new(&shared, train, cid, split_seed(seed, stream)),
                    test: Rows::new(&shared, test, cid, split_seed(seed, stream + 1)),
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

    /// Per-client training-set sizes (the FedAvg aggregation weights),
    /// read from the label plans: no rows are built.
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
