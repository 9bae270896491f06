//! Synthetic FEMNIST-like federated data (LEAF's joint heterogeneity).

use rand::distributions::WeightedIndex;
use rand::prelude::*;
use rand_distr::LogNormal;
use serde::{Deserialize, Serialize};
use tifl_data::federated::FederatedDataset;
use tifl_data::synth::{Generator, SynthFamily, SynthSpec};
use tifl_tensor::{seed_rng, split_seed};

/// FEMNIST-like generation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LeafDataConfig {
    /// Number of writers/clients (paper: 182 at LEAF sampling 0.05).
    pub num_clients: usize,
    /// Median samples per writer (counts are lognormal around this).
    pub median_samples: usize,
    /// Lognormal sigma of the per-writer sample count (controls the
    /// quantity heterogeneity; LEAF's FEMNIST is heavily skewed).
    pub quantity_sigma: f64,
    /// Minimum samples per writer after clipping.
    pub min_samples: usize,
    /// Classes each writer actually uses (uniformly drawn subset size
    /// range; FEMNIST writers cover only part of the 62-class alphabet).
    pub classes_per_writer: (usize, usize),
    /// Holdout fraction per writer.
    pub test_fraction: f64,
    /// Samples per class in the balanced global test set.
    pub global_test_per_class: usize,
}

impl Default for LeafDataConfig {
    fn default() -> Self {
        Self {
            num_clients: 182,
            median_samples: 100,
            quantity_sigma: 0.6,
            min_samples: 20,
            classes_per_writer: (10, 40),
            test_fraction: 0.1,
            global_test_per_class: 8,
        }
    }
}

/// Writer `w`'s plan stream, and the training-sample count that is its
/// first draw: `n_w ~ LogNormal(ln median, sigma)`, clipped below.
fn writer_stream(config: &LeafDataConfig, seed: u64, w: usize) -> (StdRng, usize) {
    let count_dist = LogNormal::new((config.median_samples as f64).ln(), config.quantity_sigma)
        .expect("valid lognormal");
    let mut rng = seed_rng(split_seed(seed, 0x11F ^ w as u64));
    let n = (count_dist.sample(&mut rng) as usize).max(config.min_samples);
    (rng, n)
}

/// Per-writer training-set sizes of [`build_femnist`]`(config, seed)`,
/// without generating anything else.
#[must_use]
pub fn femnist_train_sizes(config: &LeafDataConfig, seed: u64) -> Vec<usize> {
    (0..config.num_clients)
        .map(|w| writer_stream(config, seed, w).1)
        .collect()
}

/// Generate the FEMNIST-like federated dataset.
///
/// Per writer `w`:
/// * sample count `n_w ~ LogNormal(ln median, sigma)`, clipped below;
/// * a class subset of size `U(classes_per_writer)` with Zipf-flavoured
///   proportions (a writer's most-written characters dominate);
/// * a style offset added to every sample (feature skew);
/// * labels drawn from the writer's class distribution.
///
/// The label plans are drawn serially, writer by writer; the features
/// generate in parallel ([`FederatedDataset::from_labels`]).
///
/// # Panics
/// Panics if `num_clients == 0`, `test_fraction` is not in `[0, 1]`, or
/// a writer ends up with no samples (`min_samples == 0`).
#[must_use]
pub fn build_femnist(config: &LeafDataConfig, seed: u64) -> FederatedDataset {
    assert!(config.num_clients > 0, "need at least one client");
    assert!(
        (0.0..=1.0).contains(&config.test_fraction),
        "test_fraction out of range"
    );
    let spec = SynthSpec::family(SynthFamily::Femnist);
    let gen = Generator::new(spec, split_seed(seed, 0xFE31));
    let classes = spec.classes;

    let (train_labels, test_labels): (Vec<Vec<usize>>, Vec<Vec<usize>>) = (0..config.num_clients)
        .map(|w| {
            // Quantity heterogeneity.
            let (mut rng, n) = writer_stream(config, seed, w);

            // Class subset + skewed proportions.
            let (lo, hi) = config.classes_per_writer;
            let k = rng.gen_range(lo..=hi.min(classes));
            let mut all: Vec<usize> = (0..classes).collect();
            all.shuffle(&mut rng);
            let subset = &all[..k];
            // Zipf-like weights: the j-th favourite class has weight
            // 1/(j+1).
            let weights: Vec<f64> = (0..k).map(|j| 1.0 / (j + 1) as f64).collect();
            let dist = WeightedIndex::new(&weights).expect("valid weights");

            let labels: Vec<usize> = (0..n).map(|_| subset[dist.sample(&mut rng)]).collect();
            let n_test = ((n as f64 * config.test_fraction).round() as usize).max(1);
            let test_labels: Vec<usize> =
                (0..n_test).map(|_| subset[dist.sample(&mut rng)]).collect();
            (labels, test_labels)
        })
        .unzip();

    // Feature skew: the Femnist spec's `style_scale` gives every writer
    // a style offset.
    FederatedDataset::from_labels(
        &gen,
        &train_labels,
        &test_labels,
        config.global_test_per_class,
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tifl_data::dataset::Dataset;

    fn small() -> LeafDataConfig {
        LeafDataConfig {
            num_clients: 30,
            global_test_per_class: 2,
            ..Default::default()
        }
    }

    #[test]
    fn builds_requested_clients() {
        let fed = build_femnist(&small(), 0);
        assert_eq!(fed.num_clients(), 30);
        assert_eq!(fed.classes, 62);
        assert_eq!(fed.global_test.len(), 124);
    }

    #[test]
    fn quantity_is_heterogeneous() {
        let fed = build_femnist(&small(), 1);
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
        let fed = build_femnist(&small(), 2);
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
        let a = build_femnist(&small(), 3);
        let b = build_femnist(&small(), 3);
        assert_eq!(a.train_sizes(), b.train_sizes());
        assert_eq!(a.clients[7].train, b.clients[7].train);
    }

    #[test]
    fn paper_scale_config() {
        let cfg = LeafDataConfig::default();
        assert_eq!(cfg.num_clients, 182);
        let fed = build_femnist(&cfg, 4);
        assert_eq!(fed.num_clients(), 182);
    }
}
