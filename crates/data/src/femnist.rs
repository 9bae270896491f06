//! Synthetic FEMNIST-like federated data (LEAF's joint heterogeneity,
//! §5.2.6).
//!
//! LEAF's FEMNIST task partitions handwritten characters by *writer*:
//! 62 classes, inherently non-IID in both quantity (writers contribute
//! wildly different sample counts) and content (each writer's style and
//! class mix differ). The paper samples LEAF at rate 0.05, giving 182
//! clients. This is the synthetic equivalent: per-writer power-law
//! sample counts, per-writer class subsets with skewed proportions and
//! per-writer style offsets (the feature skew).

use crate::federated::FederatedDataset;
use crate::synth::{Generator, SynthFamily, SynthSpec};
use rand::distributions::WeightedIndex;
use rand::prelude::*;
use rand_distr::LogNormal;
use serde::{Deserialize, Serialize};
use tifl_tensor::{seed_rng, split_seed};

/// FEMNIST-like generation parameters: the statistics every writer is
/// drawn from. The number of writers is the caller's (paper: 182 at
/// LEAF sampling 0.05).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LeafDataConfig {
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

/// Per-writer training-set sizes of
/// [`build_femnist`]`(writers, config, seed)`, without generating
/// anything else.
#[must_use]
pub fn femnist_train_sizes(writers: usize, config: &LeafDataConfig, seed: u64) -> Vec<usize> {
    (0..writers)
        .map(|w| writer_stream(config, seed, w).1)
        .collect()
}

/// Generate the FEMNIST-like federated dataset of `writers` clients.
///
/// Per writer `w`:
/// * sample count `n_w ~ LogNormal(ln median, sigma)`, clipped below;
/// * a class subset of size `U(classes_per_writer)` with Zipf-flavoured
///   proportions (a writer's most-written characters dominate);
/// * a style offset added to every sample (feature skew);
/// * labels drawn from the writer's class distribution.
///
/// The label plans are drawn serially, writer by writer; a writer's
/// features are generated on first touch ([`FederatedDataset::from_labels`]).
///
/// # Panics
/// Panics if `writers == 0`, `test_fraction` is not in `[0, 1]`, or a
/// writer ends up with no samples (`min_samples == 0`).
#[must_use]
pub fn build_femnist(writers: usize, config: &LeafDataConfig, seed: u64) -> FederatedDataset {
    assert!(writers > 0, "need at least one client");
    assert!(
        (0.0..=1.0).contains(&config.test_fraction),
        "test_fraction out of range"
    );
    let spec = SynthSpec::family(SynthFamily::Femnist);
    let gen = Generator::new(spec, split_seed(seed, 0xFE31));
    let classes = spec.classes;

    let (train_labels, test_labels): (Vec<Vec<usize>>, Vec<Vec<usize>>) = (0..writers)
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
