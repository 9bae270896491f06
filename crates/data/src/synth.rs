//! Synthetic image-classification data.
//!
//! Each class `c` owns a prototype vector `p_c`; a sample of class `c`
//! is `brightness * (p_c + style) + noise`, with per-sample Gaussian
//! noise and (for FEMNIST-like data) a per-writer style offset. The
//! *hardness* of a family is controlled by two knobs:
//!
//! * `noise`: per-pixel Gaussian noise scale — more noise, lower
//!   attainable accuracy;
//! * `overlap`: fraction of each prototype shared with a common
//!   direction — more overlap, more confusable classes.
//!
//! The presets reproduce the hardness *ordering* of the paper's corpora
//! (MNIST easiest, CIFAR-10 hardest), which is what the heterogeneity
//! experiments rely on.

use crate::dataset::Dataset;
use rand::rngs::StdRng;
use rand::Rng;
use rand_distr::{Distribution, Normal};
use serde::{Deserialize, Serialize};
use tifl_tensor::{seed_rng, split_seed, Matrix};

/// Named dataset families mirroring the paper's corpora.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SynthFamily {
    /// MNIST-like: 10 well-separated classes (easy).
    Mnist,
    /// Fashion-MNIST-like: 10 classes, moderate overlap.
    FashionMnist,
    /// CIFAR-10-like: 10 classes, strong overlap and noise (hard).
    Cifar10,
    /// FEMNIST-like: 62 classes with per-writer style offsets.
    Femnist,
}

/// Full generator specification.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SynthSpec {
    /// Image side length; feature count is `side * side`.
    pub side: usize,
    /// Number of classes.
    pub classes: usize,
    /// Per-pixel Gaussian noise scale.
    pub noise: f32,
    /// Fraction of each prototype shared with a common direction
    /// (`0.0` = orthogonal-ish classes, `-> 1.0` = nearly identical).
    pub overlap: f32,
    /// Scale of per-writer style offsets (0 disables writer styles).
    pub style_scale: f32,
    /// Brightness jitter half-range (`b ~ U(1-j, 1+j)`).
    pub brightness_jitter: f32,
}

impl SynthSpec {
    /// Preset matched to a named family at the default `8x8` size.
    #[must_use]
    pub fn family(family: SynthFamily) -> Self {
        match family {
            SynthFamily::Mnist => Self {
                side: 8,
                classes: 10,
                noise: 0.95,
                overlap: 0.35,
                style_scale: 0.0,
                brightness_jitter: 0.1,
            },
            SynthFamily::FashionMnist => Self {
                side: 8,
                classes: 10,
                noise: 1.2,
                overlap: 0.5,
                style_scale: 0.0,
                brightness_jitter: 0.2,
            },
            SynthFamily::Cifar10 => Self {
                side: 8,
                classes: 10,
                noise: 1.25,
                overlap: 0.55,
                style_scale: 0.0,
                brightness_jitter: 0.3,
            },
            SynthFamily::Femnist => Self {
                side: 8,
                classes: 62,
                noise: 1.1,
                overlap: 0.5,
                style_scale: 0.4,
                brightness_jitter: 0.2,
            },
        }
    }

    /// Feature count (`side * side`).
    #[must_use]
    pub fn features(&self) -> usize {
        self.side * self.side
    }
}

/// Deterministic sample generator for one [`SynthSpec`].
///
/// Prototypes are derived from the seed alone, so train and test sets
/// generated from the same `(spec, seed)` share the same class geometry
/// — independent draws from the same underlying distribution, exactly
/// like a held-out test split.
#[derive(Clone)]
pub struct Generator {
    spec: SynthSpec,
    prototypes: Matrix,
    seed: u64,
}

impl Generator {
    /// Build the generator (computes class prototypes).
    #[must_use]
    pub fn new(spec: SynthSpec, seed: u64) -> Self {
        let dim = spec.features();
        let mut rng = seed_rng(split_seed(seed, 0xB007));
        let normal = Normal::new(0.0f32, 1.0).expect("valid normal");
        // Common direction shared by all prototypes (controls overlap).
        let common: Vec<f32> = (0..dim).map(|_| normal.sample(&mut rng)).collect();
        let mut prototypes = Matrix::zeros(spec.classes, dim);
        for c in 0..spec.classes {
            let row = prototypes.row_mut(c);
            for (j, v) in row.iter_mut().enumerate() {
                let own = normal.sample(&mut rng);
                *v = spec.overlap * common[j] + (1.0 - spec.overlap) * own;
            }
        }
        Self {
            spec,
            prototypes,
            seed,
        }
    }

    /// The generator's specification.
    #[must_use]
    pub fn spec(&self) -> &SynthSpec {
        &self.spec
    }

    /// Class prototypes (`classes x features`), exposed for tests.
    #[must_use]
    pub fn prototypes(&self) -> &Matrix {
        &self.prototypes
    }

    /// Draw one sample of class `label` with optional writer `style`.
    fn sample_into(&self, label: usize, style: Option<&[f32]>, rng: &mut StdRng, out: &mut [f32]) {
        let normal = Normal::new(0.0f32, self.spec.noise).expect("valid normal");
        let j = self.spec.brightness_jitter;
        let brightness = if j > 0.0 {
            rng.gen_range(1.0 - j..1.0 + j)
        } else {
            1.0
        };
        let proto = self.prototypes.row(label);
        for (i, o) in out.iter_mut().enumerate() {
            let s = style.map_or(0.0, |st| st[i]);
            *o = brightness * (proto[i] + s) + normal.sample(rng);
        }
    }

    /// Generate `labels.len()` samples with the given labels, using the
    /// RNG stream labelled by `stream` (e.g. a client id).
    #[must_use]
    pub fn generate_with_labels(&self, labels: &[usize], stream: u64) -> Dataset {
        self.generate_with_labels_and_style(labels, None, stream)
    }

    /// As [`Generator::generate_with_labels`] but with a writer style
    /// offset added to every sample (FEMNIST-like writers).
    #[must_use]
    pub fn generate_with_labels_and_style(
        &self,
        labels: &[usize],
        style: Option<&[f32]>,
        stream: u64,
    ) -> Dataset {
        let dim = self.spec.features();
        let mut rng = seed_rng(split_seed(self.seed, stream));
        let mut x = Matrix::zeros(labels.len(), dim);
        for (i, &label) in labels.iter().enumerate() {
            assert!(label < self.spec.classes, "label {label} out of range");
            self.sample_into(label, style, &mut rng, x.row_mut(i));
        }
        Dataset::new(x, labels.to_vec(), self.spec.classes)
    }

    /// Generate `n` samples with uniform-random labels (stream-seeded).
    #[must_use]
    pub fn generate_uniform(&self, n: usize, stream: u64) -> Dataset {
        let mut rng = seed_rng(split_seed(self.seed, split_seed(stream, 0x1AB)));
        let labels: Vec<usize> = (0..n)
            .map(|_| rng.gen_range(0..self.spec.classes))
            .collect();
        self.generate_with_labels(&labels, stream)
    }

    /// Generate a balanced set: `per_class` samples of every class, in
    /// label order (callers shuffle if needed).
    #[must_use]
    pub fn generate_balanced(&self, per_class: usize, stream: u64) -> Dataset {
        let labels: Vec<usize> = (0..self.spec.classes)
            .flat_map(|c| std::iter::repeat_n(c, per_class))
            .collect();
        self.generate_with_labels(&labels, stream)
    }

    /// Draw a writer style vector (for FEMNIST-like clients).
    #[must_use]
    pub fn draw_style(&self, writer: u64) -> Vec<f32> {
        let mut rng = seed_rng(split_seed(self.seed, split_seed(writer, 0x577)));
        let normal = Normal::new(0.0f32, self.spec.style_scale).expect("valid normal");
        (0..self.spec.features())
            .map(|_| normal.sample(&mut rng))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_order_hardness_by_noise_and_overlap() {
        let m = SynthSpec::family(SynthFamily::Mnist);
        let f = SynthSpec::family(SynthFamily::FashionMnist);
        let c = SynthSpec::family(SynthFamily::Cifar10);
        assert!(m.noise < f.noise && f.noise < c.noise);
        assert!(m.overlap < f.overlap && f.overlap < c.overlap);
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = SynthSpec::family(SynthFamily::Mnist);
        let g1 = Generator::new(spec, 7);
        let g2 = Generator::new(spec, 7);
        assert_eq!(g1.generate_uniform(10, 3), g2.generate_uniform(10, 3));
    }

    #[test]
    fn different_streams_give_different_samples() {
        let g = Generator::new(SynthSpec::family(SynthFamily::Mnist), 7);
        assert_ne!(g.generate_uniform(10, 0).x, g.generate_uniform(10, 1).x);
    }

    #[test]
    fn balanced_set_has_equal_counts() {
        let g = Generator::new(SynthSpec::family(SynthFamily::Mnist), 1);
        let d = g.generate_balanced(5, 0);
        assert!(d.class_counts().iter().all(|&c| c == 5));
    }

    #[test]
    fn samples_cluster_around_their_prototype() {
        let g = Generator::new(SynthSpec::family(SynthFamily::Mnist), 3);
        let d = g.generate_with_labels(&vec![2; 200], 0);
        let dim = g.spec().features();
        // Mean of many samples should be close to the prototype (scaled by
        // mean brightness = 1).
        let mut mean = vec![0.0f32; dim];
        for i in 0..d.len() {
            for (m, &v) in mean.iter_mut().zip(d.x.row(i)) {
                *m += v / d.len() as f32;
            }
        }
        let proto = g.prototypes().row(2);
        let err: f32 = mean
            .iter()
            .zip(proto)
            .map(|(&a, &b)| (a - b).abs())
            .sum::<f32>()
            / dim as f32;
        assert!(err < 0.15, "mean deviates from prototype by {err}");
    }

    #[test]
    fn style_offsets_shift_samples() {
        let g = Generator::new(SynthSpec::family(SynthFamily::Femnist), 5);
        let style = g.draw_style(1);
        assert!(style.iter().any(|&v| v.abs() > 1e-3));
        let plain = g.generate_with_labels(&[0; 4], 9);
        let styled = g.generate_with_labels_and_style(&[0; 4], Some(&style), 9);
        assert_ne!(plain.x, styled.x);
    }

    #[test]
    fn femnist_has_62_classes() {
        let spec = SynthSpec::family(SynthFamily::Femnist);
        assert_eq!(spec.classes, 62);
    }

    /// A nearest-prototype classifier should do well on MNIST-like data
    /// and clearly worse on CIFAR-10-like data: the hardness ordering the
    /// substitution must preserve.
    #[test]
    fn hardness_ordering_is_observable() {
        let acc = |family: SynthFamily| {
            let g = Generator::new(SynthSpec::family(family), 11);
            let d = g.generate_uniform(400, 0);
            let protos = g.prototypes();
            let mut correct = 0usize;
            for i in 0..d.len() {
                let xi = d.x.row(i);
                let best = (0..protos.rows())
                    .min_by(|&a, &b| {
                        let da: f32 = protos
                            .row(a)
                            .iter()
                            .zip(xi)
                            .map(|(&p, &v)| (p - v) * (p - v))
                            .sum();
                        let db: f32 = protos
                            .row(b)
                            .iter()
                            .zip(xi)
                            .map(|(&p, &v)| (p - v) * (p - v))
                            .sum();
                        da.partial_cmp(&db).unwrap()
                    })
                    .unwrap();
                if best == d.y[i] {
                    correct += 1;
                }
            }
            correct as f64 / d.len() as f64
        };
        let mnist = acc(SynthFamily::Mnist);
        let cifar = acc(SynthFamily::Cifar10);
        assert!(mnist > 0.9, "mnist-like nearest-prototype accuracy {mnist}");
        assert!(
            cifar < mnist,
            "cifar ({cifar}) should be harder than mnist ({mnist})"
        );
    }
}
