//! Model factories mirroring the architectures of §5.
//!
//! The paper uses small Keras CNNs (conv-conv-pool-dense for MNIST /
//! FMNIST, a four-conv-layer net for CIFAR-10, and the LEAF default for
//! FEMNIST). Our synthetic datasets are lower-dimensional, so each
//! factory offers the same *family* at a size matched to the generated
//! data: a CNN head over an `8x8` image plus dense classifier, and
//! cheaper MLP / logistic variants used where thousands of federated
//! rounds must run inside a test budget.
//!
//! Every factory takes an explicit RNG so global-model initialisation is
//! reproducible.

use crate::layer::{Conv2d, Dense, Dropout, MaxPool2d, Relu, Shape3};
use crate::model::Sequential;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use tifl_tensor::{split_seed, ParamVec};

/// Architecture selector, serialisable so experiment configs can name it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModelSpec {
    /// Multinomial logistic regression (single dense layer).
    Logistic {
        /// Input feature count.
        input: usize,
        /// Number of classes.
        classes: usize,
    },
    /// Two-layer MLP with ReLU (the default experiment model).
    Mlp {
        /// Input feature count.
        input: usize,
        /// Hidden width.
        hidden: usize,
        /// Number of classes.
        classes: usize,
    },
    /// Small CNN over a square single-channel image:
    /// conv3x3(c1) - ReLU - conv3x3(c2) - ReLU - maxpool2x2 -
    /// dropout(0.25) - dense(hidden) - ReLU - dropout(0.5) -
    /// dense(classes). This mirrors the paper's MNIST/FMNIST
    /// architecture scaled to the synthetic image size.
    Cnn {
        /// Image side length (must leave even dims after two 3x3 convs).
        side: usize,
        /// Channels of the two conv layers.
        channels: (usize, usize),
        /// Hidden dense width.
        hidden: usize,
        /// Number of classes.
        classes: usize,
    },
}

impl ModelSpec {
    /// Input feature count expected by the model.
    #[must_use]
    pub fn input_features(&self) -> usize {
        match *self {
            ModelSpec::Logistic { input, .. } | ModelSpec::Mlp { input, .. } => input,
            ModelSpec::Cnn { side, .. } => side * side,
        }
    }

    /// Number of output classes.
    #[must_use]
    pub fn classes(&self) -> usize {
        match *self {
            ModelSpec::Logistic { classes, .. }
            | ModelSpec::Mlp { classes, .. }
            | ModelSpec::Cnn { classes, .. } => classes,
        }
    }

    /// Instantiate the model with weights drawn from `seed`.
    #[must_use]
    pub fn build(&self, seed: u64) -> Sequential {
        self.assemble(seed, Some(&mut StdRng::seed_from_u64(seed)))
    }

    /// Instantiate the model holding `params` (the layout of
    /// [`Sequential::params`]); `seed` only seeds the dropout streams.
    /// Equal to `build(seed)` followed by `set_params(params)`, without
    /// drawing initial weights that are then overwritten.
    ///
    /// # Panics
    /// Panics if `params` is not exactly the model's parameter count.
    #[must_use]
    pub fn build_with_params(&self, params: &ParamVec, seed: u64) -> Sequential {
        let mut model = self.assemble(seed, None);
        model.set_params(params);
        model
    }

    /// The architecture table: weights drawn from `init`, or all zero.
    fn assemble(&self, seed: u64, mut init: Option<&mut StdRng>) -> Sequential {
        match *self {
            ModelSpec::Logistic { input, classes } => {
                Sequential::new(vec![Box::new(Dense::init(input, classes, init))])
            }
            ModelSpec::Mlp {
                input,
                hidden,
                classes,
            } => Sequential::new(vec![
                Box::new(Dense::init(input, hidden, init.as_deref_mut())),
                Box::new(Relu::new(hidden)),
                Box::new(Dense::init(hidden, classes, init)),
            ]),
            ModelSpec::Cnn {
                side,
                channels,
                hidden,
                classes,
            } => {
                let in_shape = Shape3 {
                    c: 1,
                    h: side,
                    w: side,
                };
                let conv1 = Conv2d::init(in_shape, channels.0, 3, init.as_deref_mut());
                let s1 = conv1.out_shape();
                let conv2 = Conv2d::init(s1, channels.1, 3, init.as_deref_mut());
                let s2 = conv2.out_shape();
                let pool = MaxPool2d::new(s2);
                let sp = pool.out_shape();
                let flat = sp.len();
                // Dropout RNGs are derived from the model seed so two
                // builds of the same spec+seed behave identically.
                let d1 = Dropout::new(0.25, flat, StdRng::seed_from_u64(split_seed(seed, 101)));
                let d2 = Dropout::new(0.5, hidden, StdRng::seed_from_u64(split_seed(seed, 102)));
                Sequential::new(vec![
                    Box::new(conv1),
                    Box::new(Relu::new(s1.len())),
                    Box::new(conv2),
                    Box::new(Relu::new(s2.len())),
                    Box::new(pool),
                    Box::new(d1),
                    Box::new(Dense::init(flat, hidden, init.as_deref_mut())),
                    Box::new(Relu::new(hidden)),
                    Box::new(d2),
                    Box::new(Dense::init(hidden, classes, init)),
                ])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tifl_tensor::Matrix;

    #[test]
    fn logistic_shape() {
        let spec = ModelSpec::Logistic {
            input: 64,
            classes: 10,
        };
        let m = spec.build(0);
        assert_eq!(m.param_count(), 64 * 10 + 10);
    }

    #[test]
    fn mlp_forward_shape() {
        let spec = ModelSpec::Mlp {
            input: 64,
            hidden: 32,
            classes: 10,
        };
        let mut m = spec.build(0);
        let y = m.forward(Matrix::zeros(5, 64), false);
        assert_eq!(y.shape(), (5, 10));
    }

    #[test]
    fn cnn_forward_shape() {
        let spec = ModelSpec::Cnn {
            side: 8,
            channels: (4, 8),
            hidden: 32,
            classes: 10,
        };
        let mut m = spec.build(0);
        let y = m.forward(Matrix::zeros(3, 64), false);
        assert_eq!(y.shape(), (3, 10));
    }

    #[test]
    fn same_seed_same_model() {
        let spec = ModelSpec::Mlp {
            input: 16,
            hidden: 8,
            classes: 4,
        };
        assert_eq!(spec.build(42).params(), spec.build(42).params());
    }

    #[test]
    fn different_seed_different_model() {
        let spec = ModelSpec::Mlp {
            input: 16,
            hidden: 8,
            classes: 4,
        };
        assert_ne!(spec.build(1).params(), spec.build(2).params());
    }

    #[test]
    fn build_with_params_holds_the_given_weights() {
        for spec in [
            ModelSpec::Logistic {
                input: 16,
                classes: 4,
            },
            ModelSpec::Mlp {
                input: 16,
                hidden: 8,
                classes: 4,
            },
            ModelSpec::Cnn {
                side: 8,
                channels: (2, 3),
                hidden: 8,
                classes: 4,
            },
        ] {
            let params = spec.build(5).params();
            assert_eq!(spec.build_with_params(&params, 0).params(), params);
        }
    }

    #[test]
    fn spec_metadata_consistent() {
        let spec = ModelSpec::Cnn {
            side: 8,
            channels: (4, 8),
            hidden: 32,
            classes: 62,
        };
        assert_eq!(spec.input_features(), 64);
        assert_eq!(spec.classes(), 62);
    }
}
