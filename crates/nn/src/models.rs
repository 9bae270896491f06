//! The model factory.
//!
//! The paper trains small Keras CNNs on image datasets (§5). This
//! reproduction has no images: every dataset is synthetic 64-feature
//! vectors, so the one model family is a two-layer dense + ReLU MLP
//! sized to them — the stand-in every preset, `tifl paper <id>` and
//! benchmark workload trains, and the one the latency calibration and
//! learning rates in `tifl_core::experiment` are tuned to. README's
//! feature ledger records the measurement behind that choice.
//!
//! A model is a function of `(spec, weights)` alone: the seed of
//! [`ModelSpec::build`] draws the initial weights and nothing else.

use crate::model::Sequential;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use tifl_tensor::ParamVec;

/// Architecture selector, serialisable so experiment configs can name it.
///
/// `non_exhaustive`: a real-image CNN joins when datasets are in the
/// repository, and the frozen benchmark already matches with a
/// catch-all arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum ModelSpec {
    /// Two-layer MLP with ReLU (the experiment model).
    Mlp {
        /// Input feature count.
        input: usize,
        /// Hidden width.
        hidden: usize,
        /// Number of classes.
        classes: usize,
    },
}

impl ModelSpec {
    /// Input feature count expected by the model.
    #[must_use]
    pub fn input_features(&self) -> usize {
        let ModelSpec::Mlp { input, .. } = *self;
        input
    }

    /// Width of the hidden layer.
    #[must_use]
    pub fn hidden(&self) -> usize {
        let ModelSpec::Mlp { hidden, .. } = *self;
        hidden
    }

    /// Number of output classes.
    #[must_use]
    pub fn classes(&self) -> usize {
        let ModelSpec::Mlp { classes, .. } = *self;
        classes
    }

    /// Instantiate the model with weights drawn from `seed`.
    #[must_use]
    pub fn build(&self, seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        Sequential::mlp(
            self.input_features(),
            self.hidden(),
            self.classes(),
            Some(&mut rng),
        )
    }

    /// Instantiate the model holding `params` (the layout of
    /// [`Sequential::params`]). Equal to `build(_)` followed by
    /// `set_params(params)`, without drawing initial weights that are
    /// then overwritten.
    ///
    /// # Panics
    /// Panics if `params` is not exactly the model's parameter count.
    #[must_use]
    pub fn build_with_params(&self, params: &ParamVec) -> Sequential {
        let mut model = Sequential::mlp(self.input_features(), self.hidden(), self.classes(), None);
        model.set_params(params);
        model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tifl_tensor::Matrix;

    #[test]
    fn mlp_forward_shape() {
        let spec = ModelSpec::Mlp {
            input: 64,
            hidden: 32,
            classes: 10,
        };
        let mut m = spec.build(0);
        assert_eq!(m.param_count(), 64 * 32 + 32 + 32 * 10 + 10);
        let y = m.forward(Matrix::zeros(5, 64), false);
        assert_eq!(y.shape(), (5, 10));
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
        let spec = ModelSpec::Mlp {
            input: 16,
            hidden: 8,
            classes: 4,
        };
        let params = spec.build(5).params();
        assert_eq!(spec.build_with_params(&params).params(), params);
    }

    #[test]
    fn spec_metadata_consistent() {
        let spec = ModelSpec::Mlp {
            input: 64,
            hidden: 32,
            classes: 62,
        };
        assert_eq!(spec.input_features(), 64);
        assert_eq!(spec.classes(), 62);
    }
}
