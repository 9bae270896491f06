//! From-scratch neural-network substrate for the TiFL reproduction.
//!
//! The paper trains small Keras CNNs with TensorFlow on image datasets;
//! this reproduction trains a dense + ReLU MLP on synthetic features
//! (see [`models`]), built from pure-Rust blocks: the model itself,
//! [`model::Sequential`] (two dense layers around a [`relu`]),
//! softmax cross-entropy [`loss`], [`optim`] (SGD and RMSprop, the two
//! optimisers used in §5), accuracy [`metrics`], and FLOP counting
//! (used by the simulator's latency model).
//!
//! Models flatten to [`tifl_tensor::ParamVec`] so the FL layer can
//! aggregate them without knowing their structure.

pub mod loss;
pub mod metrics;
pub mod model;
pub mod models;
pub mod optim;

pub use loss::{softmax_cross_entropy, softmax_cross_entropy_loss};
pub use model::{relu, relu_backward, Sequential};
pub use optim::{Optimizer, RmsProp, Sgd};
