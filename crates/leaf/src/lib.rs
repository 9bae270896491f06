//! LEAF-like FEMNIST federated benchmark (§5.2.6).
//!
//! LEAF's FEMNIST task partitions handwritten characters by *writer*:
//! 62 classes, inherently non-IID in both quantity (writers contribute
//! wildly different sample counts) and content (each writer's style and
//! class mix differ). The paper samples LEAF at rate 0.05, giving 182
//! clients, extends the framework with resource heterogeneity by
//! assigning hardware to clients uniformly at random, selects 10 clients
//! per round and trains 2000 rounds with LEAF's default SGD (lr 0.004,
//! batch 10).
//!
//! [`dataset`] generates the synthetic equivalent: per-writer power-law
//! sample counts, per-writer class subsets with skewed proportions and
//! per-writer style offsets (the feature skew). [`experiment`] is the
//! runner mirroring `tifl-core`'s harness for this benchmark.

#![forbid(unsafe_code)]

pub mod dataset;
pub mod experiment;

pub use dataset::{build_femnist, femnist_train_sizes, LeafDataConfig};
pub use experiment::LeafExperiment;
