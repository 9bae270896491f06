//! Synthetic federated datasets and non-IID partitioners.
//!
//! The paper evaluates on MNIST, Fashion-MNIST, CIFAR-10 and FEMNIST.
//! Those corpora are not available offline, so this crate generates
//! *synthetic equivalents*: Gaussian class-prototype images whose
//! hardness is tuned per dataset family (see [`synth`]). What the TiFL
//! experiments actually exercise — learnable class structure, a hardness
//! ordering, and sensitivity to skewed partitions — is preserved; see
//! DESIGN.md §2 for the substitution argument.
//!
//! [`partition`] implements the partitioning strategies of §5.1: IID,
//! shard-based sort-by-label (McMahan et al.), class-limited non-IID(k)
//! (Zhao et al.), and the 10/15/20/25/30 % quantity-skew split;
//! [`femnist`] plans LEAF's per-writer FEMNIST split (§5.2.6).

pub mod dataset;
pub mod federated;
pub mod femnist;
pub mod partition;
pub mod synth;

pub use dataset::Dataset;
pub use federated::FederatedDataset;
pub use femnist::{build_femnist, femnist_train_sizes, LeafDataConfig};
pub use synth::{SynthFamily, SynthSpec};
