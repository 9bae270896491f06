//! Dense `f32` tensor primitives for the TiFL reproduction.
//!
//! This crate deliberately implements only what the federated-learning
//! stack above it needs: a row-major [`Matrix`] with rayon-parallel
//! matrix multiplication, element-wise kernels, deterministic RNG
//! utilities, weight initialisers, and flat [`ParamVec`] views used by
//! FedAvg-style aggregation.
//!
//! Everything is deterministic given a seed: there is no global RNG and
//! no use of system entropy anywhere in the workspace.
//!
//! This is the only workspace crate allowed to contain `unsafe`: the
//! unchecked float-to-int conversion of [`codec`]'s quantizer, and the
//! calls into the AVX2 copies of [`ops`]' train-step kernels, made only
//! after the CPU reported AVX2. Every block carries a `// SAFETY:`
//! contract. Elsewhere the workspace's `unsafe_code = "deny"` rejects
//! `unsafe`, and its `tests/ledger.rs` fails on a waiver of that lint.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod codec;
pub mod init;
pub mod matrix;
pub mod ops;
pub mod param;
pub mod rng;

pub use matrix::Matrix;
pub use param::ParamVec;
pub use rng::{seed_rng, split_seed};
