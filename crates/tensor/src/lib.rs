//! Dense `f32` tensor primitives for the TiFL reproduction.
//!
//! This crate deliberately implements only what the federated-learning
//! stack above it needs: a row-major [`Matrix`] with register-tiled
//! matrix multiplication, element-wise kernels, deterministic RNG
//! utilities, weight initialisers, and flat [`ParamVec`] views used by
//! FedAvg-style aggregation.
//!
//! Everything is deterministic given a seed: there is no global RNG and
//! no use of system entropy anywhere in the workspace.
//!
//! This is the only workspace crate allowed to contain `unsafe`: the
//! unchecked float-to-int conversion of [`codec`]'s quantizer, and the
//! calls into the AVX2 copies of [`ops`]' train-step kernels and of
//! [`codec`]'s int8 encode passes, made only after the CPU reported
//! AVX2, all in one macro. Every block carries a `// SAFETY:`
//! contract. Elsewhere the workspace's `unsafe_code = "deny"` rejects
//! `unsafe`, and its `tests/ledger.rs` fails on a waiver of that lint.

#![deny(unsafe_op_in_unsafe_fn)]

/// Make the kernel function `$kernel` a [`ops::KernelCopy`] method that
/// runs it in that copy: on x86-64 through a nested wrapper that
/// compiles `$kernel` again with AVX2 and nothing else (the [`ops`]
/// module docs). `$kernel` must be `#[inline(always)]`, and so must
/// every helper it calls: code not inlined into the wrapper compiles
/// for the baseline only. Defined here, before the modules, so both
/// [`ops`] and [`codec`] can use it.
macro_rules! two_copies {
    ($kernel:ident $(<const $c:ident: bool>)? ($($arg:ident: $ty:ty),*) $(-> $ret:ty)?) => {
        impl $crate::ops::KernelCopy {
            fn $kernel$(<const $c: bool>)?(self, $($arg: $ty),*) $(-> $ret)? {
                #[cfg(target_arch = "x86_64")]
                #[target_feature(enable = "avx2")]
                fn avx2$(<const $c: bool>)?($($arg: $ty),*) $(-> $ret)? {
                    $kernel$(::<$c>)?($($arg),*)
                }
                if self.avx2 {
                    #[cfg(target_arch = "x86_64")]
                    #[expect(unsafe_code, reason = "a `#[target_feature]` function is unsafe to call")]
                    // SAFETY: `self.avx2` is set only by `KernelCopy::avx2`,
                    // after `is_x86_feature_detected!("avx2")` returned true.
                    return unsafe { avx2$(::<$c>)?($($arg),*) };
                }
                $kernel$(::<$c>)?($($arg),*)
            }
        }
    };
}

pub mod codec;
pub mod init;
pub mod matrix;
pub mod ops;
pub mod param;
pub mod rng;

pub use matrix::Matrix;
pub use param::ParamVec;
pub use rng::{seed_rng, split_seed};
