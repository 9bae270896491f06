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
//! calls into the AVX2 and AVX-512 copies of [`ops`]' train-step
//! kernels and of [`codec`]'s int8 encode passes, each made only after
//! the CPU reported the copy's feature (AVX2, or AVX-512F), all in one
//! macro. Every block carries a `// SAFETY:` contract. Elsewhere the
//! workspace's `unsafe_code = "deny"` rejects `unsafe`, and its
//! `tests/ledger.rs` fails on a waiver of that lint.

#![deny(unsafe_op_in_unsafe_fn)]

/// Make the kernel function `$kernel` a [`ops::KernelCopy`] method that
/// runs it in that copy: on x86-64 through one of two nested wrappers
/// that compile `$kernel` again, one with AVX2 and nothing else, one
/// with AVX-512F (the [`ops`] module docs). A kernel whose first const
/// parameter is `LANES` is instantiated at 8 lanes in the portable and
/// AVX2 copies and at 16 in the AVX-512 one (and in the hidden
/// [`ops::KernelCopy::PORTABLE_WIDE`], which runs the 16-lane body in
/// baseline instructions on every target); no other parameter differs
/// between copies. `$kernel` must be `#[inline(always)]`, and so must
/// every helper it calls: code not inlined into a wrapper compiles for
/// the baseline only. Defined here, before the modules, so both
/// [`ops`] and [`codec`] can use it.
macro_rules! kernel_copies {
    ($kernel:ident<const LANES: usize $(, const $c:ident: bool)?> $args:tt $(-> $ret:ty)?) => {
        kernel_copies!(
            @copies $kernel [$(const $c: bool)?] [$($c)?] [8, $($c)?] [16, $($c)?]
            $args $(-> $ret)?
        );
    };
    ($kernel:ident $args:tt $(-> $ret:ty)?) => {
        kernel_copies!(@copies $kernel [] [] [] [] $args $(-> $ret)?);
    };
    (@copies $kernel:ident [$($generics:tt)*] [$($names:tt)*] [$($narrow:tt)*] [$($wide:tt)*]
        ($($arg:ident: $ty:ty),*) $(-> $ret:ty)?) => {
        impl $crate::ops::KernelCopy {
            fn $kernel<$($generics)*>(self, $($arg: $ty),*) $(-> $ret)? {
                #[cfg(target_arch = "x86_64")]
                #[target_feature(enable = "avx2")]
                fn avx2<$($generics)*>($($arg: $ty),*) $(-> $ret)? {
                    $kernel::<$($narrow)*>($($arg),*)
                }
                #[cfg(target_arch = "x86_64")]
                #[target_feature(enable = "avx512f")]
                fn avx512<$($generics)*>($($arg: $ty),*) $(-> $ret)? {
                    $kernel::<$($wide)*>($($arg),*)
                }
                match self.isa {
                    #[cfg(target_arch = "x86_64")]
                    $crate::ops::Isa::Avx512 => {
                        #[expect(unsafe_code, reason = "a `#[target_feature]` function is unsafe to call")]
                        // SAFETY: `Isa::Avx512` is set only by `KernelCopy::avx512`,
                        // after `is_x86_feature_detected!("avx512f")` returned true
                        // (AVX-512F implies AVX2, as `target_feature` assumes).
                        unsafe { avx512::<$($names)*>($($arg),*) }
                    }
                    #[cfg(target_arch = "x86_64")]
                    $crate::ops::Isa::Avx2 => {
                        #[expect(unsafe_code, reason = "a `#[target_feature]` function is unsafe to call")]
                        // SAFETY: `Isa::Avx2` is set only by `KernelCopy::avx2`,
                        // after `is_x86_feature_detected!("avx2")` returned true.
                        unsafe { avx2::<$($names)*>($($arg),*) }
                    }
                    $crate::ops::Isa::PortableWide => $kernel::<$($wide)*>($($arg),*),
                    $crate::ops::Isa::Portable => $kernel::<$($narrow)*>($($arg),*),
                }
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
