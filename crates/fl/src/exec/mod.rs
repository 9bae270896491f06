//! The executor behind the round loop: where client training, the
//! encode of a lossy upload and deferred evaluation run ([`executor`]),
//! and how out-of-order completions are put back into the canonical
//! aggregation order ([`streaming`]). Private to the crate:
//! `Session::run_rounds` is its one caller.

pub mod executor;
pub mod streaming;

pub use executor::{ClientExecutor, DeferredEvals, TaskResult, TaskTag, TrainContext, Upload};
pub use streaming::OrderedMerge;
