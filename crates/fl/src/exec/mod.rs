//! The executor behind the round loop: where client training and
//! deferred evaluation run ([`executor`]), and how out-of-order
//! completions are put back into the canonical aggregation order
//! ([`streaming`]). `Session::run_rounds` and the asynchronous engine in
//! `tifl_core::exec` are its two callers.

pub mod executor;
pub mod streaming;

pub use executor::{ClientExecutor, DeferredEvals, TaskResult, TrainContext, WorkQueue};
pub use streaming::OrderedMerge;
