//! The kernel bench's perf gate: [`timing`] times the entries of
//! `benches/codec_kernels.rs` and compares them against the checked-in
//! baseline (`cargo bench --bench codec_kernels`).

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "the perf gate reports on its process's stdio"
)]

pub mod timing;
