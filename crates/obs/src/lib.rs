//! Deterministic observability: tracing and metrics for TiFL runs.
//!
//! The paper's core claims are *temporal* — tiered selection cuts round
//! latency because stragglers stop gating `max_i L_i` (Eq. 1) — so a
//! reproduction needs more than final accuracy curves: it needs to show
//! *when* every dispatch, completion, cancellation, fold and eval
//! happened inside the simulated clock. Each round's plan already says
//! so, and a run's report is enough to rebuild every plan, so nothing
//! is recorded while a run trains: `tifl_core::runner::Runner::virtual_trace`
//! lays a finished run out as Chrome events. This crate provides the
//! vocabulary for that and the rest of the observability surface,
//! without compromising the workspace's bit-for-bit determinism
//! contract:
//!
//! - [`digest`] — 128-bit FNV-1a content digests ([`Digest128`]) and
//!   the per-round [`DigestChain`]: order-sensitive, prefix-stable
//!   folds that make run artifacts self-checking and two diverging
//!   runs localizable to their first divergent round.
//! - [`diff`] — the [`DiffReport`] vocabulary behind `tifl diff`:
//!   which round two runs first disagree on, and the field-level
//!   deltas of that round.
//! - [`metrics`] — the [`MetricsSnapshot`] a run artifact stores
//!   (counters, gauges, fixed-bucket histograms), read off the run's
//!   report and serialized byte-deterministically.
//! - [`chrome`] — the [`ChromeEvent`] a trace is written as, loadable
//!   in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev), and
//!   the host lane's renderer.
//! - [`prof`] — the **host-time** phase profiler: a [`HostClock`]
//!   trait ([`RealClock`] in production, deterministic [`FrozenClock`]
//!   in tests) behind a preallocated [`HostProfiler`] attributing real
//!   seconds to the canonical phases (profile, plan, train, encode,
//!   fold, eval, store write). Host time is operator-facing only — it
//!   never feeds simulated state, `RunKey` hashing, or deterministic
//!   artifact bytes.
//! - [`pivot`] — the row type and text renderer for `tifl report`'s
//!   policy × scenario pivot (populated by `tifl-sweep` from a
//!   `RunStore`).
//!
//! # Determinism contract
//!
//! The virtual lane and the metrics are derived from the run's report
//! (and the round plans it rebuilds), never from wall time, iteration
//! order of hash maps, or thread scheduling. The same run therefore
//! yields the same Chrome events — byte for byte — on `Lockstep` and
//! `EventDriven{n}` backends for any `n`, and two runs of the same spec
//! yield byte-identical [`MetricsSnapshot`] JSON. The root
//! `tests/obs.rs` suite pins both properties.
//!
//! The host lane is the deliberate exception: wall-clock durations
//! genuinely vary between machines and runs, so [`prof`] spans are
//! best-effort measurements kept strictly outside the deterministic
//! surface. With a [`FrozenClock`] the span *structure* (which phases,
//! which rounds, in what order) is itself pinned.

pub mod chrome;
pub mod diff;
pub mod digest;
pub mod metrics;
pub mod pivot;
pub mod prof;

pub use chrome::{host_chrome_trace, ChromeEvent};
pub use diff::{first_divergence, DiffReport, DiffSide, Divergence, FieldDelta};
pub use digest::{Digest128, DigestChain};
pub use metrics::{CounterSnap, GaugeSnap, HistSnap, MetricsSnapshot};
pub use pivot::{render_pivot, PivotRow};
pub use prof::{FrozenClock, HostClock, HostProfiler, HostSpan, Phase, PhaseTotals, RealClock};

/// A run observer that records nothing: a finished run's trace is read
/// off its report (`tifl_core::runner::Runner::virtual_trace`). Kept
/// only because the `tifl-benchmark` crate attaches one.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunObserver;

impl RunObserver {
    /// An observer; `capacity` is ignored. Kept for `tifl-benchmark`.
    #[must_use]
    pub fn new(_capacity: usize) -> Self {
        Self
    }
}
