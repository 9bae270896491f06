//! Deterministic observability: tracing and metrics for TiFL runs.
//!
//! The paper's core claims are *temporal* — tiered selection cuts round
//! latency because stragglers stop gating `max_i L_i` (Eq. 1) — so a
//! reproduction needs more than final accuracy curves: it needs to show
//! *when* every dispatch, completion, cancellation, fold and eval
//! happened inside the simulated clock. This crate provides that
//! surface without compromising the workspace's bit-for-bit
//! determinism contract:
//!
//! - [`digest`] — 128-bit FNV-1a content digests ([`Digest128`]) and
//!   the per-round [`DigestChain`]: order-sensitive, prefix-stable
//!   folds that make run artifacts self-checking and two diverging
//!   runs localizable to their first divergent round.
//! - [`diff`] — the [`DiffReport`] vocabulary behind `tifl diff`:
//!   which round two runs first disagree on, and the field-level
//!   deltas of that round.
//! - [`trace`] — the [`TraceEvent`] vocabulary and [`RunObserver`],
//!   the preallocated ring a `Runner` attaches to a session. Events
//!   are `Copy`, scalar-only payloads stamped with **virtual time**;
//!   recording never allocates once the ring exists, and a session
//!   with no observer attached costs one branch.
//! - [`metrics`] — the [`MetricsSnapshot`] a run artifact stores
//!   (counters, gauges, fixed-bucket histograms), read off the run's
//!   report and serialized byte-deterministically.
//! - [`chrome`] — export a trace as Chrome trace-event JSON, loadable
//!   in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).
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
//! Everything recorded here is derived from the virtual clock and the
//! round plans, never from wall time, iteration order of hash maps, or
//! thread scheduling. The same run therefore yields the same trace —
//! record for record — on `Lockstep` and `EventDriven{n}` backends for
//! any `n`, and two runs of the same spec yield byte-identical
//! [`MetricsSnapshot`] JSON. The root `tests/obs.rs` suite pins both
//! properties.
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
pub mod trace;

pub use chrome::{chrome_trace, host_chrome_trace, ChromeEvent};
pub use diff::{first_divergence, DiffReport, DiffSide, Divergence, FieldDelta};
pub use digest::{Digest128, DigestChain};
pub use metrics::{CounterSnap, GaugeSnap, HistSnap, MetricsSnapshot};
pub use pivot::{render_pivot, PivotRow};
pub use prof::{FrozenClock, HostClock, HostProfiler, HostSpan, Phase, PhaseTotals, RealClock};
pub use trace::{RunObserver, TraceEvent, TraceRecord};
