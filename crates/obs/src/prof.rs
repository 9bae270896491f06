//! Host-time phase profiler: where *real* CPU seconds go.
//!
//! Everything else in this crate is stamped with virtual time and is
//! bit-for-bit deterministic. This module is the one sanctioned home
//! for wall-clock measurement, and it keeps the determinism contract
//! by construction rather than by discipline:
//!
//! - every host-clock read in the workspace goes through the
//!   [`HostClock`] trait — [`RealClock`] (a monotonic `Instant`) in
//!   production, [`FrozenClock`] (a deterministic tick counter) in
//!   tests, so span *structure* is pinnable even though durations
//!   aren't;
//! - host time flows one way: out of the run, into operator-facing
//!   sidecars (sweep summaries, progress logs, the Chrome host lane).
//!   It never feeds simulated state, `RunKey` hashing, or
//!   deterministic artifact bytes;
//! - the recording path mirrors the trace ring: [`HostSpan`] is
//!   `Copy`, the span ring is preallocated at construction, and the
//!   per-phase totals live in fixed arrays — steady-state profiling
//!   performs zero allocations (pinned by `tests/alloc_regression.rs`).
//!
//! The phase vocabulary is the canonical per-round pipeline: profile,
//! plan, client train, encode, fold/decode, eval, store write.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use serde::{Deserialize, Serialize};

/// The canonical host-time phases of a run.
///
/// `Copy`, fixed-count, and index-stable: the profiler's totals live
/// in `[f64; Phase::COUNT]` arrays keyed by [`Phase::index`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Phase {
    /// The §4.2 profiling pass (latency probe + tiering).
    Profile,
    /// Client selection + response sampling + latency resolution.
    Plan,
    /// Local client training (one batch span per round, coordinator
    /// side — parallel workers are not individually attributed).
    Train,
    /// Client-side codec encode of a round's lossy uploads: the seconds
    /// every contributor's encode took on the worker that trained it,
    /// summed into one span per round (they overlap `Train`).
    Encode,
    /// Decode-and-fold of contributor updates into the aggregate.
    Fold,
    /// Held-out evaluation of the global model: on the global test set,
    /// and on the tiers' holdout sets when adaptive selection monitors
    /// them.
    Eval,
    /// Persisting a run artifact into the sweep store.
    StoreWrite,
}

impl Phase {
    /// Number of phases (the size of every per-phase array).
    pub const COUNT: usize = 7;

    /// All phases, in pipeline order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Profile,
        Phase::Plan,
        Phase::Train,
        Phase::Encode,
        Phase::Fold,
        Phase::Eval,
        Phase::StoreWrite,
    ];

    /// Stable array index of this phase.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Lowercase display name (used in trace lanes and JSON keys).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::Profile => "profile",
            Phase::Plan => "plan",
            Phase::Train => "train",
            Phase::Encode => "encode",
            Phase::Fold => "fold",
            Phase::Eval => "eval",
            Phase::StoreWrite => "store_write",
        }
    }
}

/// A monotonic host clock, in seconds from an arbitrary epoch.
///
/// This trait is the only lawful wall-clock surface in the workspace:
/// `clippy.toml` disallows raw `Instant::now()` everywhere, and the
/// single `#[expect]` lives on [`RealClock::new`].
/// Code that needs host time takes an injected `Arc<dyn HostClock>`,
/// which tests replace with a [`FrozenClock`] to pin structure.
pub trait HostClock: Send + Sync {
    /// Seconds elapsed since the clock's epoch. Must be monotone
    /// non-decreasing across calls.
    fn now_sec(&self) -> f64;
}

/// The production clock: monotonic seconds since construction.
#[derive(Debug)]
pub struct RealClock {
    origin: Instant,
}

impl RealClock {
    /// A clock whose epoch is "now".
    #[must_use]
    #[expect(
        clippy::disallowed_methods,
        reason = "the one sanctioned wall-clock read; every other host-time consumer goes through HostClock"
    )]
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
        }
    }

    /// A shareable production clock.
    #[must_use]
    pub fn shared() -> Arc<dyn HostClock> {
        Arc::new(Self::new())
    }
}

impl Default for RealClock {
    fn default() -> Self {
        Self::new()
    }
}

impl HostClock for RealClock {
    fn now_sec(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }
}

/// A deterministic test clock: each read returns the next tick.
///
/// Reads return `0, step, 2·step, …` in call order, so a profiled run
/// produces a fully reproducible span timeline — what the
/// span-structure pins in `tests/obs.rs` rely on. The counter is
/// atomic so the clock can be shared across sweep workers; under
/// concurrency the *set* of ticks is still exact even though their
/// assignment to readers is scheduling-dependent.
#[derive(Debug, Default)]
pub struct FrozenClock {
    ticks: AtomicU64,
    step: f64,
}

impl FrozenClock {
    /// A frozen clock advancing one second per read.
    #[must_use]
    pub fn new() -> Self {
        Self::with_step(1.0)
    }

    /// A frozen clock advancing `step` seconds per read.
    #[must_use]
    pub fn with_step(step: f64) -> Self {
        Self {
            ticks: AtomicU64::new(0),
            step,
        }
    }

    /// A shareable frozen clock (one second per read).
    #[must_use]
    pub fn shared() -> Arc<dyn HostClock> {
        Arc::new(Self::new())
    }
}

impl HostClock for FrozenClock {
    fn now_sec(&self) -> f64 {
        let tick = self.ticks.fetch_add(1, Ordering::SeqCst);
        tick as f64 * self.step
    }
}

/// One closed host-time span: a phase, the round it served, and its
/// clock-relative start/end stamps. `Copy`, scalar-only — recording
/// never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HostSpan {
    /// Which pipeline phase this span measured.
    pub phase: Phase,
    /// Round the phase served (0 for pre-round work like profiling).
    pub round: u64,
    /// Start stamp, in the profiler clock's seconds.
    pub start: f64,
    /// End stamp, in the profiler clock's seconds.
    pub end: f64,
}

impl HostSpan {
    /// Span duration in seconds.
    #[must_use]
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// Per-phase host-seconds, in serialization-friendly named-field form.
///
/// This is the shape that lands in `sweep_summary.json` and the
/// progress log; [`PhaseTotals::merge`] aggregates per-run totals into
/// a sweep-level breakdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseTotals {
    /// Host seconds in the profiling pass.
    #[serde(default)]
    pub profile_sec: f64,
    /// Host seconds planning rounds.
    #[serde(default)]
    pub plan_sec: f64,
    /// Host seconds training clients.
    #[serde(default)]
    pub train_sec: f64,
    /// Host seconds encoding lossy client uploads.
    #[serde(default)]
    pub encode_sec: f64,
    /// Host seconds decoding and folding updates.
    #[serde(default)]
    pub fold_sec: f64,
    /// Host seconds evaluating the global model.
    #[serde(default)]
    pub eval_sec: f64,
    /// Host seconds writing artifacts to the run store.
    #[serde(default)]
    pub store_write_sec: f64,
}

impl PhaseTotals {
    /// Seconds attributed to `phase`.
    #[must_use]
    pub fn get(&self, phase: Phase) -> f64 {
        match phase {
            Phase::Profile => self.profile_sec,
            Phase::Plan => self.plan_sec,
            Phase::Train => self.train_sec,
            Phase::Encode => self.encode_sec,
            Phase::Fold => self.fold_sec,
            Phase::Eval => self.eval_sec,
            Phase::StoreWrite => self.store_write_sec,
        }
    }

    /// Add `sec` to `phase`'s bucket.
    pub fn add(&mut self, phase: Phase, sec: f64) {
        let slot = match phase {
            Phase::Profile => &mut self.profile_sec,
            Phase::Plan => &mut self.plan_sec,
            Phase::Train => &mut self.train_sec,
            Phase::Encode => &mut self.encode_sec,
            Phase::Fold => &mut self.fold_sec,
            Phase::Eval => &mut self.eval_sec,
            Phase::StoreWrite => &mut self.store_write_sec,
        };
        *slot += sec;
    }

    /// Fold another breakdown into this one.
    pub fn merge(&mut self, other: &PhaseTotals) {
        for phase in Phase::ALL {
            self.add(phase, other.get(phase));
        }
    }

    /// Sum across all phases.
    #[must_use]
    pub fn total(&self) -> f64 {
        Phase::ALL.iter().map(|&p| self.get(p)).sum()
    }
}

/// Scoped host-time phase profiler.
///
/// Usage is begin/end rather than RAII guards so the owner can hold
/// `&mut self` across a phase without borrow gymnastics:
///
/// ```
/// use tifl_obs::prof::{FrozenClock, HostProfiler, Phase};
///
/// let mut prof = HostProfiler::with_clock(64, FrozenClock::shared());
/// let t0 = prof.begin();
/// // ... the phase body ...
/// prof.end(Phase::Plan, 0, t0);
/// assert_eq!(prof.spans().len(), 1);
/// assert!(prof.totals().plan_sec > 0.0);
/// ```
///
/// Spans land in a fixed-capacity ring (oldest overwritten, counted
/// in [`HostProfiler::dropped`]); totals accumulate in a fixed
/// per-phase array regardless of ring rotation.
#[derive(Clone)]
pub struct HostProfiler {
    clock: Arc<dyn HostClock>,
    buf: Vec<HostSpan>,
    cap: usize,
    head: usize,
    dropped: u64,
    totals: [f64; Phase::COUNT],
}

impl std::fmt::Debug for HostProfiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HostProfiler")
            .field("cap", &self.cap)
            .field("spans", &self.buf.len())
            .field("dropped", &self.dropped)
            .field("totals", &self.totals)
            .finish()
    }
}

impl HostProfiler {
    /// A profiler holding at most `capacity` spans, stamped by `clock`
    /// ([`RealClock`] in production; tests inject [`FrozenClock`]). The
    /// buffer is allocated here, once.
    #[must_use]
    pub fn with_clock(capacity: usize, clock: Arc<dyn HostClock>) -> Self {
        Self {
            clock,
            buf: Vec::with_capacity(capacity),
            cap: capacity,
            head: 0,
            dropped: 0,
            totals: [0.0; Phase::COUNT],
        }
    }

    /// The clock this profiler stamps spans with.
    #[must_use]
    pub fn clock(&self) -> Arc<dyn HostClock> {
        Arc::clone(&self.clock)
    }

    /// Open a phase: returns the start stamp to hand back to
    /// [`HostProfiler::end`].
    #[must_use]
    pub fn begin(&self) -> f64 {
        self.clock.now_sec()
    }

    /// Close a phase opened at `start`, attributing the elapsed host
    /// seconds to `phase` for `round`.
    pub fn end(&mut self, phase: Phase, round: u64, start: f64) {
        let end = self.clock.now_sec();
        self.push(HostSpan {
            phase,
            round,
            start,
            end,
        });
    }

    /// Attribute `dur_sec` host seconds, measured elsewhere on this
    /// profiler's clock (a deferred evaluation timed on its worker), to
    /// `phase` for `round`. The span closes now and lasts `dur_sec`, so
    /// spans keep closing in clock order.
    pub fn record(&mut self, phase: Phase, round: u64, dur_sec: f64) {
        let end = self.clock.now_sec();
        self.push(HostSpan {
            phase,
            round,
            start: end - dur_sec,
            end,
        });
    }

    fn push(&mut self, span: HostSpan) {
        self.totals[span.phase.index()] += span.dur();
        if self.buf.len() < self.cap {
            self.buf.push(span);
        } else {
            self.dropped += 1;
            if self.cap > 0 {
                self.buf[self.head] = span;
                self.head += 1;
                if self.head == self.cap {
                    self.head = 0;
                }
            }
        }
    }

    /// Per-phase totals in serializable named-field form.
    #[must_use]
    pub fn totals(&self) -> PhaseTotals {
        let mut out = PhaseTotals::default();
        for phase in Phase::ALL {
            out.add(phase, self.totals[phase.index()]);
        }
        out
    }

    /// Spans overwritten by ring rotation.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The held spans in close order. Allocates — export path only.
    #[must_use]
    pub fn spans(&self) -> Vec<HostSpan> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frozen_clock_ticks_deterministically() {
        let clock = FrozenClock::with_step(0.5);
        assert_eq!(clock.now_sec(), 0.0);
        assert_eq!(clock.now_sec(), 0.5);
        assert_eq!(clock.now_sec(), 1.0);
        assert_eq!(clock.now_sec(), 1.5);
    }

    #[test]
    fn real_clock_is_monotone() {
        let clock = RealClock::new();
        let a = clock.now_sec();
        let b = clock.now_sec();
        assert!(b >= a);
        assert!(a >= 0.0);
    }

    #[test]
    fn profiler_attributes_phases_and_rings_spans() {
        let mut prof = HostProfiler::with_clock(2, FrozenClock::shared());
        for round in 0..3u64 {
            let t0 = prof.begin();
            prof.end(Phase::Train, round, t0);
        }
        // Ticks 0..6: spans (0,1), (2,3), (4,5); ring holds the last 2.
        let spans = prof.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(prof.dropped(), 1);
        assert_eq!(spans.len() as u64 + prof.dropped(), 3, "every span closed");
        assert_eq!(spans[0].round, 1);
        assert_eq!(spans[1].round, 2);
        assert_eq!(spans[1].start, 4.0);
        assert_eq!(spans[1].end, 5.0);
        // Totals keep the span the ring dropped.
        assert_eq!(prof.totals().train_sec, 3.0);
        assert_eq!(prof.totals().total(), 3.0);
    }

    #[test]
    fn recorded_spans_close_now_and_carry_the_measured_duration() {
        let mut prof = HostProfiler::with_clock(4, FrozenClock::shared());
        let t0 = prof.begin(); // tick 0
        prof.end(Phase::Plan, 0, t0); // tick 1
        prof.record(Phase::Eval, 0, 0.25); // tick 2
        let spans = prof.spans();
        assert_eq!((spans[1].start, spans[1].end), (1.75, 2.0));
        assert!(spans[1].end >= spans[0].end, "close order is clock order");
        assert_eq!(prof.totals().eval_sec, 0.25);
        assert_eq!(spans.iter().filter(|s| s.phase == Phase::Eval).count(), 1);
    }

    #[test]
    fn profiler_steady_state_never_reallocates() {
        let mut prof = HostProfiler::with_clock(8, FrozenClock::shared());
        let ptr = prof.buf.as_ptr();
        for i in 0..100u64 {
            let t0 = prof.begin();
            prof.end(Phase::Fold, i, t0);
        }
        assert_eq!(prof.buf.as_ptr(), ptr);
        assert_eq!(prof.spans().len(), 8);
    }

    #[test]
    fn phase_totals_merge_and_round_trip() {
        let mut a = PhaseTotals::default();
        a.add(Phase::Plan, 1.0);
        a.add(Phase::Eval, 2.0);
        let mut b = PhaseTotals::default();
        b.add(Phase::Plan, 0.5);
        b.add(Phase::StoreWrite, 4.0);
        a.merge(&b);
        assert_eq!(a.plan_sec, 1.5);
        assert_eq!(a.eval_sec, 2.0);
        assert_eq!(a.store_write_sec, 4.0);
        assert_eq!(a.total(), 7.5);
        let json = serde_json::to_string(&a).unwrap();
        let back: PhaseTotals = serde_json::from_str(&json).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn phase_names_and_indices_are_stable() {
        for (i, phase) in Phase::ALL.iter().enumerate() {
            assert_eq!(phase.index(), i);
        }
        assert_eq!(Phase::StoreWrite.name(), "store_write");
        assert_eq!(Phase::ALL.len(), Phase::COUNT);
    }
}
