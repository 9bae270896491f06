//! [`RunObserver`]: the sink a runner attaches to a training session.
//!
//! Couples a [`RingRecorder`] with a pre-registered
//! [`MetricsRegistry`], folding every trace event into both. All
//! metric handles are registered at construction, so the per-event
//! path is allocation-free (ring write + counter bumps).

use crate::metrics::{CounterId, GaugeId, HistId, MetricsRegistry, MetricsSnapshot};
use crate::trace::{RingRecorder, TraceEvent, TraceRecord};

/// Fixed bucket bounds (virtual seconds) for the round-latency
/// histogram. Chosen to straddle the paper's CIFAR-10 round latencies
/// across tiers (§5.2: seconds for the fast tier, thousands for the
/// slow one).
pub const LATENCY_BUCKETS_SEC: [f64; 10] = [
    1.0, 5.0, 20.0, 60.0, 180.0, 600.0, 1800.0, 3600.0, 10800.0, 43200.0,
];

struct Ids {
    profile_passes: CounterId,
    rounds: CounterId,
    dispatches: CounterId,
    completes: CounterId,
    timeouts: CounterId,
    cancels: CounterId,
    folds: CounterId,
    evals: CounterId,
    bytes_up: CounterId,
    bytes_down: CounterId,
    virtual_time_sec: GaugeId,
    round_latency_sec: HistId,
}

/// Ring recorder + metrics registry driven by one event stream.
///
/// Create with the desired trace capacity (`0` keeps metrics but
/// stores no records — the sweep scheduler's mode), attach to a
/// session, then [`RunObserver::finish`] to harvest the trace and the
/// snapshot.
pub struct RunObserver {
    ring: RingRecorder,
    metrics: MetricsRegistry,
    ids: Ids,
}

impl RunObserver {
    /// Build an observer whose ring holds up to `ring_capacity`
    /// records. All allocation happens here.
    #[must_use]
    pub fn new(ring_capacity: usize) -> Self {
        let mut metrics = MetricsRegistry::new();
        let ids = Ids {
            profile_passes: metrics.counter("profile_passes"),
            rounds: metrics.counter("rounds"),
            dispatches: metrics.counter("dispatches"),
            completes: metrics.counter("completes"),
            timeouts: metrics.counter("timeouts"),
            cancels: metrics.counter("cancels"),
            folds: metrics.counter("folds"),
            evals: metrics.counter("evals"),
            bytes_up: metrics.counter("bytes_up"),
            bytes_down: metrics.counter("bytes_down"),
            virtual_time_sec: metrics.gauge("virtual_time_sec"),
            round_latency_sec: metrics.histogram("round_latency_sec", &LATENCY_BUCKETS_SEC),
        };
        Self {
            ring: RingRecorder::new(ring_capacity),
            metrics,
            ids,
        }
    }

    /// The ring recorder (e.g. to inspect drop counts).
    #[must_use]
    pub fn ring(&self) -> &RingRecorder {
        &self.ring
    }

    /// Snapshot the metrics without consuming the observer.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Consume the observer: the recorded trace (emission order) and
    /// the final metrics snapshot.
    #[must_use]
    pub fn finish(self) -> (Vec<TraceRecord>, MetricsSnapshot) {
        let snapshot = self.metrics.snapshot();
        (self.ring.into_records(), snapshot)
    }

    /// Record one event at virtual time `vt`: into the ring, and into
    /// the metrics it moves.
    pub fn record(&mut self, vt: f64, event: TraceEvent) {
        self.ring.record(vt, event);
        let m = &mut self.metrics;
        let ids = &self.ids;
        match event {
            TraceEvent::ProfilePass { .. } => m.inc(ids.profile_passes, 1),
            TraceEvent::RoundStart { .. } => {}
            TraceEvent::Dispatch { .. } => m.inc(ids.dispatches, 1),
            TraceEvent::Complete { .. } => m.inc(ids.completes, 1),
            TraceEvent::TimedOut { .. } => m.inc(ids.timeouts, 1),
            TraceEvent::Cancelled { .. } => m.inc(ids.cancels, 1),
            TraceEvent::Fold { .. } => m.inc(ids.folds, 1),
            TraceEvent::Eval { .. } => m.inc(ids.evals, 1),
            TraceEvent::RoundEnd {
                latency,
                bytes_up,
                bytes_down,
                ..
            } => {
                m.inc(ids.rounds, 1);
                m.inc(ids.bytes_up, bytes_up);
                m.inc(ids.bytes_down, bytes_down);
                m.set(ids.virtual_time_sec, vt);
                m.observe(ids.round_latency_sec, latency);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observer_folds_events_into_trace_and_metrics() {
        let mut obs = RunObserver::new(64);
        obs.record(
            0.0,
            TraceEvent::RoundStart {
                round: 0,
                selected: 2,
            },
        );
        for client in 0..2u32 {
            obs.record(0.0, TraceEvent::Dispatch { round: 0, client });
        }
        obs.record(
            3.0,
            TraceEvent::Complete {
                round: 0,
                client: 0,
            },
        );
        obs.record(
            5.0,
            TraceEvent::TimedOut {
                round: 0,
                client: 1,
            },
        );
        obs.record(
            5.0,
            TraceEvent::Fold {
                round: 0,
                client: 0,
                wire_bytes: 100,
            },
        );
        obs.record(
            5.0,
            TraceEvent::RoundEnd {
                round: 0,
                latency: 5.0,
                contributors: 1,
                bytes_up: 100,
                bytes_down: 200,
            },
        );
        let (records, snap) = obs.finish();
        assert_eq!(records.len(), 7);
        assert_eq!(snap.counter("rounds"), Some(1));
        assert_eq!(snap.counter("dispatches"), Some(2));
        assert_eq!(snap.counter("completes"), Some(1));
        assert_eq!(snap.counter("timeouts"), Some(1));
        assert_eq!(snap.counter("bytes_up"), Some(100));
        assert_eq!(snap.counter("bytes_down"), Some(200));
        assert_eq!(snap.gauge("virtual_time_sec"), Some(5.0));
        assert_eq!(snap.histogram("round_latency_sec").unwrap().total, 1);
    }

    #[test]
    fn zero_capacity_observer_still_counts() {
        let mut obs = RunObserver::new(0);
        obs.record(
            1.0,
            TraceEvent::RoundEnd {
                round: 0,
                latency: 1.0,
                contributors: 1,
                bytes_up: 10,
                bytes_down: 20,
            },
        );
        let (records, snap) = obs.finish();
        assert!(records.is_empty());
        assert_eq!(snap.counter("rounds"), Some(1));
    }
}
