//! Trace events and [`RunObserver`], the preallocated ring that
//! records them.
//!
//! A trace is a sequence of [`TraceRecord`]s: a monotone sequence
//! number, a **virtual-time** stamp, and a scalar-only [`TraceEvent`]
//! payload. Virtual time is the only clock core code may touch
//! (`clippy.toml` disallows `Instant::now`); wall-clock measurements
//! stay outside the traced stream, in the sweep scheduler's sidecar
//! summary.
//!
//! The recording path is engineered for the workspace's allocation
//! gate: [`TraceEvent`] is `Copy` with no heap payloads, and
//! [`RunObserver`] writes into a buffer preallocated at construction
//! — steady-state recording performs zero allocations (pinned by the
//! root `tests/alloc_regression.rs`).

use serde::{Deserialize, Serialize};

/// One structured trace event.
///
/// Payloads are scalars only (`Copy`, no strings) so that recording an
/// event never allocates. All client/round identifiers are widened
/// from `usize` at the emission site; wire sizes are bytes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A §4.2 profiling pass completed: `clients` were probed,
    /// `dropouts` never responded, and the pass consumed
    /// `profiling_sec` of virtual time.
    ProfilePass {
        /// Clients probed by the pass.
        clients: u32,
        /// Clients that dropped out (no response within the cutoff).
        dropouts: u32,
        /// Virtual seconds the pass consumed.
        profiling_sec: f64,
    },
    /// A training round began with `selected` clients chosen.
    RoundStart {
        /// Round index (0-based).
        round: u64,
        /// Number of clients selected this round.
        selected: u32,
    },
    /// The aggregator dispatched the global model to a client.
    Dispatch {
        /// Round index.
        round: u64,
        /// Client identifier.
        client: u32,
    },
    /// A client's update arrived within the round deadline.
    Complete {
        /// Round index.
        round: u64,
        /// Client identifier.
        client: u32,
    },
    /// A client hit the round timeout `T_max` without responding.
    TimedOut {
        /// Round index.
        round: u64,
        /// Client identifier.
        client: u32,
    },
    /// A straggler was cancelled when the first-`k` quorum closed the
    /// round before it finished.
    Cancelled {
        /// Round index.
        round: u64,
        /// Client identifier.
        client: u32,
    },
    /// A contributor's update was folded into the global aggregate,
    /// shipping `wire_bytes` over the uplink.
    Fold {
        /// Round index.
        round: u64,
        /// Client identifier.
        client: u32,
        /// Encoded (post-codec) upload size in bytes.
        wire_bytes: u64,
    },
    /// The round's held-out evaluation ran.
    Eval {
        /// Round index.
        round: u64,
    },
    /// The round closed after `latency` virtual seconds (Eq. 1).
    RoundEnd {
        /// Round index.
        round: u64,
        /// Round latency `max_i L_i` in virtual seconds.
        latency: f64,
        /// Clients whose updates were aggregated.
        contributors: u32,
        /// Total uplink bytes this round (wire-encoded).
        bytes_up: u64,
        /// Total downlink bytes this round.
        bytes_down: u64,
    },
}

/// A recorded event: sequence number, virtual-time stamp, payload.
///
/// `seq` is the global emission index (monotone from 0 per run), so a
/// rotated ring still tells you how far into the run a record falls.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Global emission index, monotone from 0.
    pub seq: u64,
    /// Virtual timestamp in seconds.
    pub vt: f64,
    /// The event payload.
    pub event: TraceEvent,
}

/// The trace sink a runner attaches to a session: a fixed-capacity
/// ring, preallocated at construction.
///
/// Stores the **most recent** `capacity` records; older records are
/// overwritten and counted in [`RunObserver::dropped`]. Record numbers
/// keep counting across the overwrites, so a rotated ring still says
/// how far into the run each record falls.
#[derive(Debug, Clone)]
pub struct RunObserver {
    buf: Vec<TraceRecord>,
    cap: usize,
    /// Index of the oldest record once the ring has wrapped.
    head: usize,
    next_seq: u64,
    dropped: u64,
}

impl RunObserver {
    /// Create an observer holding at most `capacity` records. The
    /// buffer is allocated here, once; recording never reallocates.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            buf: Vec::with_capacity(capacity),
            cap: capacity,
            head: 0,
            next_seq: 0,
            dropped: 0,
        }
    }

    /// Number of records currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no records are held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Records overwritten (or discarded, for a zero-capacity ring).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consume the observer, returning the held records in emission
    /// (`seq`) order.
    #[must_use]
    pub fn into_records(mut self) -> Vec<TraceRecord> {
        self.buf.rotate_left(self.head);
        self.buf
    }

    /// Record one event at virtual time `vt`.
    pub fn record(&mut self, vt: f64, event: TraceEvent) {
        let rec = TraceRecord {
            seq: self.next_seq,
            vt,
            event,
        };
        self.next_seq += 1;
        if self.buf.len() < self.cap {
            self.buf.push(rec);
        } else {
            self.dropped += 1;
            if self.cap > 0 {
                self.buf[self.head] = rec;
                self.head += 1;
                if self.head == self.cap {
                    self.head = 0;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(round: u64) -> TraceEvent {
        TraceEvent::Eval { round }
    }

    #[test]
    fn ring_keeps_the_most_recent_records_in_seq_order() {
        let mut ring = RunObserver::new(3);
        for i in 0..5 {
            ring.record(i as f64, ev(i));
        }
        assert_eq!(ring.dropped(), 2);
        let recs = ring.into_records();
        assert_eq!(
            recs.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert_eq!(recs.last().unwrap().event, ev(4));
    }

    #[test]
    fn zero_capacity_ring_counts_but_stores_nothing() {
        let mut ring = RunObserver::new(0);
        for i in 0..4 {
            ring.record(i as f64, ev(i));
        }
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 4);
        assert!(ring.into_records().is_empty());
    }

    #[test]
    fn recording_within_capacity_never_reallocates() {
        let mut ring = RunObserver::new(8);
        let ptr = ring.buf.as_ptr();
        for i in 0..100 {
            ring.record(i as f64, ev(i));
        }
        assert_eq!(ring.buf.as_ptr(), ptr);
        assert_eq!(ring.len(), 8);
    }

    #[test]
    fn records_round_trip_through_json() {
        let rec = TraceRecord {
            seq: 7,
            vt: 12.5,
            event: TraceEvent::Fold {
                round: 3,
                client: 9,
                wire_bytes: 4096,
            },
        };
        let json = serde_json::to_string(&rec).unwrap();
        let back: TraceRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rec);
    }
}
