//! Chrome trace-event JSON export.
//!
//! A run's trace in the [trace-event format] consumed by
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev): a JSON
//! array of `"X"` (complete) spans and `"i"` (instant) events. Virtual
//! seconds map to the format's microsecond timestamps, so one simulated
//! second reads as one millisecond-scale tick in the viewer and a whole
//! CIFAR-10 run fits on screen.
//!
//! Track layout: the virtual-time lane is process 1 — thread 0
//! carries round spans, profiling passes, folds and evals; each
//! client gets its own thread (`tid = client + 1`) carrying its
//! per-round training span from dispatch to its completion,
//! cancellation or timeout, so stragglers gating `max_i L_i` (Eq. 1)
//! are visible as the long bars that pin the round span open. That
//! lane is laid out from each round's plan (`tifl_fl::timeline::chrome_round`)
//! with [`ChromeEvent::span`] and [`ChromeEvent::instant`].
//! [`host_chrome_trace`] renders host-time phase spans as a second
//! process (`pid = 2`) so `tifl trace --host` shows both clocks side by
//! side — same viewer, two lanes, two epochs.
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use serde::Serialize;

use crate::prof::HostSpan;

/// One event in Chrome trace-event JSON form.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ChromeEvent {
    /// Display name.
    pub name: String,
    /// Comma-free category tag (used for filtering in the viewer).
    pub cat: String,
    /// Phase: `"X"` complete span or `"i"` instant.
    pub ph: String,
    /// Start timestamp in microseconds (virtual seconds × 1e6).
    pub ts: f64,
    /// Span duration in microseconds (0 for instants).
    pub dur: f64,
    /// Process id: 1 for the virtual-time lane, 2 for the host lane.
    pub pid: u64,
    /// Thread id: 0 for round-level events, `client + 1` for clients.
    pub tid: u64,
}

const US: f64 = 1e6;

impl ChromeEvent {
    /// A virtual-lane span from `start` to `end` virtual seconds on
    /// thread `tid`.
    #[must_use]
    pub fn span(name: String, cat: &str, start: f64, end: f64, tid: u64) -> Self {
        Self {
            name,
            cat: cat.to_string(),
            ph: "X".to_string(),
            ts: start * US,
            dur: (end - start) * US,
            pid: VIRTUAL_PID,
            tid,
        }
    }

    /// A virtual-lane instant at `at` virtual seconds on thread `tid`.
    #[must_use]
    pub fn instant(name: String, cat: &str, at: f64, tid: u64) -> Self {
        Self {
            name,
            cat: cat.to_string(),
            ph: "i".to_string(),
            ts: at * US,
            dur: 0.0,
            pid: VIRTUAL_PID,
            tid,
        }
    }
}

/// Process id of the virtual-time lane.
pub const VIRTUAL_PID: u64 = 1;
/// Process id of the host-time lane.
pub const HOST_PID: u64 = 2;

/// Render host-time phase spans as a second trace process.
///
/// Host spans carry their own epoch (the profiler clock's), so they
/// get their own `pid` ([`HOST_PID`]) rather than sharing the virtual
/// lane's timeline; the viewer shows the two processes stacked. Each
/// span becomes one `"X"` event on thread 0, named `<phase> r<round>`
/// and categorized `host:<phase>` for filtering. Concatenate with
/// the virtual lane for the merged `tifl trace --host` file.
#[must_use]
pub fn host_chrome_trace(spans: &[HostSpan]) -> Vec<ChromeEvent> {
    spans
        .iter()
        .map(|s| ChromeEvent {
            name: format!("{} r{}", s.phase.name(), s.round),
            cat: format!("host:{}", s.phase.name()),
            ph: "X".to_string(),
            ts: s.start * US,
            dur: s.dur() * US,
            pid: HOST_PID,
            tid: 0,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prof::Phase;

    #[test]
    fn host_lane_gets_its_own_pid() {
        let spans = vec![
            HostSpan {
                phase: Phase::Plan,
                round: 0,
                start: 0.0,
                end: 1.0,
            },
            HostSpan {
                phase: Phase::Train,
                round: 0,
                start: 2.0,
                end: 5.0,
            },
        ];
        let host = host_chrome_trace(&spans);
        assert_eq!(host.len(), 2);
        assert!(host.iter().all(|e| e.pid == HOST_PID && e.ph == "X"));
        assert_eq!(host[0].name, "plan r0");
        assert_eq!(host[1].cat, "host:train");
        assert!((host[1].dur - 3.0 * 1e6).abs() < 1e-6);
        // Virtual-lane events keep pid 1, so a merged file has two
        // distinct processes.
        let virt = ChromeEvent::instant("eval r0".to_string(), "eval", 1.0, 0);
        assert_eq!(virt.pid, VIRTUAL_PID);
    }
}
