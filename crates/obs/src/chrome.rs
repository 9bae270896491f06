//! Chrome trace-event JSON export.
//!
//! Converts a recorded trace into the [trace-event format] consumed
//! by `chrome://tracing` and [Perfetto](https://ui.perfetto.dev): a
//! JSON array of `"X"` (complete) spans and `"i"` (instant) events.
//! Virtual seconds map to the format's microsecond timestamps, so one
//! simulated second reads as one millisecond-scale tick in the viewer
//! and a whole CIFAR-10 run fits on screen.
//!
//! Track layout: the virtual-time lane is process 1 — thread 0
//! carries round spans, profiling passes, folds and evals; each
//! client gets its own thread (`tid = client + 1`) carrying its
//! per-round training span from `Dispatch` to
//! `Complete`/`Cancelled`/`TimedOut`, so stragglers gating `max_i
//! L_i` (Eq. 1) are visible as the long bars that pin the round span
//! open. [`host_chrome_trace`] renders host-time phase spans as a
//! second process (`pid = 2`) so `tifl trace --host` shows both
//! clocks side by side — same viewer, two lanes, two epochs.
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use serde::Serialize;

use crate::prof::HostSpan;
use crate::trace::{TraceEvent, TraceRecord};

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

fn span(name: String, cat: &str, start: f64, end: f64, tid: u64) -> ChromeEvent {
    ChromeEvent {
        name,
        cat: cat.to_string(),
        ph: "X".to_string(),
        ts: start * US,
        dur: (end - start) * US,
        pid: 1,
        tid,
    }
}

fn instant(name: String, cat: &str, at: f64, tid: u64) -> ChromeEvent {
    ChromeEvent {
        name,
        cat: cat.to_string(),
        ph: "i".to_string(),
        ts: at * US,
        dur: 0.0,
        pid: 1,
        tid,
    }
}

/// Convert a recorded trace into Chrome trace-event JSON events.
///
/// Serialize the result with `serde_json` and load the file directly
/// in `chrome://tracing` or Perfetto (both accept a bare event
/// array). Dispatches with no matching terminal event (trace cut off
/// mid-round by ring rotation) are dropped; unmatched terminal
/// events render as instants.
#[must_use]
pub fn chrome_trace(records: &[TraceRecord]) -> Vec<ChromeEvent> {
    let mut out = Vec::with_capacity(records.len());
    // Open spans awaiting their terminal event, linear-scanned: the
    // working set is one round's dispatches plus open rounds.
    let mut open_clients: Vec<(u64, u32, f64)> = Vec::new(); // (round, client, start)
    let mut open_rounds: Vec<(u64, f64)> = Vec::new(); // (round, start)

    let close_client = |open: &mut Vec<(u64, u32, f64)>,
                        out: &mut Vec<ChromeEvent>,
                        round: u64,
                        client: u32,
                        end: f64,
                        cat: &str| {
        let name = format!("client {client} r{round}");
        match open.iter().position(|&(r, c, _)| r == round && c == client) {
            Some(i) => {
                let (_, _, start) = open.swap_remove(i);
                out.push(span(name, cat, start, end, u64::from(client) + 1));
            }
            None => out.push(instant(name, cat, end, u64::from(client) + 1)),
        }
    };

    for rec in records {
        match rec.event {
            TraceEvent::ProfilePass {
                clients,
                dropouts,
                profiling_sec,
            } => out.push(span(
                format!("profile {clients} clients ({dropouts} dropouts)"),
                "profile",
                rec.vt,
                rec.vt + profiling_sec,
                0,
            )),
            TraceEvent::RoundStart { round, .. } => open_rounds.push((round, rec.vt)),
            TraceEvent::Dispatch { round, client } => {
                open_clients.push((round, client, rec.vt));
            }
            TraceEvent::Complete { round, client } => {
                close_client(&mut open_clients, &mut out, round, client, rec.vt, "train");
            }
            TraceEvent::TimedOut { round, client } => {
                close_client(
                    &mut open_clients,
                    &mut out,
                    round,
                    client,
                    rec.vt,
                    "timeout",
                );
            }
            TraceEvent::Cancelled { round, client } => {
                close_client(
                    &mut open_clients,
                    &mut out,
                    round,
                    client,
                    rec.vt,
                    "cancelled",
                );
            }
            TraceEvent::Fold {
                round,
                client,
                wire_bytes,
            } => out.push(instant(
                format!("fold c{client} r{round} ({wire_bytes} B)"),
                "fold",
                rec.vt,
                0,
            )),
            TraceEvent::Eval { round } => {
                out.push(instant(format!("eval r{round}"), "eval", rec.vt, 0));
            }
            TraceEvent::RoundEnd { round, .. } => {
                match open_rounds.iter().position(|&(r, _)| r == round) {
                    Some(i) => {
                        let (_, start) = open_rounds.swap_remove(i);
                        out.push(span(format!("round {round}"), "round", start, rec.vt, 0));
                    }
                    None => out.push(instant(format!("round {round}"), "round", rec.vt, 0)),
                }
                // A closed round closes its clients: anything still
                // open from this round was cut off by ring rotation.
                open_clients.retain(|&(r, _, _)| r != round);
            }
        }
    }
    out
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
/// [`chrome_trace`]'s output for the merged `tifl trace --host` file.
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

    fn rec(seq: u64, vt: f64, event: TraceEvent) -> TraceRecord {
        TraceRecord { seq, vt, event }
    }

    #[test]
    fn spans_pair_dispatch_with_terminal_events() {
        let records = vec![
            rec(
                0,
                0.0,
                TraceEvent::RoundStart {
                    round: 0,
                    selected: 2,
                },
            ),
            rec(
                1,
                0.0,
                TraceEvent::Dispatch {
                    round: 0,
                    client: 3,
                },
            ),
            rec(
                2,
                0.0,
                TraceEvent::Dispatch {
                    round: 0,
                    client: 5,
                },
            ),
            rec(
                3,
                2.0,
                TraceEvent::Complete {
                    round: 0,
                    client: 3,
                },
            ),
            rec(
                4,
                4.0,
                TraceEvent::Cancelled {
                    round: 0,
                    client: 5,
                },
            ),
            rec(
                5,
                4.0,
                TraceEvent::RoundEnd {
                    round: 0,
                    latency: 4.0,
                    contributors: 1,
                    bytes_up: 10,
                    bytes_down: 20,
                },
            ),
        ];
        let events = chrome_trace(&records);
        let trains: Vec<_> = events.iter().filter(|e| e.cat == "train").collect();
        assert_eq!(trains.len(), 1);
        assert_eq!(trains[0].tid, 4);
        assert!((trains[0].dur - 2.0 * 1e6).abs() < 1e-6);
        let round: Vec<_> = events.iter().filter(|e| e.cat == "round").collect();
        assert_eq!(round.len(), 1);
        assert_eq!(round[0].ph, "X");
        assert!((round[0].dur - 4.0 * 1e6).abs() < 1e-6);
        assert!(events.iter().any(|e| e.cat == "cancelled"));
    }

    #[test]
    fn truncated_traces_degrade_to_instants() {
        // Ring rotation ate the Dispatch: the Complete still renders.
        let records = vec![rec(
            10,
            7.0,
            TraceEvent::Complete {
                round: 2,
                client: 0,
            },
        )];
        let events = chrome_trace(&records);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].ph, "i");
    }

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
        let virt = chrome_trace(&[rec(0, 1.0, TraceEvent::Eval { round: 0 })]);
        assert!(virt.iter().all(|e| e.pid == VIRTUAL_PID));
    }
}
