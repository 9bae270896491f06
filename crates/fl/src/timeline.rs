//! Round timelines: a discrete-event trace of one training round.
//!
//! The round engine only needs `max_i L_i` (Eq. 1), but understanding
//! *why* a round is slow — who straggled, how long the aggregator sat
//! idle — needs the full event order. There is exactly one source of
//! that order: [`schedule_plan_events`], the canonical virtual-time
//! schedule of a planned round (dispatches at `t = 0`, completions at
//! each response latency, timeouts at `tmax`, cancellations at the
//! over-selection deadline). [`RoundTimeline::from_plan`] is its thin
//! per-round view and the live engine trace maps it onto
//! `tifl_obs::TraceEvent`s. A what-if round is a hand-built
//! [`RoundPlan`]; a hierarchy's combine cost rides in `plan.latency`.

use crate::session::RoundPlan;
use serde::{Deserialize, Serialize};

/// One entry in a round's event trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TimelineEvent {
    /// The aggregator dispatched the training task to a client.
    Dispatch {
        /// Client id.
        client: usize,
    },
    /// A client's update arrived at the aggregator.
    Complete {
        /// Client id.
        client: usize,
    },
    /// A selected client never responded (timeout / dropout).
    TimedOut {
        /// Client id.
        client: usize,
    },
    /// An in-flight client was cancelled before completing — the
    /// over-selection engine cuts stragglers loose the moment the
    /// target count of updates has arrived (their virtual deadline).
    Cancelled {
        /// Client id.
        client: usize,
    },
    /// Aggregation finished; the round is over.
    RoundEnd,
}

/// Populate `out` with the canonical event schedule of a planned
/// synchronous round: `(round-relative time, tiebreak seq, event)`
/// triples sorted by `(time, seq)`.
///
/// This is the single source of event ordering for everything trace-
/// shaped in the workspace — [`RoundTimeline::from_plan`] and the live
/// engine trace — so the ordering rules live here, once:
///
/// * every selected client's `Dispatch` fires at `t = 0`, in
///   selection order;
/// * a responder's `Complete` fires at its response latency — unless
///   over-selection (`first_k`) closed the round without it, in which
///   case it is `Cancelled` at the round deadline (`plan.latency`)
///   instead and its `Complete` never fires;
/// * a non-responder is `TimedOut` at `tmax` (`WaitAll`) or
///   `Cancelled` at the deadline (`first_k`);
/// * `RoundEnd` fires at `plan.latency`, after every same-time event.
///
/// Reuses `out`'s capacity across calls (it is cleared, filled, and
/// sorted in place with no intermediate allocation), so a warm caller
/// traces rounds allocation-free.
pub fn schedule_plan_events(
    plan: &RoundPlan,
    first_k: bool,
    tmax: f64,
    out: &mut Vec<(f64, u32, TimelineEvent)>,
) {
    out.clear();
    for &(client, _) in &plan.responses {
        let seq = out.len() as u32;
        out.push((0.0, seq, TimelineEvent::Dispatch { client }));
    }
    for &(client, latency) in &plan.responses {
        let seq = out.len() as u32;
        match latency {
            Some(l) if !first_k || plan.contributors.contains(&client) => {
                out.push((l, seq, TimelineEvent::Complete { client }));
            }
            // An over-selection straggler: its completion is cancelled
            // below, in deadline order after the in-schedule events.
            Some(_) => {}
            None if first_k => {
                out.push((plan.latency, seq, TimelineEvent::Cancelled { client }));
            }
            None => out.push((tmax, seq, TimelineEvent::TimedOut { client })),
        }
    }
    if first_k {
        for &(client, latency) in &plan.responses {
            if latency.is_some() && !plan.contributors.contains(&client) {
                let seq = out.len() as u32;
                out.push((plan.latency, seq, TimelineEvent::Cancelled { client }));
            }
        }
    }
    let seq = out.len() as u32;
    out.push((plan.latency, seq, TimelineEvent::RoundEnd));
    out.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
}

/// A fully ordered trace of one round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundTimeline {
    /// `(virtual time, event)` pairs in chronological order.
    pub events: Vec<(f64, TimelineEvent)>,
}

impl RoundTimeline {
    /// The timeline of a planned round, derived from the same
    /// canonical schedule the live engine trace emits
    /// ([`schedule_plan_events`]). `first_k` selects the
    /// over-selection semantics (stragglers cancelled at the
    /// deadline); under `WaitAll` pass `false`.
    #[must_use]
    pub fn from_plan(plan: &RoundPlan, first_k: bool, tmax: f64) -> Self {
        let mut scratch = Vec::new();
        schedule_plan_events(plan, first_k, tmax, &mut scratch);
        Self {
            events: scratch.into_iter().map(|(t, _, e)| (t, e)).collect(),
        }
    }

    /// Virtual time at which the round ended.
    ///
    /// # Panics
    /// Never — a timeline always contains `RoundEnd`.
    #[must_use]
    pub fn round_end(&self) -> f64 {
        self.events.last().expect("RoundEnd always present").0
    }

    /// Time the aggregator spent waiting between the first and last
    /// client completion — the idle window stragglers create.
    #[must_use]
    pub fn straggler_wait(&self) -> f64 {
        let completions: Vec<f64> = self
            .events
            .iter()
            .filter(|(_, e)| {
                matches!(
                    e,
                    TimelineEvent::Complete { .. }
                        | TimelineEvent::TimedOut { .. }
                        | TimelineEvent::Cancelled { .. }
                )
            })
            .map(|&(t, _)| t)
            .collect();
        match (completions.first(), completions.last()) {
            (Some(first), Some(last)) => last - first,
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::AggregationTree;

    fn plan(
        responses: Vec<(usize, Option<f64>)>,
        contributors: Vec<usize>,
        latency: f64,
    ) -> RoundPlan {
        RoundPlan {
            round: 0,
            selected: responses.iter().map(|&(c, _)| c).collect(),
            responses,
            contributors,
            latency,
        }
    }

    /// The timeline of a `WaitAll` round: every responder contributes,
    /// non-responders are charged `tmax`, and the round lasts until the
    /// slowest of them (Eq. 1) plus `agg_cost`.
    fn wait_all(responses: &[(usize, Option<f64>)], tmax: f64, agg_cost: f64) -> RoundTimeline {
        let contributors = responses
            .iter()
            .filter_map(|&(c, l)| l.map(|_| c))
            .collect();
        let slowest = responses
            .iter()
            .map(|&(_, l)| l.unwrap_or(tmax))
            .fold(0.0, f64::max);
        let p = plan(responses.to_vec(), contributors, slowest + agg_cost);
        RoundTimeline::from_plan(&p, false, tmax)
    }

    #[test]
    fn events_are_time_ordered() {
        let t = wait_all(
            &[(0, Some(3.0)), (1, Some(1.0)), (2, Some(2.0))],
            100.0,
            0.0,
        );
        for w in t.events.windows(2) {
            assert!(w[0].0 <= w[1].0, "out of order: {w:?}");
        }
        assert_eq!(t.round_end(), 3.0);
    }

    #[test]
    fn dispatches_precede_completions() {
        let t = wait_all(&[(7, Some(0.5))], 100.0, 0.0);
        assert_eq!(t.events[0], (0.0, TimelineEvent::Dispatch { client: 7 }));
        assert_eq!(t.events[1], (0.5, TimelineEvent::Complete { client: 7 }));
    }

    #[test]
    fn timeouts_charged_tmax() {
        let t = wait_all(&[(0, Some(1.0)), (1, None)], 50.0, 0.0);
        assert_eq!(t.round_end(), 50.0);
        assert!(t
            .events
            .iter()
            .any(|(time, e)| *time == 50.0 && matches!(e, TimelineEvent::TimedOut { client: 1 })));
    }

    #[test]
    fn same_time_events_keep_selection_order_and_round_end_comes_last() {
        let t = wait_all(
            &[(3, Some(4.0)), (1, Some(1.5)), (4, None), (2, Some(1.5))],
            20.0,
            0.0,
        );
        let tail: Vec<(f64, TimelineEvent)> = t.events[4..].to_vec();
        assert_eq!(
            tail,
            vec![
                (1.5, TimelineEvent::Complete { client: 1 }),
                (1.5, TimelineEvent::Complete { client: 2 }),
                (4.0, TimelineEvent::Complete { client: 3 }),
                (20.0, TimelineEvent::TimedOut { client: 4 }),
                (20.0, TimelineEvent::RoundEnd),
            ]
        );
    }

    #[test]
    fn straggler_wait_measures_completion_spread() {
        let t = wait_all(
            &[(0, Some(1.0)), (1, Some(9.0)), (2, Some(2.0))],
            100.0,
            0.0,
        );
        assert!((t.straggler_wait() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn aggregation_tree_extends_round() {
        // The hierarchy's combine cost rides in `plan.latency`: the
        // round ends that long after the last completion.
        let agg_cost = AggregationTree::with_fan_out(10).aggregation_latency(2, 1_000_000);
        let t = wait_all(&[(0, Some(1.0)), (1, Some(2.0))], 100.0, agg_cost);
        assert!(agg_cost > 0.0);
        assert!((t.round_end() - (2.0 + agg_cost)).abs() < 1e-12);
        assert!((t.straggler_wait() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn wait_all_trace_matches_timeline_shape() {
        let p = plan(vec![(0, Some(2.0)), (1, None)], vec![0], 50.0);
        let t = RoundTimeline::from_plan(&p, false, 50.0);
        assert!(t
            .events
            .iter()
            .any(|(time, e)| *time == 50.0 && matches!(e, TimelineEvent::TimedOut { client: 1 })));
        assert_eq!(t.round_end(), 50.0);
    }

    #[test]
    fn first_k_trace_cancels_stragglers_at_the_deadline() {
        // Three responders, two contribute: the slowest is cancelled at
        // the 2nd-fastest completion time and its Complete never fires.
        let p = plan(
            vec![(0, Some(1.0)), (1, Some(9.0)), (2, Some(2.0))],
            vec![0, 2],
            2.0,
        );
        let t = RoundTimeline::from_plan(&p, true, 100.0);
        assert!(t
            .events
            .iter()
            .any(|(time, e)| *time == 2.0 && matches!(e, TimelineEvent::Cancelled { client: 1 })));
        assert!(
            !t.events
                .iter()
                .any(|(_, e)| matches!(e, TimelineEvent::Complete { client: 1 })),
            "cancelled straggler must not complete: {:?}",
            t.events
        );
        assert_eq!(t.round_end(), 2.0);
    }

    #[test]
    fn first_k_trace_cancels_non_responders_too() {
        let p = plan(vec![(0, Some(1.0)), (1, None)], vec![0], 1.0);
        let t = RoundTimeline::from_plan(&p, true, 100.0);
        assert!(t
            .events
            .iter()
            .any(|(time, e)| *time == 1.0 && matches!(e, TimelineEvent::Cancelled { client: 1 })));
        assert_eq!(t.round_end(), 1.0);
    }

    #[test]
    fn similar_latencies_have_small_wait() {
        // The tiering pitch in one assert: same-tier clients finish close
        // together, so the aggregator barely waits.
        let same_tier = wait_all(
            &[(0, Some(10.0)), (1, Some(10.5)), (2, Some(10.2))],
            100.0,
            0.0,
        );
        let mixed = wait_all(
            &[(0, Some(1.0)), (1, Some(45.0)), (2, Some(4.0))],
            100.0,
            0.0,
        );
        assert!(same_tier.straggler_wait() < mixed.straggler_wait() / 10.0);
    }
}
