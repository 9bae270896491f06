//! The virtual-time event schedule of one training round.
//!
//! The round engine only needs `max_i L_i` (Eq. 1), but understanding
//! *why* a round is slow — who straggled, how long the aggregator sat
//! idle — needs the full event order. There is exactly one source of
//! that order: [`schedule_plan_events`], the canonical schedule of a
//! planned round (dispatches at `t = 0`, completions at each response
//! latency, timeouts at `tmax`, cancellations at the over-selection
//! deadline), which the live engine trace records as it stands. The
//! round itself ends at `plan.latency` (a hierarchy's combine cost
//! rides in it); a what-if round is a hand-built [`RoundPlan`].

use crate::session::RoundPlan;
use tifl_obs::TraceEvent;

/// Populate `out` with the canonical event schedule of a planned
/// synchronous round: `(round-relative time, tiebreak seq, event)`
/// triples sorted by `(time, seq)`.
///
/// This is the single source of event ordering for everything trace-
/// shaped in the workspace, so the ordering rules live here, once:
///
/// * every selected client's `Dispatch` fires at `t = 0`, in
///   selection order;
/// * a responder's `Complete` fires at its response latency — unless
///   over-selection (`first_k`) closed the round without it, in which
///   case it is `Cancelled` at the round deadline (`plan.latency`)
///   instead and its `Complete` never fires;
/// * a non-responder is `TimedOut` at `tmax` (`WaitAll`) or
///   `Cancelled` at the deadline (`first_k`).
///
/// Reuses `out`'s capacity across calls (it is cleared, filled, and
/// sorted in place with no intermediate allocation), so a warm caller
/// traces rounds allocation-free.
pub fn schedule_plan_events(
    plan: &RoundPlan,
    first_k: bool,
    tmax: f64,
    out: &mut Vec<(f64, u32, TraceEvent)>,
) {
    let round = plan.round;
    out.clear();
    let mut push = |t: f64, event: TraceEvent| {
        let seq = out.len() as u32;
        out.push((t, seq, event));
    };
    for &(c, _) in &plan.responses {
        let client = c as u32;
        push(0.0, TraceEvent::Dispatch { round, client });
    }
    for &(c, latency) in &plan.responses {
        let client = c as u32;
        match latency {
            Some(l) if !first_k || plan.contributors.contains(&c) => {
                push(l, TraceEvent::Complete { round, client });
            }
            // An over-selection straggler: its completion is cancelled
            // below, in deadline order after the in-schedule events.
            Some(_) => {}
            None if first_k => push(plan.latency, TraceEvent::Cancelled { round, client }),
            None => push(tmax, TraceEvent::TimedOut { round, client }),
        }
    }
    if first_k {
        for &(c, latency) in &plan.responses {
            if latency.is_some() && !plan.contributors.contains(&c) {
                let client = c as u32;
                push(plan.latency, TraceEvent::Cancelled { round, client });
            }
        }
    }
    out.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// The `(time, event)` schedule of a planned round.
    fn schedule(plan: &RoundPlan, first_k: bool, tmax: f64) -> Vec<(f64, TraceEvent)> {
        let mut out = Vec::new();
        schedule_plan_events(plan, first_k, tmax, &mut out);
        out.into_iter().map(|(t, _, e)| (t, e)).collect()
    }

    /// The schedule of a `WaitAll` round: every responder contributes,
    /// non-responders are charged `tmax`, and the round lasts until the
    /// slowest of them (Eq. 1).
    fn wait_all(responses: &[(usize, Option<f64>)], tmax: f64) -> Vec<(f64, TraceEvent)> {
        let contributors = responses
            .iter()
            .filter_map(|&(c, l)| l.map(|_| c))
            .collect();
        let slowest = responses
            .iter()
            .map(|&(_, l)| l.unwrap_or(tmax))
            .fold(0.0, f64::max);
        schedule(
            &plan(responses.to_vec(), contributors, slowest),
            false,
            tmax,
        )
    }

    const fn complete(client: u32) -> TraceEvent {
        TraceEvent::Complete { round: 0, client }
    }

    const fn cancelled(client: u32) -> TraceEvent {
        TraceEvent::Cancelled { round: 0, client }
    }

    const fn timed_out(client: u32) -> TraceEvent {
        TraceEvent::TimedOut { round: 0, client }
    }

    #[test]
    fn events_are_time_ordered() {
        let events = wait_all(&[(0, Some(3.0)), (1, Some(1.0)), (2, Some(2.0))], 100.0);
        for w in events.windows(2) {
            assert!(w[0].0 <= w[1].0, "out of order: {w:?}");
        }
        assert_eq!(events.last(), Some(&(3.0, complete(0))));
    }

    #[test]
    fn dispatches_precede_completions() {
        let events = wait_all(&[(7, Some(0.5))], 100.0);
        let dispatch = TraceEvent::Dispatch {
            round: 0,
            client: 7,
        };
        assert_eq!(events, vec![(0.0, dispatch), (0.5, complete(7))]);
    }

    #[test]
    fn timeouts_charged_tmax() {
        let events = wait_all(&[(0, Some(1.0)), (1, None)], 50.0);
        assert_eq!(events.last(), Some(&(50.0, timed_out(1))));
    }

    #[test]
    fn same_time_events_keep_selection_order() {
        let events = wait_all(
            &[(3, Some(4.0)), (1, Some(1.5)), (4, None), (2, Some(1.5))],
            20.0,
        );
        assert_eq!(
            events[4..],
            [
                (1.5, complete(1)),
                (1.5, complete(2)),
                (4.0, complete(3)),
                (20.0, timed_out(4)),
            ]
        );
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
        let events = schedule(&p, true, 100.0);
        assert_eq!(events.last(), Some(&(2.0, cancelled(1))));
        assert!(
            !events.iter().any(|&(_, e)| e == complete(1)),
            "cancelled straggler must not complete: {events:?}"
        );
    }

    #[test]
    fn first_k_trace_cancels_non_responders_too() {
        let p = plan(vec![(0, Some(1.0)), (1, None)], vec![0], 1.0);
        let events = schedule(&p, true, 100.0);
        assert_eq!(events.last(), Some(&(1.0, cancelled(1))));
    }
}
