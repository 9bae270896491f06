//! The virtual-time layout of one training round, as Chrome events.
//!
//! The round engine only needs `max_i L_i` (Eq. 1), but understanding
//! *why* a round is slow — who straggled, how long the aggregator sat
//! idle — needs every client's span. A round's [`RoundPlan`] already
//! holds them (dispatches at `t = 0`, completions at each response
//! latency, timeouts at `tmax`, cancellations at the over-selection
//! deadline), and [`crate::session::Session::replan`] rebuilds the plan
//! from a finished round's report, so [`chrome_round`] lays a round out
//! without anything being recorded while it ran. The round itself ends
//! at `plan.latency` (a hierarchy's combine cost rides in it); a
//! what-if round is a hand-built [`RoundPlan`].

use crate::session::{AggregationMode, RoundPlan, SessionConfig};
use tifl_obs::ChromeEvent;

/// Append the Chrome events of a planned round that started at virtual
/// time `t0` (the previous round's `time`, or 0 for round 0) under
/// `config`, each contributor uploading `wire_bytes`.
///
/// In order:
///
/// * one span per selected client on `tid = client + 1`, from `t0` to
///   the moment it left the round: a responder that contributes ends at
///   its response latency (`train`); under over-selection (`FirstK`) a
///   client left out of the aggregate — late responder or
///   non-responder — is `cancelled` at the round deadline
///   (`plan.latency`); under `WaitAll` a non-responder is a `timeout`
///   at `tmax`. The spans are sorted by end time, and ties keep their
///   order of one pass over the responses followed by `FirstK`'s late
///   responders;
/// * one `fold` instant per contributor, in aggregation order, and an
///   `eval` instant on an eval round, all at the round's end;
/// * the `round` span from `t0` to `t0 + plan.latency` on thread 0.
pub fn chrome_round(
    plan: &RoundPlan,
    t0: f64,
    config: &SessionConfig,
    wire_bytes: u64,
    out: &mut Vec<ChromeEvent>,
) {
    let round = plan.round;
    let first_k = matches!(config.aggregation, AggregationMode::FirstK { .. });
    let late = |c: &usize| first_k && !plan.contributors.contains(c);
    // (round-relative end, client, category) of every selected client.
    let mut ends: Vec<(f64, usize, &str)> = Vec::with_capacity(plan.responses.len());
    for &(c, latency) in &plan.responses {
        match latency {
            Some(l) if !late(&c) => ends.push((l, c, "train")),
            // A late responder is cancelled below, after the others.
            Some(_) => {}
            None if first_k => ends.push((plan.latency, c, "cancelled")),
            None => ends.push((config.tmax_sec, c, "timeout")),
        }
    }
    ends.extend(
        plan.responses
            .iter()
            .filter(|(c, l)| l.is_some() && late(c))
            .map(|&(c, _)| (plan.latency, c, "cancelled")),
    );
    ends.sort_by(|a, b| a.0.total_cmp(&b.0));
    for (end, c, cat) in ends {
        let name = format!("client {c} r{round}");
        out.push(ChromeEvent::span(name, cat, t0, t0 + end, c as u64 + 1));
    }
    let end = t0 + plan.latency;
    for &c in &plan.contributors {
        let name = format!("fold c{c} r{round} ({wire_bytes} B)");
        out.push(ChromeEvent::instant(name, "fold", end, 0));
    }
    if config.is_eval_round(round) {
        let name = format!("eval r{round}");
        out.push(ChromeEvent::instant(name, "eval", end, 0));
    }
    let name = format!("round {round}");
    out.push(ChromeEvent::span(name, "round", t0, end, 0));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientConfig;
    use tifl_nn::models::ModelSpec;

    fn config(aggregation: AggregationMode, tmax_sec: f64) -> SessionConfig {
        SessionConfig {
            model: ModelSpec::Mlp {
                input: 4,
                hidden: 4,
                classes: 2,
            },
            client: ClientConfig::paper_synthetic(),
            clients_per_round: 1,
            rounds: 10,
            eval_every: 5,
            tmax_sec,
            aggregation,
            comm: None,
            seed: 0,
        }
    }

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

    /// The `(category, client, end)` of a laid-out round's client
    /// spans, in emission order, with times in seconds.
    fn clients(
        plan: &RoundPlan,
        aggregation: AggregationMode,
        tmax: f64,
    ) -> Vec<(String, u64, f64)> {
        let mut out = Vec::new();
        chrome_round(plan, 0.0, &config(aggregation, tmax), 8, &mut out);
        out.into_iter()
            .filter(|e| e.tid > 0)
            .map(|e| (e.cat, e.tid - 1, (e.ts + e.dur) / 1e6))
            .collect()
    }

    /// The client spans of a `WaitAll` round: every responder
    /// contributes, non-responders are charged `tmax`, and the round
    /// lasts until the slowest of them (Eq. 1).
    fn wait_all(responses: &[(usize, Option<f64>)], tmax: f64) -> Vec<(String, u64, f64)> {
        let contributors = responses
            .iter()
            .filter_map(|&(c, l)| l.map(|_| c))
            .collect();
        let slowest = responses
            .iter()
            .map(|&(_, l)| l.unwrap_or(tmax))
            .fold(0.0, f64::max);
        clients(
            &plan(responses.to_vec(), contributors, slowest),
            AggregationMode::WaitAll,
            tmax,
        )
    }

    fn span(cat: &str, client: u64, end: f64) -> (String, u64, f64) {
        (cat.to_string(), client, end)
    }

    const FIRST_K: AggregationMode = AggregationMode::FirstK { factor: 1.5 };

    #[test]
    fn events_are_time_ordered() {
        let spans = wait_all(&[(0, Some(3.0)), (1, Some(1.0)), (2, Some(2.0))], 100.0);
        for w in spans.windows(2) {
            assert!(w[0].2 <= w[1].2, "out of order: {w:?}");
        }
        assert_eq!(spans.last(), Some(&span("train", 0, 3.0)));
    }

    #[test]
    fn dispatches_precede_completions() {
        // A client's span opens when the round dispatches to it (the
        // round's start) and closes when its update arrives.
        let p = plan(vec![(7, Some(0.5))], vec![7], 0.5);
        let mut out = Vec::new();
        chrome_round(
            &p,
            3.0,
            &config(AggregationMode::WaitAll, 100.0),
            8,
            &mut out,
        );
        let client = &out[0];
        assert_eq!(
            (client.cat.as_str(), client.tid, client.ts, client.dur),
            ("train", 8, 3.0e6, 0.5e6)
        );
    }

    #[test]
    fn timeouts_charged_tmax() {
        let spans = wait_all(&[(0, Some(1.0)), (1, None)], 50.0);
        assert_eq!(spans.last(), Some(&span("timeout", 1, 50.0)));
    }

    #[test]
    fn same_time_events_keep_selection_order() {
        let spans = wait_all(
            &[(3, Some(4.0)), (1, Some(1.5)), (4, None), (2, Some(1.5))],
            20.0,
        );
        assert_eq!(
            spans,
            [
                span("train", 1, 1.5),
                span("train", 2, 1.5),
                span("train", 3, 4.0),
                span("timeout", 4, 20.0),
            ]
        );
    }

    #[test]
    fn first_k_trace_cancels_stragglers_at_the_deadline() {
        // Three responders, two contribute: the slowest is cancelled at
        // the 2nd-fastest completion time and never completes.
        let p = plan(
            vec![(0, Some(1.0)), (1, Some(9.0)), (2, Some(2.0))],
            vec![0, 2],
            2.0,
        );
        let spans = clients(&p, FIRST_K, 100.0);
        assert_eq!(
            spans,
            [
                span("train", 0, 1.0),
                span("train", 2, 2.0),
                span("cancelled", 1, 2.0),
            ]
        );
    }

    #[test]
    fn first_k_trace_cancels_non_responders_too() {
        let p = plan(vec![(0, Some(1.0)), (1, None)], vec![0], 1.0);
        let spans = clients(&p, FIRST_K, 100.0);
        assert_eq!(spans.last(), Some(&span("cancelled", 1, 1.0)));
    }

    #[test]
    fn a_round_closes_with_its_folds_eval_and_round_span() {
        let p = RoundPlan {
            round: 5,
            ..plan(vec![(3, Some(2.0)), (6, Some(4.0))], vec![6, 3], 4.0)
        };
        let mut out = Vec::new();
        chrome_round(
            &p,
            10.0,
            &config(AggregationMode::WaitAll, 100.0),
            8,
            &mut out,
        );
        let names: Vec<&str> = out.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "client 3 r5",
                "client 6 r5",
                "fold c6 r5 (8 B)",
                "fold c3 r5 (8 B)",
                "eval r5",
                "round 5",
            ]
        );
        // Every client span opens at the round's start; the instants sit
        // at its end.
        assert!(out[..2].iter().all(|e| e.ts == 10.0e6 && e.ph == "X"));
        assert!(out[2..5].iter().all(|e| e.ts == 14.0e6 && e.ph == "i"));
        let round = &out[5];
        assert_eq!((round.ts, round.dur, round.tid), (10.0e6, 4.0e6, 0));
        // Round 6 is not an eval round (every 5, plus the last).
        let mut out = Vec::new();
        let p = RoundPlan { round: 6, ..p };
        chrome_round(
            &p,
            0.0,
            &config(AggregationMode::WaitAll, 100.0),
            8,
            &mut out,
        );
        assert!(!out.iter().any(|e| e.cat == "eval"));
    }
}
