//! Visualising the straggler problem (Eq. 1) with round timelines.
//!
//! ```sh
//! cargo run --release --example straggler_timeline
//! ```
//!
//! Lays one vanilla round and one same-tier round out as event traces
//! and prints who finished when — the aggregator's
//! idle window is the entire case for tiering. Also shows the
//! hierarchical master-child aggregation cost at fleet scale.

use tifl::fl::hierarchy::AggregationTree;
use tifl::fl::timeline::{RoundTimeline, TimelineEvent};
use tifl::prelude::*;

fn print_trace(label: &str, timeline: &RoundTimeline) {
    println!("\n-- {label} --");
    for (t, e) in &timeline.events {
        match e {
            TimelineEvent::Dispatch { client } => {
                println!("  t={t:>8.2}s  dispatch -> client {client}");
            }
            TimelineEvent::Complete { client } => {
                println!("  t={t:>8.2}s  update   <- client {client}");
            }
            TimelineEvent::TimedOut { client } => {
                println!("  t={t:>8.2}s  TIMEOUT     client {client}");
            }
            TimelineEvent::Cancelled { client } => {
                println!("  t={t:>8.2}s  CANCELLED   client {client}");
            }
            TimelineEvent::RoundEnd => println!("  t={t:>8.2}s  round end"),
        }
    }
    println!(
        "  aggregator idle between first and last update: {:.2}s",
        timeline.straggler_wait()
    );
}

/// The wait-all round-0 timeline of `clients`: everyone responds (no
/// dropouts are configured), the round lasts until the slowest (Eq. 1).
fn round_of(session: &Session, clients: &[usize]) -> RoundTimeline {
    let responses: Vec<(usize, Option<f64>)> = clients
        .iter()
        .map(|&c| (c, session.cluster().response(c, 0, &session.task_for(c))))
        .collect();
    let plan = RoundPlan {
        round: 0,
        selected: clients.to_vec(),
        contributors: clients.to_vec(),
        latency: responses.iter().filter_map(|&(_, l)| l).fold(0.0, f64::max),
        responses,
    };
    RoundTimeline::from_plan(&plan, false, session.config().tmax_sec)
}

fn main() {
    let cfg = ExperimentConfig::cifar10_resource_het(5);
    let session = cfg.make_session();
    let (tiers, _) = cfg.profile_and_tier();

    // A vanilla round: one client from each hardware group.
    let t_mixed = round_of(&session, &[0, 11, 22, 33, 44]);
    print_trace("vanilla round (one client per hardware group)", &t_mixed);

    // A TiFL round: five clients from the fastest tier.
    let t_same = round_of(&session, &tiers.tiers[0].clients[..5]);
    print_trace("TiFL round (five clients from tier 0)", &t_same);

    println!(
        "\nround latency: vanilla {:.1}s vs same-tier {:.1}s ({:.1}x)",
        t_mixed.round_end(),
        t_same.round_end(),
        t_mixed.round_end() / t_same.round_end()
    );

    // Aggregation at fleet scale: the master-child tree of §3.1.
    let tree = AggregationTree::with_fan_out(100);
    let bytes = 4 * cfg.model.build(0).param_count() as u64;
    println!("\nhierarchical aggregation ({}-byte updates):", bytes);
    for updates in [5usize, 100, 10_000, 100_000] {
        println!(
            "  {updates:>6} updates: flat {:>8.3}s  tree {:>8.3}s ({} children)",
            tree.flat_latency(updates, bytes),
            tree.aggregation_latency(updates, bytes),
            tree.num_children(updates),
        );
    }
}
