//! Visualising the straggler problem (Eq. 1) with round event schedules.
//!
//! ```sh
//! cargo run --release --example straggler_timeline
//! ```
//!
//! Lays one vanilla round and one same-tier round out as Chrome
//! events (`chrome_round`, the layout `tifl trace --out` writes) and
//! prints who finished when — the aggregator's idle window is the
//! entire case for tiering. Also shows the hierarchical master-child
//! aggregation cost at fleet scale.

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "an example reports to its terminal"
)]

use tifl::comm::link::transfer_secs;
use tifl::prelude::*;

fn print_trace(label: &str, plan: &RoundPlan, config: &SessionConfig) {
    println!("\n-- {label} --");
    let mut events = Vec::new();
    chrome_round(plan, 0.0, config, 0, &mut events);
    // Client spans come first, sorted by the moment each client left
    // the round; thread `client + 1` carries client `client`.
    let ends: Vec<f64> = events
        .iter()
        .filter(|e| e.tid > 0)
        .map(|e| {
            let end = (e.ts + e.dur) / 1e6;
            let what = match e.cat.as_str() {
                "train" => "update   <-",
                "timeout" => "TIMEOUT    ",
                _ => "CANCELLED  ",
            };
            println!("  t={end:>8.2}s  {what} client {}", e.tid - 1);
            end
        })
        .collect();
    println!("  t={:>8.2}s  round end", plan.latency);
    println!(
        "  aggregator idle between first and last update: {:.2}s",
        ends.last().map_or(0.0, |t| t - ends[0])
    );
}

/// The wait-all round-0 plan of `clients`: everyone responds (no
/// dropouts are configured), the round lasts until the slowest (Eq. 1).
fn round_of(session: &Session, clients: &[usize]) -> RoundPlan {
    let responses: Vec<(usize, Option<f64>)> = clients
        .iter()
        .map(|&c| (c, session.cluster().response(c, 0, &session.task_for(c))))
        .collect();
    RoundPlan {
        round: 0,
        selected: clients.to_vec(),
        contributors: clients.to_vec(),
        latency: responses.iter().filter_map(|&(_, l)| l).fold(0.0, f64::max),
        responses,
    }
}

fn main() {
    let cfg = ExperimentConfig::cifar10_resource_het(5);
    let session = cfg.make_session();
    let (tiers, _) = cfg.profile_and_tier();

    // A vanilla round: one client from each hardware group.
    let config = session.config();
    let mixed = round_of(&session, &[0, 11, 22, 33, 44]);
    print_trace(
        "vanilla round (one client per hardware group)",
        &mixed,
        config,
    );

    // A TiFL round: five clients from the fastest tier.
    let same = round_of(&session, &tiers.tiers[0].clients[..5]);
    print_trace("TiFL round (five clients from tier 0)", &same, config);

    println!(
        "\nround latency: vanilla {:.1}s vs same-tier {:.1}s ({:.1}x)",
        mixed.latency,
        same.latency,
        mixed.latency / same.latency
    );

    // Aggregation at fleet scale: the master-child tree of §3.1, over a
    // 1.6 Gbit/s aggregation plane.
    let tree = HierarchySpec {
        fan_out: 100,
        plane_bps: 2.0e8,
    };
    let bytes = 4 * cfg.model.build(0).param_count() as u64;
    println!("\nhierarchical aggregation ({}-byte updates):", bytes);
    for updates in [5usize, 100, 10_000, 100_000] {
        println!(
            "  {updates:>6} updates: flat {:>8.3}s  tree {:>8.3}s ({} children)",
            transfer_secs(updates as u64 * bytes, tree.plane_bps),
            tree.combine_latency(updates, bytes, bytes),
            updates.div_ceil(tree.fan_out),
        );
    }
}
