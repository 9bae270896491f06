//! Quickstart: profile, tier, and train a federated model with TiFL.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Walks the full pipeline on a small heterogeneous deployment:
//! 1. build a federated dataset and a simulated testbed,
//! 2. profile every client's response latency and form tiers,
//! 3. train with vanilla random selection and with TiFL's uniform tier
//!    policy, and compare training time and accuracy.

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "an example reports to its terminal"
)]

use tifl::prelude::*;

fn main() {
    // A 20-client deployment with a 20x CPU spread and IID local data.
    let mut cfg = ExperimentConfig::cifar10_resource_het(7);
    cfg.num_clients = 20;
    // 20 clients over 5 tiers leaves 4 clients per tier, so a tier must
    // be able to supply a full round: select 3 per round.
    cfg.clients_per_round = 3;
    cfg.rounds = 60;
    cfg.eval_every = 5;
    cfg.name = "quickstart".into();

    // Step 1-2: profile and tier (§4.2 of the paper). The runner
    // caches this profile for every run composed from it below.
    let mut runner = cfg.runner();
    let (tiers, profile) = runner.profile().clone();
    println!(
        "profiled {} clients ({} dropouts)",
        cfg.num_clients,
        profile.dropouts().len()
    );
    for (t, tier) in tiers.tiers.iter().enumerate() {
        println!(
            "  tier {t}: {:>2} clients, mean latency {:>7.2}s",
            tier.clients.len(),
            tier.avg_latency
        );
    }

    // Step 3: vanilla FL vs TiFL's uniform tier selection.
    let vanilla = runner.vanilla().run();
    let uniform = runner.policy(&Policy::uniform(tiers.num_tiers())).run();

    println!("\n{:<10} {:>12} {:>11}", "policy", "time [s]", "final acc");
    for r in [&vanilla, &uniform] {
        println!(
            "{:<10} {:>12.0} {:>11.3}",
            r.policy,
            r.total_time(),
            r.final_accuracy()
        );
    }
    println!(
        "\nTiFL speedup over vanilla: {:.1}x at {:+.1} accuracy points",
        vanilla.total_time() / uniform.total_time(),
        (uniform.final_accuracy() - vanilla.final_accuracy()) * 100.0
    );
}
