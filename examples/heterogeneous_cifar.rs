//! The paper's motivating scenario: a CIFAR-10-like workload on a
//! fleet with a 40x CPU spread (4 CPUs down to 0.1), comparing every
//! static selection policy of Table 1 and validating the Eq. 6
//! training-time estimator against measurements.
//!
//! ```sh
//! cargo run --release --example heterogeneous_cifar
//! ```

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "an example reports to its terminal"
)]

use tifl::core::estimator;
use tifl::prelude::*;

fn main() {
    let mut cfg = ExperimentConfig::cifar10_resource_het(42);
    cfg.rounds = 120; // shortened from the paper's 500 for a quick demo
    let mut runner = cfg.runner();
    let tiers = runner.tiers().clone();

    println!(
        "tier latencies: {:?}",
        tiers
            .tier_latencies()
            .iter()
            .map(|l| format!("{l:.1}s"))
            .collect::<Vec<_>>()
    );

    println!(
        "\n{:<10} {:>13} {:>13} {:>9} {:>10}",
        "policy", "estimate [s]", "measured [s]", "MAPE [%]", "final acc"
    );
    for policy in Policy::cifar_set(tiers.num_tiers()) {
        let report = runner.policy(&policy).run();
        if policy.is_vanilla() {
            println!(
                "{:<10} {:>13} {:>13.0} {:>9} {:>10.3}",
                policy.name,
                "-",
                report.total_time(),
                "-",
                report.final_accuracy()
            );
        } else {
            let est = estimator::estimate_for_policy(&tiers, &policy, cfg.rounds);
            println!(
                "{:<10} {:>13.0} {:>13.0} {:>9.2} {:>10.3}",
                policy.name,
                est,
                report.total_time(),
                estimator::mape(est, report.total_time()),
                report.final_accuracy()
            );
        }
    }
}
