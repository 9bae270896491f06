//! Adaptive tier selection under strong non-IID skew.
//!
//! ```sh
//! cargo run --release --example adaptive_noniid
//! ```
//!
//! Reproduces the §5.2.5 story at demo scale: with 2 classes per client,
//! static tier policies bias the model toward whatever data lives in the
//! tiers they favour; Algorithm 2 watches per-tier accuracy and shifts
//! selection probability toward lagging tiers, recovering accuracy while
//! keeping most of the tiered speedup.

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "an example reports to its terminal"
)]

use tifl::core::scheduler::AdaptiveConfig;
use tifl::prelude::*;

fn main() {
    let mut cfg = ExperimentConfig::cifar10_resource_noniid(2, 11);
    cfg.rounds = 150;
    cfg.name = "adaptive-demo".into();

    println!(
        "scenario: {} ({} clients, non-IID(2))\n",
        cfg.name, cfg.num_clients
    );

    let mut runner = cfg.runner();
    let vanilla = runner.vanilla().run();
    let uniform = runner.policy(&Policy::uniform(5)).run();
    let fast = runner.policy(&Policy::fast(5)).run();
    let adaptive = runner
        .adaptive(Some(AdaptiveConfig {
            interval: 10,
            credits_per_tier: 2 * cfg.rounds / 5,
            gamma: 2.0,
        }))
        .run();

    println!(
        "{:<10} {:>12} {:>11} {:>10}",
        "policy", "time [s]", "final acc", "best acc"
    );
    for r in [&vanilla, &uniform, &fast, &adaptive] {
        println!(
            "{:<10} {:>12.0} {:>11.3} {:>10.3}",
            r.policy,
            r.total_time(),
            r.final_accuracy(),
            r.best_accuracy()
        );
    }

    println!(
        "\nadaptive vs vanilla: {:.1}x faster, {:+.1} accuracy points",
        vanilla.total_time() / adaptive.total_time(),
        (adaptive.final_accuracy() - vanilla.final_accuracy()) * 100.0
    );
    println!(
        "adaptive vs fast:    {:.1}x slower, {:+.1} accuracy points",
        adaptive.total_time() / fast.total_time(),
        (adaptive.final_accuracy() - fast.final_accuracy()) * 100.0
    );
}
