//! LEAF/FEMNIST benchmark at demo scale (§5.2.6).
//!
//! ```sh
//! cargo run --release --example leaf_femnist
//! ```
//!
//! Builds a FEMNIST-like federation (62 classes, power-law writer sizes,
//! per-writer style skew), assigns heterogeneous hardware uniformly at
//! random — the paper's LEAF extension — and compares vanilla, uniform
//! and adaptive selection.

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "an example reports to its terminal"
)]

use tifl::prelude::*;

fn main() {
    let mut exp = ExperimentConfig::leaf_femnist(3);
    // Demo scale: 60 writers, 200 rounds (paper: 182 writers, 2000).
    exp.num_clients = 60;
    exp.rounds = 200;
    exp.eval_every = 10;

    let fed = exp.build_data();
    let sizes = fed.train_sizes();
    println!(
        "{} writers, {} total samples (min {} / median {} / max {})",
        fed.num_clients(),
        sizes.iter().sum::<usize>(),
        sizes.iter().min().expect("a federation has writers"),
        {
            let mut s = sizes.clone();
            s.sort_unstable();
            s[s.len() / 2]
        },
        sizes.iter().max().expect("a federation has writers"),
    );

    let mut runner = exp.runner();
    let vanilla = runner.vanilla().run();
    let uniform = runner.policy(&Policy::uniform(5)).run();
    let adaptive = runner.adaptive(None).run();

    println!("\n{:<10} {:>12} {:>11}", "policy", "time [s]", "final acc");
    for r in [&vanilla, &uniform, &adaptive] {
        println!(
            "{:<10} {:>12.0} {:>11.3}",
            r.policy,
            r.total_time(),
            r.final_accuracy()
        );
    }
    println!(
        "\nadaptive speedup over vanilla: {:.1}x",
        vanilla.total_time() / adaptive.total_time()
    );
}
