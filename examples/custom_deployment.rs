//! Building a custom deployment from the low-level APIs.
//!
//! ```sh
//! cargo run --release --example custom_deployment
//! ```
//!
//! The preset `ExperimentConfig`s cover the paper's setups; this example
//! wires the pieces manually — a bespoke cluster (three hardware kinds,
//! one flaky group), a wider MLP, class-limited non-IID data and a custom
//! static policy — and exercises dropout exclusion in the profiler.

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "an example reports to its terminal"
)]

use tifl::core::profiler::{Profiler, ProfilerConfig};
use tifl::core::scheduler::StaticTierSelector;
use tifl::data::partition;
use tifl::prelude::*;
use tifl::sim::dropout::DropoutModel;
use tifl::sim::GroupSpec;
use tifl::tensor::seed_rng;

fn main() {
    let seed = 5;

    // Data: 12 clients, non-IID(2) (200 samples from 2 classes each).
    let spec = SynthSpec::family(SynthFamily::FashionMnist);
    let gen = Generator::new(spec, seed);
    let part = partition::class_limit(12, 200, 10, 2, &mut seed_rng(seed));
    let fed = FederatedDataset::materialize(&gen, &part, 0.1, 20, seed);

    // Testbed: three hardware kinds + one permanently dead device.
    let mut cluster_cfg = ClusterConfig {
        groups: vec![
            GroupSpec {
                count: 4,
                cpu_share: 4.0,
            },
            GroupSpec {
                count: 4,
                cpu_share: 1.0,
            },
            GroupSpec {
                count: 4,
                cpu_share: 0.25,
            },
        ],
        bandwidth_bps: 500_000.0,
        latency: LatencyModelConfig::default(),
        shuffle_assignment: false,
        seed,
    };
    cluster_cfg.latency.flops_per_cpu_sec = 5.0e7;
    let mut cluster = Cluster::new(&cluster_cfg);
    let mut dropout = DropoutModel::always_available(12, seed);
    dropout.kill(&[11]);
    cluster.set_dropout(dropout);

    // Model: the MLP, twice the presets' hidden width.
    let session_cfg = SessionConfig {
        model: ModelSpec::Mlp {
            input: 64,
            hidden: 256,
            classes: 10,
        },
        client: ClientConfig::paper_synthetic(),
        clients_per_round: 3,
        rounds: 40,
        eval_every: 5,
        tmax_sec: 60.0,
        aggregation: AggregationMode::WaitAll,
        comm: None,
        seed,
    };
    let mut session = Session::new(fed, cluster, session_cfg);

    // Profile + tier into 3 tiers; the dead device must be excluded.
    let profiler = Profiler::new(ProfilerConfig {
        sync_rounds: 3,
        tmax_sec: 60.0,
    });
    let profile = profiler.profile(session.cluster(), |c| session.task_for(c));
    println!("dropouts detected: {:?}", profile.dropouts());
    let tiers = TierAssignment::from_latencies(
        &profile.mean_latency,
        &TieringConfig {
            num_tiers: 3,
            ..Default::default()
        },
    );
    for (t, tier) in tiers.tiers.iter().enumerate() {
        println!(
            "tier {t}: clients {:?} (mean {:.1}s)",
            tier.clients, tier.avg_latency
        );
    }

    // Train with a custom 60/30/10 policy.
    let policy = Policy::new("custom", vec![0.6, 0.3, 0.1]);
    let mut selector = StaticTierSelector::new(tiers, policy, seed);
    let report = session.run(&mut selector);
    println!(
        "\ncustom policy: {:.0} virtual s, final accuracy {:.3}",
        report.total_time(),
        report.final_accuracy()
    );
}
