//! Integration tests for the system extensions: related-work baselines
//! (over-selection, FedCS, FedProx), DP client updates, performance
//! drift with periodic re-profiling, and config serialisation.

use tifl::core::experiment::DataScenario;
use tifl::fl::client::DpNoiseConfig;
use tifl::prelude::*;
use tifl::sim::DriftModel;

#[test]
fn overselection_beats_waitall_on_time_and_keeps_learning() {
    let mut cfg = ExperimentConfig::tiny(41);
    cfg.cpu_profile = tifl::sim::resource::profiles::CIFAR.to_vec();
    cfg.rounds = 30;
    let mut runner = cfg.runner();
    let vanilla = runner.vanilla().run();
    let over = runner.overselect(1.3).run();
    assert!(over.total_time() < vanilla.total_time());
    assert!(over.final_accuracy() > 0.4, "over-selection still trains");
    assert!(over.discarded_work_fraction() > 0.0);
}

#[test]
fn fedcs_deadline_controls_round_latency() {
    let mut cfg = ExperimentConfig::tiny(42);
    cfg.cpu_profile = tifl::sim::resource::profiles::CIFAR.to_vec();
    cfg.latency.base_overhead_sec = 0.0;
    cfg.rounds = 30;
    let mut runner = cfg.runner();
    let lats = runner.tiers().tier_latencies();
    let deadline = (lats[1] + lats[2]) / 2.0;
    let report = runner.deadline(deadline).run();
    assert_eq!(runner.profile_count(), 1, "deadline run reuses the profile");
    // Rounds stay within ~deadline (plus jitter slack).
    assert!(
        report.mean_round_latency() < deadline * 1.3,
        "mean latency {} vs deadline {deadline}",
        report.mean_round_latency()
    );
}

#[test]
fn fedprox_stays_closer_to_global_under_noniid() {
    let mut cfg = ExperimentConfig::tiny(43);
    cfg.data = DataScenario::ClassLimit {
        per_client: 40,
        k: 2,
    };
    // 30 rounds, not 20: with only 2 clients/round on a k=2 non-IID
    // split, 20 rounds leaves accuracy right at the 0.2 floor (~0.198
    // under the vendored RNG stream); 30 rounds clears it with margin
    // without slowing the suite meaningfully.
    cfg.rounds = 30;
    let mut runner = cfg.runner();
    let plain = runner.vanilla().run();
    let prox = runner.fedprox(0.5).run();
    assert_eq!(prox.policy, "fedprox(0.5)");
    // Both learn; FedProx must at least run to completion with the same
    // round structure.
    assert_eq!(plain.rounds.len(), prox.rounds.len());
    assert!(prox.final_accuracy() > 0.2);
}

#[test]
fn dp_noise_degrades_accuracy_monotonically_in_expectation() {
    let accuracy_at = |z: f32| {
        let mut cfg = ExperimentConfig::tiny(44);
        cfg.rounds = 30;
        cfg.client.dp = Some(DpNoiseConfig {
            clip: 1.0,
            noise_multiplier: z,
        });
        cfg.runner().vanilla().run().final_accuracy()
    };
    let clean = accuracy_at(0.0);
    let noisy = accuracy_at(1.0);
    assert!(
        clean > noisy + 0.1,
        "heavy DP noise should hurt accuracy: clean {clean}, noisy {noisy}"
    );
}

#[test]
fn dp_updates_compose_with_tiering() {
    let mut cfg = ExperimentConfig::tiny(45);
    cfg.rounds = 40;
    cfg.client.dp = Some(DpNoiseConfig {
        clip: 1.0,
        noise_multiplier: 0.001,
    });
    let report = cfg.runner().policy(&Policy::uniform(5)).run();
    assert_eq!(report.rounds.len(), 40);
    assert!(
        report.final_accuracy() > 0.3,
        "mild DP noise should still train"
    );
}

#[test]
fn experiment_config_json_round_trip() {
    let mut cfg = ExperimentConfig::cifar10_combine(5, 7);
    cfg.aggregation = AggregationMode::FirstK { factor: 1.3 };
    cfg.drift = DriftModel::RegimeSwitch {
        at_round: 100,
        factors: vec![0.5, 1.0],
    };
    cfg.client.dp = Some(DpNoiseConfig {
        clip: 1.0,
        noise_multiplier: 0.1,
    });
    let json = serde_json::to_string_pretty(&cfg).unwrap();
    let back: ExperimentConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(back, cfg);
}

#[test]
fn old_configs_without_new_fields_still_parse() {
    // SessionConfig grew `aggregation` after the initial release shape;
    // serde(default) must keep old JSON working.
    let json = r#"{
        "model": {"Mlp": {"input": 64, "hidden": 16, "classes": 10}},
        "client": {
            "batch_size": 10, "local_epochs": 1,
            "optimizer": {"RmsProp": {"lr": 0.01}}, "lr_round_decay": 0.995
        },
        "clients_per_round": 2, "rounds": 5, "eval_every": 1,
        "tmax_sec": 1000.0, "seed": 1
    }"#;
    let cfg: SessionConfig = serde_json::from_str(json).unwrap();
    assert_eq!(cfg.aggregation, AggregationMode::WaitAll);
    assert_eq!(cfg.client.proximal_mu, 0.0);
    assert!(cfg.client.dp.is_none());
}

#[test]
fn reprofiling_matches_static_when_nothing_drifts() {
    // Without drift, re-profiling rebuilds the same tiers, so only the
    // per-segment selector seeds differ; totals should be close.
    let mut cfg = ExperimentConfig::tiny(47);
    cfg.cpu_profile = tifl::sim::resource::profiles::CIFAR.to_vec();
    cfg.rounds = 24;
    let mut runner = cfg.runner();
    let stat = runner.policy(&Policy::uniform(5)).run();
    let re = runner.reprofile_every(8).run();
    assert_eq!(stat.rounds.len(), re.rounds.len());
    let ratio = re.total_time() / stat.total_time();
    assert!(
        (0.3..3.0).contains(&ratio),
        "same-regime reprofiling should stay in the same ballpark, ratio {ratio}"
    );
}
