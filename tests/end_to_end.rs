//! End-to-end integration tests: the full TiFL pipeline
//! (data -> cluster -> profiler -> tiering -> scheduler -> training)
//! across every workspace crate.

use tifl::core::scheduler::AdaptiveConfig;
use tifl::prelude::*;
use tifl::sim::dropout::DropoutModel;

fn tiny(seed: u64) -> ExperimentConfig {
    ExperimentConfig::tiny(seed)
}

#[test]
fn full_pipeline_all_static_policies() {
    let cfg = tiny(1);
    let mut runner = cfg.runner();
    for policy in Policy::cifar_set(5) {
        let report = runner.policy(&policy).run();
        assert_eq!(
            report.rounds.len() as u64,
            cfg.rounds,
            "policy {}",
            policy.name
        );
        assert!(report.total_time() > 0.0);
        assert!(
            report.final_accuracy() > 0.0,
            "policy {} never evaluated",
            policy.name
        );
        // Every round selected the configured number of clients.
        assert!(report
            .rounds
            .iter()
            .all(|r| r.selected.len() == cfg.clients_per_round));
    }
}

#[test]
fn full_pipeline_adaptive() {
    let cfg = tiny(2);
    let report = cfg
        .runner()
        .adaptive(Some(AdaptiveConfig {
            interval: 3,
            credits_per_tier: 100,
            gamma: 2.0,
        }))
        .run();
    assert_eq!(report.policy, "adaptive");
    assert_eq!(report.rounds.len() as u64, cfg.rounds);
}

#[test]
fn tiered_policies_only_select_within_one_tier_per_round() {
    let cfg = tiny(3);
    let mut runner = cfg.runner();
    let assignment = runner.tiers().clone();
    let report = runner.policy(&Policy::uniform(5)).run();
    for round in &report.rounds {
        let tiers: Vec<usize> = round
            .selected
            .iter()
            .map(|&c| {
                assignment
                    .tier_of(c)
                    .expect("selected client must be tiered")
            })
            .collect();
        assert!(
            tiers.windows(2).all(|w| w[0] == w[1]),
            "round {} mixed tiers: {tiers:?}",
            round.round
        );
    }
}

#[test]
fn vanilla_selects_across_tiers_over_time() {
    let cfg = tiny(4);
    let mut runner = cfg.runner();
    let assignment = runner.tiers().clone();
    let report = runner.vanilla().run();
    let mut seen = vec![false; assignment.num_tiers()];
    for round in &report.rounds {
        for &c in &round.selected {
            if let Some(t) = assignment.tier_of(c) {
                seen[t] = true;
            }
        }
    }
    assert!(
        seen.iter().filter(|&&s| s).count() >= 3,
        "vanilla should wander across tiers, saw {seen:?}"
    );
}

#[test]
fn fast_policy_reduces_training_time_with_resource_heterogeneity() {
    let mut cfg = tiny(5);
    cfg.cpu_profile = tifl::sim::resource::profiles::CIFAR.to_vec();
    // Measure the selection-policy effect in isolation: the fixed 0.2 s
    // protocol overhead is policy-independent, and at 12 rounds it puts
    // a 2.4 s floor under every policy, which alone pushes fast/vanilla
    // above the asserted 1/2 (the compute-only ratio is ~0.12).
    cfg.latency.base_overhead_sec = 0.0;
    let mut runner = cfg.runner();
    let vanilla = runner.vanilla().run();
    let fast = runner.policy(&Policy::fast(5)).run();
    let uniform = runner.policy(&Policy::uniform(5)).run();
    assert!(
        fast.total_time() < vanilla.total_time() / 2.0,
        "fast {} should be far below vanilla {}",
        fast.total_time(),
        vanilla.total_time()
    );
    assert!(
        uniform.total_time() < vanilla.total_time(),
        "uniform {} should beat vanilla {}",
        uniform.total_time(),
        vanilla.total_time()
    );
}

#[test]
fn dropouts_are_excluded_from_tiers_but_training_continues() {
    let cfg = tiny(6);
    // Kill two devices, then profile and train.
    let mut session = cfg.make_session();
    let mut dropout = DropoutModel::always_available(cfg.num_clients, 1);
    dropout.kill(&[0, 7]);
    // Rebuild a session whose cluster has the dropouts.
    let mut cluster = cfg.build_cluster();
    cluster.set_dropout(dropout);
    let profiler = Profiler::new(cfg.profiler);
    let profile = profiler.profile(&cluster, |c| session.task_for(c));
    assert_eq!(profile.dropouts(), vec![0, 7]);

    // 8 live clients: use 4 tiers so every tier can still supply a full
    // round of 2 clients.
    let tiering = TieringConfig {
        num_tiers: 4,
        ..cfg.tiering
    };
    let tiers = TierAssignment::from_latencies(&profile.mean_latency, &tiering);
    assert_eq!(tiers.num_clients(), cfg.num_clients - 2);
    assert_eq!(tiers.tier_of(0), None);
    assert_eq!(tiers.tier_of(7), None);

    let mut selector = StaticTierSelector::new(tiers, Policy::uniform(4), 2);
    let report = session.run(&mut selector);
    assert_eq!(report.rounds.len() as u64, cfg.rounds);
    // The dead clients are never selected.
    let counts = report.selection_counts(cfg.num_clients);
    assert_eq!(counts[0], 0);
    assert_eq!(counts[7], 0);
}

#[test]
fn leaf_pipeline_end_to_end() {
    let exp = ExperimentConfig::leaf_femnist_tiny(7);
    let mut runner = exp.runner();
    let vanilla = runner.vanilla().run();
    let adaptive = runner.adaptive(None).run();
    assert_eq!(vanilla.rounds.len(), adaptive.rounds.len());
    assert!(adaptive.total_time() > 0.0);
}

#[test]
fn reports_serialize_to_json() {
    let cfg = tiny(8);
    let report = cfg.runner().policy(&Policy::uniform(5)).run();
    let json = serde_json::to_string(&report).expect("report serialises");
    let back: tifl::fl::TrainingReport = serde_json::from_str(&json).expect("report deserialises");
    assert_eq!(back, report);
}

#[test]
fn checkpoint_resume_is_bit_identical_to_continuous_run() {
    // Under a lossy codec the checkpoint carries every client's
    // error-feedback residual, so the resumed uploads compensate exactly
    // as the continuous run's do.
    for codec in [
        CodecSpec::Identity,
        CodecSpec::QuantizeI8,
        CodecSpec::TopK { frac: 0.1 },
    ] {
        let mut cfg = tiny(10);
        cfg.comm = Some(CommSpec::with_codec(codec));

        // Continuous run.
        let mut continuous = cfg.make_session();
        let mut sel_a = RandomSelector::new(cfg.num_clients, 99);
        let full: Vec<_> = (0..cfg.rounds)
            .map(|_| continuous.run_round(&mut sel_a))
            .collect();

        // Run half, checkpoint through JSON, restore into a fresh
        // session, finish.
        let mut first_half = cfg.make_session();
        let mut sel_b = RandomSelector::new(cfg.num_clients, 99);
        let half = cfg.rounds / 2;
        let mut resumed_rounds: Vec<_> = (0..half)
            .map(|_| first_half.run_round(&mut sel_b))
            .collect();
        let json = first_half.snapshot().to_json();
        drop(first_half);

        let checkpoint = tifl::fl::checkpoint::Checkpoint::from_json(&json).unwrap();
        assert_eq!(
            checkpoint.residuals.is_empty(),
            codec == CodecSpec::Identity,
            "{codec:?}: only a lossy run has residuals to save"
        );
        let mut second_half = cfg.make_session();
        second_half.restore(&checkpoint);
        let mut sel_c = RandomSelector::new(cfg.num_clients, 99);
        resumed_rounds.extend((half..cfg.rounds).map(|_| second_half.run_round(&mut sel_c)));

        assert_eq!(
            full, resumed_rounds,
            "{codec:?}: resumed run diverged from continuous run"
        );
        assert_eq!(
            continuous.global_params(),
            second_half.global_params(),
            "{codec:?}: resumed weights diverged"
        );
    }
}

#[test]
fn adaptive_checkpoint_resume_is_bit_identical_to_continuous_run() {
    // The adaptive selector is stateful (credits, probabilities,
    // accuracy history): a checkpoint that only captured the session
    // would replay differently. `snapshot_with` + `restore_state` must
    // make the resumed run bit-identical, through JSON — under a lossy
    // codec too (the checkpoint carries the error-feedback residuals),
    // and when the resumed run uses another thread count: the
    // continuous run trains on one thread, both halves on four.
    for codec in [CodecSpec::Identity, CodecSpec::QuantizeI8] {
        let mut cfg = tiny(11);
        cfg.rounds = 16;
        cfg.comm = Some(CommSpec::with_codec(codec));
        let (tiers, _) = cfg.profile_and_tier();
        let acfg = AdaptiveConfig {
            interval: 4,
            credits_per_tier: 5,
            gamma: 2.0,
        };
        let make_selector = || AdaptiveTierSelector::new(tiers.clone(), acfg, 77);

        // Continuous run.
        let mut continuous = cfg.make_session();
        let mut sel_a = make_selector();
        let full = continuous.run_rounds(&mut sel_a, cfg.rounds, 1);

        // Half, checkpoint (session + selector state) through JSON,
        // restore into fresh objects, finish.
        let mut first_half = cfg.make_session();
        let mut sel_b = make_selector();
        let half = cfg.rounds / 2;
        let mut resumed_rounds = first_half.run_rounds(&mut sel_b, half, 4);
        let json = first_half.snapshot_with(&sel_b).to_json();
        drop(first_half);
        drop(sel_b);

        let checkpoint = Checkpoint::from_json(&json).unwrap();
        let state = checkpoint
            .selector
            .as_ref()
            .expect("adaptive selectors checkpoint their state");
        let mut second_half = cfg.make_session();
        second_half.restore(&checkpoint);
        let mut sel_c = make_selector();
        tifl::fl::ClientSelector::restore_state(&mut sel_c, state);
        resumed_rounds.extend(second_half.run_rounds(&mut sel_c, cfg.rounds - half, 4));

        assert_eq!(
            full, resumed_rounds,
            "{codec:?}: adaptive resumed run diverged from continuous run"
        );
        assert_eq!(
            continuous.global_params(),
            second_half.global_params(),
            "{codec:?}: resumed weights diverged"
        );
        assert_eq!(sel_a.credits(), sel_c.credits(), "{codec:?}");
        assert_eq!(sel_a.probs(), sel_c.probs(), "{codec:?}");
    }
}

#[test]
fn accuracy_improves_with_training_on_easy_data() {
    let mut cfg = tiny(9);
    cfg.rounds = 40;
    cfg.eval_every = 1;
    let report = cfg.runner().vanilla().run();
    let early = report.rounds[0].accuracy.unwrap();
    let late = report.final_accuracy();
    assert!(late > early, "no learning: round0 {early}, final {late}");
    assert!(late > 0.5, "final accuracy too low: {late}");
}
