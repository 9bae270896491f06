//! Whole-stack determinism: every experiment is a pure function of its
//! seed, regardless of rayon parallelism.

use tifl::core::scheduler::AdaptiveConfig;
use tifl::prelude::*;

#[test]
fn static_runs_identical_across_invocations() {
    let cfg = ExperimentConfig::tiny(11);
    let a = cfg.runner().policy(&Policy::uniform(5)).run();
    let b = cfg.runner().policy(&Policy::uniform(5)).run();
    assert_eq!(a, b);
}

#[test]
fn adaptive_runs_identical_across_invocations() {
    let cfg = ExperimentConfig::tiny(12);
    let acfg = AdaptiveConfig {
        interval: 3,
        credits_per_tier: 50,
        gamma: 2.0,
    };
    let a = cfg.runner().adaptive(Some(acfg)).run();
    let b = cfg.runner().adaptive(Some(acfg)).run();
    assert_eq!(a, b);
}

#[test]
fn different_seeds_give_different_runs() {
    let a = ExperimentConfig::tiny(13).runner().vanilla().run();
    let b = ExperimentConfig::tiny(14).runner().vanilla().run();
    assert_ne!(a, b);
}

#[test]
fn profiling_is_deterministic() {
    let cfg = ExperimentConfig::tiny(15);
    let (t1, p1) = cfg.profile_and_tier();
    let (t2, p2) = cfg.profile_and_tier();
    assert_eq!(t1, t2);
    assert_eq!(p1, p2);
}

#[test]
fn dataset_generation_is_deterministic() {
    let cfg = ExperimentConfig::tiny(16);
    let a = cfg.build_data();
    let b = cfg.build_data();
    assert_eq!(a.global_test, b.global_test);
    assert_eq!(a.clients[3].train, b.clients[3].train);
    assert_eq!(a.train_sizes(), b.train_sizes());
}

#[test]
fn leaf_runs_identical_across_invocations() {
    let exp = ExperimentConfig::leaf_femnist_tiny(17);
    let a = exp.runner().policy(&Policy::uniform(5)).run();
    let b = exp.runner().policy(&Policy::uniform(5)).run();
    assert_eq!(a, b);
}

#[test]
fn cifar10_resource_het_smoke_is_deterministic() {
    // Smoke test at the paper's §5.1 topology (50 clients, CIFAR CPU
    // profile, 400 samples/client): two independent runs from the same
    // seed must agree exactly. The 500-round paper horizon is cut to 25
    // rounds to keep the suite fast; determinism over a prefix implies
    // determinism over the run (each round is a pure function of the
    // previous state and the seed).
    let mut cfg = ExperimentConfig::cifar10_resource_het(42);
    cfg.rounds = 25;
    let a = cfg.runner().policy(&Policy::uniform(5)).run();
    let b = cfg.runner().policy(&Policy::uniform(5)).run();
    assert_eq!(a.final_accuracy(), b.final_accuracy());
    assert_eq!(a, b);
}

#[test]
fn thread_pool_size_does_not_change_results() {
    // Run the same experiment under two differently sized rayon pools;
    // per-client seeding must make the outcome identical.
    let run_with_threads = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        pool.install(|| {
            ExperimentConfig::tiny(18)
                .runner()
                .policy(&Policy::uniform(5))
                .run()
        })
    };
    assert_eq!(run_with_threads(1), run_with_threads(8));
}
