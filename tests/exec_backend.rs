//! Property tests for the round loop's determinism contract: at the
//! ambient thread count (`Lockstep`) and on 1, 4 and 8 explicit threads
//! (`EventDriven`) a run must reproduce the serial reference — Algorithm
//! 1 from the session's public phase functions and batch FedAvg — with
//! identical round timelines (the full per-round report series: times,
//! latencies, selections, aggregations, accuracies) and identical final
//! global weights, on randomly drawn small `cifar10_resource_het`
//! configurations across the composable spec axes.

mod common;

use common::{on_every_backend, serial_reference};
use proptest::prelude::*;
use tifl::prelude::*;

/// A shrunken §5.1 resource-heterogeneity config: the real 5-group CPU
/// profile and selection width, scaled down to proptest speed.
fn small_resource_het(seed: u64, rounds: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::cifar10_resource_het(seed);
    cfg.num_clients = 10; // 2 per hardware group
    cfg.clients_per_round = 2; // fits inside one tier
    cfg.rounds = rounds;
    cfg.data = DataScenario::Iid { per_client: 30 };
    cfg.model = ModelSpec::Mlp {
        input: 64,
        hidden: 16,
        classes: 10,
    };
    cfg.eval_every = 2;
    cfg.profiler = ProfilerConfig {
        sync_rounds: 2,
        tmax_sec: 1e6,
    };
    cfg
}

fn spec_for(scenario: u8) -> RunSpec {
    match scenario % 4 {
        0 => RunSpec::default(),
        1 => RunSpec {
            selection: SelectionStrategy::TierPolicy {
                policy: Policy::uniform(5),
            },
            ..RunSpec::default()
        },
        2 => RunSpec {
            aggregation: Some(AggregationMode::FirstK { factor: 1.6 }),
            ..RunSpec::default()
        },
        _ => RunSpec {
            selection: SelectionStrategy::Adaptive { config: None },
            local: LocalTraining::FedProx { mu: 0.05 },
            ..RunSpec::default()
        },
    }
}

proptest! {
    /// Backends and thread counts never change a run's outcome.
    #[test]
    fn backends_agree_on_timelines_and_final_weights(
        seed in 0u64..1_000,
        rounds in 2u64..5,
        scenario in 0u8..4,
    ) {
        let cfg = small_resource_het(seed, rounds);
        let spec = spec_for(scenario);

        let (serial, serial_weights) = serial_reference(&cfg, &spec);
        for backend_spec in on_every_backend(&spec) {
            let backend = backend_spec.backend.label();
            let (report, session) =
                Runner::with_spec(&cfg, backend_spec).run_with_session();
            // Identical round timelines: every RoundReport field —
            // virtual times, latencies, selection, aggregation order,
            // evaluated accuracies — compared exactly.
            prop_assert_eq!(
                &serial, &report,
                "scenario {} seed {} on {}", scenario, seed, backend
            );
            // Identical final weights, bit for bit.
            prop_assert_eq!(
                &serial_weights,
                session.global_params(),
                "final weights diverged: scenario {} seed {} on {}",
                scenario, seed, backend
            );
        }
    }

    /// The asynchronous mode (event-driven only) is itself
    /// thread-count invariant and respects its staleness bound.
    #[test]
    fn async_mode_is_thread_count_invariant(
        seed in 0u64..500,
        steps in 3u64..8,
        max_staleness in 0u64..4,
    ) {
        let cfg = small_resource_het(seed, steps);
        let run = |threads: usize| {
            cfg.runner()
                .vanilla()
                .event_driven(threads)
                .async_aggregation(max_staleness)
                .run()
        };
        let one = run(1);
        let four = run(4);
        let eight = run(8);
        prop_assert_eq!(&one, &four, "seed {} staleness {}", seed, max_staleness);
        prop_assert_eq!(&one, &eight, "seed {} staleness {} (8 threads)", seed, max_staleness);
        prop_assert_eq!(one.rounds.len() as u64, steps);
        // Every aggregation step folds at most one update, and a large
        // staleness bound discards nothing.
        for r in &one.rounds {
            prop_assert!(r.aggregated.len() <= 1);
        }
    }
}
