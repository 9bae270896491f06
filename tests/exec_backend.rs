//! Property tests for the round loop's determinism contract: at the
//! ambient thread count (`Lockstep`) and on 1, 4 and 8 explicit threads
//! (`EventDriven`) a run must reproduce the serial reference — Algorithm
//! 1 from the session's public phase functions and batch FedAvg — with
//! identical round timelines (the full per-round report series: times,
//! latencies, selections, aggregations, accuracies) and identical final
//! global weights, on randomly drawn small `cifar10_resource_het`
//! configurations across the composable spec axes.

mod common;

use common::{on_every_backend, panic_message, serial_reference};
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

/// A training task that panics ends the run with its own message at
/// every thread count — on a pool the round loop used to wait forever
/// for the dead task's result. Under a lossy codec the task dies
/// holding the residual it was lent, which must not change that.
#[test]
fn a_panicking_training_task_ends_the_run_with_its_message() {
    for codec in [
        CodecSpec::Identity,
        CodecSpec::QuantizeI8,
        CodecSpec::TopK { frac: 0.1 },
    ] {
        let inline = training_panic_message(codec, 1);
        assert!(
            inline.contains("label"),
            "{codec:?}: a label-range panic: {inline}"
        );
        assert_eq!(training_panic_message(codec, 2), inline, "{codec:?}");
        assert_eq!(training_panic_message(codec, 4), inline, "{codec:?}");
    }
}

/// The message a three-round run under `codec` on `threads` threads
/// dies with when its contributors panic in training.
fn training_panic_message(codec: CodecSpec, threads: usize) -> String {
    panic_message(move || {
        // Every client holds two classes and the model knows two:
        // a contributor dies on the first label >= 2 it trains on,
        // so the round's slots die with different messages.
        let mut cfg = small_resource_het(7, 3);
        cfg.clients_per_round = 4;
        cfg.data = DataScenario::ClassLimit {
            per_client: 30,
            k: 2,
        };
        cfg.model = ModelSpec::Mlp {
            input: 64,
            hidden: 16,
            classes: 2,
        };
        cfg.comm = Some(CommSpec::with_codec(codec));
        let _ = cfg.runner().event_driven(threads).run();
    })
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
}
