//! Shared by the integration suites: the pinned scenario grid with its
//! golden digest-chain heads, and the serial reference every thread
//! count is compared against.

#![allow(
    dead_code,
    reason = "each suite that includes this module uses only some of it"
)]

use tifl::prelude::*;
use tifl::tensor::{split_seed, ParamVec};

pub fn tiny(seed: u64) -> ExperimentConfig {
    ExperimentConfig::tiny(seed)
}

/// One pinned cell: name, experiment, spec, and the `digest_chain` head
/// its report had at the last commit with two round loops (22c929f,
/// where the lockstep loop, the event engine and the since-deleted
/// `run_*` methods all agreed on it). A change to any of these values
/// is a change of behaviour, whatever the thread count.
pub type Scenario = (&'static str, ExperimentConfig, RunSpec, &'static str);

/// The scenario grid `tests/runspec.rs`, `tests/comm.rs` and
/// `tests/obs.rs` pin: every selection × aggregation × local-objective
/// × re-profiling shape the round loop supports.
pub fn pinned_scenarios() -> Vec<Scenario> {
    let uniform = SelectionStrategy::TierPolicy {
        policy: Policy::uniform(5),
    };
    let mut reprofiled = tiny(76);
    reprofiled.rounds = 16;
    vec![
        (
            "uniform-policy",
            tiny(70),
            RunSpec {
                selection: uniform.clone(),
                ..RunSpec::default()
            },
            "3de4df8de8a9562b548c6bc9bea6c418",
        ),
        (
            "vanilla",
            tiny(70),
            RunSpec::default(),
            "1f07da737dc8b25e02bd2438dc00ebcd",
        ),
        (
            "adaptive",
            tiny(72),
            RunSpec {
                selection: SelectionStrategy::Adaptive { config: None },
                ..RunSpec::default()
            },
            "434ae8c96ceb13df6d04197b1678b49c",
        ),
        (
            "overselect",
            tiny(74),
            RunSpec {
                aggregation: Some(AggregationMode::FirstK { factor: 1.5 }),
                ..RunSpec::default()
            },
            "4a1cf016eec6ceac0540f2734e421f7b",
        ),
        (
            "fedprox",
            tiny(75),
            RunSpec {
                local: LocalTraining::FedProx { mu: 0.25 },
                ..RunSpec::default()
            },
            "dddea256f113d931c714c1cf39dbf4fa",
        ),
        (
            "uniform+reprofile",
            reprofiled,
            RunSpec {
                selection: uniform,
                reprofile_every: Some(4),
                ..RunSpec::default()
            },
            "453e9ff9fb490cc0585176abe4578f37",
        ),
    ]
}

/// `spec` on every backend the thread-count invariance tests cover:
/// the ambient count, then 1, 4 and 8 explicit threads.
pub fn on_every_backend(spec: &RunSpec) -> impl Iterator<Item = RunSpec> + '_ {
    let explicit = [1usize, 4, 8].map(|threads| ExecBackend::EventDriven { threads });
    std::iter::once(ExecBackend::Lockstep)
        .chain(explicit)
        .map(move |backend| RunSpec {
            backend,
            ..spec.clone()
        })
}

/// Algorithm 1 run serially from the session's public phase functions
/// and the batch `aggregate_fedavg` — no executor, no streaming fold.
/// Covers uncompressed specs without re-profiling; returns the report
/// and the final weights.
pub fn serial_reference(cfg: &ExperimentConfig, spec: &RunSpec) -> (TrainingReport, ParamVec) {
    assert!(spec.reprofile_every.is_none() && spec.comm.is_none());
    let seed = split_seed(cfg.seed, 0x5E1EC7);
    let tiers = || cfg.runner().tiers().clone();
    let mut selector: Box<dyn ClientSelector> = match &spec.selection {
        s if s.is_vanilla() => Box::new(RandomSelector::new(cfg.num_clients, seed)),
        SelectionStrategy::TierPolicy { policy } => {
            Box::new(StaticTierSelector::new(tiers(), policy.clone(), seed))
        }
        SelectionStrategy::Adaptive { config } => {
            let tiers = tiers();
            let config =
                config.unwrap_or_else(|| AdaptiveConfig::for_run(cfg.rounds, tiers.num_tiers()));
            Box::new(AdaptiveTierSelector::new(tiers, config, seed))
        }
        #[expect(clippy::panic, reason = "a test helper: the calling test fails")]
        other => panic!("no serial reference for {other:?}"),
    };
    let mut session = cfg.build_session(&spec.session_overrides());
    let rounds = (0..cfg.rounds)
        .map(|_| {
            let plan = session.plan_round(selector.as_mut());
            let updates: Vec<ClientUpdate> = plan
                .contributors
                .iter()
                .map(|&c| session.train_contributor(c, plan.round))
                .collect();
            let global = (!updates.is_empty()).then(|| tifl::fl::aggregate_fedavg(&updates));
            session.finish_round(plan, global, selector.as_mut(), true)
        })
        .collect();
    let policy = spec.display_label();
    (
        TrainingReport { policy, rounds },
        session.global_params().clone(),
    )
}

/// `run` on a thread of its own, so that a run which neither returns
/// nor panics within two minutes fails the test instead of hanging the
/// suite. `Err` is the payload `run` panicked with.
pub fn within_two_minutes<T: Send + 'static>(
    run: impl FnOnce() -> T + Send + 'static,
) -> std::thread::Result<T> {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)));
    });
    rx.recv_timeout(std::time::Duration::from_secs(120))
        .expect("the run hung")
}

/// The message `run` panics with (see [`within_two_minutes`]).
pub fn panic_message(run: impl FnOnce() + Send + 'static) -> String {
    let payload = within_two_minutes(run).expect_err("the run must panic");
    match payload.downcast::<String>() {
        Ok(message) => *message,
        Err(payload) => (*payload.downcast::<&str>().expect("a string payload")).to_string(),
    }
}
