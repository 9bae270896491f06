//! The observability contract:
//!
//! 1. the traced event stream and the metrics snapshot are **bit for
//!    bit** invariant across execution backends and thread counts —
//!    the trace reads the same canonical round plans the engine
//!    executes, so `Lockstep` and `EventDriven{1,4,8}` must produce
//!    identical traces, and the metrics are read off the report;
//! 2. observing a run never changes it: the report of
//!    `run_observed` equals the report of `run`;
//! 3. metrics snapshots are byte-deterministic (identical JSON) across
//!    repeated runs, their digests are pinned, and they agree with a
//!    complete trace's own event counts;
//! 4. pre-observability artifacts (no `metrics` field) still load and
//!    validate against the store's resume predicate.

mod common;

use common::tiny;
use proptest::prelude::*;
use tifl::prelude::*;

/// The pinned scenario matrix of `tests/runspec.rs`, reused here so
/// the trace invariance claim covers every selection × aggregation ×
/// local-objective × re-profiling shape the round loop supports.
fn scenarios() -> Vec<(&'static str, ExperimentConfig, RunSpec)> {
    common::pinned_scenarios()
        .into_iter()
        .map(|(name, cfg, spec, _)| (name, cfg, spec))
        .collect()
}

/// Ring large enough that no tiny-scenario run ever wraps: record
/// equality below is over the *complete* stream.
const CAP: usize = 1 << 16;

// -- 1. backend & thread-count invariance ----------------------------------

#[test]
fn trace_and_metrics_are_backend_and_thread_invariant() {
    for (name, cfg, spec) in scenarios() {
        let lockstep = Runner::with_spec(&cfg, spec.clone()).run_observed(CAP);
        let lockstep_metrics = serde_json::to_string(&lockstep.metrics).expect("metrics serialize");
        assert!(
            !lockstep.records.is_empty(),
            "{name}: an observed run must produce a trace"
        );
        for threads in [1, 4, 8] {
            let event = Runner::with_spec(
                &cfg,
                RunSpec {
                    backend: ExecBackend::EventDriven { threads },
                    ..spec.clone()
                },
            )
            .run_observed(CAP);
            assert_eq!(
                lockstep.records, event.records,
                "{name}: EventDriven{{{threads}}} trace diverged from Lockstep"
            );
            assert_eq!(
                lockstep_metrics,
                serde_json::to_string(&event.metrics).expect("metrics serialize"),
                "{name}: EventDriven{{{threads}}} metrics diverged from Lockstep"
            );
            assert_eq!(
                lockstep.report, event.report,
                "{name}: observed reports diverged across backends"
            );
        }
    }
}

// -- 2. observation is free ------------------------------------------------

#[test]
fn observing_a_run_does_not_change_its_report() {
    for (name, cfg, spec) in scenarios() {
        let plain = Runner::with_spec(&cfg, spec.clone()).run();
        let observed = Runner::with_spec(&cfg, spec).run_observed(CAP);
        assert_eq!(
            plain, observed.report,
            "{name}: attaching an observer changed the training report"
        );
    }
}

// -- 3. byte-deterministic snapshots ---------------------------------------

#[test]
fn repeated_observed_runs_are_byte_identical() {
    let cfg = tiny(70);
    let spec = RunSpec {
        selection: SelectionStrategy::TierPolicy {
            policy: Policy::uniform(5),
        },
        ..RunSpec::default()
    };
    let a = Runner::with_spec(&cfg, spec.clone()).run_observed(CAP);
    let b = Runner::with_spec(&cfg, spec).run_observed(CAP);
    assert_eq!(a.records, b.records, "trace must be run-to-run identical");
    assert_eq!(
        serde_json::to_string(&a.metrics).expect("metrics serialize"),
        serde_json::to_string(&b.metrics).expect("metrics serialize"),
        "metrics snapshots must serialize to identical bytes"
    );
}

/// The cases whose metrics bytes are pinned: the scenario matrix plus
/// the shapes it lacks (timeouts, over-selection under a lossy codec, a
/// hierarchy, re-profiling that does not divide the horizon).
fn metrics_cases() -> Vec<(&'static str, ExperimentConfig, RunSpec)> {
    let mut timeouts = tiny(81);
    timeouts.profiler.tmax_sec = 0.5;
    let mut wide = tiny(82);
    wide.num_clients = 25;
    wide.clients_per_round = 3;
    let mut uneven = tiny(83);
    uneven.rounds = 10;
    let mut cases = scenarios();
    cases.extend([
        ("timeouts", timeouts, RunSpec::default()),
        (
            "adaptive+firstk+i8",
            wide,
            RunSpec {
                selection: SelectionStrategy::Adaptive { config: None },
                aggregation: Some(AggregationMode::FirstK { factor: 1.3 }),
                comm: Some(CommSpec::with_codec(CodecSpec::QuantizeI8)),
                ..RunSpec::default()
            },
        ),
        (
            "topk+hierarchy",
            tiny(84),
            RunSpec {
                comm: Some(CommSpec {
                    codec: CodecSpec::TopK { frac: 0.1 },
                    hierarchy: Some(HierarchySpec {
                        fan_out: 2,
                        plane_bps: 1.0e6,
                    }),
                    ..CommSpec::default()
                }),
                ..RunSpec::default()
            },
        ),
        (
            "uniform+reprofile3",
            uneven,
            RunSpec {
                selection: SelectionStrategy::TierPolicy {
                    policy: Policy::uniform(5),
                },
                reprofile_every: Some(3),
                ..RunSpec::default()
            },
        ),
    ]);
    cases
}

/// The `Digest128` of each case's metrics snapshot, as the run first
/// stored it. A change to any of these is a change to artifact bytes.
const METRICS_GOLDEN: [(&str, &str); 10] = [
    ("uniform-policy", "32128dd3f2709ce2304bd9b69352027b"),
    ("vanilla", "4fd2c5c9c68df82d7ae9f8043ab073c0"),
    ("adaptive", "2b519ccbc505aa0ea4ba1ed53f45f237"),
    ("overselect", "302e7c54196aa9a85a502b26c96805bb"),
    ("fedprox", "d8ed8a0c940c31ad3ef4dc47ec683f40"),
    ("uniform+reprofile", "eb3ec9c5693400b86173f03130e01109"),
    ("timeouts", "123d2650ea7ab729d646711056ef5cc8"),
    ("adaptive+firstk+i8", "5fad2c807c8281baee42644ccd4c69eb"),
    ("topk+hierarchy", "a6289080f4cd84ca88457296fa7b7369"),
    ("uniform+reprofile3", "9d76572d89c7724475e2e4e867699f31"),
];

/// The metrics a complete trace implies, counted off its events, must
/// be the ones read off the report.
fn assert_metrics_match_trace(name: &str, observed: &ObservedRun) {
    let records = &observed.records;
    let count = |f: fn(&TraceEvent) -> bool| records.iter().filter(|r| f(&r.event)).count() as u64;
    let ends = || {
        records.iter().filter_map(|r| match r.event {
            TraceEvent::RoundEnd {
                bytes_up,
                bytes_down,
                ..
            } => Some((r.vt, bytes_up, bytes_down)),
            _ => None,
        })
    };
    let traced = [
        (
            "profile_passes",
            count(|e| matches!(e, TraceEvent::ProfilePass { .. })),
        ),
        (
            "rounds",
            count(|e| matches!(e, TraceEvent::RoundEnd { .. })),
        ),
        (
            "dispatches",
            count(|e| matches!(e, TraceEvent::Dispatch { .. })),
        ),
        (
            "completes",
            count(|e| matches!(e, TraceEvent::Complete { .. })),
        ),
        (
            "timeouts",
            count(|e| matches!(e, TraceEvent::TimedOut { .. })),
        ),
        (
            "cancels",
            count(|e| matches!(e, TraceEvent::Cancelled { .. })),
        ),
        ("folds", count(|e| matches!(e, TraceEvent::Fold { .. }))),
        ("evals", count(|e| matches!(e, TraceEvent::Eval { .. }))),
        ("bytes_up", ends().map(|(_, up, _)| up).sum()),
        ("bytes_down", ends().map(|(_, _, down)| down).sum()),
    ];
    let metrics = &observed.metrics;
    for (counter, value) in traced {
        assert_eq!(metrics.counter(counter), Some(value), "{name}: {counter}");
    }
    let end = ends().next_back().map_or(0.0, |(vt, _, _)| vt);
    assert_eq!(metrics.gauge("virtual_time_sec"), Some(end), "{name}");
}

#[test]
fn metrics_bytes_are_pinned_on_every_backend() {
    let cases = metrics_cases();
    assert_eq!(cases.len(), METRICS_GOLDEN.len());
    for ((name, cfg, spec), (golden_name, golden)) in cases.iter().zip(METRICS_GOLDEN) {
        assert_eq!(*name, golden_name);
        let traced = Runner::with_spec(cfg, spec.clone()).run_observed(CAP);
        assert_metrics_match_trace(name, &traced);
        for spec in common::on_every_backend(spec) {
            let observed = Runner::with_spec(cfg, spec.clone()).run_observed(0);
            assert_eq!(
                Digest128::of_value(&observed.metrics).to_string(),
                golden,
                "{name} on {:?}: metrics bytes moved",
                spec.backend
            );
        }
    }
}

// -- structural sanity of the stream ---------------------------------------

#[test]
fn trace_structure_matches_the_run() {
    let cfg = tiny(70);
    let spec = RunSpec {
        selection: SelectionStrategy::TierPolicy {
            policy: Policy::uniform(5),
        },
        ..RunSpec::default()
    };
    let observed = Runner::with_spec(&cfg, spec).run_observed(CAP);
    let records = &observed.records;

    // Sequence numbers are the emission order and time never rewinds.
    for (i, r) in records.iter().enumerate() {
        assert_eq!(r.seq, i as u64, "complete stream in emission order");
    }
    for w in records.windows(2) {
        assert!(
            w[1].vt >= w[0].vt,
            "virtual time went backwards: {:?} -> {:?}",
            w[0],
            w[1]
        );
    }

    let count = |f: &dyn Fn(&TraceEvent) -> bool| records.iter().filter(|r| f(&r.event)).count();
    let rounds = cfg.rounds as usize;
    assert_eq!(
        count(&|e| matches!(e, TraceEvent::RoundStart { .. })),
        rounds
    );
    assert_eq!(count(&|e| matches!(e, TraceEvent::RoundEnd { .. })), rounds);

    // A tiered run profiles exactly once, before everything else.
    assert_eq!(count(&|e| matches!(e, TraceEvent::ProfilePass { .. })), 1);
    assert!(
        matches!(records[0].event, TraceEvent::ProfilePass { .. }),
        "the shared profiling pass opens the trace"
    );
    assert_eq!(records[0].vt, 0.0);

    // Evals fire on the session's eval cadence (plus the final round).
    let session = cfg.build_session(&SessionOverrides::default());
    let expected_evals = (0..cfg.rounds)
        .filter(|&r| session.is_eval_round(r))
        .count();
    assert_eq!(
        count(&|e| matches!(e, TraceEvent::Eval { .. })),
        expected_evals
    );

    // Every round's folds match its reported contributor count, and the
    // traced bytes reconcile with the report's communication totals.
    let folds = count(&|e| matches!(e, TraceEvent::Fold { .. }));
    let contributors: usize = observed
        .report
        .rounds
        .iter()
        .map(|r| r.aggregated.len())
        .sum();
    assert_eq!(folds, contributors);
    let traced_up: u64 = records
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::RoundEnd { bytes_up, .. } => Some(bytes_up),
            _ => None,
        })
        .sum();
    assert_eq!(traced_up, observed.report.total_bytes_up());

    // A vanilla run never profiles.
    let vanilla = Runner::with_spec(&tiny(70), RunSpec::default()).run_observed(CAP);
    assert_eq!(
        vanilla
            .records
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::ProfilePass { .. }))
            .count(),
        0
    );
}

#[test]
fn reprofiling_runs_trace_one_pass_per_segment() {
    let mut cfg = tiny(76);
    cfg.rounds = 16;
    let spec = RunSpec {
        selection: SelectionStrategy::TierPolicy {
            policy: Policy::uniform(5),
        },
        reprofile_every: Some(4),
        ..RunSpec::default()
    };
    let observed = Runner::with_spec(&cfg, spec).run_observed(CAP);
    let passes: Vec<&TraceRecord> = observed
        .records
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::ProfilePass { .. }))
        .collect();
    assert_eq!(passes.len(), 4, "16 rounds / reprofile_every(4) = 4 passes");
    assert_eq!(passes[0].vt, 0.0, "the first pass opens the run");
    for w in passes.windows(2) {
        assert!(w[1].vt > w[0].vt, "later passes happen mid-run");
    }
}

// -- 4. artifact back-compat ------------------------------------------------

#[test]
fn artifacts_without_metrics_still_load_and_validate() {
    let request = RunRequest {
        experiment: tiny(91),
        rounds: Some(4),
        seed: None,
        clients_per_round: None,
        spec: RunSpec::default(),
    };
    let observed = request.run_observed(0);
    let key = RunKey::of(&request);
    let mut artifact = RunArtifact::new(key, request.clone(), observed.report);
    artifact.metrics = Some(observed.metrics);

    let dir = std::env::temp_dir().join(format!("tifl-obs-compat-{}", std::process::id()));
    let store = RunStore::open(&dir).expect("store opens");
    store.write(&artifact).expect("artifact writes");
    assert!(
        store
            .load_checked(key)
            .expect("fresh artifact loads")
            .metrics
            .is_some(),
        "a freshly written artifact carries its metrics"
    );

    // Rewrite the file as a pre-observability artifact: no `metrics`
    // member at all, exactly what an old store contains.
    let text = std::fs::read_to_string(store.path_of(key)).expect("artifact readable");
    let mut value: serde::Value = serde_json::from_str(&text).expect("artifact parses");
    let serde::Value::Object(pairs) = &mut value else {
        panic!("artifact is a JSON object");
    };
    let before = pairs.len();
    pairs.retain(|(k, _)| k != "metrics");
    assert_eq!(pairs.len(), before - 1, "the metrics member was present");
    std::fs::write(
        store.path_of(key),
        serde_json::to_string_pretty(&value).expect("stripped artifact serializes"),
    )
    .expect("stripped artifact writes");

    let loaded = store
        .validate_checked(key, &request)
        .expect("a metrics-less artifact must still validate for resume");
    assert!(loaded.metrics.is_none());
    assert!(store.validate_checked(key, &request).is_ok());

    // An artifact from before the asynchronous mode was deleted still
    // lists its three always-zero counters: metrics are name-keyed, so
    // it loads, validates and audits clean.
    let metrics = artifact.metrics.as_mut().expect("set above");
    for name in ["async_arrivals", "async_stale", "async_timeouts"] {
        assert_eq!(metrics.counter(name), None, "{name} is gone from new runs");
        metrics.counters.push(tifl::obs::CounterSnap {
            name: name.to_string(),
            value: 0,
        });
    }
    store
        .write(&artifact)
        .expect("legacy-counter artifact writes");
    let loaded = store
        .validate_checked(key, &request)
        .expect("legacy counters must not invalidate an artifact");
    assert_eq!(loaded.metrics, artifact.metrics);
    let audit = audit_store(&store);
    assert!(audit.is_clean(), "{}", audit.render_text());
    let _ = std::fs::remove_dir_all(&dir);
}

// -- host-time phase profiling ---------------------------------------------

/// The (phase, round) shape of a host-span stream, split into the
/// deterministic part and the eval part. Backends emit Plan, Train and
/// Fold in the same per-round order, but Eval spans close wherever
/// eval results land on the coordinator (inline in lockstep, at
/// deferred patch application in the event engine) — so structure
/// comparison is: non-eval sequence exact, eval multiset equal.
type SpanShape = Vec<(Phase, u64)>;

fn span_shape(spans: &[HostSpan]) -> (SpanShape, SpanShape) {
    let (mut evals, non_evals): (Vec<_>, Vec<_>) = spans
        .iter()
        .map(|s| (s.phase, s.round))
        .partition(|(p, _)| *p == Phase::Eval);
    evals.sort_unstable_by_key(|&(_, r)| r);
    (non_evals, evals)
}

#[test]
fn host_span_structure_is_pinned_across_backends() {
    let cfg = tiny(70);
    let spec = RunSpec {
        selection: SelectionStrategy::TierPolicy {
            policy: Policy::uniform(5),
        },
        ..RunSpec::default()
    };
    let request = RunRequest {
        experiment: cfg.clone(),
        rounds: None,
        seed: None,
        clients_per_round: None,
        spec: spec.clone(),
    };
    let lockstep = request.run_observed_with_clock(CAP, FrozenClock::shared());
    let (base_seq, base_evals) = span_shape(&lockstep.host_spans);

    // The deterministic shape: one Profile pass, then Plan, Train,
    // Fold for every round, with evals on the session cadence.
    assert_eq!(base_seq[0], (Phase::Profile, 0));
    let rounds = cfg.rounds;
    for r in 0..rounds {
        let at = 1 + 3 * r as usize;
        assert_eq!(
            &base_seq[at..at + 3],
            &[(Phase::Plan, r), (Phase::Train, r), (Phase::Fold, r)],
            "round {r}: host spans must cover plan, train, fold in order"
        );
    }
    assert_eq!(base_seq.len(), 1 + 3 * rounds as usize);
    let session = cfg.build_session(&SessionOverrides::default());
    let expected_evals: Vec<(Phase, u64)> = (0..rounds)
        .filter(|&r| session.is_eval_round(r))
        .map(|r| (Phase::Eval, r))
        .collect();
    assert_eq!(base_evals, expected_evals);

    for threads in [1, 4] {
        let event_request = RunRequest {
            spec: RunSpec {
                backend: ExecBackend::EventDriven { threads },
                ..spec.clone()
            },
            ..request.clone()
        };
        let event = event_request.run_observed_with_clock(CAP, FrozenClock::shared());
        let (seq, evals) = span_shape(&event.host_spans);
        assert_eq!(
            seq, base_seq,
            "EventDriven{{{threads}}}: non-eval host-span sequence diverged"
        );
        assert_eq!(
            evals, base_evals,
            "EventDriven{{{threads}}}: eval host-span multiset diverged"
        );
        // Per-backend invariants: spans close in monotone order on the
        // frozen clock and every span is well-formed.
        for w in event.host_spans.windows(2) {
            assert!(w[1].end >= w[0].end, "spans must close in clock order");
        }
        for s in &event.host_spans {
            assert!(s.end > s.start, "frozen clock ticks inside every span");
        }
    }
}

#[test]
fn monitored_tier_evaluation_is_one_eval_span_per_monitored_round() {
    // Adaptive selection evaluates every tier's holdout set on the
    // coordinator every `interval` rounds (Algorithm 2); at population
    // scale that is most of what the engine does outside train, so it
    // must show up as host time of its round, on every backend.
    let cfg = tiny(72);
    let interval = 3;
    let request = RunRequest {
        experiment: cfg.clone(),
        rounds: None,
        seed: None,
        clients_per_round: None,
        spec: RunSpec {
            selection: SelectionStrategy::Adaptive {
                config: Some(AdaptiveConfig {
                    interval,
                    credits_per_tier: cfg.rounds,
                    gamma: 2.0,
                }),
            },
            ..RunSpec::default()
        },
    };
    // Rounds 2, 5, 8 and 11 are monitored; 2, 8 and 11 also evaluate
    // the global model, and carry two Eval spans.
    let session = cfg.build_session(&SessionOverrides::default());
    let mut expected: SpanShape = Vec::new();
    for r in 0..cfg.rounds {
        let monitored = (r + 1).is_multiple_of(interval);
        let spans = usize::from(session.is_eval_round(r)) + usize::from(monitored);
        expected.extend(std::iter::repeat_n((Phase::Eval, r), spans));
    }
    assert_eq!(expected.len(), 7 + 4);

    let lockstep = request.run_observed_with_clock(CAP, FrozenClock::shared());
    let (base_seq, base_evals) = span_shape(&lockstep.host_spans);
    assert_eq!(base_evals, expected, "Lockstep");
    for threads in [1, 4] {
        let mut event_request = request.clone();
        event_request.spec.backend = ExecBackend::EventDriven { threads };
        let event = event_request.run_observed_with_clock(CAP, FrozenClock::shared());
        let (seq, evals) = span_shape(&event.host_spans);
        assert_eq!(evals, expected, "EventDriven{{{threads}}}");
        assert_eq!(seq, base_seq, "EventDriven{{{threads}}}");
        assert_eq!(event.report, lockstep.report, "EventDriven{{{threads}}}");
    }
}

#[test]
fn a_lossy_run_carries_one_encode_span_per_round() {
    // Under a lossy codec every contributor encodes its upload where it
    // trained; the coordinator records the round's summed encode
    // seconds as one Encode span between Train and Fold, on every
    // backend. Identity runs (the pins above) carry none.
    let cfg = tiny(70);
    let request = RunRequest {
        experiment: cfg.clone(),
        rounds: None,
        seed: None,
        clients_per_round: None,
        spec: RunSpec {
            comm: Some(CommSpec::with_codec(CodecSpec::TopK { frac: 0.1 })),
            ..RunSpec::default()
        },
    };
    let rounds = cfg.rounds;
    for backend in [
        ExecBackend::Lockstep,
        ExecBackend::EventDriven { threads: 1 },
        ExecBackend::EventDriven { threads: 4 },
    ] {
        let mut backend_request = request.clone();
        backend_request.spec.backend = backend;
        let frozen = backend_request.run_observed_with_clock(CAP, FrozenClock::shared());
        let (seq, _) = span_shape(&frozen.host_spans);
        let expected: SpanShape = (0..rounds)
            .flat_map(|r| {
                [Phase::Plan, Phase::Train, Phase::Encode, Phase::Fold].map(|phase| (phase, r))
            })
            .collect();
        assert_eq!(seq, expected, "{backend:?}");
        for s in &frozen.host_spans {
            assert!(s.end > s.start, "{backend:?}: every span is well-formed");
        }

        let real = backend_request.run_observed(CAP);
        assert_eq!(real.report, frozen.report, "{backend:?}");
        assert!(
            real.host_phases.encode_sec > 0.0,
            "{backend:?}: a top-k run spends host time encoding"
        );
    }
}

#[test]
fn profiling_never_touches_the_deterministic_surface() {
    let cfg = tiny(70);
    let spec = RunSpec {
        selection: SelectionStrategy::TierPolicy {
            policy: Policy::uniform(5),
        },
        ..RunSpec::default()
    };
    let request = RunRequest {
        experiment: cfg,
        rounds: None,
        seed: None,
        clients_per_round: None,
        spec,
    };
    // Swapping the host clock can never change the report, the trace,
    // the metrics bytes, or the run's content key.
    let real = request.run_observed(CAP);
    let frozen = request.run_observed_with_clock(CAP, FrozenClock::shared());
    assert_eq!(real.report, frozen.report);
    assert_eq!(real.records, frozen.records);
    assert_eq!(
        serde_json::to_string(&real.metrics).expect("metrics serialize"),
        serde_json::to_string(&frozen.metrics).expect("metrics serialize"),
    );
    assert_eq!(RunKey::of(&request), RunKey::of(&request.clone()));

    // Host measurements stay out of the artifact bytes entirely.
    let key = RunKey::of(&request);
    let mut artifact = RunArtifact::new(key, request, real.report);
    artifact.metrics = Some(real.metrics);
    let json = serde_json::to_string_pretty(&artifact).expect("artifact serializes");
    assert!(
        !json.contains("host_phases") && !json.contains("host_spans"),
        "host-time measurements must never reach deterministic artifact bytes"
    );
}

#[test]
fn host_chrome_export_adds_a_second_process_lane() {
    let cfg = tiny(70);
    let spec = RunSpec {
        selection: SelectionStrategy::TierPolicy {
            policy: Policy::uniform(5),
        },
        ..RunSpec::default()
    };
    let observed = Runner::with_spec(&cfg, spec).run_observed(CAP);
    let mut events = chrome_trace(&observed.records);
    let virtual_count = events.len();
    events.extend(host_chrome_trace(&observed.host_spans));
    assert!(virtual_count > 0 && events.len() > virtual_count);

    // The merged file is valid JSON with exactly two distinct pids.
    let json = serde_json::to_string(&events).expect("events serialize");
    let value: serde::Value = serde_json::from_str(&json).expect("merged trace is valid JSON");
    let serde::Value::Array(items) = &value else {
        panic!("a Chrome trace is a JSON array");
    };
    assert_eq!(items.len(), events.len());
    let mut pids: Vec<u64> = events.iter().map(|e| e.pid).collect();
    pids.sort_unstable();
    pids.dedup();
    assert_eq!(pids, vec![1, 2], "virtual lane is pid 1, host lane pid 2");
}

#[test]
fn deferred_eval_spans_carry_the_evaluation_time() {
    // On a pool the evaluation runs on a worker while the coordinator
    // moves on; its Eval span must still report how long the evaluation
    // took there — not the nanoseconds the report patch costs — or
    // `host_phase_sec.eval` silently reads zero for multi-threaded runs.
    let cfg = tiny(70);
    let spec = RunSpec {
        backend: ExecBackend::EventDriven { threads: 4 },
        ..RunSpec::default()
    };
    let observed = Runner::with_spec(&cfg, spec).run_observed(CAP);
    let evals: Vec<f64> = observed
        .host_spans
        .iter()
        .filter(|s| s.phase == Phase::Eval)
        .map(HostSpan::dur)
        .collect();
    assert!(!evals.is_empty());
    // A forward pass over the global test set takes tens of
    // microseconds even for tiny's model; two adjacent clock reads take
    // tens of nanoseconds.
    for dur in &evals {
        assert!(
            *dur > 2.0e-6,
            "eval span of {dur} s is a patch, not an eval"
        );
    }
    let total: f64 = evals.iter().sum();
    assert!((observed.host_phases.eval_sec - total).abs() < 1e-9);
}

// -- randomised invariance --------------------------------------------------

/// A shrunken resource-heterogeneity config for proptest speed (the
/// same shape `tests/exec_backend.rs` draws from).
fn small_resource_het(seed: u64, rounds: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::cifar10_resource_het(seed);
    cfg.num_clients = 10;
    cfg.clients_per_round = 2;
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
    /// On randomly drawn configurations, the virtual-time event
    /// sequence and the serialized metrics snapshot are identical
    /// across `Lockstep` and any `EventDriven` thread count, and
    /// across repeated runs.
    #[test]
    fn observed_stream_is_invariant_on_random_configs(
        seed in 0u64..1_000,
        rounds in 2u64..5,
        scenario in 0u8..4,
        threads in 1usize..8,
    ) {
        let cfg = small_resource_het(seed, rounds);
        let spec = spec_for(scenario);

        let lockstep = Runner::with_spec(&cfg, spec.clone()).run_observed(CAP);
        let event = Runner::with_spec(
            &cfg,
            RunSpec {
                backend: ExecBackend::EventDriven { threads },
                ..spec.clone()
            },
        )
        .run_observed(CAP);
        prop_assert_eq!(
            &lockstep.records, &event.records,
            "trace diverged: scenario {} seed {} threads {}",
            scenario, seed, threads
        );
        let lockstep_metrics =
            serde_json::to_string(&lockstep.metrics).expect("metrics serialize");
        prop_assert_eq!(
            &lockstep_metrics,
            &serde_json::to_string(&event.metrics).expect("metrics serialize"),
            "metrics diverged: scenario {} seed {} threads {}",
            scenario, seed, threads
        );

        // Run-to-run: the repeat is byte-identical, not merely equal.
        let again = Runner::with_spec(&cfg, spec).run_observed(CAP);
        prop_assert_eq!(&lockstep.records, &again.records);
        prop_assert_eq!(
            &lockstep_metrics,
            &serde_json::to_string(&again.metrics).expect("metrics serialize")
        );
    }
}
