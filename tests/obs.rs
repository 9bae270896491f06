//! The observability contract:
//!
//! 1. the report's digest chain and the virtual-time Chrome lane are
//!    **bit for bit** invariant across execution backends and thread
//!    counts — the lane is read off the report (from the round plans
//!    `Runner::virtual_trace` rebuilds from it), so `Lockstep` and
//!    `EventDriven{1,4,8}` must produce identical bytes, which are
//!    pinned;
//! 2. observing a run never changes it: the report of
//!    `run_observed` equals the report of `run`;
//! 3. reports are byte-deterministic across repeated runs, their
//!    digest chains are pinned, and they agree with the Chrome lane's
//!    own event counts;
//! 4. an artifact stores its request and report and nothing derived
//!    from them, and loads and validates against the store's resume
//!    predicate.

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

/// An observed run of `spec` and its virtual-time Chrome lane.
fn traced(cfg: &ExperimentConfig, spec: &RunSpec) -> (ObservedRun, Vec<ChromeEvent>) {
    let mut runner = Runner::with_spec(cfg, spec.clone());
    let observed = runner.run_observed();
    let events = runner.virtual_trace(&observed.report);
    (observed, events)
}

/// The events of category `cat`.
fn of<'a>(events: &'a [ChromeEvent], cat: &'a str) -> impl Iterator<Item = &'a ChromeEvent> {
    events.iter().filter(move |e| e.cat == cat)
}

/// Where an event ends, in virtual seconds.
fn end_sec(e: &ChromeEvent) -> f64 {
    (e.ts + e.dur) / 1e6
}

/// The wire bytes a `fold c{c} r{r} ({bytes} B)` instant names.
fn fold_bytes(e: &ChromeEvent) -> u64 {
    let (_, tail) = e.name.rsplit_once('(').expect("a fold names its bytes");
    tail.trim_end_matches(" B)")
        .parse()
        .expect("fold bytes parse")
}

// -- 1. backend & thread-count invariance ----------------------------------

#[test]
fn trace_and_metrics_are_backend_and_thread_invariant() {
    for (name, cfg, spec) in scenarios() {
        let (lockstep, lockstep_trace) = traced(&cfg, &spec);
        assert!(
            !lockstep_trace.is_empty(),
            "{name}: a run must render a trace"
        );
        for threads in [1, 4, 8] {
            let (event, event_trace) = traced(
                &cfg,
                &RunSpec {
                    backend: ExecBackend::EventDriven { threads },
                    ..spec.clone()
                },
            );
            assert_eq!(
                lockstep_trace, event_trace,
                "{name}: EventDriven{{{threads}}} trace diverged from Lockstep"
            );
            assert_eq!(
                lockstep.report.digest_chain(),
                event.report.digest_chain(),
                "{name}: EventDriven{{{threads}}} digest chain diverged from Lockstep"
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
        let observed = Runner::with_spec(&cfg, spec).run_observed();
        assert_eq!(
            plain, observed.report,
            "{name}: observing a run changed its training report"
        );
    }
}

// -- 3. byte-deterministic reports -----------------------------------------

#[test]
fn repeated_observed_runs_are_byte_identical() {
    let cfg = tiny(70);
    let spec = RunSpec {
        selection: SelectionStrategy::TierPolicy {
            policy: Policy::uniform(5),
        },
        ..RunSpec::default()
    };
    let (a, a_trace) = traced(&cfg, &spec);
    let (b, b_trace) = traced(&cfg, &spec);
    assert_eq!(
        serde_json::to_string(&a_trace).expect("events serialize"),
        serde_json::to_string(&b_trace).expect("events serialize"),
        "the trace must be run-to-run byte-identical"
    );
    assert_eq!(
        serde_json::to_string(&a.report).expect("report serializes"),
        serde_json::to_string(&b.report).expect("report serializes"),
        "reports must serialize to identical bytes"
    );
}

/// The cases whose report digests and trace bytes are pinned: the
/// scenario matrix plus the shapes it lacks (timeouts, over-selection
/// under a lossy codec, a hierarchy, re-profiling that does not divide
/// the horizon).
fn pinned_cases() -> Vec<(&'static str, ExperimentConfig, RunSpec)> {
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

/// The `digest_chain()` of each case's report, taken before artifacts
/// stopped storing metrics beside it. A change to any of these is a
/// change to a run's results.
const REPORT_GOLDEN: [(&str, &str); 10] = [
    ("uniform-policy", "3de4df8de8a9562b548c6bc9bea6c418"),
    ("vanilla", "1f07da737dc8b25e02bd2438dc00ebcd"),
    ("adaptive", "434ae8c96ceb13df6d04197b1678b49c"),
    ("overselect", "4a1cf016eec6ceac0540f2734e421f7b"),
    ("fedprox", "dddea256f113d931c714c1cf39dbf4fa"),
    ("uniform+reprofile", "453e9ff9fb490cc0585176abe4578f37"),
    ("timeouts", "051eab2a59204b03b1ed56324a9efae0"),
    ("adaptive+firstk+i8", "66707d4bf03d7bca3319334f78e5624d"),
    ("topk+hierarchy", "f648d4e058705aee087839865dd49b91"),
    ("uniform+reprofile3", "6bd39d0aa6df523b05e6321b5e85d8a8"),
];

/// The Chrome lane of a run of `spec` on `cfg`, counted off its events
/// by category, must be the run its report records: every profiling
/// pass, round, dispatch, completion, timeout or cancellation, fold,
/// evaluation and uploaded byte, ending at the report's virtual time.
fn assert_trace_matches_report(
    name: &str,
    cfg: &ExperimentConfig,
    spec: &RunSpec,
    report: &TrainingReport,
    events: &[ChromeEvent],
) {
    let count = |cat| of(events, cat).count() as u64;
    let sum = |f: fn(&RoundReport) -> usize| report.rounds.iter().map(f).sum::<usize>() as u64;
    let rounds = report.rounds.len() as u64;
    let passes = match spec.reprofile_every {
        _ if !spec.selection.needs_profile() => 0,
        None => 1,
        Some(every) => rounds.div_ceil(every),
    };
    let config = cfg.session_config(&spec.session_overrides());
    let (dispatches, folds) = (sum(|r| r.selected.len()), sum(|r| r.aggregated.len()));
    let unfinished = dispatches - folds;
    let first_k = matches!(config.aggregation, AggregationMode::FirstK { .. });
    let evals = report
        .rounds
        .iter()
        .filter(|r| config.is_eval_round(r.round))
        .count() as u64;
    let expected = [
        ("profile", count("profile"), passes),
        ("round", count("round"), rounds),
        (
            "dispatch",
            events.iter().filter(|e| e.tid > 0).count() as u64,
            dispatches,
        ),
        ("train", count("train"), folds),
        (
            "timeout",
            count("timeout"),
            if first_k { 0 } else { unfinished },
        ),
        (
            "cancelled",
            count("cancelled"),
            if first_k { unfinished } else { 0 },
        ),
        ("fold", count("fold"), folds),
        ("eval", count("eval"), evals),
        (
            "bytes_up",
            of(events, "fold").map(fold_bytes).sum(),
            report.total_bytes_up(),
        ),
    ];
    for (what, traced, reported) in expected {
        assert_eq!(traced, reported, "{name}: {what}");
    }
    // The last round span closes at the run's virtual end (up to the
    // microsecond scaling of the Chrome timestamps).
    let end = of(events, "round").last().map_or(0.0, end_sec);
    let time = report.total_time();
    assert!(
        (end - time).abs() <= 1e-9 * time.max(1.0),
        "{name}: {end} vs {time}"
    );
}

#[test]
fn report_digests_are_pinned_on_every_backend() {
    let cases = pinned_cases();
    assert_eq!(cases.len(), REPORT_GOLDEN.len());
    for ((name, cfg, spec), (golden_name, golden)) in cases.iter().zip(REPORT_GOLDEN) {
        assert_eq!(*name, golden_name);
        let (observed, events) = traced(cfg, spec);
        assert_trace_matches_report(name, cfg, spec, &observed.report, &events);
        for spec in common::on_every_backend(spec) {
            let observed = Runner::with_spec(cfg, spec.clone()).run_observed();
            assert_eq!(
                observed.report.digest_chain().to_string(),
                golden,
                "{name} on {:?}: report digest chain moved",
                spec.backend
            );
        }
    }
}

/// The `Digest128` of each case's virtual-lane Chrome events (the
/// bytes `tifl trace --out` writes) and their count. They were taken
/// from a trace recorded while the run trained, so they also pin that
/// the lane laid out from the report is the trace that ran. A change to
/// any of these is a change to the trace a run renders.
const CHROME_GOLDEN: [(&str, &str, usize); 10] = [
    ("uniform-policy", "27abc3eaa6ac9402abcbd2503ae9011f", 68),
    ("vanilla", "08bc7c249e92cdf5b7c07e6d8617592e", 67),
    ("adaptive", "275d8fa7ac2ed50ef6708c74c5c1aec3", 68),
    ("overselect", "6f8e47312ee247d31b18ceab7f3c8f58", 79),
    ("fedprox", "d43caa737d7910915ecbf534b6565d42", 67),
    ("uniform+reprofile", "708bac143bc6b16177282517ff3a2a58", 93),
    ("timeouts", "ae0781a919b91c848d670f1908a88cff", 65),
    (
        "adaptive+firstk+i8",
        "71e03eecac0bd6a639bcf136117825a9",
        104,
    ),
    ("topk+hierarchy", "f14f367ebf7ef3faf2a5b2e17e2022cb", 67),
    ("uniform+reprofile3", "9aa2251e8b0013577c6d4552cd94a4f2", 60),
];

#[test]
fn chrome_bytes_are_pinned_on_every_backend() {
    let cases = pinned_cases();
    assert_eq!(cases.len(), CHROME_GOLDEN.len());
    for ((name, cfg, spec), (golden_name, golden, len)) in cases.iter().zip(CHROME_GOLDEN) {
        assert_eq!(*name, golden_name);
        for spec in common::on_every_backend(spec) {
            let (_, events) = traced(cfg, &spec);
            assert_eq!(events.len(), len, "{name} on {:?}", spec.backend);
            assert_eq!(
                Digest128::of_value(&events).to_string(),
                golden,
                "{name} on {:?}: Chrome bytes moved",
                spec.backend
            );
        }
    }
}

// -- structural sanity of the lane -----------------------------------------

#[test]
fn trace_structure_matches_the_run() {
    let cfg = tiny(70);
    let spec = RunSpec {
        selection: SelectionStrategy::TierPolicy {
            policy: Policy::uniform(5),
        },
        ..RunSpec::default()
    };
    let (observed, events) = traced(&cfg, &spec);
    let report = &observed.report;

    // A tiered run profiles exactly once, before everything else.
    assert_eq!(of(&events, "profile").count(), 1);
    assert_eq!(
        events[0].cat, "profile",
        "the shared profiling pass opens the trace"
    );
    assert_eq!(events[0].ts, 0.0);

    // One round span per round, each starting where the previous round
    // ended, and every client span inside its round.
    let rounds: Vec<&ChromeEvent> = of(&events, "round").collect();
    assert_eq!(rounds.len(), report.rounds.len());
    let mut start = 0.0;
    for (span, round) in rounds.iter().zip(&report.rounds) {
        assert_eq!(span.name, format!("round {}", round.round));
        assert_eq!(span.ts, start * 1e6);
        start = round.time;
        let suffix = format!(" r{}", round.round);
        let clients: Vec<&ChromeEvent> = events
            .iter()
            .filter(|e| e.tid > 0 && e.name.ends_with(&suffix))
            .collect();
        assert_eq!(clients.len(), round.selected.len());
        for c in clients {
            assert_eq!(c.ts, span.ts);
            assert!(c.dur <= span.dur, "{} outlasts its round", c.name);
        }
    }

    // Evals fire on the session's eval cadence (plus the final round).
    let session = cfg.build_session(&SessionOverrides::default());
    let expected_evals = (0..cfg.rounds)
        .filter(|&r| session.is_eval_round(r))
        .count();
    assert_eq!(of(&events, "eval").count(), expected_evals);

    // Every round's folds match its reported contributor count, and the
    // traced bytes reconcile with the report's communication totals.
    let contributors: usize = report.rounds.iter().map(|r| r.aggregated.len()).sum();
    assert_eq!(of(&events, "fold").count(), contributors);
    let traced_up: u64 = of(&events, "fold").map(fold_bytes).sum();
    assert_eq!(traced_up, report.total_bytes_up());

    // A vanilla run never profiles.
    let (_, vanilla) = traced(&tiny(70), &RunSpec::default());
    assert_eq!(of(&vanilla, "profile").count(), 0);
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
    let (observed, events) = traced(&cfg, &spec);
    let passes: Vec<usize> = (0..events.len())
        .filter(|&i| events[i].cat == "profile")
        .collect();
    assert_eq!(passes.len(), 4, "16 rounds / reprofile_every(4) = 4 passes");
    assert_eq!(events[passes[0]].ts, 0.0, "the first pass opens the run");
    // Each pass opens its segment: it sits where the segment's previous
    // round ended, just before the segment's first client span.
    for (k, &at) in passes.iter().enumerate() {
        let start = k
            .checked_sub(1)
            .map_or(0.0, |_| observed.report.rounds[4 * k - 1].time);
        assert_eq!(events[at].ts, start * 1e6, "pass {k}");
        assert!(
            events[at + 1].name.ends_with(&format!(" r{}", 4 * k)),
            "pass {k}"
        );
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
    let artifact = RunArtifact::new(key, request.clone(), observed.report);

    let dir = std::env::temp_dir().join(format!("tifl-obs-compat-{}", std::process::id()));
    let store = RunStore::open(&dir).expect("store opens");
    store.write(&artifact).expect("artifact writes");

    // The file holds the request, the report and its digest: no copy of
    // anything read off the report (its label or its metrics).
    let text = std::fs::read_to_string(store.path_of(key)).expect("artifact readable");
    let value: serde::Value = serde_json::from_str(&text).expect("artifact parses");
    let serde::Value::Object(pairs) = &value else {
        panic!("artifact is a JSON object");
    };
    let members: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        members,
        ["key", "host_parallelism", "request", "report", "digest"]
    );

    let loaded = store
        .validate_checked(key, &request)
        .expect("a fresh artifact validates for resume");
    assert_eq!(loaded, artifact);
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
    let lockstep = request.run_observed_with_clock(FrozenClock::shared());
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
        let event = event_request.run_observed_with_clock(FrozenClock::shared());
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
    // Rounds 2, 5 and 8 are monitored; 2 and 8 also evaluate the
    // global model, and carry two Eval spans. Round 11, the horizon's
    // last, evaluates the global model only: no selection follows it
    // to read its tiers' accuracies.
    let session = cfg.build_session(&SessionOverrides::default());
    let mut expected: SpanShape = Vec::new();
    for r in 0..cfg.rounds {
        let monitored = (r + 1).is_multiple_of(interval) && r + 1 != cfg.rounds;
        let spans = usize::from(session.is_eval_round(r)) + usize::from(monitored);
        expected.extend(std::iter::repeat_n((Phase::Eval, r), spans));
    }
    assert_eq!(expected.len(), 7 + 3);

    let lockstep = request.run_observed_with_clock(FrozenClock::shared());
    let (base_seq, base_evals) = span_shape(&lockstep.host_spans);
    assert_eq!(base_evals, expected, "Lockstep");
    for threads in [1, 4] {
        let mut event_request = request.clone();
        event_request.spec.backend = ExecBackend::EventDriven { threads };
        let event = event_request.run_observed_with_clock(FrozenClock::shared());
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
        let frozen = backend_request.run_observed_with_clock(FrozenClock::shared());
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

        let real = backend_request.run_observed(0);
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
        experiment: cfg.clone(),
        rounds: None,
        seed: None,
        clients_per_round: None,
        spec: spec.clone(),
    };
    // Swapping the host clock can never change the report, the trace,
    // or the run's content key.
    let (real, real_trace) = traced(&cfg, &spec);
    let mut runner = Runner::with_spec(&cfg, spec);
    runner.host_clock(FrozenClock::shared());
    let frozen = runner.run_observed();
    assert_eq!(real.report, frozen.report);
    assert_eq!(real_trace, runner.virtual_trace(&frozen.report));
    assert_eq!(RunKey::of(&request), RunKey::of(&request.clone()));

    // Host measurements stay out of the artifact bytes entirely.
    let key = RunKey::of(&request);
    let artifact = RunArtifact::new(key, request, real.report);
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
    let (observed, mut events) = traced(&cfg, &spec);
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
    let observed = Runner::with_spec(&cfg, spec).run_observed();
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
    /// On randomly drawn configurations, the virtual-time Chrome lane
    /// and the report's digest chain are identical across
    /// `Lockstep` and any `EventDriven` thread count, and across
    /// repeated runs.
    #[test]
    fn observed_stream_is_invariant_on_random_configs(
        seed in 0u64..1_000,
        rounds in 2u64..5,
        scenario in 0u8..4,
        threads in 1usize..8,
    ) {
        let cfg = small_resource_het(seed, rounds);
        let spec = spec_for(scenario);

        let (lockstep, lockstep_trace) = traced(&cfg, &spec);
        let (event, event_trace) = traced(
            &cfg,
            &RunSpec {
                backend: ExecBackend::EventDriven { threads },
                ..spec.clone()
            },
        );
        let lockstep_bytes = serde_json::to_string(&lockstep_trace).expect("events serialize");
        prop_assert_eq!(
            &lockstep_bytes,
            &serde_json::to_string(&event_trace).expect("events serialize"),
            "trace diverged: scenario {} seed {} threads {}",
            scenario, seed, threads
        );
        let lockstep_chain = lockstep.report.digest_chain();
        prop_assert_eq!(
            lockstep_chain,
            event.report.digest_chain(),
            "digest chain diverged: scenario {} seed {} threads {}",
            scenario, seed, threads
        );

        // Run-to-run: the repeat is byte-identical, not merely equal.
        let (again, again_trace) = traced(&cfg, &spec);
        prop_assert_eq!(
            &lockstep_bytes,
            &serde_json::to_string(&again_trace).expect("events serialize")
        );
        prop_assert_eq!(lockstep_chain, again.report.digest_chain());
    }
}
