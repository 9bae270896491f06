//! Integration tests for `tifl_sweep`, pinning the subsystem's three
//! contracts:
//!
//! 1. **Determinism** — a sweep executed with 1 or 4 workers is
//!    bit-for-bit identical to the same `RunRequest`s executed
//!    serially, on both execution backends (the worker pool is an
//!    execution knob, never a result knob);
//! 2. **Resume** — a sweep interrupted after k of n runs resumes,
//!    skips the completed run keys without touching their artifacts
//!    (mtime-checked), re-profiles only what the remaining runs need,
//!    and ends with artifacts byte-identical to an uninterrupted
//!    sweep's;
//! 3. **Expansion stability** — manifest expansion is a pure function
//!    of the manifest (order-stable) and `RunKey`s never collide
//!    across distinct cells (proptested over the axes).

mod common;

use proptest::prelude::*;
use tifl::prelude::*;

/// A shrunken §5.1 resource-heterogeneity config (the
/// `tests/exec_backend.rs` scaling): real 5-group CPU profile, small
/// data/model so a run is milliseconds.
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

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tifl-sweep-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The ISSUE's pinned matrix: selection × both backends on a small
/// `cifar10_resource_het`.
fn backend_matrix() -> SweepManifest {
    let mut manifest = SweepManifest::new(small_resource_het(42, 4));
    manifest.axes.selection = vec![
        SelectionStrategy::Vanilla,
        SelectionStrategy::TierPolicy {
            policy: Policy::uniform(5),
        },
        SelectionStrategy::Adaptive { config: None },
    ];
    manifest.axes.backend = vec![
        ExecBackend::Lockstep,
        ExecBackend::EventDriven { threads: 2 },
    ];
    manifest
}

#[test]
fn sweep_equals_serial_request_loop_bit_for_bit() {
    let manifest = backend_matrix();
    let runs = manifest.expand();
    assert_eq!(runs.len(), 6);

    // The reference: each expanded request executed serially through
    // the plain (unshared, uncached) `RunRequest::run` path.
    let serial: Vec<TrainingReport> = runs.iter().map(|r| r.request.run()).collect();

    for workers in [1, 4] {
        let sweep = SweepScheduler::new(workers).execute(&runs, None, false);
        assert_eq!(sweep.failed(), 0, "workers={workers}");
        let reports = sweep.into_reports().expect("no run fails");
        assert_eq!(
            reports, serial,
            "sweep(workers={workers}) diverged from the serial loop"
        );
    }
}

#[test]
fn sweep_shares_one_profile_per_topology() {
    let manifest = backend_matrix();
    let sweep = SweepScheduler::new(4).execute(&manifest.expand(), None, false);
    // One experiment, one comm axis: the four tiered/adaptive cells
    // (2 selections × 2 backends) share a single profiling pass.
    assert_eq!(sweep.profiles_computed, 1);
}

#[test]
fn sweep_builds_one_dataset_per_experiment() {
    // One experiment: the first of the six cells to arrive builds, the
    // other five train on its dataset.
    let mut manifest = backend_matrix();
    let sweep = SweepScheduler::new(4).execute(&manifest.expand(), None, false);
    assert_eq!((sweep.datasets_built, sweep.dataset_cache_hits), (1, 5));

    // The seed and the pool size both change the data; nothing else
    // on the axes does.
    manifest.axes.seeds = vec![42, 43];
    let sweep = SweepScheduler::new(4).execute(&manifest.expand(), None, false);
    assert_eq!((sweep.datasets_built, sweep.dataset_cache_hits), (2, 10));
    manifest.axes.clients = vec![10, 15, 20];
    manifest.axes.seeds = vec![42];
    let sweep = SweepScheduler::new(2).execute(&manifest.expand(), None, false);
    assert_eq!(sweep.failed(), 0);
    assert_eq!((sweep.datasets_built, sweep.dataset_cache_hits), (3, 15));
    let summary = sweep.summary(None);
    assert_eq!(
        (summary.datasets_built, summary.dataset_cache_hits),
        (3, 15)
    );
}

#[test]
fn cells_of_one_experiment_share_their_data_and_nothing_else() {
    // Two cells of one experiment on two workers, one lossless and one
    // sparsifying with error feedback: each session keeps residuals,
    // scratch and a clock of its own, so over one shared dataset both
    // still equal their unshared `RunRequest::run`.
    let mut manifest = SweepManifest::new(small_resource_het(42, 6));
    manifest.axes.codec = vec![CodecSpec::Identity, CodecSpec::TopK { frac: 0.1 }];
    let runs = manifest.expand();
    let serial: Vec<TrainingReport> = runs.iter().map(|r| r.request.run()).collect();
    assert_ne!(serial[0].rounds, serial[1].rounds, "the codecs must differ");
    let sweep = SweepScheduler::new(2).execute(&runs, None, false);
    assert_eq!((sweep.datasets_built, sweep.dataset_cache_hits), (1, 1));
    assert_eq!(sweep.into_reports().expect("no run fails"), serial);
}

#[test]
fn a_dataset_that_cannot_be_built_fails_its_cells_and_no_others() {
    // Materialisation rejects a client with no samples. Every cell of
    // that experiment must try the build itself and store its message
    // — the first one's panic leaves the shared slot empty, not wedged
    // — while the experiment scheduled after it completes.
    let mut bad = backend_matrix();
    bad.experiment.data = DataScenario::Iid { per_client: 0 };
    let mut runs = bad.expand();
    runs.append(&mut backend_matrix().expand());
    for (i, run) in runs.iter_mut().enumerate() {
        run.index = i;
    }
    for workers in [1, 2, 4] {
        let runs = runs.clone();
        let sweep = common::within_two_minutes(move || {
            SweepScheduler::new(workers).execute(&runs, None, false)
        })
        .expect("the scheduler contains a failing build");
        assert_eq!((sweep.failed(), sweep.completed()), (6, 6), "{workers}");
        for (outcome, failure) in sweep.outcomes.iter().zip(sweep.failures()) {
            assert!(outcome.is_failed(), "{workers}: {}", outcome.label());
            assert!(
                failure.2.contains("has no samples"),
                "{workers}: {failure:?}"
            );
        }
        assert_eq!((sweep.datasets_built, sweep.dataset_cache_hits), (1, 5));
    }
}

#[test]
fn interrupted_sweep_resumes_to_byte_identical_artifacts() {
    let mut full = SweepManifest::new(small_resource_het(7, 3));
    full.axes.seeds = vec![7, 8];
    full.axes.selection = vec![
        SelectionStrategy::Vanilla,
        SelectionStrategy::TierPolicy {
            policy: Policy::uniform(5),
        },
        SelectionStrategy::TierPolicy {
            policy: Policy::fast(5),
        },
    ];
    let runs = full.expand();
    assert_eq!(runs.len(), 6);

    // Reference: the uninterrupted sweep.
    let clean_dir = tmp_dir("clean");
    let clean_store = RunStore::open(&clean_dir).expect("store opens");
    let clean = SweepScheduler::new(2).execute(&full.expand(), Some(&clean_store), false);
    assert_eq!(clean.completed(), 6);
    assert_eq!(clean.profiles_computed, 2, "one profile per seed");

    // "Interrupted after k of n": only the first seed's 3 runs got to
    // execute before the kill.
    let mut prefix = full.clone();
    prefix.axes.seeds = vec![7];
    let resumed_dir = tmp_dir("resumed");
    let resumed_store = RunStore::open(&resumed_dir).expect("store opens");
    let partial = SweepScheduler::new(2).execute(&prefix.expand(), Some(&resumed_store), false);
    assert_eq!(partial.completed(), 3);
    assert_eq!(partial.profiles_computed, 1);
    let pre_existing: Vec<(std::path::PathBuf, std::time::SystemTime)> = resumed_store
        .keys()
        .into_iter()
        .map(|k| {
            let path = resumed_store.path_of(k);
            let mtime = std::fs::metadata(&path).and_then(|m| m.modified()).unwrap();
            (path, mtime)
        })
        .collect();
    assert_eq!(pre_existing.len(), 3);

    // Resume the full manifest over the half-filled store.
    let resumed = SweepScheduler::new(2).execute(&full.expand(), Some(&resumed_store), true);
    assert_eq!(resumed.skipped(), 3, "completed run keys must be skipped");
    assert_eq!(resumed.completed(), 3);
    assert_eq!(
        resumed.profiles_computed, 1,
        "resume must re-profile only the un-run seed's topology"
    );
    for (path, mtime) in &pre_existing {
        let now = std::fs::metadata(path).and_then(|m| m.modified()).unwrap();
        assert_eq!(
            now,
            *mtime,
            "resume rewrote a completed artifact: {}",
            path.display()
        );
    }

    // The resumed store is byte-identical to the uninterrupted one,
    // artifact for artifact.
    let keys = clean_store.keys();
    assert_eq!(keys.len(), 6);
    assert_eq!(keys, resumed_store.keys());
    for key in keys {
        let a = std::fs::read(clean_store.path_of(key)).expect("clean artifact");
        let b = std::fs::read(resumed_store.path_of(key)).expect("resumed artifact");
        assert_eq!(a, b, "artifact {key} diverged between clean and resumed");
    }

    // And the outcomes agree report-for-report with the clean sweep.
    assert_eq!(
        resumed.into_reports().expect("no run fails"),
        clean.into_reports().expect("no run fails")
    );

    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&resumed_dir);
}

#[test]
fn resume_reruns_cells_whose_artifacts_do_not_validate() {
    let mut manifest = SweepManifest::new(small_resource_het(3, 3));
    manifest.axes.seeds = vec![1, 2];
    let dir = tmp_dir("invalid");
    let store = RunStore::open(&dir).expect("store opens");
    let first = SweepScheduler::new(1).execute(&manifest.expand(), Some(&store), false);
    assert_eq!(first.completed(), 2);

    // Corrupt one artifact; a manifest edit changes the other cell's
    // key entirely (so its old artifact is simply unreferenced).
    let keys = store.keys();
    std::fs::write(store.path_of(keys[0]), "not json").expect("corrupt");
    let resumed = SweepScheduler::new(1).execute(&manifest.expand(), Some(&store), true);
    assert_eq!(resumed.completed(), 1, "corrupt artifact must re-run");
    assert_eq!(resumed.skipped(), 1);
    for run in manifest.expand() {
        assert!(store.validate_checked(run.key, &run.request).is_ok());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_runs_do_not_sink_the_sweep() {
    // vanilla selection + re-profiling is rejected by the runner with a
    // panic; schedule it between two good runs and make sure only that
    // cell fails — and that nothing was persisted for it.
    let good = SweepManifest::new(small_resource_het(5, 3));
    let mut runs = good.expand();
    let mut bad_request = runs[0].request.clone();
    bad_request.spec.reprofile_every = Some(1);
    bad_request.seed = Some(99);
    let bad = KeyedRun {
        index: 1,
        key: RunKey::of(&bad_request),
        request: bad_request,
    };
    let mut more = SweepManifest::new(small_resource_het(6, 3)).expand();
    runs.push(bad);
    runs.append(&mut more);
    for (i, run) in runs.iter_mut().enumerate() {
        run.index = i;
    }

    let dir = tmp_dir("panic");
    let store = RunStore::open(&dir).expect("store opens");
    let sweep = SweepScheduler::new(2).execute(&runs, Some(&store), false);
    assert_eq!(sweep.completed(), 2);
    assert_eq!(sweep.failed(), 1);
    assert!(sweep.outcomes[1].is_failed());
    assert!(sweep.failures()[0]
        .2
        .contains("re-profiling requires a tiered policy"));
    assert_eq!(store.keys().len(), 2, "failed runs leave no artifact");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_cell_that_dies_in_a_parallel_section_reports_its_own_panic() {
    // An infinite feature skew is rejected where the first client's
    // style is drawn: inside materialisation's parallel section. One
    // worker owns every core, so its cell materialises in parallel and
    // the panic crosses the rayon shim's threads; two workers on a
    // two-core host materialise serially. The stored message must be
    // the panic's own either way, not `thread::scope`'s.
    let mut cfg = small_resource_het(7, 3);
    cfg.feature_skew = f32::INFINITY;
    let runs = SweepManifest::new(cfg).expand();
    for workers in [1, 2] {
        let sweep = SweepScheduler::new(workers).execute(&runs, None, false);
        assert_eq!(sweep.failed(), 1, "{workers} workers");
        let message = &sweep.failures()[0].2;
        assert!(
            message.contains("valid normal"),
            "{workers} workers: {message}"
        );
    }
}

#[test]
fn a_cell_whose_training_task_dies_on_a_pool_is_stored_as_failed() {
    // A model with half the data's classes panics inside a training
    // task; on two threads that task runs on a pool worker, where the
    // round loop used to wait forever for its result. The sweep runs on
    // a thread of its own so a hang fails the test instead.
    let mut bad = small_resource_het(8, 3);
    bad.model = ModelSpec::Mlp {
        input: 64,
        hidden: 16,
        classes: 5,
    };
    let mut manifest = SweepManifest::new(bad);
    manifest.axes.backend = vec![ExecBackend::EventDriven { threads: 2 }];
    let mut runs = manifest.expand();
    runs.append(&mut SweepManifest::new(small_resource_het(8, 3)).expand());
    for (i, run) in runs.iter_mut().enumerate() {
        run.index = i;
    }

    let sweep =
        common::within_two_minutes(move || SweepScheduler::new(2).execute(&runs, None, false))
            .expect("the scheduler contains a cell's panic");
    assert!(sweep.outcomes[0].is_failed());
    let message = &sweep.failures()[0].2;
    assert!(message.contains("out of range for 5 classes"), "{message}");
    assert_eq!((sweep.failed(), sweep.completed()), (1, 1));
}

#[test]
fn sweep_builder_runs_comm_and_aggregation_axes() {
    // A cross of lossy codecs and aggregation modes — cells the legacy
    // figure loops never expressed — all through one builder chain.
    let mut builder = SweepBuilder::new(small_resource_het(9, 3));
    let sweep = builder
        .codecs([CodecSpec::Identity, CodecSpec::QuantizeI8])
        .aggregations([None, Some(AggregationMode::FirstK { factor: 1.5 })])
        .workers(2)
        .run();
    assert_eq!(sweep.failed(), 0);
    let reports = sweep.into_reports().expect("no run fails");
    assert_eq!(reports.len(), 4);
    let labels: Vec<&str> = reports.iter().map(|r| r.policy.as_str()).collect();
    assert_eq!(
        labels,
        vec![
            "vanilla",
            "vanilla+i8",
            "overselect(1.5)",
            "overselect(1.5)+i8"
        ]
    );
}

// -- CLI end-to-end ----------------------------------------------------------

#[test]
fn run_spec_cli_out_writes_the_full_report_json() {
    // `tifl run --spec run.json --out report.json` must write the full
    // TrainingReport through the sweep store's serializer, so the file
    // parses back into exactly the in-process report.
    let request = RunRequest {
        experiment: ExperimentConfig::tiny(91),
        rounds: Some(4),
        seed: None,
        clients_per_round: None,
        spec: RunSpec::default(),
    };
    let dir = tmp_dir("cli-out");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let spec_path = dir.join("run.json");
    let out_path = dir.join("report.json");
    std::fs::write(&spec_path, serde_json::to_string_pretty(&request).unwrap())
        .expect("write spec");

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_tifl"))
        .args([
            "run",
            "--spec",
            spec_path.to_str().unwrap(),
            "--out",
            out_path.to_str().unwrap(),
        ])
        .output()
        .expect("tifl binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "tifl run --spec --out failed: {stdout}"
    );
    assert!(stdout.contains("wrote full report to"), "stdout: {stdout}");

    let text = std::fs::read_to_string(&out_path).expect("report written");
    let report: TrainingReport = serde_json::from_str(&text).expect("report parses");
    assert_eq!(report, request.run(), "file must round-trip the report");
    // Same serializer as the sweep store: pretty JSON + trailing
    // newline.
    assert!(text.ends_with('\n'));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_cli_executes_and_resumes_a_manifest() {
    let mut manifest = SweepManifest::new(small_resource_het(33, 3));
    manifest.name = Some("cli-e2e".into());
    manifest.axes.selection = vec![
        SelectionStrategy::Vanilla,
        SelectionStrategy::TierPolicy {
            policy: Policy::uniform(5),
        },
    ];
    let dir = tmp_dir("cli-sweep");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let manifest_path = dir.join("sweep.json");
    let arts = dir.join("arts");
    std::fs::write(
        &manifest_path,
        serde_json::to_string_pretty(&manifest).unwrap(),
    )
    .expect("write manifest");

    let run_cli = |extra: &[&str]| {
        let mut args = vec![
            "sweep",
            manifest_path.to_str().unwrap(),
            "--workers",
            "2",
            "--out",
            arts.to_str().unwrap(),
        ];
        args.extend_from_slice(extra);
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_tifl"))
            .args(&args)
            .output()
            .expect("tifl binary runs");
        assert!(
            out.status.success(),
            "tifl {args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };

    let first = run_cli(&[]);
    assert!(
        first.contains("2 completed, 0 skipped, 0 failed"),
        "first pass: {first}"
    );
    let store = RunStore::open(&arts).expect("store opens");
    assert_eq!(store.keys().len(), 2);
    for run in manifest.expand() {
        assert!(store.validate_checked(run.key, &run.request).is_ok());
    }
    assert!(store.summary_path().exists(), "summary sidecar written");

    let second = run_cli(&["--resume"]);
    assert!(
        second.contains("0 completed, 2 skipped, 0 failed"),
        "resume pass: {second}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_cli_streams_progress_and_writes_worker_lanes_to_the_summary() {
    // `tifl sweep --progress`: one JSONL event per line, opened by
    // `sweep_started`, closed by `sweep_finished`, one `run_finished`
    // per cell in between; the summary sidecar says where the host
    // time went and which worker ran what.
    let mut manifest = SweepManifest::new(small_resource_het(35, 3));
    manifest.axes.seeds = vec![35, 36];
    manifest.axes.selection = vec![
        SelectionStrategy::Vanilla,
        SelectionStrategy::TierPolicy {
            policy: Policy::uniform(5),
        },
        SelectionStrategy::Adaptive { config: None },
    ];
    let dir = tmp_dir("cli-progress");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (manifest_path, arts, progress) = (
        dir.join("sweep.json"),
        dir.join("arts"),
        dir.join("progress.jsonl"),
    );
    std::fs::write(&manifest_path, serde_json::to_string(&manifest).unwrap())
        .expect("write manifest");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_tifl"))
        .arg("sweep")
        .arg(&manifest_path)
        .args(["--workers", "2", "--out"])
        .arg(&arts)
        .arg("--progress")
        .arg(&progress)
        .output()
        .expect("tifl binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let events: Vec<ProgressEvent> = std::fs::read_to_string(&progress)
        .expect("progress log written")
        .lines()
        .map(|line| serde_json::from_str(line).expect("one event per line"))
        .collect();
    assert_eq!(
        events.first().map(|e| e.event.as_str()),
        Some("sweep_started")
    );
    assert_eq!(
        events.last().map(|e| e.event.as_str()),
        Some("sweep_finished")
    );
    let finished: Vec<_> = events
        .iter()
        .filter(|e| e.event == "run_finished")
        .collect();
    assert_eq!(finished.len(), 6, "{events:?}");
    assert!(finished
        .iter()
        .all(|e| e.worker.is_some() && e.phases.is_some()));

    let store = RunStore::open(&arts).expect("store opens");
    let sidecar = std::fs::read_to_string(store.summary_path()).expect("summary sidecar");
    for field in ["\"host_phase_sec\"", "\"worker_lanes\""] {
        assert!(sidecar.contains(field), "no {field} in {sidecar}");
    }
    let summary: SweepSummary = serde_json::from_str(&sidecar).expect("summary parses");
    let lane_runs: usize = summary.worker_lanes.iter().map(|l| l.runs.len()).sum();
    assert_eq!(lane_runs, 6, "every run is on one worker's lane");
    let _ = std::fs::remove_dir_all(&dir);
}

// -- property tests ----------------------------------------------------------

/// Build a manifest from proptest-drawn axis subsets. Drawn indices
/// are deduplicated (first occurrence wins) before indexing the fixed
/// pools, so values within an axis are distinct and every expanded
/// cell is a genuinely different request.
fn manifest_from(
    seeds: Vec<u64>,
    selection_idx: Vec<usize>,
    aggregation_idx: Vec<usize>,
    local_idx: Vec<usize>,
    codec_idx: Vec<usize>,
    backend_idx: Vec<usize>,
) -> SweepManifest {
    let selections = [
        SelectionStrategy::Vanilla,
        SelectionStrategy::TierPolicy {
            policy: Policy::uniform(5),
        },
        SelectionStrategy::TierPolicy {
            policy: Policy::fast(5),
        },
        SelectionStrategy::Adaptive { config: None },
        SelectionStrategy::Deadline { deadline_sec: 9.0 },
    ];
    let aggregations = [
        None,
        Some(AggregationMode::WaitAll),
        Some(AggregationMode::FirstK { factor: 1.5 }),
    ];
    let locals = [
        LocalTraining::FedAvg,
        LocalTraining::FedProx { mu: 0.01 },
        LocalTraining::FedProx { mu: 0.1 },
    ];
    let codecs = [
        CodecSpec::Identity,
        CodecSpec::QuantizeI8,
        CodecSpec::TopK { frac: 0.25 },
    ];
    let backends = [
        ExecBackend::Lockstep,
        ExecBackend::EventDriven { threads: 2 },
        ExecBackend::EventDriven { threads: 4 },
    ];
    let mut seen_seeds = std::collections::BTreeSet::new();
    let mut manifest = SweepManifest::new(ExperimentConfig::tiny(1));
    manifest.axes.seeds = seeds
        .into_iter()
        .filter(|&s| seen_seeds.insert(s))
        .collect();
    manifest.axes.selection = distinct(&selection_idx)
        .map(|i| selections[i].clone())
        .collect();
    manifest.axes.aggregation = distinct(&aggregation_idx)
        .map(|i| aggregations[i])
        .collect();
    manifest.axes.local = distinct(&local_idx).map(|i| locals[i]).collect();
    manifest.axes.codec = distinct(&codec_idx).map(|i| codecs[i]).collect();
    manifest.axes.backend = distinct(&backend_idx).map(|i| backends[i]).collect();
    manifest
}

/// First occurrence of each index, in draw order.
fn distinct(indices: &[usize]) -> impl Iterator<Item = usize> + '_ {
    let mut seen = std::collections::BTreeSet::new();
    indices.iter().copied().filter(move |&i| seen.insert(i))
}

proptest! {
    /// Expansion is order-stable and `RunKey`s are collision-free
    /// across the axes: every distinct cell gets a distinct key, and
    /// re-expanding reproduces the exact same keyed list.
    #[test]
    fn prop_expansion_is_stable_and_keys_collision_free(
        seeds in prop::collection::vec(0u64..1000, 0..3),
        selection_idx in prop::collection::vec(0usize..5, 0..5),
        aggregation_idx in prop::collection::vec(0usize..3, 0..3),
        local_idx in prop::collection::vec(0usize..3, 0..3),
        codec_idx in prop::collection::vec(0usize..3, 0..3),
        backend_idx in prop::collection::vec(0usize..3, 0..3),
    ) {
        let manifest = manifest_from(
            seeds, selection_idx, aggregation_idx, local_idx, codec_idx, backend_idx,
        );
        let runs = manifest.expand();
        // Order-stable: a second expansion is identical, index for
        // index and key for key.
        prop_assert_eq!(&runs, &manifest.expand());
        for (i, run) in runs.iter().enumerate() {
            prop_assert_eq!(run.index, i);
        }
        // Collision-free: distinct resolved requests <-> distinct keys.
        let requests: std::collections::BTreeSet<String> = runs
            .iter()
            .map(|r| serde_json::to_string(&(r.request.experiment(), r.request.spec.clone())).unwrap())
            .collect();
        let keys: std::collections::BTreeSet<RunKey> =
            runs.iter().map(|r| r.key).collect();
        prop_assert_eq!(requests.len(), runs.len(), "expansion emitted duplicate cells");
        prop_assert_eq!(keys.len(), runs.len(), "run keys collided");
        // And keys really are content-stable: recomputing from the
        // request reproduces them.
        for run in &runs {
            prop_assert_eq!(run.key, RunKey::of(&run.request));
        }
    }
}

// -- LEAF through the front door ----------------------------------------------

#[test]
fn leaf_is_a_first_class_request_for_run_sweep_and_audit() {
    let tifl = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_tifl"))
            .args(args)
            .output()
            .expect("tifl binary runs");
        assert!(
            out.status.success(),
            "tifl {args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let dir = tmp_dir("leaf");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();

    // A LEAF RunRequest is ordinary JSON...
    let request = RunRequest {
        experiment: ExperimentConfig::leaf_femnist_tiny(77),
        rounds: None,
        seed: None,
        clients_per_round: None,
        spec: RunSpec::default(),
    };
    let json = serde_json::to_string_pretty(&request).unwrap();
    let back: RunRequest = serde_json::from_str(&json).expect("request parses back");
    assert_eq!(back, request);

    // ...that `tifl run --spec` executes: the vanilla LEAF run pinned
    // in tests/runspec.rs.
    std::fs::write(path("run.json"), json).expect("write spec");
    tifl(&["run", "--spec", &path("run.json"), "--out", &path("r.json")]);
    let report: TrainingReport =
        serde_json::from_str(&std::fs::read_to_string(path("r.json")).unwrap()).unwrap();
    assert_eq!(
        report.digest_chain().to_string(),
        "1d48d9e43f191dd9f7bf3e90648c7e7a"
    );

    // A two-cell LEAF sweep stores, resumes, audits clean and pivots
    // into one row per cell.
    let mut manifest = SweepManifest::new(ExperimentConfig::leaf_femnist_tiny(77));
    manifest.name = Some("leaf".into());
    manifest.axes.selection = vec![
        SelectionStrategy::Vanilla,
        SelectionStrategy::Adaptive { config: None },
    ];
    std::fs::write(
        path("sweep.json"),
        serde_json::to_string_pretty(&manifest).unwrap(),
    )
    .expect("write manifest");
    let sweep = |extra: &[&str]| {
        let (manifest, arts) = (path("sweep.json"), path("arts"));
        let mut args = vec!["sweep", &manifest, "--out", &arts];
        args.extend_from_slice(extra);
        tifl(&args)
    };
    let first = sweep(&[]);
    assert!(
        first.contains("2 completed, 0 skipped, 0 failed"),
        "{first}"
    );
    let second = sweep(&["--resume"]);
    assert!(
        second.contains("0 completed, 2 skipped, 0 failed"),
        "{second}"
    );
    let audit = tifl(&["audit", &path("arts"), "--deny"]);
    assert!(audit.contains("2 artifacts, 2 clean"), "audit: {audit}");
    let rows = tifl(&["report", &path("arts"), "--format", "json"]);
    let rows: Vec<tifl::obs::PivotRow> = serde_json::from_str(&rows).expect("pivot rows parse");
    assert_eq!(rows.len(), 2, "one pivot row per cell");
    let _ = std::fs::remove_dir_all(&dir);
}
