//! The `RunSpec`/`Runner` API contract:
//!
//! 1. every scenario the deleted `run_*` methods used to cover is
//!    pinned, as a spec, to the golden digest its report had when those
//!    methods, the lockstep loop and the event engine all agreed on it;
//!    and every backend / thread count reproduces a serial reference
//!    built from the session's public phase functions;
//! 2. newly composable cells of the §5 evaluation matrix (FedProx ×
//!    adaptive tiering, over-selection × static tier policy, FedCS ×
//!    re-profiling) run and stay deterministic;
//! 3. a `Runner` profiles at most once per configuration no matter how
//!    many curves it serves;
//! 4. specs round-trip through JSON and drive full runs, including
//!    through the `tifl run --spec` CLI.

mod common;

use common::{on_every_backend, pinned_scenarios, serial_reference, tiny, within_two_minutes};
use tifl::obs::Digest128;
use tifl::prelude::*;

/// `tiny` with 4 clients per tier instead of 2, so tier-wise
/// over-selection (ask `ceil(|C|·factor)` *within one tier*) has a
/// large enough pool.
fn wide(seed: u64) -> ExperimentConfig {
    let mut cfg = tiny(seed);
    cfg.num_clients = 20;
    cfg
}

// -- 1. legacy equivalence -------------------------------------------------
//
// Each golden below is the `digest_chain` head the named legacy method
// returned at the last commit that had it (22c929f); the spec that
// replaced the method must keep reproducing it, bit for bit.
mod legacy_equivalence {
    use super::*;

    fn assert_golden(report: &TrainingReport, golden: &str, what: &str) {
        assert_eq!(report.digest_chain().to_string(), golden, "{what}");
    }

    #[test]
    fn run_policy_matches_spec_for_every_policy() {
        let cfg = tiny(70);
        let golden = [
            "1f07da737dc8b25e02bd2438dc00ebcd",
            "0162e217f77fffde6fc68934b6293535",
            "3de4df8de8a9562b548c6bc9bea6c418",
            "f3dd0aa680993732bb01ce686ec007f9",
            "247637e3a022c4d856522b35106f734b",
        ];
        for (policy, golden) in Policy::cifar_set(5).iter().zip(golden) {
            let spec = cfg.runner().policy(policy).run();
            assert_golden(&spec, golden, &policy.name);
            assert_eq!(spec.policy, policy.name);
        }
    }

    #[test]
    fn run_policy_session_matches_spec() {
        let cfg = tiny(71);
        let (spec, session) = cfg.runner().policy(&Policy::uniform(5)).run_with_session();
        assert_golden(&spec, "cd4052c6983d023c78c583a3655f0433", "report");
        assert_eq!(
            Digest128::of_value(session.global_params()).to_string(),
            "6ead26c2143d0480cb7de314ba8a26df",
            "final weights"
        );
    }

    #[test]
    fn run_adaptive_matches_spec_with_and_without_config() {
        let cfg = tiny(72);
        let default = cfg.runner().adaptive(None).run();
        assert_golden(&default, "434ae8c96ceb13df6d04197b1678b49c", "default");
        let acfg = AdaptiveConfig {
            interval: 3,
            credits_per_tier: 40,
            gamma: 1.5,
        };
        let explicit = cfg.runner().adaptive(Some(acfg)).run();
        assert_golden(&explicit, "d12508b26e1e3a544873a321b466271f", "explicit");
    }

    #[test]
    fn run_fedcs_matches_spec() {
        let mut cfg = tiny(73);
        cfg.cpu_profile = tifl::sim::resource::profiles::CIFAR.to_vec();
        let deadline = {
            let mut runner = cfg.runner();
            let lats = runner.tiers().tier_latencies();
            (lats[2] + lats[3]) / 2.0
        };
        let spec = cfg.runner().deadline(deadline).run();
        assert_golden(&spec, "e1b9acfce41d04617ce7dcbf8f6cf72e", "fedcs");
        assert_eq!(spec.policy, "fedcs");
    }

    #[test]
    fn run_overselection_matches_spec() {
        let spec = tiny(74).runner().vanilla().overselect(1.5).run();
        assert_golden(&spec, "4a1cf016eec6ceac0540f2734e421f7b", "overselect");
        assert_eq!(spec.policy, "overselect(1.5)");
    }

    #[test]
    fn run_fedprox_matches_spec() {
        let spec = tiny(75).runner().vanilla().fedprox(0.25).run();
        assert_golden(&spec, "dddea256f113d931c714c1cf39dbf4fa", "fedprox");
        assert_eq!(spec.policy, "fedprox(0.25)");
    }

    #[test]
    fn run_policy_with_reprofiling_matches_spec() {
        let mut cfg = tiny(76);
        cfg.rounds = 16;
        let spec = cfg
            .runner()
            .policy(&Policy::uniform(5))
            .reprofile_every(4)
            .run();
        assert_golden(&spec, "453e9ff9fb490cc0585176abe4578f37", "reprofile");
        assert_eq!(spec.policy, "uniform+reprofile");
    }

    #[test]
    fn leaf_run_methods_match_specs() {
        let exp = ExperimentConfig::leaf_femnist_tiny(77);
        let vanilla = exp.runner().vanilla().run();
        assert_golden(&vanilla, "1d48d9e43f191dd9f7bf3e90648c7e7a", "vanilla");
        let uniform = exp.runner().policy(&Policy::uniform(5)).run();
        assert_golden(&uniform, "ad0867d9a82836934145614a9bf48718", "uniform");
        let adaptive = exp.runner().adaptive(None).run();
        assert_golden(&adaptive, "ad0867d9a82836934145614a9bf48718", "adaptive");
    }
}

// -- 1b. thread-count invariance ---------------------------------------------
//
// An `ExecBackend` is a thread count and must never change results:
// every pinned scenario runs at the ambient count and on 1, 4 and 8
// threads, and each run must equal the golden digest and — where the
// serial reference covers the spec — the reference's full report and
// final weights, bit for bit.

#[test]
fn event_driven_matches_lockstep_on_every_pinned_scenario() {
    for (name, cfg, spec, golden) in pinned_scenarios() {
        let reference = spec
            .reprofile_every
            .is_none()
            .then(|| serial_reference(&cfg, &spec));
        for backend_spec in on_every_backend(&spec) {
            let backend = backend_spec.backend.label();
            let (report, session) = Runner::with_spec(&cfg, backend_spec).run_with_session();
            assert_eq!(
                report.digest_chain().to_string(),
                golden,
                "{name} on {backend}: golden digest moved"
            );
            if let Some((serial, weights)) = &reference {
                assert_eq!(&report, serial, "{name} on {backend}: report diverged");
                assert_eq!(
                    session.global_params(),
                    weights,
                    "{name} on {backend}: final weights diverged"
                );
            }
        }
    }
}

// -- 2. newly composable scenarios ----------------------------------------

#[test]
fn fedprox_composes_with_adaptive_tiering() {
    let cfg = tiny(78);
    let run = || cfg.runner().adaptive(None).fedprox(0.1).run();
    let a = run();
    assert_eq!(a.rounds.len() as u64, cfg.rounds);
    assert_eq!(a.policy, "adaptive+fedprox(0.1)");
    assert!(a.final_accuracy() > 0.0);
    assert_eq!(a, run(), "composed run must stay deterministic");
    // The proximal term actually changes training.
    let plain = cfg.runner().adaptive(None).run();
    assert_ne!(a.rounds, plain.rounds, "mu = 0.1 must alter the updates");
}

#[test]
fn overselection_composes_with_static_tier_policy() {
    let mut cfg = wide(79);
    cfg.cpu_profile = tifl::sim::resource::profiles::CIFAR.to_vec();
    let run = || {
        cfg.runner()
            .policy(&Policy::uniform(5))
            .overselect(2.0)
            .run()
    };
    let report = run();
    assert_eq!(report.rounds.len() as u64, cfg.rounds);
    // Over-selection really over-selects within the drawn tier …
    assert!(report.rounds.iter().all(|r| r.selected.len() == 4));
    assert!(report.rounds.iter().all(|r| r.aggregated.len() == 2));
    assert!(report.discarded_work_fraction() > 0.4);
    // … and stays deterministic.
    assert_eq!(report, run());
}

#[test]
fn fedcs_composes_with_reprofiling_across_a_regime_switch() {
    // The composition the motivation calls out as previously
    // inexpressible: a deadline selector whose profile refreshes after
    // the fast devices slow down.
    let mut cfg = tiny(80);
    cfg.cpu_profile = tifl::sim::resource::profiles::CIFAR.to_vec();
    cfg.latency.base_overhead_sec = 0.0;
    cfg.rounds = 20;
    let mut factors = vec![1.0; 10];
    factors[0] = 0.01;
    factors[1] = 0.01;
    cfg.drift = DriftModel::RegimeSwitch {
        at_round: 10,
        factors,
    };
    let deadline = {
        let mut runner = cfg.runner();
        let lats = runner.tiers().tier_latencies();
        (lats[0] + lats[1]) / 2.0
    };
    let report = cfg.runner().deadline(deadline).reprofile_every(10).run();
    assert_eq!(report.policy, "fedcs+reprofile");
    // Before the switch only the fast devices (0, 1) meet the deadline;
    // after re-profiling they are over it and must vanish.
    let first = &report.rounds[..10];
    let second = &report.rounds[10..];
    assert!(first.iter().all(|r| r.selected.iter().all(|&c| c < 2)));
    assert!(second
        .iter()
        .all(|r| !r.selected.contains(&0) && !r.selected.contains(&1)));
}

// -- 3. profiling happens once per config ----------------------------------

#[test]
fn multi_curve_runner_profiles_once() {
    // The fig3-style loop: one config, many policy curves. The legacy
    // methods re-profiled per curve; the shared runner must not.
    let cfg = tiny(81);
    let mut runner = cfg.runner();
    for policy in Policy::cifar_set(5) {
        let _ = runner.policy(&policy).run();
    }
    let _ = runner.adaptive(None).run();
    let _ = runner.estimate(&Policy::uniform(5));
    assert_eq!(
        runner.profile_count(),
        1,
        "one config, one profiling pass, regardless of curve count"
    );
}

#[test]
fn shared_profile_does_not_change_results() {
    // Re-using the cached profile must give the same reports as fresh
    // runners that each profile on their own.
    let cfg = tiny(82);
    let mut shared = cfg.runner();
    let a_shared = shared.policy(&Policy::uniform(5)).run();
    let b_shared = shared.policy(&Policy::fast(5)).run();
    assert_eq!(a_shared, cfg.runner().policy(&Policy::uniform(5)).run());
    assert_eq!(b_shared, cfg.runner().policy(&Policy::fast(5)).run());
}

// -- 4. serialization drives runs ------------------------------------------

#[test]
fn json_spec_round_trips_and_drives_a_run() {
    let spec = RunSpec {
        selection: SelectionStrategy::TierPolicy {
            policy: Policy::uniform(5),
        },
        aggregation: Some(AggregationMode::FirstK { factor: 1.3 }),
        local: LocalTraining::FedProx { mu: 0.01 },
        reprofile_every: None,
        label: None,
        backend: ExecBackend::default(),
        comm: None,
    };
    let json = serde_json::to_string_pretty(&spec).expect("spec serialises");
    let back: RunSpec = serde_json::from_str(&json).expect("spec parses");
    assert_eq!(back, spec);

    let cfg = wide(83);
    let report = Runner::with_spec(&cfg, back).run();
    assert_eq!(report.rounds.len() as u64, cfg.rounds);
    assert_eq!(report.policy, "uniform+fedprox(0.01)+overselect(1.3)");
    // The deserialized spec reproduces the fluent-builder run exactly.
    let fluent = cfg
        .runner()
        .policy(&Policy::uniform(5))
        .overselect(1.3)
        .fedprox(0.01)
        .run();
    assert_eq!(report, fluent);
}

#[test]
fn spec_cli_runs_a_json_run_request() {
    // End-to-end through the binary: write a RunRequest, invoke
    // `tifl run --spec`, check the report summary it prints.
    let request = RunRequest {
        experiment: tiny(84),
        rounds: Some(6),
        seed: None,
        clients_per_round: None,
        spec: RunSpec {
            selection: SelectionStrategy::Adaptive { config: None },
            local: LocalTraining::FedProx { mu: 0.05 },
            ..RunSpec::default()
        },
    };
    let dir = std::env::temp_dir().join(format!("tifl-spec-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("run.json");
    std::fs::write(&path, serde_json::to_string_pretty(&request).unwrap()).expect("write spec");

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_tifl"))
        .args(["run", "--spec", path.to_str().unwrap()])
        .output()
        .expect("tifl binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "tifl run --spec failed: {stdout}");
    assert!(
        stdout.contains("adaptive+fedprox(0.05): 6 rounds"),
        "unexpected summary: {stdout}"
    );

    // The CLI result matches running the same request in-process.
    let report = request.run();
    assert_eq!(report.rounds.len(), 6);
    assert_eq!(report.policy, "adaptive+fedprox(0.05)");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn spec_cli_threads_override_is_result_invariant() {
    // `tifl run --spec run.json --threads 2` forces the worker count;
    // being an execution knob, it must not change the printed report.
    let request = RunRequest {
        experiment: tiny(85),
        rounds: Some(5),
        seed: None,
        clients_per_round: None,
        spec: RunSpec {
            backend: ExecBackend::EventDriven { threads: 1 },
            ..RunSpec::default()
        },
    };
    let dir = std::env::temp_dir().join(format!("tifl-threads-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("run.json");
    std::fs::write(&path, serde_json::to_string_pretty(&request).unwrap()).expect("write spec");

    let run_cli = |extra: &[&str]| {
        let mut args = vec!["run", "--spec", path.to_str().unwrap()];
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
    let plain = run_cli(&[]);
    let threaded = run_cli(&["--threads", "2"]);
    assert_eq!(plain, threaded, "thread override changed the results");
    assert!(plain.contains("vanilla: 5 rounds"), "summary: {plain}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_runs_a_zero_round_config_to_an_empty_report() {
    // No rounds is a valid horizon: the report is empty, its time and
    // accuracies are zero, and the run exits 0 under every kind of
    // selection.
    let mut cfg = tiny(87);
    cfg.rounds = 0;
    let dir = std::env::temp_dir().join(format!("tifl-zero-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("config.json");
    std::fs::write(&path, serde_json::to_string_pretty(&cfg).unwrap()).expect("write config");
    for policy in ["vanilla", "uniform", "fast", "adaptive"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_tifl"))
            .args(["run", path.to_str().unwrap(), policy])
            .output()
            .expect("tifl binary runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{policy}: {stderr}");
        assert!(
            stdout.starts_with(&format!(
                "{policy}: 0 rounds, 0 virtual s, final accuracy 0.000 (best 0.000)\n"
            )),
            "{policy}: {stdout}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `tifl <args>`, run in `dir`, must fail on `path`: exit code 1 and
/// `[tifl] <path>: <cause>` on stderr, never a panic. Returns stderr.
fn tifl_fails_on(dir: &std::path::Path, args: &[&str], path: &str) -> String {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_tifl"))
        .args(args)
        .current_dir(dir) // a stray default store lands here
        .output()
        .expect("tifl binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "tifl {args:?}: {stderr}");
    assert!(
        stderr.contains(&format!("[tifl] {path}: ")),
        "tifl {args:?} must name the file: {stderr}"
    );
    assert!(!stderr.contains("panicked at"), "tifl {args:?}: {stderr}");
    stderr
}

#[test]
fn cli_reports_an_unloadable_input_file_without_panicking() {
    // Every file-reading command, handed a file that is missing, cut
    // off mid-object, or a different document: exit code 1 and
    // `[tifl] <path>: <cause>` on stderr, never a panic.
    let dir = std::env::temp_dir().join(format!("tifl-badfile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let write = |name: &str, text: &str| {
        let path = dir.join(name);
        std::fs::write(&path, text).expect("write fixture");
        path.to_str().unwrap().to_string()
    };
    let request = RunRequest {
        experiment: tiny(86),
        rounds: Some(2),
        seed: None,
        clients_per_round: None,
        spec: RunSpec {
            comm: Some(CommSpec::default()),
            ..RunSpec::default()
        },
    };
    let request_json = serde_json::to_string_pretty(&request).unwrap();
    let report_json = serde_json::to_string_pretty(&request.run()).unwrap();
    let missing = dir.join("missing.json").to_str().unwrap().to_string();
    let report = write("report.json", &report_json);
    let a_request = write("request.json", &request_json);

    let config = write(
        "config.json",
        &serde_json::to_string(&request.experiment).unwrap(),
    );
    let sweep = write(
        "sweep.json",
        &serde_json::to_string(&SweepManifest::new(tiny(86))).unwrap(),
    );
    let good_store = RunStore::open(dir.join("good-store")).expect("store opens");
    good_store
        .write(&RunArtifact::new(
            RunKey::of(&request),
            request.clone(),
            request.run(),
        ))
        .expect("artifact writes");
    let good_store = good_store.dir().to_str().unwrap().to_string();

    // Every command `tifl help` lists, walked from its usage line: a
    // missing operand and an unknown flag are usage errors; a document
    // operand that is missing, cut off or the wrong document, and a
    // store operand that does not exist, fail on exit 1 naming it.
    let tifl = |args: &[String]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_tifl"))
            .args(args)
            .current_dir(&dir) // a stray default store lands here
            .output()
            .expect("tifl binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(!stderr.contains("panicked at"), "tifl {args:?}: {stderr}");
        (out.status.code(), out.stdout.is_empty(), stderr)
    };
    let help = std::process::Command::new(env!("CARGO_BIN_EXE_tifl"))
        .arg("help")
        .output()
        .expect("tifl binary runs");
    let help = String::from_utf8(help.stdout).expect("utf-8 help");
    let usages: Vec<&str> = help
        .lines()
        .filter_map(|l| l.strip_prefix("  tifl "))
        .collect();
    assert!(usages.len() >= 10, "{help}");
    for (n, usage) in usages.iter().enumerate() {
        // Its own words, then operands and required flags up to the
        // first optional flag, each operand filled with a good input.
        let tokens: Vec<&str> = usage.split_whitespace().collect();
        let own = tokens
            .iter()
            .take_while(|t| !t.starts_with(['<', '[']))
            .count();
        let mut args: Vec<String> = tokens[..own].iter().map(|t| t.to_string()).collect();
        let (mut operands, mut rest) = (Vec::new(), tokens[own..].iter());
        while let Some(token) = rest.next().filter(|t| !t.starts_with('[')) {
            if token.starts_with("--") {
                let out = dir.join(format!("out-{n}"));
                args.extend([token.to_string(), out.to_str().unwrap().to_string()]);
                rest.next();
                continue;
            }
            let good = match token.trim_end_matches("...") {
                // `init` writes its operand.
                _ if args[0] == "init" => {
                    dir.join(format!("init-{n}.json")).to_str().unwrap().into()
                }
                "<config.json>" => config.clone(),
                "<run.json>" | "<run-or-artifact.json>" => a_request.clone(),
                "<sweep.json>" => sweep.clone(),
                "<a.json>" | "<b.json>" => report.clone(),
                "<store-dir>" => good_store.clone(),
                words if words.contains('|') => words[1..words.find('|').unwrap()].to_string(),
                other => panic!("no fixture for {other} in `tifl {usage}`: add one"),
            };
            operands.push((args.len(), *token, good.clone()));
            args.push(good.clone());
        }
        let expect_usage_error = |args: &[String]| {
            let (code, quiet, stderr) = tifl(args);
            assert_eq!(code, Some(2), "tifl {args:?}: {stderr}");
            assert!(
                quiet && stderr.contains("usage: tifl "),
                "tifl {args:?}: {stderr}"
            );
        };
        expect_usage_error(&[args.clone(), vec!["--bogus".into()]].concat());
        if let Some(&(last, ..)) = operands.last() {
            let mut short = args.clone();
            short.remove(last);
            expect_usage_error(&short);
        }
        for (at, placeholder, good) in operands {
            let bad_inputs = if args[0] == "init" {
                let (code, _, stderr) = tifl(&args);
                assert_eq!(code, Some(0), "tifl {args:?}: {stderr}");
                assert!(std::path::Path::new(&good).exists());
                vec![]
            } else if placeholder.starts_with("<store-dir>") {
                vec![dir.join("no-store").to_str().unwrap().to_string()]
            } else if placeholder.ends_with(".json>") {
                let text = std::fs::read_to_string(&good).unwrap();
                let wrong = if good == report { &a_request } else { &report };
                let cut = write(&format!("cut-{n}-{at}.json"), &text[..text.len() / 2]);
                vec![missing.clone(), cut, wrong.clone()]
            } else {
                vec![]
            };
            for bad in bad_inputs {
                let mut line = args.clone();
                line[at] = bad.clone();
                let (code, quiet, stderr) = tifl(&line);
                assert_eq!(code, Some(1), "tifl {line:?}: {stderr}");
                assert!(quiet && stderr.contains(&bad), "tifl {line:?}: {stderr}");
                if placeholder.ends_with(".json>") {
                    assert!(stderr.contains(&format!("[tifl] {bad}: ")), "{stderr}");
                }
                for created in ["no-store", "sweep-artifacts", &format!("out-{n}")] {
                    assert!(!dir.join(created).exists(), "tifl {line:?} made {created}");
                }
            }
        }
    }
    let shard = ["sweep", &sweep, "--shard", "3/2"].map(String::from);
    assert_eq!(tifl(&shard).0, Some(2));

    // A document naming a deleted variant is one more unloadable
    // input: every entry point answers with a typed error naming the
    // variant. Each row spells the variant where a request carries it
    // and where a manifest does (the experiment, or an axis).
    let swap = |json: &str, from: &str, to: &str| {
        assert_eq!(json.matches(from).count(), 1, "`{from}` in {json}");
        json.replace(from, to)
    };
    // One spelling in both documents / a request's value and a
    // manifest axis's one-element list of it.
    let same = |from: &str, to: &str| [(); 2].map(|()| (from.to_string(), to.to_string()));
    let valued = |field: &str, unset: &str, value: &str| {
        [
            (
                format!(r#""{field}": {unset}"#),
                format!(r#""{field}": {value}"#),
            ),
            (
                format!(r#""{field}": []"#),
                format!(r#""{field}": [{value}]"#),
            ),
        ]
    };
    let removed = [
        (
            "Async",
            valued("aggregation", "null", r#"{"Async": {"max_staleness": 2}}"#),
        ),
        ("Cnn", same(r#""Mlp": {"#, r#""Cnn": {"#)),
        ("Logistic", same(r#""Mlp": {"#, r#""Logistic": {"#)),
        (
            "SgdMomentum",
            same(r#""RmsProp": {"#, r#""SgdMomentum": {"momentum": 0.9,"#),
        ),
        (
            "LogNormal",
            valued(
                "link",
                r#""ClusterDefault""#,
                r#"{"LogNormal": {"median_up_bps": 1e5, "median_down_bps": 1e6, "sigma": 0.5, "rtt_sec": 0.0}}"#,
            ),
        ),
        (
            "Uniform",
            valued(
                "link",
                r#""ClusterDefault""#,
                r#"{"Uniform": {"up_bps": 1e5, "down_bps": 1e6, "rtt_sec": 0.0}}"#,
            ),
        ),
        ("Shards", same(r#""Iid": {"#, r#""Shards": {"total": 600,"#)),
        (
            "Sinusoidal",
            same(
                r#""drift": "None""#,
                r#""drift": {"Sinusoidal": {"period": 10.0, "amplitude": 0.5, "devices": 10}}"#,
            ),
        ),
        (
            "EqualWidth",
            same(r#""strategy": "EqualCount""#, r#""strategy": "EqualWidth""#),
        ),
    ];
    let manifest = SweepManifest {
        name: None,
        experiment: tiny(86),
        rounds: Some(2),
        axes: SweepAxes::default(),
    };
    let manifest_json = serde_json::to_string_pretty(&manifest).unwrap();
    // The same request inside a stored artifact.
    let store = RunStore::open(dir.join("store")).expect("store opens");
    let key = RunKey::of(&request);
    let artifact = RunArtifact::new(key, request.clone(), request.run());
    store.write(&artifact).expect("artifact writes");
    let stored = std::fs::read_to_string(store.path_of(key)).expect("artifact readable");
    for (variant, [in_request, in_manifest]) in removed {
        let unknown = format!("unknown variant `{variant}`");
        for (command, text) in [
            (
                &["run", "--spec"][..],
                swap(&request_json, &in_request.0, &in_request.1),
            ),
            (
                &["sweep"][..],
                swap(&manifest_json, &in_manifest.0, &in_manifest.1),
            ),
        ] {
            let path = write("removed.json", &text);
            let stderr = tifl_fails_on(&dir, &[command, &[path.as_str()]].concat(), &path);
            assert!(stderr.contains(&unknown), "tifl {command:?}: {stderr}");
        }
        std::fs::write(
            store.path_of(key),
            swap(&stored, &in_request.0, &in_request.1),
        )
        .unwrap();
        let err = store
            .load_checked(key)
            .expect_err("a removed variant must not load");
        assert!(
            matches!(&err.kind, StoreErrorKind::Unparseable(cause) if cause.contains(&unknown)),
            "{variant}: {err}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_rejects_a_nesting_bomb_with_a_typed_error() {
    // 200 KB of `[`: a parser that recursed without a bound overflowed
    // its stack here and aborted the process (exit 134).
    let dir = std::env::temp_dir().join(format!("tifl-bomb-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("bomb.json");
    std::fs::write(&path, "[".repeat(200_000)).expect("write fixture");
    let path = path.to_str().unwrap();
    let stderr = tifl_fails_on(&dir, &["run", "--spec", path], path);
    assert!(
        stderr.contains(&format!(
            "[tifl] {path}: not a RunRequest: nesting deeper than 128"
        )),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_usage_errors_exit_2() {
    // Exit 1 is kept for a file that failed to load or write, a failed
    // run, or a check that found a problem.
    let dir = std::env::temp_dir().join(format!("tifl-usage-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    std::fs::create_dir_all(dir.join("store")).expect("store dir");
    let malformed: [&[&str]; 10] = [
        &[],
        &["frobnicate"],
        &["sweep", "m.json", "--workers", "abc"],
        &["report", "d", "--target", "abc"],
        &["sweep", "m.json", "--shard", "3/2"],
        // A malformed flag is caught before any file is read.
        &["diff", "missing.json", "b.json", "--format", "xml"],
        &["audit", "store", "--format", "xml", "--out", "a.json"],
        &["run", "--spec", "r.json", "--threads"],
        &["trace", "r.json", "--bogus"],
        &["merge", "a", "--deny"],
    ];
    let tifl = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_tifl"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("tifl binary runs")
    };
    for args in malformed {
        let out = tifl(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "tifl {args:?}: {stderr}");
    }
    assert!(!dir.join("a.json").exists(), "audit wrote its report");

    // Help is not an error: every command, on stdout.
    let help = tifl(&["help"]);
    assert_eq!(help.status.code(), Some(0));
    assert_eq!(tifl(&["--help"]).stdout, help.stdout);
    let help = String::from_utf8(help.stdout).expect("utf-8 help");
    for command in [
        "init", "profile", "estimate", "run", "sweep", "trace", "diff", "audit", "merge", "report",
        "paper", "help",
    ] {
        assert!(
            help.contains(&format!("  tifl {command}")),
            "{command}: {help}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_rejects_a_model_that_does_not_fit_its_data_when_the_document_is_loaded() {
    // Too few classes, the wrong input width or an empty hidden layer
    // used to die inside a pool worker (`label 8 out of range for 5
    // classes`, `chunk size must be non-zero`; exit 101), and so did a
    // population that cannot be sampled or tiered (`clients_per_round`
    // or `tiering.num_tiers` of 0 or above `num_clients`, no clients at
    // all). Every command that loads such a document — a run request,
    // a sweep manifest or a bare config — now answers `[tifl] <path>:
    // <what is out of range>` before it builds a session. A request's
    // own `clients_per_round` is checked as it overrides the experiment.
    // So is what only a run request knows: a round that asks a tier for
    // more clients than it holds (vanilla runs 3 of 10 clients a round,
    // but a tier policy over 5 tiers of 2 used to panic in
    // `select_within_tier`), and an over-selection factor below 1 (it
    // used to panic in `plan_round`). Every request and cell here
    // selects by the fast policy, so the tier check runs too.
    let dir = std::env::temp_dir().join(format!("tifl-misfit-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let with = |edit: fn(&mut ExperimentConfig)| {
        let mut experiment = tiny(88);
        edit(&mut experiment);
        experiment
    };
    let model = " / data Mnist has ";
    let tier = ": clients_per_round 3 exceeds the smallest tier (2 clients) of policy ";
    let factor = ": over-selection factor 0.5 is below 1";
    let fast = SelectionStrategy::TierPolicy {
        policy: Policy::fast(5),
    };
    let misfits: [(ExperimentConfig, Option<usize>, &str); 11] = [
        (
            with(|e| {
                e.model = ModelSpec::Mlp {
                    input: 64,
                    hidden: 16,
                    classes: 5,
                }
            }),
            None,
            model,
        ),
        (
            with(|e| {
                e.model = ModelSpec::Mlp {
                    input: 49,
                    hidden: 16,
                    classes: 10,
                }
            }),
            None,
            model,
        ),
        (
            with(|e| {
                e.model = ModelSpec::Mlp {
                    input: 64,
                    hidden: 0,
                    classes: 10,
                }
            }),
            None,
            model,
        ),
        (
            with(|e| e.clients_per_round = 0),
            None,
            ": clients_per_round 0 is outside 1..=10",
        ),
        (
            with(|e| e.clients_per_round = 11),
            None,
            ": clients_per_round 11 is outside 1..=10",
        ),
        (
            with(|e| e.num_clients = 0),
            None,
            ": clients_per_round 2 is outside 1..=0",
        ),
        (
            with(|e| e.tiering.num_tiers = 11),
            None,
            ": tiering.num_tiers 11 is outside 1..=10",
        ),
        (
            with(|e| e.tiering.num_tiers = 0),
            None,
            ": tiering.num_tiers 0 is outside 1..=10",
        ),
        (tiny(88), Some(0), ": clients_per_round 0 is outside 1..=10"),
        (with(|e| e.clients_per_round = 3), None, tier),
        (
            with(|e| e.aggregation = AggregationMode::FirstK { factor: 0.5 }),
            None,
            factor,
        ),
    ];
    for (i, (experiment, clients_per_round, cause)) in misfits.into_iter().enumerate() {
        let request = RunRequest {
            experiment: experiment.clone(),
            rounds: Some(2),
            seed: None,
            clients_per_round,
            spec: RunSpec {
                selection: fast.clone(),
                backend: ExecBackend::EventDriven { threads: 2 },
                ..RunSpec::default()
            },
        };
        let manifest = SweepManifest {
            name: None,
            experiment,
            rounds: Some(2),
            axes: SweepAxes {
                selection: vec![fast.clone()],
                ..SweepAxes::default()
            },
        };
        let file = |name: &str, json: String| {
            let path = dir.join(format!("{name}{i}.json"));
            std::fs::write(&path, json).expect("write fixture");
            path.to_str().unwrap().to_string()
        };
        let run = file("run", serde_json::to_string(&request).unwrap());
        let sweep = file("sweep", serde_json::to_string(&manifest).unwrap());
        let config = file(
            "config",
            serde_json::to_string(&manifest.experiment).unwrap(),
        );
        // An artifact records the misfit request beside a report of a
        // run that fits: `trace` re-runs the request, `diff` only reads
        // the report.
        let fitting = RunRequest {
            experiment: tiny(88),
            clients_per_round: None,
            ..request.clone()
        };
        let artifact = RunArtifact::new(RunKey::of(&request), request, fitting.run());
        let artifact = file("artifact", serde_json::to_string(&artifact).unwrap());
        let dir = dir.clone();
        within_two_minutes(move || {
            let commands = [
                (&["run", "--spec", &run, "--threads", "2"][..], &run),
                (&["trace", &run], &run),
                (&["trace", &artifact], &artifact),
                (&["sweep", &sweep, "--workers", "2"], &sweep),
                (&["run", &config, "uniform"], &config),
                (&["profile", &config], &config),
                (&["estimate", &config], &config),
            ];
            // The sweep and the bare config do not carry a request's
            // override, and `profile` and `estimate` select nothing.
            let loaders = match clients_per_round {
                Some(_) => 3,
                None if [tier, factor].contains(&cause) => 5,
                None => 7,
            };
            for &(args, path) in &commands[..loaders] {
                let stderr = tifl_fails_on(&dir, args, path);
                assert!(stderr.contains(cause), "tifl {args:?}: {stderr}");
                assert!(
                    !stderr.contains("nor an artifact") || path == &run,
                    "{stderr}"
                );
            }
            let diff = std::process::Command::new(env!("CARGO_BIN_EXE_tifl"))
                .args(["diff", &artifact, &artifact])
                .output()
                .expect("tifl binary runs");
            assert_eq!(diff.status.code(), Some(0), "{diff:?}");
        })
        .expect("every command fails cleanly");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_rejects_comm_and_selection_values_a_run_would_panic_on() {
    // Each row used to panic mid-run (exit 101): in `CodecSpec::top_k_of`,
    // the aggregation hierarchy, `LinkModel::materialize`,
    // `DeadlineSelector::new`, the re-profiling loop, the adaptive
    // selector, the tier policy's draw, the cluster's latency model or
    // the profiler; a negative tier probability trained as if nothing
    // were wrong. `tifl run --spec` now exits 1 at load time naming the
    // field, and so does a sweep manifest with such a cell (the cell
    // carries the row's whole comm spec or experiment) before any run
    // starts.
    let dir = std::env::temp_dir().join(format!("tifl-badvalue-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let link = |groups, up_bps, decay, rtt_sec| LinkModel::GroupScaled {
        groups,
        up_bps,
        down_bps: 1.0e6,
        decay,
        rtt_sec,
    };
    let comm = |codec, link, hierarchy| RunSpec {
        comm: Some(CommSpec {
            codec,
            link,
            hierarchy,
        }),
        ..RunSpec::default()
    };
    let topk = |frac| comm(CodecSpec::TopK { frac }, LinkModel::ClusterDefault, None);
    let tree = |fan_out, plane_bps| {
        let h = HierarchySpec { fan_out, plane_bps };
        comm(CodecSpec::QuantizeI8, LinkModel::ClusterDefault, Some(h))
    };
    let grouped = |l| comm(CodecSpec::QuantizeI8, l, None);
    let policy = |probs: Vec<f64>| SelectionStrategy::TierPolicy {
        policy: Policy {
            name: "custom".into(),
            probs,
        },
    };
    let spec = |selection, reprofile_every| RunSpec {
        selection,
        reprofile_every,
        ..RunSpec::default()
    };
    let adaptive = |interval, credits_per_tier, gamma| SelectionStrategy::Adaptive {
        config: Some(AdaptiveConfig {
            interval,
            credits_per_tier,
            gamma,
        }),
    };
    let deadline = |deadline_sec| SelectionStrategy::Deadline { deadline_sec };
    let rows: Vec<(RunSpec, &str)> = vec![
        (topk(0.0), "comm.codec.TopK.frac 0 "),
        (topk(2.0), "comm.codec.TopK.frac 2 "),
        (topk(f64::NAN), "comm.codec.TopK.frac NaN "),
        (tree(0, 2.0e8), "comm.hierarchy.fan_out 0 "),
        (tree(4, 0.0), "comm.hierarchy.plane_bps 0 "),
        (
            grouped(link(0, 1.0e6, 0.5, 0.01)),
            "comm.link.GroupScaled.groups 0 ",
        ),
        (
            grouped(link(5, 0.0, 0.5, 0.01)),
            "comm.link.GroupScaled.up_bps 0 ",
        ),
        (
            grouped(link(5, 1.0e6, 0.0, 0.01)),
            "comm.link.GroupScaled.decay 0 ",
        ),
        (
            grouped(link(5, 1.0e6, 0.5, -1.0)),
            "comm.link.GroupScaled.rtt_sec -1 ",
        ),
        (
            spec(deadline(0.0), None),
            "selection.Deadline.deadline_sec 0 ",
        ),
        (
            spec(deadline(-1.0), None),
            "selection.Deadline.deadline_sec -1 ",
        ),
        (spec(policy(vec![0.2; 5]), Some(0)), "reprofile_every 0: "),
        (
            spec(SelectionStrategy::Vanilla, Some(4)),
            "reprofile_every 4 ",
        ),
        (
            spec(adaptive(0, 4, 2.0), None),
            "selection.Adaptive.config.interval 0 ",
        ),
        (
            spec(adaptive(2, 0, 2.0), None),
            "selection.Adaptive.config.credits_per_tier 0 ",
        ),
        (
            spec(adaptive(2, 4, -1.0), None),
            "selection.Adaptive.config.gamma -1 ",
        ),
        (
            spec(adaptive(2, 4, f64::NAN), None),
            "selection.Adaptive.config.gamma NaN ",
        ),
        (
            spec(policy(vec![0.5, 0.5]), None),
            "selection.TierPolicy.policy.probs has 2 ",
        ),
        (
            spec(policy(vec![0.0; 5]), None),
            "selection.TierPolicy.policy.probs has no ",
        ),
        (
            spec(policy(vec![-0.5, 1.5, 0.0, 0.0, 0.0]), None),
            "selection.TierPolicy.policy.probs[0] -0.5 ",
        ),
        (
            spec(policy(vec![0.5, f64::NAN, 0.5, 0.0, 0.0]), None),
            "selection.TierPolicy.policy.probs[1] NaN ",
        ),
    ];
    let edited = |edit: fn(&mut ExperimentConfig)| {
        let mut experiment = tiny(88);
        edit(&mut experiment);
        experiment
    };
    let experiment_rows: Vec<(ExperimentConfig, &str)> = vec![
        (
            edited(|e| e.latency.flops_per_cpu_sec = 0.0),
            "latency.flops_per_cpu_sec 0 ",
        ),
        (
            edited(|e| e.latency.jitter_sigma = -1.0),
            "latency.jitter_sigma -1 ",
        ),
        (
            edited(|e| e.profiler.tmax_sec = 0.0),
            "profiler.tmax_sec 0 ",
        ),
        (
            edited(|e| e.profiler.sync_rounds = 0),
            "profiler.sync_rounds 0 ",
        ),
        (edited(|e| e.cpu_profile.clear()), "cpu_profile [] "),
        (edited(|e| e.cpu_profile = vec![0.0]), "cpu_profile[0] 0 "),
    ];
    let rows = rows
        .into_iter()
        .map(|(spec, field)| (tiny(88), spec, field))
        .chain(
            experiment_rows
                .into_iter()
                .map(|(experiment, field)| (experiment, RunSpec::default(), field)),
        );
    for (i, (experiment, spec, field)) in rows.enumerate() {
        let request = RunRequest {
            experiment,
            rounds: Some(2),
            seed: None,
            clients_per_round: None,
            spec,
        };
        let path = dir.join(format!("run{i}.json"));
        std::fs::write(&path, serde_json::to_string(&request).unwrap()).expect("write fixture");
        let path = path.to_str().unwrap();
        let stderr = tifl_fails_on(&dir, &["run", "--spec", path], path);
        assert!(stderr.contains(field), "row {i}: {stderr}");
        // The experiment's own values are checked the same way, and so
        // is every cell of a sweep.
        let mut experiment = request.experiment.clone();
        if request.spec.comm.is_some() {
            experiment.comm = request.spec.comm;
        } else if experiment == tiny(88) {
            continue;
        }
        let manifest = SweepManifest {
            name: None,
            experiment,
            rounds: Some(2),
            axes: SweepAxes::default(),
        };
        let path = dir.join(format!("sweep{i}.json"));
        std::fs::write(&path, serde_json::to_string(&manifest).unwrap()).expect("write fixture");
        let path = path.to_str().unwrap();
        let store = dir.join(format!("store{i}"));
        let args = ["sweep", path, "--out", store.to_str().unwrap()];
        let stderr = tifl_fails_on(&dir, &args, path);
        assert!(stderr.contains(field), "row {i}: {stderr}");
        assert!(!store.exists(), "row {i}: no run may start");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_reports_an_unwritable_output_path_without_panicking() {
    // Every command handed an output path it cannot create — the parent
    // is a regular file — exits 1 with `[tifl] <path>: <cause>`.
    let dir = std::env::temp_dir().join(format!("tifl-badout-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let file = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let blocker = file("blocker");
    std::fs::write(&blocker, "a regular file").expect("write blocker");
    let under = format!("{blocker}/out");
    let tifl = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_tifl"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("tifl binary runs")
    };
    let (run, sweep) = (file("run.json"), file("sweep.json"));
    assert!(tifl(&["init", "--spec", &run]).status.success());
    assert!(tifl(&["init", "--sweep", &sweep]).status.success());
    let request: RunRequest =
        serde_json::from_str(&std::fs::read_to_string(&run).unwrap()).expect("the template parses");
    let quick = RunRequest {
        experiment: tiny(87),
        rounds: Some(2),
        ..request
    };
    std::fs::write(&run, serde_json::to_string(&quick).unwrap()).expect("rewrite the template");

    for args in [
        &["init", &under][..],
        &["init", "--spec", &under],
        &["init", "--sweep", &under],
        &["run", "--spec", &run, "--out", &under],
        &["sweep", &sweep, "--out", &under],
    ] {
        tifl_fails_on(&dir, args, &under);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
