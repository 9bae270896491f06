//! `tifl` — command-line front end for the TiFL reproduction.
//!
//! ```sh
//! tifl init experiment.json            # write a template config
//! tifl init --spec run.json            # write a template run request
//! tifl init --sweep sweep.json         # write a template sweep manifest
//! tifl profile experiment.json         # profile + print tiers
//! tifl estimate experiment.json        # Eq. 6 time estimates per policy
//! tifl run experiment.json uniform     # train under a policy
//! tifl run experiment.json adaptive    # train under Algorithm 2
//! tifl run --spec run.json             # train a declarative RunSpec
//! tifl run --spec run.json --threads 4 # … on 4 worker threads
//! tifl run --spec run.json --out r.json# … writing the full report JSON
//! tifl sweep sweep.json --workers 4    # execute a whole run matrix
//! tifl sweep sweep.json --resume       # … skipping completed run keys
//! tifl sweep sweep.json --progress p.jsonl # … streaming a JSONL event log
//! tifl sweep sweep.json --shard 0/2    # … this host's half of the matrix
//! tifl trace run.json --out trace.json # re-run traced, export Chrome JSON
//! tifl trace run.json --out t.json --host # … with the host-time lane too
//! tifl diff a.json b.json              # first divergent round of two runs
//! tifl audit artifacts/ --deny         # re-verify every artifact in a store
//! tifl merge half-a half-b --out all   # union shard stores, byte-compared
//! tifl report artifacts/ --target 0.5  # pivot a store into a table
//! ```
//!
//! Configs are JSON-serialised `ExperimentConfig`s; run requests are
//! JSON-serialised `RunRequest`s (an experiment + scalar overrides + a
//! `RunSpec`); sweep manifests are JSON-serialised `SweepManifest`s
//! (an experiment + per-axis value lists). The full §5 evaluation
//! matrix — selection strategy × aggregation mode × local objective ×
//! communication model × seeds × scale — is scriptable without
//! recompiling: `cargo run --release --bin tifl -- init --sweep
//! my.json`, edit, `sweep my.json --workers 4 --out artifacts`.

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "the CLI owns its process's stdio"
)]

use std::path::Path;
use std::process::ExitCode;
use tifl::prelude::*;

/// A malformed command line's exit code; exit 1 means a file could not
/// be loaded or written, a run failed, or a check found a problem.
const USAGE_ERROR: u8 = 2;

/// Print the usage text; the command line was malformed.
fn usage() -> Result<ExitCode, String> {
    eprintln!(
        "usage:\n  tifl init <config.json>\n  tifl init --spec <run.json>\n  \
         tifl init --sweep <sweep.json>\n  tifl profile <config.json>\n  \
         tifl estimate <config.json>\n  tifl run <config.json> \
         <vanilla|slow|uniform|random|fast|fast1|fast2|fast3|adaptive>\n  \
         tifl run --spec <run.json> [--threads N] [--out <report.json>]\n  \
         tifl sweep <sweep.json> [--workers N] [--out DIR] [--resume] [--progress <log.jsonl>] \
         [--shard I/N]\n  \
         tifl trace <run.json|artifact.json> [--out <trace.json>] [--host]\n  \
         tifl diff <a.json> <b.json> [--format human|json]\n  \
         tifl audit <store-dir> [--deny] [--format human|json] [--out <audit.json>]\n  \
         tifl merge <store-dir>... --out <dir> [--deny]\n  \
         tifl report <store-dir> [--format human|json] [--target ACC]"
    );
    Ok(ExitCode::from(USAGE_ERROR))
}

fn policy_by_name(name: &str, m: usize) -> Option<Policy> {
    Some(match name {
        "vanilla" => Policy::vanilla(),
        "slow" => Policy::slow(m),
        "uniform" => Policy::uniform(m),
        "random" => Policy::random5(m),
        "fast" => Policy::fast(m),
        "fast1" => Policy::fast_level(m, 1),
        "fast2" => Policy::fast_level(m, 2),
        "fast3" => Policy::fast_level(m, 3),
        _ => return None,
    })
}

fn print_report(report: &TrainingReport) {
    println!(
        "{}: {} rounds, {:.0} virtual s, final accuracy {:.3} (best {:.3})",
        report.policy,
        report.rounds.len(),
        report.total_time(),
        report.final_accuracy(),
        report.best_accuracy()
    );
    println!(
        "wire: {:.2} MB up, {:.2} MB down",
        report.total_bytes_up() as f64 / 1e6,
        report.total_bytes_down() as f64 / 1e6
    );
    for (r, a) in report.accuracy_over_rounds().iter().step_by(10) {
        println!("round {r:>6}: {a:.3}");
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    run(&args).unwrap_or_else(|e| {
        eprintln!("[tifl] {e}");
        ExitCode::FAILURE
    })
}

/// Execute one command line. `Err` is a file that could not be loaded
/// or written, as `<path>: <cause>`.
fn run(args: &[String]) -> Result<ExitCode, String> {
    Ok(match args {
        [cmd, path] if cmd == "init" => {
            let cfg = ExperimentConfig::cifar10_resource_het(42);
            write_json(path, &cfg)?;
            println!("wrote template config to {path}");
            ExitCode::SUCCESS
        }
        [cmd, flag, path] if cmd == "init" && flag == "--sweep" => {
            // A 6-run template: 3 selection strategies × 2 seeds over
            // the §5.1 resource-heterogeneity topology (the CI smoke
            // manifest). The tiered cells share one profiling pass per
            // seed through the scheduler's cache.
            let manifest = SweepManifest {
                name: Some("selection-x-seeds".into()),
                experiment: ExperimentConfig::cifar10_resource_het(42),
                rounds: Some(10),
                axes: SweepAxes {
                    seeds: vec![42, 43],
                    selection: vec![
                        SelectionStrategy::Vanilla,
                        SelectionStrategy::TierPolicy {
                            policy: Policy::uniform(5),
                        },
                        SelectionStrategy::Adaptive { config: None },
                    ],
                    ..SweepAxes::default()
                },
            };
            write_json(path, &manifest)?;
            println!(
                "wrote template sweep manifest ({} runs) to {path}",
                manifest.expand().len()
            );
            ExitCode::SUCCESS
        }
        [cmd, flag, path] if cmd == "init" && flag == "--spec" => {
            // A template showing the composable axes: adaptive tiering,
            // FedProx local training, paper-default aggregation.
            let request = RunRequest {
                experiment: ExperimentConfig::cifar10_resource_het(42),
                rounds: Some(100),
                seed: None,
                clients_per_round: None,
                spec: RunSpec {
                    selection: SelectionStrategy::Adaptive { config: None },
                    local: LocalTraining::FedProx { mu: 0.01 },
                    ..RunSpec::default()
                },
            };
            write_json(path, &request)?;
            println!("wrote template run request to {path}");
            ExitCode::SUCCESS
        }
        [cmd, path] if cmd == "profile" => {
            let cfg: ExperimentConfig = read_json(path)?;
            let (tiers, profile) = cfg.profile_and_tier();
            println!(
                "profiled {} clients in {:.0} virtual s ({} dropouts)",
                cfg.num_clients,
                profile.profiling_time,
                profile.dropouts().len()
            );
            for (t, tier) in tiers.tiers.iter().enumerate() {
                println!(
                    "tier {t}: {:>3} clients, mean latency {:>9.2}s",
                    tier.clients.len(),
                    tier.avg_latency
                );
            }
            ExitCode::SUCCESS
        }
        [cmd, path] if cmd == "estimate" => {
            let cfg: ExperimentConfig = read_json(path)?;
            let mut runner = cfg.runner();
            println!("{:<10} {:>16}", "policy", "estimate [s]");
            let num_tiers = runner.tiers().num_tiers();
            for p in Policy::cifar_set(num_tiers).iter().skip(1) {
                let est = runner.estimate(p);
                println!("{:<10} {est:>16.0}", p.name);
            }
            ExitCode::SUCCESS
        }
        [cmd, flag, path, rest @ ..] if cmd == "run" && flag == "--spec" => {
            let mut threads = None;
            let mut out = None;
            let mut args = rest.iter();
            while let Some(a) = args.next() {
                match a.as_str() {
                    "--threads" => {
                        let n = args.next().map(|n| n.parse::<usize>());
                        let Some(Ok(n)) = n else { return usage() };
                        threads = Some(n);
                    }
                    "--out" => {
                        let Some(p) = args.next() else { return usage() };
                        out = Some(p.clone());
                    }
                    _ => return usage(),
                }
            }
            let mut request: RunRequest = read_json(path)?;
            check_fit(path, &request.experiment)?;
            if let Some(threads) = threads {
                // Force the thread count: event-driven specs get their
                // knob overridden; lockstep specs take the ambient
                // count, which the pool below sets.
                if request.spec.backend != ExecBackend::Lockstep {
                    request.spec.backend = ExecBackend::EventDriven { threads };
                }
            }
            eprintln!(
                "[tifl] {} / {} on {} ...",
                request.experiment.name,
                request.spec.display_label(),
                request.spec.backend.label()
            );
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads.unwrap_or(0))
                .build()
                .expect("thread pool builds");
            let report = pool.install(|| request.run());
            print_report(&report);
            if let Some(out) = out {
                // The sweep store's serializer, so a single run's
                // report and a sweep artifact's `report` field are the
                // same JSON.
                tifl::sweep::store::write_json(Path::new(&out), &report).map_err(at(&out))?;
                println!("wrote full report to {out}");
            }
            ExitCode::SUCCESS
        }
        [cmd, path, rest @ ..] if cmd == "sweep" => {
            let mut workers = 0usize;
            let mut out = "sweep-artifacts".to_string();
            let mut resume = false;
            let mut progress_path = None;
            let mut shard: Option<(usize, usize)> = None;
            let mut args = rest.iter();
            while let Some(a) = args.next() {
                match a.as_str() {
                    "--workers" => {
                        let n = args.next().map(|n| n.parse::<usize>());
                        let Some(Ok(n)) = n else { return usage() };
                        workers = n;
                    }
                    "--out" => {
                        let Some(p) = args.next() else { return usage() };
                        out = p.clone();
                    }
                    "--resume" => resume = true,
                    "--progress" => {
                        let Some(p) = args.next() else { return usage() };
                        progress_path = Some(p.clone());
                    }
                    "--shard" => {
                        // "--shard I/N": this invocation runs slice I of
                        // N (disjoint, covering, stable across hosts —
                        // see `shard_runs`).
                        let parsed = args.next().and_then(|s| {
                            let (i, n) = s.split_once('/')?;
                            Some((i.parse::<usize>().ok()?, n.parse::<usize>().ok()?))
                        });
                        let Some((i, n)) = parsed else { return usage() };
                        if n == 0 || i >= n {
                            eprintln!("[tifl] bad --shard {i}/{n}: index must be < count");
                            return Ok(ExitCode::from(USAGE_ERROR));
                        }
                        shard = Some((i, n));
                    }
                    _ => return usage(),
                }
            }
            let manifest: SweepManifest = read_json(path)?;
            check_fit(path, &manifest.experiment)?;
            let store = RunStore::open(&out).map_err(at(&out))?;
            let scheduler = SweepScheduler::new(workers);
            let expanded = manifest.expand();
            let total = expanded.len();
            let runs = match shard {
                Some((i, n)) => tifl::sweep::shard_runs(&expanded, i, n),
                None => expanded,
            };
            let shard_note =
                shard.map_or_else(String::new, |(i, n)| format!(" (shard {i}/{n} of {total})"));
            eprintln!(
                "[tifl] sweep `{}`: {} runs{shard_note} on {} workers -> {}",
                manifest.name.as_deref().unwrap_or("unnamed"),
                runs.len(),
                scheduler.workers(),
                store.dir().display()
            );
            let progress = progress_path
                .as_ref()
                .map(|p| tifl::sweep::ProgressLog::create(Path::new(p)).map_err(at(p)))
                .transpose()?;
            let sweep = scheduler.execute_logged(&runs, Some(&store), resume, progress.as_ref());
            if let Err(e) = store.write_summary(&sweep.summary(manifest.name.clone())) {
                eprintln!("[tifl] warning: writing sweep summary failed: {e}");
            }
            println!(
                "{:<12} {:<34} {:>10} {:>11} {:>9}",
                "status", "run", "rounds", "time [s]", "final acc"
            );
            for outcome in &sweep.outcomes {
                let (status, summary) = match outcome {
                    RunOutcome::Completed { artifact, .. } => {
                        ("completed", Some(artifact.report.summary()))
                    }
                    RunOutcome::Skipped { artifact } => {
                        ("skipped", Some(artifact.report.summary()))
                    }
                    RunOutcome::Failed { .. } => ("FAILED", None),
                };
                match summary {
                    Some(s) => println!(
                        "{status:<12} {:<34} {:>10} {:>11.0} {:>9.3}",
                        outcome.label(),
                        s.rounds,
                        s.total_time,
                        s.final_accuracy
                    ),
                    None => println!("{status:<12} {:<34}", outcome.label()),
                }
            }
            println!(
                "sweep: {} completed, {} skipped, {} failed; {} profiling pass(es); \
                 {} dataset(s) built, {} shared; {:.1}s",
                sweep.completed(),
                sweep.skipped(),
                sweep.failed(),
                sweep.profiles_computed,
                sweep.datasets_built,
                sweep.dataset_cache_hits,
                sweep.wall_clock_sec
            );
            let phases = sweep.host_phase_sec();
            if phases.total() > 0.0 {
                let breakdown = tifl::obs::Phase::ALL
                    .iter()
                    .map(|p| format!("{} {:.2}s", p.name(), phases.get(*p)))
                    .collect::<Vec<_>>()
                    .join(", ");
                println!("host phases: {breakdown}");
            }
            for (key, label, message) in sweep.failures() {
                eprintln!("[tifl] FAILED {label} ({key}): {message}");
            }
            if sweep.failed() > 0 {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        [cmd, path, rest @ ..] if cmd == "trace" => {
            let mut out = None;
            let mut host = false;
            let mut args = rest.iter();
            while let Some(a) = args.next() {
                match a.as_str() {
                    "--out" => {
                        let Some(p) = args.next() else { return usage() };
                        out = Some(p.clone());
                    }
                    "--host" => host = true,
                    _ => return usage(),
                }
            }
            // Accept either a run request or a stored artifact — an
            // artifact carries its request, and re-running it is
            // deterministic, so the trace it never stored can be
            // regenerated bit-for-bit. An artifact's stored metrics
            // double as a determinism check against the regenerated
            // run.
            let (request, stored_metrics) = match read_json::<RunArtifact>(path) {
                Ok(artifact) => {
                    let Some(metrics) = artifact.metrics else {
                        eprintln!(
                            "[tifl] artifact has no metrics; re-run with run_observed \
                             (re-execute the cell with `tifl sweep --out` to rewrite the \
                             artifact with a metrics section, or trace the request file)"
                        );
                        return Ok(ExitCode::FAILURE);
                    };
                    (artifact.request, Some(metrics))
                }
                Err(_) if read_json::<TrainingReport>(path).is_ok() => {
                    return Err(format!(
                        "{path}: a bare training report records results, not a request, so \
                         there is nothing to re-run; trace a run request or a store artifact"
                    ));
                }
                Err(artifact_err) => (
                    read_json::<RunRequest>(path)
                        .map_err(|e| format!("{e} (nor an artifact: {artifact_err})"))?,
                    None,
                ),
            };
            check_fit(path, &request.experiment)?;
            eprintln!(
                "[tifl] tracing {} / {} ...",
                request.experiment.name,
                request.spec.display_label()
            );
            let observed = request.run_observed(1 << 18);
            let rows = tifl::obs::round_rows(&observed.records);
            print!("{}", tifl::obs::render_rounds(&rows));
            print!("{}", observed.metrics.render_text());
            if let Some(stored) = stored_metrics {
                if stored == observed.metrics {
                    eprintln!("[tifl] regenerated metrics match the artifact's stored snapshot");
                } else {
                    eprintln!(
                        "[tifl] WARNING: regenerated metrics diverge from the artifact's \
                         stored snapshot — determinism bug or corrupt artifact (try `tifl audit`)"
                    );
                    return Ok(ExitCode::FAILURE);
                }
            }
            if let Some(out) = out {
                let mut events = tifl::obs::chrome_trace(&observed.records);
                if host {
                    // The host lane rides alongside as a second process
                    // (pid 2): same viewer, two clocks. Host timings are
                    // best-effort — only the virtual lane is
                    // byte-deterministic.
                    events.extend(tifl::obs::host_chrome_trace(&observed.host_spans));
                }
                tifl::sweep::store::write_json(Path::new(&out), &events).map_err(at(&out))?;
                println!(
                    "wrote {} Chrome trace events to {out} (chrome://tracing, Perfetto{})",
                    events.len(),
                    if host { "; virtual + host lanes" } else { "" }
                );
            }
            ExitCode::SUCCESS
        }
        [cmd, a, b, rest @ ..] if cmd == "diff" => {
            let mut format = "human".to_string();
            let mut args = rest.iter();
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "--format" => {
                        let Some(f) = args.next() else { return usage() };
                        format = f.clone();
                    }
                    _ => return usage(),
                }
            }
            // Operands are store artifacts or bare training reports
            // (`tifl run --spec --out`); either way the diff walks the
            // digest chains — nothing is re-run.
            let load = |path: &str| {
                read_json::<RunArtifact>(path)
                    .map(|artifact| artifact.report)
                    .or_else(|_| read_json::<TrainingReport>(path))
            };
            let diff = load(a)?.diff(a, &load(b)?, b);
            match format.as_str() {
                "human" => print!("{}", diff.render_text()),
                "json" => println!(
                    "{}",
                    serde_json::to_string_pretty(&diff).expect("diff report serializes")
                ),
                _ => return usage(),
            }
            if diff.identical() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        [cmd, dir, rest @ ..] if cmd == "audit" => {
            let mut deny = false;
            let mut format = "human".to_string();
            let mut out = None;
            let mut args = rest.iter();
            while let Some(a) = args.next() {
                match a.as_str() {
                    "--deny" => deny = true,
                    "--format" => {
                        let Some(f) = args.next() else { return usage() };
                        format = f.clone();
                    }
                    "--out" => {
                        let Some(p) = args.next() else { return usage() };
                        out = Some(p.clone());
                    }
                    _ => return usage(),
                }
            }
            if !Path::new(dir).is_dir() {
                eprintln!("[tifl] no store directory at {dir}");
                return Ok(ExitCode::FAILURE);
            }
            let store = RunStore::open(dir).map_err(at(dir))?;
            let report = tifl::sweep::audit_store(&store);
            match format.as_str() {
                "human" => print!("{}", report.render_text()),
                "json" => println!(
                    "{}",
                    serde_json::to_string_pretty(&report).expect("audit report serializes")
                ),
                _ => return usage(),
            }
            if let Some(out) = out {
                tifl::sweep::store::write_json(Path::new(&out), &report).map_err(at(&out))?;
                eprintln!("[tifl] wrote audit report to {out}");
            }
            if deny && !report.is_clean() {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        [cmd, rest @ ..] if cmd == "merge" => {
            let mut inputs: Vec<std::path::PathBuf> = Vec::new();
            let mut out = None;
            let mut deny = false;
            let mut args = rest.iter();
            while let Some(a) = args.next() {
                match a.as_str() {
                    "--out" => {
                        let Some(p) = args.next() else { return usage() };
                        out = Some(p.clone());
                    }
                    "--deny" => deny = true,
                    flag if flag.starts_with("--") => return usage(),
                    _ => inputs.push(std::path::PathBuf::from(a)),
                }
            }
            let Some(out) = out else { return usage() };
            if inputs.is_empty() {
                return usage();
            }
            let store = RunStore::open(&out).map_err(at(&out))?;
            let report = match tifl::sweep::merge_stores(&inputs, &store) {
                Ok(report) => report,
                Err(e) => {
                    eprintln!("[tifl] merge failed: {e}");
                    return Ok(ExitCode::FAILURE);
                }
            };
            print!("{}", report.render_text());
            if deny && !report.is_clean() {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        [cmd, dir, rest @ ..] if cmd == "report" => {
            let mut format = "human".to_string();
            let mut target = None;
            let mut args = rest.iter();
            while let Some(a) = args.next() {
                match a.as_str() {
                    "--format" => {
                        let Some(f) = args.next() else { return usage() };
                        format = f.clone();
                    }
                    "--target" => {
                        let t = args.next().map(|t| t.parse::<f64>());
                        let Some(Ok(t)) = t else { return usage() };
                        target = Some(t);
                    }
                    _ => return usage(),
                }
            }
            if !Path::new(dir).is_dir() {
                eprintln!("[tifl] no store directory at {dir}");
                return Ok(ExitCode::FAILURE);
            }
            let store = RunStore::open(dir).map_err(at(dir))?;
            let rows = tifl::sweep::pivot_rows(&store, target);
            if rows.is_empty() {
                eprintln!("[tifl] no run artifacts found in {dir}");
                return Ok(ExitCode::FAILURE);
            }
            match format.as_str() {
                "human" => print!("{}", tifl::obs::render_pivot(&rows, target)),
                "json" => {
                    println!(
                        "{}",
                        serde_json::to_string_pretty(&rows).expect("pivot rows serialize")
                    );
                }
                _ => return usage(),
            }
            ExitCode::SUCCESS
        }
        [cmd, path, policy] if cmd == "run" => {
            let cfg: ExperimentConfig = read_json(path)?;
            let mut runner = cfg.runner();
            let report = if policy == "adaptive" {
                runner.adaptive(None).run()
            } else {
                match policy_by_name(policy, cfg.tiering.num_tiers) {
                    Some(p) => runner.policy(&p).run(),
                    None => return usage(),
                }
            };
            print_report(&report);
            ExitCode::SUCCESS
        }
        _ => return usage(),
    })
}

/// Load `path` as a JSON `T`; the error names the path, then the cause
/// (unreadable, malformed or truncated JSON, or a different document).
fn read_json<T: serde::Deserialize>(path: &str) -> Result<T, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| {
        let what = std::any::type_name::<T>().rsplit("::").next().unwrap_or("");
        format!("{path}: not a {what}: {e}")
    })
}

/// Reject a loaded document whose model cannot train on its data, as
/// `<path>: model … / data …`, before any session is built.
fn check_fit(path: &str, experiment: &ExperimentConfig) -> Result<(), String> {
    experiment
        .model_fits_data()
        .map_err(|e| format!("{path}: {e}"))
}

fn write_json<T: serde::Serialize>(path: &str, value: &T) -> Result<(), String> {
    let json = serde_json::to_string_pretty(value).expect("serialisable");
    std::fs::write(path, json).map_err(at(path))
}

/// An I/O failure on `path` the way `main` reports it: `<path>: <cause>`.
fn at(path: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{path}: {e}")
}
