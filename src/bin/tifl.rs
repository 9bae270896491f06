//! `tifl` — command-line front end for the TiFL reproduction.
//!
//! `tifl help` lists the commands: the usage lines of `COMMANDS`, which
//! are also what the parser checks a command line against before the
//! handler reads any file. Configs, run requests and sweep manifests
//! are the JSON forms of `ExperimentConfig`, `RunRequest` and
//! `SweepManifest`; `tifl paper <id>` prints one of the paper's figures
//! or tables (the `paper` module).

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "the CLI owns its process's stdio"
)]

// Beside this file, not in it: a file directly under `src/bin/` would
// be a binary of its own.
#[path = "tifl/paper.rs"]
mod paper;

use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use tifl::prelude::*;

/// One row of the command table. `usage` is the command's line after
/// `tifl`: the words that select it, then its operands — `<path>`,
/// `<path>...` (one or more) or `<a|b|…>` (one word of the set) — and
/// its flags — `[--switch]`, `[--flag VALUE]`, or `--flag VALUE` when
/// it must be given. A placeholder says what it accepts: `N` an
/// integer, `ACC` a number, `I/N` a shard, `a|b|…` one of the words;
/// any other takes free text.
struct Command {
    usage: &'static str,
    summary: &'static str,
    handler: fn(&Args<'_>) -> Result<ExitCode, String>,
}

const COMMANDS: &[Command] = &[
    Command {
        usage: "init <config.json>",
        summary: "write a template experiment config",
        handler: init_config,
    },
    Command {
        usage: "init --spec <run.json>",
        summary: "write a template run request",
        handler: init_spec,
    },
    Command {
        usage: "init --sweep <sweep.json>",
        summary: "write a template sweep manifest",
        handler: init_sweep,
    },
    Command {
        usage: "profile <config.json>",
        summary: "profile the cluster and print the §4.2 tier assignment",
        handler: profile,
    },
    Command {
        usage: "estimate <config.json>",
        summary: "print Eq. 6 training-time estimates per policy",
        handler: estimate,
    },
    Command {
        usage: "run <config.json> <vanilla|slow|uniform|random|fast|fast1|fast2|fast3|adaptive>",
        summary: "train a config under a named policy",
        handler: run_policy,
    },
    Command {
        usage: "run --spec <run.json> [--threads N] [--out <report.json>]",
        summary: "train a declarative run request",
        handler: run_spec,
    },
    Command {
        usage: "sweep <sweep.json> [--workers N] [--out DIR] [--resume] \
                [--progress <log.jsonl>] [--shard I/N]",
        summary: "execute a whole run matrix (resumable, shardable across hosts)",
        handler: sweep,
    },
    Command {
        usage: "trace <run-or-artifact.json> [--out <trace.json>] [--host]",
        summary: "re-run a request or an artifact observed; export a Chrome trace",
        handler: trace,
    },
    Command {
        usage: "diff <a.json> <b.json> [--format human|json]",
        summary: "find the first divergent round of two runs",
        handler: diff,
    },
    Command {
        usage: "audit <store-dir> [--deny] [--format human|json] [--out <audit.json>]",
        summary: "re-verify every artifact in a store",
        handler: audit,
    },
    Command {
        usage: "merge <store-dir>... --out <dir> [--deny]",
        summary: "union shard stores, byte-comparing overlapping keys",
        handler: merge,
    },
    Command {
        usage: "report <store-dir> [--format human|json] [--target ACC]",
        summary: "pivot a store into a policy table without re-running",
        handler: report,
    },
    Command {
        usage: "paper <fig1a|fig1b|straggler_prob|table2|fig3|fig4|fig5|fig6|fig7|fig8|fig9|\
                privacy|dp_training|ablation_tiers|baselines|class_bias|reprofiling|time_to_acc> \
                [--rounds N] [--seed N] [--json <series.json>]",
        summary: "print one of the paper's figures or tables (§3–§5 and extensions)",
        handler: paper::paper,
    },
    Command {
        usage: "help",
        summary: "print this text",
        handler: help,
    },
];

/// A flag a usage line declares: its value's placeholder (`None` for a
/// switch) and whether it must be given.
struct Flag {
    name: &'static str,
    meta: Option<&'static str>,
    required: bool,
}

impl Command {
    /// The words that select the row: its usage up to the first operand
    /// or flag.
    fn words(&self) -> impl Iterator<Item = &'static str> {
        self.usage
            .split(' ')
            .take_while(|t| !t.starts_with(['<', '[']))
    }

    /// The operand placeholders and the flags of the usage line.
    fn syntax(&self) -> (Vec<&'static str>, Vec<Flag>) {
        let (mut operands, mut flags) = (Vec::new(), Vec::new());
        let mut tokens = self.usage.split(' ').skip(self.words().count()).peekable();
        while let Some(token) = tokens.next() {
            let name = token.trim_matches(['[', ']']);
            if !name.starts_with("--") {
                operands.push(token);
                continue;
            }
            // A switch is `[--name]`; any other flag's next token is its
            // value's placeholder.
            let meta = tokens.next_if(|_| !token.ends_with(']'));
            flags.push(Flag {
                name,
                meta: meta.map(|m| m.trim_end_matches(']')),
                required: !token.starts_with('['),
            });
        }
        (operands, flags)
    }

    /// Check `args` (the words after the row's own) against the usage
    /// line: every flag known and given a value it accepts, every
    /// operand present and accepted, every required flag given. Reads
    /// no file.
    fn parse<'a>(&self, args: &'a [String]) -> Result<Args<'a>, String> {
        let (operands, flags) = self.syntax();
        let mut parsed = Args::default();
        let mut rest = args.iter().map(String::as_str);
        while let Some(arg) = rest.next() {
            if !arg.starts_with("--") {
                parsed.operands.push(arg);
                continue;
            }
            let flag = flags
                .iter()
                .find(|f| f.name == arg)
                .ok_or_else(|| format!("unknown flag `{arg}`"))?;
            let mut value = None;
            if let Some(meta) = flag.meta {
                let v = rest.next().ok_or_else(|| format!("{arg} needs a value"))?;
                accepts(meta, v).map_err(|what| format!("{arg} must be {what}, got `{v}`"))?;
                value = Some(v);
            }
            parsed.flags.push((flag.name, value));
        }
        let many = operands.last().is_some_and(|o| o.ends_with("..."));
        let (want, got) = (operands.len(), parsed.operands.len());
        if got < want || (got > want && !many) {
            return Err(format!("expected {want} operand(s), got {got}"));
        }
        for (operand, value) in operands.iter().zip(&parsed.operands) {
            accepts(operand, value).map_err(|what| format!("`{value}` is not {what}"))?;
        }
        match flags.iter().find(|f| f.required && !parsed.has(f.name)) {
            Some(flag) => Err(format!("missing {}", flag.name)),
            None => Ok(parsed),
        }
    }
}

/// Whether `value` fits the placeholder `meta` (see `Command`); the
/// error says what it must be.
fn accepts(meta: &str, value: &str) -> Result<(), String> {
    let words = meta.trim_start_matches('<').trim_end_matches('>');
    let (fits, what) = match meta {
        "N" => (value.parse::<usize>().is_ok(), "an integer".into()),
        "ACC" => (value.parse::<f64>().is_ok(), "a number".into()),
        "I/N" => (shard(value).is_some(), "I/N with I < N".into()),
        _ if words.contains('|') => (
            words.split('|').any(|w| w == value),
            format!("one of {words}"),
        ),
        _ => (true, String::new()),
    };
    fits.then_some(()).ok_or(what)
}

/// A command line its row accepted: operands in order, flags by name
/// (a repeated flag's last value wins).
#[derive(Default)]
struct Args<'a> {
    operands: Vec<&'a str>,
    flags: Vec<(&'static str, Option<&'a str>)>,
}

impl Args<'_> {
    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(name, _)| *name == flag)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        let (_, value) = self.flags.iter().rev().find(|(name, _)| *name == flag)?;
        *value
    }

    /// The value of a flag whose placeholder the parser checked parses.
    fn get<T: std::str::FromStr>(&self, flag: &str) -> Option<T> {
        self.value(flag)?.parse().ok()
    }
}

/// `--shard I/N`: slice I of N of a sweep's expansion (disjoint,
/// covering, stable across hosts — see `shard_runs`).
fn shard(value: &str) -> Option<(usize, usize)> {
    let (i, n) = value.split_once('/')?;
    let (i, n) = (i.parse().ok()?, n.parse().ok()?);
    (i < n).then_some((i, n))
}

/// Every row's usage line and summary.
fn usage_text() -> String {
    let rows = COMMANDS
        .iter()
        .map(|c| format!("  tifl {}\n      {}\n", c.usage, c.summary));
    format!("usage:\n{}", rows.collect::<String>())
}

/// Run the handler of the row the command line names. A malformed
/// line exits 2; a handler's `Err` exits 1: a file that could not be
/// loaded or written (as `<path>: <cause>`), a failed run, or a check
/// that found a problem.
fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let named = |c: &&Command| {
        let words = c.words().count();
        args.len() >= words && c.words().zip(&args).all(|(w, a)| w == a)
    };
    let result = if args.first().is_some_and(|a| a == "--help") {
        help(&Args::default())
    } else if let Some(command) = COMMANDS
        .iter()
        .filter(named)
        .max_by_key(|c| c.words().count())
    {
        match command.parse(&args[command.words().count()..]) {
            Ok(parsed) => (command.handler)(&parsed),
            Err(problem) => {
                eprintln!("[tifl] {problem}\nusage: tifl {}", command.usage);
                return ExitCode::from(2);
            }
        }
    } else {
        if let Some(unknown) = args.first() {
            eprintln!("[tifl] unknown command `{unknown}`");
        }
        eprint!("{}", usage_text());
        return ExitCode::from(2);
    };
    result.unwrap_or_else(|e| {
        eprintln!("[tifl] {e}");
        ExitCode::FAILURE
    })
}

fn help(_: &Args<'_>) -> Result<ExitCode, String> {
    print!("{}", usage_text());
    Ok(ExitCode::SUCCESS)
}

/// Write a template document as pretty JSON to the operand.
fn init(args: &Args<'_>, what: &str, template: &impl Serialize) -> Result<ExitCode, String> {
    let path = args.operands[0];
    let json = serde_json::to_string_pretty(template).expect("templates serialize");
    std::fs::write(path, json).map_err(at(path))?;
    println!("wrote template {what} to {path}");
    Ok(ExitCode::SUCCESS)
}

fn init_config(args: &Args<'_>) -> Result<ExitCode, String> {
    init(args, "config", &ExperimentConfig::cifar10_resource_het(42))
}

fn init_spec(args: &Args<'_>) -> Result<ExitCode, String> {
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
    init(args, "run request", &request)
}

fn init_sweep(args: &Args<'_>) -> Result<ExitCode, String> {
    // A 6-run template: 3 selection strategies × 2 seeds over the §5.1
    // resource-heterogeneity topology (one profiling pass per seed).
    let mut manifest = SweepManifest::new(ExperimentConfig::cifar10_resource_het(42));
    manifest.name = Some("selection-x-seeds".into());
    manifest.rounds = Some(10);
    manifest.axes.seeds = vec![42, 43];
    manifest.axes.selection = vec![
        SelectionStrategy::Vanilla,
        SelectionStrategy::TierPolicy {
            policy: Policy::uniform(5),
        },
        SelectionStrategy::Adaptive { config: None },
    ];
    let what = format!("sweep manifest ({} runs)", manifest.expand().len());
    init(args, &what, &manifest)
}

fn profile(args: &Args<'_>) -> Result<ExitCode, String> {
    let cfg: ExperimentConfig = load(args.operands[0])?;
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
    Ok(ExitCode::SUCCESS)
}

fn estimate(args: &Args<'_>) -> Result<ExitCode, String> {
    let cfg: ExperimentConfig = load(args.operands[0])?;
    let mut runner = cfg.runner();
    println!("{:<10} {:>16}", "policy", "estimate [s]");
    let num_tiers = runner.tiers().num_tiers();
    for p in Policy::cifar_set(num_tiers).iter().skip(1) {
        let est = runner.estimate(p);
        println!("{:<10} {est:>16.0}", p.name);
    }
    Ok(ExitCode::SUCCESS)
}

/// The selection `run <config.json> <policy>` names: a static policy
/// of Table 1 over `m` tiers, or Algorithm 2.
fn policy_by_name(name: &str, m: usize) -> Option<SelectionStrategy> {
    let policy = match name {
        "adaptive" => return Some(SelectionStrategy::Adaptive { config: None }),
        "vanilla" => Policy::vanilla(),
        "slow" => Policy::slow(m),
        "uniform" => Policy::uniform(m),
        "random" => Policy::random5(m),
        "fast" => Policy::fast(m),
        level @ ("fast1" | "fast2" | "fast3") => Policy::fast_levels(m)
            .into_iter()
            .find(|p| p.name == level)?,
        _ => return None,
    };
    Some(SelectionStrategy::TierPolicy { policy })
}

/// `run <config.json> <policy>`: the config and policy as a run
/// request, trained like `run --spec`.
fn run_policy(args: &Args<'_>) -> Result<ExitCode, String> {
    let experiment: ExperimentConfig = load(args.operands[0])?;
    let selection = policy_by_name(args.operands[1], experiment.tiering.num_tiers);
    let spec = RunSpec {
        selection: selection.ok_or("unknown policy")?,
        ..RunSpec::default()
    };
    let request = RunRequest {
        experiment,
        rounds: None,
        seed: None,
        clients_per_round: None,
        spec,
    };
    fits(args.operands[0], &request)?;
    train(args, request)
}

fn run_spec(args: &Args<'_>) -> Result<ExitCode, String> {
    train(args, load(args.operands[0])?)
}

/// Train `request` on `--threads` threads, print its report and write
/// it to `--out`.
fn train(args: &Args<'_>, mut request: RunRequest) -> Result<ExitCode, String> {
    let threads = args.get::<usize>("--threads");
    // Force the thread count: event-driven specs get their knob
    // overridden; lockstep specs take the ambient count, which the pool
    // below sets.
    if let (Some(threads), ExecBackend::EventDriven { .. }) = (threads, request.spec.backend) {
        request.spec.backend = ExecBackend::EventDriven { threads };
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
    if let Some(out) = args.value("--out") {
        // The sweep store's serializer, so a single run's report and a
        // sweep artifact's `report` field are the same JSON.
        save(out, &report)?;
        println!("wrote full report to {out}");
    }
    Ok(ExitCode::SUCCESS)
}

fn sweep(args: &Args<'_>) -> Result<ExitCode, String> {
    let manifest: SweepManifest = load(args.operands[0])?;
    // The store is opened here so that an unusable directory is an
    // error naming it, not the builder's panic.
    let out = args.value("--out").unwrap_or("sweep-artifacts");
    RunStore::open(out).map_err(at(out))?;
    let workers = args.get("--workers").filter(|&n| n > 0);
    let workers = workers.unwrap_or_else(tifl::sweep::store::host_parallelism);
    let runs = manifest.expand();
    let mut count = format!("{} runs", runs.len());
    let mut builder = SweepBuilder::from_manifest(manifest);
    builder
        .workers(workers)
        .out(out)
        .resume(args.has("--resume"));
    if let Some((i, n)) = args.value("--shard").and_then(shard) {
        let mine = shard_runs(&runs, i, n).len();
        count = format!("{mine} runs (shard {i}/{n} of {})", runs.len());
        builder.shard(i, n);
    }
    if let Some(path) = args.value("--progress") {
        builder.progress(ProgressLog::create(Path::new(path)).map_err(at(path))?);
    }
    eprintln!(
        "[tifl] sweep `{}`: {count} on {workers} workers -> {out}",
        builder.manifest().name.as_deref().unwrap_or("unnamed"),
    );
    let sweep = builder.run();
    println!(
        "{:<12} {:<34} {:>10} {:>11} {:>9}",
        "status", "run", "rounds", "time [s]", "final acc"
    );
    for outcome in &sweep.outcomes {
        let status = outcome.status().replace("failed", "FAILED");
        match outcome.report().map(TrainingReport::summary) {
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
    Ok(ExitCode::from(u8::from(sweep.failed() > 0)))
}

fn trace(args: &Args<'_>) -> Result<ExitCode, String> {
    // Accept either a run request or a stored artifact — an artifact
    // carries its request, and re-running it is deterministic, so the
    // trace it never stored can be regenerated bit-for-bit. An
    // artifact's stored metrics double as a determinism check against
    // the regenerated run.
    let path = args.operands[0];
    let (request, stored_metrics) = match load::<RunArtifact>(path) {
        Ok(artifact) => {
            fits(path, &artifact.request)?;
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
        Err(_) if load::<TrainingReport>(path).is_ok() => {
            return Err(format!(
                "{path}: a bare training report records results, not a request, so there is \
                 nothing to re-run; trace a run request or a store artifact"
            ));
        }
        Err(artifact_err) => (
            load::<RunRequest>(path)
                .map_err(|e| format!("{e} (nor an artifact: {artifact_err})"))?,
            None,
        ),
    };
    eprintln!(
        "[tifl] tracing {} / {} ...",
        request.experiment.name,
        request.spec.display_label()
    );
    let exp = request.experiment();
    let mut runner = Runner::with_spec(&exp, request.spec.clone());
    let observed = runner.run_observed();
    println!(
        "{:>6} {:>12} {:>12} {:>9} {:>13} {:>12} {:>12}",
        "round", "start [s]", "latency [s]", "selected", "contributors", "up [B]", "down [B]"
    );
    // A round starts when the previous one ended: the clock advances
    // only by round latencies.
    let mut start = 0.0;
    for r in &observed.report.rounds {
        println!(
            "{:>6} {start:>12.1} {:>12.1} {:>9} {:>13} {:>12} {:>12}",
            r.round,
            r.latency,
            r.selected.len(),
            r.aggregated.len(),
            r.bytes_up,
            r.bytes_down
        );
        start = r.time;
    }
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
    if let Some(out) = args.value("--out") {
        let host = args.has("--host");
        // The virtual lane is laid out from the report's round plans.
        let mut events = runner.virtual_trace(&observed.report);
        if host {
            // The host lane rides alongside as a second process (pid
            // 2): same viewer, two clocks. Host timings are best-effort
            // — only the virtual lane is byte-deterministic.
            events.extend(tifl::obs::host_chrome_trace(&observed.host_spans));
        }
        save(out, &events)?;
        println!(
            "wrote {} Chrome trace events to {out} (chrome://tracing, Perfetto{})",
            events.len(),
            if host { "; virtual + host lanes" } else { "" }
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn diff(args: &Args<'_>) -> Result<ExitCode, String> {
    // Operands are store artifacts or bare training reports (`tifl run
    // --out`); either way the diff walks the digest chains — nothing is
    // re-run.
    let load_report = |path: &str| {
        load::<RunArtifact>(path)
            .map(|artifact| artifact.report)
            .or_else(|_| load::<TrainingReport>(path))
    };
    let (a, b) = (args.operands[0], args.operands[1]);
    let diff = load_report(a)?.diff(a, &load_report(b)?, b);
    print_formatted(args, &diff, || diff.render_text());
    Ok(ExitCode::from(u8::from(!diff.identical())))
}

fn audit(args: &Args<'_>) -> Result<ExitCode, String> {
    let report = tifl::sweep::audit_store(&store_at(args.operands[0])?);
    print_formatted(args, &report, || report.render_text());
    if let Some(out) = args.value("--out") {
        save(out, &report)?;
        eprintln!("[tifl] wrote audit report to {out}");
    }
    let denied = args.has("--deny") && !report.is_clean();
    Ok(ExitCode::from(u8::from(denied)))
}

fn merge(args: &Args<'_>) -> Result<ExitCode, String> {
    // Every input is checked before the output is created, so a bad
    // input leaves nothing behind.
    for dir in &args.operands {
        store_at(dir)?;
    }
    let out = args.value("--out").expect("the parser requires --out");
    let store = RunStore::open(out).map_err(at(out))?;
    let inputs: Vec<PathBuf> = args.operands.iter().map(PathBuf::from).collect();
    let report =
        tifl::sweep::merge_stores(&inputs, &store).map_err(|e| format!("merge failed: {e}"))?;
    print!("{}", report.render_text());
    let denied = args.has("--deny") && !report.is_clean();
    Ok(ExitCode::from(u8::from(denied)))
}

fn report(args: &Args<'_>) -> Result<ExitCode, String> {
    let dir = args.operands[0];
    let target = args.get::<f64>("--target");
    let rows = tifl::sweep::pivot_rows(&store_at(dir)?, target);
    if rows.is_empty() {
        return Err(format!("no run artifacts found in {dir}"));
    }
    print_formatted(args, &rows, || tifl::obs::render_pivot(&rows, target));
    Ok(ExitCode::SUCCESS)
}

/// Print `value` as `--format` asks: `human` (the default) prints
/// `text()`, `json` the value as pretty JSON.
fn print_formatted<T: Serialize>(args: &Args<'_>, value: &T, text: impl FnOnce() -> String) {
    if args.value("--format") == Some("json") {
        let json = serde_json::to_string_pretty(value).expect("reports serialize");
        println!("{json}");
    } else {
        print!("{}", text());
    }
}

/// A JSON document a command loads.
trait Document: Deserialize {
    /// Whether the sizes of what the document trains fit, as it will
    /// run (a request's overrides applied and its selection known, a
    /// manifest expanded to its cells); checked when it is loaded.
    fn check_sizes(&self) -> Result<(), String> {
        Ok(())
    }
}

impl Document for ExperimentConfig {
    fn check_sizes(&self) -> Result<(), String> {
        ExperimentConfig::check_sizes(self)
    }
}

impl Document for RunRequest {
    fn check_sizes(&self) -> Result<(), String> {
        RunRequest::check_sizes(self)
    }
}

impl Document for SweepManifest {
    fn check_sizes(&self) -> Result<(), String> {
        self.expand()
            .iter()
            .try_for_each(|run| run.request.check_sizes())
    }
}

/// Loaded to be diffed or audited; `trace` checks the request it
/// re-runs.
impl Document for RunArtifact {}

impl Document for TrainingReport {}

/// Load `path` as a `T`. The error names the path, then the cause:
/// unreadable, malformed or truncated JSON, a different document, or
/// sizes that do not fit (caught before any session is built).
fn load<T: Document>(path: &str) -> Result<T, String> {
    let text = std::fs::read_to_string(path).map_err(at(path))?;
    let document: T = serde_json::from_str(&text).map_err(|e| {
        let what = std::any::type_name::<T>().rsplit("::").next().unwrap_or("");
        format!("{path}: not a {what}: {e}")
    })?;
    fits(path, &document)?;
    Ok(document)
}

/// The sizes of what `path` trains fit each other.
fn fits(path: &str, document: &impl Document) -> Result<(), String> {
    document.check_sizes().map_err(|e| format!("{path}: {e}"))
}

/// The store at `dir`, which must already exist: a command that reads
/// a store creates nothing.
fn store_at(dir: &str) -> Result<RunStore, String> {
    if !Path::new(dir).is_dir() {
        return Err(format!("no store directory at {dir}"));
    }
    RunStore::open(dir).map_err(at(dir))
}

/// Write `value` with the sweep store's serializer.
fn save<T: Serialize>(path: &str, value: &T) -> Result<(), String> {
    tifl::sweep::store::write_json(Path::new(path), value).map_err(at(path))
}

/// An I/O failure on `path` the way `main` reports it: `<path>: <cause>`.
fn at(path: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{path}: {e}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_policy_word_names_a_policy() {
        let run = COMMANDS.iter().find(|c| c.usage.starts_with("run <"));
        let (operands, _) = run.expect("a `run <config.json>` row").syntax();
        for name in operands[1].trim_matches(['<', '>']).split('|') {
            assert!(policy_by_name(name, 5).is_some(), "{name}");
        }
    }

    #[test]
    fn the_paper_row_names_every_figure_in_order() {
        let row = COMMANDS.iter().find(|c| c.usage.starts_with("paper "));
        let (operands, _) = row.expect("a `paper` row").syntax();
        let ids: Vec<&str> = operands[0].trim_matches(['<', '>']).split('|').collect();
        assert_eq!(ids, paper::FIGURES.map(|(id, _)| id));
    }

    #[test]
    fn a_shard_index_must_be_below_its_count() {
        assert_eq!(shard("1/2"), Some((1, 2)));
        for bad in ["2/2", "3/2", "0/0", "1", "a/2", "1/b"] {
            assert_eq!(shard(bad), None, "{bad}");
        }
    }
}
