//! The paper driver: every table and figure of the paper's evaluation,
//! by id.
//!
//! `paper <id> [--rounds N] [--seed S] [--json PATH]` (see [`run`]):
//!
//! * `<id>` — one of [`FIGURES`] (`fig3`, `table2`, `baselines`, …; the
//!   README maps each id to its paper figure and scenario);
//! * `--rounds N` — override the number of global rounds (paper-scale
//!   defaults can take minutes; `--rounds 100` gives quick shape checks);
//! * `--seed S` — change the root seed;
//! * `--json PATH` — additionally dump the raw series as JSON.
//!
//! Every training figure is a list of [`RunRequest`]s handed to the
//! sweep scheduler (`run_all`), so its curves run in parallel across
//! the host's cores, share one profiling pass per topology and one
//! dataset per experiment, and are the same requests `tifl run --spec`
//! and `tifl sweep` execute.
//!
//! All "time" columns are **virtual seconds** from the simulated
//! testbed.

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "the paper driver and the perf gate report on their process's stdio"
)]

mod figures;
pub mod timing;

pub use figures::FIGURES;

use serde::Serialize;
use std::io::{self, Write};
use tifl_core::experiment::ExperimentConfig;
use tifl_core::runner::{RunRequest, RunSpec};
use tifl_fl::TrainingReport;
use tifl_sweep::{KeyedRun, RunKey, SweepScheduler};

/// A figure: prints its tables to the writer and dumps its series.
pub type Figure = fn(&HarnessArgs, &mut dyn Write) -> io::Result<()>;

/// Run the driver on `argv` (the arguments after the program name),
/// printing the figure to `out`.
///
/// # Errors
/// [`io::ErrorKind::InvalidInput`] with a usage message listing the
/// valid ids for an unknown id or a malformed flag; otherwise whatever
/// writing to `out` or to the `--json` path returned.
///
/// # Panics
/// Panics if a training run of the figure fails — a partially plotted
/// figure is a bug.
pub fn run(argv: &[String], out: &mut dyn Write) -> io::Result<()> {
    let (id, args) = HarnessArgs::parse(argv)?;
    let (_, figure) = FIGURES
        .iter()
        .find(|(name, _)| *name == id)
        .ok_or_else(|| usage(&format!("unknown id `{id}`")))?;
    figure(&args, out)
}

fn usage(problem: &str) -> io::Error {
    let ids: Vec<&str> = FIGURES.iter().map(|&(id, _)| id).collect();
    io::Error::new(
        io::ErrorKind::InvalidInput,
        format!(
            "{problem}\nusage: paper <id> [--rounds N] [--seed S] [--json PATH]\nids: {}",
            ids.join(" ")
        ),
    )
}

/// The flags every figure accepts.
#[derive(Debug, Clone, Default)]
pub struct HarnessArgs {
    /// Override for the round count.
    rounds: Option<u64>,
    /// Override for the root seed.
    seed: Option<u64>,
    /// Optional JSON dump path.
    json: Option<String>,
}

impl HarnessArgs {
    /// Split `argv` into the figure id and the flags.
    fn parse(argv: &[String]) -> io::Result<(&str, Self)> {
        let mut args = argv.iter();
        let id = args.next().ok_or_else(|| usage("missing figure id"))?;
        let mut out = Self::default();
        while let Some(flag) = args.next() {
            let mut value = || {
                args.next()
                    .ok_or_else(|| usage(&format!("{flag} needs a value")))
            };
            let integer = |v: &String| {
                v.parse()
                    .map_err(|_| usage(&format!("{flag} must be an integer, got `{v}`")))
            };
            match flag.as_str() {
                "--rounds" => out.rounds = Some(integer(value()?)?),
                "--seed" => out.seed = Some(integer(value()?)?),
                "--json" => out.json = Some(value()?.clone()),
                other => return Err(usage(&format!("unknown argument `{other}`"))),
            }
        }
        Ok((id, out))
    }

    /// The root seed (default 42).
    fn seed(&self) -> u64 {
        self.seed.unwrap_or(42)
    }

    /// A preset at this seed, its horizon cut to `--rounds` if given.
    fn preset(&self, preset: impl Fn(u64) -> ExperimentConfig) -> ExperimentConfig {
        let mut cfg = preset(self.seed());
        cfg.rounds = self.rounds.unwrap_or(cfg.rounds);
        cfg
    }

    /// The resource-heterogeneous CIFAR-10 setup at the figure's own
    /// default horizon — the base of most extension tables.
    fn resource_het(&self, rounds: u64) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::cifar10_resource_het(self.seed());
        cfg.rounds = self.rounds.unwrap_or(rounds);
        cfg
    }

    /// Write `value` as pretty JSON to the `--json` path, if given; a
    /// failed write's error names the path.
    fn maybe_dump_json<T: Serialize>(&self, value: &T) -> io::Result<()> {
        if let Some(path) = &self.json {
            let s = serde_json::to_string_pretty(value).expect("serialisable");
            std::fs::write(path, s)
                .map_err(|e| io::Error::new(e.kind(), format!("writing {path}: {e}")))?;
            eprintln!("wrote raw series to {path}");
        }
        Ok(())
    }
}

/// `spec` over `cfg` as a self-contained request.
fn request(cfg: &ExperimentConfig, spec: RunSpec) -> RunRequest {
    RunRequest {
        experiment: cfg.clone(),
        rounds: None,
        seed: None,
        clients_per_round: None,
        spec,
    }
}

/// Execute `requests` on the sweep scheduler — in parallel across the
/// host's cores, one profiling pass per topology, one dataset per
/// experiment (both counted on stderr) — and return their reports in
/// request order.
fn run_all(requests: Vec<RunRequest>) -> Vec<TrainingReport> {
    let runs: Vec<KeyedRun> = requests
        .into_iter()
        .enumerate()
        .map(|(index, request)| KeyedRun {
            index,
            key: RunKey::of(&request),
            request,
        })
        .collect();
    let sweep = SweepScheduler::new(0).execute(&runs, None, false);
    eprintln!(
        "[paper] {} runs: {} profiling pass(es); {} dataset(s) built, {} shared",
        runs.len(),
        sweep.profiles_computed,
        sweep.datasets_built,
        sweep.dataset_cache_hits
    );
    sweep.into_reports()
}

/// Every spec over every config: one row of outcomes per config, in
/// spec order.
fn grid(cfgs: &[ExperimentConfig], specs: &[RunSpec]) -> Vec<Vec<PolicyOutcome>> {
    let requests = cfgs
        .iter()
        .flat_map(|cfg| specs.iter().map(|spec| request(cfg, spec.clone())))
        .collect();
    run_all(requests)
        .chunks(specs.len())
        .map(|row| row.iter().map(PolicyOutcome::from).collect())
        .collect()
}

/// A labelled experiment outcome used by the tabular printers.
#[derive(Debug, Clone, Serialize)]
struct PolicyOutcome {
    /// Policy name.
    policy: String,
    /// Total virtual training time (seconds).
    total_time: f64,
    /// Final global accuracy.
    final_accuracy: f64,
    /// Best global accuracy seen.
    best_accuracy: f64,
    /// `(round, accuracy)` curve.
    accuracy_over_rounds: Vec<(u64, f64)>,
    /// `(virtual time, accuracy)` curve.
    accuracy_over_time: Vec<(f64, f64)>,
}

impl From<&TrainingReport> for PolicyOutcome {
    fn from(r: &TrainingReport) -> Self {
        Self {
            policy: r.policy.clone(),
            total_time: r.total_time(),
            final_accuracy: r.final_accuracy(),
            best_accuracy: r.best_accuracy(),
            accuracy_over_rounds: r.accuracy_over_rounds(),
            accuracy_over_time: r.accuracy_over_time(),
        }
    }
}

/// Print a figure/table header.
fn header(out: &mut dyn Write, id: &str, caption: &str) -> io::Result<()> {
    writeln!(out, "\n== {id} — {caption} ==")
}

/// Print one table row: `label`, then `cells`, each padded to its
/// entry of `widths` and separated by single spaces. A positive width
/// right-aligns, a negative one left-aligns; the last width repeats
/// for any further cells.
fn row<C: AsRef<str>>(
    out: &mut dyn Write,
    widths: &[i32],
    label: impl std::fmt::Display,
    cells: impl IntoIterator<Item = C>,
) -> io::Result<()> {
    let pad = |width: i32, cell: &str| match width.unsigned_abs() as usize {
        n if width < 0 => format!("{cell:<n$}"),
        n => format!("{cell:>n$}"),
    };
    let mut line = pad(widths[0], &label.to_string());
    for (cell, i) in cells.into_iter().zip(1..) {
        line.push(' ');
        line += &pad(widths[i.min(widths.len() - 1)], cell.as_ref());
    }
    writeln!(out, "{line}")
}

/// `x` to `precision` decimals — a numeric table cell.
fn fx(x: f64, precision: usize) -> String {
    format!("{x:.precision$}")
}

/// An accuracy cell of a curve table (`-` where the curve has no point).
fn accuracy_cell(accuracy: Option<f64>) -> String {
    accuracy.map_or("-".into(), |a| fx(a, 3))
}

/// Print the training-time bar chart (Figs. 3a/b, 5a/b, 6a/b, 9a): one
/// row per policy with total virtual training time.
fn print_time_bars(out: &mut dyn Write, outcomes: &[PolicyOutcome]) -> io::Result<()> {
    row(out, &[-10, 16], "policy", ["train time [s]"])?;
    for o in outcomes {
        row(out, &[-10, 16], &o.policy, [fx(o.total_time, 0)])?;
    }
    Ok(())
}

/// Print accuracy-over-rounds curves side by side, sampled every
/// `stride` evaluation points (Figs. 3c/d, 4, 5c/d, 8, 9b).
fn print_accuracy_over_rounds(
    out: &mut dyn Write,
    outcomes: &[PolicyOutcome],
    stride: usize,
) -> io::Result<()> {
    let names = outcomes.iter().map(|o| truncate(&o.policy, 9));
    row(out, &[7, 9], "round", names)?;
    let curves = || outcomes.iter().map(|o| &o.accuracy_over_rounds);
    let longest = curves().map(Vec::len).max().unwrap_or(0);
    for i in (0..longest).step_by(stride.max(1)) {
        let Some(round) = curves().find_map(|c| c.get(i).map(|&(r, _)| r)) else {
            continue;
        };
        let point = |c: &Vec<(u64, f64)>| accuracy_cell(c.get(i).map(|&(_, a)| a));
        row(out, &[7, 9], round, curves().map(point))?;
    }
    Ok(())
}

/// Print accuracy-over-virtual-time curves (Figs. 3e/f, 6e/f): for a set
/// of common time checkpoints, the accuracy each policy had reached.
fn print_accuracy_over_time(
    out: &mut dyn Write,
    outcomes: &[PolicyOutcome],
    checkpoints: usize,
) -> io::Result<()> {
    let t_max = outcomes.iter().map(|o| o.total_time).fold(0.0f64, f64::max);
    let names = outcomes.iter().map(|o| truncate(&o.policy, 9));
    row(out, &[12, 9], "time [s]", names)?;
    for i in 1..=checkpoints {
        let t = t_max * i as f64 / checkpoints as f64;
        let reached = |o: &PolicyOutcome| {
            let so_far = o.accuracy_over_time.iter().take_while(|&&(tt, _)| tt <= t);
            accuracy_cell(so_far.map(|&(_, a)| a).last())
        };
        row(out, &[12, 9], fx(t, 0), outcomes.iter().map(reached))?;
    }
    Ok(())
}

/// Print a summary row per policy: time, final and best accuracy.
fn print_summary(out: &mut dyn Write, outcomes: &[PolicyOutcome]) -> io::Result<()> {
    const W: [i32; 4] = [-10, 14, 11, 11];
    row(out, &W, "policy", ["time [s]", "final acc", "best acc"])?;
    for o in outcomes {
        let (last, best) = (fx(o.final_accuracy, 3), fx(o.best_accuracy, 3));
        row(out, &W, &o.policy, [fx(o.total_time, 0), last, best])?;
    }
    Ok(())
}

fn truncate(s: &str, n: usize) -> &str {
    &s[..s.len().min(n)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use tifl_fl::RoundReport;

    fn outcome(name: &str) -> PolicyOutcome {
        let report = TrainingReport {
            policy: name.into(),
            rounds: vec![
                RoundReport {
                    round: 0,
                    time: 1.0,
                    latency: 1.0,
                    selected: vec![0],
                    aggregated: Vec::new(),
                    accuracy: Some(0.5),
                    loss: Some(1.0),
                    bytes_down: 0,
                    bytes_up: 0,
                },
                RoundReport {
                    round: 1,
                    time: 2.0,
                    latency: 1.0,
                    selected: vec![1],
                    aggregated: Vec::new(),
                    accuracy: Some(0.8),
                    loss: Some(0.5),
                    bytes_down: 0,
                    bytes_up: 0,
                },
            ],
        };
        PolicyOutcome::from(&report)
    }

    #[test]
    fn outcome_extracts_series() {
        let o = outcome("x");
        assert_eq!(o.total_time, 2.0);
        assert_eq!(o.final_accuracy, 0.8);
        assert_eq!(o.accuracy_over_rounds.len(), 2);
    }

    #[test]
    fn printers_do_not_panic() {
        let os = vec![outcome("vanilla"), outcome("uniform")];
        let mut out = Vec::new();
        print_time_bars(&mut out, &os).unwrap();
        print_accuracy_over_rounds(&mut out, &os, 1).unwrap();
        print_accuracy_over_time(&mut out, &os, 4).unwrap();
        print_summary(&mut out, &os).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("train time [s]") && text.contains("0.800"));
    }

    #[test]
    fn truncate_respects_char_boundaries() {
        assert_eq!(truncate("abcdef", 3), "abc");
        assert_eq!(truncate("ab", 9), "ab");
    }
}
