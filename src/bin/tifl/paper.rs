//! `tifl paper <id>`: every table and figure of the paper's
//! evaluation, by id.
//!
//! `--rounds N` overrides a figure's number of global rounds
//! (paper-scale defaults can take minutes; `--rounds 100` gives quick
//! shape checks), `--seed N` its root seed (default 42), and
//! `--json <series.json>` also writes the raw series the tables print.
//!
//! Every training figure is a list of [`RunRequest`]s handed to the
//! sweep scheduler (`run_all`), so its curves run in parallel across
//! the host's cores, share one profiling pass per topology and one
//! dataset per experiment, and are the same requests `tifl run --spec`
//! and `tifl sweep` execute. A number that needs a profile (Eq. 6
//! estimates, the FedCS deadline, the tier spread) comes from
//! `cfg.runner().tiers()`, which builds no data.
//!
//! All "time" columns are **virtual seconds** from the simulated
//! testbed.

use super::{save, Args};
use serde::Serialize;
use std::error::Error;
use std::io::{self, Write};
use std::process::ExitCode;
use tifl::core::analysis::{
    prob_hit_stragglers, prob_hit_stragglers_lower_bound, prob_hit_stragglers_monte_carlo,
};
use tifl::core::estimator::mape;
use tifl::core::privacy::{compare, DpGuarantee};
use tifl::prelude::*;
use tifl::sim::latency::TrainingTask;
use tifl::tensor::seed_rng;

/// A figure: prints its tables and writes its series to `--json`.
type Figure = fn(&Args<'_>, &mut dyn Write) -> Drawn;

/// What a figure returns: an error names a failed write or run.
type Drawn = Result<(), Box<dyn Error>>;

/// Every id `tifl paper` accepts, in the paper's order, then the
/// extensions.
pub(super) const FIGURES: [(&str, Figure); 18] = [
    ("fig1a", fig1a),
    ("fig1b", fig1b),
    ("straggler_prob", straggler_prob),
    ("table2", table2),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("privacy", privacy),
    ("dp_training", dp_training),
    ("ablation_tiers", ablation_tiers),
    ("baselines", baselines),
    ("class_bias", class_bias),
    ("reprofiling", reprofiling),
    ("time_to_acc", time_to_acc),
];

/// `paper <id>`: print the figure the parser checked `id` names.
pub(super) fn paper(args: &Args<'_>) -> Result<ExitCode, String> {
    let id = args.operands[0];
    let (_, figure) = FIGURES
        .iter()
        .find(|(name, _)| *name == id)
        .expect("the parser checked the id");
    figure(args, &mut io::stdout().lock()).map_err(|e| e.to_string())?;
    Ok(ExitCode::SUCCESS)
}

/// The flags every figure reads.
impl Args<'_> {
    /// The root seed (default 42).
    fn seed(&self) -> u64 {
        self.get("--seed").unwrap_or(42)
    }

    /// The round-count override.
    fn rounds(&self) -> Option<u64> {
        self.get("--rounds")
    }

    /// A preset at this seed, its horizon cut to `--rounds` if given.
    fn preset(&self, preset: impl Fn(u64) -> ExperimentConfig) -> ExperimentConfig {
        let mut cfg = preset(self.seed());
        cfg.rounds = self.rounds().unwrap_or(cfg.rounds);
        cfg
    }

    /// The resource-heterogeneous CIFAR-10 setup at the figure's own
    /// default horizon — the base of most extension tables.
    fn resource_het(&self, rounds: u64) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::cifar10_resource_het(self.seed());
        cfg.rounds = self.rounds().unwrap_or(rounds);
        cfg
    }

    /// Write `series` to the `--json` path, if given.
    fn dump(&self, series: &impl Serialize) -> Drawn {
        if let Some(path) = self.value("--json") {
            save(path, series)?;
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
/// request order, or name every run that failed. A request whose sizes
/// do not fit fails them all before any runs.
fn run_all(requests: Vec<RunRequest>) -> Result<Vec<TrainingReport>, String> {
    for request in &requests {
        request
            .check_sizes()
            .map_err(|e| format!("{}: {e}", request.spec.display_label()))?;
    }
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
fn grid(cfgs: &[ExperimentConfig], specs: &[RunSpec]) -> Result<Vec<Vec<PolicyOutcome>>, String> {
    let requests = cfgs
        .iter()
        .flat_map(|cfg| specs.iter().map(|spec| request(cfg, spec.clone())))
        .collect();
    let reports = run_all(requests)?;
    let rows = reports.chunks(specs.len());
    Ok(rows
        .map(|row| row.iter().map(PolicyOutcome::from).collect())
        .collect())
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

// -- building blocks ---------------------------------------------------------

/// Static tier selection under `policy` (vanilla degrades to Algorithm 1).
fn tier(policy: &Policy) -> RunSpec {
    let policy = policy.clone();
    RunSpec {
        selection: SelectionStrategy::TierPolicy { policy },
        ..RunSpec::default()
    }
}

fn tiers(policies: &[Policy]) -> Vec<RunSpec> {
    policies.iter().map(tier).collect()
}

/// Adaptive tier selection (Algorithm 2), reported as "TiFL".
fn adaptive() -> RunSpec {
    RunSpec {
        selection: SelectionStrategy::Adaptive { config: None },
        label: Some("TiFL".into()),
        ..RunSpec::default()
    }
}

/// vanilla / uniform / TiFL — the §5.2.5 comparison.
fn adaptive_comparison() -> Vec<RunSpec> {
    vec![
        tier(&Policy::vanilla()),
        tier(&Policy::uniform(5)),
        adaptive(),
    ]
}

/// The five Table 1 policies of the CIFAR-10 figures, then TiFL.
fn policies_and_tifl() -> Vec<RunSpec> {
    let mut specs = tiers(&Policy::cifar_set(5));
    specs.push(adaptive());
    specs
}

/// One panel of outcomes per policy over the class-skew ladder of
/// Figs. 1(b) and 4 — IID and non-IID(10/5/2) on homogeneous 2-CPU
/// clients — every curve labelled by its level.
fn skew_panels(a: &Args<'_>, policies: &[Policy]) -> Result<Vec<Vec<PolicyOutcome>>, String> {
    let level = |k| a.preset(|seed| ExperimentConfig::cifar10_noniid(k, seed));
    let mut iid = level(10);
    iid.data = DataScenario::Iid { per_client: 400 };
    iid.name = "cifar10/iid".into();
    let levels = [
        ("IID", iid),
        ("non-IID(10)", level(10)),
        ("non-IID(5)", level(5)),
        ("non-IID(2)", level(2)),
    ];
    let labelled = |p, label: &str| RunSpec {
        label: Some(label.into()),
        ..tier(p)
    };
    let requests = policies.iter().flat_map(|p| {
        let levels = levels.iter();
        levels.map(move |(label, cfg)| request(cfg, labelled(p, label)))
    });
    let reports = run_all(requests.collect())?;
    let panels = reports.chunks(levels.len());
    Ok(panels
        .map(|panel| panel.iter().map(PolicyOutcome::from).collect())
        .collect())
}

/// An accuracy-over-rounds panel, then each curve's final (and
/// optionally best) accuracy under `label_width`-wide labels.
fn print_curves(
    out: &mut dyn Write,
    (id, caption): (&str, &str),
    outcomes: &[PolicyOutcome],
    (stride, label_width, best): (usize, usize, bool),
) -> io::Result<()> {
    header(out, id, caption)?;
    print_accuracy_over_rounds(out, outcomes, stride)?;
    writeln!(out)?;
    for o in outcomes {
        write!(
            out,
            "{:<label_width$} final {:.3}",
            o.policy, o.final_accuracy
        )?;
        if best {
            write!(out, "  best {:.3}", o.best_accuracy)?;
        }
        writeln!(out)?;
    }
    Ok(())
}

/// The two-column layout of Figs. 3, 5 and 6: time bars, accuracy over
/// rounds, (optionally) accuracy over time, then the totals.
fn print_two_columns(
    out: &mut dyn Write,
    fig: &str,
    names: [&str; 2],
    columns: &[Vec<PolicyOutcome>],
    over_time: bool,
) -> io::Result<()> {
    type Panel = fn(&mut dyn Write, &[PolicyOutcome]) -> io::Result<()>;
    let panels: [(&str, Panel); 3] = [
        ("training time", |out, col| print_time_bars(out, col)),
        ("accuracy over rounds", |out, col| {
            print_accuracy_over_rounds(out, col, 5)
        }),
        ("accuracy over time", |out, col| {
            print_accuracy_over_time(out, col, 10)
        }),
    ];
    let mut letter = b'a';
    for (what, print) in &panels[..if over_time { 3 } else { 2 }] {
        for (name, col) in names.iter().zip(columns) {
            let id = format!("{fig}({})", letter as char);
            header(out, &id, &format!("{what}, {name}"))?;
            print(out, col)?;
            letter += 1;
        }
    }
    header(out, &format!("{fig} summary"), "per-policy totals")?;
    for (name, col) in names.iter().zip(columns) {
        writeln!(out, "-- {name} --")?;
        print_summary(out, col)?;
    }
    Ok(())
}

// -- §3: the case studies and the straggler analysis --------------------------

/// Fig. 1(a): average training time per round vs CPU share and data
/// size (§3.3), on the CIFAR-10 experiment's model cost. Latency grows
/// near-linearly with data size and shrinks as the CPU share grows.
fn fig1a(a: &Args<'_>, out: &mut dyn Write) -> Drawn {
    let cfg = ExperimentConfig::cifar10_resource_het(a.seed());
    let model = cfg.model.build(a.seed());
    let latency = LatencyModel::new(cfg.latency);
    let cpus = [4.0, 2.0, 1.0, 1.0 / 3.0, 1.0 / 5.0];

    let caption = "avg per-round training time [s] by CPU share and data size";
    header(out, "Fig. 1(a)", caption)?;
    row(out, &[12, 9], "data \\ cpu", cpus.map(|c| fx(c, 2)))?;
    let mut rows = Vec::new();
    for samples in [500usize, 1000, 2000, 5000] {
        let task = TrainingTask {
            samples,
            epochs: 1,
            flops_per_sample: model.flops_per_sample(),
            update_bytes: model.update_bytes(),
            upload_bytes: None,
        };
        let latencies = cpus.map(|c| latency.nominal_latency(&task, c, 1_000_000.0));
        row(out, &[12, 9], samples, latencies.map(|l| fx(l, 1)))?;
        rows.push((samples, latencies.to_vec()));
    }

    // The two scaling laws of §3.3.
    let t_500_4 = rows[0].1[0];
    let with_data = rows[3].1[0] / t_500_4;
    writeln!(
        out,
        "\nscaling with data (4 CPUs): 500 -> 5000 points = {with_data:.1}x slower"
    )?;
    let with_cpu = rows[0].1[4] / t_500_4;
    writeln!(
        out,
        "scaling with CPU (500 points): 4 -> 1/5 CPUs = {with_cpu:.1}x slower"
    )?;
    a.dump(&rows)
}

/// Fig. 1(b): vanilla-FL accuracy under varying class skew (§3.3).
fn fig1b(a: &Args<'_>, out: &mut dyn Write) -> Drawn {
    let outcomes = skew_panels(a, &[Policy::vanilla()])?.remove(0);
    let caption = "vanilla-FL accuracy under class-distribution skew";
    print_curves(out, ("Fig. 1(b)", caption), &outcomes, (5, 12, true))?;
    let drop = (outcomes[0].best_accuracy - outcomes[3].best_accuracy) * 100.0;
    writeln!(
        out,
        "\naccuracy drop IID -> non-IID(2): {drop:.1} percentage points"
    )?;
    a.dump(&outcomes)
}

/// §3.2 straggler-selection probability (Eqs. 2–5): closed form, the
/// Eq. 5 lower bound, and a Monte-Carlo check.
fn straggler_prob(a: &Args<'_>, out: &mut dyn Write) -> Drawn {
    const W: [i32; 4] = [8, 8, 6, 12];
    let mut rng = seed_rng(a.seed());
    let caption = "probability that vanilla selection hits the slowest level";
    header(out, "Eqs. 2-5", caption)?;
    let titles = ["|tau_m|", "|C|", "exact Pr_s", "Eq.5 bound", "Monte-Carlo"];
    row(out, &W, "|K|", titles)?;
    let cases: [(u64, u64, u64); 6] = [
        (50, 10, 5),   // the paper's synthetic testbed
        (182, 37, 10), // the LEAF deployment
        (1_000, 200, 50),
        (10_000, 2_000, 100),
        (100_000, 20_000, 500),
        (1_000_000, 200_000, 1_000),
    ];
    let mut rows = Vec::new();
    for (k, s, c) in cases {
        let exact = prob_hit_stragglers(k, s, c);
        let bound = prob_hit_stragglers_lower_bound(k, s, c);
        let mc = if k <= 10_000 {
            prob_hit_stragglers_monte_carlo(k, s, c, 20_000, &mut rng)
        } else {
            f64::NAN
        };
        let probabilities = [exact, bound, mc].map(|p| fx(p, 6));
        let sizes = [s, c].map(|n| n.to_string());
        row(out, &W, k, sizes.into_iter().chain(probabilities))?;
        rows.push((k, s, c, exact, bound, mc));
    }
    writeln!(
        out,
        "\nAs |K| and |C| grow, Pr_s -> 1: vanilla FL almost always pays the\nstraggler penalty (the paper's motivation for tiering)."
    )?;
    a.dump(&rows)
}

// -- §5.2: the evaluation ---------------------------------------------------

/// Tables 1 and 2 (§5.2.1): the policy configurations, then estimated
/// (Eq. 6 over the profiled tier latencies) vs actual training time and
/// MAPE for slow / uniform / random / fast.
fn table2(a: &Args<'_>, out: &mut dyn Write) -> Drawn {
    let cfg = a.resource_het(500);
    let mut runner = cfg.runner();
    let (assignment, profile) = runner.profile().clone();
    let caption = "scheduling policy configurations (selection probabilities)";
    header(out, "Table 1", caption)?;
    writeln!(out, "{:<10} tier probabilities (fastest first)", "policy")?;
    let (cifar, mnist) = (Policy::cifar_set(5), Policy::mnist_set(5));
    for p in cifar.iter().chain(mnist.iter().skip(1)) {
        if p.is_vanilla() {
            writeln!(out, "{:<10} (no tiering: uniform over all clients)", p.name)?;
        } else {
            let probs: Vec<String> = p.probs.iter().map(|&x| fx(x, 4)).collect();
            writeln!(out, "{:<10} [{}]", p.name, probs.join(", "))?;
        }
    }

    header(out, "profiled tiers", "mean response latency per tier")?;
    for (t, (tier, l)) in assignment
        .tiers
        .iter()
        .zip(assignment.tier_latencies())
        .enumerate()
    {
        let clients = tier.clients.len();
        writeln!(out, "tier {t}: {l:>8.2} s  ({clients} clients)")?;
    }
    let cost = profile.profiling_time;
    writeln!(out, "profiling cost: {cost:.0} virtual seconds")?;

    const W: [i32; 4] = [-10, 14, 12, 9];
    header(out, "Table 2", "estimated vs actual training time")?;
    let titles = ["estimated [s]", "actual [s]", "MAPE [%]"];
    row(out, &W, "policy", titles)?;
    let policies = [
        Policy::slow(5),
        Policy::uniform(5),
        Policy::random5(5),
        Policy::fast(5),
    ];
    let actuals = grid(std::slice::from_ref(&cfg), &tiers(&policies))?.remove(0);
    let mut rows = Vec::new();
    for (policy, actual) in policies.iter().zip(&actuals) {
        let (est, actual) = (runner.estimate(policy), actual.total_time);
        let err = mape(est, actual);
        let cells = [fx(est, 0), fx(actual, 0), fx(err, 2)];
        row(out, &W, &policy.name, cells)?;
        rows.push((policy.name.clone(), est, actual, err));
    }
    a.dump(&rows)
}

/// Fig. 3: the CIFAR-10 policy comparison (vanilla / slow / uniform /
/// random / fast) under resource heterogeneity (column 1) and
/// data-quantity heterogeneity (column 2) — §5.2.2, §5.2.3.
fn fig3(a: &Args<'_>, out: &mut dyn Write) -> Drawn {
    let cfgs = [
        a.preset(ExperimentConfig::cifar10_resource_het),
        a.preset(ExperimentConfig::cifar10_quantity_het),
    ];
    let columns = grid(&cfgs, &tiers(&Policy::cifar_set(5)))?;
    let names = ["resource heterogeneity", "data-quantity heterogeneity"];
    print_two_columns(out, "Fig. 3", names, &columns, true)?;
    a.dump(&columns)
}

/// Fig. 4: accuracy over rounds for every static policy under the
/// class-skew ladder with fixed resources — §5.2.3. One panel per
/// policy; each panel holds four curves.
fn fig4(a: &Args<'_>, out: &mut dyn Write) -> Drawn {
    let policies = Policy::cifar_set(5);
    let panels = skew_panels(a, &policies)?;
    let mut all = Vec::new();
    for ((policy, outcomes), letter) in policies.iter().zip(panels).zip('a'..) {
        let id = format!("Fig. 4({letter})");
        let caption = format!("policy `{}` under non-IID levels", policy.name);
        print_curves(out, (&id, &caption), &outcomes, (8, 12, false))?;
        all.push((policy.name.clone(), outcomes));
    }
    a.dump(&all)
}

/// Fig. 5: MNIST (column 1) and Fashion-MNIST (column 2) with resource
/// plus data heterogeneity, policies vanilla / uniform / fast1 / fast2 /
/// fast3 — §5.2.4.
fn fig5(a: &Args<'_>, out: &mut dyn Write) -> Drawn {
    let cfgs = [SynthFamily::Mnist, SynthFamily::FashionMnist]
        .map(|family| a.preset(|seed| ExperimentConfig::mnist_like_combined(family, seed)));
    let columns = grid(&cfgs, &tiers(&Policy::mnist_set(5)))?;
    print_two_columns(out, "Fig. 5", ["MNIST", "FMNIST"], &columns, false)?;
    a.dump(&columns)
}

/// Fig. 6: CIFAR-10 with resource + non-IID heterogeneity (column 1)
/// and resource + data-quantity + non-IID heterogeneity (column 2) —
/// §5.2.4.
fn fig6(a: &Args<'_>, out: &mut dyn Write) -> Drawn {
    let cfgs = [
        a.preset(|seed| ExperimentConfig::cifar10_resource_noniid(5, seed)),
        a.preset(|seed| ExperimentConfig::cifar10_combine(5, seed)),
    ];
    let columns = grid(&cfgs, &tiers(&Policy::cifar_set(5)))?;
    let names = ["resource + non-IID(5)", "resource + quantity + non-IID(5)"];
    print_two_columns(out, "Fig. 6", names, &columns, true)?;
    a.dump(&columns)
}

/// Fig. 7: adaptive (TiFL) vs vanilla vs uniform under resource +
/// non-IID(5) ("Class"), resource + quantity ("Amount") and all three
/// ("Combine") — §5.2.5. Panel (a): total training time; panel (b):
/// final accuracy.
fn fig7(a: &Args<'_>, out: &mut dyn Write) -> Drawn {
    let mut amount = a.preset(ExperimentConfig::cifar10_resource_het);
    amount.data = DataScenario::QuantitySkew { total: 20_000 };
    amount.name = "cifar10/resource+quantity".into();
    let cfgs = [
        a.preset(|seed| ExperimentConfig::cifar10_resource_noniid(5, seed)),
        amount,
        a.preset(|seed| ExperimentConfig::cifar10_combine(5, seed)),
    ];
    let rounds = cfgs[0].rounds;
    let scenarios = ["Class", "Amount", "Combine"].map(String::from);
    let results: Vec<(String, Vec<PolicyOutcome>)> = scenarios
        .into_iter()
        .zip(grid(&cfgs, &adaptive_comparison())?)
        .collect();

    type Cell = fn(&PolicyOutcome) -> String;
    let panels: [(&str, String, Cell); 2] = [
        (
            "Fig. 7(a)",
            format!("training time for {rounds} rounds [s]"),
            |o| fx(o.total_time, 0),
        ),
        (
            "Fig. 7(b)",
            format!("accuracy at {rounds} rounds [%]"),
            |o| fx(o.final_accuracy * 100.0, 1),
        ),
    ];
    for (id, caption, cell) in panels {
        header(out, id, &caption)?;
        row(out, &[-10, 10], "scenario", ["vanilla", "uniform", "TiFL"])?;
        for (label, outcomes) in &results {
            row(out, &[-10, 10], label, outcomes.iter().map(cell))?;
        }
    }
    a.dump(&results)
}

/// Fig. 8: adaptive vs vanilla vs uniform accuracy over rounds under
/// 2 / 5 / 10-class non-IID skew with fixed resources — §5.2.5.
fn fig8(a: &Args<'_>, out: &mut dyn Write) -> Drawn {
    let ks = [2usize, 5, 10];
    let cfgs = ks.map(|k| a.preset(|seed| ExperimentConfig::cifar10_noniid(k, seed)));
    let panels = grid(&cfgs, &adaptive_comparison())?;
    let mut all = Vec::new();
    for ((k, outcomes), letter) in ks.into_iter().zip(panels).zip('a'..) {
        let id = format!("Fig. 8({letter})");
        let caption = format!("{k}-class per client");
        print_curves(out, (&id, &caption), &outcomes, (8, 10, true))?;
        all.push((k, outcomes));
    }
    a.dump(&all)
}

/// Fig. 9: LEAF/FEMNIST with its default data heterogeneity plus
/// resource heterogeneity — all static policies and adaptive — §5.2.6.
/// Paper scale is 182 clients x 2000 rounds; `--rounds 300` gives a
/// quick shape check.
fn fig9(a: &Args<'_>, out: &mut dyn Write) -> Drawn {
    let cfg = a.preset(ExperimentConfig::leaf_femnist);
    let caption = format!("training time for {} rounds, LEAF/FEMNIST", cfg.rounds);
    let outcomes = grid(&[cfg], &policies_and_tifl())?.remove(0);
    header(out, "Fig. 9(a)", &caption)?;
    print_time_bars(out, &outcomes)?;
    header(out, "Fig. 9(b)", "accuracy over rounds, LEAF/FEMNIST")?;
    print_accuracy_over_rounds(out, &outcomes, 5)?;
    header(out, "Fig. 9 summary", "per-policy totals")?;
    print_summary(out, &outcomes)?;
    let speedup = outcomes[0].total_time / outcomes[5].total_time;
    writeln!(out, "\nadaptive speedup over vanilla: {speedup:.1}x")?;
    a.dump(&outcomes)
}

// -- §4.6: privacy ------------------------------------------------------------

/// §4.6 privacy-amplification accounting: vanilla `q` vs tiered `q_max`
/// for every static policy.
fn privacy(a: &Args<'_>, out: &mut dyn Write) -> Drawn {
    const W: [i32; 5] = [-10, 10, 12, 14, 14];
    let base = DpGuarantee::new(1.0, 1e-5);
    let (k, c, tier_sizes) = (50, 5, [10usize; 5]);
    let caption = "client-level DP amplification: vanilla vs tiered selection";
    header(out, "Sec. 4.6", caption)?;
    let (epsilon, delta) = (base.epsilon, base.delta);
    writeln!(out, "base per-round guarantee: ({epsilon}, {delta})")?;
    writeln!(
        out,
        "pool |K| = {k}, per-round |C| = {c}, tiers = {tier_sizes:?}\n"
    )?;
    let titles = ["q_vanilla", "q_max", "eps (tiered)", "delta (tiered)"];
    row(out, &W, "policy", titles)?;
    let mut rows = Vec::new();
    for policy in Policy::cifar_set(5).into_iter().skip(1) {
        let cmp = compare(base, k, c, &tier_sizes, &policy.probs);
        let delta = format!("{:.2e}", cmp.tiered.delta);
        let cells = [cmp.q_vanilla, cmp.q_max, cmp.tiered.epsilon].map(|x| fx(x, 4));
        row(out, &W, &policy.name, cells.into_iter().chain([delta]))?;
        rows.push((policy.name, cmp));
    }
    writeln!(
        out,
        "\nuniform tiering matches vanilla exactly (q_max = |C|/|K|); policies\nthat concentrate on one tier raise q_max and so weaken (but never\ninvalidate) the amplified guarantee — §4.6's compatibility claim."
    )?;
    a.dump(&rows)
}

/// §4.6 in practice: end-to-end training with client-level DP updates
/// (clip + Gaussian noise), vanilla vs uniform tier selection across
/// noise levels — the accuracy cost of the mechanism itself.
fn dp_training(a: &Args<'_>, out: &mut dyn Write) -> Drawn {
    const W: [i32; 4] = [-18, 10, 18, 18];
    let noise = [0.0f32, 0.01, 0.05, 0.2];
    let cfgs = noise.map(|noise_multiplier| {
        let mut cfg = a.resource_het(200);
        let clip = 1.0;
        cfg.client.dp = Some(DpNoiseConfig {
            clip,
            noise_multiplier,
        });
        cfg
    });
    let specs = tiers(&[Policy::vanilla(), Policy::uniform(5)]);

    let caption = "accuracy under clip-and-noise client updates (clip = 1.0)";
    header(out, "DP training", caption)?;
    let titles = ["policy", "final accuracy", "time [s]"];
    row(out, &W, "noise multiplier", titles)?;
    let mut rows = Vec::new();
    for (z, outcomes) in noise.into_iter().zip(grid(&cfgs, &specs)?) {
        for o in outcomes {
            let (acc, time) = (fx(o.final_accuracy, 3), fx(o.total_time, 0));
            row(out, &W, z, [&o.policy, &acc, &time])?;
            rows.push((z, o.policy, o.final_accuracy));
        }
    }
    writeln!(
        out,
        "\nExpected shape: accuracy degrades smoothly with the noise multiplier\nand tiered selection tracks vanilla at every level — tiering is\ncompatible with client-level DP (§4.6)."
    )?;
    a.dump(&rows)
}

// -- extensions: ablations, baselines, diagnostics ------------------------------

/// Ablation: the number of tiers `m` (the paper fixes m = 5), swept
/// over {2, 3, 5, 10} under the uniform policy on the
/// resource-heterogeneous CIFAR-10 setup.
fn ablation_tiers(a: &Args<'_>, out: &mut dyn Write) -> Drawn {
    let ms = [2usize, 3, 5, 10];
    let cfgs = ms.map(|m| {
        let mut cfg = a.resource_het(200);
        cfg.tiering.num_tiers = m;
        cfg
    });
    let uniform = |(cfg, m)| request(cfg, tier(&Policy::uniform(m)));
    let reports = run_all(cfgs.iter().zip(ms).map(uniform).collect())?;

    header(out, "ablation", "tier count m under the uniform policy")?;
    let titles = ["time [s]", "final acc", "profiled tier spread"];
    row(out, &[-6, 14, 11, 22], "m", titles)?;
    let mut rows = Vec::new();
    for ((m, cfg), report) in ms.into_iter().zip(&cfgs).zip(reports) {
        let lats = cfg.runner().tiers().tier_latencies();
        let spread = lats[lats.len() - 1] / lats[0];
        let (time, acc) = (report.total_time(), report.final_accuracy());
        let cells = [fx(time, 0), fx(acc, 3), format!("{spread:.1}x")];
        row(out, &[-6, 14, 11, 19], m, cells)?;
        rows.push((m, time, acc, spread));
    }
    writeln!(
        out,
        "\n(the straggler mitigation already saturates by m = 5, the paper's choice)"
    )?;
    a.dump(&rows)
}

/// Baseline comparison (§2 related work) under resource + non-IID(5):
/// vanilla; Bonawitz et al. over-selection (ask 130 %, drop
/// stragglers); FedCS deadline-filtered selection; FedProx; and
/// tier-based selection, static (uniform) and adaptive (TiFL).
fn baselines(a: &Args<'_>, out: &mut dyn Write) -> Drawn {
    const W: [i32; 5] = [-16, 12, 11, 10, 15];
    let mut cfg = ExperimentConfig::cifar10_resource_noniid(5, a.seed());
    cfg.rounds = a.rounds().unwrap_or(300);
    // FedCS deadline: median profiled latency, so roughly the fastest
    // half of the fleet qualifies.
    let lats = cfg.runner().tiers().tier_latencies();
    let deadline_sec = lats[lats.len() / 2];
    let specs = [
        RunSpec::default(),
        RunSpec {
            aggregation: Some(AggregationMode::FirstK { factor: 1.3 }),
            ..RunSpec::default()
        },
        RunSpec {
            selection: SelectionStrategy::Deadline { deadline_sec },
            ..RunSpec::default()
        },
        RunSpec {
            local: LocalTraining::FedProx { mu: 0.1 },
            ..RunSpec::default()
        },
        tier(&Policy::uniform(5)),
        adaptive(),
    ];
    let runs = run_all(specs.into_iter().map(|s| request(&cfg, s)).collect())?;

    let caption = format!("{} ({} rounds, virtual seconds)", cfg.name, cfg.rounds);
    header(out, "baselines", &caption)?;
    let titles = ["time [s]", "final acc", "best acc", "discarded work"];
    row(out, &W, "method", titles)?;
    let mut series = Vec::new();
    for r in &runs {
        let (time, acc) = (r.total_time(), r.final_accuracy());
        let discarded = format!("{:.1}%", r.discarded_work_fraction() * 100.0);
        let accuracies = [acc, r.best_accuracy()].map(|x| fx(x, 3));
        let cells = [fx(time, 0)].into_iter().chain(accuracies);
        row(out, &W, &r.policy, cells.chain([discarded]))?;
        series.push((r.policy.clone(), time, acc));
    }
    writeln!(
        out,
        "\nTiFL's claim (§2): deadline/over-selection baselines speed rounds up\nbut waste client work or exclude slow clients' data entirely; tiering\nkeeps every tier reachable while avoiding mixed-speed rounds."
    )?;
    a.dump(&series)
}

/// Per-class bias: *why* aggressive fast-tier policies lose accuracy
/// under non-IID data (§5.2.3 / §5.2.4). Under non-IID(2) with quantity
/// skew, the classes held mostly by slow tiers are starved when only
/// the fast tier trains. Needs each run's final model, so it runs on
/// the runner, not the scheduler.
fn class_bias(a: &Args<'_>, out: &mut dyn Write) -> Drawn {
    let mut cfg = ExperimentConfig::cifar10_combine(2, a.seed());
    cfg.rounds = a.rounds().unwrap_or(300);
    let mut runner = cfg.runner();
    let mut rows: Vec<(String, Vec<Option<f64>>, f64)> = Vec::new();
    for policy in [Policy::vanilla(), Policy::fast(5), Policy::uniform(5)] {
        eprintln!("[class_bias] {} ...", policy.name);
        let (report, session) = runner.policy(&policy).run_with_session();
        let per_class = session.evaluate_global_per_class();
        let present = || per_class.iter().flatten().copied();
        let spread = present().fold(0.0f64, f64::max) - present().fold(1.0f64, f64::min);
        let (name, overall) = (policy.name, report.final_accuracy());
        writeln!(
            out,
            "{name}: overall {overall:.3}, class spread {spread:.3}"
        )?;
        rows.push((name, per_class, spread));
    }

    let caption = format!("{} ({} rounds): per-class accuracy", cfg.name, cfg.rounds);
    header(out, "class bias", &caption)?;
    row(out, &[-10, 9], "class", rows.iter().map(|r| &r.0))?;
    for class in 0..rows[0].1.len() {
        let cell = |r: &(_, Vec<Option<f64>>, _)| accuracy_cell(r.1[class]);
        row(out, &[-10, 9], class, rows.iter().map(cell))?;
    }
    writeln!(
        out,
        "\nspread (max-min per-class accuracy; higher = more biased):"
    )?;
    for (name, _, spread) in &rows {
        writeln!(out, "  {name:<10} {spread:.3}")?;
    }
    a.dump(&rows)
}

/// §4.2 extension: periodic re-profiling under drifting device
/// performance. The fastest hardware group slows 20x at mid-run; the
/// `fast` policy with stale tiers against the same policy re-profiled
/// every `rounds / 8`, plus vanilla for reference.
fn reprofiling(a: &Args<'_>, out: &mut dyn Write) -> Drawn {
    let mut cfg = a.resource_het(200);
    let rounds = cfg.rounds;
    // Devices of the fastest group (ids 0..10) slow down 20x halfway.
    let mut factors = vec![1.0; cfg.num_clients];
    factors[..cfg.num_clients / 5].fill(0.05);
    let at_round = rounds / 2;
    cfg.drift = DriftModel::RegimeSwitch { at_round, factors };
    let fast = tier(&Policy::fast(5));
    let reprofiled = RunSpec {
        reprofile_every: Some(rounds / 8),
        ..fast.clone()
    };
    let runs = grid(&[cfg], &[RunSpec::default(), fast, reprofiled])?.remove(0);

    let caption = format!("regime switch at round {at_round} (fast group slows 20x)");
    header(out, "re-profiling", &caption)?;
    row(out, &[-18, 12, 11], "variant", ["time [s]", "final acc"])?;
    let names = ["vanilla", "fast-stale", "fast-reprofile"];
    let mut series = Vec::new();
    for (name, r) in names.into_iter().zip(&runs) {
        let cells = [fx(r.total_time, 0), fx(r.final_accuracy, 3)];
        row(out, &[-18, 12, 11], &r.policy, cells)?;
        series.push((name, r.total_time, r.final_accuracy));
    }
    writeln!(
        out,
        "\nstale tiers keep selecting the slowed devices after the switch;\nperiodic re-profiling re-tiers and recovers the speedup — the paper's\nrationale for running the profiler periodically (§4.2)."
    )?;
    a.dump(&series)
}

/// Time-to-accuracy: the fixed-budget reading of Figs. 3(e)/6(f). For
/// each policy, the first virtual time at which the global model
/// reaches each accuracy target ("within the same time budget, more
/// iterations can be done", §5.2.4).
fn time_to_acc(a: &Args<'_>, out: &mut dyn Write) -> Drawn {
    let mut cfg = a.resource_het(300);
    cfg.eval_every = 2;
    let targets = [0.5f64, 0.6, 0.7, 0.75, 0.8];
    let specs = policies_and_tifl();
    let runs = run_all(specs.into_iter().map(|s| request(&cfg, s)).collect())?;

    let caption = format!("{} — first virtual time [s] reaching each target", cfg.name);
    header(out, "time to accuracy", &caption)?;
    let titles = targets.map(|t| format!("{:.0}%", t * 100.0));
    row(out, &[-10, 9], "policy", titles)?;
    let mut series = Vec::new();
    for r in &runs {
        let times = targets.map(|t| r.time_to_accuracy(t));
        let cells = times.map(|t| t.map_or("-".into(), |s| fx(s, 0)));
        row(out, &[-10, 9], &r.policy, cells)?;
        series.push((r.policy.clone(), times.to_vec()));
    }
    let rounds = cfg.rounds;
    writeln!(out, "\n('-' = target not reached within {rounds} rounds)")?;
    a.dump(&series)
}

#[cfg(test)]
mod tests {
    use super::*;

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
