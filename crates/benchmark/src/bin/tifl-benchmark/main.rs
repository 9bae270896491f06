//! `tifl-benchmark`: the one performance benchmark of this workspace.
//!
//! ```sh
//! cargo run --release -p tifl-benchmark                  # all four workloads
//! cargo run --release -p tifl-benchmark -- --workload comm_wide --seed 7 --seconds 20 --trace 1
//! cargo run --release -p tifl-benchmark -- --selfcheck
//! ```
//!
//! With `--workload` the process measures that workload itself and
//! prints one JSON result as the last line of standard output (the
//! contract `BENCHMARK.json` describes). Without it, the process
//! starts itself once per workload and mode, so every workload gets
//! its own peak memory. Every layer is measured from outside, through
//! the crates' public functions; see `README.md` beside this crate.

mod fl;
mod metrics;
mod probes;
mod procfs;
mod set;
mod spans;
mod stats;
mod sweep;

use metrics::{ResultLine, Values, END_TO_END, PER_LAYER};
use serde::Serialize;
use spans::Tracer;
use stats::{highest_percentile, median, quantile};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use tifl_core::runner::Experiment;
use tifl_core::ExecBackend;
use tifl_fl::session::SessionOverrides;
use tifl_fl::TrainingReport;
use tifl_obs::{DigestChain, HostClock, RealClock};
use tifl_sweep::store::{host_parallelism, write_json};

const WORKLOADS: [&str; 4] = [
    "paper_policies",
    "comm_wide",
    "population_event",
    "sweep_store",
];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Accuracy every run of `paper_policies` must end at or above, and
/// the target `virtual_time_to_acc_s` is measured at. The paper's 500
/// rounds end near 0.82; the 30 rounds kept here end near 0.83 ± 0.02
/// across seeds.
const TARGET_ACCURACY: f64 = 0.75;

/// Seed of the simulated panel. It is fixed, whatever `--seed` the
/// timed units get: the simulator is deterministic, so the simulated
/// end-to-end metrics read the same on every run of one build, two
/// commits compare exactly on them, and a speed-up that changes what
/// is computed moves them.
const PANEL_SEED: u64 = 2020;

/// What one unit (one pass over a workload's runs) computed.
/// Deterministic in the seed, so every repetition of the unit must
/// reproduce it.
#[derive(Debug, Clone, PartialEq)]
pub struct Unit {
    pub uplink_bytes: u64,
    pub runs: u64,
    pub failed_runs: u64,
    pub digests: Vec<String>,
}

/// Operations attempted and failed: runs, and output checks.
#[derive(Debug, Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn unit(&mut self, unit: &Unit) {
        self.attempted += unit.runs;
        self.failed += unit.failed_runs;
    }

    /// Count one output check; a violation is reported at once.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {}", what());
        }
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Every workload shrunk to finish in seconds: the crate's tests.
    quick: bool,
    out: Option<PathBuf>,
    selfcheck: bool,
}

const USAGE: &str = "usage: tifl-benchmark [--workload NAME] [--seed S] [--seconds N] \
                     [--trace 0|1] [--quick] [--out FILE] [--selfcheck]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 20.0,
        trace: false,
        quick: false,
        out: None,
        selfcheck: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload `{name}` (one of {WORKLOADS:?})"));
                }
                args.workload = Some(name);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--quick" => args.quick = true,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = if args.selfcheck {
        set::selfcheck(&args)
    } else if let Some(workload) = &args.workload {
        let result = measure(workload, &args);
        let json = serde_json::to_string(&result).expect("result serialises");
        println!("{json}");
        result.correct
    } else {
        let set = set::run_set(&args, true);
        if let Some(path) = &args.out {
            write_report(path, &set);
        }
        set.workloads.values().all(|w| w.correct)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Threads every workload runs on.
fn threads() -> usize {
    host_parallelism().min(4)
}

/// Where temporary stores and the Chrome trace go: beside the
/// executable, which is inside the build directory of the checkout.
fn scratch_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the executable has a path");
    let dir = exe
        .parent()
        .expect("the executable is in a directory")
        .join("tifl-benchmark-scratch");
    std::fs::create_dir_all(&dir).expect("scratch directory can be created");
    dir
}

/// Write `value` as JSON, or stop: a report that cannot be written is
/// not worth finishing the run for.
fn write_report<T: Serialize>(path: &std::path::Path, value: &T) {
    write_json(path, value).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
}

/// Write the spans of a traced run as Chrome trace JSON.
fn write_trace(workload: &str, tracer: &Tracer) {
    let path = scratch_dir().join(format!("{workload}.trace.json"));
    write_report(&path, &tracer.chrome());
    println!(
        "# chrome trace: {} ({} spans)",
        path.display(),
        tracer.spans().len()
    );
}

/// Measure one workload in this process.
fn measure(workload: &str, args: &Args) -> ResultLine {
    let t = threads();
    println!(
        "# {workload} quick={} seed={} seconds={} trace={} T={t} nproc={}",
        args.quick,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host_parallelism()
    );
    let clock: Arc<dyn HostClock> = RealClock::shared();
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(t)
        .build()
        .expect("the pool shim always builds");
    let mut tally = Tally::default();
    let (list, values) = pool.install(|| match (workload, args.trace) {
        ("sweep_store", false) => (END_TO_END, sweep_end_to_end(args, t, &clock, &mut tally)),
        ("sweep_store", true) => (PER_LAYER, sweep_per_layer(args, t, &clock, &mut tally)),
        (_, false) => (
            END_TO_END,
            fl_end_to_end(workload, args, t, &clock, &mut tally),
        ),
        (_, true) => (
            PER_LAYER,
            fl_per_layer(workload, args, t, &clock, &mut tally),
        ),
    });
    let metrics = values.into_metrics(list);
    for (name, m) in &metrics {
        println!("{name} = {} {}", m.value, m.unit);
    }
    println!(
        "ops_failed_share = {} ratio ({} failed of {} attempted)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    ResultLine {
        correct: tally.failed == 0,
        attempted: tally.attempted.max(1),
        failed: tally.failed,
        metrics,
    }
}

fn fl_defs(workload: &str, seed: u64, quick: bool, threads: usize) -> Vec<fl::RunDef> {
    match workload {
        "paper_policies" => fl::paper_policies(seed, quick),
        "comm_wide" => fl::comm_wide(seed, quick),
        "population_event" => fl::population_event(seed, quick, threads),
        other => unreachable!("`{other}` is not a federated-learning workload"),
    }
}

/// Wall and CPU seconds of `f`.
fn timed<R>(clock: &dyn HostClock, f: impl FnOnce() -> R) -> (R, f64, f64) {
    let (t0, c0) = (clock.now_sec(), procfs::cpu_seconds());
    let out = f();
    (out, clock.now_sec() - t0, procfs::cpu_seconds() - c0)
}

/// Set up [`SETUPS`] times, keeping the last; returns it and every
/// set-up's seconds. Each set-up is dropped before the next begins:
/// one set-up's data at a time, as in a single run of the program, so
/// the peak never holds two.
fn repeat_setup<T>(clock: &dyn HostClock, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut seconds = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t0 = clock.now_sec();
        last = Some(setup());
        seconds.push(clock.now_sec() - t0);
    }
    (last.expect("SETUPS is at least one"), seconds)
}

/// Repeat `unit` until `seconds` have been measured (at least twice,
/// so the same seed is always seen to give the same digests); returns
/// the first unit's simulated results and every unit's wall and CPU
/// seconds.
fn repeat_units(
    seconds: f64,
    clock: &dyn HostClock,
    tally: &mut Tally,
    mut unit: impl FnMut(&mut Tally) -> Unit,
) -> (Unit, Vec<f64>, Vec<f64>) {
    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    let mut first: Option<Unit> = None;
    let start = clock.now_sec();
    while walls.len() < 2 || clock.now_sec() - start < seconds {
        let (u, wall, cpu) = timed(clock, || unit(tally));
        walls.push(wall);
        cpus.push(cpu);
        tally.unit(&u);
        match &first {
            None => first = Some(u),
            Some(f) => tally.check(f.digests == u.digests, || {
                format!(
                    "the same seed gave different digests: {:?} then {:?}",
                    f.digests, u.digests
                )
            }),
        }
    }
    (first.expect("at least two units ran"), walls, cpus)
}

/// The measured end-to-end metrics, added to the panel's simulated ones.
fn end_to_end_values(
    mut v: Values,
    setups: &[f64],
    walls: &[f64],
    cpus: &[f64],
    unit: &Unit,
) -> Values {
    println!(
        "# wall_s, cpu_s: median of n={} units; setup_s: median of n={}",
        walls.len(),
        setups.len()
    );
    println!("# unit walls: {walls:.3?}");
    println!("# unit cpus: {cpus:.2?}");
    println!("# digests (seed-dependent): {}", unit.digests.join(" "));
    v.set("wall_s", median(walls));
    v.set("cpu_s", median(cpus));
    v.set("setup_s", median(setups));
    v.set("peak_rss_mb", procfs::peak_rss_mb());
    v.set("uplink_bytes", unit.uplink_bytes as f64);
    v
}

/// The simulated end-to-end metrics, from the runs of the fixed-seed
/// panel.
fn simulated_values(reports: &[&TrainingReport]) -> Values {
    println!(
        "# simulated panel (seed {PANEL_SEED}): {}",
        DigestChain::of(reports.iter().map(|r| r.digest_chain()))
    );
    let time_of = |policy: &str| -> f64 {
        reports
            .iter()
            .filter(|r| r.policy == policy)
            .map(|r| r.total_time())
            .sum()
    };
    let mut v = Values::default();
    v.set(
        "virtual_time_s",
        reports.iter().map(|r| r.total_time()).sum(),
    );
    v.set(
        "final_accuracy",
        reports.iter().map(|r| r.final_accuracy()).sum::<f64>() / reports.len() as f64,
    );
    // A workload without a vanilla and a `uniform` run tiers nothing.
    let (vanilla, uniform) = (time_of("vanilla"), time_of("uniform"));
    v.set(
        "tiered_speedup_virtual",
        if vanilla > 0.0 && uniform > 0.0 {
            vanilla / uniform
        } else {
            1.0
        },
    );
    // Of the `adaptive` runs, or of every run where there is none. A
    // run that misses the target counts its whole virtual time, never
    // 0: a miss must not read as the best value there is.
    let adaptive = reports.iter().any(|r| r.policy == "adaptive");
    v.set(
        "virtual_time_to_acc_s",
        reports
            .iter()
            .filter(|r| !adaptive || r.policy == "adaptive")
            .map(|r| {
                r.time_to_accuracy(TARGET_ACCURACY)
                    .unwrap_or_else(|| r.total_time())
            })
            .sum(),
    );
    v
}

// -- federated-learning workloads -------------------------------------------

fn fl_end_to_end(
    workload: &str,
    args: &Args,
    threads: usize,
    clock: &Arc<dyn HostClock>,
    tally: &mut Tally,
) -> Values {
    // The panel goes through the program's own entry point, before
    // anything that is measured, and is dropped before the set-ups.
    let panel: Vec<TrainingReport> = fl_defs(workload, PANEL_SEED, args.quick, threads)
        .iter()
        .map(fl::RunDef::reference)
        .collect();
    tally.attempted += panel.len() as u64;
    // The paper's experiment must reach the target (the test scale has
    // too few rounds to); elsewhere a miss counts the whole run.
    if workload == "paper_policies" && !args.quick {
        let reached = panel
            .iter()
            .filter(|r| r.policy == "adaptive")
            .all(|r| r.time_to_accuracy(TARGET_ACCURACY).is_some());
        tally.check(reached, || {
            format!("the panel's adaptive run never evaluated {TARGET_ACCURACY}")
        });
    }
    let simulated = simulated_values(&panel.iter().collect::<Vec<_>>());
    drop(panel);

    let (mut prepared, setups) = repeat_setup(clock.as_ref(), || {
        let defs = fl_defs(workload, args.seed, args.quick, threads);
        fl::setup(defs, clock.as_ref()).0
    });
    let mut first_reports = None;
    let (unit, walls, cpus) = repeat_units(args.seconds, clock.as_ref(), tally, |_| {
        let reports = fl::plain_unit(&mut prepared);
        let unit = fl::unit_of(&reports);
        first_reports.get_or_insert(reports);
        unit
    });
    let reports = first_reports.expect("at least two units ran");
    fl_checks(args.quick, &prepared, &reports, tally);
    end_to_end_values(simulated, &setups, &walls, &cpus, &unit)
}

/// The report of the workload's run called `name`, if it has one.
fn report_named<'a>(
    prepared: &[fl::Prepared],
    reports: &'a [TrainingReport],
    name: &str,
) -> Option<&'a TrainingReport> {
    let i = prepared.iter().position(|p| p.def.name == name)?;
    reports.get(i)
}

/// Output checks that make a fast-but-wrong run fail.
fn fl_checks(
    quick: bool,
    prepared: &[fl::Prepared],
    reports: &[TrainingReport],
    tally: &mut Tally,
) {
    let by_name = |name| report_named(prepared, reports, name);
    for (p, r) in prepared.iter().zip(reports) {
        println!(
            "# {}: {} sim_s, final accuracy {}",
            p.def.name,
            r.total_time(),
            r.final_accuracy()
        );
    }
    // The paper's ordering: the faster the tiers a policy favours, the
    // less simulated time it needs.
    if let (Some(vanilla), Some(uniform), Some(fast)) =
        (by_name("vanilla"), by_name("uniform"), by_name("fast"))
    {
        let (v, u, f) = (
            vanilla.total_time(),
            uniform.total_time(),
            fast.total_time(),
        );
        tally.check(f < u && u < v, || {
            format!("virtual time must order fast < uniform < vanilla, got {f} {u} {v}")
        });
        // Too few rounds to converge at the test scale.
        if !quick {
            for (p, r) in prepared.iter().zip(reports) {
                tally.check(r.final_accuracy() >= TARGET_ACCURACY, || {
                    format!("{} ended at accuracy {}", p.def.name, r.final_accuracy())
                });
            }
        }
    }
    if let (Some(identity), Some(i8)) = (by_name("identity"), by_name("i8")) {
        let ratio = i8.total_bytes_up() as f64 / identity.total_bytes_up() as f64;
        tally.check((0.24..=0.26).contains(&ratio), || {
            format!("int8 uplink is {ratio} of identity, expected about a quarter")
        });
    }
    for (p, r) in prepared.iter().zip(reports) {
        let cfg = &p.def.cfg;
        if cfg.aggregation != tifl_fl::session::AggregationMode::WaitAll {
            let asked = (cfg.clients_per_round as f64 * fl::OVERSELECT).ceil();
            let expected = cfg.clients_per_round as f64 / asked;
            let c = fl::counts(std::iter::once((p.session.data(), 1, r)));
            let useful = c.aggregated as f64 / c.selected as f64;
            tally.check((useful - expected).abs() <= 0.02, || {
                format!("useful-update ratio {useful}, expected {expected}")
            });
        }
    }
}

fn fl_per_layer(
    workload: &str,
    args: &Args,
    threads: usize,
    clock: &Arc<dyn HostClock>,
    tally: &mut Tally,
) -> Values {
    let mut layer = Values::default();
    let defs = fl_defs(workload, args.seed, args.quick, threads);

    // What the program's own entry point computes for the same runs.
    let references: Vec<String> = defs
        .iter()
        .map(|d| d.reference().digest_chain().to_string())
        .collect();

    let (mut prepared, setup_times) = fl::setup(defs, clock.as_ref());
    layer.set("fl.session_build_s", setup_times.session_build_s);
    layer.set("core.profile_s", setup_times.profile_s);

    // Plain, observed and traced units take turns, so the overhead
    // ratios compare units that ran under the same conditions.
    let mut tracer = Tracer::new(Arc::clone(clock));
    let mut per_unit: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut round_ms = Vec::new();
    let (mut plain_walls, mut observed_walls, mut traced_walls) =
        (Vec::new(), Vec::new(), Vec::new());
    let mut last_reports = Vec::new();
    let mut expected: Option<Unit> = None;
    let start = clock.now_sec();
    while per_unit.len() < 2 || clock.now_sec() - start < args.seconds {
        let (plain, wall, _) = timed(clock.as_ref(), || fl::plain_unit(&mut prepared));
        plain_walls.push(wall);
        let plain = fl::unit_of(&plain);
        tally.unit(&plain);
        let expected = expected.get_or_insert_with(|| plain.clone());
        tally.check(plain.digests == expected.digests, || {
            "the same seed gave different digests".to_string()
        });

        let (observed, wall, _) = timed(clock.as_ref(), || fl::observed_unit(&mut prepared, clock));
        observed_walls.push(wall);
        let observed = fl::unit_of(&observed);
        tally.unit(&observed);
        tally.check(observed.digests == expected.digests, || {
            "observation changed the digests".to_string()
        });

        let from = tracer.spans().len();
        let (unit, wall, _) = timed(clock.as_ref(), || {
            fl::traced_unit(&mut prepared, &mut tracer, clock)
        });
        traced_walls.push(wall);
        let traced = fl::unit_of(&unit.reports);
        tally.unit(&traced);
        tally.check(traced.digests == expected.digests, || {
            format!(
                "traced digests {:?} differ from untraced {:?}",
                traced.digests, expected.digests
            )
        });
        per_unit.push(unit_layer_values(&tracer, from, &unit, threads));
        round_ms.extend(unit.round_ms);
        last_reports = unit.reports;
    }
    let expected = expected.expect("at least two rounds of units ran");
    for (digest, reference) in expected.digests.iter().zip(&references) {
        tally.check(digest == reference, || {
            format!("restored-session run {digest} differs from Runner::run {reference}")
        });
    }
    println!(
        "# digests (traced = observed = untraced = Runner::run): {}",
        expected.digests.join(" ")
    );
    println!(
        "# per-unit values: medians of n={} plain, observed and traced units each",
        per_unit.len()
    );
    let (plain_wall, observed_wall) = (median(&plain_walls), median(&observed_walls));
    let per_unit = medians(&per_unit);
    for (&name, &value) in &per_unit {
        layer.set(name, value);
    }

    println!(
        "# fl.round_ms_*: n={} rounds; highest percentile with ten samples beyond it: {}",
        round_ms.len(),
        highest_percentile(round_ms.len()).map_or("none".to_string(), |p| format!("p{p}"))
    );
    layer.set("fl.round_ms_p50", quantile(&round_ms, 0.5));
    layer.set("fl.round_ms_p90", quantile(&round_ms, 0.9));
    layer.set("obs.observed_overhead_ratio", observed_wall / plain_wall);
    layer.set(
        "obs.trace_overhead_ratio",
        median(&traced_walls) / plain_wall,
    );

    let c = fl::counts(
        prepared
            .iter()
            .zip(&last_reports)
            .map(|(p, r)| (p.session.data(), p.def.cfg.client.local_epochs, r)),
    );
    set_counts(&mut layer, &c);
    let uploads: Vec<f64> = prepared
        .iter()
        .map(|p| p.session.upload_wire_bytes() as f64)
        .collect();
    let dense: f64 = prepared
        .iter()
        .map(|p| p.session.download_wire_bytes() as f64)
        .sum();
    layer.set(
        "comm.wire_bytes_per_update",
        uploads.iter().sum::<f64>() / uploads.len() as f64,
    );
    layer.set(
        "comm.compression_ratio",
        dense / uploads.iter().sum::<f64>(),
    );

    // Probes at the shapes of the first tiered run (a workload without
    // one is profiled here, for the Eq. 6 probe alone).
    let probe = prepared
        .iter()
        .position(|p| p.tiers().is_some())
        .unwrap_or(0);
    let tiers = match prepared[probe].tiers() {
        Some(tiers) => tiers.clone(),
        None => prepared[probe].def.cfg.runner().tiers().clone(),
    };
    probes::run(
        &prepared[probe].def.cfg,
        &prepared[probe].session,
        &tiers,
        &last_reports[probe],
        clock.as_ref(),
        &mut layer,
    );
    if let ExecBackend::EventDriven { .. } = prepared[probe].def.backend {
        // The engine's workers cannot be timed from outside: estimate
        // their busy time from one client trained alone.
        let session = &prepared[probe].session;
        let (_, alone, _) = timed(clock.as_ref(), || {
            for c in 0..8 {
                let _ = session.train_contributor(c, 0);
            }
        });
        layer.set(
            "fl.train_parallel_efficiency",
            c.aggregated as f64 * (alone / 8.0) / (per_unit["fl.train_s"] * threads as f64),
        );
    }

    write_trace(workload, &tracer);
    layer
}

/// The per-layer values one traced unit gives.
fn unit_layer_values(
    tracer: &Tracer,
    from: usize,
    unit: &fl::TracedUnit,
    threads: usize,
) -> BTreeMap<&'static str, f64> {
    let totals = tracer.totals_from(from);
    let total = |name: &str| totals.get(name).map_or(0.0, |t| t.total);
    let self_time = |name: &str| totals.get(name).map_or(0.0, |t| t.self_time);
    let rounds: f64 = unit.reports.iter().map(|r| r.rounds.len() as f64).sum();
    let mut v = BTreeMap::new();
    v.insert("fl.plan_s", total("fl.plan"));
    v.insert("fl.train_s", total("fl.train"));
    v.insert("fl.encode_s", total("fl.encode"));
    v.insert("fl.fold_s", total("fl.fold"));
    v.insert("fl.finish_s", total("fl.finish"));
    v.insert("fl.eval_s", total("fl.eval"));
    v.insert(
        "core.select_us_per_round",
        total("core.select") * 1e6 / rounds,
    );
    v.insert(
        "core.observe_us_per_round",
        total("core.observe") * 1e6 / rounds,
    );
    v.insert("core.engine_wall_s", total("core.engine_run"));
    // Loop and engine self time: what no phase span covers.
    let runs = total("run") + total("core.engine_run");
    let residual = self_time("run") + self_time("round") + self_time("core.engine_run");
    v.insert("core.engine_residual_s", residual);
    v.insert("core.phase_coverage", 1.0 - residual / runs);
    if unit.train_busy_s > 0.0 {
        v.insert(
            "fl.train_parallel_efficiency",
            unit.train_busy_s / (total("fl.train") * threads as f64),
        );
    }
    v
}

fn medians(units: &[BTreeMap<&'static str, f64>]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for name in units.iter().flat_map(|u| u.keys()) {
        let samples: Vec<f64> = units.iter().filter_map(|u| u.get(name).copied()).collect();
        out.insert(*name, median(&samples));
    }
    out
}

fn set_counts(layer: &mut Values, c: &fl::Counts) {
    layer.set("fl.rounds", c.rounds as f64);
    layer.set("fl.updates_folded", c.aggregated as f64);
    layer.set("fl.samples_trained", c.samples_trained as f64);
    layer.set("fl.samples_evaluated", c.samples_evaluated as f64);
    layer.set(
        "fl.useful_update_ratio",
        c.aggregated as f64 / c.selected.max(1) as f64,
    );
}

// -- sweep_store ------------------------------------------------------------

fn sweep_end_to_end(
    args: &Args,
    threads: usize,
    clock: &Arc<dyn HostClock>,
    tally: &mut Tally,
) -> Values {
    let scratch = scratch_dir();
    let mut tracer = Tracer::new(Arc::clone(clock));
    let mut panel = sweep::SweepWorkload::setup(PANEL_SEED, args.quick, threads, &scratch);
    let panel = panel.unit(&mut tracer, None, tally);
    tally.unit(&panel.unit);
    let simulated = simulated_values(&panel.report.reports());
    drop(panel);

    let (mut workload, setups) = repeat_setup(clock.as_ref(), || {
        sweep::SweepWorkload::setup(args.seed, args.quick, threads, &scratch)
    });
    let (unit, walls, cpus) = repeat_units(args.seconds, clock.as_ref(), tally, |tally| {
        workload.unit(&mut tracer, None, tally).unit
    });
    end_to_end_values(simulated, &setups, &walls, &cpus, &unit)
}

fn sweep_per_layer(
    args: &Args,
    threads: usize,
    clock: &Arc<dyn HostClock>,
    tally: &mut Tally,
) -> Values {
    let mut layer = Values::default();
    let mut workload = sweep::SweepWorkload::setup(args.seed, args.quick, threads, &scratch_dir());
    let mut tracer = Tracer::new(Arc::clone(clock));

    // The unit carries its four spans in both modes, so the traced
    // unit differs from the plain one only by the store probes. The
    // two take turns, so the overhead ratio compares like with like.
    let mut per_unit: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut expected: Option<Unit> = None;
    let mut last = None;
    let start = clock.now_sec();
    while per_unit.len() < 2 || clock.now_sec() - start < args.seconds {
        let (plain, wall, _) = timed(clock.as_ref(), || {
            workload.unit(&mut tracer, None, tally).unit
        });
        plain_walls.push(wall);
        tally.unit(&plain);
        let expected = expected.get_or_insert_with(|| plain.clone());
        tally.check(plain.digests == expected.digests, || {
            "the same seed gave different digests".to_string()
        });

        let from = tracer.spans().len();
        let (outcome, wall, _) = timed(clock.as_ref(), || {
            workload.unit(&mut tracer, Some(&mut layer), tally)
        });
        traced_walls.push(wall);
        tally.unit(&outcome.unit);
        tally.check(outcome.unit.digests == expected.digests, || {
            "traced sweep digests differ from the untraced".to_string()
        });
        let totals = tracer.totals_from(from);
        let total = |name: &str| totals.get(name).map_or(0.0, |t| t.total);
        let phases = outcome.report.host_phase_sec();
        per_unit.push(BTreeMap::from([
            ("sweep.run_s", total("sweep.run")),
            (
                "sweep.runs_per_s",
                workload.total as f64 / total("sweep.run"),
            ),
            ("sweep.resume_s", total("sweep.resume")),
            ("sweep.audit_s", total("sweep.audit")),
            ("sweep.pivot_s", total("sweep.pivot")),
            // Program-reported: summed over the sweep's observed runs.
            ("core.profile_s", phases.profile_sec),
            ("fl.plan_s", phases.plan_sec),
            ("fl.train_s", phases.train_sec),
            ("fl.encode_s", phases.encode_sec),
            ("fl.fold_s", phases.fold_sec),
            ("fl.eval_s", phases.eval_sec),
        ]));
        last = Some(outcome.report);
    }
    let expected = expected.expect("at least two rounds of units ran");
    println!(
        "# digest (traced = untraced): {}",
        expected.digests.join(" ")
    );
    println!(
        "# per-unit values: median of n={} traced units",
        per_unit.len()
    );
    for (name, value) in medians(&per_unit) {
        layer.set(name, value);
    }
    layer.set(
        "obs.trace_overhead_ratio",
        median(&traced_walls) / median(&plain_walls),
    );

    let (mut runs, expand_s, _) = timed(clock.as_ref(), || workload.manifest.expand());
    layer.set("sweep.expand_s", expand_s);

    // Probes and counts at the shape every cell of the sweep shares.
    let request = runs.swap_remove(0).request;
    let cfg = request.experiment();
    let (session, build_s, _) = timed(clock.as_ref(), || {
        cfg.build_session(&SessionOverrides::default())
    });
    layer.set("fl.session_build_s", build_s);
    let tiers = cfg.runner().tiers().clone();
    let report = last.expect("at least two traced units ran");
    let reports = report.reports();
    probes::run(
        &cfg,
        &session,
        &tiers,
        reports[0],
        clock.as_ref(),
        &mut layer,
    );
    let c = fl::counts(
        reports
            .iter()
            .map(|r| (session.data(), cfg.client.local_epochs, *r)),
    );
    set_counts(&mut layer, &c);
    layer.set(
        "comm.wire_bytes_per_update",
        session.upload_wire_bytes() as f64,
    );
    layer.set("comm.compression_ratio", 1.0);

    let plain: Vec<f64> = (0..10)
        .map(|_| timed(clock.as_ref(), || request.run()).1)
        .collect();
    let observed: Vec<f64> = (0..10)
        .map(|_| timed(clock.as_ref(), || request.run_observed(0)).1)
        .collect();
    layer.set(
        "obs.observed_overhead_ratio",
        median(&observed) / median(&plain),
    );

    write_trace("sweep_store", &tracer);
    layer
}
