//! The kernel perf gate: the timing loop behind `benches/codec_kernels.rs`
//! and the compare against its checked-in baseline.
//!
//! [`run`] reads three flags and ignores every other argument (cargo's
//! `--bench`): `--save-baseline <path>` writes every entry's ns/iter as
//! a flat JSON map; `--baseline <path>` then compares against one and
//! fails on any entry more than `--fail-threshold <pct>` (default 15)
//! slower.
//!
//! Raw nanoseconds are not comparable across hosts, so both sides are
//! first divided by their own time for the first `calibration/` entry
//! they share. A baseline recorded on a fast machine then gates a slow
//! CI runner on *relative* kernel cost (e.g. "blocked axpy vs the scalar
//! reference") instead of absolute wall-clock.

use std::process::ExitCode;
use tifl_obs::{HostClock, RealClock};

/// Labels with this prefix are host-speed probes: they normalize the
/// comparison and are never gated themselves.
const CALIBRATION_PREFIX: &str = "calibration/";

/// The baseline file's schema tag.
const SCHEMA: &str = "tifl-criterion-baseline-v1";

/// The timing loop: the batch grows ×8 until one batch takes
/// `BATCH_FLOOR_SEC` or holds `BATCH_CAP` calls, then whole batches run
/// until `MEASUREMENT_SEC` have been measured.
const BATCH_FLOOR_SEC: f64 = 1e-3;
const BATCH_CAP: u64 = 1 << 20;
const MEASUREMENT_SEC: f64 = 0.3;

/// One bench process: its flags and every entry timed so far, in run
/// order.
pub struct Timing {
    clock: RealClock,
    save_path: Option<String>,
    baseline_path: Option<String>,
    threshold_pct: f64,
    results: Vec<(String, f64)>,
}

/// The bench binary's `main`: parse `args` (program name first), time
/// the entries `benches` registers through [`Timing::bench`], then save
/// and compare them. Fails, printing `perf gate: …`, on a non-numeric
/// threshold, a baseline path that cannot be written or read, or a
/// regression.
pub fn run(args: impl IntoIterator<Item = String>, benches: impl FnOnce(&mut Timing)) -> ExitCode {
    let mut timing = match Timing::from_args(args.into_iter().skip(1)) {
        Ok(timing) => timing,
        Err(problem) => {
            eprintln!("perf gate: {problem}");
            return ExitCode::FAILURE;
        }
    };
    benches(&mut timing);
    timing.finish()
}

/// Mean ns per call of `routine`, and the calls timed.
fn measure<O>(clock: &dyn HostClock, mut routine: impl FnMut() -> O) -> (f64, u64) {
    let mut time_batch = |batch: u64| {
        let t0 = clock.now_sec();
        for _ in 0..batch {
            std::hint::black_box(routine());
        }
        clock.now_sec() - t0
    };
    let mut batch = 1;
    while time_batch(batch) < BATCH_FLOOR_SEC && batch < BATCH_CAP {
        batch *= 8;
    }
    let (mut total, mut iters) = (0.0, 0);
    while total < MEASUREMENT_SEC {
        total += time_batch(batch);
        iters += batch;
    }
    (total * 1e9 / iters as f64, iters)
}

impl Timing {
    /// Time `routine` (batches of calls for 300 ms) and print its mean
    /// time per call.
    pub fn bench<O>(&mut self, label: &str, routine: impl FnMut() -> O) {
        let (ns, iters) = measure(&self.clock, routine);
        println!("{label:<50} {:>12}/iter  ({iters} iters)", human_time(ns));
        self.results.push((label.to_owned(), ns));
    }

    /// Read the gate's flags from the arguments after the program name.
    fn from_args(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut timing = Timing {
            clock: RealClock::new(),
            save_path: None,
            baseline_path: None,
            threshold_pct: 15.0,
            results: Vec::new(),
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--save-baseline" => timing.save_path = args.next(),
                "--baseline" => timing.baseline_path = args.next(),
                "--fail-threshold" => {
                    timing.threshold_pct = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--fail-threshold takes a percentage")?;
                }
                _ => {}
            }
        }
        Ok(timing)
    }

    /// Save, then compare, as the flags ask.
    fn finish(self) -> ExitCode {
        if let Some(path) = &self.save_path {
            if let Err(e) = std::fs::write(path, baseline_json(&self.results)) {
                eprintln!("perf gate: cannot write baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!(
                "perf gate: saved {} benchmarks to {path}",
                self.results.len()
            );
        }
        let Some(path) = &self.baseline_path else {
            return ExitCode::SUCCESS;
        };
        let baseline = match std::fs::read_to_string(path) {
            Ok(text) => parse_baseline(&text),
            Err(e) => {
                eprintln!("perf gate: cannot read baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let threshold_pct = self.threshold_pct;
        let regressions = compare(&self.results, &baseline, threshold_pct);
        if regressions.is_empty() {
            println!(
                "perf gate: ok ({} benchmarks within {threshold_pct}%)",
                baseline.len()
            );
            return ExitCode::SUCCESS;
        }
        eprintln!(
            "perf gate FAILED: {} benchmark(s) regressed more than {threshold_pct}%:",
            regressions.len()
        );
        for (label, ratio) in &regressions {
            eprintln!("  {label}: {:+.1}%", (ratio - 1.0) * 100.0);
        }
        ExitCode::FAILURE
    }
}

fn human_time(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// The baseline file: the schema tag, then one entry per line sorted by
/// label, so the checked-in baseline diffs cleanly.
fn baseline_json(results: &[(String, f64)]) -> String {
    let mut sorted = results.to_vec();
    sorted.sort_by(|a, b| a.0.cmp(&b.0));
    let entries: Vec<String> = sorted
        .iter()
        .map(|(label, ns)| format!("  \"{label}\": {ns:.3}"))
        .collect();
    format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n{}\n}}\n",
        entries.join(",\n")
    )
}

/// Read [`baseline_json`]'s lines back as `(label, ns)` pairs; the
/// schema tag is skipped.
fn parse_baseline(text: &str) -> Vec<(String, f64)> {
    text.lines()
        .filter_map(|line| {
            let (key, value) = line.trim().trim_end_matches(',').split_once(':')?;
            let ns = value.trim().parse().ok()?;
            Some((key.trim().trim_matches('"').to_owned(), ns))
        })
        .collect()
}

fn lookup(results: &[(String, f64)], label: &str) -> Option<f64> {
    results.iter().find(|(l, _)| l == label).map(|&(_, ns)| ns)
}

/// Compare `current` against a saved baseline, printing one verdict per
/// gated entry. Returns the regressions (`label`, current-vs-baseline
/// ratio) beyond `1 + threshold_pct/100`. An entry on one side only is
/// printed but never fails the gate, so adding a bench does not require
/// regenerating the baseline atomically.
fn compare(
    current: &[(String, f64)],
    baseline: &[(String, f64)],
    threshold_pct: f64,
) -> Vec<(String, f64)> {
    // Both sides must divide by the same probe for the ratios to be
    // comparable: the run's first `calibration/` entry the baseline has.
    let calibration = current.iter().find_map(|(label, ns)| {
        let base_ns = lookup(baseline, label)?;
        (label.starts_with(CALIBRATION_PREFIX) && *ns > 0.0).then_some((label, *ns, base_ns))
    });
    let (cur_div, base_div) = match calibration {
        Some((label, cur_div, base_div)) => {
            println!("perf gate: normalizing by {label}");
            (cur_div, base_div)
        }
        None => {
            println!("perf gate: no shared calibration bench; comparing raw ns");
            (1.0, 1.0)
        }
    };
    let mut regressions = Vec::new();
    for (label, base_ns) in baseline {
        if label.starts_with(CALIBRATION_PREFIX) {
            continue;
        }
        let Some(cur_ns) = lookup(current, label) else {
            println!("perf gate: {label}: in baseline but not measured (skipped)");
            continue;
        };
        let ratio = (cur_ns / cur_div) / (base_ns / base_div);
        let verdict = if ratio > 1.0 + threshold_pct / 100.0 {
            regressions.push((label.clone(), ratio));
            "REGRESSED"
        } else {
            "ok"
        };
        println!(
            "perf gate: {label:<46} {:>10} vs {:>10}  ({:+6.1}%)  {verdict}",
            human_time(cur_ns),
            human_time(*base_ns),
            (ratio - 1.0) * 100.0,
        );
    }
    for (label, _) in current {
        if !label.starts_with(CALIBRATION_PREFIX) && lookup(baseline, label).is_none() {
            println!("perf gate: {label}: not in baseline (add with --save-baseline)");
        }
    }
    regressions
}

#[cfg(test)]
mod tests {
    use super::*;
    use tifl_obs::FrozenClock;

    fn entries(pairs: &[(&str, f64)]) -> Vec<(String, f64)> {
        pairs.iter().map(|&(l, ns)| (l.to_owned(), ns)).collect()
    }

    fn timing(args: &[&str]) -> Result<Timing, String> {
        Timing::from_args(args.iter().map(|a| (*a).to_owned()))
    }

    #[test]
    fn measure_times_whole_batches_until_the_budget_is_spent() {
        // Every read advances a quarter second: the first batch of one
        // already clears the floor, and two batches spend the budget.
        let clock = FrozenClock::with_step(0.25);
        let mut calls = 0;
        let (ns, iters) = measure(&clock, || calls += 1);
        assert_eq!((ns, iters, calls), (0.25e9, 2, 3));
    }

    #[test]
    fn baseline_json_round_trips() {
        let results = entries(&[("hot/axpy", 1234.5678), ("calibration/axpy_scalar", 900.0)]);
        let json = baseline_json(&results);
        assert!(json.starts_with("{\n  \"schema\": \"tifl-criterion-baseline-v1\",\n"));
        // Sorted by label, schema tag skipped, values kept to 3 decimals.
        let parsed = parse_baseline(&json);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].0, "calibration/axpy_scalar");
        assert!((parsed[1].1 - 1234.568).abs() < 1e-9);
    }

    #[test]
    fn the_checked_in_baseline_reads_back() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_codec_kernels.json"
        );
        let text = std::fs::read_to_string(path).expect("the checked-in baseline");
        let baseline = parse_baseline(&text);
        assert_eq!(baseline.len(), 25);
        assert!(lookup(&baseline, "calibration/axpy_scalar").is_some());
        assert_eq!(baseline_json(&baseline), text, "the writer's own format");
    }

    #[test]
    fn compare_normalizes_by_calibration() {
        // Current host is uniformly 2x slower than the baseline host:
        // with the shared calibration probe, nothing regresses.
        let baseline = entries(&[("calibration/probe", 100.0), ("hot/axpy", 50.0)]);
        let slower_host = entries(&[("calibration/probe", 200.0), ("hot/axpy", 100.0)]);
        assert!(compare(&slower_host, &baseline, 15.0).is_empty());
        // A genuine 50% relative slowdown still fails.
        let regressed = entries(&[("calibration/probe", 200.0), ("hot/axpy", 150.0)]);
        let failures = compare(&regressed, &baseline, 15.0);
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].0, "hot/axpy");
    }

    #[test]
    fn the_threshold_itself_passes() {
        let baseline = entries(&[("calibration/probe", 100.0), ("hot/axpy", 100.0)]);
        let at = entries(&[("calibration/probe", 100.0), ("hot/axpy", 115.0)]);
        assert!(compare(&at, &baseline, 15.0).is_empty());
        let over = entries(&[("calibration/probe", 100.0), ("hot/axpy", 115.1)]);
        assert_eq!(compare(&over, &baseline, 15.0).len(), 1);
    }

    #[test]
    fn compare_skips_one_sided_benchmarks() {
        let baseline = entries(&[("hot/gone", 50.0)]);
        let current = entries(&[("hot/new", 50.0)]);
        assert!(compare(&current, &baseline, 15.0).is_empty());
    }

    #[test]
    fn flags_parse_and_unknown_arguments_are_ignored() {
        let t = timing(&["--bench", "--fail-threshold", "30", "--baseline", "b.json"])
            .expect("valid flags");
        assert_eq!(t.threshold_pct, 30.0);
        assert_eq!(t.baseline_path.as_deref(), Some("b.json"));
        assert_eq!(t.save_path, None);
        for bad in [&["--fail-threshold", "abc"][..], &["--fail-threshold"]] {
            assert!(timing(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn an_unreadable_baseline_fails_the_gate() {
        let t = timing(&["--baseline", "/nonexistent/baseline.json"]).expect("valid flags");
        assert_eq!(t.finish(), ExitCode::FAILURE);
    }
}
