//! The whole set — every workload, each in a process of its own — and
//! the self-check that two sets of the same build agree.

use crate::metrics::{Metric, ResultLine};
use crate::{threads, write_report, Args, WORKLOADS};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use tifl_sweep::store::host_parallelism;

#[derive(Debug, Serialize, Deserialize)]
pub struct WorkloadResult {
    pub correct: bool,
    attempted: u64,
    failed: u64,
    end_to_end: BTreeMap<String, Metric>,
    per_layer: BTreeMap<String, Metric>,
}

/// One run of every workload, as `--out` records it.
#[derive(Debug, Serialize, Deserialize)]
pub struct SetResult {
    seed: u64,
    seconds: f64,
    quick: bool,
    threads: usize,
    nproc: usize,
    pub workloads: BTreeMap<String, WorkloadResult>,
}

/// Start this executable on one workload and read its result line.
fn child(workload: &str, args: &Args, trace: bool) -> ResultLine {
    let exe = std::env::current_exe().expect("the executable has a path");
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(args.quick.then_some("--quick"))
        .stdin(Stdio::null())
        .output()
        .expect("the benchmark can start itself");
    // The sweep scheduler writes a progress line per run; everything
    // else on the child's standard error is worth showing.
    for line in String::from_utf8_lossy(&output.stderr).lines() {
        if !line.starts_with("[sweep] ") {
            eprintln!("{line}");
        }
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (report, line) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    println!("{report}");
    serde_json::from_str(line).unwrap_or_else(|e| {
        panic!(
            "{workload} (trace {trace}) ended {} without a result line: {e}",
            output.status
        )
    })
}

/// Every workload, each in a process of its own: untraced for the
/// end-to-end metrics, then (with `layers`) traced for the per-layer
/// ones.
pub fn run_set(args: &Args, layers: bool) -> SetResult {
    let mut workloads = BTreeMap::new();
    for workload in WORKLOADS {
        let e2e = child(workload, args, false);
        let layer = layers.then(|| child(workload, args, true));
        let (attempted, failed) = layer.as_ref().map_or((0, 0), |l| (l.attempted, l.failed));
        workloads.insert(
            workload.to_string(),
            WorkloadResult {
                correct: e2e.correct && layer.as_ref().is_none_or(|l| l.correct),
                attempted: e2e.attempted + attempted,
                failed: e2e.failed + failed,
                end_to_end: e2e.metrics,
                per_layer: layer.map(|l| l.metrics).unwrap_or_default(),
            },
        );
    }
    SetResult {
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
        threads: threads(),
        nproc: host_parallelism(),
        workloads,
    }
}

#[derive(Debug, Deserialize)]
struct BoundedMetric {
    name: String,
    bound: f64,
}

#[derive(Debug, Deserialize)]
struct BenchmarkFile {
    end_to_end: Vec<BoundedMetric>,
}

#[derive(Debug, Serialize)]
struct Spread {
    workload: String,
    metric: String,
    first: f64,
    second: f64,
    /// |first − second| as a share of the first.
    spread: f64,
    bound: f64,
}

/// Two sets of untraced runs of the same build must agree within the
/// bounds `BENCHMARK.json` (in the working directory) fixes.
pub fn selfcheck(args: &Args) -> bool {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .expect("--selfcheck runs from the repository root, beside BENCHMARK.json");
    let file: BenchmarkFile = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let (a, b) = (run_set(args, false), run_set(args, false));
    let mut spreads = Vec::new();
    let mut ok = true;
    for (workload, first) in &a.workloads {
        let second = &b.workloads[workload];
        ok &= first.correct && second.correct;
        for m in &file.end_to_end {
            let (x, y) = (
                first.end_to_end[&m.name].value,
                second.end_to_end[&m.name].value,
            );
            let spread = ((x - y) / x).abs();
            let verdict = if spread <= m.bound {
                "ok"
            } else {
                "OUTSIDE BOUND"
            };
            println!(
                "{workload:18} {:16} {x:>16.6} {y:>16.6} spread {spread:.4} bound {} {verdict}",
                m.name, m.bound
            );
            ok &= spread <= m.bound;
            spreads.push(Spread {
                workload: workload.clone(),
                metric: m.name.clone(),
                first: x,
                second: y,
                spread,
                bound: m.bound,
            });
        }
    }
    if let Some(path) = &args.out {
        write_report(path, &spreads);
    }
    ok
}
