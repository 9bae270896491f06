//! The benchmark with `--quick` (every workload shrunk to finish
//! in seconds) must report exactly what `BENCHMARK.json` promises:
//! the same workloads, and for each of them every end-to-end metric
//! untraced and every per-layer metric traced, each with its unit.

use serde::Deserialize;
use std::collections::BTreeMap;
use std::process::Command;

#[derive(Deserialize)]
struct Workload {
    name: String,
}

#[derive(Deserialize)]
struct Promised {
    name: String,
    unit: String,
}

#[derive(Deserialize)]
struct BenchmarkFile {
    command: Vec<String>,
    paths: Vec<String>,
    run_seconds: u64,
    workloads: Vec<Workload>,
    end_to_end: Vec<Promised>,
    per_layer: Vec<Promised>,
}

#[derive(Deserialize)]
struct Metric {
    value: f64,
    unit: String,
}

#[derive(Deserialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Metric>,
}

fn benchmark_file() -> BenchmarkFile {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_tifl-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark starts")
}

fn quick(workload: &str, trace: &str) -> ResultLine {
    let out = run(&[
        "--workload",
        workload,
        "--seed",
        "5",
        "--seconds",
        "0.2",
        "--trace",
        trace,
        "--quick",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace {trace} exited {}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.trim_end().lines().last().expect("a result line");
    serde_json::from_str(last).expect("the last line of standard output is the result")
}

/// Letters, digits, `_`, `.`, `-`, starting with a letter or digit.
fn well_formed(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn assert_reports(result: &ResultLine, promised: &[Promised], what: &str) {
    assert!(
        result.correct && result.failed == 0,
        "{what}: an output check failed"
    );
    assert!(result.attempted >= 1);
    let reported: Vec<&String> = result.metrics.keys().collect();
    let mut expected: Vec<&String> = promised.iter().map(|m| &m.name).collect();
    expected.sort();
    assert_eq!(
        reported, expected,
        "{what}: metric names differ from BENCHMARK.json"
    );
    for m in promised {
        assert!(well_formed(&m.name), "{what}: malformed name {}", m.name);
        let got = &result.metrics[&m.name];
        assert_eq!(got.unit, m.unit, "{what}: unit of {}", m.name);
        assert!(got.value.is_finite(), "{what}: {} is not finite", m.name);
    }
}

fn check_workload(workload: &str) {
    let file = benchmark_file();
    assert!(file.workloads.iter().any(|w| w.name == workload));
    let end_to_end = quick(workload, "0");
    assert_reports(&end_to_end, &file.end_to_end, workload);
    for (name, m) in &end_to_end.metrics {
        // CPU time comes in 10 ms ticks, and a unit shrunk for this
        // test may use less than one.
        assert!(
            m.value > 0.0 || name == "cpu_s",
            "{workload}: end-to-end metric {name} read {}",
            m.value
        );
    }
    assert_reports(&quick(workload, "1"), &file.per_layer, workload);
}

#[test]
fn paper_policies_reports_what_the_benchmark_file_promises() {
    check_workload("paper_policies");
}

#[test]
fn comm_wide_reports_what_the_benchmark_file_promises() {
    check_workload("comm_wide");
}

#[test]
fn population_event_reports_what_the_benchmark_file_promises() {
    check_workload("population_event");
}

#[test]
fn sweep_store_reports_what_the_benchmark_file_promises() {
    check_workload("sweep_store");
}

#[test]
fn benchmark_file_names_this_crate_and_its_four_workloads() {
    let file = benchmark_file();
    let names: Vec<&str> = file.workloads.iter().map(|w| w.name.as_str()).collect();
    assert_eq!(
        names,
        [
            "paper_policies",
            "comm_wide",
            "population_event",
            "sweep_store"
        ]
    );
    assert_eq!(file.paths, ["crates/benchmark"]);
    assert!(file.command.contains(&"tifl-benchmark".to_string()));
    assert!((1..=60).contains(&file.run_seconds));
    assert!(file.end_to_end.iter().any(|m| m.name == "setup_s"));
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        &["--workload", "no_such_workload"][..],
        &["--trace", "2"][..],
        &["--seed"][..],
        &["--frobnicate"][..],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
