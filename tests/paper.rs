//! The gate that executes figure code: every id of `tifl paper` runs
//! through the binary at the smallest round count all of them accept
//! (`reprofiling` re-profiles every `rounds / 8`), prints its header
//! line(s) and a table, and dumps JSON that parses. A malformed command
//! line exits 2, an unwritable `--json` path or a failed run exits 1.

use std::process::{Command, Output};

/// `(id, the header lines it must print)`.
const HEADERS: [(&str, &[&str]); 18] = [
    ("fig1a", &["== Fig. 1(a) —"]),
    ("fig1b", &["== Fig. 1(b) —"]),
    ("straggler_prob", &["== Eqs. 2-5 —"]),
    (
        "table2",
        &["== Table 1 —", "== profiled tiers —", "== Table 2 —"],
    ),
    (
        "fig3",
        &["== Fig. 3(a) —", "== Fig. 3(f) —", "== Fig. 3 summary —"],
    ),
    ("fig4", &["== Fig. 4(a) —", "== Fig. 4(e) —"]),
    (
        "fig5",
        &["== Fig. 5(a) —", "== Fig. 5(d) —", "== Fig. 5 summary —"],
    ),
    (
        "fig6",
        &["== Fig. 6(a) —", "== Fig. 6(f) —", "== Fig. 6 summary —"],
    ),
    ("fig7", &["== Fig. 7(a) —", "== Fig. 7(b) —"]),
    ("fig8", &["== Fig. 8(a) —", "== Fig. 8(c) —"]),
    (
        "fig9",
        &["== Fig. 9(a) —", "== Fig. 9(b) —", "== Fig. 9 summary —"],
    ),
    ("privacy", &["== Sec. 4.6 —"]),
    ("dp_training", &["== DP training —"]),
    ("ablation_tiers", &["== ablation —"]),
    ("baselines", &["== baselines —"]),
    ("class_bias", &["== class bias —"]),
    ("reprofiling", &["== re-profiling —"]),
    ("time_to_acc", &["== time to accuracy —"]),
];

/// `tifl paper <args>`.
fn paper(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tifl"))
        .arg("paper")
        .args(args)
        .output()
        .expect("tifl binary runs")
}

/// The ids the `paper` row of `tifl help` accepts, in its order.
fn ids() -> Vec<String> {
    let help = Command::new(env!("CARGO_BIN_EXE_tifl"))
        .arg("help")
        .output()
        .expect("tifl binary runs");
    let help = String::from_utf8(help.stdout).expect("utf-8 help");
    let row = help
        .lines()
        .find_map(|l| l.strip_prefix("  tifl paper <"))
        .expect("a `paper` row");
    let (ids, _) = row.split_once('>').expect("an id operand");
    ids.split('|').map(String::from).collect()
}

#[test]
fn every_id_prints_its_tables_and_dumps_json() {
    assert_eq!(
        ids(),
        HEADERS.map(|(id, _)| id),
        "this test must cover every id"
    );
    let dir = std::env::temp_dir().join(format!("tifl-paper-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (id, headers) in HEADERS {
        let json = dir.join(format!("{id}.json"));
        let json = json.to_str().unwrap();
        let out = paper(&[id, "--rounds", "8", "--seed", "7", "--json", json]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{id}: {stderr}");
        let text = String::from_utf8(out.stdout).expect("utf-8 output");
        for header in headers {
            assert!(text.contains(header), "{id}: no `{header}` in:\n{text}");
        }
        // A table: several lines after the header, at least one of
        // them carrying a number.
        let rows: Vec<&str> = text
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with("=="))
            .collect();
        assert!(rows.len() >= 3, "{id}: no table in:\n{text}");
        assert!(
            rows.iter().any(|l| l.chars().any(|c| c.is_ascii_digit())),
            "{id}: table has no numbers:\n{text}"
        );
        let dump = std::fs::read_to_string(json).expect("--json written");
        let value: serde::Value = serde_json::from_str(&dump).expect("--json parses");
        assert!(
            matches!(&value, serde::Value::Array(items) if !items.is_empty()),
            "{id}: --json is not a non-empty series"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_unknown_id_lists_the_valid_ones() {
    let out = paper(&["fig2"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        out.stdout.is_empty(),
        "nothing is printed for a usage error"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("`fig2` is not one of"), "{stderr}");
    for (id, _) in HEADERS {
        assert!(stderr.contains(id), "usage must list `{id}`: {stderr}");
    }

    // Malformed flags are usage errors too, caught before any run.
    for bad in [
        &["fig3", "--rounds"][..],
        &["fig3", "--rounds", "many"],
        &["fig3", "--fast"],
        &[],
    ] {
        let out = paper(bad);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bad:?}: {stderr}");
        assert!(!stderr.contains("[paper]"), "{bad:?} ran: {stderr}");
    }
}

#[test]
fn a_json_path_that_cannot_be_written_exits_1_naming_it() {
    let dir = std::env::temp_dir().join(format!("tifl-paper-nodir-{}", std::process::id()));
    let json = dir.join("missing").join("fig1a.json");
    let json = json.to_str().unwrap();
    let out = paper(&["fig1a", "--json", json]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains(&format!("[tifl] {json}: ")), "{stderr}");
    assert!(!dir.exists(), "nothing is created");
}

#[test]
fn a_failed_run_exits_1_naming_it() {
    // At 4 rounds `reprofiling` asks to re-profile every 4 / 8 == 0
    // rounds, which its re-profiled cell rejects.
    let out = paper(&["reprofiling", "--rounds", "4"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    let last = stderr.lines().last().expect("a closing line");
    assert!(
        last.starts_with("[tifl] ")
            && last.contains("fast+reprofile")
            && last.ends_with("re-profiling interval must be positive"),
        "{stderr}"
    );
}

#[test]
fn zero_rounds_print_empty_tables() {
    // An empty report has zero time and accuracy, and Table 2's MAPE
    // of a zero estimate against a zero measurement is NaN.
    for id in ["fig3", "table2"] {
        let out = paper(&[id, "--rounds", "0"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{id}: {stderr}");
    }
}

#[test]
fn fig3_builds_one_dataset_per_column() {
    // Two experiments (resource and data-quantity heterogeneity) × five
    // policies: the scheduler's closing line on stderr counts one
    // dataset per column, the other eight curves training on them.
    let out = paper(&["fig3", "--rounds", "8", "--seed", "7"]);
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    let closing = stderr.lines().last().expect("a closing line");
    assert_eq!(
        closing,
        "[paper] 10 runs: 2 profiling pass(es); 2 dataset(s) built, 8 shared"
    );
}
