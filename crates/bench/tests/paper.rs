//! The gate that executes figure code: every id of the `paper` driver
//! runs through the library entry at the smallest round count all of
//! them accept (`reprofiling` re-profiles every `rounds / 8`), prints
//! its header line(s) and a table, and dumps JSON that parses.

use tifl_bench::{run, FIGURES};

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

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(ToString::to_string).collect()
}

#[test]
fn every_id_prints_its_tables_and_dumps_json() {
    assert_eq!(
        FIGURES.map(|(id, _)| id),
        HEADERS.map(|(id, _)| id),
        "this test must cover every id"
    );
    let dir = std::env::temp_dir().join(format!("tifl-paper-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (id, headers) in HEADERS {
        let json = dir.join(format!("{id}.json"));
        let mut out = Vec::new();
        let argv = args(&[id, "--rounds", "8", "--seed", "7", "--json"]);
        run(
            &[argv, vec![json.to_str().unwrap().to_string()]].concat(),
            &mut out,
        )
        .unwrap_or_else(|e| panic!("{id}: {e}"));
        let text = String::from_utf8(out).expect("utf-8 output");
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
        let dump = std::fs::read_to_string(&json).expect("--json written");
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
    let mut out = Vec::new();
    let err = run(&args(&["fig2"]), &mut out).expect_err("fig2 is not a figure");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    let message = err.to_string();
    assert!(message.contains("unknown id `fig2`"), "{message}");
    for (id, _) in FIGURES {
        assert!(message.contains(id), "usage must list `{id}`: {message}");
    }
    assert!(out.is_empty(), "nothing is printed for a usage error");

    // Malformed flags are usage errors too, not panics.
    for bad in [
        &["fig3", "--rounds"][..],
        &["fig3", "--rounds", "many"],
        &["fig3", "--fast"],
        &[],
    ] {
        let err = run(&args(bad), &mut out).expect_err("malformed arguments");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{bad:?}");
    }

    // Through the binary, a usage error is exit code 2.
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_paper"))
        .arg("fig2")
        .stderr(std::process::Stdio::null())
        .status()
        .expect("paper binary runs");
    assert_eq!(status.code(), Some(2));
}

#[test]
fn fig3_builds_one_dataset_per_column() {
    // Two experiments (resource and data-quantity heterogeneity) × five
    // policies: the scheduler's closing line on stderr counts one
    // dataset per column, the other eight curves training on them.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(["fig3", "--rounds", "8", "--seed", "7"])
        .output()
        .expect("paper binary runs");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    let closing = stderr.lines().last().expect("a closing line");
    assert_eq!(
        closing,
        "[paper] 10 runs: 2 profiling pass(es); 2 dataset(s) built, 8 shared"
    );
}
