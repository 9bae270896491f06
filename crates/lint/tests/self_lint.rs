//! The workspace must lint clean: zero unwaived findings across every
//! crate. This is the same check CI's `lint` job runs via
//! `cargo run -p tifl-lint -- --deny`; keeping it in the test suite
//! means plain `cargo test` catches regressions too.

use std::path::Path;

use tifl_lint::{find_workspace_root, lint_workspace};

#[test]
fn workspace_lints_clean() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = find_workspace_root(here).expect("lint crate lives inside the workspace");
    let report = lint_workspace(&root).expect("workspace sources are readable");
    assert!(
        report.is_clean(),
        "workspace has unwaived lint findings:\n{}",
        report
            .findings
            .iter()
            .map(|f| format!("  {}:{}: {}: {}", f.file, f.line, f.rule, f.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The scan actually covered the tree (guards against a walk bug
    // silently linting nothing).
    assert!(
        report.files_scanned > 50,
        "only {} files scanned",
        report.files_scanned
    );
    // And the waiver budget stays deliberate: new waivers mean a
    // conscious bump here, not silent drift.
    assert!(
        report.waived <= 12,
        "{} waivers — review whether they are all still justified",
        report.waived
    );
}

#[test]
fn json_report_is_valid_and_stable() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = find_workspace_root(here).expect("workspace root");
    let a = lint_workspace(&root).expect("scan");
    let b = lint_workspace(&root).expect("scan");
    let ja = serde_json::to_string_pretty(&a).expect("serializes");
    let jb = serde_json::to_string_pretty(&b).expect("serializes");
    assert_eq!(ja, jb, "report JSON must be byte-deterministic");
    let parsed = serde_json::parse_value_complete(&ja).expect("valid JSON");
    drop(parsed);
}
