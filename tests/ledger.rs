//! README's "Feature ledger" is executable: every consumed row names a
//! file that exists and spells the row's symbol, every unconsumed row
//! still names live code, and the set of unconsumed rows is the list
//! below — shrink it deliberately; it cannot grow silently. Rows someone
//! wrote are not enough (`ModelSpec::Logistic` never had one): every
//! variant of the enums a `RunRequest` can spell, read from their
//! source files, must appear in a row. The lint configuration is a
//! ledger too: every first-party crate opts into it. So is `vendor/`:
//! every shim stands in for a crate first-party code depends on. And
//! `unsafe` stays in `tifl-tensor`, where its crate doc says it is.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The first code span of each "promote or delete next" row.
const UNCONSUMED: [&str; 6] = [
    "HierarchySpec",
    "LinkModel::ClusterDefault",
    "Cluster::set_dropout",
    "sim::EventQueue",
    "EventEngine",
    "Sequential::forward",
];

/// The enums a `RunRequest` document can spell, and where each is
/// defined.
const REQUEST_ENUMS: [(&str, &str); 12] = [
    ("ModelSpec", "crates/nn/src/models.rs"),
    ("OptimizerSpec", "crates/fl/src/client.rs"),
    ("LinkModel", "crates/comm/src/link.rs"),
    ("CodecSpec", "crates/comm/src/codec.rs"),
    ("SelectionStrategy", "crates/core/src/runner.rs"),
    ("AggregationMode", "crates/fl/src/session.rs"),
    ("LocalTraining", "crates/core/src/runner.rs"),
    ("DataScenario", "crates/core/src/experiment.rs"),
    ("DriftModel", "crates/sim/src/drift.rs"),
    ("ExecBackend", "crates/core/src/exec/mod.rs"),
    ("SplitStrategy", "crates/core/src/tiering.rs"),
    ("SynthFamily", "crates/data/src/synth.rs"),
];

/// The variant names of `pub enum <name>` in `source`: the identifiers
/// that open a line one brace deep in its body.
#[expect(clippy::panic, reason = "a test helper: the calling test fails")]
fn variants_of(name: &str, source: &str) -> Vec<String> {
    let (_, body) = source
        .split_once(&format!("pub enum {name} {{"))
        .unwrap_or_else(|| panic!("`pub enum {name}` moved"));
    let mut variants = Vec::new();
    let mut depth = 1usize;
    for line in body.lines().map(str::trim) {
        if depth == 1 && line.starts_with(|c: char| c.is_ascii_uppercase()) {
            let ident = line.split(|c: char| !c.is_ascii_alphanumeric()).next();
            variants.push(ident.expect("split yields a first piece").to_owned());
        }
        if !line.starts_with("//") {
            depth += line.matches(['{', '(']).count();
            depth -= line.matches(['}', ')']).count();
        }
        if depth == 0 {
            break;
        }
    }
    assert!(!variants.is_empty(), "no variants read for {name}");
    variants
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).expect("a source directory") {
        let path = entry.expect("a directory entry").path();
        if path.is_dir() {
            files.extend(rust_files(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            files.push(path);
        }
    }
    files
}

/// True when a `.rs` file under `dir` (the frozen benchmark aside)
/// contains `needle`.
fn defined_under(dir: &Path, needle: &str) -> bool {
    rust_files(dir).iter().any(|path| {
        !path.components().any(|c| c.as_os_str() == "benchmark")
            && std::fs::read_to_string(path).is_ok_and(|text| text.contains(needle))
    })
}

#[test]
fn every_ledger_row_has_a_live_consumer_or_is_listed_as_unconsumed() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md");
    let (_, ledger) = readme
        .split_once("\n## Feature ledger\n")
        .expect("the section");
    let ledger = ledger.split("\n## ").next().expect("non-empty");
    let mut unconsumed = Vec::new();
    for row in ledger
        .lines()
        .filter(|l| l.starts_with('|') && l.contains('`'))
    {
        let cells: Vec<&str> = row.trim_matches('|').split('|').collect();
        let spans = |cell: &str| {
            cell.split('`')
                .skip(1)
                .step_by(2)
                .map(str::to_owned)
                .collect()
        };
        // The symbol cell: second of a consumed row's four, first of an
        // unconsumed row's three.
        let symbols: Vec<String> = spans(cells[cells.len() - 3]);
        if cells.len() == 4 {
            let needle = symbols.last().expect("a symbol");
            let consumers: Vec<String> = spans(cells[2]);
            let file = consumers
                .iter()
                .rev()
                .find(|s| s.contains('/'))
                .expect("a path");
            let text = std::fs::read_to_string(root.join(file))
                .unwrap_or_else(|e| panic!("{row}\nconsumer {file}: {e}"));
            assert!(
                text.contains(needle.as_str()),
                "{file} no longer names {needle}"
            );
        } else {
            let name = symbols.first().expect("a symbol");
            let leaf = name.rsplit("::").next().expect("non-empty");
            let live = ["crates", "src"]
                .iter()
                .any(|d| defined_under(&root.join(d), leaf));
            assert!(live, "`{name}` is gone: delete its ledger row");
            unconsumed.push(name.clone());
        }
    }
    assert_eq!(unconsumed, UNCONSUMED, "the unconsumed set changed");

    for (name, file) in REQUEST_ENUMS {
        let source = std::fs::read_to_string(root.join(file)).expect(file);
        for variant in variants_of(name, &source) {
            assert!(
                ledger.contains(&format!("`{name}::{variant}`")),
                "`{name}::{variant}` ({file}) has no ledger row: name its consumer, or list \
                 it under \"Promote or delete next\""
            );
        }
    }
}

#[test]
fn variants_are_read_from_the_enum_body_alone() {
    let source = "pub enum Other { X }\n/// Doc.\n#[derive(Debug)]\npub enum Shape {\n    \
                  /// A {brace} in a comment.\n    #[default]\n    Unit,\n    Tuple(Inner),\n    \
                  Struct {\n        /// Field doc.\n        Field: usize,\n    },\n}\n\
                  impl Shape {\n    After,\n}\n";
    assert_eq!(variants_of("Shape", source), ["Unit", "Tuple", "Struct"]);
}

/// The test suite does not run clippy, so this keeps its configuration
/// attached: every first-party manifest but the frozen benchmark's opts
/// into `[workspace.lints]`, and `clippy.toml` still bans the four
/// nondeterministic paths.
#[test]
fn every_first_party_crate_opts_into_the_workspace_lints() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let dir = entry.expect("a directory entry").path();
        if !dir.ends_with("benchmark") {
            manifests.push(dir.join("Cargo.toml"));
        }
    }
    for manifest in &manifests {
        let text = std::fs::read_to_string(manifest).expect("a crate manifest");
        assert!(
            text.contains("\n[lints]\nworkspace = true\n"),
            "{} does not opt into [workspace.lints]",
            manifest.display()
        );
    }
    let clippy = std::fs::read_to_string(root.join("clippy.toml")).expect("clippy.toml");
    for banned in [
        "std::collections::HashMap",
        "std::collections::HashSet",
        "std::time::Instant::now",
        "std::time::SystemTime::now",
    ] {
        assert!(
            clippy.contains(&format!("path = \"{banned}\"")),
            "clippy.toml no longer bans {banned}"
        );
    }
}

/// `tifl-tensor` is the one crate that holds `unsafe`: its crate doc
/// and README's "Static analysis" row say so. The workspace's
/// `unsafe_code = "deny"`, which every crate opts into (the test
/// above), already rejects an `unsafe` block, fn or impl at compile
/// time; what it allows is a crate waiving the lint. So no first-party
/// `.rs` file outside `crates/tensor/src` may name `unsafe_code`, bar
/// the test suite's counting allocator (a `GlobalAlloc` impl is
/// `unsafe` by definition). This file names the lint, so it is not
/// searched.
#[test]
fn unsafe_code_stays_in_tifl_tensor() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let allowed = [
        root.join("crates/tensor/src"),
        root.join("tests/common/counting_alloc.rs"),
        root.join(file!()),
    ];
    let mut found = Vec::new();
    for dir in ["src", "crates", "tests", "examples"] {
        for path in rust_files(&root.join(dir)) {
            if allowed.iter().any(|a| path.starts_with(a)) {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("a source file");
            for (at, line) in text.lines().enumerate() {
                let code = line.split("//").next().unwrap_or_default();
                if code.contains("unsafe_code") {
                    found.push(format!("{}:{}: {}", path.display(), at + 1, line.trim()));
                }
            }
        }
    }
    assert!(
        found.is_empty(),
        "an `unsafe_code` waiver outside tifl-tensor:\n{}",
        found.join("\n")
    );
}

/// The package names `manifest` depends on: the keys of its
/// `[*dependencies]` tables, the workspace's declaration table aside.
fn dependencies_of(manifest: &str) -> Vec<String> {
    let mut deps = Vec::new();
    let mut in_table = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_table = line.ends_with("dependencies]") && line != "[workspace.dependencies]";
        } else if in_table && !line.is_empty() && !line.starts_with('#') {
            let name = line
                .split(['=', '.'])
                .next()
                .expect("split yields a first piece");
            deps.push(name.trim().to_owned());
        }
    }
    deps
}

/// A feature only its own tests reach is code nobody uses; a shim only
/// the workspace table names is the same. Every `vendor/*` package must
/// be a dependency of the root or a `crates/*` manifest, or of a shim
/// that itself passes (`serde_derive` through `serde`).
#[test]
fn every_vendored_shim_has_a_first_party_dependent() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |path: &Path| std::fs::read_to_string(path).expect("a manifest");
    let mut used: BTreeSet<String> = dependencies_of(&read(&root.join("Cargo.toml")))
        .into_iter()
        .collect();
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let dir = entry.expect("a directory entry").path();
        used.extend(dependencies_of(&read(&dir.join("Cargo.toml"))));
    }
    let mut shims = Vec::new();
    for entry in std::fs::read_dir(root.join("vendor")).expect("vendor/") {
        let dir = entry.expect("a directory entry").path();
        if dir.is_dir() {
            let manifest = read(&dir.join("Cargo.toml"));
            let name = manifest
                .lines()
                .find_map(|l| l.strip_prefix("name = "))
                .expect("a package name")
                .trim_matches('"')
                .to_owned();
            shims.push((name, dependencies_of(&manifest)));
        }
    }
    loop {
        let reached: Vec<String> = shims
            .iter()
            .filter(|(name, _)| used.contains(name))
            .flat_map(|(_, deps)| deps.clone())
            .collect();
        let known = used.len();
        used.extend(reached);
        if used.len() == known {
            break;
        }
    }
    for (name, _) in &shims {
        assert!(
            used.contains(name),
            "vendor/ holds `{name}`, which no first-party crate depends on: delete the shim"
        );
    }
}

/// The command names of `tifl help` and of README's "The `tifl` CLI"
/// table must be the same set: a command without a row, or a row
/// naming a command that is gone, fails.
#[test]
fn every_cli_command_has_a_readme_row() {
    let help = std::process::Command::new(env!("CARGO_BIN_EXE_tifl"))
        .arg("help")
        .output()
        .expect("tifl binary runs");
    let help = String::from_utf8(help.stdout).expect("utf-8 help");
    let listed: BTreeSet<&str> = help
        .lines()
        .filter_map(|line| line.strip_prefix("  tifl ")?.split_whitespace().next())
        .collect();
    assert!(listed.len() >= 10, "{help}");

    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md");
    let (_, section) = readme
        .split_once("## The `tifl` CLI")
        .expect("README has a CLI section");
    let table = section.split("\n## ").next().unwrap_or_default();
    let rows: BTreeSet<&str> = table
        .lines()
        .filter_map(|line| line.strip_prefix("| "))
        .flat_map(|row| {
            row.split(" | ")
                .next()
                .unwrap_or_default()
                .split("`tifl ")
                .skip(1)
        })
        .filter_map(|usage| usage.split([' ', '`']).next())
        .collect();
    assert_eq!(listed, rows, "`tifl help` vs README's CLI table");
}
