//! README's "Feature ledger" is executable: every consumed row names a
//! file that exists and spells the row's symbol, every unconsumed row
//! still names live code, and the set of unconsumed rows is the list
//! below — shrink it deliberately; it cannot grow silently.

use std::path::Path;

/// The first code span of each "promote or delete next" row.
const UNCONSUMED: [&str; 10] = [
    "ModelSpec::Cnn",
    "HierarchySpec",
    "LinkModel::LogNormal",
    "LinkModel::Uniform",
    "LinkModel::ClusterDefault",
    "OptimizerSpec::SgdMomentum",
    "Cluster::set_dropout",
    "RoundTimeline",
    "sim::EventQueue",
    "EventEngine",
];

/// True when a `.rs` file under `dir` (the frozen benchmark aside)
/// contains `needle`.
fn defined_under(dir: &Path, needle: &str) -> bool {
    std::fs::read_dir(dir)
        .expect("a source directory")
        .any(|entry| {
            let path = entry.expect("a directory entry").path();
            if path.is_dir() {
                !path.ends_with("benchmark") && defined_under(&path, needle)
            } else {
                path.extension().is_some_and(|e| e == "rs")
                    && std::fs::read_to_string(&path).is_ok_and(|text| text.contains(needle))
            }
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
}
