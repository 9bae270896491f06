//! Store-backed reporting: pivot a directory of run artifacts into the
//! paper's policy × scenario comparison tables without re-running
//! anything.
//!
//! `tifl report <dir>` is the CLI face of this module: every artifact
//! in the [`RunStore`] becomes one [`PivotRow`] (label, seed, rounds,
//! virtual wall time, final/best accuracy, wire bytes, optional
//! time-to-target-accuracy), sorted by (label, seed) so the table is
//! deterministic regardless of directory iteration order. The rows
//! render through [`tifl_obs::render_pivot`] or serialize as JSON.

use crate::store::RunStore;
use tifl_obs::PivotRow;

/// One pivot row per valid artifact in `store`, sorted by
/// (label, seed). `target` fills the time-to-target-accuracy column
/// (the paper's fig. 5 "time to X%" comparison); rows that never reach
/// it carry `None`. Unparseable files are skipped — a report over a
/// store with one corrupt artifact still covers the rest.
#[must_use]
pub fn pivot_rows(store: &RunStore, target: Option<f64>) -> Vec<PivotRow> {
    let mut rows: Vec<PivotRow> = store
        .keys()
        .into_iter()
        .filter_map(|key| store.load_checked(key).ok())
        .map(|artifact| {
            let report = &artifact.report;
            PivotRow {
                label: report.policy.clone(),
                seed: artifact.request.experiment().seed,
                rounds: report.rounds.len() as u64,
                virtual_sec: report.total_time(),
                final_accuracy: report.final_accuracy(),
                best_accuracy: report.best_accuracy(),
                bytes_up: report.total_bytes_up(),
                bytes_down: report.total_bytes_down(),
                time_to_target_sec: target.and_then(|t| report.time_to_accuracy(t)),
            }
        })
        .collect();
    rows.sort_by(|a, b| a.label.cmp(&b.label).then(a.seed.cmp(&b.seed)));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::RunKey;
    use crate::store::RunArtifact;
    use tifl_core::experiment::ExperimentConfig;
    use tifl_core::policy::Policy;
    use tifl_core::runner::{RunRequest, RunSpec, SelectionStrategy};
    use tifl_fl::{RoundReport, TrainingReport};

    fn artifact(seed: u64, policy: &str, accuracies: &[f64]) -> RunArtifact {
        let mut experiment = ExperimentConfig::tiny(seed);
        experiment.rounds = accuracies.len() as u64;
        // The spec must differ per policy so each cell keeps its own
        // RunKey (same-request artifacts would overwrite each other).
        let spec = if policy == "vanilla" {
            RunSpec::default()
        } else {
            RunSpec {
                selection: SelectionStrategy::TierPolicy {
                    policy: Policy::uniform(5),
                },
                ..RunSpec::default()
            }
        };
        let request = RunRequest {
            experiment,
            rounds: None,
            seed: None,
            clients_per_round: None,
            spec,
        };
        let report = TrainingReport {
            policy: policy.into(),
            rounds: accuracies
                .iter()
                .enumerate()
                .map(|(r, &accuracy)| RoundReport {
                    round: r as u64,
                    time: (r + 1) as f64,
                    latency: 1.0,
                    selected: vec![0],
                    aggregated: vec![0],
                    accuracy: Some(accuracy),
                    loss: Some(1.0),
                    bytes_down: 5,
                    bytes_up: 7,
                })
                .collect(),
        };
        RunArtifact::new(RunKey::of(&request), request, report)
    }

    #[test]
    fn pivot_sorts_by_label_then_seed_and_fills_target_times() {
        let dir = std::env::temp_dir().join(format!("tifl-pivot-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = RunStore::open(&dir).expect("store opens");
        store
            .write(&artifact(2, "uniform", &[0.2, 0.6]))
            .expect("writes");
        store
            .write(&artifact(1, "vanilla", &[0.1, 0.3]))
            .expect("writes");
        store
            .write(&artifact(1, "uniform", &[0.3, 0.7]))
            .expect("writes");

        let rows = pivot_rows(&store, Some(0.5));
        let order: Vec<(String, u64)> = rows.iter().map(|r| (r.label.clone(), r.seed)).collect();
        assert_eq!(
            order,
            vec![
                ("uniform".into(), 1),
                ("uniform".into(), 2),
                ("vanilla".into(), 1)
            ]
        );
        assert_eq!(rows[0].rounds, 2);
        assert_eq!(rows[0].bytes_up, 14);
        assert_eq!(rows[0].time_to_target_sec, Some(2.0));
        assert_eq!(rows[2].time_to_target_sec, None);
        assert!((rows[2].final_accuracy - 0.3).abs() < 1e-12);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pivot_skips_unparseable_files() {
        let dir = std::env::temp_dir().join(format!("tifl-pivot-bad-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = RunStore::open(&dir).expect("store opens");
        let good = artifact(1, "vanilla", &[0.4]);
        store.write(&good).expect("writes");
        // A key-named file that is not an artifact must be skipped, not
        // abort the whole report.
        let bogus = artifact(9, "vanilla", &[0.4]).key;
        std::fs::write(store.path_of(bogus), "{\"not\": \"an artifact\"}").expect("write");
        let rows = pivot_rows(&store, None);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].seed, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
