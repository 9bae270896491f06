//! Store auditing: walk a [`RunStore`] and re-verify every artifact.
//!
//! The store's contract is that every artifact is a pure function of
//! its request — so anything that disagrees with itself (key vs.
//! claimed key, recorded digest chain vs. the chain recomputed from
//! the report, stored request vs. the key it is filed under) is
//! evidence of corruption, staleness, or a determinism bug, and every
//! report should be *physically plausible* (contiguous round indices,
//! a strictly increasing virtual clock, finite accuracies inside
//! `[0, 1]`). `tifl audit` runs these checks over a whole store and
//! emits the machine-readable [`AuditReport`]; with `--deny` any
//! finding makes the process exit nonzero, which is what the CI
//! `audit-smoke` job (and any cross-host pipeline) gates on.

use crate::manifest::RunKey;
use crate::store::{RunArtifact, RunStore};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// One audit anomaly: where it is and what is wrong.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AuditFinding {
    /// The artifact's key (`None` for store-level findings such as
    /// leftover temp files).
    pub key: Option<RunKey>,
    /// The offending path, relative to the store dir where possible.
    pub path: String,
    /// Stable finding kind (`corrupt`, `stale`, `truncated`,
    /// `bad-round-index`, `non-monotonic-clock`, `bad-latency`,
    /// `bad-accuracy`, `bad-loss`, `tmp-leftover`).
    pub kind: String,
    /// Human-readable detail.
    pub message: String,
}

/// The machine-readable result of auditing one store.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AuditReport {
    /// The audited store directory.
    pub dir: String,
    /// Artifacts examined.
    pub artifacts: usize,
    /// Artifacts with no findings.
    pub clean: usize,
    /// Every anomaly, in store-key order.
    pub findings: Vec<AuditFinding>,
}

impl AuditReport {
    /// Whether the store passed every check.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human-readable rendering (the `tifl audit` default output).
    #[must_use]
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "audited {}: {} artifacts, {} clean, {} findings",
            self.dir,
            self.artifacts,
            self.clean,
            self.findings.len()
        );
        for f in &self.findings {
            let key = f.key.map_or_else(|| "-".to_string(), |k| k.to_string());
            let _ = writeln!(out, "  [{}] {} {}: {}", f.kind, key, f.path, f.message);
        }
        out
    }
}

fn rel(path: &Path, dir: &Path) -> String {
    path.strip_prefix(dir).unwrap_or(path).display().to_string()
}

/// Audit one already-loaded artifact's internal consistency: request
/// staleness against the key it is filed under, report-vs-request
/// round count, round-index contiguity, clock monotonicity, latency
/// sanity and accuracy/loss plausibility. (File-level checks — parse,
/// claimed key, digest chain — happen in
/// [`RunStore::load_checked`](crate::store::RunStore::load_checked)
/// before this runs.)
#[must_use]
pub fn audit_artifact(key: RunKey, path: &str, artifact: &RunArtifact) -> Vec<AuditFinding> {
    let mut findings = Vec::new();
    let mut flag = |kind: &str, message: String| {
        findings.push(AuditFinding {
            key: Some(key),
            path: path.to_string(),
            kind: kind.to_string(),
            message,
        });
    };

    let resolved = RunKey::of(&artifact.request);
    if resolved != key {
        flag(
            "stale",
            format!("stored request resolves to {resolved}, artifact is filed under {key}"),
        );
    }
    let horizon = artifact.request.experiment().rounds;
    let rounds = artifact.report.rounds.len() as u64;
    if rounds != horizon {
        flag(
            "truncated",
            format!("report spans {rounds} rounds, request resolves to {horizon}"),
        );
    }

    let mut last_time = 0.0f64;
    for (i, r) in artifact.report.rounds.iter().enumerate() {
        if r.round != i as u64 {
            flag(
                "bad-round-index",
                format!("round at position {i} records index {}", r.round),
            );
        }
        if !r.time.is_finite() || r.time <= last_time {
            flag(
                "non-monotonic-clock",
                format!(
                    "round {}: time {} does not advance past {last_time}",
                    r.round, r.time
                ),
            );
        }
        if r.time.is_finite() {
            last_time = r.time;
        }
        if !r.latency.is_finite() || r.latency < 0.0 {
            flag(
                "bad-latency",
                format!("round {}: latency {}", r.round, r.latency),
            );
        }
        if let Some(acc) = r.accuracy {
            if !acc.is_finite() || !(0.0..=1.0).contains(&acc) {
                flag(
                    "bad-accuracy",
                    format!("round {}: accuracy {acc} outside [0, 1]", r.round),
                );
            }
        }
        if let Some(loss) = r.loss {
            if !loss.is_finite() {
                flag("bad-loss", format!("round {}: loss {loss}", r.round));
            }
        }
    }
    findings
}

/// Walk `store` and re-verify every artifact: bytes ↔ parse ↔ claimed
/// key ↔ digest chain (via
/// [`RunStore::load_checked`](crate::store::RunStore::load_checked)),
/// then [`audit_artifact`]'s semantic checks, plus store-level hygiene
/// (leftover `.json.tmp` files from a killed writer). Serialized-NaN
/// caveat: the canonical serializer renders non-finite floats as
/// `null`, so a NaN accuracy on disk reads back as an unevaluated
/// round — the in-memory [`audit_artifact`] entry point is where NaN
/// itself is catchable.
#[must_use]
pub fn audit_store(store: &RunStore) -> AuditReport {
    let dir = store.dir().to_path_buf();
    let mut findings = Vec::new();
    let keys = store.keys();
    let mut dirty = 0usize;

    for &key in &keys {
        let path = rel(&store.path_of(key), &dir);
        let before = findings.len();
        match store.load_checked(key) {
            Ok(artifact) => findings.extend(audit_artifact(key, &path, &artifact)),
            Err(err) => findings.push(AuditFinding {
                key: Some(key),
                path,
                kind: "corrupt".to_string(),
                message: err.to_string(),
            }),
        }
        if findings.len() > before {
            dirty += 1;
        }
    }

    // Store hygiene: a leftover temp file means a writer died mid-write
    // (the artifact it was replacing, if any, is still the valid one).
    if let Ok(entries) = std::fs::read_dir(&dir) {
        let mut tmp: Vec<String> = entries
            .filter_map(Result::ok)
            .filter_map(|e| {
                let name = e.file_name();
                let name = name.to_str()?;
                name.ends_with(".json.tmp").then(|| name.to_string())
            })
            .collect();
        tmp.sort_unstable();
        for name in tmp {
            let key = name.strip_suffix(".json.tmp").and_then(RunKey::parse);
            findings.push(AuditFinding {
                key,
                path: name,
                kind: "tmp-leftover".to_string(),
                message: "leftover temp file from an interrupted write".to_string(),
            });
        }
    }

    AuditReport {
        dir: dir.display().to_string(),
        artifacts: keys.len(),
        clean: keys.len() - dirty,
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tifl_core::experiment::ExperimentConfig;
    use tifl_core::runner::{RunRequest, RunSpec};
    use tifl_fl::{RoundReport, TrainingReport};

    fn request(seed: u64, rounds: u64) -> RunRequest {
        let mut experiment = ExperimentConfig::tiny(seed);
        experiment.rounds = rounds;
        RunRequest {
            experiment,
            rounds: None,
            seed: None,
            clients_per_round: None,
            spec: RunSpec::default(),
        }
    }

    fn report(rounds: u64) -> TrainingReport {
        TrainingReport {
            policy: "vanilla".into(),
            rounds: (0..rounds)
                .map(|r| RoundReport {
                    round: r,
                    time: (r + 1) as f64,
                    latency: 1.0,
                    selected: vec![0],
                    aggregated: vec![0],
                    accuracy: Some(0.5),
                    loss: Some(1.0),
                    bytes_down: 10,
                    bytes_up: 10,
                })
                .collect(),
        }
    }

    #[test]
    fn clean_artifact_has_no_findings() {
        let request = request(1, 3);
        let key = RunKey::of(&request);
        let artifact = RunArtifact::new(key, request, report(3));
        assert_eq!(audit_artifact(key, "a.json", &artifact), Vec::new());
    }

    #[test]
    fn semantic_anomalies_are_flagged_by_kind() {
        let request = request(2, 3);
        let key = RunKey::of(&request);
        let mut artifact = RunArtifact::new(key, request, report(3));
        artifact.report.rounds[1].round = 7; // discontiguous index
        artifact.report.rounds[1].time = 0.5; // clock goes backwards
        artifact.report.rounds[2].latency = -1.0;
        artifact.report.rounds[2].accuracy = Some(f64::NAN);
        artifact.report.rounds[0].loss = Some(f32::INFINITY);
        let kinds: Vec<String> = audit_artifact(key, "a.json", &artifact)
            .into_iter()
            .map(|f| f.kind)
            .collect();
        for expected in [
            "bad-round-index",
            "non-monotonic-clock",
            "bad-latency",
            "bad-accuracy",
            "bad-loss",
        ] {
            assert!(
                kinds.iter().any(|k| k == expected),
                "missing {expected} in {kinds:?}"
            );
        }
    }

    #[test]
    fn out_of_range_accuracy_and_staleness_are_flagged() {
        let request = request(3, 2);
        let key = RunKey::of(&request);
        let mut artifact = RunArtifact::new(key, request, report(2));
        artifact.report.rounds[0].accuracy = Some(1.5);
        let findings = audit_artifact(key, "a.json", &artifact);
        assert!(findings.iter().any(|f| f.kind == "bad-accuracy"));

        // Filed under a key its request does not resolve to → stale.
        let other_key = RunKey::of(&self::request(4, 2));
        let stale = RunArtifact::new(other_key, self::request(3, 2), report(2));
        let findings = audit_artifact(other_key, "a.json", &stale);
        assert!(findings.iter().any(|f| f.kind == "stale"));

        // Fewer rounds than the request's horizon → truncated.
        let request = self::request(5, 3);
        let key = RunKey::of(&request);
        let short = RunArtifact::new(key, request, report(2));
        let findings = audit_artifact(key, "a.json", &short);
        assert!(findings.iter().any(|f| f.kind == "truncated"));
    }
}
