//! The shared artifact store: one JSON file per completed run, named
//! by its [`RunKey`], plus a sweep-level summary.
//!
//! Artifact bytes are **deterministic**: everything in a
//! [`RunArtifact`] is a pure function of the request (the report and
//! its digest) or stable per host (`host_parallelism`), and the store always
//! renders through the one shared serializer ([`write_json`]). That is
//! what makes the resume contract testable — an interrupted sweep that
//! resumes produces byte-identical artifacts to one that never stopped.
//! Per-run wall-clock timings (which genuinely vary) live in the
//! [`SweepSummary`] sidecar, not in the artifacts.

use crate::manifest::RunKey;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::{Path, PathBuf};
use tifl_core::runner::RunRequest;
use tifl_fl::{ReportSummary, TrainingReport};
use tifl_obs::{Digest128, PhaseTotals};

/// The one JSON serializer every artifact path shares (the sweep store
/// and the `tifl run --spec --out` single-run path): pretty-printed
/// with a trailing newline.
///
/// # Errors
/// Propagates the underlying filesystem error.
pub fn write_json<T: Serialize>(path: &Path, value: &T) -> io::Result<()> {
    let mut text = serde_json::to_string_pretty(value).expect("artifact values serialize");
    text.push('\n');
    std::fs::write(path, text)
}

/// The logical cores of this host (1 where undetectable) — recorded in
/// every artifact so perf numbers derived from a store are
/// interpretable later.
#[must_use]
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Everything one completed run leaves behind: identity, provenance
/// (the full request), and the result. Nothing derived from the report
/// is stored beside it but its digest: every run metric, and the run's
/// label (`report.policy`), is read off the report.
///
/// Artifacts written with a `label` or `metrics` member still load:
/// the deserializer skips members it does not know.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunArtifact {
    /// Stable content key of the request (also the file name).
    pub key: RunKey,
    /// Logical cores of the host that produced the artifact.
    pub host_parallelism: usize,
    /// The request that produced the report (resume validates against
    /// it, so a manifest edit that changes a cell re-runs that cell).
    pub request: RunRequest,
    /// The full training report.
    pub report: TrainingReport,
    /// The report's per-round digest-chain head — the artifact's
    /// self-check. Optional so artifacts written before the digest
    /// chain existed still load and validate (the chain is recomputed
    /// from the report on demand either way).
    #[serde(default)]
    pub digest: Option<Digest128>,
}

impl RunArtifact {
    /// Package a completed run.
    #[must_use]
    pub fn new(key: RunKey, request: RunRequest, report: TrainingReport) -> Self {
        let digest = Some(report.digest_chain());
        Self {
            key,
            host_parallelism: host_parallelism(),
            request,
            report,
            digest,
        }
    }
}

/// What went wrong loading or validating one artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreErrorKind {
    /// The artifact file does not exist.
    Missing,
    /// The file exists but could not be read.
    Unreadable,
    /// The file read but is not a parseable [`RunArtifact`] (the parse
    /// error is attached).
    Unparseable(String),
    /// The artifact's recorded `key` field disagrees with the key it is
    /// filed under.
    KeyMismatch {
        /// The key the artifact claims.
        claimed: RunKey,
    },
    /// The artifact's recorded digest-chain head disagrees with the
    /// chain recomputed from its report — the report bytes changed
    /// after the artifact was written.
    DigestMismatch {
        /// The head the artifact recorded at write time.
        recorded: Digest128,
        /// The head recomputed from the stored report.
        recomputed: Digest128,
    },
    /// The stored request resolves to a different [`RunKey`] than the
    /// request being validated against — a stale artifact from an
    /// edited manifest.
    RequestMismatch {
        /// The key the stored request resolves to.
        stored: RunKey,
        /// The key the scheduled request resolves to.
        expected: RunKey,
    },
    /// The report spans fewer/more rounds than the resolved request
    /// asks for — a truncated (or over-long) run.
    RoundCount {
        /// Rounds in the stored report.
        stored: u64,
        /// Rounds the resolved request expects.
        expected: u64,
    },
}

/// A load/validate failure with its full context: which file, which
/// key, and what exactly disagreed.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreError {
    /// The offending artifact path.
    pub path: PathBuf,
    /// The key the artifact is (or should be) filed under.
    pub key: RunKey,
    /// What went wrong.
    pub kind: StoreErrorKind,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let path = self.path.display();
        let key = self.key;
        match &self.kind {
            StoreErrorKind::Missing => write!(f, "artifact {key} missing: {path}"),
            StoreErrorKind::Unreadable => write!(f, "artifact {key} unreadable: {path}"),
            StoreErrorKind::Unparseable(err) => {
                write!(f, "artifact {key} unparseable ({err}): {path}")
            }
            StoreErrorKind::KeyMismatch { claimed } => write!(
                f,
                "artifact {key} claims key {claimed} (filed under {key}): {path}"
            ),
            StoreErrorKind::DigestMismatch {
                recorded,
                recomputed,
            } => write!(
                f,
                "artifact {key} digest chain {recorded} != recomputed {recomputed} \
                 (report bytes changed after write): {path}"
            ),
            StoreErrorKind::RequestMismatch { stored, expected } => write!(
                f,
                "artifact {key} is stale: stored request resolves to {stored}, \
                 scheduled request to {expected}: {path}"
            ),
            StoreErrorKind::RoundCount { stored, expected } => write!(
                f,
                "artifact {key} spans {stored} rounds, request resolves to {expected}: {path}"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

/// One line of the sweep summary sidecar.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSummaryLine {
    /// The run's key.
    pub key: RunKey,
    /// `completed` / `skipped` / `failed`.
    pub status: String,
    /// Wall-clock seconds this sweep spent on the run (0 when skipped).
    pub wall_clock_sec: f64,
    /// Digest of the result (`None` for failed runs).
    pub summary: Option<ReportSummary>,
    /// Failure message (`None` unless failed).
    pub error: Option<String>,
}

/// One run on a worker's utilization timeline: when (in host seconds
/// since the sweep started) the worker picked the run up, when it put
/// it down, and where inside the run the time went.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LaneSpan {
    /// The run's canonical manifest index.
    pub index: usize,
    /// The run's key.
    pub key: RunKey,
    /// The run's display label.
    pub label: String,
    /// Host seconds (since sweep start) when the worker started it.
    pub start_sec: f64,
    /// Host seconds (since sweep start) when the worker finished it.
    pub end_sec: f64,
    /// Per-phase host-seconds inside the run (zero for skipped/failed).
    pub phases: PhaseTotals,
}

impl LaneSpan {
    /// The span's duration in host seconds.
    #[must_use]
    pub fn dur(&self) -> f64 {
        self.end_sec - self.start_sec
    }
}

/// One worker's utilization timeline: every run it executed, in the
/// order it picked them up. Replaces the single `worker_busy_sec`
/// scalar as the sweep's occupancy observable (the scalar survives as
/// a derived sum for older consumers).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WorkerLane {
    /// Worker index (0-based).
    pub worker: usize,
    /// The runs this worker handled, in pick-up order.
    pub runs: Vec<LaneSpan>,
}

impl WorkerLane {
    /// Host seconds this worker spent inside runs.
    #[must_use]
    pub fn busy_sec(&self) -> f64 {
        self.runs.iter().map(LaneSpan::dur).sum()
    }
}

/// The sweep-level sidecar (`sweep_summary.json`): run statuses and
/// timings. Unlike the artifacts this is *not* byte-stable across
/// re-executions — wall-clock lives here on purpose.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSummary {
    /// Manifest name, if any.
    pub name: Option<String>,
    /// Worker threads the sweep ran on.
    pub workers: usize,
    /// Logical cores of the host.
    pub host_parallelism: usize,
    /// Profiling passes actually executed (the shared-cache observable:
    /// one per distinct experiment × comm topology, not one per run).
    pub profiles_computed: usize,
    /// Profile-cache hits: runs that reused a pass another run paid
    /// for. Defaults for sidecars written before this field existed.
    #[serde(default)]
    pub profile_cache_hits: usize,
    /// Datasets actually materialised: one per distinct experiment
    /// among the runs that executed, not one per run. Defaults, like
    /// the hits below, for sidecars written before dataset sharing.
    #[serde(default)]
    pub datasets_built: usize,
    /// Runs that trained on a dataset another run had built.
    #[serde(default)]
    pub dataset_cache_hits: usize,
    /// Runs skipped by resume (a valid artifact already existed).
    #[serde(default)]
    pub resume_skips: usize,
    /// Summed per-run wall-clock over completed runs — the occupancy
    /// numerator (`worker_busy_sec / (workers * wall_clock_sec)`).
    #[serde(default)]
    pub worker_busy_sec: f64,
    /// Per-phase host-seconds summed over completed runs (plus store
    /// writes) — where the sweep's wall time actually went. Defaults
    /// for sidecars written before host profiling existed.
    #[serde(default)]
    pub host_phase_sec: PhaseTotals,
    /// Per-worker utilization timelines. Defaults (empty) for sidecars
    /// written before host profiling existed.
    #[serde(default)]
    pub worker_lanes: Vec<WorkerLane>,
    /// Total sweep wall-clock in seconds.
    pub wall_clock_sec: f64,
    /// Per-run lines, in canonical manifest order.
    pub runs: Vec<RunSummaryLine>,
}

/// A directory of keyed run artifacts.
#[derive(Debug, Clone)]
pub struct RunStore {
    dir: PathBuf,
}

impl RunStore {
    /// Open (creating if needed) a store at `dir`.
    ///
    /// # Errors
    /// Propagates directory-creation failures.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    /// The store's directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The artifact path of `key` (`<dir>/<key>.json`).
    #[must_use]
    pub fn path_of(&self, key: RunKey) -> PathBuf {
        self.dir.join(format!("{key}.json"))
    }

    /// The summary sidecar path (`<dir>/sweep_summary.json`).
    #[must_use]
    pub fn summary_path(&self) -> PathBuf {
        self.dir.join("sweep_summary.json")
    }

    /// Persist an artifact under its key. Writes to a temporary file
    /// and renames, so a killed sweep never leaves a half-written
    /// artifact that could pass validation.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn write(&self, artifact: &RunArtifact) -> io::Result<PathBuf> {
        let path = self.path_of(artifact.key);
        let tmp = path.with_extension("json.tmp");
        write_json(&tmp, artifact)?;
        std::fs::rename(&tmp, &path)?;
        Ok(path)
    }

    /// Load the artifact of `key` with integrity checks and full error
    /// context (path + key + what disagreed): the file must exist,
    /// read, parse, claim the key it is filed under, and — when it
    /// recorded a digest-chain head — that head must match the chain
    /// recomputed from the stored report. Artifacts written before the
    /// digest field existed (no `digest`) pass the digest check
    /// vacuously.
    ///
    /// # Errors
    /// A [`StoreError`] naming the artifact path, the key, and the
    /// failed check.
    pub fn load_checked(&self, key: RunKey) -> Result<RunArtifact, StoreError> {
        let path = self.path_of(key);
        let err = |kind| StoreError {
            path: path.clone(),
            key,
            kind,
        };
        if !path.exists() {
            return Err(err(StoreErrorKind::Missing));
        }
        let text = std::fs::read_to_string(&path).map_err(|_| err(StoreErrorKind::Unreadable))?;
        let artifact: RunArtifact = serde_json::from_str(&text)
            .map_err(|e| err(StoreErrorKind::Unparseable(e.to_string())))?;
        if artifact.key != key {
            return Err(err(StoreErrorKind::KeyMismatch {
                claimed: artifact.key,
            }));
        }
        if let Some(recorded) = artifact.digest {
            let recomputed = artifact.report.digest_chain();
            if recorded != recomputed {
                return Err(err(StoreErrorKind::DigestMismatch {
                    recorded,
                    recomputed,
                }));
            }
        }
        Ok(artifact)
    }

    /// Load the artifact of `key` only if it validates against
    /// `request` — the resume predicate: every
    /// [`RunStore::load_checked`] check, plus the stored request
    /// *resolving to the same key* as the one being scheduled (the
    /// [`RunKey`] equivalence — a seed passed as an override and the
    /// same seed baked into the experiment are the same run, so
    /// artifacts stay shareable across manifest layouts), and the
    /// report spanning the resolved round count. Anything else
    /// (missing, corrupt, stale manifest edit, truncated run) is an
    /// error, and a resumed run re-executes.
    ///
    /// # Errors
    /// A [`StoreError`] naming the artifact path, the key, and the
    /// failed check.
    pub fn validate_checked(
        &self,
        key: RunKey,
        request: &RunRequest,
    ) -> Result<RunArtifact, StoreError> {
        let artifact = self.load_checked(key)?;
        let err = |kind| StoreError {
            path: self.path_of(key),
            key,
            kind,
        };
        let stored = RunKey::of(&artifact.request);
        let expected = RunKey::of(request);
        if stored != expected {
            return Err(err(StoreErrorKind::RequestMismatch { stored, expected }));
        }
        let rounds = artifact.report.rounds.len() as u64;
        let horizon = request.experiment().rounds;
        if rounds != horizon {
            return Err(err(StoreErrorKind::RoundCount {
                stored: rounds,
                expected: horizon,
            }));
        }
        Ok(artifact)
    }

    /// Keys of every artifact in the store (sorted; summary and foreign
    /// files ignored).
    #[must_use]
    pub fn keys(&self) -> Vec<RunKey> {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut keys: Vec<RunKey> = entries
            .filter_map(Result::ok)
            .filter_map(|e| {
                let name = e.file_name();
                let name = name.to_str()?;
                RunKey::parse(name.strip_suffix(".json")?)
            })
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Persist `key`'s artifact as raw bytes, verbatim (tmp + rename,
    /// like [`RunStore::write`]). The merge path uses this so a merged
    /// store is byte-identical to its sources — no re-serialization
    /// that could mask (or introduce) a formatting drift.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn write_bytes(&self, key: RunKey, bytes: &[u8]) -> io::Result<PathBuf> {
        let path = self.path_of(key);
        let tmp = path.with_extension("json.tmp");
        std::fs::write(&tmp, bytes)?;
        std::fs::rename(&tmp, &path)?;
        Ok(path)
    }

    /// Write the sweep summary sidecar.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn write_summary(&self, summary: &SweepSummary) -> io::Result<PathBuf> {
        let path = self.summary_path();
        write_json(&path, summary)?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tifl_core::experiment::ExperimentConfig;
    use tifl_core::runner::RunSpec;
    use tifl_fl::RoundReport;

    fn tmp_store(tag: &str) -> RunStore {
        let dir = std::env::temp_dir().join(format!("tifl-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        RunStore::open(dir).expect("store opens")
    }

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
                    selected: vec![0, 1],
                    aggregated: vec![0, 1],
                    accuracy: Some(0.5),
                    loss: Some(1.0),
                    bytes_down: 10,
                    bytes_up: 10,
                })
                .collect(),
        }
    }

    #[test]
    fn artifacts_round_trip_and_validate() {
        let store = tmp_store("roundtrip");
        let request = request(1, 3);
        let key = RunKey::of(&request);
        let artifact = RunArtifact::new(key, request.clone(), report(3));
        let path = store.write(&artifact).expect("writes");
        assert_eq!(path, store.path_of(key));
        assert_eq!(store.load_checked(key).ok(), Some(artifact.clone()));
        assert!(store.validate_checked(key, &request).is_ok());
        assert_eq!(store.keys(), vec![key]);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn validation_rejects_corrupt_and_mismatched_artifacts() {
        let store = tmp_store("reject");
        let request = request(2, 3);
        let key = RunKey::of(&request);

        // Missing.
        assert!(store.validate_checked(key, &request).is_err());
        // Corrupt (truncated JSON).
        std::fs::write(store.path_of(key), "{\"key\": \"tru").expect("write");
        assert!(store.validate_checked(key, &request).is_err());
        // Valid bytes but a different request (e.g. edited manifest).
        let other = self::request(3, 3);
        let artifact = RunArtifact::new(key, other, report(3));
        store.write(&artifact).expect("writes");
        assert!(store.validate_checked(key, &request).is_err());
        // Truncated run (too few rounds for the resolved horizon).
        let short = RunArtifact::new(key, request.clone(), report(2));
        store.write(&short).expect("writes");
        assert!(store.validate_checked(key, &request).is_err());
        // The real thing.
        let good = RunArtifact::new(key, request.clone(), report(3));
        store.write(&good).expect("writes");
        assert!(store.validate_checked(key, &request).is_ok());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn validation_accepts_equivalent_request_layouts() {
        // A seed passed as a RunRequest override and the same seed
        // baked into the experiment resolve to the same RunKey — so an
        // artifact written by one manifest layout must satisfy a resume
        // scheduled by the other (artifacts are shareable across
        // manifest edits that keep the resolved cell).
        let store = tmp_store("layout");
        let mut exp = ExperimentConfig::tiny(1);
        exp.rounds = 3;
        let via_override = RunRequest {
            experiment: exp.clone(),
            rounds: None,
            seed: Some(9),
            clients_per_round: None,
            spec: RunSpec::default(),
        };
        let mut baked_exp = exp;
        baked_exp.seed = 9;
        let baked = RunRequest {
            experiment: baked_exp,
            rounds: None,
            seed: None,
            clients_per_round: None,
            spec: RunSpec::default(),
        };
        let key = RunKey::of(&via_override);
        assert_eq!(key, RunKey::of(&baked));
        store
            .write(&RunArtifact::new(key, via_override, report(3)))
            .expect("writes");
        assert!(store.validate_checked(key, &baked).is_ok());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn a_summary_written_before_dataset_sharing_still_loads() {
        let old = r#"{"name": null, "workers": 1, "host_parallelism": 2,
                      "profiles_computed": 1, "wall_clock_sec": 0.5, "runs": []}"#;
        let summary: SweepSummary = serde_json::from_str(old).expect("old sidecars parse");
        assert_eq!((summary.datasets_built, summary.dataset_cache_hits), (0, 0));
    }

    #[test]
    fn summary_and_foreign_files_are_not_keys() {
        let store = tmp_store("keys");
        std::fs::write(store.summary_path(), "{}").expect("write");
        std::fs::write(store.dir().join("notes.txt"), "hi").expect("write");
        assert_eq!(store.keys(), Vec::new());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn checked_errors_carry_path_key_and_cause() {
        let store = tmp_store("checked");
        let request = request(5, 2);
        let key = RunKey::of(&request);

        // Missing: names the path and key.
        let err = store.load_checked(key).expect_err("missing");
        assert_eq!(err.key, key);
        assert_eq!(err.path, store.path_of(key));
        assert_eq!(err.kind, StoreErrorKind::Missing);
        assert!(err.to_string().contains(&key.to_string()));
        assert!(err.to_string().contains("missing"));

        // Unparseable: the parse error is attached.
        std::fs::write(store.path_of(key), "{\"key\": \"tru").expect("write");
        let err = store.load_checked(key).expect_err("unparseable");
        assert!(matches!(err.kind, StoreErrorKind::Unparseable(_)));

        // Digest mismatch: a one-field edit to the report breaks the
        // recorded chain head.
        let mut artifact = RunArtifact::new(key, request.clone(), report(2));
        artifact.report.rounds[1].bytes_up += 1;
        store.write(&artifact).expect("writes");
        let err = store.load_checked(key).expect_err("digest mismatch");
        assert!(matches!(err.kind, StoreErrorKind::DigestMismatch { .. }));
        assert!(err.to_string().contains("digest chain"));

        // Stale request: validate_checked names both keys.
        let other = self::request(6, 2);
        store
            .write(&RunArtifact::new(key, other, report(2)))
            .expect("writes");
        let err = store.validate_checked(key, &request).expect_err("stale");
        assert!(matches!(err.kind, StoreErrorKind::RequestMismatch { .. }));

        // Truncated run: round counts on both sides.
        store
            .write(&RunArtifact::new(key, request.clone(), report(1)))
            .expect("writes");
        let err = store.validate_checked(key, &request).expect_err("short");
        assert_eq!(
            err.kind,
            StoreErrorKind::RoundCount {
                stored: 1,
                expected: 2
            }
        );

        // And the genuine artifact passes every check.
        store
            .write(&RunArtifact::new(key, request.clone(), report(2)))
            .expect("writes");
        let loaded = store.validate_checked(key, &request).expect("valid");
        assert_eq!(loaded.digest, Some(loaded.report.digest_chain()));
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn predigest_artifacts_still_load_and_validate() {
        // Strip the `digest` field the way a pre-chain artifact would
        // look on disk: it must still load, validate, and recompute its
        // chain on demand.
        let store = tmp_store("predigest");
        let request = request(7, 2);
        let key = RunKey::of(&request);
        let artifact = RunArtifact::new(key, request.clone(), report(2));
        store.write(&artifact).expect("writes");
        let text = std::fs::read_to_string(store.path_of(key)).expect("read");
        let mut value: serde::Value = serde_json::from_str(&text).expect("parses");
        if let serde::Value::Object(fields) = &mut value {
            fields.retain(|(name, _)| name != "digest");
        }
        store
            .write_bytes(
                key,
                serde_json::to_string_pretty(&value)
                    .expect("renders")
                    .as_bytes(),
            )
            .expect("rewrites");
        let loaded = store.validate_checked(key, &request).expect("still valid");
        assert_eq!(loaded.digest, None);
        assert_eq!(loaded.report.digest_chain(), artifact.report.digest_chain());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn artifact_bytes_are_deterministic() {
        let store = tmp_store("bytes");
        let request = request(4, 2);
        let key = RunKey::of(&request);
        let artifact = RunArtifact::new(key, request, report(2));
        store.write(&artifact).expect("writes");
        let first = std::fs::read(store.path_of(key)).expect("read");
        store.write(&artifact).expect("writes again");
        let second = std::fs::read(store.path_of(key)).expect("read");
        assert_eq!(first, second);
        let _ = std::fs::remove_dir_all(store.dir());
    }
}
