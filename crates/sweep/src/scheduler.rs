//! The sweep scheduler: whole runs multiplexed over a worker pool,
//! with per-run panic isolation and the set-up its runs have in common
//! done once.
//!
//! Every run is an independent pure function of its request, so the
//! scheduler can hand runs to `std::thread` workers in any order and
//! still produce results bit-for-bit identical to a serial loop — the
//! worker count is an execution knob, never a result knob (pinned in
//! `tests/sweep.rs`). Two pieces of work are genuinely shared, and both
//! go through a [`OnceMap`]: the profiling pass, kept for the whole
//! sweep in a [`ProfileCache`] keyed by (experiment × comm axis) —
//! exactly the key `Runner`'s own per-config cache uses — so a sweep
//! profiles each topology once, not once per run; and the materialised
//! dataset, keyed by the resolved experiment ([`dataset_key`]) and kept
//! only until the last run that needs it has taken it, so the cells of
//! one experiment train on one `Arc<FederatedDataset>`.

use crate::manifest::{KeyedRun, RunKey};
use crate::store::{
    host_parallelism, LaneSpan, RunArtifact, RunStore, RunSummaryLine, SweepSummary, WorkerLane,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::Write;
use std::panic::AssertUnwindSafe;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use tifl_comm::CommSpec;
use tifl_core::experiment::ExperimentConfig;
use tifl_core::runner::{Experiment, RunRequest, Runner, SharedProfile};
use tifl_data::FederatedDataset;
use tifl_fl::session::SessionOverrides;
use tifl_fl::TrainingReport;
use tifl_obs::{Digest128, HostClock, MetricsSnapshot, Phase, PhaseTotals, RealClock};

/// The cross-run profile-cache key: a content hash of the resolved
/// experiment and the spec's comm axis — the same two inputs
/// `Runner::profile` derives its measurement from, so equal keys imply
/// interchangeable profiles.
#[must_use]
pub fn profile_key(experiment: &ExperimentConfig, comm: Option<CommSpec>) -> u128 {
    Digest128::of_value(&(experiment, comm)).0
}

/// The cross-run dataset key: a content hash of the resolved
/// experiment, the one input `Experiment::build_data` reads — equal
/// keys imply bit-identical datasets.
#[must_use]
pub fn dataset_key(request: &RunRequest) -> u128 {
    Digest128::of_value(&request.experiment()).0
}

/// A mutex-guarded compute-once map shared by every worker of a sweep.
/// Each key is computed exactly once: concurrent requesters of the
/// same key block on its slot until the first one finishes.
///
/// An entry lives as long as the map unless the scheduler planned its
/// takers: then it is dropped when the last of them has taken the
/// value or given its claim back, so a value only a few adjacent runs
/// need does not outlive them.
pub struct OnceMap<V> {
    entries: Mutex<BTreeMap<u128, Entry<V>>>,
    computed: AtomicUsize,
    hits: AtomicUsize,
}

struct Entry<V> {
    slot: Arc<Mutex<Option<V>>>,
    /// Planned takers still to come; an entry nobody planned for is
    /// never released.
    claims: usize,
}

impl<V> Default for Entry<V> {
    fn default() -> Self {
        Self {
            slot: Arc::default(),
            claims: 0,
        }
    }
}

impl<V> Default for OnceMap<V> {
    fn default() -> Self {
        Self {
            entries: Mutex::default(),
            computed: AtomicUsize::new(0),
            hits: AtomicUsize::new(0),
        }
    }
}

/// The profile/tier cache of a sweep: one §4.2 measurement per
/// [`profile_key`], kept for the whole sweep.
pub type ProfileCache = OnceMap<SharedProfile>;

impl<V> OnceMap<V> {
    /// An empty map.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// How many values were actually computed — the sharing observable
    /// the tests and the sweep summary assert on.
    #[must_use]
    pub fn computed(&self) -> usize {
        self.computed.load(Ordering::SeqCst)
    }

    /// How many requests were answered from the map — the work the
    /// sharing saved (`hits + computed == requests`).
    #[must_use]
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::SeqCst)
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, BTreeMap<u128, Entry<V>>> {
        self.entries
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Plan one taker for each of `keys` (a key listed n times gets n).
    /// Each must then arrive as one [`OnceMap::claim`].
    fn plan(&self, keys: &[u128]) {
        let mut entries = self.locked();
        for &key in keys {
            entries.entry(key).or_default().claims += 1;
        }
    }

    /// One planned taker's handle on `key`: [`Claim::take`] it, or drop
    /// it to give it back.
    fn claim(&self, key: u128) -> Claim<'_, V> {
        Claim { map: self, key }
    }

    /// One planned taker of `key` is done with the map; the entry goes
    /// with the last. The value is freed outside the map lock.
    fn release(&self, key: u128) {
        let dead = {
            let mut entries = self.locked();
            match entries.get_mut(&key) {
                Some(entry) if entry.claims > 1 => {
                    entry.claims -= 1;
                    None
                }
                _ => entries.remove(&key),
            }
        };
        drop(dead);
    }
}

impl<V: Clone> OnceMap<V> {
    /// The value under `key`, computing it with `compute` on first
    /// use. `compute` runs outside the global map lock (only the
    /// per-key slot is held), so distinct keys compute in parallel
    /// while duplicate requests wait instead of recomputing.
    ///
    /// A `compute` that panics leaves the slot empty, not wedged: the
    /// panic unwinds to this run's isolation boundary with its real
    /// message, and later requesters of the key recover the (poisoned
    /// but still empty) slot and try the computation themselves — so
    /// every affected run reports the actual error instead of a
    /// lock-poisoning artifact.
    pub fn get_or_compute(&self, key: u128, compute: impl FnOnce() -> V) -> V {
        let slot = Arc::clone(&self.locked().entry(key).or_default().slot);
        let mut guard = slot
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(value) = guard.as_ref() {
            self.hits.fetch_add(1, Ordering::SeqCst);
            return value.clone();
        }
        let value = compute();
        *guard = Some(value.clone());
        self.computed.fetch_add(1, Ordering::SeqCst);
        value
    }
}

/// A planned taker's handle on one key of a [`OnceMap`]. However it
/// ends — taken, dropped by a run that did not need the value, or
/// unwound through by a panicking computation — the claim is returned,
/// so the entry dies with its last user.
struct Claim<'a, V> {
    map: &'a OnceMap<V>,
    key: u128,
}

impl<V: Clone> Claim<'_, V> {
    /// The value, computed by the first claimant to ask.
    fn take(self, compute: impl FnOnce() -> V) -> V {
        self.map.get_or_compute(self.key, compute)
    }
}

impl<V> Drop for Claim<'_, V> {
    fn drop(&mut self) {
        self.map.release(self.key);
    }
}

/// What happened to one scheduled run.
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutcome {
    /// Executed this sweep; artifact written (when a store is attached).
    Completed {
        /// The produced artifact.
        artifact: RunArtifact,
        /// Wall-clock seconds spent on the run.
        wall_clock_sec: f64,
        /// Per-phase host-seconds inside the run (profile, plan, train,
        /// encode, fold, eval) plus the artifact's store write.
        phases: PhaseTotals,
    },
    /// A valid artifact already existed — resume skipped the run and
    /// loaded it instead.
    Skipped {
        /// The pre-existing artifact.
        artifact: RunArtifact,
    },
    /// The run (or its artifact write) panicked/failed; the rest of the
    /// sweep was unaffected.
    Failed {
        /// The run's key.
        key: RunKey,
        /// The run's display label.
        label: String,
        /// Panic or I/O message.
        message: String,
    },
}

impl RunOutcome {
    /// The run's key.
    #[must_use]
    pub fn key(&self) -> RunKey {
        match self {
            RunOutcome::Completed { artifact, .. } | RunOutcome::Skipped { artifact } => {
                artifact.key
            }
            RunOutcome::Failed { key, .. } => *key,
        }
    }

    /// The run's label.
    #[must_use]
    pub fn label(&self) -> &str {
        match self {
            RunOutcome::Completed { artifact, .. } | RunOutcome::Skipped { artifact } => {
                &artifact.label
            }
            RunOutcome::Failed { label, .. } => label,
        }
    }

    /// The training report, unless the run failed.
    #[must_use]
    pub fn report(&self) -> Option<&TrainingReport> {
        match self {
            RunOutcome::Completed { artifact, .. } | RunOutcome::Skipped { artifact } => {
                Some(&artifact.report)
            }
            RunOutcome::Failed { .. } => None,
        }
    }

    /// True for [`RunOutcome::Failed`].
    #[must_use]
    pub fn is_failed(&self) -> bool {
        matches!(self, RunOutcome::Failed { .. })
    }

    /// The run's per-phase host-seconds (zero unless completed).
    #[must_use]
    pub fn phases(&self) -> PhaseTotals {
        match self {
            RunOutcome::Completed { phases, .. } => *phases,
            _ => PhaseTotals::default(),
        }
    }

    /// `completed`, `skipped` or `failed`.
    #[must_use]
    pub fn status(&self) -> &'static str {
        match self {
            RunOutcome::Completed { .. } => "completed",
            RunOutcome::Skipped { .. } => "skipped",
            RunOutcome::Failed { .. } => "failed",
        }
    }

    /// Wall-clock seconds spent on the run (zero unless completed).
    #[must_use]
    pub fn wall_clock_sec(&self) -> f64 {
        match self {
            RunOutcome::Completed { wall_clock_sec, .. } => *wall_clock_sec,
            _ => 0.0,
        }
    }

    fn summary_line(&self) -> RunSummaryLine {
        RunSummaryLine {
            key: self.key(),
            status: self.status().into(),
            wall_clock_sec: self.wall_clock_sec(),
            summary: self.report().map(TrainingReport::summary),
            error: match self {
                RunOutcome::Failed { message, .. } => Some(message.clone()),
                _ => None,
            },
        }
    }
}

/// The result of one sweep execution: per-run outcomes in canonical
/// manifest order plus sweep-level observables.
#[derive(Debug)]
pub struct SweepReport {
    /// Per-run outcomes, in manifest order.
    pub outcomes: Vec<RunOutcome>,
    /// Worker threads the sweep ran on.
    pub workers: usize,
    /// Profiling passes actually executed (see [`ProfileCache`]).
    pub profiles_computed: usize,
    /// Profile requests answered from the shared cache.
    pub profile_cache_hits: usize,
    /// Datasets actually materialised: one per distinct experiment
    /// ([`dataset_key`]) among the runs that executed.
    pub datasets_built: usize,
    /// Runs that trained on a dataset another run had built.
    pub dataset_cache_hits: usize,
    /// Per-worker utilization timelines (one lane per worker).
    pub worker_lanes: Vec<WorkerLane>,
    /// Total wall-clock seconds.
    pub wall_clock_sec: f64,
}

impl SweepReport {
    /// Runs executed this sweep.
    #[must_use]
    pub fn completed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, RunOutcome::Completed { .. }))
            .count()
    }

    /// Runs satisfied from pre-existing artifacts.
    #[must_use]
    pub fn skipped(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, RunOutcome::Skipped { .. }))
            .count()
    }

    /// Runs that failed.
    #[must_use]
    pub fn failed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_failed()).count()
    }

    /// `(key, label, message)` of every failed run.
    #[must_use]
    pub fn failures(&self) -> Vec<(RunKey, &str, &str)> {
        self.outcomes
            .iter()
            .filter_map(|o| match o {
                RunOutcome::Failed {
                    key,
                    label,
                    message,
                } => Some((*key, label.as_str(), message.as_str())),
                _ => None,
            })
            .collect()
    }

    /// The reports of the non-failed runs, in manifest order.
    #[must_use]
    pub fn reports(&self) -> Vec<&TrainingReport> {
        self.outcomes
            .iter()
            .filter_map(RunOutcome::report)
            .collect()
    }

    /// All reports, in manifest order, consuming the sweep.
    ///
    /// # Errors
    /// If any run failed: one line naming every failed run's label,
    /// key and message — a partially plotted figure is no figure.
    pub fn into_reports(self) -> Result<Vec<TrainingReport>, String> {
        let failures: Vec<String> = self
            .failures()
            .into_iter()
            .map(|(key, label, message)| format!("{label} ({key}): {message}"))
            .collect();
        if !failures.is_empty() {
            return Err(format!(
                "{} run(s) failed: {}",
                failures.len(),
                failures.join("; ")
            ));
        }
        let reports = self.outcomes.into_iter().filter_map(|o| match o {
            RunOutcome::Completed { artifact, .. } | RunOutcome::Skipped { artifact } => {
                Some(artifact.report)
            }
            RunOutcome::Failed { .. } => None,
        });
        Ok(reports.collect())
    }

    /// Summed per-run wall-clock over completed runs — how busy the
    /// pool was, for the occupancy ratio in the summary sidecar.
    #[must_use]
    pub fn worker_busy_sec(&self) -> f64 {
        self.outcomes.iter().map(RunOutcome::wall_clock_sec).sum()
    }

    /// Per-phase host-seconds merged over every completed run — where
    /// the sweep's busy time actually went.
    #[must_use]
    pub fn host_phase_sec(&self) -> PhaseTotals {
        let mut totals = PhaseTotals::default();
        for outcome in &self.outcomes {
            totals.merge(&outcome.phases());
        }
        totals
    }

    /// The summary sidecar for this execution.
    #[must_use]
    pub fn summary(&self, name: Option<String>) -> SweepSummary {
        SweepSummary {
            name,
            workers: self.workers,
            host_parallelism: host_parallelism(),
            profiles_computed: self.profiles_computed,
            profile_cache_hits: self.profile_cache_hits,
            datasets_built: self.datasets_built,
            dataset_cache_hits: self.dataset_cache_hits,
            resume_skips: self.skipped(),
            worker_busy_sec: self.worker_busy_sec(),
            host_phase_sec: self.host_phase_sec(),
            worker_lanes: self.worker_lanes.clone(),
            wall_clock_sec: self.wall_clock_sec,
            runs: self.outcomes.iter().map(RunOutcome::summary_line).collect(),
        }
    }
}

/// One line of the `--progress` JSONL event stream. Every event
/// carries the same field set (inapplicable ones are `null`), so
/// consumers parse each line with one schema and dispatch on `event`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ProgressEvent {
    /// `sweep_started` / `run_started` / `run_finished` /
    /// `run_panicked` / `sweep_finished`.
    pub event: String,
    /// Host seconds since the sweep started.
    pub at_sec: f64,
    /// Total runs in the sweep.
    pub total: usize,
    /// Worker threads in the pool (sweep-level events only).
    pub workers: Option<usize>,
    /// Worker that handled the run (run-level events only).
    pub worker: Option<usize>,
    /// The run's canonical manifest index (run-level events only).
    pub index: Option<usize>,
    /// The run's key, rendered as its artifact stem.
    pub key: Option<String>,
    /// The run's display label.
    pub label: Option<String>,
    /// `completed` / `skipped` / `failed` (terminal run events only).
    pub status: Option<String>,
    /// Wall-clock seconds spent on the run (terminal run events only).
    pub wall_clock_sec: Option<f64>,
    /// Per-phase host-seconds inside the run (completed runs only).
    pub phases: Option<PhaseTotals>,
    /// Runs finished so far, including this one.
    pub done: Option<usize>,
    /// Estimated host seconds to sweep completion, extrapolated from
    /// the rate of runs finished so far.
    pub eta_sec: Option<f64>,
    /// Failure message (`run_panicked` only).
    pub message: Option<String>,
}

impl ProgressEvent {
    fn sweep(event: &str, at_sec: f64, total: usize, workers: usize) -> Self {
        Self {
            event: event.to_string(),
            at_sec,
            total,
            workers: Some(workers),
            ..Self::default()
        }
    }

    fn run(event: &str, at_sec: f64, total: usize, worker: usize, run: &KeyedRun) -> Self {
        Self {
            event: event.to_string(),
            at_sec,
            total,
            worker: Some(worker),
            index: Some(run.index),
            key: Some(run.key.to_string()),
            label: Some(run.request.spec.display_label()),
            ..Self::default()
        }
    }
}

/// A line-buffered JSONL sink for [`ProgressEvent`]s, shared by every
/// worker of a sweep. Emission is best-effort operator telemetry: a
/// failed write never fails the sweep.
pub struct ProgressLog {
    out: Mutex<Box<dyn Write + Send>>,
}

impl std::fmt::Debug for ProgressLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgressLog").finish_non_exhaustive()
    }
}

impl ProgressLog {
    /// A log writing to an arbitrary sink (tests use a shared buffer).
    #[must_use]
    pub fn to_writer(out: Box<dyn Write + Send>) -> Self {
        Self {
            out: Mutex::new(out),
        }
    }

    /// A log appending to a file at `path` (created if missing).
    ///
    /// # Errors
    /// Propagates the underlying filesystem error.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self::to_writer(Box::new(file)))
    }

    /// Emit one event as one JSON line, flushing so a tailing consumer
    /// sees it immediately. Write errors are swallowed (best-effort).
    pub fn emit(&self, event: &ProgressEvent) {
        let mut line = serde_json::to_string(event).expect("progress events serialize");
        line.push('\n');
        let mut out = self
            .out
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let _ = out.write_all(line.as_bytes());
        let _ = out.flush();
    }
}

/// Multiplexes whole runs over a pool of `std::thread` workers.
///
/// All host-time reads go through the injected [`HostClock`]
/// ([`RealClock`] by default, a frozen clock in tests), so the
/// scheduler itself contains no raw wall-clock calls — timings are an
/// operator-facing observable, never an input to run results.
#[derive(Clone)]
pub struct SweepScheduler {
    workers: usize,
    clock: Arc<dyn HostClock>,
    progress: Option<Arc<ProgressLog>>,
}

impl std::fmt::Debug for SweepScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepScheduler")
            .field("workers", &self.workers)
            .finish_non_exhaustive()
    }
}

impl SweepScheduler {
    /// A scheduler with `workers` threads (0 = one per logical core).
    #[must_use]
    pub fn new(workers: usize) -> Self {
        let workers = if workers == 0 {
            host_parallelism()
        } else {
            workers
        };
        Self {
            workers,
            clock: RealClock::shared(),
            progress: None,
        }
    }

    /// Replace the host clock (tests pin timeline structure with a
    /// deterministic clock).
    #[must_use]
    pub fn with_clock(mut self, clock: Arc<dyn HostClock>) -> Self {
        self.clock = clock;
        self
    }

    /// The worker count in effect.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Stream [`ProgressEvent`]s to `log` (the `tifl sweep --progress`
    /// JSONL event log).
    #[must_use]
    pub fn with_progress(mut self, log: Arc<ProgressLog>) -> Self {
        self.progress = Some(log);
        self
    }

    /// Execute an explicit run list. With a store attached, every
    /// completed run is persisted under its key and (when `resume` is
    /// set) runs whose valid artifacts already exist are skipped.
    /// Outcomes come back in input order regardless of which worker
    /// finished which run when.
    #[allow(
        clippy::too_many_lines,
        reason = "one worker loop; its steps share the scoped borrows above"
    )]
    pub fn execute(
        &self,
        runs: &[KeyedRun],
        store: Option<&RunStore>,
        resume: bool,
    ) -> SweepReport {
        let clock = self.clock.as_ref();
        let progress = self.progress.as_deref();
        let t0 = clock.now_sec();
        let total = runs.len();
        let cache = ProfileCache::new();
        // Canonical order keeps the cells of one experiment adjacent,
        // so about `workers + 1` datasets are alive at any time.
        let datasets: OnceMap<Arc<FederatedDataset>> = OnceMap::new();
        let data_keys: Vec<u128> = runs.iter().map(|run| dataset_key(&run.request)).collect();
        datasets.plan(&data_keys);
        let next = AtomicUsize::new(0);
        let finished = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<RunOutcome>>> = (0..total).map(|_| Mutex::new(None)).collect();
        let workers = self.workers.min(total.max(1));
        // Each worker's runs get an equal share of the host: a run at
        // the ambient thread count would otherwise fan out to every
        // core again, `workers` times over.
        let share = rayon::ThreadPoolBuilder::new()
            .num_threads(threads_per_run(workers))
            .build()
            .expect("thread pool builds");
        let lane_slots: Vec<Mutex<Vec<LaneSpan>>> =
            (0..workers).map(|_| Mutex::new(Vec::new())).collect();

        if let Some(log) = progress {
            log.emit(&ProgressEvent::sweep("sweep_started", 0.0, total, workers));
        }

        // One worker: it takes the next run until none is left, then
        // files its lane. It only borrows, so every thread gets a copy.
        let worker = |w: usize, lane_slot: &Mutex<Vec<LaneSpan>>| {
            let mut lane: Vec<LaneSpan> = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= total {
                    break;
                }
                let run = &runs[i];
                let start_sec = clock.now_sec() - t0;
                if let Some(log) = progress {
                    log.emit(&ProgressEvent::run("run_started", start_sec, total, w, run));
                }
                let data = datasets.claim(data_keys[i]);
                let outcome =
                    share.install(|| execute_one(run, &cache, data, store, resume, clock));
                let end_sec = clock.now_sec() - t0;
                let done = finished.fetch_add(1, Ordering::SeqCst) + 1;
                let tag = match &outcome {
                    RunOutcome::Completed { wall_clock_sec, .. } => {
                        format!("done in {wall_clock_sec:.1}s")
                    }
                    RunOutcome::Skipped { .. } => "skipped (artifact exists)".into(),
                    RunOutcome::Failed { message, .. } => format!("FAILED: {message}"),
                };
                #[expect(
                    clippy::print_stderr,
                    reason = "operator-facing progress line for long sweeps; stderr only, never part of results"
                )]
                {
                    eprintln!(
                        "[sweep] {done}/{total} {} ({}): {tag}",
                        outcome.label(),
                        run.key,
                    );
                }
                if let Some(log) = progress {
                    let name = if outcome.is_failed() {
                        "run_panicked"
                    } else {
                        "run_finished"
                    };
                    let mut event = ProgressEvent::run(name, end_sec, total, w, run);
                    event.status = Some(outcome.status().to_string());
                    event.wall_clock_sec = Some(end_sec - start_sec);
                    event.done = Some(done);
                    if let RunOutcome::Completed { phases, .. } = &outcome {
                        event.phases = Some(*phases);
                    }
                    if let RunOutcome::Failed { message, .. } = &outcome {
                        event.message = Some(message.clone());
                    }
                    // ETA from the completed-run rate so far:
                    // runs-per-second over the elapsed window,
                    // extrapolated to the remainder.
                    if end_sec > 0.0 && done < total {
                        let rate = done as f64 / end_sec;
                        event.eta_sec = Some((total - done) as f64 / rate);
                    }
                    log.emit(&event);
                }
                lane.push(LaneSpan {
                    index: run.index,
                    key: run.key,
                    label: outcome.label().to_string(),
                    start_sec,
                    end_sec,
                    phases: outcome.phases(),
                });
                *slots[i].lock().expect("outcome slot poisoned") = Some(outcome);
            }
            *lane_slot.lock().expect("lane slot poisoned") = lane;
        };
        std::thread::scope(|scope| {
            for (w, lane_slot) in lane_slots.iter().enumerate() {
                scope.spawn(move || worker(w, lane_slot));
            }
        });

        let outcomes: Vec<RunOutcome> = slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("outcome slot poisoned")
                    .expect("every slot filled before scope exit")
            })
            .collect();
        let worker_lanes: Vec<WorkerLane> = lane_slots
            .into_iter()
            .enumerate()
            .map(|(worker, slot)| WorkerLane {
                worker,
                runs: slot.into_inner().expect("lane slot poisoned"),
            })
            .collect();
        debug_assert!(
            datasets.locked().is_empty(),
            "every run returns its dataset claim"
        );
        let wall_clock_sec = clock.now_sec() - t0;
        if let Some(log) = progress {
            let mut event = ProgressEvent::sweep("sweep_finished", wall_clock_sec, total, workers);
            event.done = Some(outcomes.len());
            log.emit(&event);
        }
        SweepReport {
            outcomes,
            workers,
            profiles_computed: cache.computed(),
            profile_cache_hits: cache.hits(),
            datasets_built: datasets.computed(),
            dataset_cache_hits: datasets.hits(),
            worker_lanes,
            wall_clock_sec,
        }
    }
}

/// Threads each run of a `workers`-wide sweep may use.
fn threads_per_run(workers: usize) -> usize {
    (host_parallelism() / workers).max(1)
}

/// Execute (or resume past) one run. `data` is the run's claim on its
/// experiment's dataset: a run that is skipped, or fails before it
/// gets as far as its data, gives the claim back by dropping it.
fn execute_one(
    run: &KeyedRun,
    cache: &ProfileCache,
    data: Claim<'_, Arc<FederatedDataset>>,
    store: Option<&RunStore>,
    resume: bool,
    clock: &dyn HostClock,
) -> RunOutcome {
    if resume {
        if let Some(artifact) = store.and_then(|s| s.validate_checked(run.key, &run.request).ok()) {
            return RunOutcome::Skipped { artifact };
        }
    }
    let label = run.request.spec.display_label();
    let started = clock.now_sec();
    match std::panic::catch_unwind(AssertUnwindSafe(|| run_one(&run.request, cache, data))) {
        Ok((report, metrics, mut phases)) => {
            let mut artifact = RunArtifact::new(run.key, run.request.clone(), report);
            artifact.metrics = Some(metrics);
            if let Some(store) = store {
                let t_write = clock.now_sec();
                let wrote = store.write(&artifact);
                phases.add(Phase::StoreWrite, clock.now_sec() - t_write);
                if let Err(e) = wrote {
                    return RunOutcome::Failed {
                        key: run.key,
                        label,
                        message: format!("writing artifact: {e}"),
                    };
                }
            }
            RunOutcome::Completed {
                artifact,
                wall_clock_sec: clock.now_sec() - started,
                phases,
            }
        }
        Err(payload) => RunOutcome::Failed {
            key: run.key,
            label,
            message: panic_message(payload.as_ref()),
        },
    }
}

/// Execute one request, sourcing the profiling pass and the dataset
/// from the sweep's shared maps. The report is bit-for-bit equivalent
/// to `request.run()`: the maps hand the runner exactly the measurement
/// it would have taken and the data it would have built itself
/// (re-profiling runs measure per segment inside the run and bypass the
/// profile cache, like an unshared runner), and sessions only read
/// their data. Runs observed with no trace ring: the deterministic
/// metrics snapshot, read off the report, rides into the artifact, and
/// the run's per-phase host-seconds come back alongside for the
/// sweep's utilization lanes.
fn run_one(
    request: &RunRequest,
    cache: &ProfileCache,
    data: Claim<'_, Arc<FederatedDataset>>,
) -> (TrainingReport, MetricsSnapshot, PhaseTotals) {
    let experiment = request.experiment();
    let spec = request.spec.clone();
    let wants_shared = spec.selection.needs_profile() && spec.reprofile_every.is_none();
    let mut runner = if wants_shared {
        let comm = spec.profile_axis();
        let profile = cache.get_or_compute(profile_key(&experiment, comm), || {
            let overrides = SessionOverrides {
                comm,
                ..SessionOverrides::default()
            };
            Arc::new(experiment.profile_and_tier_with(&overrides))
        });
        Runner::with_shared_profile(&experiment, spec, profile)
    } else {
        Runner::with_spec(&experiment, spec)
    };
    runner.install_data(data.take(|| Arc::new(experiment.build_data())));
    let observed = runner.run_observed();
    (observed.report, observed.metrics, observed.host_phases)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "run panicked".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::SweepManifest;
    use tifl_core::policy::Policy;
    use tifl_core::runner::{LocalTraining, RunSpec, SelectionStrategy};

    fn tiny_manifest(policies: &[Policy]) -> SweepManifest {
        let mut manifest = SweepManifest::new(ExperimentConfig::tiny(60));
        manifest.axes.selection = policies
            .iter()
            .map(|p| SelectionStrategy::TierPolicy { policy: p.clone() })
            .collect();
        manifest
    }

    #[test]
    fn profile_cache_computes_each_key_once() {
        let cache = ProfileCache::new();
        let exp = ExperimentConfig::tiny(60);
        let mk = || Arc::new(exp.profile_and_tier());
        let a = cache.get_or_compute(1, mk);
        let b = cache.get_or_compute(1, || panic!("key 1 already cached"));
        assert!(Arc::ptr_eq(&a, &b));
        let _ = cache.get_or_compute(2, mk);
        assert_eq!(cache.computed(), 2);
    }

    #[test]
    fn profile_cache_survives_a_panicking_compute() {
        // A compute that panics (a degenerate topology) must not wedge
        // the key's slot: the next requester recovers it and takes the
        // measurement itself, so each run surfaces the real error.
        let cache = ProfileCache::new();
        let attempt = std::panic::catch_unwind(AssertUnwindSafe(|| {
            cache.get_or_compute(1, || panic!("profiling exploded"));
        }));
        assert!(attempt.is_err());
        assert_eq!(cache.computed(), 0);
        let exp = ExperimentConfig::tiny(60);
        let profile = cache.get_or_compute(1, || Arc::new(exp.profile_and_tier()));
        assert_eq!(cache.computed(), 1);
        let again = cache.get_or_compute(1, || panic!("cached after recovery"));
        assert!(Arc::ptr_eq(&profile, &again));
    }

    #[test]
    fn planned_entries_die_with_their_last_claimant() {
        // `execute`'s worker loop in miniature over four
        // experiments × three cells in canonical order: every cell
        // claims its dataset, then is resumed past or fails early
        // (cells 1, 6, 11 drop the claim), or takes the data, trains
        // and lets go. Claims that leaked would keep finished groups'
        // datasets in the map and break the bound.
        let mut manifest = tiny_manifest(&[Policy::uniform(5), Policy::fast(5), Policy::slow(5)]);
        manifest.axes.seeds = vec![1, 2, 3, 4];
        let runs = manifest.expand();
        let keys: Vec<u128> = runs.iter().map(|r| dataset_key(&r.request)).collect();
        for workers in [1, 2, 4] {
            let datasets: OnceMap<Arc<FederatedDataset>> = OnceMap::new();
            datasets.plan(&keys);
            let built: Mutex<Vec<std::sync::Weak<FederatedDataset>>> = Mutex::new(Vec::new());
            let alive = || {
                let built = built.lock().expect("no panic holds this lock");
                built.iter().filter(|w| w.strong_count() > 0).count()
            };
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= runs.len() {
                            break;
                        }
                        let claim = datasets.claim(keys[i]);
                        if i % 5 == 1 {
                            continue;
                        }
                        let data = claim.take(|| {
                            let data = Arc::new(runs[i].request.experiment().build_data());
                            built
                                .lock()
                                .expect("no panic holds this lock")
                                .push(Arc::downgrade(&data));
                            data
                        });
                        assert!(alive() <= workers + 1, "{workers} workers: {}", alive());
                        drop(data);
                    });
                }
            });
            assert_eq!(
                alive(),
                0,
                "{workers} workers: a dataset outlived its users"
            );
            assert!(datasets.locked().is_empty(), "{workers} workers");
            assert_eq!((datasets.computed(), datasets.hits()), (4, 5));
        }
    }

    #[test]
    fn an_unplanned_claim_is_a_group_of_one() {
        let map: OnceMap<Arc<u8>> = OnceMap::new();
        let value = map.claim(7).take(|| Arc::new(1));
        assert_eq!(Arc::strong_count(&value), 1, "the map let go of it");
        assert!(map.locked().is_empty());
    }

    #[test]
    fn profile_keys_separate_experiments_and_comm() {
        let a = ExperimentConfig::tiny(1);
        let b = ExperimentConfig::tiny(2);
        assert_eq!(profile_key(&a, None), profile_key(&a, None));
        assert_ne!(profile_key(&a, None), profile_key(&b, None));
        assert_ne!(
            profile_key(&a, None),
            profile_key(&a, Some(CommSpec::default()))
        );
    }

    #[test]
    fn sweep_shares_one_profile_across_tiered_runs() {
        let manifest = tiny_manifest(&[Policy::uniform(5), Policy::fast(5), Policy::slow(5)]);
        let report = SweepScheduler::new(2).execute(&manifest.expand(), None, false);
        assert_eq!(report.completed(), 3);
        assert_eq!(report.failed(), 0);
        assert_eq!(
            report.profiles_computed, 1,
            "one topology must profile exactly once"
        );
    }

    #[test]
    fn resumed_and_failing_cells_return_their_dataset_claims() {
        // One experiment with no tiers to cut, four cells: the tiered
        // ones die in the shared profiling pass, before they get as far
        // as their data; of the vanilla pair one is resumed past and
        // one builds and trains. The scheduler's closing assertion
        // checks that none of the four kept its claim.
        let mut manifest = tiny_manifest(&[Policy::uniform(5), Policy::vanilla(), Policy::fast(5)]);
        manifest.experiment.tiering.num_tiers = 0;
        manifest.axes.local = vec![LocalTraining::FedAvg, LocalTraining::FedProx { mu: 0.1 }];
        let cells = manifest.expand();
        let runs: Vec<KeyedRun> = [0, 2, 4, 3].map(|i| cells[i].clone()).into();
        let labels: Vec<String> = runs
            .iter()
            .map(|r| r.request.spec.display_label())
            .collect();
        assert_eq!(labels, ["uniform", "vanilla", "fast", "fedprox(0.1)"]);
        let dir = std::env::temp_dir().join(format!("tifl-claims-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = RunStore::open(&dir).expect("store opens");
        for workers in [1, 2, 4] {
            let first = SweepScheduler::new(workers).execute(&runs[1..2], Some(&store), false);
            assert_eq!((first.datasets_built, first.dataset_cache_hits), (1, 0));
            let report = SweepScheduler::new(workers).execute(&runs, Some(&store), true);
            assert_eq!(
                (report.skipped(), report.failed(), report.completed()),
                (1, 2, 1),
                "{workers} workers"
            );
            for (_, _, message) in report.failures() {
                assert!(message.contains("need at least one tier"), "{message}");
            }
            assert_eq!(
                (report.datasets_built, report.dataset_cache_hits),
                (1, 0),
                "{workers} workers: only the last cell reaches its data"
            );
            std::fs::remove_dir_all(&dir).expect("the store is removable");
            std::fs::create_dir_all(&dir).expect("and comes back");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn vanilla_sweeps_never_profile() {
        let manifest = SweepManifest::new(ExperimentConfig::tiny(61));
        let report = SweepScheduler::new(1).execute(&manifest.expand(), None, false);
        assert_eq!(report.completed(), 1);
        assert_eq!(report.profiles_computed, 0);
    }

    #[test]
    fn a_panicking_run_is_isolated() {
        // vanilla + reprofile_every is rejected by the runner with a
        // panic; the surrounding sweep must carry on.
        let mut runs = tiny_manifest(&[Policy::uniform(5)]).expand();
        let mut bad = runs[0].request.clone();
        bad.spec = RunSpec {
            reprofile_every: Some(2),
            ..RunSpec::default()
        };
        runs.push(KeyedRun {
            index: 1,
            key: RunKey::of(&bad),
            request: bad,
        });
        let report = SweepScheduler::new(2).execute(&runs, None, false);
        assert_eq!(report.completed(), 1);
        assert_eq!(report.failed(), 1);
        let failures = report.failures();
        assert!(
            failures[0]
                .2
                .contains("re-profiling requires a tiered policy"),
            "unexpected failure message: {failures:?}"
        );
        assert!(!report.outcomes[0].is_failed());
        assert!(report.outcomes[1].is_failed());
    }

    #[test]
    fn scheduler_defaults_workers_to_host_parallelism() {
        assert_eq!(SweepScheduler::new(0).workers(), host_parallelism());
        assert_eq!(SweepScheduler::new(3).workers(), 3);
    }

    #[test]
    fn workers_split_the_host_between_their_runs() {
        let host = host_parallelism();
        assert_eq!(threads_per_run(1), host);
        assert_eq!(threads_per_run(host), 1);
        assert_eq!(threads_per_run(2 * host), 1, "never below one thread");
        for workers in 1..=host {
            assert!(workers * threads_per_run(workers) <= host);
        }
    }

    #[test]
    fn completed_runs_carry_phase_totals_and_lanes() {
        let manifest = tiny_manifest(&[Policy::uniform(5), Policy::fast(5)]);
        let report = SweepScheduler::new(2).execute(&manifest.expand(), None, false);
        assert_eq!(report.completed(), 2);
        for outcome in &report.outcomes {
            let phases = outcome.phases();
            assert!(
                phases.train_sec >= 0.0 && phases.fold_sec >= 0.0,
                "phase totals must be populated: {phases:?}"
            );
        }
        // Every run appears on exactly one worker lane.
        assert_eq!(report.worker_lanes.len(), report.workers);
        let lane_runs: usize = report.worker_lanes.iter().map(|l| l.runs.len()).sum();
        assert_eq!(lane_runs, 2);
        // The merged phase totals land in the summary sidecar shape.
        let summary = report.summary(None);
        assert_eq!(summary.worker_lanes, report.worker_lanes);
        assert!((summary.host_phase_sec.total() - report.host_phase_sec().total()).abs() < 1e-12);
    }

    #[test]
    fn frozen_clock_pins_sweep_timeline_structure() {
        use tifl_obs::FrozenClock;
        // Serial sweep on a frozen clock: every clock read ticks once,
        // so the lane timeline is fully deterministic — monotone,
        // non-overlapping spans in pick-up order.
        let manifest = tiny_manifest(&[Policy::uniform(5), Policy::fast(5)]);
        let report = SweepScheduler::new(1)
            .with_clock(FrozenClock::shared())
            .execute(&manifest.expand(), None, false);
        assert_eq!(report.completed(), 2);
        assert_eq!(report.worker_lanes.len(), 1);
        let lane = &report.worker_lanes[0];
        assert_eq!(lane.runs.len(), 2);
        let mut last_end = 0.0;
        for span in &lane.runs {
            assert!(span.start_sec >= last_end, "lane spans must not overlap");
            assert!(span.end_sec > span.start_sec);
            last_end = span.end_sec;
        }
        assert!(report.wall_clock_sec >= last_end);
    }

    #[test]
    fn progress_log_streams_parseable_events() {
        #[derive(Clone, Default)]
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().expect("buf").extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let buf = SharedBuf::default();
        let log = ProgressLog::to_writer(Box::new(buf.clone()));
        let manifest = tiny_manifest(&[Policy::uniform(5), Policy::fast(5)]);
        let runs = manifest.expand();
        let report = SweepScheduler::new(2)
            .with_progress(Arc::new(log))
            .execute(&runs, None, false);
        assert_eq!(report.completed(), 2);

        let bytes = buf.0.lock().expect("buf").clone();
        let text = String::from_utf8(bytes).expect("utf8");
        let events: Vec<ProgressEvent> = text
            .lines()
            .map(|line| serde_json::from_str(line).expect("every line parses"))
            .collect();
        // started + per-run (started, finished) + finished.
        assert_eq!(events.len(), 2 + 2 * runs.len());
        assert_eq!(events[0].event, "sweep_started");
        assert_eq!(events[0].workers, Some(2));
        assert_eq!(events.last().expect("nonempty").event, "sweep_finished");
        let finished: Vec<_> = events
            .iter()
            .filter(|e| e.event == "run_finished")
            .collect();
        assert_eq!(finished.len(), runs.len());
        assert!(finished
            .iter()
            .all(|e| e.status.as_deref() == Some("completed") && e.phases.is_some()));
        // `done` counters over terminal events are a permutation of 1..=n.
        let mut dones: Vec<usize> = finished.iter().filter_map(|e| e.done).collect();
        dones.sort_unstable();
        assert_eq!(dones, vec![1, 2]);
    }

    #[test]
    fn a_panicking_run_emits_run_panicked() {
        let mut runs = tiny_manifest(&[Policy::uniform(5)]).expand();
        let mut bad = runs[0].request.clone();
        bad.spec = RunSpec {
            reprofile_every: Some(2),
            ..RunSpec::default()
        };
        runs.push(KeyedRun {
            index: 1,
            key: RunKey::of(&bad),
            request: bad,
        });
        let dir = std::env::temp_dir().join(format!("tifl-progress-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("progress.jsonl");
        let log = ProgressLog::create(&path).expect("log opens");
        let report = SweepScheduler::new(1)
            .with_progress(Arc::new(log))
            .execute(&runs, None, false);
        assert_eq!(report.failed(), 1);
        let text = std::fs::read_to_string(&path).expect("log readable");
        let events: Vec<ProgressEvent> = text
            .lines()
            .map(|line| serde_json::from_str(line).expect("every line parses"))
            .collect();
        let panicked: Vec<_> = events
            .iter()
            .filter(|e| e.event == "run_panicked")
            .collect();
        assert_eq!(panicked.len(), 1);
        assert!(panicked[0]
            .message
            .as_deref()
            .expect("message present")
            .contains("re-profiling requires a tiered policy"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
