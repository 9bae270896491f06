//! Sweep orchestration: fleets of runs, declared once, executed in
//! parallel, persisted and resumable.
//!
//! The paper's entire evaluation (§5) is a *matrix* of runs — selection
//! policy × aggregation mode × local objective × communication model ×
//! scale × seed. This crate turns that matrix into a first-class
//! object:
//!
//! * [`manifest`] — a serde-serializable [`SweepManifest`] declares one
//!   value list per axis and expands deterministically into keyed
//!   [`RunRequest`](tifl_core::runner::RunRequest)s (a [`RunKey`] is a
//!   stable content hash of the fully resolved request);
//! * [`scheduler`] — a [`SweepScheduler`] multiplexes whole runs over a
//!   `std::thread` worker pool with per-run panic isolation and two
//!   uses of one compute-once map: a profile/tier cache keyed by
//!   (experiment × comm axis), so a 60-run sweep profiles each topology
//!   once instead of 60 times, and the experiment's materialised
//!   dataset, which its cells share until the last has taken it.
//!   Results are bit-for-bit identical to a serial loop for any worker
//!   count;
//! * [`store`] — a [`RunStore`] persists every completed run as a
//!   deterministic JSON artifact named by its key; a re-invoked sweep
//!   **resumes** by validating and skipping keys whose artifacts
//!   already exist;
//! * [`report`] — [`pivot_rows`] pivots a store into the paper's
//!   policy × scenario comparison table (`tifl report`) without
//!   re-running anything;
//! * [`audit`] — [`audit_store`] walks a store and re-verifies every
//!   artifact (claimed key ↔ digest chain ↔ stored request ↔ report
//!   plausibility), the engine behind `tifl audit`;
//! * [`merge`] — [`merge_stores`] unions shard stores with byte-level
//!   comparison of overlapping keys (`tifl merge`), pairing with
//!   [`shard_runs`] for cross-host `--shard i/n` splits.
//!
//! The one entry point is [`SweepBuilder`]: it expands, shards,
//! executes and writes the store's summary sidecar (the only place it
//! is written). [`SweepScheduler::execute`] runs an explicit run list
//! underneath it.
//!
//! ```no_run
//! use tifl_core::experiment::ExperimentConfig;
//! use tifl_core::policy::Policy;
//! use tifl_sweep::SweepBuilder;
//!
//! let cfg = ExperimentConfig::cifar10_resource_het(42);
//! let sweep = SweepBuilder::new(cfg)
//!     .policies(&Policy::cifar_set(5))
//!     .seeds([42, 43, 44])
//!     .workers(4)
//!     .out("sweep-artifacts")
//!     .resume(true)
//!     .run();
//! for report in sweep.reports() {
//!     println!("{}: {:.3}", report.policy, report.final_accuracy());
//! }
//! ```

pub mod audit;
pub mod manifest;
pub mod merge;
pub mod report;
pub mod scheduler;
pub mod store;

pub use audit::{audit_artifact, audit_store, AuditFinding, AuditReport};
pub use manifest::{shard_runs, KeyedRun, RunKey, SweepAxes, SweepManifest};
pub use merge::{merge_stores, MergeConflict, MergeReport};
pub use report::pivot_rows;
pub use scheduler::{
    ProfileCache, ProgressEvent, ProgressLog, RunOutcome, SweepReport, SweepScheduler,
};
pub use store::{
    LaneSpan, RunArtifact, RunStore, StoreError, StoreErrorKind, SweepSummary, WorkerLane,
};

use std::path::PathBuf;
use std::sync::Arc;
use tifl_comm::{CodecSpec, LinkModel};
use tifl_core::exec::ExecBackend;
use tifl_core::experiment::ExperimentConfig;
use tifl_core::policy::Policy;
use tifl_core::runner::{LocalTraining, SelectionStrategy};
use tifl_fl::session::AggregationMode;

/// Fluent construction and execution of a sweep — the multi-run
/// counterpart of `cfg.runner()`.
///
/// Builder methods mutate the pending manifest and return `&mut Self`;
/// [`SweepBuilder::run`] expands and executes it.
pub struct SweepBuilder {
    manifest: SweepManifest,
    workers: usize,
    out: Option<PathBuf>,
    resume: bool,
    shard: Option<(usize, usize)>,
    progress: Option<Arc<ProgressLog>>,
}

impl SweepBuilder {
    /// A sweep over `experiment` with no axes yet (a single cell).
    #[must_use]
    pub fn new(experiment: ExperimentConfig) -> Self {
        Self::from_manifest(SweepManifest::new(experiment))
    }

    /// Start from an existing manifest (e.g. one parsed from JSON).
    #[must_use]
    pub fn from_manifest(manifest: SweepManifest) -> Self {
        Self {
            manifest,
            workers: 0,
            out: None,
            resume: false,
            shard: None,
            progress: None,
        }
    }

    /// Name the sweep (recorded in the store summary).
    pub fn named(&mut self, name: impl Into<String>) -> &mut Self {
        self.manifest.name = Some(name.into());
        self
    }

    /// Override the round count for every cell.
    pub fn rounds(&mut self, rounds: u64) -> &mut Self {
        self.manifest.rounds = Some(rounds);
        self
    }

    /// Sweep the pool size `|K|`.
    pub fn clients(&mut self, clients: impl IntoIterator<Item = usize>) -> &mut Self {
        self.manifest.axes.clients = clients.into_iter().collect();
        self
    }

    /// Sweep the root seed.
    pub fn seeds(&mut self, seeds: impl IntoIterator<Item = u64>) -> &mut Self {
        self.manifest.axes.seeds = seeds.into_iter().collect();
        self
    }

    /// Sweep selection strategies.
    pub fn selections(
        &mut self,
        selections: impl IntoIterator<Item = SelectionStrategy>,
    ) -> &mut Self {
        self.manifest.axes.selection = selections.into_iter().collect();
        self
    }

    /// Sweep a family of static tier policies (the paper figures'
    /// idiom: one curve per Table 1 policy; a vanilla policy degrades
    /// to vanilla selection exactly like `Runner::policy`).
    pub fn policies(&mut self, policies: &[Policy]) -> &mut Self {
        self.selections(
            policies
                .iter()
                .map(|p| SelectionStrategy::TierPolicy { policy: p.clone() }),
        )
    }

    /// Sweep aggregation modes (`None` inherits the experiment's).
    pub fn aggregations(
        &mut self,
        modes: impl IntoIterator<Item = Option<AggregationMode>>,
    ) -> &mut Self {
        self.manifest.axes.aggregation = modes.into_iter().collect();
        self
    }

    /// Sweep local-training variants.
    pub fn locals(&mut self, locals: impl IntoIterator<Item = LocalTraining>) -> &mut Self {
        self.manifest.axes.local = locals.into_iter().collect();
        self
    }

    /// Sweep update codecs.
    pub fn codecs(&mut self, codecs: impl IntoIterator<Item = CodecSpec>) -> &mut Self {
        self.manifest.axes.codec = codecs.into_iter().collect();
        self
    }

    /// Sweep link models.
    pub fn links(&mut self, links: impl IntoIterator<Item = LinkModel>) -> &mut Self {
        self.manifest.axes.link = links.into_iter().collect();
        self
    }

    /// Sweep execution backends (result-invariant).
    pub fn backends(&mut self, backends: impl IntoIterator<Item = ExecBackend>) -> &mut Self {
        self.manifest.axes.backend = backends.into_iter().collect();
        self
    }

    /// Worker threads (0 = one per logical core, the default).
    pub fn workers(&mut self, workers: usize) -> &mut Self {
        self.workers = workers;
        self
    }

    /// Persist artifacts under `dir`.
    pub fn out(&mut self, dir: impl Into<PathBuf>) -> &mut Self {
        self.out = Some(dir.into());
        self
    }

    /// Skip runs whose valid artifacts already exist in the store.
    pub fn resume(&mut self, resume: bool) -> &mut Self {
        self.resume = resume;
        self
    }

    /// Execute only slice `index` of `count` of the expansion (the
    /// `tifl sweep --shard i/n` cross-host split; see
    /// [`shard_runs`]). Disjoint shard stores over one manifest merge
    /// ([`merge_stores`]) into exactly the unsharded sweep's store.
    ///
    /// # Panics
    /// Panics when `count` is 0 or `index >= count`.
    pub fn shard(&mut self, index: usize, count: usize) -> &mut Self {
        assert!(count > 0, "shard count must be positive");
        assert!(
            index < count,
            "shard index {index} out of range for {count} shards"
        );
        self.shard = Some((index, count));
        self
    }

    /// Stream the sweep's progress events to `log` (`tifl sweep
    /// --progress`).
    pub fn progress(&mut self, log: ProgressLog) -> &mut Self {
        self.progress = Some(Arc::new(log));
        self
    }

    /// The manifest built so far.
    #[must_use]
    pub fn manifest(&self) -> &SweepManifest {
        &self.manifest
    }

    /// Expand, keep this shard's slice, and execute. With an artifact
    /// directory, the sweep summary sidecar is rewritten at the end.
    ///
    /// # Panics
    /// Panics if the artifact directory cannot be created (a sweep that
    /// silently drops its persistence would un-resume itself).
    pub fn run(&self) -> SweepReport {
        let mut runs = self.manifest.expand();
        if let Some((index, count)) = self.shard {
            runs = shard_runs(&runs, index, count);
        }
        #[expect(
            clippy::panic,
            reason = "an unopenable artifact store is unrecoverable for a sweep; aborting with the path is the right surface"
        )]
        let store = self.out.as_ref().map(|dir| {
            RunStore::open(dir)
                .unwrap_or_else(|e| panic!("opening run store {}: {e}", dir.display()))
        });
        let mut scheduler = SweepScheduler::new(self.workers);
        if let Some(log) = &self.progress {
            scheduler = scheduler.with_progress(Arc::clone(log));
        }
        let report = scheduler.execute(&runs, store.as_ref(), self.resume);
        if let Some(store) = &store {
            if let Err(e) = store.write_summary(&report.summary(self.manifest.name.clone())) {
                #[expect(
                    clippy::print_stderr,
                    reason = "operator-facing warning: a lost sidecar must be visible even though the sweep result stands"
                )]
                {
                    eprintln!("[sweep] warning: writing sweep summary failed: {e}");
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_composes_the_manifest() {
        let mut builder = SweepBuilder::new(ExperimentConfig::tiny(60));
        builder
            .named("demo")
            .rounds(6)
            .seeds([1, 2])
            .policies(&[Policy::vanilla(), Policy::uniform(5)])
            .backends([
                ExecBackend::Lockstep,
                ExecBackend::EventDriven { threads: 2 },
            ])
            .workers(2);
        let manifest = builder.manifest();
        assert_eq!(manifest.name.as_deref(), Some("demo"));
        assert_eq!(manifest.rounds, Some(6));
        assert_eq!(manifest.axes.cells(), 8);
        assert_eq!(manifest.expand().len(), 8);
    }

    #[test]
    fn builder_runs_a_single_cell() {
        let mut builder = SweepBuilder::new(ExperimentConfig::tiny(62));
        let sweep = builder.rounds(3).workers(1).run();
        assert_eq!(sweep.completed(), 1);
        let reports = sweep.into_reports().expect("the run completes");
        assert_eq!(reports[0].rounds.len(), 3);
        assert_eq!(reports[0].policy, "vanilla");
    }
}
