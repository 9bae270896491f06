//! The `sweep_store` workload: many small runs through the sweep
//! scheduler into a fresh store, then resume, audit and pivot over
//! that store.

use crate::metrics::Values;
use crate::spans::Tracer;
use crate::{Tally, Unit};
use std::path::{Path, PathBuf};
use tifl_core::experiment::{DataScenario, ExperimentConfig};
use tifl_core::{ExecBackend, Policy};
use tifl_nn::models::ModelSpec;
use tifl_obs::DigestChain;
use tifl_sweep::{audit_store, pivot_rows, RunStore, SweepBuilder, SweepManifest, SweepReport};
use tifl_tensor::split_seed;

pub struct SweepWorkload {
    pub manifest: SweepManifest,
    /// Runs in the expanded manifest.
    pub total: usize,
    threads: usize,
    scratch: PathBuf,
    stores_made: usize,
}

/// `sweep_throughput`'s shrunken resource-heterogeneity topology: a
/// run is milliseconds, so scheduling, keying, serialising and store
/// traffic are a visible share of the wall.
pub fn manifest(seed: u64, quick: bool) -> SweepManifest {
    let (seeds, rounds) = if quick { (2, 4) } else { (25, 12) };
    let mut cfg = ExperimentConfig::cifar10_resource_het(seed);
    cfg.name = "sweep-store".into();
    cfg.num_clients = 10;
    cfg.clients_per_round = 2;
    cfg.data = DataScenario::Iid { per_client: 50 };
    cfg.model = ModelSpec::Mlp {
        input: 64,
        hidden: 32,
        classes: 10,
    };
    cfg.eval_every = 2;
    let mut builder = SweepBuilder::new(cfg);
    builder
        .named("sweep_store")
        .rounds(rounds)
        .seeds((0..seeds).map(|i| split_seed(seed, i)))
        .policies(&[Policy::vanilla(), Policy::uniform(5), Policy::fast(5)])
        .backends([
            ExecBackend::Lockstep,
            ExecBackend::EventDriven { threads: 1 },
        ]);
    builder.manifest().clone()
}

/// What one unit did.
pub struct SweepOutcome {
    pub unit: Unit,
    pub report: SweepReport,
}

impl SweepWorkload {
    /// Expand the manifest, create the scratch area and warm up with a
    /// twentieth of the runs into a store of their own.
    pub fn setup(seed: u64, quick: bool, threads: usize, scratch: &Path) -> Self {
        let manifest = manifest(seed, quick);
        let runs = manifest.expand();
        let mut workload = Self {
            manifest,
            total: runs.len(),
            threads,
            scratch: scratch.to_path_buf(),
            stores_made: 0,
        };
        let dir = workload.fresh_store_dir();
        let store = RunStore::open(&dir).expect("scratch store can be created");
        let warm = &runs[..runs.len().div_ceil(20)];
        let report = tifl_sweep::SweepScheduler::new(threads).execute(warm, Some(&store), false);
        assert_eq!(
            report.failed(),
            0,
            "warm-up sweep failed: {:?}",
            report.failures()
        );
        std::fs::remove_dir_all(&dir).expect("scratch store can be removed");
        workload
    }

    fn fresh_store_dir(&mut self) -> PathBuf {
        self.stores_made += 1;
        self.scratch
            .join(format!("store-{}-{}", std::process::id(), self.stores_made))
    }

    fn builder(&self, dir: &Path) -> SweepBuilder {
        let mut builder = SweepBuilder::from_manifest(self.manifest.clone());
        builder.workers(self.threads).out(dir);
        builder
    }

    /// Sweep into a fresh store, resume over it, audit it, pivot it,
    /// remove it — one span each (four clock reads a unit, so the
    /// untraced unit carries them too). With `layer` the store's
    /// per-artifact costs are probed into it before removal.
    pub fn unit(
        &mut self,
        tracer: &mut Tracer,
        layer: Option<&mut Values>,
        tally: &mut Tally,
    ) -> SweepOutcome {
        let dir = self.fresh_store_dir();
        let report = tracer.span("sweep.run", || self.builder(&dir).run());
        let resumed = tracer.span("sweep.resume", || self.builder(&dir).resume(true).run());
        let store = RunStore::open(&dir).expect("the sweep created its store");
        let audit = tracer.span("sweep.audit", || audit_store(&store));
        let rows = tracer.span("sweep.pivot", || pivot_rows(&store, None));
        if let Some(layer) = layer {
            probe_store(&store, &report, tracer, layer);
        }
        std::fs::remove_dir_all(&dir).expect("scratch store can be removed");

        tally.check(
            report.failed() == 0 && report.completed() == self.total,
            || {
                format!(
                    "sweep completed {} of {} runs: {:?}",
                    report.completed(),
                    self.total,
                    report.failures()
                )
            },
        );
        tally.check(
            resumed.skipped() == self.total && resumed.completed() == 0,
            || {
                format!(
                    "resume skipped {} and re-ran {} of {} runs",
                    resumed.skipped(),
                    resumed.completed(),
                    self.total
                )
            },
        );
        tally.check(audit.is_clean(), || audit.render_text());
        tally.check(rows.len() == self.total, || {
            format!("pivot has {} rows for {} runs", rows.len(), self.total)
        });
        tally.check(!dir.exists(), || {
            format!("temporary store {} was not removed", dir.display())
        });

        let reports = report.reports();
        let unit = Unit {
            uplink_bytes: reports.iter().map(|r| r.total_bytes_up()).sum(),
            runs: self.total as u64,
            failed_runs: report.failed() as u64,
            digests: vec![DigestChain::of(reports.iter().map(|r| r.digest_chain())).to_string()],
        };
        SweepOutcome { unit, report }
    }
}

/// Per-artifact store costs over (at most) the first 64 artifacts:
/// size on disk, checked load, and write into a sibling store.
fn probe_store(store: &RunStore, report: &SweepReport, clock: &Tracer, layer: &mut Values) {
    let keys: Vec<_> = store.keys().into_iter().take(64).collect();
    let n = keys.len().max(1) as f64;
    let bytes: u64 = keys
        .iter()
        .filter_map(|&k| std::fs::metadata(store.path_of(k)).ok())
        .map(|m| m.len())
        .sum();
    layer.set("sweep.artifact_bytes", bytes as f64 / n);

    let t0 = clock.now();
    let artifacts: Vec<_> = keys
        .iter()
        .filter_map(|&k| store.load_checked(k).ok())
        .collect();
    layer.set(
        "sweep.load_checked_us_per_artifact",
        (clock.now() - t0) * 1e6 / n,
    );

    let sibling = store.dir().with_extension("write-probe");
    let target = RunStore::open(&sibling).expect("scratch store can be created");
    let t0 = clock.now();
    for artifact in &artifacts {
        target.write(artifact).expect("scratch store is writable");
    }
    layer.set(
        "sweep.store_write_us_per_artifact",
        (clock.now() - t0) * 1e6 / n,
    );
    std::fs::remove_dir_all(&sibling).expect("scratch store can be removed");

    // Scheduler-level numbers the program already reports.
    let busy: f64 = report.worker_lanes.iter().map(|l| l.busy_sec()).sum();
    let workers = report.workers.max(1) as f64;
    layer.set(
        "sweep.worker_utilisation",
        busy / (report.wall_clock_sec * workers),
    );
    layer.set(
        "sweep.sched_overhead_s",
        report.wall_clock_sec - busy / workers,
    );
    let lookups = (report.profile_cache_hits + report.profiles_computed).max(1);
    layer.set(
        "sweep.profile_cache_hit_ratio",
        report.profile_cache_hits as f64 / lookups as f64,
    );
}
