//! The composable run API: [`RunSpec`] describes *what* to run,
//! [`Runner`] owns the one canonical profile → tier → select → train
//! pipeline that executes it.
//!
//! The paper's evaluation (§5) is a cross product of selection strategy
//! (vanilla / static tier policy / adaptive / deadline), aggregation
//! mode (wait-all vs Bonawitz-style over-selection), local-training
//! variant (FedAvg vs FedProx) and re-profiling cadence. A [`RunSpec`]
//! is exactly that cross product as a serde-serializable value, so every
//! cell of the grid — including combinations the paper never ran, like
//! FedProx under adaptive tiering — is one declarative description away:
//!
//! ```no_run
//! use tifl_core::experiment::ExperimentConfig;
//! use tifl_core::runner::Experiment;
//!
//! let cfg = ExperimentConfig::cifar10_resource_het(42);
//! let report = cfg.runner().adaptive(None).fedprox(0.01).run();
//! println!("final accuracy {:.3}", report.final_accuracy());
//! ```
//!
//! A [`Runner`] binds specs to one experiment and caches the profiling
//! outcome ([`TierAssignment`] + [`ProfileResult`]) and the
//! materialised dataset, so multi-curve figures profile and build their
//! data once per configuration instead of once per curve.
//! Anything implementing [`Experiment`] gets the full API;
//! [`ExperimentConfig`] — every preset of the paper, LEAF/FEMNIST
//! included — is the workspace's one implementor.
//!
//! RNG streams: the selector stream is `split_seed(seed, 0x5E1EC7)`
//! (re-keyed per re-profiling segment) and the session stream is owned
//! by [`Experiment::session_config`]; `tests/runspec.rs` pins the
//! resulting [`TrainingReport`] digests per scenario.

use crate::baselines::DeadlineSelector;
use crate::exec::ExecBackend;
use crate::experiment::ExperimentConfig;
use crate::policy::Policy;
use crate::profiler::{ProfileResult, Profiler, ProfilerConfig};
use crate::scheduler::{AdaptiveConfig, AdaptiveTierSelector, StaticTierSelector};
use crate::tiering::{TierAssignment, TieringConfig};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use tifl_comm::{CodecSpec, CommSpec, HierarchySpec};
use tifl_data::FederatedDataset;
use tifl_fl::selector::{ClientSelector, RandomSelector};
use tifl_fl::session::{AggregationMode, Session, SessionConfig, SessionOverrides, TaskPricing};
use tifl_fl::timeline::chrome_round;
use tifl_fl::{RoundReport, TrainingReport};
use tifl_obs::{
    ChromeEvent, HostClock, HostProfiler, HostSpan, MetricsSnapshot, Phase, PhaseTotals, RealClock,
};
use tifl_sim::Cluster;
use tifl_tensor::split_seed;

/// Which client-selection strategy drives the run (the rows of the
/// paper's evaluation matrix).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub enum SelectionStrategy {
    /// Vanilla FedAvg: uniform random over the whole pool (Algorithm 1).
    #[default]
    Vanilla,
    /// Static tier selection under a fixed probability vector (§4.3).
    /// A vanilla [`Policy`] degrades gracefully to [`Vanilla`].
    ///
    /// [`Vanilla`]: SelectionStrategy::Vanilla
    TierPolicy {
        /// The Table 1 policy to select tiers with.
        policy: Policy,
    },
    /// Adaptive credit-based tier selection (Algorithm 2, §4.4).
    Adaptive {
        /// Selector parameters; `None` uses [`AdaptiveConfig::for_run`]
        /// defaults for the experiment's round count and tier count.
        config: Option<AdaptiveConfig>,
    },
    /// FedCS-style deadline-filtered random selection (§2 related work).
    Deadline {
        /// Per-round response deadline over profiled latencies.
        deadline_sec: f64,
    },
}

impl SelectionStrategy {
    /// True when the strategy selects uniformly from the whole pool
    /// (either explicitly or via a vanilla tier policy).
    #[must_use]
    pub fn is_vanilla(&self) -> bool {
        match self {
            SelectionStrategy::Vanilla => true,
            SelectionStrategy::TierPolicy { policy } => policy.is_vanilla(),
            _ => false,
        }
    }

    /// True when the strategy needs profiled latencies to select.
    #[must_use]
    pub fn needs_profile(&self) -> bool {
        !self.is_vanilla()
    }
}

/// The local-training objective (§2 related work).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum LocalTraining {
    /// Plain FedAvg local SGD/RMSprop — keeps whatever proximal
    /// coefficient the experiment's `ClientConfig` already carries.
    #[default]
    FedAvg,
    /// FedProx (Li et al.): add the proximal term `μ‖w − w_global‖²/2`
    /// to every local objective.
    FedProx {
        /// Proximal coefficient μ.
        mu: f32,
    },
}

/// A declarative, serializable description of one training run — the
/// cross product of the §5 evaluation axes.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RunSpec {
    /// Client-selection strategy.
    #[serde(default)]
    pub selection: SelectionStrategy,
    /// Update-collection strategy: `None` inherits the experiment's
    /// configured mode; `Some(WaitAll)` reproduces Algorithm 1 and
    /// `Some(FirstK { .. })` the Bonawitz et al. over-selection
    /// baseline, regardless of what the experiment configured.
    #[serde(default)]
    pub aggregation: Option<AggregationMode>,
    /// Local-training variant.
    #[serde(default)]
    pub local: LocalTraining,
    /// Re-profile (and re-tier) every this many rounds (§4.2's answer
    /// to drifting device performance). `None` profiles once up front.
    #[serde(default)]
    pub reprofile_every: Option<u64>,
    /// Report label override; `None` derives one from the other fields
    /// (see [`RunSpec::display_label`]).
    #[serde(default)]
    pub label: Option<String>,
    /// The round loop's thread count (see [`ExecBackend`]). Never
    /// changes the results, so it does not decorate the label.
    #[serde(default)]
    pub backend: ExecBackend,
    /// Communication model: update codec × link model (× optional
    /// aggregation hierarchy). `None` inherits the experiment's
    /// communication setup (the legacy scalar model unless the
    /// experiment configures one); `Some(CommSpec::default())` is the
    /// bit-for-bit Identity/cluster-default equivalent of `None`.
    #[serde(default)]
    pub comm: Option<CommSpec>,
}

/// A profiling outcome shareable across runners and threads — the
/// currency of cross-run profile caches (e.g. the sweep scheduler's):
/// one measurement, many concurrent consumers.
pub type SharedProfile = Arc<(TierAssignment, ProfileResult)>;

impl RunSpec {
    /// The axis the profiling outcome depends on: profiled latencies
    /// see the communication model (links and encoded upload sizes) and
    /// *nothing else* in the spec. This is exactly the [`Runner`]'s
    /// profile-cache key; cross-run caches key on
    /// (experiment, `profile_axis()`) the same way.
    #[must_use]
    pub fn profile_axis(&self) -> Option<CommSpec> {
        self.comm
    }

    /// How many §4.2 profiling passes a run of `rounds` rounds takes:
    /// none when the selection needs no profile, one up front, or one
    /// per re-profiling segment (a zero interval, which no run
    /// accepts, takes none).
    #[must_use]
    pub fn profile_passes(&self, rounds: u64) -> u64 {
        match self.reprofile_every {
            _ if !self.selection.needs_profile() => 0,
            None => 1,
            Some(0) => 0,
            Some(every) => rounds.div_ceil(every),
        }
    }

    /// The session-level overrides this spec implies.
    #[must_use]
    pub fn session_overrides(&self) -> SessionOverrides {
        SessionOverrides {
            aggregation: self.aggregation,
            proximal_mu: match self.local {
                LocalTraining::FedAvg => None,
                LocalTraining::FedProx { mu } => Some(mu),
            },
            comm: self.comm,
        }
    }

    /// The `TrainingReport::policy` label for this spec: the explicit
    /// [`RunSpec::label`] if set, otherwise the selector's name with
    /// `fedprox(μ)` / `overselect(factor)` / `+reprofile` decorations.
    /// An inherited aggregation mode (`aggregation: None`) is not
    /// decorated.
    #[must_use]
    pub fn display_label(&self) -> String {
        if let Some(label) = &self.label {
            return label.clone();
        }
        let mut base = match &self.selection {
            SelectionStrategy::Vanilla => "vanilla".to_string(),
            SelectionStrategy::TierPolicy { policy } => policy.name.clone(),
            SelectionStrategy::Adaptive { .. } => "adaptive".to_string(),
            SelectionStrategy::Deadline { .. } => "fedcs".to_string(),
        };
        if let LocalTraining::FedProx { mu } = self.local {
            base = if self.selection.is_vanilla() {
                format!("fedprox({mu})")
            } else {
                format!("{base}+fedprox({mu})")
            };
        }
        if let Some(AggregationMode::FirstK { factor }) = self.aggregation {
            base = if base == "vanilla" {
                format!("overselect({factor})")
            } else {
                format!("{base}+overselect({factor})")
            };
        }
        // The codec decorates only when it is lossy: an Identity comm
        // spec is bit-for-bit the undecorated run, so its label (and
        // reports) must match too. Unlike the other axes the bare
        // suffix (`i8`, `topk(0.1)`) would be cryptic alone, so the
        // selection base always stays.
        if let Some(suffix) = self.comm.and_then(|c| c.codec.label_suffix()) {
            base = format!("{base}+{suffix}");
        }
        if self.reprofile_every.is_some() {
            base = format!("{base}+reprofile");
        }
        base
    }
}

/// An experiment a [`Runner`] can execute: everything the canonical
/// pipeline needs — seeds, horizons, and the four pieces a run is set
/// up from ([`session_config`], [`build_cluster`], [`build_data`],
/// [`train_sizes`]).
///
/// Implemented by [`ExperimentConfig`]; implement it for your own
/// experiment type to get the whole
/// [`RunSpec`] grid (including the profiling cache and re-profiling)
/// for free.
///
/// Profiling (§4.2) needs the testbed, what a round of the model costs
/// ([`TaskPricing`]) and how many samples each client trains on — and
/// nothing else: [`profile_and_tier_with`] never calls [`build_data`].
/// Only [`build_session`] does, once per call; sessions of one
/// experiment read the same data and differ in their overrides alone,
/// so whoever runs several ([`Runner`], the sweep scheduler) builds it
/// once and hands each session the same `Arc` through
/// [`build_session_on`].
///
/// [`session_config`]: Experiment::session_config
/// [`build_cluster`]: Experiment::build_cluster
/// [`build_data`]: Experiment::build_data
/// [`train_sizes`]: Experiment::train_sizes
/// [`build_session`]: Experiment::build_session
/// [`build_session_on`]: Experiment::build_session_on
/// [`profile_and_tier_with`]: Experiment::profile_and_tier_with
pub trait Experiment {
    /// Root seed; the selector stream (`0x5E1EC7`) derives from it.
    fn seed(&self) -> u64;
    /// Global rounds `N`.
    fn rounds(&self) -> u64;
    /// `|K|`: total clients in the pool.
    fn num_clients(&self) -> usize;
    /// Profiler parameters (§4.2).
    fn profiler_config(&self) -> ProfilerConfig;
    /// Tiering parameters (`m` tiers).
    fn tiering_config(&self) -> TieringConfig;
    /// The session configuration with `overrides` applied.
    fn session_config(&self, overrides: &SessionOverrides) -> SessionConfig;
    /// Build the simulated testbed (deterministic per experiment).
    fn build_cluster(&self) -> Cluster;
    /// Plan the federated dataset (deterministic per experiment): the
    /// label plans and the global test set. Each client's rows are
    /// built on first touch, by whichever thread reads them
    /// ([`tifl_data::federated::Rows`]).
    fn build_data(&self) -> FederatedDataset;
    /// Per-client training-set sizes, equal to
    /// `self.build_data().train_sizes()` but computed from the label
    /// plan alone: no features are generated.
    fn train_sizes(&self) -> Vec<usize>;

    /// Build a fresh training session with `overrides` applied to the
    /// session configuration (deterministic per experiment), over a
    /// dataset of its own.
    fn build_session(&self, overrides: &SessionOverrides) -> Session {
        self.build_session_on(Arc::new(self.build_data()), overrides)
    }

    /// As [`Experiment::build_session`] over an already planned
    /// dataset, which must be this experiment's [`Experiment::build_data`]
    /// (sessions only read it, so any number may share one `Arc`, and
    /// the rows one builds serve them all).
    fn build_session_on(
        &self,
        data: Arc<FederatedDataset>,
        overrides: &SessionOverrides,
    ) -> Session {
        Session::new(data, self.build_cluster(), self.session_config(overrides))
    }

    /// Run the profiler over all clients and tier them (§4.2) — the one
    /// canonical implementation shared by every selection strategy.
    ///
    /// Prefer [`Runner::profile`] in loops: it caches this result.
    #[must_use]
    fn profile_and_tier(&self) -> (TierAssignment, ProfileResult) {
        self.profile_and_tier_with(&SessionOverrides::default())
    }

    /// As [`Experiment::profile_and_tier`] under session overrides —
    /// profiled latencies see the overrides' communication model
    /// (links and encoded upload sizes), so a bandwidth-heterogeneous
    /// or compressed run is tiered by the latencies it will actually
    /// experience.
    ///
    /// Builds no dataset: every client's task is priced by the
    /// [`TaskPricing`] a session of this configuration would use, at
    /// its [`Experiment::train_sizes`] entry.
    #[must_use]
    fn profile_and_tier_with(
        &self,
        overrides: &SessionOverrides,
    ) -> (TierAssignment, ProfileResult) {
        let config = self.session_config(overrides);
        let mut cluster = self.build_cluster();
        let sizes = self.train_sizes();
        let pricing = TaskPricing::activate(&config, &mut cluster, sizes.len());
        let profiler = Profiler::new(self.profiler_config());
        let result = profiler.profile(&cluster, |c| pricing.task(sizes[c]));
        let assignment =
            TierAssignment::from_latencies(&result.mean_latency, &self.tiering_config());
        (assignment, result)
    }

    /// A [`Runner`] bound to this experiment, with a vanilla default
    /// spec — the entry point of the fluent builder:
    /// `cfg.runner().adaptive(None).fedprox(0.01).run()`.
    fn runner(&self) -> Runner<'_, Self>
    where
        Self: Sized,
    {
        Runner::new(self)
    }
}

/// Executes [`RunSpec`]s against one [`Experiment`], caching the
/// profiling outcome and the materialised dataset across runs.
///
/// The builder methods mutate the runner's current spec and return
/// `&mut Self`, so one-liners
/// (`cfg.runner().policy(&p).reprofile_every(10).run()`) and reuse
/// across curves
/// (`let mut r = cfg.runner(); for p in &policies { r.policy(p).run(); }`)
/// both work; the latter profiles and builds its data once for the
/// whole loop.
pub struct Runner<'a, E: Experiment + ?Sized> {
    exp: &'a E,
    spec: RunSpec,
    /// Cached profiling outcome, keyed by the comm axis it was measured
    /// under (profiled latencies depend on links and encoded upload
    /// sizes, and on nothing else in the spec — see
    /// [`RunSpec::profile_axis`]). Shared so a cross-run cache can hand
    /// the same measurement to many runners at once.
    profile: Option<(Option<CommSpec>, SharedProfile)>,
    profile_runs: usize,
    /// The experiment's dataset, materialised by the first run (or
    /// installed by a cross-run scheduler) and shared by every session
    /// this runner builds — nothing in a spec changes the data.
    data: Option<Arc<FederatedDataset>>,
    data_builds: usize,
    /// Host clock for the observed-run phase profiler; `None` means a
    /// fresh [`RealClock`] per observed run. Tests (and the sweep
    /// scheduler) inject a shared clock here — a [`FrozenClock`] pins
    /// span structure.
    ///
    /// [`FrozenClock`]: tifl_obs::FrozenClock
    host_clock: Option<Arc<dyn HostClock>>,
}

impl<'a, E: Experiment + ?Sized> Runner<'a, E> {
    /// Bind a runner to `exp` with [`RunSpec::default`] defaults
    /// (vanilla selection, inherited aggregation, FedAvg).
    #[must_use]
    pub fn new(exp: &'a E) -> Self {
        Self::with_spec(exp, RunSpec::default())
    }

    /// Bind a runner to `exp` with an explicit starting spec.
    #[must_use]
    pub fn with_spec(exp: &'a E, spec: RunSpec) -> Self {
        Self {
            exp,
            spec,
            profile: None,
            profile_runs: 0,
            data: None,
            data_builds: 0,
            host_clock: None,
        }
    }

    /// Bind a runner to `exp` with `spec` and a profiling outcome that
    /// was already measured elsewhere (keyed by the spec's
    /// [`RunSpec::profile_axis`]). The runner will not re-profile
    /// unless its comm axis is later changed — the seam a cross-run
    /// scheduler uses to profile each topology once per sweep instead
    /// of once per run.
    ///
    /// The installed profile must be the outcome of
    /// [`Experiment::profile_and_tier_with`] under this spec's comm
    /// overrides, or run results will differ from an unshared runner.
    #[must_use]
    pub fn with_shared_profile(exp: &'a E, spec: RunSpec, profile: SharedProfile) -> Self {
        let comm = spec.profile_axis();
        let mut runner = Self::with_spec(exp, spec);
        runner.install_profile(comm, profile);
        runner
    }

    /// The current run specification.
    #[must_use]
    pub fn spec(&self) -> &RunSpec {
        &self.spec
    }

    /// Reset the spec to [`RunSpec::default`] (vanilla selection,
    /// inherited aggregation, FedAvg, no re-profiling, derived label)
    /// while keeping the profiling cache — for runners composing many
    /// unrelated curves over one configuration.
    pub fn reset(&mut self) -> &mut Self {
        self.spec = RunSpec::default();
        self
    }

    // -- fluent spec builders ---------------------------------------------

    /// Select uniformly at random from the whole pool (Algorithm 1).
    pub fn vanilla(&mut self) -> &mut Self {
        self.spec.selection = SelectionStrategy::Vanilla;
        self
    }

    /// Select via a static tier policy (§4.3); a vanilla policy behaves
    /// like [`Runner::vanilla`].
    pub fn policy(&mut self, policy: &Policy) -> &mut Self {
        self.spec.selection = SelectionStrategy::TierPolicy {
            policy: policy.clone(),
        };
        self
    }

    /// Select via the adaptive credit-based algorithm (Algorithm 2);
    /// `None` uses [`AdaptiveConfig::for_run`] defaults.
    pub fn adaptive(&mut self, config: Option<AdaptiveConfig>) -> &mut Self {
        self.spec.selection = SelectionStrategy::Adaptive { config };
        self
    }

    /// Select via the FedCS deadline baseline over profiled latencies.
    pub fn deadline(&mut self, deadline_sec: f64) -> &mut Self {
        self.spec.selection = SelectionStrategy::Deadline { deadline_sec };
        self
    }

    /// Bonawitz et al. over-selection: ask `ceil(|C| · factor)` clients,
    /// aggregate the first `|C|` responders.
    pub fn overselect(&mut self, factor: f64) -> &mut Self {
        self.spec.aggregation = Some(AggregationMode::FirstK { factor });
        self
    }

    /// Execute on `threads` threads (0 = ambient; results are
    /// backend-invariant, see [`ExecBackend`]).
    pub fn event_driven(&mut self, threads: usize) -> &mut Self {
        self.spec.backend = ExecBackend::EventDriven { threads };
        self
    }

    /// Train with the FedProx proximal objective, coefficient `mu`.
    pub fn fedprox(&mut self, mu: f32) -> &mut Self {
        self.spec.local = LocalTraining::FedProx { mu };
        self
    }

    /// Re-profile and re-tier every `every` rounds.
    pub fn reprofile_every(&mut self, every: u64) -> &mut Self {
        self.spec.reprofile_every = Some(every);
        self
    }

    // -- communication ----------------------------------------------------

    /// Mutable access to the spec's comm axis, defaulting it in first.
    fn comm_mut(&mut self) -> &mut CommSpec {
        self.spec.comm.get_or_insert_with(CommSpec::default)
    }

    /// Whole-update affine int8 upload compression (~4x fewer uplink
    /// bytes, error bounded by one quantization step per weight); keeps
    /// the spec's link model.
    pub fn quantized_i8(&mut self) -> &mut Self {
        self.comm_mut().codec = CodecSpec::QuantizeI8;
        self
    }

    /// Aggregate through a master/child hierarchy over a `plane_bps`
    /// aggregation plane; the combine cost joins each round's latency.
    pub fn hierarchical(&mut self, fan_out: usize, plane_bps: f64) -> &mut Self {
        self.comm_mut().hierarchy = Some(HierarchySpec { fan_out, plane_bps });
        self
    }

    /// Override the report label.
    pub fn label(&mut self, label: impl Into<String>) -> &mut Self {
        self.spec.label = Some(label.into());
        self
    }

    /// Inject the host clock observed runs stamp their phase spans
    /// with (default: a fresh [`RealClock`] per observed run). Host
    /// time is operator-facing only; swapping the clock can never
    /// change a report.
    pub fn host_clock(&mut self, clock: Arc<dyn HostClock>) -> &mut Self {
        self.host_clock = Some(clock);
        self
    }

    // -- profiling cache --------------------------------------------------

    /// The profiling outcome for this experiment, computed on first use
    /// and cached for every later run/estimate from this runner. The
    /// cache is keyed by the spec's comm axis: switching codec or link
    /// model re-profiles (the latencies genuinely change); everything
    /// else reuses the measurement.
    pub fn profile(&mut self) -> &(TierAssignment, ProfileResult) {
        self.ensure_profile();
        self.profile
            .as_ref()
            .expect("profile cached above")
            .1
            .as_ref()
    }

    /// As [`Runner::profile`] but returns a [`SharedProfile`] handle,
    /// so the measurement can be installed into other runners
    /// ([`Runner::install_profile`]) or parked in a cross-run cache.
    pub fn shared_profile(&mut self) -> SharedProfile {
        self.ensure_profile();
        Arc::clone(&self.profile.as_ref().expect("profile cached above").1)
    }

    /// Install an externally measured profiling outcome, keyed by the
    /// comm axis it was measured under. Does not count as a profiler
    /// run ([`Runner::profile_count`]); a later comm-axis change still
    /// invalidates it.
    pub fn install_profile(&mut self, comm: Option<CommSpec>, profile: SharedProfile) -> &mut Self {
        self.profile = Some((comm, profile));
        self
    }

    fn ensure_profile(&mut self) {
        let comm = self.spec.profile_axis();
        let stale = self.profile.as_ref().is_some_and(|(c, _)| *c != comm);
        if self.profile.is_none() || stale {
            let overrides = SessionOverrides {
                comm,
                ..SessionOverrides::default()
            };
            self.profile = Some((comm, Arc::new(self.exp.profile_and_tier_with(&overrides))));
            self.profile_runs += 1;
        }
    }

    /// The cached tier assignment (profiles on first use).
    pub fn tiers(&mut self) -> &TierAssignment {
        &self.profile().0
    }

    /// How many times this runner actually ran the profiler — the
    /// cache-effectiveness observable.
    #[must_use]
    pub fn profile_count(&self) -> usize {
        self.profile_runs
    }

    // -- dataset cache ----------------------------------------------------

    /// The experiment's dataset, planned on first use and shared by
    /// every later run from this runner, with every client row any of
    /// them has built (rows are built on first touch, by whichever
    /// thread reads them).
    pub fn shared_data(&mut self) -> Arc<FederatedDataset> {
        if self.data.is_none() {
            self.data = Some(Arc::new(self.exp.build_data()));
            self.data_builds += 1;
        }
        Arc::clone(self.data.as_ref().expect("materialised above"))
    }

    /// Install a dataset materialised elsewhere — the seam a cross-run
    /// scheduler uses to build each experiment's data once per sweep.
    /// It must be this experiment's [`Experiment::build_data`]; does
    /// not count as a build ([`Runner::data_count`]).
    pub fn install_data(&mut self, data: Arc<FederatedDataset>) -> &mut Self {
        self.data = Some(data);
        self
    }

    /// How many times this runner actually materialised the dataset —
    /// the twin of [`Runner::profile_count`].
    #[must_use]
    pub fn data_count(&self) -> usize {
        self.data_builds
    }

    /// A fresh session for the current spec over the shared dataset.
    fn build_session(&mut self) -> Session {
        let overrides = self.spec.session_overrides();
        let data = self.shared_data();
        self.exp.build_session_on(data, &overrides)
    }

    /// Eq. 6 training-time estimate for a (non-vanilla) policy under
    /// this experiment's cached tiers.
    pub fn estimate(&mut self, policy: &Policy) -> f64 {
        let rounds = self.exp.rounds();
        crate::estimator::estimate_for_policy(self.tiers(), policy, rounds)
    }

    // -- execution --------------------------------------------------------

    /// Execute the current spec and return the report.
    ///
    /// # Panics
    /// Panics if the spec asks for re-profiling under vanilla selection
    /// or with a zero interval, or if the selection strategy cannot
    /// supply `clients_per_round` clients.
    pub fn run(&mut self) -> TrainingReport {
        self.run_with_session().0
    }

    /// As [`Runner::run`] but also returns the finished session, so
    /// callers can inspect the final global model (per-class accuracy,
    /// further evaluation, checkpointing).
    pub fn run_with_session(&mut self) -> (TrainingReport, Session) {
        let mut session = self.build_session();
        let report = self.execute(&mut session);
        (report, session)
    }

    /// As [`Runner::run`] but observed: the session carries a host-time
    /// phase profiler, and the metrics are read off the report
    /// ([`TrainingReport::metrics`]). The report is bit-for-bit the one
    /// [`Runner::run`] produces — host time feeds nothing back. The
    /// run's virtual-time trace is [`Runner::virtual_trace`] of the
    /// report.
    pub fn run_observed(&mut self) -> ObservedRun {
        let mut session = self.build_session();
        // The host profiler's spans are operator-facing wall-clock
        // attribution, kept strictly outside the deterministic surface.
        // Ring capacity scales with the horizon (a handful of spans per
        // round) and is preallocated — steady-state rounds stay
        // allocation-free with it attached.
        let clock = self
            .host_clock
            .as_ref()
            .map_or_else(RealClock::shared, Arc::clone);
        let span_cap = (self.exp.rounds() as usize).saturating_mul(8).min(1 << 16) + 16;
        let mut prof = HostProfiler::with_clock(span_cap, clock);
        if self.spec.selection.needs_profile() && self.spec.reprofile_every.is_none() {
            // The up-front §4.2 profiling pass. A shared-profile runner
            // only looks the measurement up.
            let t_prof = prof.begin();
            self.ensure_profile();
            prof.end(Phase::Profile, 0, t_prof);
        }
        session.attach_host_profiler(prof);
        let report = self.execute(&mut session);
        let host = session
            .take_host_profiler()
            .expect("host profiler attached above");
        let passes = self.spec.profile_passes(self.exp.rounds());
        ObservedRun {
            metrics: report.metrics(session.config(), passes),
            report,
            host_phases: host.totals(),
            host_spans: host.spans(),
        }
    }

    /// The virtual-time Chrome lane of a run of the current spec that
    /// produced `report`: every §4.2 profiling pass, then every round
    /// laid out from its plan ([`chrome_round`]), which a session of the
    /// spec rebuilds from the report ([`Session::replan`]). Trains
    /// nothing; the events are the same for the same report on every
    /// backend.
    ///
    /// The up-front pass sits at time 0 and is the cached profile; a
    /// re-profiled run's passes are re-measured at the first round of
    /// their segment and sit at its start.
    pub fn virtual_trace(&mut self, report: &TrainingReport) -> Vec<ChromeEvent> {
        let session = self.build_session();
        let wire_bytes = session.upload_wire_bytes();
        let clients = self.exp.num_clients();
        let pass = |t0: f64, profile: &ProfileResult| {
            let name = format!(
                "profile {clients} clients ({} dropouts)",
                profile.dropouts().len()
            );
            ChromeEvent::span(name, "profile", t0, t0 + profile.profiling_time, 0)
        };
        let mut out = Vec::new();
        let reprofile_every = self.spec.reprofile_every;
        if self.spec.selection.needs_profile() && reprofile_every.is_none() {
            out.push(pass(0.0, &self.shared_profile().1));
        }
        let profiler = Profiler::new(self.exp.profiler_config());
        let mut t0 = 0.0;
        for round in &report.rounds {
            if reprofile_every.is_some_and(|every| round.round.is_multiple_of(every)) {
                let profile =
                    profiler.profile_at(session.cluster(), |c| session.task_for(c), round.round);
                out.push(pass(t0, &profile));
            }
            let plan = session.replan(round);
            chrome_round(&plan, t0, session.config(), wire_bytes, &mut out);
            t0 = round.time;
        }
        out
    }

    /// Drive the spec against an already-built session (the shared
    /// tail of [`Runner::run_with_session`] / [`Runner::run_observed`]).
    fn execute(&mut self, session: &mut Session) -> TrainingReport {
        let threads = self.spec.backend.threads();
        let rounds = match self.spec.reprofile_every {
            None => {
                let seed = split_seed(self.exp.seed(), 0x5E1EC7);
                let selection = self.spec.selection.clone();
                let (clients, horizon) = (self.exp.num_clients(), self.exp.rounds());
                let mut selector = build_selector(&selection, clients, horizon, seed, || {
                    let profile = self.shared_profile();
                    (profile.0.clone(), profile.1.mean_latency.clone())
                });
                let remaining = session.config().rounds - session.rounds_done();
                session.run_rounds(selector.as_mut(), remaining, threads)
            }
            Some(every) => self.run_segmented(session, every, threads),
        };
        TrainingReport {
            policy: self.spec.display_label(),
            rounds,
        }
    }

    /// The periodic re-profiling loop (§4.2): every `every` rounds,
    /// re-measure latencies at the current round position, rebuild the
    /// tiers and a fresh selector (seeded per segment), and continue the
    /// same session. Adaptive segments restart Algorithm 2's credits
    /// and probabilities, since the old tiers they refer to are gone.
    fn run_segmented(
        &mut self,
        session: &mut Session,
        every: u64,
        threads: usize,
    ) -> Vec<RoundReport> {
        assert!(
            self.spec.selection.needs_profile(),
            "re-profiling requires a tiered policy"
        );
        assert!(every > 0, "re-profiling interval must be positive");
        let profiler = Profiler::new(self.exp.profiler_config());
        let tiering = self.exp.tiering_config();
        let clients = self.exp.num_clients();
        let rounds_total = self.exp.rounds();
        let mut rounds = Vec::with_capacity(rounds_total as usize);
        let mut done = 0u64;
        while done < rounds_total {
            let t_prof = session.host_begin();
            let profile = profiler.profile_at(session.cluster(), |c| session.task_for(c), done);
            session.host_end(Phase::Profile, done, t_prof);
            let seed = split_seed(self.exp.seed(), split_seed(0x5E1EC7, done));
            let mut selector =
                build_selector(&self.spec.selection, clients, rounds_total, seed, || {
                    let tiers = TierAssignment::from_latencies(&profile.mean_latency, &tiering);
                    (tiers, profile.mean_latency)
                });
            let segment = every.min(rounds_total - done);
            rounds.extend(session.run_rounds(selector.as_mut(), segment, threads));
            done += segment;
        }
        rounds
    }
}

/// The one place a [`SelectionStrategy`] becomes a selector. `profile`
/// supplies the tiers and the per-client mean latencies they were cut
/// from — the runner's cached measurement, or a re-profiling segment's
/// fresh one — and is never called for a vanilla strategy, which
/// selects without profiling.
fn build_selector(
    selection: &SelectionStrategy,
    clients: usize,
    rounds: u64,
    seed: u64,
    profile: impl FnOnce() -> (TierAssignment, Vec<Option<f64>>),
) -> Box<dyn ClientSelector> {
    let random = || Box::new(RandomSelector::new(clients, seed));
    match selection {
        SelectionStrategy::Vanilla => random(),
        SelectionStrategy::TierPolicy { policy } if policy.is_vanilla() => random(),
        SelectionStrategy::TierPolicy { policy } => {
            Box::new(StaticTierSelector::new(profile().0, policy.clone(), seed))
        }
        SelectionStrategy::Adaptive { config } => {
            let tiers = profile().0;
            let config =
                config.unwrap_or_else(|| AdaptiveConfig::for_run(rounds, tiers.num_tiers()));
            Box::new(AdaptiveTierSelector::new(tiers, config, seed))
        }
        SelectionStrategy::Deadline { deadline_sec } => {
            Box::new(DeadlineSelector::new(profile().1, *deadline_sec, seed))
        }
    }
}

/// The result of [`Runner::run_observed`]: the training report, the
/// metrics read off it and the run's host-time attribution. `report`
/// is bit-for-bit what the unobserved run produces.
#[derive(Debug, Clone)]
pub struct ObservedRun {
    /// The training report, identical to [`Runner::run`]'s.
    pub report: TrainingReport,
    /// Counters, gauges and histograms read off `report`
    /// ([`TrainingReport::metrics`]).
    pub metrics: MetricsSnapshot,
    /// Per-phase **host** seconds (wall-clock attribution). Best
    /// effort and machine-dependent; never serialized into run
    /// artifacts or hashed into `RunKey`s.
    pub host_phases: PhaseTotals,
    /// The host-time phase spans (ring-bounded, close order) — the
    /// Chrome host lane of `tifl trace --host`.
    pub host_spans: Vec<HostSpan>,
}

/// A fully self-contained run description for `tifl run --spec`: an
/// experiment, a couple of common scalar overrides, and a [`RunSpec`].
///
/// ```json
/// {
///   "experiment": { ... an ExperimentConfig ... },
///   "rounds": 100,
///   "spec": { "selection": { "Adaptive": { "config": null } },
///             "local": { "FedProx": { "mu": 0.01 } } }
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRequest {
    /// The experiment to run (any JSON an `ExperimentConfig` parses
    /// from; `tifl init` writes a template).
    pub experiment: ExperimentConfig,
    /// Override the experiment's round count.
    #[serde(default)]
    pub rounds: Option<u64>,
    /// Override the experiment's root seed.
    #[serde(default)]
    pub seed: Option<u64>,
    /// Override the experiment's clients-per-round `|C|`.
    #[serde(default)]
    pub clients_per_round: Option<usize>,
    /// The run to execute (defaults to vanilla/WaitAll/FedAvg).
    #[serde(default)]
    pub spec: RunSpec,
}

impl RunRequest {
    /// The experiment with the scalar overrides applied.
    #[must_use]
    pub fn experiment(&self) -> ExperimentConfig {
        let mut exp = self.experiment.clone();
        if let Some(rounds) = self.rounds {
            exp.rounds = rounds;
        }
        if let Some(seed) = self.seed {
            exp.seed = seed;
        }
        if let Some(c) = self.clients_per_round {
            exp.clients_per_round = c;
        }
        exp
    }

    /// Whether the request's sizes fit: the experiment's
    /// ([`ExperimentConfig::check_sizes`]) and its selection's. A tier
    /// policy or adaptive selection draws each round's clients from one
    /// tier, so every tier it can draw must hold as many clients as a
    /// round asks for (the paper's `n_j ≥ |C|`); vanilla draws the same
    /// round from the whole pool. `Err` names what does not fit. The
    /// `tifl` CLI asks before it trains; a run that fails still panics.
    ///
    /// # Errors
    /// As [`ExperimentConfig::check_sizes`]; or the over-selection
    /// factor is below 1; or a round asks a tier the selection can draw
    /// for more clients than it holds.
    pub fn check_sizes(&self) -> Result<(), String> {
        let exp = self.experiment();
        exp.check_sizes()?;
        let aggregation = self.spec.aggregation.unwrap_or(exp.aggregation);
        if let AggregationMode::FirstK { factor } = aggregation {
            if factor.is_nan() || factor < 1.0 {
                return Err(format!("over-selection factor {factor} is below 1"));
            }
        }
        let sizes = exp.tiering.tier_sizes(exp.num_clients);
        let (name, smallest) = match &self.spec.selection {
            SelectionStrategy::TierPolicy { policy } if !policy.is_vanilla() => {
                let drawn = policy.probs.iter().zip(&sizes).filter(|(&p, _)| p > 0.0);
                (policy.name.as_str(), drawn.map(|(_, &n)| n).min())
            }
            SelectionStrategy::Adaptive { .. } => ("adaptive", sizes.iter().copied().min()),
            _ => return Ok(()),
        };
        let Some(smallest) = smallest else {
            return Ok(());
        };
        let asked = aggregation.ask(exp.clients_per_round, exp.num_clients);
        if asked <= smallest {
            return Ok(());
        }
        let over = if asked == exp.clients_per_round {
            String::new()
        } else {
            format!(" ({asked} with over-selection)")
        };
        Err(format!(
            "clients_per_round {}{over} exceeds the smallest tier ({smallest} clients) of \
             policy {name}",
            exp.clients_per_round
        ))
    }

    /// Execute the request.
    #[must_use]
    pub fn run(&self) -> TrainingReport {
        let exp = self.experiment();
        let mut runner = Runner::with_spec(&exp, self.spec.clone());
        runner.run()
    }

    /// Execute the request observed: same report, plus a metrics
    /// snapshot and host-time attribution. See [`Runner::run_observed`];
    /// `_ring_capacity` is ignored, and is kept for the
    /// `tifl-benchmark` crate.
    #[must_use]
    pub fn run_observed(&self, _ring_capacity: usize) -> ObservedRun {
        let exp = self.experiment();
        Runner::with_spec(&exp, self.spec.clone()).run_observed()
    }

    /// As [`RunRequest::run_observed`] with an explicit host clock for
    /// the phase profiler (tests inject a
    /// [`FrozenClock`](tifl_obs::FrozenClock) to pin span structure).
    #[must_use]
    pub fn run_observed_with_clock(&self, clock: Arc<dyn HostClock>) -> ObservedRun {
        let exp = self.experiment();
        let mut runner = Runner::with_spec(&exp, self.spec.clone());
        runner.host_clock(clock);
        runner.run_observed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tifl_comm::LinkModel;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig::tiny(60)
    }

    #[test]
    fn profile_passes_count_the_segments() {
        let tiered = RunSpec {
            selection: SelectionStrategy::Adaptive { config: None },
            ..RunSpec::default()
        };
        assert_eq!(RunSpec::default().profile_passes(10), 0);
        assert_eq!(tiered.profile_passes(10), 1);
        let every = |n| RunSpec {
            reprofile_every: Some(n),
            ..tiered.clone()
        };
        assert_eq!(every(3).profile_passes(10), 4);
        assert_eq!(every(5).profile_passes(10), 2);
        // A stored request with a zero interval must not panic the audit.
        assert_eq!(every(0).profile_passes(10), 0);
    }

    #[test]
    fn default_spec_is_vanilla_waitall_fedavg() {
        let spec = RunSpec::default();
        assert_eq!(spec.selection, SelectionStrategy::Vanilla);
        assert_eq!(
            spec.aggregation, None,
            "default inherits the experiment's mode"
        );
        assert_eq!(spec.local, LocalTraining::FedAvg);
        assert_eq!(spec.reprofile_every, None);
        assert_eq!(spec.display_label(), "vanilla");
    }

    #[test]
    fn builder_composes_spec_fields() {
        let cfg = tiny();
        let mut runner = cfg.runner();
        runner
            .adaptive(None)
            .fedprox(0.01)
            .overselect(1.3)
            .reprofile_every(10);
        let spec = runner.spec();
        assert_eq!(spec.selection, SelectionStrategy::Adaptive { config: None });
        assert_eq!(spec.local, LocalTraining::FedProx { mu: 0.01 });
        assert_eq!(
            spec.aggregation,
            Some(AggregationMode::FirstK { factor: 1.3 })
        );
        assert_eq!(spec.reprofile_every, Some(10));
        assert_eq!(
            spec.display_label(),
            "adaptive+fedprox(0.01)+overselect(1.3)+reprofile"
        );
    }

    #[test]
    fn derived_labels_match_legacy_names() {
        let mk = |selection, local, reprofile| RunSpec {
            selection,
            local,
            reprofile_every: reprofile,
            ..RunSpec::default()
        };
        let uniform = SelectionStrategy::TierPolicy {
            policy: Policy::uniform(5),
        };
        assert_eq!(
            mk(uniform.clone(), LocalTraining::FedAvg, None).display_label(),
            "uniform"
        );
        assert_eq!(
            mk(uniform, LocalTraining::FedAvg, Some(8)).display_label(),
            "uniform+reprofile"
        );
        assert_eq!(
            mk(
                SelectionStrategy::Vanilla,
                LocalTraining::FedProx { mu: 0.1 },
                None
            )
            .display_label(),
            "fedprox(0.1)"
        );
        assert_eq!(
            mk(
                SelectionStrategy::Deadline { deadline_sec: 5.0 },
                LocalTraining::FedAvg,
                None
            )
            .display_label(),
            "fedcs"
        );
        // The aggregation axis decorates only when explicitly forced.
        let overselect = RunSpec {
            aggregation: Some(AggregationMode::FirstK { factor: 1.3 }),
            ..RunSpec::default()
        };
        assert_eq!(overselect.display_label(), "overselect(1.3)");
        let tiered_overselect = RunSpec {
            selection: SelectionStrategy::TierPolicy {
                policy: Policy::uniform(5),
            },
            aggregation: Some(AggregationMode::FirstK { factor: 2.0 }),
            ..RunSpec::default()
        };
        assert_eq!(tiered_overselect.display_label(), "uniform+overselect(2)");
        let labelled = RunSpec {
            label: Some("overselect(1.3)".into()),
            ..RunSpec::default()
        };
        assert_eq!(labelled.display_label(), "overselect(1.3)");
    }

    #[test]
    fn comm_builders_compose_the_spec() {
        let cfg = tiny();
        let mut runner = cfg.runner();
        // Installing the hierarchy first defaults the comm axis in;
        // the codec builder then keeps it.
        runner.hierarchical(100, 2.0e8).quantized_i8();
        let comm = runner.spec().comm.expect("comm spec installed");
        assert_eq!(comm.codec, CodecSpec::QuantizeI8);
        assert_eq!(comm.link, LinkModel::ClusterDefault);
        assert_eq!(comm.hierarchy.map(|h| h.fan_out), Some(100));
        assert_eq!(runner.spec().display_label(), "vanilla+i8");
        // Composed decorations keep the legacy ordering.
        runner.adaptive(None).fedprox(0.01);
        assert_eq!(runner.spec().display_label(), "adaptive+fedprox(0.01)+i8");
        // A sparsifying codec decorates with its fraction; lossless
        // codecs never decorate the label.
        let labelled = |codec| RunSpec {
            comm: Some(CommSpec::with_codec(codec)),
            ..RunSpec::default()
        };
        assert_eq!(
            labelled(CodecSpec::TopK { frac: 0.1 }).display_label(),
            "vanilla+topk(0.1)"
        );
        assert_eq!(labelled(CodecSpec::Identity).display_label(), "vanilla");
    }

    #[test]
    fn runner_profiles_once_across_runs() {
        let cfg = tiny();
        let mut runner = cfg.runner();
        assert_eq!(runner.profile_count(), 0);
        let _ = runner.policy(&Policy::uniform(5)).run();
        assert_eq!(runner.profile_count(), 1);
        let _ = runner.policy(&Policy::fast(5)).run();
        let _ = runner.adaptive(None).run();
        let _ = runner.estimate(&Policy::uniform(5));
        assert_eq!(runner.profile_count(), 1, "profile cache must be reused");
    }

    #[test]
    fn runner_materialises_once_across_runs() {
        let cfg = tiny();
        let mut runner = cfg.runner();
        assert_eq!(runner.data_count(), 0);
        let first = runner.policy(&Policy::uniform(5)).run();
        assert_eq!(runner.data_count(), 1);
        let (_, session) = runner.policy(&Policy::fast(5)).run_with_session();
        let _ = runner.adaptive(None).fedprox(0.01).run_observed();
        assert_eq!(runner.data_count(), 1, "the dataset must be reused");
        assert!(
            std::ptr::eq(session.data(), runner.shared_data().as_ref()),
            "sessions read the runner's dataset, not a copy"
        );
        // Sharing data shares nothing else: after two other curves
        // trained on it, the first one comes out the same.
        assert_eq!(runner.reset().policy(&Policy::uniform(5)).run(), first);

        // An installed dataset is used as is and never counted.
        let mut borrower = cfg.runner();
        borrower.install_data(runner.shared_data());
        assert_eq!(borrower.policy(&Policy::uniform(5)).run(), first);
        assert_eq!(borrower.data_count(), 0);
    }

    #[test]
    fn shared_profile_seam_skips_reprofiling_and_matches() {
        let cfg = tiny();
        let spec = RunSpec {
            selection: SelectionStrategy::TierPolicy {
                policy: Policy::uniform(5),
            },
            ..RunSpec::default()
        };
        let mut owner = Runner::with_spec(&cfg, spec.clone());
        let baseline = owner.run();
        let profile = owner.shared_profile();
        assert_eq!(owner.profile_count(), 1);

        let mut borrower = Runner::with_shared_profile(&cfg, spec, profile);
        let report = borrower.run();
        assert_eq!(report, baseline, "shared profile must not change results");
        assert_eq!(
            borrower.profile_count(),
            0,
            "installed profiles never count as profiler runs"
        );
        // Changing the comm axis invalidates the installed measurement.
        borrower.quantized_i8();
        let _ = borrower.profile();
        assert_eq!(borrower.profile_count(), 1);
    }

    #[test]
    fn profile_axis_is_the_comm_axis() {
        let mut spec = RunSpec::default();
        assert_eq!(spec.profile_axis(), None);
        spec.comm = Some(CommSpec::default());
        assert_eq!(spec.profile_axis(), Some(CommSpec::default()));
    }

    #[test]
    fn vanilla_runs_never_profile() {
        let cfg = tiny();
        let mut runner = cfg.runner();
        let _ = runner.vanilla().run();
        let _ = runner.fedprox(0.1).run();
        assert_eq!(runner.profile_count(), 0);
    }

    #[test]
    fn vanilla_tier_policy_degrades_to_vanilla() {
        let cfg = tiny();
        let a = cfg.runner().policy(&Policy::vanilla()).run();
        let b = cfg.runner().vanilla().run();
        assert_eq!(a, b);
        assert_eq!(a.policy, "vanilla");
    }

    #[test]
    fn sparse_spec_inherits_experiment_aggregation() {
        // An experiment configured for over-selection keeps it when the
        // spec does not name an aggregation mode — and its label stays
        // undecorated, exactly like the legacy `run_policy` behaviour.
        let mut cfg = tiny();
        cfg.aggregation = AggregationMode::FirstK { factor: 1.5 };
        let report = cfg.runner().vanilla().run();
        assert_eq!(report.policy, "vanilla");
        // tiny has |C| = 2, so FirstK(1.5) asks ceil(3) = 3 per round.
        assert!(report.rounds.iter().all(|r| r.selected.len() == 3));
        assert!(report.rounds.iter().all(|r| r.aggregated.len() == 2));
        // Forcing WaitAll from the spec overrides the experiment.
        let spec = RunSpec {
            aggregation: Some(AggregationMode::WaitAll),
            ..RunSpec::default()
        };
        let waitall = Runner::with_spec(&cfg, spec).run();
        assert!(waitall.rounds.iter().all(|r| r.selected.len() == 2));
    }

    #[test]
    #[should_panic(expected = "re-profiling requires a tiered policy")]
    fn reprofiling_rejects_vanilla() {
        let cfg = tiny();
        let _ = cfg.runner().vanilla().reprofile_every(5).run();
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = RunSpec {
            selection: SelectionStrategy::TierPolicy {
                policy: Policy::random5(5),
            },
            aggregation: Some(AggregationMode::FirstK { factor: 1.3 }),
            local: LocalTraining::FedProx { mu: 0.05 },
            reprofile_every: Some(25),
            label: Some("combo".into()),
            backend: ExecBackend::EventDriven { threads: 2 },
            comm: Some(CommSpec {
                codec: CodecSpec::TopK { frac: 0.25 },
                link: LinkModel::GroupScaled {
                    groups: 1,
                    up_bps: 1.0e5,
                    down_bps: 1.0e6,
                    decay: 1.0,
                    rtt_sec: 0.01,
                },
                hierarchy: None,
            }),
        };
        let json = serde_json::to_string_pretty(&spec).expect("serializes");
        let back: RunSpec = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, spec);
    }

    #[test]
    fn backend_knob_defaults_to_lockstep_and_composes() {
        let spec = RunSpec::default();
        assert_eq!(spec.backend, ExecBackend::Lockstep);
        let cfg = tiny();
        let mut runner = cfg.runner();
        runner.event_driven(3).fedprox(0.1);
        assert_eq!(
            runner.spec().backend,
            ExecBackend::EventDriven { threads: 3 }
        );
        assert_eq!(
            runner.spec().display_label(),
            "fedprox(0.1)",
            "the backend never decorates the label (results are backend-invariant)"
        );
    }

    #[test]
    fn sparse_spec_json_uses_defaults() {
        let spec: RunSpec = serde_json::from_str("{}").expect("empty spec parses");
        assert_eq!(spec, RunSpec::default());
        let spec: RunSpec =
            serde_json::from_str(r#"{"selection": {"Adaptive": {"config": null}}}"#)
                .expect("partial spec parses");
        assert_eq!(spec.selection, SelectionStrategy::Adaptive { config: None });
        assert_eq!(spec.aggregation, None);
    }

    #[test]
    fn run_request_applies_overrides_and_runs() {
        let request = RunRequest {
            experiment: tiny(),
            rounds: Some(4),
            seed: Some(9),
            clients_per_round: None,
            spec: RunSpec::default(),
        };
        let json = serde_json::to_string(&request).expect("serializes");
        let back: RunRequest = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, request);
        let report = back.run();
        assert_eq!(report.rounds.len(), 4);
        assert_eq!(report.policy, "vanilla");
        assert_eq!(back.experiment().seed, 9);
    }
}
