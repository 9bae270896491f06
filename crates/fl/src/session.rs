//! The round loop: drives Algorithm 1 against the simulated testbed.

use crate::aggregator::{ClientUpdate, StreamingFold};
use crate::client::{self, ClientConfig};
use crate::exec::{
    ClientExecutor, DeferredEvals, OrderedMerge, TaskResult, TaskTag, TrainContext, Upload,
};
use crate::report::{RoundReport, TrainingReport};
use crate::selector::ClientSelector;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;
use tifl_comm::{CodecSpec, CommSpec, EncodeScratch, ErrorFeedback};
use tifl_data::FederatedDataset;
use tifl_nn::model::{EvalResult, Sequential};
use tifl_nn::models::ModelSpec;
use tifl_obs::{HostProfiler, Phase, RunObserver};
use tifl_sim::latency::TrainingTask;
use tifl_sim::{Cluster, VirtualClock};
use tifl_tensor::{ops, Matrix, ParamVec};

/// Holdout rows one task of [`Session::evaluate_groups`] gathers and
/// infers: enough that its GEMMs run at full speed, few enough that a
/// monitored round splits into a task list every thread can share.
const EVAL_CHUNK_ROWS: usize = 250;

/// How a round collects client updates.
///
/// The paper's prototype (and Algorithm 1) waits for every selected
/// client. Bonawitz et al. instead over-select by ~30 % and discard the
/// stragglers that have not reported by the time the target count is
/// reached — the baseline TiFL's related work contrasts against (§2).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum AggregationMode {
    /// Synchronous FL: wait for all `|C|` selected clients (Eq. 1).
    #[default]
    WaitAll,
    /// Over-selection: ask `ceil(|C| * factor)` clients, aggregate the
    /// first `|C|` to respond, discard the rest. Round latency is the
    /// `|C|`-th fastest response.
    FirstK {
        /// Over-selection factor (Bonawitz et al. use 1.3).
        factor: f64,
    },
}

impl AggregationMode {
    /// Clients a round asks the selector for out of a pool of `pool`:
    /// `clients_per_round` under [`AggregationMode::WaitAll`],
    /// `ceil(clients_per_round * factor)` (at most `pool`) under
    /// [`AggregationMode::FirstK`].
    ///
    /// # Panics
    /// Panics on an over-selection factor below 1.
    #[must_use]
    pub fn ask(self, clients_per_round: usize, pool: usize) -> usize {
        match self {
            AggregationMode::WaitAll => clients_per_round,
            AggregationMode::FirstK { factor } => {
                assert!(factor >= 1.0, "over-selection factor must be >= 1");
                ((clients_per_round as f64 * factor).ceil() as usize).min(pool)
            }
        }
    }
}

/// Round-engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SessionConfig {
    /// Global model architecture.
    pub model: ModelSpec,
    /// Local-training hyper-parameters.
    pub client: ClientConfig,
    /// `|C|`: clients selected per round (paper: 5 for the synthetic
    /// datasets, 10 for LEAF).
    pub clients_per_round: usize,
    /// Total global rounds `N` (paper: 500 / 2000).
    pub rounds: u64,
    /// Evaluate the global model every `eval_every` rounds (1 = every
    /// round; the final round is always evaluated).
    pub eval_every: u64,
    /// Latency cap per round: a client that does not respond within
    /// `tmax_sec` is dropped from aggregation and the round is charged
    /// `tmax_sec`.
    pub tmax_sec: f64,
    /// Update-collection strategy.
    #[serde(default)]
    pub aggregation: AggregationMode,
    /// Communication model: update codec × link model (× optional
    /// aggregation hierarchy). `None` is the legacy scalar-bandwidth,
    /// uncompressed behaviour; `Some(CommSpec::default())` is its
    /// bit-for-bit comm-subsystem equivalent.
    #[serde(default)]
    pub comm: Option<CommSpec>,
    /// Root seed for model init, shuffles and jitter.
    pub seed: u64,
}

/// Per-run overrides a run specification applies on top of a base
/// [`SessionConfig`] (see `tifl_core::runner::RunSpec`).
///
/// `None` leaves the corresponding base setting untouched, so a spec
/// that does not care about (say) the local objective composes with
/// whatever the experiment already configured.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SessionOverrides {
    /// Replace the update-collection strategy.
    #[serde(default)]
    pub aggregation: Option<AggregationMode>,
    /// Replace the FedProx proximal coefficient (`Some(0.0)` forces
    /// plain FedAvg even if the base config enabled the proximal term).
    #[serde(default)]
    pub proximal_mu: Option<f32>,
    /// Replace the communication model (codec × link model).
    #[serde(default)]
    pub comm: Option<CommSpec>,
}

impl SessionConfig {
    /// This config with `overrides` applied.
    #[must_use]
    pub fn with_overrides(mut self, overrides: &SessionOverrides) -> Self {
        if let Some(aggregation) = overrides.aggregation {
            self.aggregation = aggregation;
        }
        if let Some(mu) = overrides.proximal_mu {
            self.client.proximal_mu = mu;
        }
        if let Some(comm) = overrides.comm {
            self.comm = Some(comm);
        }
        self
    }

    /// True when the global model is evaluated after `round` (every
    /// `eval_every` rounds, plus always on the final configured round).
    #[must_use]
    pub fn is_eval_round(&self, round: u64) -> bool {
        round.is_multiple_of(self.eval_every) || round + 1 == self.rounds
    }
}

/// What a round costs a client apart from its sample count — local
/// epochs, the model's FLOPs per sample, the dense update size and the
/// codec's upload size — over a cluster whose links the comm spec has
/// been installed on.
///
/// This is everything §4.2 profiling needs besides the per-client
/// training-set sizes, and none of it depends on data:
/// [`Session::new`] prices its rounds with it, and
/// `tifl_core::runner::Experiment::profile_and_tier_with` profiles with
/// it without building a dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskPricing {
    /// The task of a client with no samples.
    unit: TrainingTask,
}

impl TaskPricing {
    /// Price a round of `config`'s model for a population of `clients`
    /// and activate the communication subsystem on `cluster`: the
    /// spec's per-client links are installed (every latency path —
    /// rounds, profiling, deadlines — sees them) and the encoded upload
    /// is priced once (wire sizes are data-independent).
    ///
    /// # Panics
    /// Panics if the cluster has fewer devices than `clients`, or
    /// `config.clients_per_round` exceeds `clients`.
    #[must_use]
    pub fn activate(config: &SessionConfig, cluster: &mut Cluster, clients: usize) -> Self {
        Self::with_template(config, cluster, clients).0
    }

    /// [`TaskPricing::activate`], handing back the model it built so
    /// [`Session::new`] initialises the global weights from the same one.
    fn with_template(
        config: &SessionConfig,
        cluster: &mut Cluster,
        clients: usize,
    ) -> (Self, Sequential) {
        assert!(
            cluster.num_devices() >= clients,
            "cluster has {} devices for {clients} clients",
            cluster.num_devices(),
        );
        assert!(
            config.clients_per_round <= clients,
            "clients_per_round exceeds client count"
        );
        let template = config.model.build(config.seed);
        let upload_bytes = config.comm.map(|spec| {
            let device_bps: Vec<f64> = (0..cluster.num_devices())
                .map(|d| cluster.device(d).bandwidth_bps)
                .collect();
            cluster.set_links(spec.link.materialize(&device_bps));
            spec.codec.encoded_bytes(template.param_count())
        });
        let unit = TrainingTask {
            samples: 0,
            epochs: config.client.local_epochs,
            flops_per_sample: template.flops_per_sample(),
            update_bytes: template.update_bytes(),
            upload_bytes,
        };
        (Self { unit }, template)
    }

    /// The training task of a client holding `samples` training samples
    /// (feeds the latency model and the profiler).
    #[must_use]
    pub fn task(&self, samples: usize) -> TrainingTask {
        TrainingTask {
            samples,
            ..self.unit
        }
    }
}

/// One fully simulated round, before any local training has happened.
///
/// Everything here derives from the latency/dropout models and the
/// selector alone — client training results cannot influence it — so
/// *what* a round is never depends on how many threads execute its
/// training.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundPlan {
    /// Round index this plan was made for.
    pub round: u64,
    /// Every client asked to train, in selection order.
    pub selected: Vec<usize>,
    /// Observed response latency per selected client, in selection order
    /// (`None` = no response within `tmax_sec`).
    pub responses: Vec<(usize, Option<f64>)>,
    /// Clients whose updates will be aggregated, in the canonical
    /// aggregation order (selection order under [`AggregationMode::WaitAll`],
    /// response-time order under [`AggregationMode::FirstK`]). FedAvg's
    /// weighted mean is folded in exactly this order, so any executor
    /// reproducing it is bit-for-bit equivalent.
    pub contributors: Vec<usize>,
    /// Round latency `max_i L_i` (Eq. 1) in virtual seconds.
    pub latency: f64,
}

/// The federated training session: global model + testbed + data.
pub struct Session {
    data: Arc<FederatedDataset>,
    cluster: Cluster,
    config: SessionConfig,
    global: ParamVec,
    clock: VirtualClock,
    pricing: TaskPricing,
    round: u64,
    /// Reusable fold buffers (and encode buffers for a caller that
    /// encodes on this thread): at steady state a round's aggregation
    /// path allocates nothing.
    codec_scratch: EncodeScratch,
    /// Per-client error-feedback residuals for lossy codecs, lent to
    /// each contributor's training task and returned with its upload.
    feedback: ErrorFeedback,
    /// Reusable per-round aggregation-weight buffer.
    fold_weights: Vec<f32>,
    /// Optional host-time phase profiler (attached by
    /// `tifl_core::runner::Runner::run_observed`). Host time is
    /// operator-facing only: it never feeds the virtual clock, the
    /// reports, or any deterministic bytes.
    host_prof: Option<HostProfiler>,
}

impl Session {
    /// Create a session; initialises global weights from `config.seed`.
    ///
    /// Topology checks, model cost and comm activation are
    /// [`TaskPricing::activate`]'s — the same call data-free profiling
    /// makes — so a profile taken without a session prices every task
    /// exactly as this session's rounds will.
    ///
    /// The dataset is read-only for the session's whole life, so runs
    /// over one experiment can share a single `Arc` of it; a dataset
    /// passed by value becomes an `Arc` of its own.
    ///
    /// # Panics
    /// Panics if the cluster is smaller than the client count, or the
    /// model's input width does not match the data.
    #[must_use]
    pub fn new(
        data: impl Into<Arc<FederatedDataset>>,
        mut cluster: Cluster,
        config: SessionConfig,
    ) -> Self {
        let data = data.into();
        let (pricing, template) =
            TaskPricing::with_template(&config, &mut cluster, data.num_clients());
        assert_eq!(
            config.model.input_features(),
            data.global_test.features(),
            "model input width does not match dataset features"
        );
        Self {
            pricing,
            data,
            cluster,
            config,
            global: template.params(),
            clock: VirtualClock::new(),
            round: 0,
            codec_scratch: EncodeScratch::new(),
            feedback: ErrorFeedback::new(),
            fold_weights: Vec::new(),
            host_prof: None,
        }
    }

    /// Does nothing: nothing is recorded while a session trains (a
    /// finished run's trace is rebuilt from its report with
    /// [`Session::replan`]). Kept for the `tifl-benchmark` crate.
    pub fn attach_observer(&mut self, _observer: RunObserver) {}

    /// Always `None` (see [`Session::attach_observer`]). Kept for the
    /// `tifl-benchmark` crate.
    pub fn take_observer(&mut self) -> Option<RunObserver> {
        None
    }

    /// Attach a host-time phase profiler. Subsequent rounds attribute
    /// real seconds to the canonical phases (plan, train, encode,
    /// fold, eval). Durations come from the profiler's [`HostClock`];
    /// nothing simulated ever reads them.
    ///
    /// [`HostClock`]: tifl_obs::HostClock
    pub fn attach_host_profiler(&mut self, prof: HostProfiler) {
        self.host_prof = Some(prof);
    }

    /// Detach the host profiler (to harvest its spans and totals).
    pub fn take_host_profiler(&mut self) -> Option<HostProfiler> {
        self.host_prof.take()
    }

    /// Open a host-time phase (no-op stamp without a profiler). Public
    /// so `tifl_core::runner`'s re-profiling passes, which run between
    /// round segments, share the same profiler.
    #[must_use]
    pub fn host_begin(&self) -> f64 {
        self.host_prof.as_ref().map_or(0.0, HostProfiler::begin)
    }

    /// Close a host-time phase opened by [`Session::host_begin`]
    /// (no-op without a profiler).
    pub fn host_end(&mut self, phase: Phase, round: u64, start: f64) {
        if let Some(prof) = self.host_prof.as_mut() {
            prof.end(phase, round, start);
        }
    }

    /// Attribute host seconds measured off the coordinating thread (a
    /// deferred evaluation or a round's encodes, timed where they ran)
    /// to `phase` (no-op without a profiler).
    pub(crate) fn host_record(&mut self, phase: Phase, round: u64, dur_sec: f64) {
        if let Some(prof) = self.host_prof.as_mut() {
            prof.record(phase, round, dur_sec);
        }
    }

    /// The federated dataset.
    #[must_use]
    pub fn data(&self) -> &FederatedDataset {
        &self.data
    }

    /// What a task needs to train, encode or evaluate for this session
    /// off the coordinating thread: shared data, the training
    /// configuration, the upload codec, and the attached profiler's
    /// clock.
    pub(crate) fn train_context(&self) -> TrainContext {
        TrainContext {
            data: Arc::clone(&self.data),
            model: self.config.model,
            client: self.config.client,
            seed: self.config.seed,
            codec: self
                .config
                .comm
                .map_or(CodecSpec::Identity, |spec| spec.codec),
            host_clock: self.host_prof.as_ref().map(HostProfiler::clock),
        }
    }

    /// The simulated testbed.
    #[must_use]
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Session configuration.
    #[must_use]
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Current global parameters.
    #[must_use]
    pub fn global_params(&self) -> &ParamVec {
        &self.global
    }

    /// Current virtual time in seconds.
    #[must_use]
    pub fn now(&self) -> f64 {
        self.clock.now()
    }

    /// Rounds completed so far.
    #[must_use]
    pub fn rounds_done(&self) -> u64 {
        self.round
    }

    /// The training task client `c` would execute this round (feeds the
    /// latency model and the profiler).
    #[must_use]
    pub fn task_for(&self, c: usize) -> TrainingTask {
        self.pricing.task(self.data.clients[c].train.len())
    }

    /// Bytes one client uploads per round: the codec's exact wire size,
    /// or the dense `update_bytes` when no comm spec is active.
    #[must_use]
    pub fn upload_wire_bytes(&self) -> u64 {
        self.pricing.unit.upload()
    }

    /// Bytes one client downloads per round (the full-precision global
    /// model).
    #[must_use]
    pub fn download_wire_bytes(&self) -> u64 {
        self.pricing.unit.update_bytes
    }

    /// Evaluate the global model on the balanced global test set.
    #[must_use]
    pub fn evaluate_global(&self) -> EvalResult {
        self.train_context().evaluate(&self.global)
    }

    /// Per-class accuracy of the global model on the global test set —
    /// the bias diagnostic behind the paper's finding that aggressive
    /// fast-tier policies starve the classes held by slower tiers.
    #[must_use]
    pub fn evaluate_global_per_class(&self) -> Vec<Option<f64>> {
        let model = client::eval_model(&self.config.model, &self.global);
        let logits = model.infer(&self.data.global_test.x);
        tifl_nn::metrics::per_class_accuracy(&logits, &self.data.global_test.y, self.data.classes)
    }

    /// Accuracy of the global model on the union of each group's holdout
    /// sets (a tier's `TestData_t`, Algorithm 2 lines 22-24), in group
    /// order; a group without holdout rows scores 0.
    ///
    /// One pass serves every group. The groups' clients are cut, in
    /// order, into chunks of about 250 holdout rows (`EVAL_CHUNK_ROWS`);
    /// each chunk gathers its rows into a matrix of its own, runs them
    /// through one shared inference model, and counts the correct
    /// predictions of every group it holds. Chunks run in parallel at
    /// the ambient thread count. A row's logits do not depend on the
    /// rows beside it and the counts are integers, so every accuracy is
    /// the one a single pass over the group's concatenated holdouts
    /// gives, at any thread count. Chunks are cut from the holdouts'
    /// planned sizes, so a holdout not built yet is built by the chunk
    /// that gathers it, on that chunk's thread.
    #[must_use]
    pub fn evaluate_groups(&self, groups: &[Vec<usize>]) -> Vec<f64> {
        let holdout = |c: usize| &self.data.clients[c].test;
        // `(group, client)` pairs, cut into chunks.
        let mut chunks: Vec<Vec<(usize, usize)>> = Vec::new();
        let (mut chunk, mut rows) = (Vec::new(), 0);
        for (g, clients) in groups.iter().enumerate() {
            for &c in clients {
                chunk.push((g, c));
                rows += holdout(c).len();
                if rows >= EVAL_CHUNK_ROWS {
                    chunks.push(std::mem::take(&mut chunk));
                    rows = 0;
                }
            }
        }
        if !chunk.is_empty() {
            chunks.push(chunk);
        }
        let model = client::eval_model(&self.config.model, &self.global);
        let features = self.config.model.input_features();
        let counts: Vec<Vec<usize>> = chunks
            .par_iter()
            .map(|chunk| {
                let rows = chunk.iter().map(|&(_, c)| holdout(c).len()).sum();
                let mut x = Vec::with_capacity(rows * features);
                for &(_, c) in chunk {
                    x.extend_from_slice(holdout(c).x.as_slice());
                }
                let logits = model.infer(&Matrix::from_vec(rows, features, x));
                let mut correct = vec![0; groups.len()];
                let mut row = 0;
                for &(g, c) in chunk {
                    for &label in &holdout(c).y {
                        correct[g] += usize::from(ops::argmax(logits.row(row)) == label);
                        row += 1;
                    }
                }
                correct
            })
            .collect();
        groups
            .iter()
            .enumerate()
            .map(|(g, clients)| {
                let correct: usize = counts.iter().map(|chunk| chunk[g]).sum();
                let rows: usize = clients.iter().map(|&c| holdout(c).len()).sum();
                if rows == 0 {
                    0.0
                } else {
                    correct as f64 / rows as f64
                }
            })
            .collect()
    }

    /// Snapshot the session for checkpointing (no selector state; use
    /// [`Session::snapshot_with`] for stateful selectors).
    #[must_use]
    pub fn snapshot(&self) -> crate::checkpoint::Checkpoint {
        crate::checkpoint::Checkpoint {
            round: self.round,
            time: self.clock.now(),
            global: self.global.clone(),
            selector: None,
            residuals: self.feedback.residuals().clone(),
        }
    }

    /// Snapshot the session *and* the run's selector: stateful
    /// selectors (adaptive credits, probabilities, accuracy history)
    /// export their working set so a restored run replays bit-for-bit.
    #[must_use]
    pub fn snapshot_with(&self, selector: &dyn ClientSelector) -> crate::checkpoint::Checkpoint {
        crate::checkpoint::Checkpoint {
            selector: selector.export_state(),
            ..self.snapshot()
        }
    }

    /// Restore a snapshot taken from a session with the same config.
    /// Subsequent rounds replay exactly as if training never stopped
    /// (all per-round randomness is keyed by `(seed, client, round)`).
    ///
    /// # Panics
    /// Panics if the checkpoint's parameter count does not match the
    /// model.
    pub fn restore(&mut self, checkpoint: &crate::checkpoint::Checkpoint) {
        assert_eq!(
            checkpoint.global.len(),
            self.global.len(),
            "checkpoint does not match this session's model"
        );
        self.global = checkpoint.global.clone();
        self.clock.reset();
        self.clock.advance(checkpoint.time);
        self.round = checkpoint.round;
        self.feedback.install(checkpoint.residuals.clone());
    }

    /// Simulate the next round up to (but excluding) local training:
    /// select clients, sample their response latencies, and decide which
    /// updates will count and how long the round takes. Pure with
    /// respect to training — see [`RoundPlan`].
    ///
    /// # Panics
    /// Panics on an over-selection factor below 1, or if the selector
    /// returns no clients.
    pub fn plan_round(&self, selector: &mut dyn ClientSelector) -> RoundPlan {
        let round = self.round;
        let target = self.config.clients_per_round;
        let ask = self.config.aggregation.ask(target, self.data.num_clients());
        let selected = selector.select(round, ask);
        assert!(!selected.is_empty(), "selector returned no clients");
        let responses = self.responses(round, &selected);

        // Which updates count, and how long the round takes.
        let (contributors, latency) = match self.config.aggregation {
            AggregationMode::WaitAll => {
                // Synchronous FL: wait for everyone; non-responders cost
                // Tmax (Eq. 1).
                let latency = responses
                    .iter()
                    .map(|(_, l)| l.unwrap_or(self.config.tmax_sec))
                    .fold(0.0f64, f64::max);
                let contributors: Vec<usize> = responses
                    .iter()
                    .filter_map(|&(c, l)| l.map(|_| c))
                    .collect();
                (contributors, latency)
            }
            AggregationMode::FirstK { .. } => {
                // Over-selection: take the `target` fastest responders;
                // the round ends when the last of them reports.
                let mut ok: Vec<(usize, f64)> = responses
                    .iter()
                    .filter_map(|&(c, l)| l.map(|l| (c, l)))
                    .collect();
                ok.sort_by(|a, b| a.1.total_cmp(&b.1));
                ok.truncate(target);
                let latency = ok.last().map_or(self.config.tmax_sec, |&(_, l)| l);
                (ok.into_iter().map(|(c, _)| c).collect(), latency)
            }
        };

        // Hierarchical aggregation: the master/child combine cost rides
        // on top of the slowest client, in the same transfer-seconds
        // units as every link (children absorb encoded uploads, the
        // master absorbs dense partials).
        let latency = match self.config.comm.and_then(|spec| spec.hierarchy) {
            Some(h) => {
                let (up, down) = (self.upload_wire_bytes(), self.download_wire_bytes());
                latency + h.combine_latency(contributors.len(), up, down)
            }
            None => latency,
        };

        RoundPlan {
            round,
            selected,
            responses,
            contributors,
            latency,
        }
    }

    /// Observed response latency of every `selected` client in `round`,
    /// in selection order (`None` = did not respond within Tmax).
    fn responses(&self, round: u64, selected: &[usize]) -> Vec<(usize, Option<f64>)> {
        selected
            .iter()
            .map(|&c| {
                let l = self
                    .cluster
                    .response(c, round, &self.task_for(c))
                    .filter(|&l| l <= self.config.tmax_sec);
                (c, l)
            })
            .collect()
    }

    /// The plan a finished round ran: its selection, contributors and
    /// latency from `report`, its responses resampled. A response is a
    /// pure function of (seed, client, round, task), so on a session of
    /// the same configuration this equals the plan
    /// [`Session::plan_round`] made, whatever the session has trained.
    #[must_use]
    pub fn replan(&self, report: &RoundReport) -> RoundPlan {
        RoundPlan {
            round: report.round,
            selected: report.selected.clone(),
            responses: self.responses(report.round, &report.selected),
            contributors: report.aggregated.clone(),
            latency: report.latency,
        }
    }

    /// Train one contributing client of `round` against the current
    /// global model. Deterministic in `(seed, client, round)`.
    #[must_use]
    pub fn train_contributor(&self, c: usize, round: u64) -> ClientUpdate {
        self.train_context().train(c, round, &self.global)
    }

    /// True when the global model is evaluated after `round`
    /// ([`SessionConfig::is_eval_round`]).
    #[must_use]
    pub fn is_eval_round(&self, round: u64) -> bool {
        self.config.is_eval_round(round)
    }

    /// Commit a planned round: advance the clock by the plan's latency,
    /// install the aggregated model (if any update arrived), evaluate
    /// when due, feed monitored-group accuracies back to the selector,
    /// and record the round.
    ///
    /// `eval_inline: false` skips the global-test evaluation and leaves
    /// `accuracy`/`loss` unset — for [`Session::run_rounds`], which
    /// evaluates the round's (immutable) global snapshot concurrently
    /// with later rounds and patches the report afterwards. Monitored-group
    /// evaluation is never deferred: the selector may need it before
    /// the next selection. It is one [`Session::evaluate_groups`] pass
    /// at the ambient thread count, and one `Phase::Eval` host span, on
    /// every round the selector asks for but the configured horizon's
    /// last ([`SessionConfig::rounds`]` - 1`): no selection follows that
    /// round to read it.
    pub fn finish_round(
        &mut self,
        plan: RoundPlan,
        new_global: Option<ParamVec>,
        selector: &mut dyn ClientSelector,
        eval_inline: bool,
    ) -> RoundReport {
        let RoundPlan {
            round,
            selected,
            contributors,
            latency,
            ..
        } = plan;
        self.clock.advance(latency);
        if let Some(global) = new_global {
            assert_eq!(global.len(), self.global.len(), "aggregated model size");
            let old = std::mem::replace(&mut self.global, global);
            // The displaced model's buffer becomes next round's fold
            // accumulator.
            self.codec_scratch.recycle_dense(old);
        }

        let (accuracy, loss) = if eval_inline && self.is_eval_round(round) {
            let t_eval = self.host_begin();
            let e = self.evaluate_global();
            self.host_end(Phase::Eval, round, t_eval);
            (Some(e.accuracy), Some(e.loss))
        } else {
            (None, None)
        };

        // Feed monitored-group accuracies back to the selector, up to
        // the horizon: no selection round follows the last one to read
        // what it would observe.
        let groups = (round + 1 != self.config.rounds)
            .then(|| selector.monitored_groups(round))
            .flatten();
        if let Some(groups) = groups {
            let t_eval = self.host_begin();
            let accs = self.evaluate_groups(&groups);
            self.host_end(Phase::Eval, round, t_eval);
            selector.observe(round, &accs);
        }

        self.round += 1;
        RoundReport {
            round,
            time: self.clock.now(),
            latency,
            // Every selected client downloads the global model; every
            // aggregated contributor's (encoded) update crossed the
            // uplink. Both derive from the plan alone.
            bytes_down: self.download_wire_bytes() * selected.len() as u64,
            bytes_up: self.upload_wire_bytes() * contributors.len() as u64,
            selected,
            aggregated: contributors,
            accuracy,
            loss,
        }
    }

    // -- low-level hooks for callers driving the phases themselves --------

    /// Replace the global model (a caller folding outside
    /// [`Session::run_rounds`] commits through this).
    ///
    /// # Panics
    /// Panics if the parameter count does not match the model.
    pub fn set_global_params(&mut self, params: ParamVec) {
        assert_eq!(params.len(), self.global.len(), "global model size");
        let old = std::mem::replace(&mut self.global, params);
        self.codec_scratch.recycle_dense(old);
    }

    /// Disjoint borrows of the error-feedback state and the encode
    /// scratch arena, for callers that drive the phases themselves:
    /// encoding on this thread with [`ErrorFeedback::encode`], or
    /// lending residuals out and taking them back as
    /// [`Session::run_rounds`] does.
    pub fn codec_state_mut(&mut self) -> (&mut ErrorFeedback, &mut EncodeScratch) {
        (&mut self.feedback, &mut self.codec_scratch)
    }

    /// Pooled zeroed accumulator sized for the global model (feeds
    /// `StreamingFold::with_acc`; the buffer cycles back through
    /// [`Session::finish_round`] / [`Session::set_global_params`]).
    #[must_use]
    pub fn take_fold_acc(&mut self) -> ParamVec {
        let n = self.global.len();
        self.codec_scratch.take_zeroed(n)
    }

    // -- the round loop -----------------------------------------------------

    /// Open the streaming fold of a round over `contributors` (the
    /// plan's canonical aggregation order). The fold's total weight is
    /// known before any client finishes — sample counts come from the
    /// data alone — and its accumulator comes from the session's pool.
    #[must_use]
    pub fn begin_fold(&mut self, contributors: &[usize]) -> StreamingFold {
        let acc = self.take_fold_acc();
        self.fold_weights.clear();
        self.fold_weights.extend(
            contributors
                .iter()
                .map(|&c| self.data.clients[c].train.len() as f32),
        );
        StreamingFold::with_acc(acc, &self.fold_weights)
    }

    /// Execute `rounds` rounds on `threads` threads (0 = the ambient
    /// rayon parallelism) and return their reports — the one round loop
    /// behind [`Session::run`], [`Session::run_round`] and every
    /// `tifl_core` execution backend.
    ///
    /// Contributors train on the crate's client executor, each upload
    /// folds the moment its canonical predecessor has (an ordered merge
    /// into a [`StreamingFold`]), and the global-test evaluation of a
    /// finished round is deferred onto the executor so it overlaps the
    /// next round's training. Every upload is an `EncodedUpdate`
    /// folded with [`StreamingFold::fold_encoded`]: under Identity the
    /// trained weights themselves, moved; under a lossy codec the
    /// payload the task encoded where it trained, against the
    /// contributor's error-feedback residual, which it was lent and
    /// which comes back with the payload. Each client's result depends only
    /// on `(seed, client, round)` and its residual, a client trains at
    /// most once per round, and folds happen in plan order, so the
    /// reports and weights are bit-for-bit the same for any `threads`;
    /// on one thread every task simply runs inline when submitted.
    ///
    /// Host attribution per round: `Plan`; `Train` from dispatch to the
    /// last fold; under a lossy codec one `Encode` span carrying the
    /// seconds the round's encodes took on the workers (they overlap
    /// `Train`); `Fold` for the final resolve.
    ///
    /// # Panics
    /// A panic inside a training or evaluation task ends the run on the
    /// calling thread with that task's own message, at any `threads`.
    pub fn run_rounds(
        &mut self,
        selector: &mut dyn ClientSelector,
        rounds: u64,
        threads: usize,
    ) -> Vec<RoundReport> {
        let ctx = self.train_context();
        let lossy = ctx.codec != CodecSpec::Identity;
        ClientExecutor::new(threads).run(&ctx, |queue, results| {
            let mut reports: Vec<RoundReport> = Vec::with_capacity(rounds as usize);
            let mut evals = DeferredEvals::default();
            // The committed model, shared with the tasks: each round's
            // training base is the previous round's evaluation snapshot.
            let mut global = Arc::new(self.global.clone());
            for _ in 0..rounds {
                let t_plan = self.host_begin();
                let plan = self.plan_round(selector);
                self.host_end(Phase::Plan, plan.round, t_plan);

                let mut fold = self.begin_fold(&plan.contributors);
                let t_train = self.host_begin();
                for (slot, &c) in plan.contributors.iter().enumerate() {
                    let residual = lossy.then(|| self.feedback.lend(c, global.len()));
                    queue.submit_train(slot as u64, c, plan.round, Arc::clone(&global), residual);
                }
                let mut merge = OrderedMerge::new();
                let mut encode_sec = 0.0;
                // Count reports, not folds: a contributor that died on
                // a worker reports its panic, and once all have
                // reported the lowest slot's is re-raised here.
                let mut dead = BTreeMap::new();
                let mut reported = 0;
                while reported < plan.contributors.len() {
                    match results.recv().expect("the work queue holds a sender") {
                        TaskResult::Update { tag, upload } => {
                            reported += 1;
                            merge.push(tag as usize, upload, |upload: Upload| {
                                fold.fold_encoded(&upload.payload, upload.samples);
                                if let Some(residual) = upload.residual {
                                    self.feedback.give_back(upload.client, residual);
                                }
                                encode_sec += upload.host_sec;
                            });
                        }
                        TaskResult::Panicked {
                            tag: TaskTag::Train(slot),
                            payload,
                        } => {
                            reported += 1;
                            dead.insert(slot, payload);
                        }
                        eval => evals.land(eval),
                    }
                }
                if let Some((_, payload)) = dead.pop_first() {
                    std::panic::resume_unwind(payload);
                }
                self.host_end(Phase::Train, plan.round, t_train);
                let round = plan.round;
                if lossy && !plan.contributors.is_empty() {
                    self.host_record(Phase::Encode, round, encode_sec);
                }

                let t_fold = self.host_begin();
                let new_global = fold.finish_against(&self.global);
                self.host_end(Phase::Fold, round, t_fold);
                let report = self.finish_round(plan, new_global, selector, false);
                global = Arc::new(self.global.clone());
                if self.is_eval_round(round) {
                    evals.submit(queue, reports.len(), Arc::clone(&global));
                }
                reports.push(report);
            }
            evals.finish(results, self, &mut reports);
            reports
        })
    }

    /// Execute one global round at the ambient thread count and return
    /// its (evaluated) record.
    pub fn run_round(&mut self, selector: &mut dyn ClientSelector) -> RoundReport {
        self.run_rounds(selector, 1, 0)
            .pop()
            .expect("one round ran")
    }

    /// Run the remaining configured rounds at the ambient thread count
    /// and collect the full report.
    pub fn run(&mut self, selector: &mut dyn ClientSelector) -> TrainingReport {
        let remaining = self.config.rounds - self.round;
        TrainingReport {
            policy: selector.name(),
            rounds: self.run_rounds(selector, remaining, 0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selector::RandomSelector;
    use tifl_data::partition;
    use tifl_data::synth::{Generator, SynthFamily, SynthSpec};
    use tifl_sim::resource::profiles;
    use tifl_sim::ClusterConfig;
    use tifl_tensor::seed_rng;

    fn small_session(rounds: u64, seed: u64) -> Session {
        let gen = Generator::new(SynthSpec::family(SynthFamily::Mnist), seed);
        let part = partition::iid(10, 60, 10, &mut seed_rng(seed));
        let fed = FederatedDataset::materialize(&gen, &part, 0.2, 20, seed);
        let mut ccfg = ClusterConfig::equal_groups(10, &profiles::MNIST, seed);
        // Make compute dominate latency for the tiny test model so the
        // hardware-ordering assertions are meaningful.
        ccfg.latency.flops_per_cpu_sec = 1.0e5;
        ccfg.latency.base_overhead_sec = 0.0;
        let cluster = Cluster::new(&ccfg);
        let config = SessionConfig {
            model: ModelSpec::Mlp {
                input: 64,
                hidden: 32,
                classes: 10,
            },
            client: ClientConfig::paper_synthetic(),
            clients_per_round: 3,
            rounds,
            eval_every: 1,
            tmax_sec: 1e9,
            aggregation: AggregationMode::WaitAll,
            comm: None,
            seed,
        };
        Session::new(fed, cluster, config)
    }

    #[test]
    fn run_produces_one_report_per_round() {
        let mut s = small_session(5, 0);
        let mut sel = RandomSelector::new(10, 0);
        let report = s.run(&mut sel);
        assert_eq!(report.rounds.len(), 5);
        assert!(report.rounds.iter().all(|r| r.selected.len() == 3));
    }

    #[test]
    fn replan_rebuilds_every_round_of_a_first_k_run_with_timeouts() {
        let build = |tmax_sec| {
            let mut s = small_session(8, 3);
            s.config.aggregation = AggregationMode::FirstK { factor: 2.0 };
            s.config.tmax_sec = tmax_sec;
            s
        };
        // A Tmax at the median response leaves about half the asked
        // clients without a response.
        let probe = build(1e9);
        let mut latencies: Vec<f64> = (0..10)
            .filter_map(|c| probe.cluster.response(c, 0, &probe.task_for(c)))
            .collect();
        latencies.sort_by(f64::total_cmp);
        let tmax = latencies[latencies.len() / 2];

        let mut trained = build(tmax);
        let report = trained.run(&mut RandomSelector::new(10, 1));
        let mut planner = build(tmax);
        let mut sel = RandomSelector::new(10, 1);
        let mut timeouts = 0;
        for r in &report.rounds {
            let plan = planner.plan_round(&mut sel);
            timeouts += plan.responses.iter().filter(|(_, l)| l.is_none()).count();
            assert_eq!(trained.replan(r), plan, "round {}", r.round);
            let _ = planner.finish_round(plan, None, &mut sel, false);
        }
        assert!(timeouts > 0, "the run must time some clients out");
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut s = small_session(5, 1);
        let mut sel = RandomSelector::new(10, 1);
        let report = s.run(&mut sel);
        for w in report.rounds.windows(2) {
            assert!(w[1].time > w[0].time);
        }
        assert!(
            (report.total_time() - report.rounds.iter().map(|r| r.latency).sum::<f64>()).abs()
                < 1e-9
        );
    }

    #[test]
    fn training_improves_accuracy_over_rounds() {
        let mut s = small_session(40, 2);
        let initial = s.evaluate_global().accuracy; // untrained model
        let mut sel = RandomSelector::new(10, 2);
        let report = s.run(&mut sel);
        let last = report.final_accuracy();
        assert!(
            initial < 0.3,
            "untrained model should be near chance, got {initial}"
        );
        assert!(
            last > 0.7,
            "federated training did not learn: {initial} -> {last}"
        );
    }

    #[test]
    fn session_is_deterministic() {
        let run = |seed| {
            let mut s = small_session(8, seed);
            let mut sel = RandomSelector::new(10, seed);
            s.run(&mut sel)
        };
        assert_eq!(run(3), run(3));
    }

    #[test]
    fn wait_all_aggregates_every_responder() {
        let mut s = small_session(5, 10);
        let mut sel = RandomSelector::new(10, 10);
        let report = s.run(&mut sel);
        for r in &report.rounds {
            let mut sel_sorted = r.selected.clone();
            sel_sorted.sort_unstable();
            let mut agg_sorted = r.aggregated.clone();
            agg_sorted.sort_unstable();
            assert_eq!(
                sel_sorted, agg_sorted,
                "no dropouts: all selected aggregate"
            );
        }
        assert_eq!(report.discarded_work_fraction(), 0.0);
    }

    #[test]
    fn over_selection_discards_stragglers() {
        let mut s = small_session(12, 11);
        s.config.aggregation = AggregationMode::FirstK { factor: 2.0 };
        let mut sel = RandomSelector::new(10, 11);
        let report = s.run(&mut sel);
        for r in &report.rounds {
            assert_eq!(r.selected.len(), 6, "asks 2x the target");
            assert_eq!(r.aggregated.len(), 3, "aggregates only the target");
            assert!(r.aggregated.iter().all(|c| r.selected.contains(c)));
        }
        assert!((report.discarded_work_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn over_selection_reduces_round_latency() {
        // The k-th fastest of 2k clients is stochastically below the max
        // of k clients — over-selection should cut round latency on a
        // heterogeneous cluster.
        let run = |mode| {
            let mut s = small_session(20, 12);
            s.config.aggregation = mode;
            let mut sel = RandomSelector::new(10, 12);
            s.run(&mut sel).total_time()
        };
        let wait_all = run(AggregationMode::WaitAll);
        let first_k = run(AggregationMode::FirstK { factor: 2.0 });
        assert!(
            first_k < wait_all,
            "over-selection ({first_k}) should be faster than wait-all ({wait_all})"
        );
    }

    #[test]
    fn over_selection_latency_is_kth_fastest() {
        let mut s = small_session(1, 13);
        s.config.aggregation = AggregationMode::FirstK { factor: 2.0 };
        let mut sel = RandomSelector::new(10, 13);
        let r = s.run_round(&mut sel);
        // The reported latency equals the slowest *aggregated* client,
        // not the slowest selected one.
        let agg_latencies: Vec<f64> = r
            .aggregated
            .iter()
            .map(|&c| s.cluster.response(c, 0, &s.task_for(c)).unwrap())
            .collect();
        let max_agg = agg_latencies.iter().copied().fold(0.0f64, f64::max);
        assert!((r.latency - max_agg).abs() < 1e-12);
    }

    #[test]
    fn overrides_apply_only_what_they_set() {
        let base = small_session(1, 0).config;
        let same = base.with_overrides(&SessionOverrides::default());
        assert_eq!(same, base);

        let changed = base.with_overrides(&SessionOverrides {
            aggregation: Some(AggregationMode::FirstK { factor: 1.3 }),
            proximal_mu: Some(0.5),
            comm: Some(CommSpec::default()),
        });
        assert_eq!(changed.aggregation, AggregationMode::FirstK { factor: 1.3 });
        assert_eq!(changed.client.proximal_mu, 0.5);
        assert_eq!(changed.comm, Some(CommSpec::default()));
        // Everything else is untouched.
        assert_eq!(changed.model, base.model);
        assert_eq!(changed.seed, base.seed);
    }

    /// `small_session` with a communication spec installed through the
    /// constructor (so links and upload pricing activate).
    fn comm_session(rounds: u64, seed: u64, comm: Option<CommSpec>) -> Session {
        let config = SessionConfig {
            comm,
            ..small_session(rounds, seed).config
        };
        let gen = Generator::new(SynthSpec::family(SynthFamily::Mnist), seed);
        let part = partition::iid(10, 60, 10, &mut seed_rng(seed));
        let fed = FederatedDataset::materialize(&gen, &part, 0.2, 20, seed);
        let mut ccfg = ClusterConfig::equal_groups(10, &profiles::MNIST, seed);
        ccfg.latency.flops_per_cpu_sec = 1.0e5;
        ccfg.latency.base_overhead_sec = 0.0;
        Session::new(fed, Cluster::new(&ccfg), config)
    }

    #[test]
    fn default_comm_spec_is_bit_for_bit_legacy() {
        // Identity codec over the cluster-default link model must not
        // perturb anything: reports, times, weights — all identical.
        let run = |comm: Option<CommSpec>| {
            let mut s = comm_session(6, 21, comm);
            let mut sel = RandomSelector::new(10, 21);
            let report = s.run(&mut sel);
            (report, s.global_params().clone())
        };
        let (legacy_report, legacy_weights) = run(None);
        let (comm_report, comm_weights) = run(Some(CommSpec::default()));
        assert_eq!(legacy_report, comm_report);
        assert_eq!(legacy_weights, comm_weights);
    }

    #[test]
    fn compressed_sessions_report_fewer_uplink_bytes() {
        use tifl_comm::CodecSpec;
        let run = |codec: CodecSpec| {
            let mut s = comm_session(4, 22, Some(CommSpec::with_codec(codec)));
            let mut sel = RandomSelector::new(10, 22);
            s.run(&mut sel)
        };
        let identity = run(CodecSpec::Identity);
        let quant = run(CodecSpec::QuantizeI8);
        let topk = run(CodecSpec::TopK { frac: 0.1 });
        assert!(identity.total_bytes_up() > 0);
        assert!(quant.total_bytes_up() < identity.total_bytes_up());
        assert!(topk.total_bytes_up() < identity.total_bytes_up());
        // The downlink still ships the dense model.
        assert_eq!(quant.total_bytes_down(), identity.total_bytes_down());
        // Quantized rounds are faster in virtual time (smaller uploads).
        assert!(quant.total_time() < identity.total_time());
    }

    #[test]
    fn eval_every_skips_rounds() {
        let mut s = small_session(10, 4);
        s.config.eval_every = 5;
        let mut sel = RandomSelector::new(10, 4);
        let report = s.run(&mut sel);
        let evaluated: Vec<u64> = report
            .rounds
            .iter()
            .filter(|r| r.accuracy.is_some())
            .map(|r| r.round)
            .collect();
        assert_eq!(evaluated, vec![0, 5, 9]); // 0, 5, and forced final
    }

    #[test]
    fn evaluate_groups_uses_holdouts() {
        let s = small_session(1, 5);
        let accs = s.evaluate_groups(&[vec![0, 1, 2], vec![]]);
        assert_eq!(accs.len(), 2);
        assert!((0.0..=1.0).contains(&accs[0]));
        assert_eq!(accs[1], 0.0);
        assert!(s.evaluate_groups(&[]).is_empty());
    }

    /// Selects the same clients every round.
    struct Fixed(Vec<usize>);

    impl ClientSelector for Fixed {
        fn name(&self) -> String {
            "fixed".to_string()
        }

        fn select(&mut self, _round: u64, _count: usize) -> Vec<usize> {
            self.0.clone()
        }
    }

    #[test]
    fn slower_hardware_dominates_round_latency() {
        // All clients on device group 5 (0.25 CPU) must yield slower
        // rounds than all on group 1 (2 CPUs).
        let s = small_session(1, 6);
        let latency = |clients: &[usize]| s.plan_round(&mut Fixed(clients.to_vec())).latency;
        let (lf, ls) = (latency(&[0, 1]), latency(&[8, 9]));
        assert!(ls > 2.0 * lf, "fast {lf}, slow {ls}");
    }

    #[test]
    fn round_latency_is_max_of_members() {
        // A round waits for its slowest member (Eq. 1): mixing a fast
        // and a slow client gives the slow client's response latency.
        let s = small_session(1, 6);
        let plan = s.plan_round(&mut Fixed(vec![0, 9]));
        let l9 = s.cluster().response(9, 0, &s.task_for(9)).unwrap();
        let l0 = s.cluster().response(0, 0, &s.task_for(0)).unwrap();
        assert!(l9 > l0, "fast {l0}, slow {l9}");
        assert!(
            (plan.latency - l9).abs() < 1e-9,
            "round latency {} should equal slowest member {l9}",
            plan.latency
        );
    }

    #[test]
    fn dropouts_are_charged_tmax() {
        let mut s = small_session(1, 6);
        s.config.tmax_sec = 123.0;
        let mut dropout = tifl_sim::dropout::DropoutModel::always_available(10, 0);
        dropout.kill(&[5]);
        s.cluster.set_dropout(dropout);
        let plan = s.plan_round(&mut Fixed(vec![5]));
        assert_eq!(plan.responses, vec![(5, None)]);
        assert!(plan.contributors.is_empty());
        assert_eq!(plan.latency, 123.0);
    }
}
