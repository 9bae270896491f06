//! The three federated-learning workloads (`paper_policies`,
//! `comm_wide`, `population_event`): definitions, set-up, the timed
//! unit, and the traced unit that drives each round through
//! `Session`'s public phase functions.

use crate::spans::Tracer;
use crate::Unit;
use rayon::prelude::*;
use std::cell::RefCell;
use std::sync::Arc;
use tifl_comm::{CodecSpec, CommSpec, LinkModel};
use tifl_core::experiment::{DataScenario, ExperimentConfig};
use tifl_core::runner::{Experiment, RunSpec, Runner, SelectionStrategy};
use tifl_core::{
    AdaptiveConfig, AdaptiveTierSelector, EventEngine, ExecBackend, Policy, StaticTierSelector,
    TierAssignment,
};
use tifl_data::FederatedDataset;
use tifl_fl::checkpoint::SelectorState;
use tifl_fl::session::{AggregationMode, SessionOverrides};
use tifl_fl::{
    Checkpoint, ClientSelector, ClientUpdate, RandomSelector, Session, StreamingFold,
    TrainingReport,
};
use tifl_nn::models::ModelSpec;
use tifl_obs::{HostClock, HostProfiler, Phase, RunObserver};
use tifl_tensor::split_seed;

/// One training run of a workload: an experiment, a selection
/// strategy and an execution backend.
pub struct RunDef {
    pub name: &'static str,
    pub cfg: ExperimentConfig,
    pub selection: SelectionStrategy,
    pub backend: ExecBackend,
}

impl RunDef {
    /// The same run as the program's own entry point would execute it.
    pub fn reference(&self) -> TrainingReport {
        let spec = RunSpec {
            selection: self.selection.clone(),
            backend: self.backend,
            ..RunSpec::default()
        };
        Runner::with_spec(&self.cfg, spec).run()
    }
}

fn tier(policy: Policy) -> SelectionStrategy {
    SelectionStrategy::TierPolicy { policy }
}

/// The paper's §5.2.2 resource-heterogeneity experiment (Fig. 3
/// column 1), one run per selection policy.
pub fn paper_policies(seed: u64, quick: bool) -> Vec<RunDef> {
    let mut cfg = ExperimentConfig::cifar10_resource_het(seed);
    cfg.rounds = if quick { 6 } else { 30 };
    [
        ("vanilla", SelectionStrategy::Vanilla),
        ("uniform", tier(Policy::uniform(5))),
        ("fast", tier(Policy::fast(5))),
        ("adaptive", SelectionStrategy::Adaptive { config: None }),
    ]
    .into_iter()
    .map(|(name, selection)| RunDef {
        name,
        cfg: cfg.clone(),
        selection,
        backend: ExecBackend::Lockstep,
    })
    .collect()
}

/// Cross-device shape — a big update and little local data — once per
/// codec, over bandwidth-tiered links.
pub fn comm_wide(seed: u64, quick: bool) -> Vec<RunDef> {
    let (clients, per_round, rounds, hidden) = if quick {
        (20, 4, 3, 64)
    } else {
        (200, 40, 6, 2048)
    };
    let mut cfg = ExperimentConfig::cifar10_resource_het(seed);
    cfg.num_clients = clients;
    cfg.clients_per_round = per_round;
    cfg.rounds = rounds;
    cfg.data = DataScenario::Iid { per_client: 6 };
    cfg.model = ModelSpec::Mlp {
        input: 64,
        hidden,
        classes: 10,
    };
    cfg.eval_every = 50;
    [
        ("identity", CodecSpec::Identity),
        ("i8", CodecSpec::QuantizeI8),
        ("topk", CodecSpec::TopK { frac: 0.1 }),
    ]
    .into_iter()
    .map(|(name, codec)| {
        let mut cfg = cfg.clone();
        cfg.comm = Some(CommSpec {
            codec,
            link: LinkModel::GroupScaled {
                groups: 5,
                up_bps: 1e5,
                down_bps: 1e6,
                decay: 0.5,
                rtt_sec: 0.02,
            },
            hierarchy: None,
        });
        // Vanilla selection, not a tier policy: with 40 of 200 per
        // round a tier policy takes whole 40-client tiers, so the
        // number of distinct clients — and with it the error-feedback
        // memory and the simulated time — would swing with the seed.
        RunDef {
            name,
            cfg,
            selection: SelectionStrategy::Vanilla,
            backend: ExecBackend::Lockstep,
        }
    })
    .collect()
}

/// Over-selection factor of `population_event` (Bonawitz et al.).
pub const OVERSELECT: f64 = 1.3;

/// A large population on the event-driven engine with adaptive
/// selection and over-selection.
pub fn population_event(seed: u64, quick: bool, threads: usize) -> Vec<RunDef> {
    let (clients, per_round, rounds) = if quick { (100, 10, 5) } else { (5000, 50, 30) };
    let mut cfg = ExperimentConfig::cifar10_resource_het(seed);
    cfg.num_clients = clients;
    cfg.clients_per_round = per_round;
    cfg.rounds = rounds;
    cfg.data = DataScenario::Iid { per_client: 100 };
    cfg.eval_every = 10;
    cfg.aggregation = AggregationMode::FirstK { factor: OVERSELECT };
    vec![RunDef {
        name: "adaptive+overselect",
        cfg,
        selection: SelectionStrategy::Adaptive { config: None },
        backend: ExecBackend::EventDriven { threads },
    }]
}

/// A run made ready: session built, tiers profiled, round-0 snapshot
/// taken so the unit can be repeated without rebuilding the data.
pub struct Prepared {
    pub def: RunDef,
    pub session: Session,
    start: Checkpoint,
    tiers: Option<TierAssignment>,
}

/// Host seconds of the set-up steps, summed over the workload's runs.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    pub session_build_s: f64,
    pub profile_s: f64,
}

/// Build every run's session, profile and tier (§4.2) once per
/// distinct experiment, and warm up with a tenth of the rounds.
pub fn setup(defs: Vec<RunDef>, clock: &dyn HostClock) -> (Vec<Prepared>, SetupTimes) {
    let mut times = SetupTimes::default();
    let mut prepared: Vec<Prepared> = Vec::with_capacity(defs.len());
    for def in defs {
        let t0 = clock.now_sec();
        let session = def.cfg.build_session(&SessionOverrides::default());
        let t1 = clock.now_sec();
        let tiers = if def.selection.is_vanilla() {
            None
        } else {
            let shared = prepared
                .iter()
                .find(|p| p.def.cfg == def.cfg)
                .and_then(|p| p.tiers.clone());
            Some(shared.unwrap_or_else(|| def.cfg.runner().profile().0.clone()))
        };
        times.session_build_s += t1 - t0;
        times.profile_s += clock.now_sec() - t1;
        let start = session.snapshot();
        prepared.push(Prepared {
            def,
            session,
            start,
            tiers,
        });
    }
    for p in &mut prepared {
        let warm = p.def.cfg.rounds.div_ceil(10);
        let mut selector = p.selector();
        match p.def.backend {
            ExecBackend::Lockstep => {
                for _ in 0..warm {
                    let _ = p.session.run_round(selector.as_mut());
                }
            }
            ExecBackend::EventDriven { threads } => {
                let _ =
                    EventEngine::new(threads).run_rounds(&mut p.session, selector.as_mut(), warm);
            }
        }
    }
    (prepared, times)
}

impl Prepared {
    /// The profiled tiers (`None` for vanilla selection).
    pub fn tiers(&self) -> Option<&TierAssignment> {
        self.tiers.as_ref()
    }

    /// The selector `Runner` would build for this run (same seed
    /// stream, same defaults); the traced unit's digest check against
    /// [`RunDef::reference`] is what holds the two together.
    fn selector(&self) -> Box<dyn ClientSelector> {
        let seed = split_seed(self.def.cfg.seed, 0x5E1EC7);
        let tiers = || {
            self.tiers
                .clone()
                .expect("tiered runs are profiled in setup")
        };
        match &self.def.selection {
            s if s.is_vanilla() => Box::new(RandomSelector::new(self.def.cfg.num_clients, seed)),
            SelectionStrategy::TierPolicy { policy } => {
                Box::new(StaticTierSelector::new(tiers(), policy.clone(), seed))
            }
            SelectionStrategy::Adaptive { config } => {
                let tiers = tiers();
                let config = config.unwrap_or_else(|| {
                    AdaptiveConfig::for_run(self.def.cfg.rounds, tiers.num_tiers())
                });
                Box::new(AdaptiveTierSelector::new(tiers, config, seed))
            }
            other => unreachable!("no workload selects with {other:?}"),
        }
    }

    /// A host profiler sized as `Runner::run_observed` sizes its own (a
    /// handful of spans per round), on the benchmark's clock so its
    /// spans share a timeline with the benchmark's.
    fn host_profiler(&self, clock: &Arc<dyn HostClock>) -> HostProfiler {
        let rounds = self.def.cfg.rounds as usize;
        HostProfiler::with_clock(8 * rounds + 16, Arc::clone(clock))
    }

    /// Rewind to round 0 and run all rounds on the program's own loop.
    fn run_plain(&mut self) -> TrainingReport {
        self.session.restore(&self.start);
        let mut selector = self.selector();
        match self.def.backend {
            ExecBackend::Lockstep => self.session.run(selector.as_mut()),
            ExecBackend::EventDriven { threads } => {
                EventEngine::new(threads).run(&mut self.session, selector.as_mut())
            }
        }
    }

    /// As [`Prepared::run_plain`] with the program's observer and host
    /// profiler attached (what `Runner::run_observed` adds to a run).
    fn run_observed(&mut self, clock: &Arc<dyn HostClock>) -> TrainingReport {
        self.session.attach_observer(RunObserver::new(0));
        self.session.attach_host_profiler(self.host_profiler(clock));
        let report = self.run_plain();
        let _ = self.session.take_observer();
        let _ = self.session.take_host_profiler();
        report
    }
}

/// One pass over the workload's runs on the program's own loops.
pub fn plain_unit(prepared: &mut [Prepared]) -> Vec<TrainingReport> {
    prepared.iter_mut().map(Prepared::run_plain).collect()
}

/// One pass with the program's own observation attached.
pub fn observed_unit(prepared: &mut [Prepared], clock: &Arc<dyn HostClock>) -> Vec<TrainingReport> {
    prepared.iter_mut().map(|p| p.run_observed(clock)).collect()
}

/// What a traced unit measured besides its spans.
#[derive(Debug, Default)]
pub struct TracedUnit {
    pub reports: Vec<TrainingReport>,
    /// Wall milliseconds of every round.
    pub round_ms: Vec<f64>,
    /// Σ per-client training busy seconds (Lockstep runs only).
    pub train_busy_s: f64,
}

/// One pass with every layer boundary timed from outside.
pub fn traced_unit(
    prepared: &mut [Prepared],
    tracer: &mut Tracer,
    clock: &Arc<dyn HostClock>,
) -> TracedUnit {
    let mut out = TracedUnit::default();
    for p in prepared.iter_mut() {
        p.session.restore(&p.start);
        let mut selector = TimedSelector {
            inner: p.selector(),
            clock: Arc::clone(clock),
            spans: RefCell::new(Vec::new()),
        };
        let report = match p.def.backend {
            ExecBackend::Lockstep => drive_lockstep(p, &mut selector, tracer, &mut out),
            ExecBackend::EventDriven { threads } => {
                drive_engine(p, threads, &mut selector, tracer, clock, &mut out)
            }
        };
        out.reports.push(report);
        tracer.next_run();
    }
    out
}

/// `Session::run` rebuilt from the session's public phase functions:
/// plan → train each contributor → encode → fold → finish → evaluate,
/// one span each under a `round` span under a `run` span.
fn drive_lockstep(
    p: &mut Prepared,
    selector: &mut TimedSelector,
    tracer: &mut Tracer,
    out: &mut TracedUnit,
) -> TrainingReport {
    let session = &mut p.session;
    let codec = session.config().comm.map(|spec| spec.codec);
    let lossy = codec.filter(|c| *c != CodecSpec::Identity);
    let run = tracer.open("run");
    let mut rounds = Vec::with_capacity(session.config().rounds as usize);
    let mut weights: Vec<f32> = Vec::new();
    for _ in session.rounds_done()..session.config().rounds {
        let round = tracer.open("round");

        let plan_span = tracer.open("fl.plan");
        let plan = session.plan_round(selector);
        selector.drain_into(tracer);
        tracer.close(plan_span);

        // Same fan-out rule as `Session::run_round`: parallel only
        // when the ambient pool has more than one thread.
        let train_span = tracer.open("fl.train");
        let (shared, now) = (&*session, &*tracer);
        let train_one = |&c: &usize| {
            let t0 = now.now();
            let update = shared.train_contributor(c, plan.round);
            (update, t0, now.now())
        };
        let trained: Vec<(ClientUpdate, f64, f64)> = if rayon::current_num_threads() > 1 {
            plan.contributors.par_iter().map(train_one).collect()
        } else {
            plan.contributors.iter().map(train_one).collect()
        };
        for (slot, &(_, t0, t1)) in trained.iter().enumerate() {
            tracer.record("fl.train_client", t0, t1, 1 + slot as u32);
            out.train_busy_s += t1 - t0;
        }
        tracer.close(train_span);

        let new_global = if trained.is_empty() {
            None
        } else {
            weights.clear();
            weights.extend(trained.iter().map(|(u, ..)| u.samples as f32));
            let mut fold = StreamingFold::with_acc(session.take_fold_acc(), &weights);
            match lossy {
                None => tracer.span("fl.fold", || {
                    for (u, ..) in &trained {
                        fold.fold(u);
                    }
                    fold.finish()
                }),
                Some(codec) => {
                    // `codec_state_mut` borrows the whole session, so
                    // the base model is copied out first (the event
                    // engine does the same once per round).
                    let global = session.global_params().clone();
                    for (u, ..) in &trained {
                        let (feedback, scratch) = session.codec_state_mut();
                        let enc = tracer.span("fl.encode", || {
                            feedback.encode(codec, u.client, &u.params, &global, scratch)
                        });
                        tracer.span("fl.fold", || fold.fold_encoded(&enc, u.samples));
                        scratch.recycle(enc);
                    }
                    tracer.span("fl.fold", || fold.finish_against(&global))
                }
            }
        };

        let finish_span = tracer.open("fl.finish");
        let mut report = session.finish_round(plan, new_global, selector, false);
        selector.drain_into(tracer);
        tracer.close(finish_span);

        if session.is_eval_round(report.round) {
            let e = tracer.span("fl.eval", || session.evaluate_global());
            report.accuracy = Some(e.accuracy);
            report.loss = Some(e.loss);
        }
        rounds.push(report);
        out.round_ms.push(tracer.close(round) * 1e3);
    }
    tracer.close(run);
    TrainingReport {
        policy: selector.name(),
        rounds,
    }
}

/// `EventEngine::run` as one span, with the selector decorator's
/// spans and the program's own host-phase spans imported beside it.
fn drive_engine(
    p: &mut Prepared,
    threads: usize,
    selector: &mut TimedSelector,
    tracer: &mut Tracer,
    clock: &Arc<dyn HostClock>,
    out: &mut TracedUnit,
) -> TrainingReport {
    let rounds = p.def.cfg.rounds as usize;
    p.session.attach_host_profiler(p.host_profiler(clock));
    let run = tracer.open("core.engine_run");
    let report = EventEngine::new(threads).run(&mut p.session, selector);
    selector.drain_into(tracer);
    let host = p
        .session
        .take_host_profiler()
        .expect("attached above")
        .spans();
    let mut bounds: Vec<(f64, f64)> = vec![(f64::INFINITY, f64::NEG_INFINITY); rounds];
    for s in &host {
        tracer.record(phase_span_name(s.phase), s.start, s.end, 1);
        // Deferred evaluations are patched in after the last round, so
        // they say nothing about how long their round took.
        if s.phase != Phase::Eval {
            let b = &mut bounds[s.round as usize];
            *b = (b.0.min(s.start), b.1.max(s.end));
        }
    }
    tracer.close(run);
    out.round_ms
        .extend(bounds.iter().map(|(start, end)| (end - start) * 1e3));
    report
}

/// Span name of a program-reported host phase.
fn phase_span_name(phase: Phase) -> &'static str {
    match phase {
        Phase::Profile => "core.profile",
        Phase::Plan => "fl.plan",
        Phase::Train => "fl.train",
        Phase::Encode => "fl.encode",
        Phase::Fold => "fl.fold",
        Phase::Eval => "fl.eval",
        Phase::StoreWrite => "sweep.store_write",
    }
}

/// A `ClientSelector` decorator timing the three calls the round loop
/// makes into the selection policy.
struct TimedSelector {
    inner: Box<dyn ClientSelector>,
    clock: Arc<dyn HostClock>,
    spans: RefCell<Vec<(&'static str, f64, f64)>>,
}

impl TimedSelector {
    fn timed<R>(&mut self, name: &'static str, f: impl FnOnce(&mut dyn ClientSelector) -> R) -> R {
        let t0 = self.clock.now_sec();
        let out = f(self.inner.as_mut());
        self.spans.get_mut().push((name, t0, self.clock.now_sec()));
        out
    }

    /// Hand the collected spans to `tracer` as children of its
    /// innermost open span.
    fn drain_into(&mut self, tracer: &mut Tracer) {
        for (name, t0, t1) in self.spans.get_mut().drain(..) {
            tracer.record(name, t0, t1, 0);
        }
    }
}

impl ClientSelector for TimedSelector {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn select(&mut self, round: u64, count: usize) -> Vec<usize> {
        self.timed("core.select", |s| s.select(round, count))
    }

    fn monitored_groups(&self, round: u64) -> Option<Vec<Vec<usize>>> {
        let t0 = self.clock.now_sec();
        let out = self.inner.monitored_groups(round);
        self.spans
            .borrow_mut()
            .push(("core.observe", t0, self.clock.now_sec()));
        out
    }

    fn observe(&mut self, round: u64, group_accuracies: &[f64]) {
        self.timed("core.observe", |s| s.observe(round, group_accuracies));
    }

    fn export_state(&self) -> Option<SelectorState> {
        self.inner.export_state()
    }

    fn restore_state(&mut self, state: &SelectorState) {
        self.inner.restore_state(state);
    }
}

/// Counts at the round boundary, from the reports of one unit.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub rounds: u64,
    pub selected: u64,
    pub aggregated: u64,
    pub samples_trained: u64,
    pub samples_evaluated: u64,
}

pub fn counts<'a>(
    runs: impl Iterator<Item = (&'a FederatedDataset, usize, &'a TrainingReport)>,
) -> Counts {
    let mut c = Counts::default();
    for (data, local_epochs, report) in runs {
        for r in &report.rounds {
            c.rounds += 1;
            c.selected += r.selected.len() as u64;
            c.aggregated += r.aggregated.len() as u64;
            c.samples_trained += local_epochs as u64
                * r.aggregated
                    .iter()
                    .map(|&cl| data.clients[cl].train.len() as u64)
                    .sum::<u64>();
            if r.accuracy.is_some() {
                c.samples_evaluated += data.global_test.len() as u64;
            }
        }
    }
    c
}

/// What must repeat when the unit does, and its uplink traffic.
pub fn unit_of(reports: &[TrainingReport]) -> Unit {
    Unit {
        uplink_bytes: reports.iter().map(TrainingReport::total_bytes_up).sum(),
        runs: reports.len() as u64,
        failed_runs: 0,
        digests: reports
            .iter()
            .map(|r| r.digest_chain().to_string())
            .collect(),
    }
}
