//! The client executor: the one place client training (with the encode
//! of its upload) and deferred evaluation tasks run.
//!
//! Training a selected client is a pure function of
//! `(seed, client, round, global)` — see [`crate::client::local_train`] —
//! so *where* and *when* it runs cannot change its result. With one
//! thread every task runs inline on the calling thread the moment it is
//! submitted (no worker, no hand-off); with more, tasks go to a pool of
//! worker threads pulling from a shared queue (the vendored `rayon`'s
//! [`rayon::scope`]). Either way every finished result streams back to
//! the coordinating thread over a channel, and determinism for any
//! thread count is restored downstream by the ordered merge
//! ([`crate::exec::OrderedMerge`]).
//!
//! Under a lossy codec a training task also encodes its upload, the
//! way a deployed client compresses before it sends: it trains, encodes
//! against the global snapshot it trained from with the residual the
//! coordinator lent it, and hands back the payload and the residual —
//! the dense weights never leave the worker. The encode is a pure
//! function of (params, base, residual) and a client trains at most
//! once per round, so this moves no bit either.
//!
//! Global-model evaluation rides the same executor: an evaluation task
//! captures an immutable snapshot of the round's aggregated model, so
//! on a pool it runs concurrently with the *next* round's training
//! ([`DeferredEvals`] patches the results into the reports afterwards).
//!
//! A task that panics on a worker is a result too
//! ([`TaskResult::Panicked`]): the coordinating thread would otherwise
//! wait forever for it. Its consumers re-raise the payload once every
//! task they wait for has reported, lowest tag first — the panic a
//! one-thread run, whose tasks run inline in submission order, raises.

use crate::client::{self, ClientConfig};
use crate::report::RoundReport;
use crate::{ClientUpdate, Session};
use std::any::Any;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Arc;
use tifl_comm::{CodecSpec, EncodedUpdate};
use tifl_data::FederatedDataset;
use tifl_nn::model::EvalResult;
use tifl_nn::models::ModelSpec;
use tifl_obs::{HostClock, Phase};
use tifl_tensor::ParamVec;

/// Everything a worker needs to train any client of a session — shared,
/// immutable, and independent of the session's mutable state (global
/// model, clock), which stays with the coordinating thread.
#[derive(Clone)]
pub struct TrainContext {
    /// The federated dataset (shared handle).
    pub data: Arc<FederatedDataset>,
    /// Global model architecture.
    pub model: ModelSpec,
    /// Local-training hyper-parameters.
    pub client: ClientConfig,
    /// The session's root seed (per-client streams derive from it).
    pub seed: u64,
    /// The upload codec (`Identity` when the session has no comm spec).
    pub codec: CodecSpec,
    /// The attached host profiler's clock, so a deferred evaluation or
    /// an encode is timed where it runs (`None` without a profiler).
    pub host_clock: Option<Arc<dyn HostClock>>,
}

impl TrainContext {
    /// Train `client` for `round` against `global`. Deterministic in
    /// `(seed, client, round)`.
    #[must_use]
    pub fn train(&self, client: usize, round: u64, global: &ParamVec) -> ClientUpdate {
        client::train_update(
            &self.model,
            global,
            &self.data,
            &self.client,
            round,
            client,
            self.seed,
        )
    }

    /// Evaluate `params` on the balanced global test set.
    #[must_use]
    pub fn evaluate(&self, params: &ParamVec) -> EvalResult {
        let mut model = client::eval_model(&self.model, params);
        model.evaluate(&self.data.global_test.x, &self.data.global_test.y)
    }
}

/// Which task a result belongs to.
#[derive(Debug, Clone, Copy)]
pub enum TaskTag {
    /// A training task: the contributor's canonical slot in its round.
    Train(u64),
    /// A deferred evaluation: the index into the caller's report list.
    Eval(usize),
}

/// What a training task hands the coordinator.
#[derive(Debug)]
pub struct Upload {
    /// The client that trained.
    pub client: usize,
    /// Its aggregation weight `s_c`.
    pub samples: usize,
    /// The wire payload: under Identity the trained weights themselves
    /// (`EncodedUpdate::Dense`, moved, never copied), else the encode
    /// made where the client trained.
    pub payload: EncodedUpdate,
    /// Under a lossy codec, the client's error-feedback residual,
    /// updated by the encode, on its way back to the lender.
    pub residual: Option<Vec<f32>>,
    /// Host seconds the encode took where it ran (0 under Identity or
    /// without a profiler clock).
    pub host_sec: f64,
}

/// One finished deferred evaluation.
#[derive(Debug, Clone, Copy)]
pub struct DeferredEval {
    /// Index into the caller's report list.
    pub report_index: usize,
    /// Global test accuracy and loss.
    pub result: EvalResult,
    /// Host seconds the evaluation took where it ran (0 without a
    /// profiler clock).
    pub host_sec: f64,
}

/// A finished task, streamed back to the coordinating thread.
#[derive(Debug)]
pub enum TaskResult {
    /// One client finished local training (and, under a lossy codec,
    /// the encode of its upload).
    Update {
        /// The contributor's canonical slot in its round.
        tag: u64,
        /// What the client uploads.
        upload: Upload,
    },
    /// One deferred global-model evaluation finished.
    Eval(DeferredEval),
    /// The task panicked on a worker thread.
    Panicked {
        /// The task that died.
        tag: TaskTag,
        /// What `catch_unwind` caught, for `resume_unwind` on the
        /// coordinating thread.
        payload: Box<dyn Any + Send>,
    },
}

/// Handle for submitting work from inside [`ClientExecutor::run`].
pub struct WorkQueue<'a, 'scope> {
    /// `None` on a one-thread executor: tasks run inline at submission.
    scope: Option<&'a rayon::Scope<'scope>>,
    ctx: &'scope TrainContext,
    tx: mpsc::Sender<TaskResult>,
}

impl<'scope> WorkQueue<'_, 'scope> {
    fn submit(&self, tag: TaskTag, task: impl FnOnce(&TrainContext) -> TaskResult + Send + 'scope) {
        let ctx = self.ctx;
        // The receiver is already gone when the coordinating thread
        // re-raised a panic with work still in flight.
        match self.scope {
            Some(scope) => {
                let tx = self.tx.clone();
                scope.spawn(move || {
                    // A task owns everything it mutates, so nothing
                    // half-updated outlives its unwind.
                    let result = catch_unwind(AssertUnwindSafe(|| task(ctx)))
                        .unwrap_or_else(|payload| TaskResult::Panicked { tag, payload });
                    let _ = tx.send(result);
                });
            }
            None => {
                let _ = self.tx.send(task(ctx));
            }
        }
    }

    /// Queue local training of `client` for `round` against the given
    /// global snapshot; the result arrives as [`TaskResult::Update`]
    /// carrying `tag`. With a lent error-feedback `residual` the task
    /// also encodes the upload against that snapshot, timed on the
    /// profiler's clock, and drops the dense weights; without one the
    /// weights are the payload.
    pub fn submit_train(
        &self,
        tag: u64,
        client: usize,
        round: u64,
        global: Arc<ParamVec>,
        mut residual: Option<Vec<f32>>,
    ) {
        self.submit(TaskTag::Train(tag), move |ctx| {
            let update = ctx.train(client, round, &global);
            let (payload, host_sec) = match residual.as_mut() {
                None => (EncodedUpdate::Dense(update.params), 0.0),
                Some(residual) => {
                    let clock = ctx.host_clock.as_deref();
                    let start = clock.map_or(0.0, HostClock::now_sec);
                    let payload =
                        client::encode_upload(ctx.codec, &update.params, &global, residual);
                    (payload, clock.map_or(0.0, HostClock::now_sec) - start)
                }
            };
            let upload = Upload {
                client,
                samples: update.samples,
                payload,
                residual,
                host_sec,
            };
            TaskResult::Update { tag, upload }
        });
    }

    /// Queue evaluation of a global-model snapshot; the result arrives
    /// as [`TaskResult::Eval`] carrying `report_index`.
    pub fn submit_eval(&self, report_index: usize, global: Arc<ParamVec>) {
        self.submit(TaskTag::Eval(report_index), move |ctx| {
            let clock = ctx.host_clock.as_deref();
            let start = clock.map_or(0.0, HostClock::now_sec);
            let result = ctx.evaluate(&global);
            TaskResult::Eval(DeferredEval {
                report_index,
                result,
                host_sec: clock.map_or(0.0, HostClock::now_sec) - start,
            })
        });
    }
}

/// Global-model evaluations deferred onto the executor: submitted after
/// a round commits, collected whenever they surface in the result
/// stream, and patched into the reports once the run's last round is
/// done.
#[derive(Debug, Default)]
pub struct DeferredEvals {
    submitted: usize,
    landed: Vec<DeferredEval>,
    /// Evaluations that panicked where they ran, by report index.
    dead: BTreeMap<usize, Box<dyn Any + Send>>,
}

impl DeferredEvals {
    /// Queue the evaluation of `global` for `reports[report_index]`.
    pub fn submit(
        &mut self,
        queue: &WorkQueue<'_, '_>,
        report_index: usize,
        global: Arc<ParamVec>,
    ) {
        self.submitted += 1;
        queue.submit_eval(report_index, global);
    }

    /// Keep an evaluation's result, or its panic, as it surfaces in the
    /// result stream. Training results are not this type's to keep:
    /// every round drains its own before it ends.
    pub fn land(&mut self, result: TaskResult) {
        match result {
            TaskResult::Eval(eval) => self.landed.push(eval),
            TaskResult::Panicked {
                tag: TaskTag::Eval(report_index),
                payload,
            } => drop(self.dead.insert(report_index, payload)),
            TaskResult::Update { .. } | TaskResult::Panicked { .. } => {}
        }
    }

    /// Wait for the evaluations still outstanding, then patch every
    /// result into its report. Each patch closes one `Eval` host span
    /// carrying the seconds the evaluation took where it ran.
    ///
    /// # Panics
    /// Re-raises the panic of the lowest-indexed evaluation that died.
    pub fn finish(
        mut self,
        results: &mpsc::Receiver<TaskResult>,
        session: &mut Session,
        reports: &mut [RoundReport],
    ) {
        while self.landed.len() + self.dead.len() < self.submitted {
            self.land(results.recv().expect("the work queue holds a sender"));
        }
        if let Some((_, payload)) = self.dead.pop_first() {
            resume_unwind(payload);
        }
        for eval in self.landed {
            let report = &mut reports[eval.report_index];
            report.accuracy = Some(eval.result.accuracy);
            report.loss = Some(eval.result.loss);
            session.host_record(Phase::Eval, report.round, eval.host_sec);
        }
    }
}

/// Executes client training and evaluation tasks on a fixed thread
/// count, streaming results as they complete.
pub struct ClientExecutor {
    threads: usize,
}

impl ClientExecutor {
    /// An executor on `threads` threads (0 = the ambient rayon
    /// parallelism, so an enclosing `ThreadPool::install` is honoured).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            rayon::current_num_threads()
        } else {
            threads
        };
        Self { threads }
    }

    /// The thread count in effect.
    #[cfg(test)]
    fn threads(&self) -> usize {
        self.threads
    }

    /// Run `body` on the calling thread: `body` submits tasks through
    /// the [`WorkQueue`] and consumes results from the receiver. On one
    /// thread each task has already run when its `submit_*` returns and
    /// results arrive in submission order; on more, `body` consumes
    /// *while workers execute*. Returns after `body` and every
    /// submitted task finished.
    pub fn run<R>(
        &self,
        ctx: &TrainContext,
        body: impl FnOnce(&WorkQueue<'_, '_>, &mpsc::Receiver<TaskResult>) -> R,
    ) -> R {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(self.threads)
            .build()
            .expect("thread pool builds");
        let (tx, rx) = mpsc::channel();
        pool.install(|| {
            if self.threads == 1 {
                let scope = None;
                body(&WorkQueue { scope, ctx, tx }, &rx)
            } else {
                rayon::scope(|scope| {
                    let scope = Some(scope);
                    body(&WorkQueue { scope, ctx, tx }, &rx)
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tifl_data::partition;
    use tifl_data::synth::{Generator, SynthFamily, SynthSpec};
    use tifl_tensor::seed_rng;

    fn ctx() -> TrainContext {
        let gen = Generator::new(SynthSpec::family(SynthFamily::Mnist), 5);
        let part = partition::iid(4, 30, 10, &mut seed_rng(5));
        let data = FederatedDataset::materialize(&gen, &part, 0.2, 10, 5);
        TrainContext {
            data: Arc::new(data),
            model: ModelSpec::Mlp {
                input: 64,
                hidden: 16,
                classes: 10,
            },
            client: ClientConfig::paper_synthetic(),
            seed: 5,
            codec: CodecSpec::Identity,
            host_clock: None,
        }
    }

    #[test]
    fn training_results_are_thread_count_independent() {
        let ctx = ctx();
        let global = Arc::new(ctx.model.build(5).params());
        let run = |threads: usize| {
            let exec = ClientExecutor::new(threads);
            exec.run(&ctx, |queue, rx| {
                for c in 0..4u64 {
                    queue.submit_train(c, c as usize, 0, Arc::clone(&global), None);
                }
                let mut got: Vec<Option<ParamVec>> = vec![None, None, None, None];
                for _ in 0..4 {
                    match rx.recv().expect("4 updates") {
                        TaskResult::Update {
                            tag,
                            upload:
                                Upload {
                                    payload: EncodedUpdate::Dense(params),
                                    ..
                                },
                        } => got[tag as usize] = Some(params),
                        other => panic!("only dense training was submitted: {other:?}"),
                    }
                }
                got.into_iter()
                    .map(|p| p.expect("all tags seen"))
                    .collect::<Vec<_>>()
            })
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn evaluation_matches_the_inline_path() {
        let ctx = ctx();
        let params = ctx.model.build(7).params();
        let inline = ctx.evaluate(&params);
        let exec = ClientExecutor::new(2);
        let deferred = exec.run(&ctx, |queue, rx| {
            queue.submit_eval(3, Arc::new(params.clone()));
            match rx.recv().expect("one eval") {
                TaskResult::Eval(eval) => {
                    assert_eq!(eval.report_index, 3);
                    eval.result
                }
                other => panic!("only an evaluation was submitted: {other:?}"),
            }
        });
        assert_eq!(inline, deferred, "deferred evaluation must be bit-equal");
    }

    #[test]
    fn executor_reports_thread_count() {
        assert_eq!(ClientExecutor::new(3).threads(), 3);
        assert!(ClientExecutor::new(0).threads() >= 1);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(5)
            .build()
            .expect("thread pool builds");
        let ambient = pool.install(|| ClientExecutor::new(0).threads());
        assert_eq!(ambient, 5, "0 resolves to the enclosing pool's width");
    }

    #[test]
    fn one_thread_runs_tasks_inline_in_submission_order() {
        let ctx = ctx();
        let here = std::thread::current().id();
        let tags = ClientExecutor::new(1).run(&ctx, |queue, rx| {
            for tag in 0..5u64 {
                queue.submit(TaskTag::Train(tag), move |_| {
                    assert_eq!(std::thread::current().id(), here, "no worker spawned");
                    let upload = Upload {
                        client: 0,
                        samples: 0,
                        payload: EncodedUpdate::Dense(ParamVec::zeros(0)),
                        residual: None,
                        host_sec: 0.0,
                    };
                    TaskResult::Update { tag, upload }
                });
            }
            // Non-blocking: every task already ran when `submit` returned.
            rx.try_iter()
                .map(|r| match r {
                    TaskResult::Update { tag, .. } => tag,
                    other => panic!("only training was submitted: {other:?}"),
                })
                .collect::<Vec<_>>()
        });
        assert_eq!(tags, [0, 1, 2, 3, 4]);
    }

    /// The panic message of a three-round run whose global test set
    /// carries a label the model has no class for, so every deferred
    /// evaluation dies where it runs. Runs on a thread of its own: a
    /// hang fails the test instead of stalling the suite.
    fn eval_panic_message(threads: usize) -> String {
        use crate::session::{AggregationMode, SessionConfig};
        use tifl_sim::resource::profiles;
        use tifl_sim::{Cluster, ClusterConfig};

        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let ctx = ctx();
            let mut data = Arc::try_unwrap(ctx.data).expect("sole handle");
            data.global_test.y[0] = data.classes;
            let cluster = Cluster::new(&ClusterConfig::equal_groups(5, &profiles::MNIST, 5));
            let config = SessionConfig {
                model: ctx.model,
                client: ctx.client,
                clients_per_round: 2,
                rounds: 3,
                eval_every: 1,
                tmax_sec: 1e9,
                aggregation: AggregationMode::WaitAll,
                comm: None,
                seed: ctx.seed,
            };
            let mut session = Session::new(data, cluster, config);
            let mut selector = crate::RandomSelector::new(4, 5);
            let run = AssertUnwindSafe(|| session.run_rounds(&mut selector, 3, threads));
            let _ = tx.send(catch_unwind(run).map(drop));
        });
        let payload = rx
            .recv_timeout(std::time::Duration::from_secs(120))
            .expect("the run hung")
            .expect_err("the evaluation must panic");
        *payload.downcast::<String>().expect("a formatted message")
    }

    #[test]
    fn a_panicking_evaluation_ends_the_run_with_its_message() {
        let inline = eval_panic_message(1);
        assert!(inline.contains("label 10 out of range"), "{inline}");
        assert_eq!(eval_panic_message(2), inline);
        assert_eq!(eval_panic_message(4), inline);
    }
}
