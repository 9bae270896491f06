//! The asynchronous aggregation engine — the one mode that needs an
//! event queue.
//!
//! Synchronous rounds (`WaitAll`, `FirstK`) are executed by the single
//! round loop in [`Session::run_rounds`]; [`EventEngine`] hands them
//! straight to it with its thread count. What lives here is
//! [`AggregationMode::Async`]: `|C|` clients in flight with no round
//! barrier at all, arrivals ordered in virtual time by an
//! [`EventQueue`], each one folded into the global model damped by its
//! staleness, and a replacement dispatched immediately (FedAsync-style;
//! see [`ASYNC_BASE_MIX`]). Training and deferred evaluation run on the
//! same [`ClientExecutor`] the round loop uses, so results are
//! invariant under the thread count here too.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use tifl_fl::exec::{ClientExecutor, DeferredEvals, TaskResult, WorkQueue};
use tifl_fl::selector::ClientSelector;
use tifl_fl::session::AggregationMode;
use tifl_fl::{RoundReport, Session, TrainingReport};
use tifl_obs::{Phase, TraceEvent};
use tifl_sim::event::EventQueue;

/// Base mixing rate of the asynchronous fold: a fresh update moves the
/// global model by `ASYNC_BASE_MIX / (1 + staleness)` of the distance
/// to the client's weights — the polynomial staleness damping of
/// FedAsync (Xie et al.), with α = 0.5.
pub const ASYNC_BASE_MIX: f32 = 0.5;

/// Runs a session on a fixed thread count, whatever its aggregation
/// mode. Create one per run (or per re-profiling segment); it carries
/// no model state of its own — the session stays the single source of
/// truth.
pub struct EventEngine {
    threads: usize,
}

impl EventEngine {
    /// An engine on `threads` threads (0 = the ambient rayon
    /// parallelism).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self { threads }
    }

    /// Run the session's remaining configured rounds and return the
    /// full report.
    pub fn run(&self, session: &mut Session, selector: &mut dyn ClientSelector) -> TrainingReport {
        let remaining = session.config().rounds - session.rounds_done();
        let rounds = self.run_rounds(session, selector, remaining);
        TrainingReport {
            policy: selector.name(),
            rounds,
        }
    }

    /// Execute `rounds` rounds (or, under [`AggregationMode::Async`],
    /// `rounds` aggregation steps) and return their reports.
    pub fn run_rounds(
        &self,
        session: &mut Session,
        selector: &mut dyn ClientSelector,
        rounds: u64,
    ) -> Vec<RoundReport> {
        match session.config().aggregation {
            AggregationMode::Async { max_staleness } => {
                self.run_async(session, selector, rounds, max_staleness)
            }
            AggregationMode::WaitAll | AggregationMode::FirstK { .. } => {
                session.run_rounds(selector, rounds, self.threads)
            }
        }
    }

    // -- asynchronous aggregation ------------------------------------------

    /// FedAsync-style staleness-aware aggregation: `|C|` clients in
    /// flight, one aggregation (= one report) per arriving update, a
    /// replacement dispatched immediately after each event. Updates
    /// staler than `max_staleness` model versions are discarded (their
    /// report has an empty `aggregated`); non-responders time out after
    /// `tmax_sec` and are replaced without consuming a step.
    ///
    /// Selector feedback (`monitored_groups`/`observe`) is not driven in
    /// this mode — there is no synchronous point to evaluate at — so
    /// credit-based adaptive selection degrades to its initial
    /// probabilities.
    ///
    /// # Panics
    /// Panics (rather than spinning on virtual time forever) when
    /// `10 · |C|` consecutive dispatches time out — a cluster where no
    /// client ever responds within `tmax_sec` cannot make progress.
    fn run_async(
        &self,
        session: &mut Session,
        selector: &mut dyn ClientSelector,
        steps: u64,
        max_staleness: u64,
    ) -> Vec<RoundReport> {
        let ctx = session.train_context();
        let executor = ClientExecutor::new(self.threads);
        let in_flight_target = session.config().clients_per_round;
        let tmax = session.config().tmax_sec;
        let comm = session.config().comm;

        executor.run(&ctx, |queue, results| {
            let mut events: EventQueue<AsyncEvent> = EventQueue::new();
            let mut reports: Vec<RoundReport> = Vec::with_capacity(steps as usize);
            let mut stash: BTreeMap<u64, tifl_fl::ClientUpdate> = BTreeMap::new();
            // Dispatch seqs whose arrival was judged stale: their
            // (already-trained) updates are dropped on receipt instead
            // of accumulating in the stash.
            let mut discarded: BTreeSet<u64> = BTreeSet::new();
            let mut evals = DeferredEvals::default();
            let mut next_seq: u64 = 0;
            let mut version: u64 = 0;
            let mut consecutive_timeouts = 0usize;

            let dispatch = |client: usize,
                            session: &Session,
                            version: u64,
                            next_seq: &mut u64,
                            events: &mut EventQueue<AsyncEvent>,
                            queue: &WorkQueue<'_, '_>| {
                let seq = *next_seq;
                *next_seq += 1;
                let now = session.now();
                let latency = session
                    .cluster()
                    .response(client, seq, &session.task_for(client))
                    .filter(|&l| l <= tmax);
                match latency {
                    Some(l) => {
                        events.schedule(
                            now + l,
                            AsyncEvent::Arrival {
                                client,
                                version,
                                seq,
                                dispatched_at: now,
                            },
                        );
                        let global = Arc::new(session.global_params().clone());
                        queue.submit_train(seq, client, version, global);
                    }
                    None => {
                        events.schedule(now + tmax, AsyncEvent::Timeout);
                    }
                }
            };

            // Prime the pipeline: `|C|` clients in flight at t = 0.
            for client in selector.select(0, in_flight_target) {
                dispatch(client, session, version, &mut next_seq, &mut events, queue);
            }

            while (reports.len() as u64) < steps {
                let event = events.pop().expect("clients always in flight");
                session.advance_time_to(event.time);
                match event.payload {
                    AsyncEvent::Timeout => {
                        // Replace the dead client; no aggregation step.
                        session.trace_event(event.time, TraceEvent::AsyncTimeout);
                        consecutive_timeouts += 1;
                        assert!(
                            consecutive_timeouts <= 10 * in_flight_target,
                            "{consecutive_timeouts} consecutive timeouts: no client \
                             responds within tmax_sec, asynchronous run cannot progress"
                        );
                        let next = pick_one(selector, next_seq);
                        dispatch(next, session, version, &mut next_seq, &mut events, queue);
                    }
                    AsyncEvent::Arrival {
                        client,
                        version: dispatched_version,
                        seq,
                        dispatched_at,
                    } => {
                        consecutive_timeouts = 0;
                        let staleness = version - dispatched_version;
                        let fresh = staleness <= max_staleness;
                        session.trace_event(
                            event.time,
                            TraceEvent::AsyncArrival {
                                client: client as u32,
                                staleness,
                                fresh,
                            },
                        );
                        if fresh {
                            let t_train = session.host_begin();
                            let update =
                                take_update(seq, &mut stash, &mut discarded, results, &mut evals);
                            session.host_end(Phase::Train, session.rounds_done(), t_train);
                            // With a codec active the server only ever
                            // sees the encoded upload: round-trip the
                            // update through the wire format (with
                            // error-feedback compensation, on pooled
                            // buffers). Sparse deltas rebase against the
                            // current global (the staleness damping
                            // already mixes toward it).
                            let params = match comm {
                                None => update.params,
                                Some(spec) if spec.codec == tifl_comm::CodecSpec::Identity => {
                                    update.params
                                }
                                Some(spec) => session.roundtrip_through_codec(&spec.codec, &update),
                            };
                            let beta = ASYNC_BASE_MIX / (1.0 + staleness as f32);
                            let t_fold = session.host_begin();
                            session.mix_global(beta, &params);
                            session.recycle_dense(params);
                            session.host_end(Phase::Fold, session.rounds_done(), t_fold);
                            version += 1;
                        } else if stash.remove(&seq).is_none() {
                            // The stale update may not have been
                            // received yet — drop it on arrival.
                            discarded.insert(seq);
                        }

                        let round = session.rounds_done();
                        if session.is_eval_round(round) {
                            let global = Arc::new(session.global_params().clone());
                            evals.submit(queue, reports.len(), global);
                        }
                        session.mark_round_done();
                        let task = session.task_for(client);
                        reports.push(RoundReport {
                            round,
                            time: session.now(),
                            latency: event.time - dispatched_at,
                            selected: vec![client],
                            aggregated: if fresh { vec![client] } else { Vec::new() },
                            accuracy: None,
                            loss: None,
                            // One model down, one (encoded) update up per
                            // dispatch — stale arrivals still crossed the
                            // wire, they just get discarded server-side.
                            bytes_down: task.update_bytes,
                            bytes_up: task.upload(),
                        });

                        let next = pick_one(selector, next_seq);
                        dispatch(next, session, version, &mut next_seq, &mut events, queue);
                    }
                }
            }

            // Updates still in flight past the horizon are abandoned,
            // like the stragglers they are.
            evals.finish(results, session, &mut reports);
            reports
        })
    }
}

/// Events of the asynchronous aggregation loop.
#[derive(Debug, Clone, Copy)]
enum AsyncEvent {
    /// A client's update reaches the aggregator.
    Arrival {
        /// Client id.
        client: usize,
        /// Global model version the client trained against.
        version: u64,
        /// Dispatch sequence number (keys latency jitter, training RNG
        /// and the result channel).
        seq: u64,
        /// Virtual dispatch time.
        dispatched_at: f64,
    },
    /// A client never responded within `tmax_sec` (the dead client is
    /// simply replaced, so the event carries no payload).
    Timeout,
}

/// Select one replacement client, keyed by the dispatch sequence number
/// so every dispatch draws from a fresh, reproducible stream.
fn pick_one(selector: &mut dyn ClientSelector, seq: u64) -> usize {
    let picked = selector.select(seq, 1);
    assert_eq!(
        picked.len(),
        1,
        "selector returned {} clients",
        picked.len()
    );
    picked[0]
}

/// Receive from the results channel until the update tagged `seq` is
/// available, stashing others (they belong to later virtual arrivals)
/// and dropping any whose arrival was already judged stale.
fn take_update(
    seq: u64,
    stash: &mut BTreeMap<u64, tifl_fl::ClientUpdate>,
    discarded: &mut BTreeSet<u64>,
    results: &Receiver<TaskResult>,
    evals: &mut DeferredEvals,
) -> tifl_fl::ClientUpdate {
    loop {
        if let Some(update) = stash.remove(&seq) {
            return update;
        }
        match results.recv().expect("workers outlive the run") {
            TaskResult::Update { tag, update } => {
                if !discarded.remove(&tag) {
                    stash.insert(tag, update);
                }
            }
            TaskResult::Eval(eval) => evals.land(eval),
        }
    }
}
