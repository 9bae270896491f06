//! Allocation-count regression gate for the per-round fold/encode hot
//! path.
//!
//! A steady-state lossy round has two halves, pinned separately with a
//! counting `#[global_allocator]` once warm-up rounds have sized every
//! pool:
//!
//! - the **coordinator** half — lend each contributor's error-feedback
//!   residual, fold the payloads the workers made, take the residuals
//!   back, resolve the new global and recycle the old one — performs
//!   **zero** heap allocations;
//! - the **worker** half — a compensated encode on the thread's own
//!   encode workspace — allocates exactly the payload's buffers, which
//!   leave with the upload: one for an int8 payload (its codes), two
//!   for a top-k payload (its indices and values).
//!
//! It lives in its own integration-test binary on purpose: the counter
//! is process-global, so no other test may run concurrently in this
//! process (one `#[test]` here, single-threaded by construction).

use tifl::comm::{CodecSpec, CommSpec, EncodedUpdate};
use tifl::core::experiment::ExperimentConfig;
use tifl::core::runner::Experiment;
use tifl::fl::client::encode_upload;
use tifl::fl::session::{Session, SessionOverrides};
use tifl::fl::ClientUpdate;
use tifl::nn::models::ModelSpec;
use tifl::tensor::ParamVec;

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

/// Heap allocations performed by `f`.
fn allocations_in(f: impl FnOnce()) -> usize {
    counting_alloc::allocations_in(f).0
}

/// Buffers, sized once, that carry a round's residuals and payloads
/// between its halves (the work queue's role in `Session::run_rounds`).
struct InFlight {
    residuals: Vec<Vec<f32>>,
    payloads: Vec<EncodedUpdate>,
}

/// One aggregation round through the calls `Session::run_rounds` makes,
/// returning the allocations of its `[coordinator, worker]` halves.
/// Identity uploads fold as they are and encode nothing.
fn round(
    session: &mut Session,
    codec: CodecSpec,
    contributors: &[usize],
    updates: &[ClientUpdate],
    in_flight: &mut InFlight,
) -> [usize; 2] {
    let lossy = codec != CodecSpec::Identity;
    let len = session.global_params().len();
    let lend = allocations_in(|| {
        if lossy {
            let (feedback, _) = session.codec_state_mut();
            in_flight
                .residuals
                .extend(updates.iter().map(|u| feedback.lend(u.client, len)));
        }
    });
    let worker = allocations_in(|| {
        let base = session.global_params();
        for (u, residual) in updates.iter().zip(&mut in_flight.residuals) {
            in_flight
                .payloads
                .push(encode_upload(codec, &u.params, base, residual));
        }
    });
    let fold = allocations_in(|| {
        let mut fold = session.begin_fold(contributors);
        if lossy {
            let sent = in_flight
                .payloads
                .drain(..)
                .zip(in_flight.residuals.drain(..));
            for (u, (payload, residual)) in updates.iter().zip(sent) {
                fold.fold_encoded(&payload, u.samples);
                session.codec_state_mut().0.give_back(u.client, residual);
            }
        } else {
            for u in updates {
                fold.fold(u);
            }
        }
        let new_global = fold
            .finish_against(session.global_params())
            .expect("non-empty round");
        session.set_global_params(new_global);
    });
    [lend + fold, worker]
}

#[test]
fn steady_state_fold_encode_round_is_allocation_free() {
    const CLIENTS: usize = 6;
    const ROUNDS: usize = 5;
    let contributors: Vec<usize> = (0..CLIENTS).collect();

    for (codec, payload_buffers) in [
        (CodecSpec::Identity, 0),
        (CodecSpec::QuantizeI8, 1),
        (CodecSpec::TopK { frac: 0.25 }, 2),
    ] {
        let mut cfg = ExperimentConfig::tiny(3);
        // 4 810 parameters: more than one of the codec kernels' fused
        // blocks, so a payload filled block by block would show its
        // growth as extra allocations.
        cfg.model = ModelSpec::Mlp {
            input: 64,
            hidden: 64,
            classes: 10,
        };
        cfg.comm = Some(CommSpec::with_codec(codec));
        let mut session = cfg.build_session(&SessionOverrides::default());
        let params = session.global_params().len();
        let updates: Vec<ClientUpdate> = contributors
            .iter()
            .map(|&c| ClientUpdate {
                client: c,
                params: ParamVec(
                    (0..params)
                        .map(|j| ((c * 131 + j * 7) as f32 * 0.013).sin() * 2.0)
                        .collect(),
                ),
                samples: session.data().clients[c].train.len(),
            })
            .collect();
        let mut in_flight = InFlight {
            residuals: Vec::with_capacity(CLIENTS),
            payloads: Vec::with_capacity(CLIENTS),
        };

        // Warm-up: grows every pool buffer, this thread's encode
        // workspace, every residual and the weights vec to steady-state
        // capacity.
        for _ in 0..3 {
            round(&mut session, codec, &contributors, &updates, &mut in_flight);
        }

        let mut allocs = [0; 2];
        for _ in 0..ROUNDS {
            let [coordinator, worker] =
                round(&mut session, codec, &contributors, &updates, &mut in_flight);
            allocs[0] += coordinator;
            allocs[1] += worker;
        }
        assert_eq!(
            allocs[0], 0,
            "{codec:?}: the coordinator's steady-state rounds allocated {} times",
            allocs[0]
        );
        assert_eq!(
            allocs[1],
            ROUNDS * CLIENTS * payload_buffers,
            "{codec:?}: a warm encode allocates its {payload_buffers} payload buffer(s) only"
        );
    }

    // Profiler-attached variant: the host-time phase profiler's hot
    // path (clock read on begin, span push + totals update on end)
    // must also stay off the heap once its span ring is preallocated —
    // attaching host profiling may not break the allocation gate.
    use tifl::obs::{FrozenClock, HostProfiler, Phase};
    let mut prof = HostProfiler::with_clock(32, FrozenClock::shared());
    // Warm one full cycle (the ring was preallocated by the
    // constructor; this just proves the API path before measuring).
    for r in 0..4u64 {
        let t = prof.begin();
        prof.end(Phase::Train, r, t);
    }
    let allocs = allocations_in(|| {
        for r in 0..64u64 {
            for phase in [Phase::Plan, Phase::Train, Phase::Fold, Phase::Eval] {
                let t = prof.begin();
                prof.end(phase, r, t);
            }
            // An encode timed on a worker, recorded by the coordinator.
            prof.record(Phase::Encode, r, 0.5);
        }
    });
    assert_eq!(
        allocs, 0,
        "profiler-attached rounds allocated {allocs} times"
    );
    assert!(prof.dropped() > 0, "span-ring wrap path was exercised");
}
