//! Isolated probes: one public function of one layer at a time, at
//! the shapes of the workload being traced, so every in-workload span
//! has a kernel-level number to reconcile with. Bytes and FLOPs are
//! *computed* from lengths, not measured.

use crate::metrics::Values;
use crate::stats::median;
use std::hint::black_box;
use tifl_comm::{CodecSpec, EncodeScratch, ErrorFeedback};
use tifl_core::estimator::estimate_for_policy;
use tifl_core::experiment::ExperimentConfig;
use tifl_core::{Policy, TierAssignment};
use tifl_fl::{Session, StreamingFold, TrainingReport};
use tifl_nn::softmax_cross_entropy;
use tifl_obs::HostClock;
use tifl_sim::event::EventQueue;
use tifl_tensor::{codec, ops, seed_rng, split_seed, Matrix, ParamVec};

/// Seconds per call of `f`: the median of five batches, each long
/// enough (≥ 10 ms) for the clock's resolution not to matter.
fn per_call(clock: &dyn HostClock, mut f: impl FnMut()) -> f64 {
    let mut iters = 1u64;
    loop {
        let t0 = clock.now_sec();
        for _ in 0..iters {
            f();
        }
        if clock.now_sec() - t0 >= 0.01 || iters >= 1 << 24 {
            break;
        }
        iters *= 2;
    }
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = clock.now_sec();
            for _ in 0..iters {
                f();
            }
            (clock.now_sec() - t0) / iters as f64
        })
        .collect();
    median(&batches)
}

fn random_vec(n: usize, seed: u64, stream: u64) -> Vec<f32> {
    use rand::Rng;
    let mut rng = seed_rng(split_seed(seed, stream));
    (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

/// `tensor`: the three matmul forms at batch × input × width of the
/// model's first dense layer, and the streaming kernels over one
/// model-sized vector.
fn tensor(cfg: &ExperimentConfig, n: usize, clock: &dyn HostClock, out: &mut Values) {
    let batch = cfg.client.batch_size;
    let input = cfg.model.input_features();
    let width = match cfg.model {
        tifl_nn::models::ModelSpec::Mlp { hidden, .. } => hidden,
        other => other.classes(),
    };
    let x = Matrix::from_vec(batch, input, random_vec(batch * input, cfg.seed, 1));
    let w = Matrix::from_vec(input, width, random_vec(input * width, cfg.seed, 2));
    let dy = Matrix::from_vec(batch, width, random_vec(batch * width, cfg.seed, 3));
    let forward = per_call(clock, || drop(black_box(ops::matmul(&x, &w))));
    let grad_w = per_call(clock, || drop(black_box(ops::matmul_transpose_a(&x, &dy))));
    let grad_x = per_call(clock, || drop(black_box(ops::matmul_transpose_b(&dy, &w))));
    let flops = 2.0 * (batch * input * width) as f64;
    out.set(
        "tensor.matmul_gflops",
        3.0 * flops / (forward + grad_w + grad_x) / 1e9,
    );

    let a = random_vec(n, cfg.seed, 4);
    let mut acc = vec![0.0f32; n];
    let t = per_call(clock, || ops::axpy(0.5, black_box(&a), black_box(&mut acc)));
    out.set("tensor.axpy_gbps", 12.0 * n as f64 / t / 1e9);
    let t = per_call(clock, || acc.copy_from_slice(black_box(&a)));
    out.set("tensor.stream_probe_gbps", 8.0 * n as f64 / t / 1e9);

    let mut codes = Vec::new();
    let mut range = (0.0, 1.0);
    let t = per_call(clock, || {
        range = codec::quantize_i8_into(black_box(&a), &mut codes)
    });
    out.set("tensor.quantize_i8_ns_per_elem", t * 1e9 / n as f64);
    let (min, scale) = range;
    let t = per_call(clock, || {
        codec::dequantize_i8_axpy(0.5, min, scale, black_box(&codes), &mut acc);
    });
    out.set("tensor.dequant_axpy_ns_per_elem", t * 1e9 / n as f64);
    let k = CodecSpec::top_k_of(0.1, n);
    let (mut order, mut indices, mut values) = (Vec::new(), Vec::new(), Vec::new());
    let t = per_call(clock, || {
        codec::top_k_by_magnitude_into(black_box(&a), k, &mut order, &mut indices, &mut values);
    });
    out.set("tensor.topk_ns_per_elem", t * 1e9 / n as f64);
}

/// `nn`: one mini-batch step and its halves, evaluation, model build.
fn nn(cfg: &ExperimentConfig, session: &Session, clock: &dyn HostClock, out: &mut Values) {
    let data = session.data();
    let train = &data.clients[0].train;
    let batch: Vec<usize> = (0..cfg.client.batch_size.min(train.len())).collect();
    let x = train.x.gather_rows(&batch);
    let y: Vec<usize> = batch.iter().map(|&i| train.y[i]).collect();
    let global = session.global_params();
    let mut model = cfg.model.build(7);
    model.set_params(global);
    let mut opt = cfg.client.optimizer.build(1.0);

    let step = per_call(clock, || {
        black_box(model.train_batch(x.clone(), &y, opt.as_mut()));
    });
    out.set("nn.train_batch_us", step * 1e6);
    out.set(
        "nn.train_gflops",
        (model.flops_per_sample() * batch.len() as u64) as f64 / step / 1e9,
    );
    let forward = per_call(clock, || drop(black_box(model.forward(x.clone(), true))));
    out.set("nn.forward_us", forward * 1e6);
    // `backward` consumes the activations `forward` cached, so the two
    // are timed as a pair and the forward half subtracted.
    let logits = model.forward(x.clone(), true);
    let (_, dlogits) = softmax_cross_entropy(&logits, &y);
    let both = per_call(clock, || {
        drop(black_box(model.forward(x.clone(), true)));
        drop(black_box(model.backward(dlogits.clone())));
    });
    out.set("nn.backward_us", (both - forward) * 1e6);

    let test = &data.global_test;
    let eval = per_call(clock, || {
        black_box(model.evaluate(&test.x, &test.y));
    });
    out.set("nn.evaluate_us_per_sample", eval * 1e6 / test.len() as f64);
    let build = per_call(clock, || {
        let mut m = cfg.model.build(7);
        m.set_params(global);
        drop(black_box(m));
    });
    out.set("nn.model_build_us", build * 1e6);
}

/// `data` and `sim`: materialisation and cluster build (once each —
/// they are set-up costs, not kernels), response sampling, the event
/// queue.
fn data_and_sim(
    cfg: &ExperimentConfig,
    session: &Session,
    clock: &dyn HostClock,
    out: &mut Values,
) {
    let t0 = clock.now_sec();
    let data = cfg.build_data();
    out.set("data.build_s", clock.now_sec() - t0);
    let samples: usize = data.global_test.len()
        + data
            .clients
            .iter()
            .map(|c| c.train.len() + c.test.len())
            .sum::<usize>();
    out.set("data.samples_materialized", samples as f64);
    let bytes_per_sample = 4 * data.global_test.features() + std::mem::size_of::<usize>();
    out.set(
        "data.resident_mb",
        (samples * bytes_per_sample) as f64 / 1e6,
    );
    drop(data);

    let t0 = clock.now_sec();
    let cluster = cfg.build_cluster();
    out.set("sim.cluster_build_s", clock.now_sec() - t0);
    drop(cluster);

    let task = session.task_for(0);
    let devices = session.cluster().num_devices();
    let mut i = 0usize;
    let t = per_call(clock, || {
        i += 1;
        black_box(session.cluster().response(i % devices, i as u64, &task));
    });
    out.set("sim.response_ns", t * 1e9);

    // One round's worth of events: schedule every selected client,
    // cancel the stragglers, pop the rest.
    let per_round = cfg.clients_per_round.max(2);
    let t = per_call(clock, || {
        let mut queue: EventQueue<usize> = EventQueue::new();
        let handles: Vec<_> = (0..per_round)
            .map(|c| queue.schedule((c * 7919 % per_round) as f64, c))
            .collect();
        for h in handles.into_iter().skip(per_round - per_round / 4) {
            queue.cancel(h);
        }
        while let Some(e) = queue.pop() {
            black_box(e.payload);
        }
    });
    out.set("sim.events_per_s", per_round as f64 / t);
}

/// `comm`: int8 encode with error feedback and the matching decode +
/// fold, on a model-sized update (the codec every workload can run;
/// `comm_wide`'s own spans give the per-codec in-workload numbers).
fn comm(cfg: &ExperimentConfig, session: &Session, clock: &dyn HostClock, out: &mut Values) {
    let global = session.global_params();
    let mut update = global.clone();
    update.axpy(0.01, &ParamVec(random_vec(global.len(), cfg.seed, 5)));
    let mut feedback = ErrorFeedback::new();
    let mut scratch = EncodeScratch::new();
    let t = per_call(clock, || {
        let enc = feedback.encode(CodecSpec::QuantizeI8, 0, &update, global, &mut scratch);
        scratch.recycle(black_box(enc));
    });
    out.set("comm.encode_us_per_update", t * 1e6);
    let enc = feedback.encode(CodecSpec::QuantizeI8, 0, &update, global, &mut scratch);
    let t = per_call(clock, || {
        let mut fold = StreamingFold::with_acc(scratch.take_zeroed(global.len()), &[1.0]);
        fold.fold_encoded(&enc, 1);
        scratch.recycle_dense(black_box(fold.finish()).expect("one update folded"));
    });
    out.set("comm.decode_fold_us_per_update", t * 1e6);
}

/// Every isolated probe at the shapes of `cfg` (whose built session
/// is `session` and whose profiled tiers are `tiers`), plus the
/// per-report `core`/`obs` calls.
pub fn run(
    cfg: &ExperimentConfig,
    session: &Session,
    tiers: &TierAssignment,
    report: &TrainingReport,
    clock: &dyn HostClock,
    out: &mut Values,
) {
    tensor(cfg, session.global_params().len(), clock, out);
    nn(cfg, session, clock, out);
    data_and_sim(cfg, session, clock, out);
    comm(cfg, session, clock, out);

    // Eq. 6 as `Runner::estimate` evaluates it once its tiers are cached.
    let policy = Policy::uniform(tiers.num_tiers());
    let t = per_call(clock, || {
        black_box(estimate_for_policy(tiers, &policy, cfg.rounds));
    });
    out.set("core.estimate_us", t * 1e6);
    let t = per_call(clock, || {
        black_box(report.digest_chain());
    });
    out.set(
        "obs.digest_us_per_round",
        t * 1e6 / report.rounds.len() as f64,
    );
}
