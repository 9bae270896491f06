//! Hot-kernel microbenches for the codec/fold path, the client train
//! step and run set-up, gated in CI.
//!
//! These are the kernels the allocation-free aggregation round spends
//! its time in: blocked `axpy`/`scale`, decode-side
//! `dequantize_i8_axpy`/`axpy_sparse`, encode-side `quantize_i8_into` /
//! `top_k_by_magnitude_into`, and one whole compensated fold round —
//! and where local training spends its: the three GEMM forms at the
//! shapes of a batch-10 step of the default MLP, the wide model's
//! first-layer forward (`comm_wide`'s), the output layer's whole pass
//! at both widths, the RMSprop update of the default MLP's weights,
//! that step over a
//! client's forty batches, and the two kernels whose cost depends on
//! which hidden units fired (ReLU, and a GEMM over post-ReLU
//! activations). Those two and the step draw their inputs from a pool
//! too large for the branch predictor to memorise: replaying one input
//! times a branch that never mispredicts, which no client round does.
//!
//! `setup/*` are the two pieces of set-up a user waits for before the
//! first round: materialising a federated dataset (on one thread, so
//! the gated number does not depend on the runner's cores) and §4.2
//! profiling plus tiering of a 5 000-client population, which builds
//! no dataset.
//!
//! The `calibration/axpy_scalar` entry is a host-speed probe: the perf
//! gate (`tifl_bench::timing`) divides every time by it before
//! comparing against the checked-in `BENCH_codec_kernels.json`, so the
//! gate measures *relative* kernel cost and survives CI runners of
//! different speeds.
//! Regenerate the baseline with:
//!
//! ```text
//! cargo bench --bench codec_kernels -- --save-baseline "$PWD/BENCH_codec_kernels.json"
//! ```

use std::hint::black_box;
use std::process::ExitCode;
use tifl_bench::timing::{self, Timing};
use tifl_comm::{CodecSpec, EncodeScratch, ErrorFeedback};
use tifl_core::experiment::{DataScenario, ExperimentConfig};
use tifl_core::runner::Experiment;
use tifl_data::synth::Generator;
use tifl_data::{SynthFamily, SynthSpec};
use tifl_fl::aggregator::{ClientUpdate, StreamingFold};
use tifl_nn::loss::softmax_cross_entropy_into;
use tifl_nn::models::ModelSpec;
use tifl_nn::{relu, relu_backward, Optimizer, RmsProp};
use tifl_tensor::{codec, ops, split_seed, Matrix, ParamVec};

/// One CIFAR-10-CNN-ish flattened model (order of the paper's models).
const N: usize = 65_536;

fn dense(seed: usize) -> Vec<f32> {
    (0..N)
        .map(|i| ((i * 7 + seed * 131) as f32 * 0.013).sin() * 2.0)
        .collect()
}

fn bench_kernels(t: &mut Timing) {
    let x = dense(1);
    let mut out = dense(2);

    // Host-speed probe: always the scalar reference, never gated.
    t.bench("calibration/axpy_scalar", || {
        ops::axpy_scalar(black_box(0.25), black_box(&x), black_box(&mut out))
    });

    t.bench("hot/axpy", || {
        ops::axpy(black_box(0.25), black_box(&x), black_box(&mut out))
    });
    t.bench("hot/scale", || {
        ops::scale(black_box(0.999), black_box(&mut out))
    });

    let mut codes = Vec::new();
    let (min, scale) = codec::quantize_i8_into(&x, &mut codes);
    t.bench("hot/dequantize_i8_axpy", || {
        codec::dequantize_i8_axpy(
            black_box(0.25),
            black_box(min),
            black_box(scale),
            black_box(&codes),
            black_box(&mut out),
        );
    });

    let (mut order, mut indices, mut values, mut idx_delta) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    codec::top_k_by_magnitude_into(&x, N / 10, &mut order, &mut indices, &mut values);
    codec::delta_encode_indices_into(&indices, &mut idx_delta);
    t.bench("hot/axpy_sparse", || {
        codec::axpy_sparse(
            black_box(0.25),
            black_box(&idx_delta),
            black_box(&values),
            black_box(&mut out),
        );
    });

    t.bench("hot/minmax", || codec::minmax(black_box(&x)));

    let mut code_buf: Vec<i8> = Vec::new();
    t.bench("hot/quantize_i8_into", || {
        codec::quantize_i8_into(black_box(&x), black_box(&mut code_buf))
    });

    let y = dense(9);
    let mut delta: Vec<f32> = Vec::new();
    let mut residual = vec![0.0f32; N];
    t.bench("hot/add_into_minmax", || {
        codec::add_into_minmax(black_box(&x), black_box(&y), black_box(&mut delta))
    });
    let (lo, hi) = codec::minmax(&x);
    t.bench("hot/quantize_i8_residual_into", || {
        codec::quantize_i8_residual_into(
            black_box(&x),
            black_box(lo),
            black_box(hi),
            black_box(&mut code_buf),
            black_box(&mut residual),
        );
    });

    let (mut order, mut idx, mut vals) = (Vec::new(), Vec::new(), Vec::new());
    t.bench("hot/top_k_into", || {
        codec::top_k_by_magnitude_into(
            black_box(&x),
            black_box(N / 10),
            black_box(&mut order),
            black_box(&mut idx),
            black_box(&mut vals),
        );
    });
}

/// One full steady-state aggregation round per codec: compensated
/// encode + streaming fold + global swap, all on pooled buffers.
fn bench_round(t: &mut Timing) {
    let clients = 5usize;
    let updates: Vec<ClientUpdate> = (0..clients)
        .map(|cl| ClientUpdate {
            client: cl,
            params: ParamVec(dense(cl + 3)),
            samples: 100 + cl * 17,
        })
        .collect();
    let weights: Vec<f32> = updates.iter().map(|u| u.samples as f32).collect();

    for (label, spec) in [
        ("round/fold_identity", CodecSpec::Identity),
        ("round/fold_quant_i8", CodecSpec::QuantizeI8),
        ("round/fold_topk_0.1", CodecSpec::TopK { frac: 0.1 }),
    ] {
        let mut global = ParamVec::zeros(N);
        let mut feedback = ErrorFeedback::new();
        let mut scratch = EncodeScratch::new();
        t.bench(label, || {
            let acc = scratch.take_zeroed(N);
            let mut fold = StreamingFold::with_acc(acc, &weights);
            for u in &updates {
                if spec == CodecSpec::Identity {
                    fold.fold(u);
                } else {
                    let enc = feedback.encode(spec, u.client, &u.params, &global, &mut scratch);
                    fold.fold_encoded(&enc, u.samples);
                    scratch.recycle(enc);
                }
            }
            let next = fold.finish_against(&global).expect("non-empty");
            let old = std::mem::replace(&mut global, next);
            scratch.recycle_dense(old);
        });
    }
}

/// Inputs the data-dependent kernels cycle through, so that no two
/// consecutive iterations see the same sparsity pattern.
const POOL: usize = 64;

/// `POOL` pre-activation matrices of a batch-10, 128-unit hidden layer:
/// each element is negative or positive with equal odds, decided by a
/// hash of its position (an arithmetic pattern would be learnable).
fn pre_activation_pool() -> Vec<Matrix> {
    (0..POOL)
        .map(|s| {
            Matrix::from_fn(10, 128, |r, c| {
                let h = split_seed(s as u64, (r * 128 + c) as u64);
                let magnitude = 0.1 + (h >> 40) as f32 / (1u64 << 24) as f32;
                if h & 1 == 0 {
                    -magnitude
                } else {
                    magnitude
                }
            })
        })
        .collect()
}

/// The batch-10 step of the paper's default model (MLP 64-128-10,
/// RMSprop), its three GEMMs on dense operands — forward `X W`, weight
/// gradient `X^T dY`, input gradient `dY W^T` — and its two kernels
/// that see post-ReLU sparsity.
fn bench_train_step(t: &mut Timing) {
    let wave = |rows: usize, cols: usize, f: f32| {
        Matrix::from_fn(rows, cols, |r, c| ((r * cols + c) as f32 * f).sin())
    };
    let (x, w, dy) = (
        wave(10, 64, 0.37),
        wave(64, 128, 0.011),
        wave(10, 128, 0.23),
    );
    t.bench("hot/matmul", || ops::matmul(black_box(&x), black_box(&w)));
    t.bench("hot/matmul_transpose_a", || {
        ops::matmul_transpose_a(black_box(&x), black_box(&dy))
    });
    t.bench("hot/matmul_transpose_b", || {
        ops::matmul_transpose_b(black_box(&dy), black_box(&w))
    });

    // The first-layer forward of `tifl-benchmark`'s `comm_wide` model
    // (MLP 64-2048-10, batches of six).
    let (x_wide, w_wide) = (wave(6, 64, 0.37), wave(64, 2048, 0.011));
    t.bench("hot/matmul_6x64x2048", || {
        ops::matmul(black_box(&x_wide), black_box(&w_wide))
    });

    let pre_activations = pre_activation_pool();
    let mut grad = vec![0.0; 10 * 128];
    let mut at = 0;
    // Includes the clone that stands for the GEMM output `relu` works
    // in; the gradient is the activation, copied into `grad`.
    t.bench("hot/relu_fwd_bwd_1280", || {
        at = (at + 1) % POOL;
        let mut h = black_box(pre_activations[at].clone());
        relu(h.as_mut_slice());
        grad.copy_from_slice(h.as_slice());
        relu_backward(h.as_slice(), &mut grad);
        h
    });

    // The output layer's forward GEMM: 10x128 activations, half of
    // them zero, times 128x10 weights.
    let activations: Vec<Matrix> = pre_activations
        .into_iter()
        .map(|mut m| {
            relu(m.as_mut_slice());
            m
        })
        .collect();
    let w_out = wave(128, 10, 0.017);
    let mut at = 0;
    t.bench("hot/matmul_sparse_a", || {
        at = (at + 1) % POOL;
        ops::matmul(black_box(&activations[at]), black_box(&w_out))
    });

    // The output layer's whole pass in a train step (logits, softmax
    // cross-entropy, both gradients, `dL/dh` masked by ReLU) on the
    // post-ReLU activations, at the default model's width (batch 10)
    // and at `comm_wide`'s (batch 6, 2 048 hidden units).
    let wide_activations: Vec<Matrix> = (0..POOL)
        .map(|s| {
            Matrix::from_fn(6, 2048, |r, c| {
                let h = split_seed(s as u64, (r * 2048 + c) as u64);
                if h & 1 == 0 {
                    0.0
                } else {
                    0.1 + (h >> 40) as f32 / (1u64 << 24) as f32
                }
            })
        })
        .collect();
    for (label, pool, hidden) in [
        ("step/output_layer_b10_h128", &activations, 128),
        ("step/output_layer_b6_h2048", &wide_activations, 2048),
    ] {
        let (w, b) = (wave(hidden, 10, 0.017), vec![0.01; 10]);
        let labels: Vec<usize> = (0..pool[0].rows()).map(|i| (i * 3) % 10).collect();
        let (mut grad_w, mut grad_b) = (Matrix::zeros(hidden, 10), vec![0.0; 10]);
        let mut scratch = ops::OutputLayerScratch::default();
        let mut at = 0;
        t.bench(label, || {
            at = (at + 1) % POOL;
            ops::output_layer(
                black_box(&pool[at]),
                (black_box(&w), black_box(&b)),
                |logits, delta, ld| softmax_cross_entropy_into(logits, &labels, delta, ld),
                (&mut grad_w, &mut grad_b),
                &mut scratch,
            )
        });
    }

    let mut model = ModelSpec::Mlp {
        input: 64,
        hidden: 128,
        classes: 10,
    }
    .build(1);

    // One RMSprop step over the default model's 9 610 weights, in
    // place, as `train_batch` steps them: a quarter of a
    // `paper_policies` step. Learning rate 0 keeps the weights fixed.
    let mut weights = model.params();
    let grads = ParamVec(
        (0..weights.len())
            .map(|i| (i as f32 * 0.013).sin())
            .collect(),
    );
    let mut rmsprop = RmsProp::new(0.0);
    t.bench("hot/rmsprop_step_9610", || {
        rmsprop.step(black_box(&mut weights), black_box(&grads));
    });

    // One client's epoch as `local_train` cuts it: 400 samples, forty
    // batches of ten, cycled.
    let data = Generator::new(SynthSpec::family(SynthFamily::Cifar10), 42).generate_uniform(400, 0);
    let rows: Vec<usize> = (0..data.len()).collect();
    let batches: Vec<(Matrix, Vec<usize>)> = rows
        .chunks(10)
        .map(|batch| {
            let y = batch.iter().map(|&i| data.y[i]).collect();
            (data.x.gather_rows(batch), y)
        })
        .collect();
    // Learning rate 0: every pass over the forty batches does the same
    // work on the same weights. At a real rate the loop overfits them,
    // the gradients go subnormal and the step slows twofold — a
    // property of the loop, not of the step.
    let mut opt = RmsProp::new(0.0);
    let mut at = 0;
    t.bench("step/train_batch_mlp_64_128_10", || {
        at = (at + 1) % batches.len();
        let (x, y) = &batches[at];
        model.train_batch(black_box(x.clone()), black_box(y), &mut opt)
    });
}

/// What a run pays before its first round, at `tifl-benchmark`'s IID
/// 100-samples-a-client shape.
fn bench_setup(t: &mut Timing) {
    let mut cfg = ExperimentConfig::cifar10_resource_het(42);
    cfg.data = DataScenario::Iid { per_client: 100 };

    cfg.num_clients = 500;
    let one_thread = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("thread pool builds");
    // Rows are built on first read, so the label reads them all: 500
    // clients x (100 train + 10 holdout) rows on one thread.
    t.bench("setup/materialize_iid_500x100", || {
        one_thread.install(|| {
            let data = black_box(&cfg).build_data();
            for client in &data.clients {
                black_box((&*client.train, &*client.test));
            }
            data
        })
    });

    cfg.num_clients = 5000;
    t.bench("setup/profile_and_tier_5000", || {
        black_box(&cfg).profile_and_tier()
    });
}

fn main() -> ExitCode {
    timing::run(std::env::args(), |t| {
        bench_kernels(t);
        bench_round(t);
        bench_train_step(t);
        bench_setup(t);
    })
}
