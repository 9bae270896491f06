//! Allocation gate for the client train step.
//!
//! `Sequential::train_batch` steps the model's own weight, bias and
//! gradient buffers in place, so a mini-batch allocates activations and
//! activation gradients — never a buffer the size of the model, and
//! nothing per dense layer. Pinned
//! with the counting `#[global_allocator]` `alloc_regression.rs` uses;
//! the counter is process-global, hence a binary of its own with one
//! `#[test]`.

use tifl::nn::models::ModelSpec;
use tifl::nn::RmsProp;
use tifl::tensor::Matrix;

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

/// Heap allocations and bytes requested by one warm `train_batch` of
/// `Mlp { 64, hidden, 10 }` on a batch of 6, and the parameter count.
fn warm_step(hidden: usize) -> (usize, usize, usize) {
    const BATCH: usize = 6;
    let mut model = ModelSpec::Mlp {
        input: 64,
        hidden,
        classes: 10,
    }
    .build(1);
    // RMSprop: the paper's optimiser, and one with per-parameter state.
    let mut opt = RmsProp::new(0.01);
    let x = Matrix::from_fn(BATCH, 64, |r, c| ((r * 64 + c) as f32 * 0.37).sin());
    let y: Vec<usize> = (0..BATCH).map(|r| r % 10).collect();
    // Warm-up grows the optimiser state, the ReLU mask and this
    // thread's GEMM packing buffer to their steady sizes.
    for _ in 0..2 {
        let _ = model.train_batch(x.clone(), &y, &mut opt);
    }
    let input = x.clone();
    let (allocs, bytes) = counting_alloc::allocations_in(|| {
        let _ = model.train_batch(input, &y, &mut opt);
    });
    (allocs, bytes, model.param_count())
}

#[test]
fn train_step_allocates_no_model_sized_buffer() {
    // One thread, as on an executor worker: the wide model's GEMMs are
    // above the row-parallel threshold, and spawned threads allocate.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool");
    let (wide, narrow) = pool.install(|| (warm_step(2048), warm_step(128)));

    let (allocs, bytes, params) = wide;
    assert!(
        bytes < params,
        "one step at {params} parameters ({} bytes) allocated {bytes} bytes in {allocs} calls: \
         a quarter of the model or more",
        4 * params
    );
    assert_eq!(
        allocs, narrow.0,
        "allocation count depends on the model's width: {allocs} at 2048 hidden units, {} at 128",
        narrow.0
    );
    // The two dense layers' outputs, `dlogits`, and the hidden
    // activation's gradient (ReLU and its backward pass work in place
    // and keep no mask, the first layer computes no `dX`). Six while
    // each dense layer replaced its bias gradient with a fresh `Vec`.
    assert_eq!(allocs, 4, "allocations in one warm MLP step");
}
