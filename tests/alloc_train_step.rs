//! Allocation gate for the client train step.
//!
//! `Sequential::train_batch` steps the model's own weight, bias and
//! gradient buffers in place, and keeps its hidden activation and its
//! output layer's logits, `δ` and `dL/dh` in buffers of its own, so a
//! warm mini-batch allocates nothing at all. Pinned with the counting
//! `#[global_allocator]` `alloc_regression.rs` uses; the counter is
//! process-global, hence a binary of its own with one `#[test]`.

use tifl::nn::models::ModelSpec;
use tifl::nn::RmsProp;
use tifl::tensor::Matrix;

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

/// Heap allocations and bytes requested by one warm `train_batch` of
/// `Mlp { 64, hidden, 10 }` on a batch of 6.
fn warm_step(hidden: usize) -> (usize, usize) {
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
    // Warm-up grows the optimiser state, the model's step buffers and
    // this thread's GEMM packing buffers to their steady sizes.
    for _ in 0..2 {
        let _ = model.train_batch(x.clone(), &y, &mut opt);
    }
    let input = x.clone();
    counting_alloc::allocations_in(|| {
        let _ = model.train_batch(input, &y, &mut opt);
    })
}

#[test]
fn train_step_allocates_no_model_sized_buffer() {
    for hidden in [128, 2048] {
        let (allocs, bytes) = warm_step(hidden);
        assert_eq!(
            (allocs, bytes),
            (0, 0),
            "one warm step of MLP 64-{hidden}-10 allocated {bytes} bytes in {allocs} calls"
        );
    }
}
