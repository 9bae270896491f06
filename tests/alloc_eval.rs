//! Allocation gate for evaluation, the twin of `alloc_train_step.rs`.
//!
//! `Sequential::evaluate` is inference: the first dense layer reads the
//! test matrix in place, ReLU works in place and keeps no mask, the
//! loss computes no gradient and the correct rows are counted, not
//! collected. So an evaluation allocates its two activations and
//! nothing else: no copy of its input, and as many calls at any width.
//! Pinned with the counting `#[global_allocator]` `alloc_regression.rs`
//! uses; the counter is process-global, hence a binary of its own with
//! one `#[test]`.

use tifl::nn::models::ModelSpec;
use tifl::tensor::Matrix;

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

const ROWS: usize = 500;
const INPUT: usize = 64;
const CLASSES: usize = 10;

/// Heap allocations, bytes requested, and requests the size of the
/// input matrix, of one warm `evaluate` of `Mlp { 64, hidden, 10 }` on
/// 500 rows.
fn warm_evaluate(hidden: usize) -> (usize, usize, usize) {
    let mut model = ModelSpec::Mlp {
        input: INPUT,
        hidden,
        classes: CLASSES,
    }
    .build(1);
    let x = Matrix::from_fn(ROWS, INPUT, |r, c| ((r * INPUT + c) as f32 * 0.37).sin());
    let y: Vec<usize> = (0..ROWS).map(|r| r % CLASSES).collect();
    let _ = model.evaluate(&x, &y);
    let input_bytes = std::mem::size_of_val(x.as_slice());
    counting_alloc::allocations_sized_in(input_bytes, || {
        let _ = model.evaluate(&x, &y);
    })
}

#[test]
fn evaluation_allocates_its_activations_and_nothing_else() {
    // One thread, as on an executor worker.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool");
    for hidden in [128, 2048] {
        let (allocs, bytes, input_sized) = pool.install(|| warm_evaluate(hidden));
        assert_eq!(
            input_sized, 0,
            "hidden {hidden}: an evaluation copied its {ROWS}x{INPUT} input"
        );
        // The hidden activation and the logits. Five while `evaluate`
        // cloned its input, the loss filled a gradient it dropped and
        // the predictions were collected into a vector.
        assert_eq!(
            allocs, 2,
            "allocations in one evaluation at hidden {hidden}"
        );
        assert_eq!(
            bytes,
            4 * ROWS * (hidden + CLASSES),
            "bytes allocated by one evaluation at hidden {hidden}"
        );
    }
}
