//! Allocation gate for a warm client task.
//!
//! `local_train` keeps its model and the optimiser's state buffer on the
//! worker thread between tasks, so a task after the thread's first
//! builds neither: it loads the global weights into the kept model and
//! reuses the kept state's memory. What it still allocates is the
//! weights it returns, which leave with the update, and per-batch
//! activations far smaller than the model. Pinned at `comm_wide`'s
//! shape (MLP 64-2048-10, one batch of six) with the counting
//! `#[global_allocator]` `alloc_regression.rs` uses; the counter is
//! process-global, hence a binary of its own with one `#[test]`.

use tifl::data::synth::{Generator, SynthFamily, SynthSpec};
use tifl::fl::client::{local_train, ClientConfig};
use tifl::nn::models::ModelSpec;

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

#[test]
fn a_warm_client_task_allocates_only_the_weights_it_returns() {
    let spec = ModelSpec::Mlp {
        input: 64,
        hidden: 2048,
        classes: 10,
    };
    let global = spec.build(1).params();
    let data = Generator::new(SynthSpec::family(SynthFamily::Mnist), 0).generate_uniform(6, 0);
    let config = ClientConfig {
        batch_size: 6,
        ..ClientConfig::paper_synthetic()
    };
    let model_bytes = 4 * global.len();
    // One thread, as on an executor worker.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool");
    let (first, (allocs, bytes, model_sized)) = pool.install(|| {
        let first = local_train(&spec, &global, &data, &config, 0, 0, 7);
        let mut second = None;
        let counted = counting_alloc::allocations_sized_in(model_bytes, || {
            second = Some(local_train(&spec, &global, &data, &config, 0, 0, 7));
        });
        assert_eq!(
            second.as_ref(),
            Some(&first),
            "a warm task trains as a cold one"
        );
        (first, counted)
    });
    assert_eq!(first.len(), global.len());
    assert!(
        bytes < 2 * model_bytes,
        "a warm task of a {model_bytes}-byte model allocated {bytes} bytes in {allocs} calls: \
         two model-sized buffers or more"
    );
    assert_eq!(
        model_sized, 1,
        "model-sized allocations in a warm task: only the returned weights may be one"
    );
}
