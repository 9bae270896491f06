//! Allocation gate for §4.2 profiling.
//!
//! `Experiment::profile_and_tier_with` prices every client's task from
//! the label plan and the model's cost; it never materialises features.
//! At the benchmark's `population_event` shape a dataset is 145 MB and
//! the label plan the sizes are read from is 4 MB (500 000 `usize`
//! labels; profiling asks for 5.1 MB in all), so a 6 MB bound on
//! everything profiling asks the heap for fails the moment a dataset
//! (or a session) is built on this path again. Pinned with the counting
//! `#[global_allocator]`
//! `alloc_regression.rs` uses; the counter is process-global, hence a
//! binary of its own with one `#[test]`.

use tifl::prelude::*;

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

#[test]
fn profiling_a_5000_client_population_builds_no_dataset() {
    // `tifl-benchmark`'s `population_event`.
    let mut cfg = ExperimentConfig::cifar10_resource_het(42);
    cfg.num_clients = 5000;
    cfg.clients_per_round = 50;
    cfg.data = DataScenario::Iid { per_client: 100 };
    cfg.aggregation = AggregationMode::FirstK { factor: 1.3 };

    let mut tiers = None;
    let (allocs, bytes) = counting_alloc::allocations_in(|| {
        tiers = Some(cfg.profile_and_tier_with(&SessionOverrides::default()));
    });
    let (assignment, profile) = tiers.expect("profiled");
    assert_eq!(assignment.num_clients() + profile.dropouts().len(), 5000);
    println!("profiling: {allocs} allocations, {bytes} bytes");
    assert!(
        bytes < 6 << 20,
        "profiling asked the heap for {bytes} bytes in {allocs} allocations"
    );
}
