//! Set-up does each piece of work once, and every bit it produces is
//! the one the session-building set-up produced at 1f0fe8b:
//!
//! 1. `Experiment::train_sizes` — the label plan alone — equals the
//!    materialised dataset's sizes for every data scenario;
//! 2. `profile_and_tier_with` prices tasks without a dataset and still
//!    returns, bit for bit, the profile 1f0fe8b measured through a full
//!    `Session` — on every scenario `tests/runspec.rs` and
//!    `tests/comm.rs` run (a pricing site that drifted from
//!    `Session::new` would move these);
//! 3. a client's rows, first touched by racing threads in a 2-, 4- or
//!    8-thread pool, are the rows a single thread builds, and equal to
//!    the content digests captured at 1f0fe8b;
//! 4. a bad label plan panics on the caller's thread, naming its lowest
//!    offending client, at every thread count;
//! 5. reads that only count rows build none, and a run builds the rows
//!    it reads and no others.

mod common;

use common::{pinned_scenarios, tiny};
use std::collections::BTreeSet;
use std::sync::Arc;
use tifl::data::partition::Partition;
use tifl::prelude::*;
use tifl::tensor::split_seed;

/// Run `f` at an ambient parallelism of `threads`.
fn on_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool builds")
        .install(f)
}

/// `tests/runspec.rs`'s `wide`: `tiny` with 4 clients per tier.
fn wide(seed: u64) -> ExperimentConfig {
    let mut cfg = tiny(seed);
    cfg.num_clients = 20;
    cfg
}

fn cifar_cpus(mut cfg: ExperimentConfig) -> ExperimentConfig {
    cfg.cpu_profile = tifl::sim::resource::profiles::CIFAR.to_vec();
    cfg
}

// -- 1. sizes without features ----------------------------------------------

#[test]
fn train_sizes_match_the_materialised_dataset() {
    let scenarios = [
        DataScenario::Iid { per_client: 40 },
        DataScenario::ClassLimit {
            per_client: 40,
            k: 2,
        },
        DataScenario::QuantitySkew { total: 800 },
        DataScenario::QuantitySkewClassLimit { total: 800, k: 5 },
    ];
    for data in scenarios {
        let mut cfg = tiny(31);
        cfg.data = data;
        cfg.feature_skew = 0.5;
        let sizes = cfg.train_sizes();
        assert_eq!(sizes, cfg.build_data().train_sizes(), "{data:?}");
        assert_eq!(sizes.len(), cfg.num_clients, "{data:?}");
    }
    for exp in [
        ExperimentConfig::leaf_femnist_tiny(32),
        ExperimentConfig::leaf_femnist(33),
    ] {
        assert_eq!(
            exp.train_sizes(),
            Experiment::build_data(&exp).train_sizes(),
            "leaf seed {}",
            exp.seed
        );
    }
}

// -- 2. data-free profiling is the session's profiling ------------------------

fn profile_digest(exp: &impl Experiment, comm: Option<CommSpec>) -> String {
    let overrides = SessionOverrides {
        comm,
        ..SessionOverrides::default()
    };
    Digest128::of_value(&exp.profile_and_tier_with(&overrides)).to_string()
}

fn comm(codec: CodecSpec, link: LinkModel) -> Option<CommSpec> {
    Some(CommSpec {
        codec,
        link,
        hierarchy: None,
    })
}

fn group_scaled(decay: f64, rtt_sec: f64) -> LinkModel {
    LinkModel::GroupScaled {
        groups: 5,
        up_bps: 1.0e6,
        down_bps: 1.0e6,
        decay,
        rtt_sec,
    }
}

/// Every (experiment, comm axis) the `runspec` and `comm` suites profile
/// or could profile, with the digest of `profile_and_tier_with`'s
/// `(TierAssignment, ProfileResult)` at 1f0fe8b — where it came out of
/// a fully built `Session`.
fn profile_goldens() -> Vec<(String, String, &'static str)> {
    let mut rows: Vec<(String, String, &'static str)> = Vec::new();
    let mut pin = |name: &str, cfg: &ExperimentConfig, comm: Option<CommSpec>, golden| {
        rows.push((name.to_string(), profile_digest(cfg, comm), golden));
    };

    // tests/common/mod.rs — the pinned grid (tiny 70 appears twice).
    let grid_goldens = [
        "97e73a7168ef4aa4b6091a552311147d",
        "97e73a7168ef4aa4b6091a552311147d",
        "6a9e81de325c95db7abd9e1626d382b8",
        "aa076a2b2b8cb3ab272e466a07f3a4a4",
        "04d275aa707ec994e4d0c60303846555",
        "8d3191c8f8a1c06cf62fb57f7abae3a9",
    ];
    for ((name, cfg, spec, _), golden) in pinned_scenarios().into_iter().zip(grid_goldens) {
        pin(name, &cfg, spec.profile_axis(), golden);
        pin(
            &format!("{name}+identity"),
            &cfg,
            Some(CommSpec::default()),
            golden,
        );
    }

    // tests/runspec.rs.
    pin(
        "runspec/tiny71",
        &tiny(71),
        None,
        "47a5e97a5a4538ee54a3ded9824902c3",
    );
    pin(
        "runspec/fedcs73",
        &cifar_cpus(tiny(73)),
        None,
        "4a9b5e67ff0035afce42b6555ad5abd6",
    );
    pin(
        "runspec/tiny78",
        &tiny(78),
        None,
        "2cf8227a9af9de75aa2e834dee110666",
    );
    pin(
        "runspec/wide79",
        &cifar_cpus(wide(79)),
        None,
        "f967b4f1703c95fcf08192e267b3658d",
    );
    let mut drifting = cifar_cpus(tiny(80));
    drifting.latency.base_overhead_sec = 0.0;
    drifting.rounds = 20;
    let mut factors = vec![1.0; 10];
    factors[0] = 0.01;
    factors[1] = 0.01;
    drifting.drift = DriftModel::RegimeSwitch {
        at_round: 10,
        factors,
    };
    pin(
        "runspec/drift80",
        &drifting,
        None,
        "1d7e69e4ad32409a5dd269f6414954f5",
    );
    pin(
        "runspec/tiny81",
        &tiny(81),
        None,
        "76a36ccde906ff9e0339174c398dbd8f",
    );
    pin(
        "runspec/tiny82",
        &tiny(82),
        None,
        "1419d82728670dc4eb5f9f850ce82a3b",
    );
    pin(
        "runspec/wide83",
        &wide(83),
        None,
        "7cca0662cc4a2de3edc5fd38242cdb10",
    );

    // tests/comm.rs — link models, codecs, and both together.
    let links = [
        (
            "uniform",
            LinkModel::GroupScaled {
                groups: 1,
                up_bps: 2.0e4,
                down_bps: 2.0e5,
                decay: 1.0,
                rtt_sec: 0.05,
            },
            "0fe12554eeddabf44f36078146ff3c17",
        ),
        (
            "group-scaled",
            group_scaled(0.25, 0.0),
            "2541401eb769e21d6397b2f5c57316fe",
        ),
    ];
    for (name, link, golden) in links {
        pin(
            &format!("comm/link91/{name}"),
            &tiny(91),
            comm(CodecSpec::Identity, link),
            golden,
        );
    }
    let codecs = [
        ("identity", CodecSpec::Identity),
        ("i8", CodecSpec::QuantizeI8),
        ("topk", CodecSpec::TopK { frac: 0.1 }),
    ];
    let codec92 = [
        "a19a34f875dd6cdebb61058e240a3819",
        "7879fca638888fbe829b21bdf603b8bd",
        "54bdab771df448fdf78335201ff553de",
    ];
    let wire95 = [
        "62cd5604be22f78f06e256c1408a8ffc",
        "482842701dfc5fa15e5e94fd038ed6ec",
        "e943055053cb94e9dabe719406d16772",
    ];
    let mut wire_bound = tiny(95);
    wire_bound.latency.base_overhead_sec = 0.0;
    wire_bound.latency.flops_per_cpu_sec = 1.0e12;
    let slow_uplink = LinkModel::GroupScaled {
        groups: 1,
        up_bps: 1.0e4,
        down_bps: 1.0e7,
        decay: 1.0,
        rtt_sec: 0.0,
    };
    for (i, (name, codec)) in codecs.into_iter().enumerate() {
        pin(
            &format!("comm/codec92/{name}"),
            &tiny(92),
            Some(CommSpec::with_codec(codec)),
            codec92[i],
        );
        pin(
            &format!("comm/wire95/{name}"),
            &wire_bound,
            comm(codec, slow_uplink),
            wire95[i],
        );
    }
    let mut paper_shape = ExperimentConfig::cifar10_resource_het(7);
    paper_shape.data = DataScenario::Iid { per_client: 100 };
    pin(
        "comm/cifar7/topk",
        &paper_shape,
        Some(CommSpec::with_codec(CodecSpec::TopK { frac: 0.25 })),
        "5aed72fb97c59e0c5c0d47ccf4822391",
    );
    // The links come from the experiment here, not from the overrides.
    let mut bandwidth_het = tiny(94);
    bandwidth_het.cpu_profile = vec![2.0];
    bandwidth_het.comm = comm(CodecSpec::Identity, group_scaled(0.25, 0.0));
    pin(
        "comm/bandwidth94",
        &bandwidth_het,
        None,
        "957d4f847a64eab4e3fb931643acc069",
    );
    pin(
        "comm/hierarchy96",
        &tiny(96),
        Some(CommSpec {
            hierarchy: Some(HierarchySpec {
                fan_out: 2,
                plane_bps: 1.0e6,
            }),
            ..CommSpec::default()
        }),
        "d87a1df0651764b471db7159de1c003d",
    );
    pin(
        "comm/cli97",
        &tiny(97),
        comm(CodecSpec::QuantizeI8, group_scaled(0.5, 0.01)),
        "de69bd56c35826482c1478b3bec8b909",
    );

    // Unequal client sizes: the task each client is priced at differs.
    let mut combine = ExperimentConfig::cifar10_combine(5, 11);
    combine.data = DataScenario::QuantitySkewClassLimit { total: 2_000, k: 5 };
    pin(
        "sizes/combine11",
        &combine,
        comm(CodecSpec::QuantizeI8, group_scaled(0.5, 0.01)),
        "0598ad61619294eb992c4f33ce337a10",
    );
    rows.push((
        "leaf/tiny77".to_string(),
        profile_digest(&ExperimentConfig::leaf_femnist_tiny(77), None),
        "7d795f57be672c7a599aebfcf3e65769",
    ));
    rows.push((
        "leaf/tiny77/topk".to_string(),
        profile_digest(
            &ExperimentConfig::leaf_femnist_tiny(77),
            comm(CodecSpec::TopK { frac: 0.1 }, group_scaled(0.5, 0.01)),
        ),
        "922d82de3c9a56c18703667ce0fc9ca4",
    ));
    rows
}

#[test]
fn data_free_profiles_equal_the_session_built_profiles_of_1f0fe8b() {
    for threads in [1, 4] {
        for (name, digest, golden) in on_threads(threads, profile_goldens) {
            assert_eq!(digest, golden, "{name} at {threads} threads");
        }
    }
}

#[test]
fn mid_run_reprofiling_from_the_live_session_prices_like_data_free_profiling() {
    // `run_segmented` re-profiles at round `done` through the running
    // session's cluster and `task_for`; a data-free pass at the same
    // round must measure the same latencies, links and codec included.
    let mut cfg = tiny(98);
    cfg.data = DataScenario::QuantitySkew { total: 800 };
    let overrides = SessionOverrides {
        comm: comm(CodecSpec::TopK { frac: 0.1 }, group_scaled(0.5, 0.01)),
        ..SessionOverrides::default()
    };
    let profiler = Profiler::new(cfg.profiler_config());
    let session = cfg.build_session(&overrides);
    let mut cluster = cfg.build_cluster();
    let sizes = cfg.train_sizes();
    let pricing = TaskPricing::activate(&cfg.session_config(&overrides), &mut cluster, sizes.len());
    for done in [0, 10] {
        assert_eq!(
            profiler.profile_at(&cluster, |c| pricing.task(sizes[c]), done),
            profiler.profile_at(session.cluster(), |c| session.task_for(c), done),
            "round {done}"
        );
    }
}

// -- 3. materialisation: any thread count, the parent's bits ------------------

fn data_digest(data: &FederatedDataset) -> String {
    let mut bytes: Vec<u8> = Vec::new();
    let mut push = |d: &Dataset| {
        bytes.extend(
            d.x.as_slice()
                .iter()
                .flat_map(|v| v.to_bits().to_le_bytes()),
        );
        bytes.extend(d.y.iter().flat_map(|&l| (l as u64).to_le_bytes()));
    };
    for client in &data.clients {
        push(&client.train);
        push(&client.test);
    }
    push(&data.global_test);
    Digest128::of_bytes(&bytes).to_string()
}

/// Whether any client's training or holdout rows are built.
fn any_built(data: &FederatedDataset) -> bool {
    data.clients
        .iter()
        .any(|c| c.train.is_built() || c.test.is_built())
}

/// First-touch every client's `train` and `test` from `threads` threads
/// of the ambient pool at once: all of them walk the sets in one
/// scrambled order, meeting at a barrier before each, so every set is
/// dereferenced by all the threads together. Each must see the one
/// `Dataset` that a single build left behind.
fn touch_racing(data: &FederatedDataset, threads: usize) {
    let n = data.clients.len();
    let mut order: Vec<(usize, bool)> = (0..n).flat_map(|c| [(c, false), (c, true)]).collect();
    order.sort_by_key(|&(c, test)| split_seed(0x5C4A, (2 * c + usize::from(test)) as u64));
    let rows = |(c, test): (usize, bool)| {
        let client = &data.clients[c];
        if test {
            &client.test
        } else {
            &client.train
        }
    };
    let barrier = std::sync::Barrier::new(threads);
    let mut seen: Vec<Vec<usize>> = vec![Vec::new(); threads];
    rayon::scope(|s| {
        for seen in &mut seen {
            let (order, barrier) = (&order, &barrier);
            s.spawn(move || {
                for &set in order {
                    barrier.wait();
                    let dataset: &Dataset = rows(set);
                    seen.push(std::ptr::from_ref(dataset) as usize);
                }
            });
        }
    });
    assert_eq!(seen[0].len(), order.len());
    assert!(seen.iter().all(|s| *s == seen[0]), "one build per set");
}

fn assert_thread_count_invariant(what: &str, golden: &str, build: impl Fn() -> FederatedDataset) {
    // One thread: the test thread builds every set as it digests it.
    let serial = on_threads(1, &build);
    assert_eq!(data_digest(&serial), golden, "{what}: content moved");
    for threads in [2, 4, 8] {
        let data = build();
        assert!(!any_built(&data), "{what}: rows built before a read");
        on_threads(threads, || touch_racing(&data, threads));
        assert!(
            data.clients
                .iter()
                .all(|c| c.train.is_built() && c.test.is_built()),
            "{what}"
        );
        assert_eq!(data.classes, serial.classes);
        assert_eq!(
            data_digest(&data),
            golden,
            "{what}: first touched at {threads} threads"
        );
    }
}

#[test]
fn materialisation_is_thread_count_invariant_and_equals_1f0fe8b() {
    // Styles off (IID, 50 x 100) and on (non-IID(2), quantity skew).
    let mut plain = ExperimentConfig::cifar10_resource_het(21);
    plain.data = DataScenario::Iid { per_client: 100 };
    assert_thread_count_invariant("styles off", "b7fe40de7ea560dd287d9ed9f0ab3d5e", || {
        plain.build_data()
    });
    let mut styled = ExperimentConfig::cifar10_combine(2, 22);
    styled.data = DataScenario::QuantitySkewClassLimit { total: 4_000, k: 2 };
    assert_thread_count_invariant("styles on", "ae3df87f43bec353f0ec7666f8929c18", || {
        styled.build_data()
    });
    let leaf = ExperimentConfig::leaf_femnist_tiny(23);
    assert_thread_count_invariant("femnist", "d4d56a18d5d4bb9fecbaa17811709a44", || {
        Experiment::build_data(&leaf)
    });
}

// -- 4. a bad plan fails before any worker starts -----------------------------

fn materialize(labels: Vec<Vec<usize>>, test_fraction: f64) -> FederatedDataset {
    let gen = Generator::new(SynthSpec::family(SynthFamily::Mnist), 9);
    let partition = Partition {
        labels,
        classes: 10,
    };
    FederatedDataset::materialize(&gen, &partition, test_fraction, 5, 9)
}

/// The panic message of `f`, which runs at `threads` threads.
fn panic_message_on(threads: usize, f: impl Fn() + std::panic::RefUnwindSafe) -> String {
    let payload = std::panic::catch_unwind(|| on_threads(threads, &f)).expect_err("must panic");
    match payload.downcast::<String>() {
        Ok(formatted) => *formatted,
        Err(payload) => (*payload.downcast::<&str>().expect("a message")).to_string(),
    }
}

#[test]
fn bad_plans_name_the_lowest_offending_client_at_every_thread_count() {
    for threads in [1, 4] {
        // Clients 5 and 11 of 16 are empty: with four threads they sit
        // in different workers' blocks.
        let mut labels: Vec<Vec<usize>> = (0..16).map(|c| vec![c % 10; 20]).collect();
        labels[5].clear();
        labels[11].clear();
        let empty = labels.clone();
        assert_eq!(
            panic_message_on(threads, move || drop(materialize(empty.clone(), 0.1))),
            "client 5 has no samples",
            "{threads} threads"
        );

        let mut labels: Vec<Vec<usize>> = (0..16).map(|c| vec![c % 10; 20]).collect();
        labels[13][7] = 10;
        labels[6][19] = 12;
        assert_eq!(
            panic_message_on(threads, move || drop(materialize(labels.clone(), 0.1))),
            "client 6: label 12 out of range",
            "{threads} threads"
        );

        assert_eq!(
            panic_message_on(threads, || drop(materialize(vec![vec![1; 4]; 8], 1.5))),
            "test_fraction out of range",
            "{threads} threads"
        );

        let mut leaf = LeafDataConfig {
            min_samples: 0,
            median_samples: 1,
            quantity_sigma: 3.0,
            ..LeafDataConfig::default()
        };
        let sizes = tifl::data::femnist_train_sizes(12, &leaf, 4);
        let first_empty = sizes
            .iter()
            .position(|&n| n == 0)
            .expect("a median of one sample leaves some writer with none");
        assert!(
            sizes[first_empty + 1..].contains(&0),
            "two empty writers: {sizes:?}"
        );
        assert_eq!(
            panic_message_on(threads, || drop(tifl::data::build_femnist(12, &leaf, 4))),
            format!("client {first_empty} has no samples"),
            "{threads} threads"
        );
        leaf.min_samples = 5;
        leaf.test_fraction = -0.1;
        assert_eq!(
            panic_message_on(threads, || drop(tifl::data::build_femnist(12, &leaf, 4))),
            "test_fraction out of range",
            "{threads} threads"
        );
    }
}

// -- 5. rows are built where they are read -------------------------------------

/// The clients whose `train` (or, with `test`, holdout) rows are built.
fn built(data: &FederatedDataset, test: bool) -> BTreeSet<usize> {
    let built = |c: &usize| {
        let client = &data.clients[*c];
        if test {
            client.test.is_built()
        } else {
            client.train.is_built()
        }
    };
    (0..data.clients.len()).filter(built).collect()
}

#[test]
fn counting_reads_build_nothing_and_a_run_builds_what_it_reads() {
    let mut cfg = wide(99);
    cfg.data = DataScenario::QuantitySkew { total: 800 };
    cfg.rounds = 6;
    let overrides = SessionOverrides::default();
    let data = Arc::new(cfg.build_data());
    assert!(!any_built(&data), "build_data generated client rows");

    // Sizes, task pricing, FedAvg weights and profiling read counts.
    let sizes = data.train_sizes();
    let mut session = cfg.build_session_on(Arc::clone(&data), &overrides);
    let clients: Vec<usize> = (0..cfg.num_clients).collect();
    for &c in &clients {
        let _ = session.task_for(c);
    }
    drop(session.begin_fold(&clients));
    let _ = cfg.profile_and_tier_with(&overrides);
    assert!(!any_built(&data), "a counting read built rows");
    assert_eq!(sizes, cfg.train_sizes());

    // Evaluating groups builds their members' holdouts, and only those.
    let _ = session.evaluate_groups(&[vec![3, 7], vec![], vec![11]]);
    assert_eq!(built(&data, true), BTreeSet::from([3, 7, 11]));
    assert!(built(&data, false).is_empty());

    // A small adaptive run on two workers builds the training rows of
    // the clients that trained, and the holdouts of the tiers it
    // evaluated (every third round, all of them).
    let mut runner = cfg.runner();
    runner
        .adaptive(Some(AdaptiveConfig {
            interval: 3,
            credits_per_tier: 4,
            gamma: 2.0,
        }))
        .event_driven(2);
    let (report, session) = runner.run_with_session();
    let data = session.data();
    let trained: BTreeSet<usize> = report
        .rounds
        .iter()
        .flat_map(|r| r.aggregated.iter().copied())
        .collect();
    assert!(trained.len() < cfg.num_clients, "{trained:?}");
    assert_eq!(built(data, false), trained);
    let evaluated: BTreeSet<usize> = runner.tiers().groups().into_iter().flatten().collect();
    assert_eq!(built(data, true), evaluated);
}
