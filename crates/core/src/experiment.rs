//! Ready-made experiment configurations reproducing the setups of §5.1.
//!
//! An [`ExperimentConfig`] bundles dataset family, partition scenario,
//! hardware profile, model and hyper-parameters; `tifl paper <id>` and
//! the examples build one, then compose runs through the
//! [`crate::runner::Runner`] it hands out via
//! [`crate::runner::Experiment::runner`]
//! (`cfg.runner().policy(&p).run()`, `cfg.runner().adaptive(None).run()`
//! and so on).
//!
//! Calibration note: the synthetic models are far smaller than the
//! paper's Keras CNNs, so the simulated device throughput
//! (`flops_per_cpu_sec`) is set to land per-round latencies in the same
//! range as the paper's testbed (seconds to a few hundred seconds per
//! round depending on CPU share and data size). All training-time
//! numbers are virtual seconds.

use crate::profiler::ProfilerConfig;
use crate::runner::Experiment;
use crate::tiering::TieringConfig;
use serde::{Deserialize, Serialize};
use tifl_data::partition::{self, Partition};
use tifl_data::synth::{Generator, SynthFamily, SynthSpec};
use tifl_data::{build_femnist, femnist_train_sizes, FederatedDataset, LeafDataConfig};
use tifl_fl::session::{AggregationMode, Session, SessionConfig, SessionOverrides};
use tifl_fl::ClientConfig;
use tifl_nn::models::ModelSpec;
use tifl_sim::latency::LatencyModelConfig;
use tifl_sim::{Cluster, ClusterConfig, DriftModel};
use tifl_tensor::{seed_rng, split_seed};

/// The paper's quantity-skew fractions (§5.1): group g of 5 owns
/// 10/15/20/25/30 % of the total data.
pub const PAPER_QUANTITY_FRACTIONS: [f64; 5] = [0.10, 0.15, 0.20, 0.25, 0.30];

/// Which data-heterogeneity scenario to generate (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DataScenario {
    /// IID: every client draws `per_client` samples uniformly.
    Iid {
        /// Samples per client.
        per_client: usize,
    },
    /// non-IID(k): every client holds exactly `k` classes
    /// (Zhao et al., used for CIFAR-10).
    ClassLimit {
        /// Samples per client.
        per_client: usize,
        /// Classes per client.
        k: usize,
    },
    /// Quantity skew: groups own 10/15/20/25/30 % of `total`, IID
    /// content.
    QuantitySkew {
        /// Total samples across clients.
        total: usize,
    },
    /// Quantity skew *and* non-IID(k) — the paper's "Combine".
    QuantitySkewClassLimit {
        /// Total samples across clients.
        total: usize,
        /// Classes per client.
        k: usize,
    },
    /// LEAF's FEMNIST split (§5.2.6): one client per *writer*, each
    /// with its own sample count, class subset and style; the
    /// experiment's `num_clients` is the writer count.
    FemnistWriters(LeafDataConfig),
}

impl DataScenario {
    /// Generate the label partition for `clients` clients. `None` for
    /// [`DataScenario::FemnistWriters`], which is not a partition of a
    /// shared label pool: every writer plans its own holdout as well
    /// ([`tifl_data::build_femnist`]).
    #[must_use]
    pub fn partition(&self, clients: usize, classes: usize, seed: u64) -> Option<Partition> {
        let mut rng = seed_rng(split_seed(seed, 0xDA7A));
        Some(match *self {
            DataScenario::Iid { per_client } => {
                partition::iid(clients, per_client, classes, &mut rng)
            }
            DataScenario::ClassLimit { per_client, k } => {
                partition::class_limit(clients, per_client, classes, k, &mut rng)
            }
            DataScenario::QuantitySkew { total } => partition::quantity_skew(
                clients,
                total,
                classes,
                &PAPER_QUANTITY_FRACTIONS,
                &mut rng,
            ),
            DataScenario::QuantitySkewClassLimit { total, k } => {
                partition::quantity_skew_class_limit(
                    clients,
                    total,
                    classes,
                    &PAPER_QUANTITY_FRACTIONS,
                    k,
                    &mut rng,
                )
            }
            DataScenario::FemnistWriters(_) => return None,
        })
    }
}

/// A complete experiment description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Experiment label (appears in harness output).
    pub name: String,
    /// Synthetic dataset family.
    pub family: SynthFamily,
    /// `|K|`: total clients.
    pub num_clients: usize,
    /// `|C|`: clients per round.
    pub clients_per_round: usize,
    /// Global rounds `N`.
    pub rounds: u64,
    /// Per-group CPU shares (equal-sized groups over `num_clients`, the
    /// first groups one larger when it does not divide).
    pub cpu_profile: Vec<f64>,
    /// Assign hardware to clients uniformly at random (LEAF extension).
    pub shuffle_assignment: bool,
    /// Data-heterogeneity scenario.
    pub data: DataScenario,
    /// Per-client feature-distribution skew: scale of a per-client style
    /// offset added to every local sample. The paper's non-IID splits
    /// skew features as well as labels (§3.3 notes non-IID(10) differs
    /// from IID through feature skew alone); 0 disables.
    pub feature_skew: f32,
    /// Model architecture.
    pub model: ModelSpec,
    /// Local-training hyper-parameters.
    pub client: ClientConfig,
    /// Latency-model parameters.
    pub latency: LatencyModelConfig,
    /// Evaluate the global model every this many rounds.
    pub eval_every: u64,
    /// Tiering parameters (`m` tiers).
    pub tiering: TieringConfig,
    /// Profiler parameters.
    pub profiler: ProfilerConfig,
    /// Update-collection strategy (WaitAll reproduces Algorithm 1;
    /// FirstK reproduces the Bonawitz et al. over-selection baseline).
    pub aggregation: AggregationMode,
    /// Communication model (update codec × link model); `None` keeps
    /// the legacy scalar-bandwidth, uncompressed wire. Usually set per
    /// run through `RunSpec.comm` rather than here.
    #[serde(default)]
    pub comm: Option<tifl_comm::CommSpec>,
    /// Time-varying device performance (None for the paper's static
    /// testbed; used by the re-profiling experiments).
    pub drift: DriftModel,
    /// Root seed.
    pub seed: u64,
}

impl ExperimentConfig {
    /// Simulated throughput calibrated for the small synthetic models
    /// (see module docs).
    fn paper_latency() -> LatencyModelConfig {
        LatencyModelConfig {
            flops_per_cpu_sec: 5.0e6,
            jitter_sigma: 0.05,
            base_overhead_sec: 0.2,
        }
    }

    fn cifar_base(name: &str, seed: u64) -> Self {
        Self {
            name: name.to_string(),
            family: SynthFamily::Cifar10,
            num_clients: 50,
            clients_per_round: 5,
            rounds: 500,
            cpu_profile: tifl_sim::resource::profiles::CIFAR.to_vec(),
            shuffle_assignment: false,
            data: DataScenario::Iid { per_client: 400 },
            feature_skew: 0.0,
            model: ModelSpec::Mlp {
                input: 64,
                hidden: 128,
                classes: 10,
            },
            // The paper trains its CIFAR-10 CNN with RMSprop lr 0.01;
            // our synthetic stand-in model is orders of magnitude
            // smaller, so that lr converges almost instantly and would
            // flatten every accuracy-over-rounds curve. Scaling lr down
            // restores the paper's convergence horizon (~hundreds of
            // rounds) without touching any other hyper-parameter.
            client: ClientConfig {
                optimizer: tifl_fl::OptimizerSpec::RmsProp { lr: 0.0005 },
                ..ClientConfig::paper_synthetic()
            },
            latency: Self::paper_latency(),
            eval_every: 5,
            tiering: TieringConfig::default(),
            profiler: ProfilerConfig {
                sync_rounds: 5,
                tmax_sec: 1000.0,
            },
            aggregation: AggregationMode::WaitAll,
            comm: None,
            drift: DriftModel::None,
            seed,
        }
    }

    /// §5.2.2: CIFAR-10, resource heterogeneity only (IID data, equal
    /// sizes, CPUs 4/2/1/0.5/0.1 per group) — Fig. 3 column 1.
    #[must_use]
    pub fn cifar10_resource_het(seed: u64) -> Self {
        Self::cifar_base("cifar10/resource-het", seed)
    }

    /// §5.2.3: CIFAR-10, data-quantity heterogeneity only (homogeneous
    /// 2-CPU clients, group volumes 10–30 %) — Fig. 3 column 2.
    #[must_use]
    pub fn cifar10_quantity_het(seed: u64) -> Self {
        let mut c = Self::cifar_base("cifar10/quantity-het", seed);
        c.cpu_profile = tifl_sim::resource::profiles::HOMOGENEOUS.to_vec();
        c.data = DataScenario::QuantitySkew { total: 20_000 };
        c
    }

    /// §5.2.3 / Fig. 4: CIFAR-10, non-IID(k) only (homogeneous 2-CPU
    /// clients, equal sizes, k classes per client).
    #[must_use]
    pub fn cifar10_noniid(k: usize, seed: u64) -> Self {
        let mut c = Self::cifar_base(&format!("cifar10/non-iid({k})"), seed);
        c.cpu_profile = tifl_sim::resource::profiles::HOMOGENEOUS.to_vec();
        c.data = DataScenario::ClassLimit { per_client: 400, k };
        c.feature_skew = 0.5;
        c
    }

    /// §5.2.4 / Fig. 6 col 1: resource heterogeneity + non-IID(k), equal
    /// data quantities.
    #[must_use]
    pub fn cifar10_resource_noniid(k: usize, seed: u64) -> Self {
        let mut c = Self::cifar_base(&format!("cifar10/resource+non-iid({k})"), seed);
        c.data = DataScenario::ClassLimit { per_client: 400, k };
        c.feature_skew = 0.5;
        c
    }

    /// §5.2.4 / Fig. 6 col 2: resource + quantity + non-IID(k) — the
    /// paper's "Combine" scenario.
    #[must_use]
    pub fn cifar10_combine(k: usize, seed: u64) -> Self {
        let mut c = Self::cifar_base(&format!("cifar10/combine({k})"), seed);
        c.data = DataScenario::QuantitySkewClassLimit { total: 20_000, k };
        c.feature_skew = 0.5;
        c
    }

    /// §5.2.4 / Fig. 5: MNIST or Fashion-MNIST with resource + data
    /// heterogeneity (CPUs 2/1/0.75/0.5/0.25; quantity skew + 2-class
    /// shard-style skew).
    #[must_use]
    pub fn mnist_like_combined(family: SynthFamily, seed: u64) -> Self {
        assert!(
            matches!(family, SynthFamily::Mnist | SynthFamily::FashionMnist),
            "use the cifar10_* / leaf_femnist constructors for other families"
        );
        let name = match family {
            SynthFamily::Mnist => "mnist/resource+data-het",
            _ => "fmnist/resource+data-het",
        };
        let mut c = Self::cifar_base(name, seed);
        c.family = family;
        c.cpu_profile = tifl_sim::resource::profiles::MNIST.to_vec();
        c.data = DataScenario::QuantitySkewClassLimit {
            total: 20_000,
            k: 2,
        };
        c.feature_skew = 0.3;
        c.model = ModelSpec::Mlp {
            input: 64,
            hidden: 128,
            classes: 10,
        };
        c
    }

    /// §5.2.6 / Fig. 9: LEAF's FEMNIST — 182 writers with LEAF's default
    /// data heterogeneity, hardware assigned uniformly at random, |C| =
    /// 10, 2000 rounds, LEAF's default SGD (lr 0.004, batch 10).
    #[must_use]
    pub fn leaf_femnist(seed: u64) -> Self {
        let mut c = Self::cifar_base("leaf/femnist", seed);
        c.family = SynthFamily::Femnist;
        c.num_clients = 182;
        c.clients_per_round = 10;
        c.rounds = 2000;
        c.shuffle_assignment = true;
        c.data = DataScenario::FemnistWriters(LeafDataConfig::default());
        c.model = ModelSpec::Mlp {
            input: 64,
            hidden: 128,
            classes: 62,
        };
        c.client = ClientConfig::paper_leaf();
        c.eval_every = 20;
        c
    }

    /// [`ExperimentConfig::leaf_femnist`] cut down for tests: 30 small
    /// writers, |C| = 3, 10 rounds.
    #[must_use]
    pub fn leaf_femnist_tiny(seed: u64) -> Self {
        let mut c = Self::leaf_femnist(seed);
        c.num_clients = 30;
        c.clients_per_round = 3;
        c.rounds = 10;
        c.data = DataScenario::FemnistWriters(LeafDataConfig {
            median_samples: 40,
            min_samples: 10,
            global_test_per_class: 2,
            ..LeafDataConfig::default()
        });
        c.model = ModelSpec::Mlp {
            input: 64,
            hidden: 32,
            classes: 62,
        };
        c.eval_every = 2;
        c.profiler.sync_rounds = 2;
        c
    }

    /// Tiny configuration for unit/integration tests: 10 clients, small
    /// data, few rounds. Keeps test suites fast while exercising every
    /// code path.
    #[must_use]
    pub fn tiny(seed: u64) -> Self {
        let mut c = Self::cifar_base("tiny", seed);
        c.family = SynthFamily::Mnist;
        c.num_clients = 10;
        c.clients_per_round = 2;
        c.rounds = 12;
        c.data = DataScenario::Iid { per_client: 40 };
        c.model = ModelSpec::Mlp {
            input: 64,
            hidden: 16,
            classes: 10,
        };
        c.eval_every = 2;
        c.profiler = ProfilerConfig {
            sync_rounds: 2,
            tmax_sec: 1e6,
        };
        c
    }

    // -- construction -----------------------------------------------------

    /// Seed of the data stream (holdouts, features, the writer plans).
    fn data_seed(&self) -> u64 {
        split_seed(self.seed, 0xFED)
    }

    /// The label partition of this config's data scenario (FEMNIST
    /// writers, which have none, are dispatched before every call).
    fn partition(&self) -> Partition {
        let classes = SynthSpec::family(self.family).classes;
        self.data
            .partition(self.num_clients, classes, self.seed)
            .expect("FEMNIST writers are planned by build_femnist")
    }

    /// Plan the federated dataset for this config; client rows are
    /// built on first touch ([`tifl_data::federated::Rows`]).
    ///
    /// # Panics
    /// Panics if the scenario is FEMNIST writers but the family is not
    /// [`SynthFamily::Femnist`].
    #[must_use]
    pub fn build_data(&self) -> FederatedDataset {
        if let DataScenario::FemnistWriters(writers) = &self.data {
            assert!(
                self.family == SynthFamily::Femnist,
                "FemnistWriters data is the Femnist family"
            );
            return build_femnist(self.num_clients, writers, self.data_seed());
        }
        let mut spec = SynthSpec::family(self.family);
        if self.feature_skew > 0.0 {
            spec.style_scale = self.feature_skew;
        }
        let gen = Generator::new(spec, split_seed(self.seed, 0x6E4));
        let part = self.partition();
        FederatedDataset::materialize(&gen, &part, 0.1, 50, self.data_seed())
    }

    /// Whether this config's sizes fit each other. The population can
    /// be sampled and tiered: `clients_per_round` and
    /// `tiering.num_tiers` are each between 1 and `num_clients`. The
    /// communication model's values are ones a run can take
    /// ([`tifl_comm::CommSpec::check`]). The testbed can be priced: the
    /// CPU profile lists at least one share and every share, the CPU
    /// throughput, the profiler's `Tmax` and its round count are
    /// positive, and the latency jitter is not negative. And the model
    /// can train on the data: it takes the family's feature count, its
    /// hidden layer has at least one unit, and it scores at least the
    /// family's classes. `Err` names what is out of range. The `tifl`
    /// CLI asks when it loads a document; a session built from a config
    /// that fails still panics.
    ///
    /// # Errors
    /// A count, comm, testbed or profiler value is out of range, the
    /// model's input width or class count does not fit the data, or its
    /// hidden layer is empty.
    pub fn check_sizes(&self) -> Result<(), String> {
        if let Some(comm) = &self.comm {
            comm.check()?;
        }
        self.check_testbed()?;
        let n = self.num_clients;
        for (field, value) in [
            ("clients_per_round", self.clients_per_round),
            ("tiering.num_tiers", self.tiering.num_tiers),
        ] {
            if !(1..=n).contains(&value) {
                return Err(format!(
                    "{field} {value} is outside 1..={n} (num_clients {n})"
                ));
            }
        }
        let data = SynthSpec::family(self.family);
        let (input, hidden, classes) = (
            self.model.input_features(),
            self.model.hidden(),
            self.model.classes(),
        );
        if input == data.features() && hidden > 0 && classes >= data.classes {
            return Ok(());
        }
        Err(format!(
            "model takes {input} features into {hidden} hidden units and scores {classes} \
             classes / data {:?} has {} features and {} classes",
            self.family,
            data.features(),
            data.classes
        ))
    }

    /// The testbed and profiler values of [`ExperimentConfig::check_sizes`].
    fn check_testbed(&self) -> Result<(), String> {
        let not_positive = |value: f64| value.is_nan() || value <= 0.0;
        if self.cpu_profile.is_empty() {
            return Err("cpu_profile [] lists no CPU share".into());
        }
        if let Some(i) = self.cpu_profile.iter().position(|&s| not_positive(s)) {
            let share = self.cpu_profile[i];
            return Err(format!("cpu_profile[{i}] {share} is not positive"));
        }
        for (field, value) in [
            ("latency.flops_per_cpu_sec", self.latency.flops_per_cpu_sec),
            ("profiler.tmax_sec", self.profiler.tmax_sec),
        ] {
            if not_positive(value) {
                return Err(format!("{field} {value} is not positive"));
            }
        }
        let sigma = self.latency.jitter_sigma;
        if sigma.is_nan() || sigma < 0.0 {
            return Err(format!("latency.jitter_sigma {sigma} is not at least 0"));
        }
        if self.profiler.sync_rounds == 0 {
            return Err("profiler.sync_rounds 0 is not positive".into());
        }
        Ok(())
    }

    /// Build the simulated testbed for this config.
    #[must_use]
    pub fn build_cluster(&self) -> Cluster {
        let mut cfg = ClusterConfig::equal_groups(
            self.num_clients,
            &self.cpu_profile,
            split_seed(self.seed, 0xC1),
        );
        cfg.latency = self.latency;
        cfg.shuffle_assignment = self.shuffle_assignment;
        let mut cluster = Cluster::new(&cfg);
        cluster.set_drift(self.drift.clone());
        cluster
    }

    /// Build a fresh training session (deterministic per config).
    #[must_use]
    pub fn make_session(&self) -> Session {
        self.build_session(&SessionOverrides::default())
    }
}

impl Experiment for ExperimentConfig {
    fn seed(&self) -> u64 {
        self.seed
    }

    fn rounds(&self) -> u64 {
        self.rounds
    }

    fn num_clients(&self) -> usize {
        self.num_clients
    }

    fn profiler_config(&self) -> ProfilerConfig {
        self.profiler
    }

    fn tiering_config(&self) -> TieringConfig {
        self.tiering
    }

    fn session_config(&self, overrides: &SessionOverrides) -> SessionConfig {
        SessionConfig {
            model: self.model,
            client: self.client,
            clients_per_round: self.clients_per_round,
            rounds: self.rounds,
            eval_every: self.eval_every,
            tmax_sec: self.profiler.tmax_sec,
            aggregation: self.aggregation,
            comm: self.comm,
            seed: split_seed(self.seed, 0x5E55),
        }
        .with_overrides(overrides)
    }

    fn build_cluster(&self) -> Cluster {
        Self::build_cluster(self)
    }

    fn build_data(&self) -> FederatedDataset {
        Self::build_data(self)
    }

    fn train_sizes(&self) -> Vec<usize> {
        match &self.data {
            DataScenario::FemnistWriters(writers) => {
                femnist_train_sizes(self.num_clients, writers, self.data_seed())
            }
            _ => self.partition().sizes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy;
    use tifl_fl::RoundReport;

    #[test]
    fn tiny_config_runs_all_policies() {
        let cfg = ExperimentConfig::tiny(1);
        let mut runner = cfg.runner();
        for policy in [Policy::vanilla(), Policy::uniform(5), Policy::fast(5)] {
            let report = runner.policy(&policy).run();
            assert_eq!(report.rounds.len(), 12, "policy {}", policy.name);
            assert!(report.total_time() > 0.0);
        }
    }

    #[test]
    fn tiny_adaptive_runs() {
        let cfg = ExperimentConfig::tiny(2);
        let report = cfg.runner().adaptive(None).run();
        assert_eq!(report.policy, "adaptive");
        assert_eq!(report.rounds.len(), 12);
    }

    #[test]
    fn fast_policy_is_faster_than_slow() {
        let mut cfg = ExperimentConfig::tiny(3);
        cfg.cpu_profile = tifl_sim::resource::profiles::CIFAR.to_vec();
        let mut runner = cfg.runner();
        let fast = runner.policy(&Policy::fast(5)).run().total_time();
        let slow = runner.policy(&Policy::slow(5)).run().total_time();
        assert!(slow > 2.0 * fast, "slow {slow} vs fast {fast}");
    }

    #[test]
    fn profiling_orders_tiers_by_hardware() {
        let cfg = ExperimentConfig::tiny(4);
        let (assignment, result) = cfg.profile_and_tier();
        assert_eq!(assignment.num_tiers(), 5);
        assert!(result.dropouts().is_empty());
        let lats = assignment.tier_latencies();
        for w in lats.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn estimate_tracks_measured_time() {
        let cfg = ExperimentConfig::tiny(5);
        let policy = Policy::uniform(5);
        let mut runner = cfg.runner();
        let est = runner.estimate(&policy);
        let actual = runner.policy(&policy).run().total_time();
        let err = crate::estimator::mape(est, actual);
        assert!(err < 30.0, "MAPE {err}% (est {est}, actual {actual})");
    }

    #[test]
    fn experiments_are_deterministic() {
        let cfg = ExperimentConfig::tiny(6);
        let a = cfg.runner().policy(&Policy::uniform(5)).run();
        let b = cfg.runner().policy(&Policy::uniform(5)).run();
        assert_eq!(a, b);
    }

    #[test]
    fn scenario_partitions_have_expected_shape() {
        let sc = DataScenario::QuantitySkew { total: 1000 };
        let p = sc.partition(10, 10, 0).unwrap();
        assert_eq!(p.total_samples(), 1000);
        let sizes = p.sizes();
        assert!(sizes[0] < sizes[9], "quantity skew not applied: {sizes:?}");

        let sc = DataScenario::ClassLimit {
            per_client: 100,
            k: 2,
        };
        let p = sc.partition(10, 10, 0).unwrap();
        for c in 0..10 {
            assert!(p.distinct_classes(c) <= 2);
        }
    }

    #[test]
    fn fedcs_baseline_avoids_slow_clients() {
        let mut cfg = ExperimentConfig::tiny(31);
        cfg.cpu_profile = tifl_sim::resource::profiles::CIFAR.to_vec();
        cfg.latency.base_overhead_sec = 0.0;
        let (assignment, _) = cfg.profile_and_tier();
        // Deadline between tier 2 and tier 3 latency: only fast clients
        // qualify.
        let lats = assignment.tier_latencies();
        let deadline = (lats[2] + lats[3]) / 2.0;
        let report = cfg.runner().deadline(deadline).run();
        assert_eq!(report.policy, "fedcs");
        let slow_clients = &assignment.tiers[4].clients;
        let counts = report.selection_counts(cfg.num_clients);
        for &c in slow_clients {
            assert_eq!(counts[c], 0, "fedcs selected deadline-violating client {c}");
        }
        // And it is faster than vanilla as a result.
        let vanilla = cfg.runner().vanilla().run();
        assert!(report.total_time() < vanilla.total_time());
    }

    #[test]
    fn overselection_baseline_discards_work() {
        let mut cfg = ExperimentConfig::tiny(32);
        cfg.cpu_profile = tifl_sim::resource::profiles::CIFAR.to_vec();
        let report = cfg.runner().vanilla().overselect(1.5).run();
        assert!(report.discarded_work_fraction() > 0.2);
        let vanilla = cfg.runner().vanilla().run();
        assert!(
            report.total_time() < vanilla.total_time(),
            "over-selection {} should beat wait-all vanilla {}",
            report.total_time(),
            vanilla.total_time()
        );
    }

    #[test]
    fn fedprox_baseline_runs_and_labels() {
        let cfg = ExperimentConfig::tiny(33);
        let report = cfg.runner().vanilla().fedprox(0.1).run();
        assert_eq!(report.policy, "fedprox(0.1)");
        assert_eq!(report.rounds.len(), 12);
    }

    #[test]
    fn reprofiling_tracks_regime_switch() {
        // Plant a regime switch: the fast group becomes the slow one at
        // round 10. With re-profiling every 10 rounds under `fast`, the
        // post-switch segments must stop selecting the now-slow devices.
        let mut cfg = ExperimentConfig::tiny(34);
        cfg.cpu_profile = tifl_sim::resource::profiles::CIFAR.to_vec();
        cfg.latency.base_overhead_sec = 0.0;
        cfg.rounds = 20;
        // Devices 0,1 (4 CPUs) slow down 100x at round 10.
        let mut factors = vec![1.0; 10];
        factors[0] = 0.01;
        factors[1] = 0.01;
        cfg.drift = DriftModel::RegimeSwitch {
            at_round: 10,
            factors,
        };

        let report = cfg
            .runner()
            .policy(&Policy::fast(5))
            .reprofile_every(10)
            .run();
        assert_eq!(report.policy, "fast+reprofile");
        // First segment: fast tier = devices 0,1; second segment: they
        // must vanish from selection.
        let first: Vec<&RoundReport> = report.rounds.iter().take(10).collect();
        let second: Vec<&RoundReport> = report.rounds.iter().skip(10).collect();
        assert!(
            first.iter().all(|r| r.selected.iter().all(|&c| c < 2)),
            "pre-switch fast tier should be devices 0/1"
        );
        assert!(
            second
                .iter()
                .all(|r| !r.selected.contains(&0) && !r.selected.contains(&1)),
            "post-switch re-profile should evict the slowed devices"
        );
    }

    #[test]
    fn static_tiering_misses_regime_switch_without_reprofiling() {
        // Same drift, no re-profiling: `fast` keeps selecting the
        // now-slow devices and pays for it in round latency.
        let mut cfg = ExperimentConfig::tiny(35);
        cfg.cpu_profile = tifl_sim::resource::profiles::CIFAR.to_vec();
        cfg.latency.base_overhead_sec = 0.0;
        cfg.rounds = 20;
        let mut factors = vec![1.0; 10];
        factors[0] = 0.01;
        factors[1] = 0.01;
        cfg.drift = DriftModel::RegimeSwitch {
            at_round: 10,
            factors,
        };

        let mut runner = cfg.runner();
        let stale = runner.policy(&Policy::fast(5)).run();
        let fresh = runner.reprofile_every(10).run();
        assert!(
            fresh.total_time() < stale.total_time() / 2.0,
            "re-profiling ({}) should be much faster than stale tiers ({})",
            fresh.total_time(),
            stale.total_time()
        );
    }

    // -- the LEAF/FEMNIST preset (§5.2.6) ---------------------------------

    #[test]
    fn paper_config_matches_section_526() {
        let e = ExperimentConfig::leaf_femnist(0);
        assert_eq!(e.num_clients, 182);
        assert_eq!(e.clients_per_round, 10);
        assert_eq!(e.rounds, 2000);
        assert_eq!(e.tiering.num_tiers, 5);
        assert!(e.shuffle_assignment, "hardware is assigned at random");
        assert_eq!(e.client, ClientConfig::paper_leaf());
    }

    #[test]
    fn cluster_covers_all_clients() {
        // 182 writers do not divide into five groups: 37+37+36+36+36.
        let paper = ExperimentConfig::leaf_femnist(0).build_cluster();
        assert_eq!(paper.num_devices(), 182);
        let tiny = ExperimentConfig::leaf_femnist_tiny(0).build_cluster();
        assert_eq!(tiny.num_devices(), 30);
    }

    #[test]
    fn tiering_produces_five_tiers() {
        let e = ExperimentConfig::leaf_femnist_tiny(1);
        let (assignment, result) = e.profile_and_tier();
        assert_eq!(assignment.num_tiers(), 5);
        assert_eq!(assignment.num_clients(), 30 - result.dropouts().len());
    }

    #[test]
    fn vanilla_and_tiered_policies_run() {
        let e = ExperimentConfig::leaf_femnist_tiny(2);
        let mut runner = e.runner();
        let v = runner.vanilla().run();
        assert_eq!(v.rounds.len(), 10);
        let u = runner.policy(&Policy::uniform(5)).run();
        assert_eq!(u.rounds.len(), 10);
    }

    #[test]
    fn adaptive_runs_on_leaf() {
        let e = ExperimentConfig::leaf_femnist_tiny(3);
        let r = e.runner().adaptive(None).run();
        assert_eq!(r.policy, "adaptive");
        assert_eq!(r.rounds.len(), 10);
    }

    #[test]
    fn fast_policy_beats_slow_on_time() {
        let e = ExperimentConfig::leaf_femnist_tiny(4);
        let mut runner = e.runner();
        let fast = runner.policy(&Policy::fast(5)).run().total_time();
        let slow = runner.policy(&Policy::slow(5)).run().total_time();
        assert!(slow > fast, "slow {slow} vs fast {fast}");
    }

    #[test]
    #[should_panic(expected = "Femnist family")]
    fn femnist_writers_reject_another_family() {
        let mut e = ExperimentConfig::leaf_femnist_tiny(5);
        e.family = SynthFamily::Cifar10;
        let _ = e.build_data();
    }

    #[test]
    fn paper_presets_match_section_5() {
        let c = ExperimentConfig::cifar10_resource_het(0);
        assert_eq!(c.num_clients, 50);
        assert_eq!(c.clients_per_round, 5);
        assert_eq!(c.rounds, 500);
        assert_eq!(c.cpu_profile.len(), 5);

        let q = ExperimentConfig::cifar10_quantity_het(0);
        assert_eq!(q.cpu_profile, vec![2.0]);

        let m = ExperimentConfig::mnist_like_combined(SynthFamily::Mnist, 0);
        assert_eq!(m.cpu_profile, tifl_sim::resource::profiles::MNIST.to_vec());
    }
}
