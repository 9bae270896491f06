//! The LEAF/FEMNIST experiment runner (§5.2.6, Fig. 9).

use crate::dataset::{build_femnist, femnist_train_sizes, LeafDataConfig};
use serde::{Deserialize, Serialize};
use tifl_core::profiler::ProfilerConfig;
use tifl_core::runner::Experiment;
use tifl_core::tiering::TieringConfig;
use tifl_data::FederatedDataset;
use tifl_fl::session::{AggregationMode, Session, SessionConfig, SessionOverrides};
use tifl_fl::ClientConfig;
use tifl_nn::models::ModelSpec;
use tifl_sim::latency::LatencyModelConfig;
use tifl_sim::{Cluster, ClusterConfig, GroupSpec};
use tifl_tensor::split_seed;

/// The full LEAF benchmark configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LeafExperiment {
    /// Data-generation parameters (182 writers by default).
    pub data: LeafDataConfig,
    /// Per-group CPU shares; clients are assigned to hardware uniformly
    /// at random (the paper's LEAF extension). Groups need not divide
    /// evenly — remainders spread over the first groups.
    pub cpu_profile: Vec<f64>,
    /// `|C|`: clients per round (paper: 10).
    pub clients_per_round: usize,
    /// Global rounds (paper: 2000).
    pub rounds: u64,
    /// Model (LEAF's FEMNIST CNN stand-in sized for the synthetic data).
    pub model: ModelSpec,
    /// Local training (LEAF default: SGD lr 0.004, batch 10, 1 epoch).
    pub client: ClientConfig,
    /// Latency model.
    pub latency: LatencyModelConfig,
    /// Evaluate every this many rounds.
    pub eval_every: u64,
    /// Tiering (paper: 5 tiers for LEAF).
    pub tiering: TieringConfig,
    /// Profiler settings.
    pub profiler: ProfilerConfig,
    /// Update-collection strategy.
    pub aggregation: AggregationMode,
    /// Root seed.
    pub seed: u64,
}

impl LeafExperiment {
    /// The paper's configuration: 182 clients, |C| = 10, 2000 rounds,
    /// 5 tiers, SGD lr 0.004.
    #[must_use]
    pub fn paper(seed: u64) -> Self {
        Self {
            data: LeafDataConfig::default(),
            cpu_profile: tifl_sim::resource::profiles::CIFAR.to_vec(),
            clients_per_round: 10,
            rounds: 2000,
            model: ModelSpec::Mlp {
                input: 64,
                hidden: 128,
                classes: 62,
            },
            client: ClientConfig::paper_leaf(),
            latency: LatencyModelConfig {
                flops_per_cpu_sec: 5.0e6,
                jitter_sigma: 0.05,
                base_overhead_sec: 0.2,
            },
            eval_every: 20,
            tiering: TieringConfig::default(),
            profiler: ProfilerConfig {
                sync_rounds: 5,
                tmax_sec: 1000.0,
            },
            aggregation: AggregationMode::WaitAll,
            seed,
        }
    }

    /// Small configuration for tests: 30 clients, few rounds.
    #[must_use]
    pub fn tiny(seed: u64) -> Self {
        let mut c = Self::paper(seed);
        c.data.num_clients = 30;
        c.data.median_samples = 40;
        c.data.min_samples = 10;
        c.data.global_test_per_class = 2;
        c.clients_per_round = 3;
        c.rounds = 10;
        c.eval_every = 2;
        c.model = ModelSpec::Mlp {
            input: 64,
            hidden: 32,
            classes: 62,
        };
        c.profiler.sync_rounds = 2;
        c
    }

    /// Build the simulated testbed: hardware groups spread over
    /// `num_clients` with uniform-random assignment.
    #[must_use]
    pub fn build_cluster(&self) -> Cluster {
        let n = self.data.num_clients;
        let g = self.cpu_profile.len();
        let groups: Vec<GroupSpec> = self
            .cpu_profile
            .iter()
            .enumerate()
            .map(|(i, &cpu_share)| GroupSpec {
                // Spread the remainder over the first `n % g` groups.
                count: n / g + usize::from(i < n % g),
                cpu_share,
            })
            .collect();
        let cfg = ClusterConfig {
            groups,
            bandwidth_bps: 1_000_000.0,
            latency: self.latency,
            shuffle_assignment: true,
            seed: split_seed(self.seed, 0xC1),
        };
        Cluster::new(&cfg)
    }

    /// Seed of the data stream (`build_femnist`, `femnist_train_sizes`).
    fn data_seed(&self) -> u64 {
        split_seed(self.seed, 0xFED)
    }

    /// Build a fresh training session.
    #[must_use]
    pub fn make_session(&self) -> Session {
        self.build_session(&SessionOverrides::default())
    }
}

impl Experiment for LeafExperiment {
    fn seed(&self) -> u64 {
        self.seed
    }

    fn rounds(&self) -> u64 {
        self.rounds
    }

    fn num_clients(&self) -> usize {
        self.data.num_clients
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
            comm: None,
            seed: split_seed(self.seed, 0x5E55),
        }
        .with_overrides(overrides)
    }

    fn build_cluster(&self) -> Cluster {
        Self::build_cluster(self)
    }

    fn build_data(&self) -> FederatedDataset {
        build_femnist(&self.data, self.data_seed())
    }

    fn train_sizes(&self) -> Vec<usize> {
        femnist_train_sizes(&self.data, self.data_seed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tifl_core::policy::Policy;

    #[test]
    fn cluster_covers_all_clients() {
        let e = LeafExperiment::tiny(0);
        let c = e.build_cluster();
        assert_eq!(c.num_devices(), 30);
    }

    #[test]
    fn paper_config_matches_section_526() {
        let e = LeafExperiment::paper(0);
        assert_eq!(e.data.num_clients, 182);
        assert_eq!(e.clients_per_round, 10);
        assert_eq!(e.rounds, 2000);
        assert_eq!(e.tiering.num_tiers, 5);
    }

    #[test]
    fn tiering_produces_five_tiers() {
        let e = LeafExperiment::tiny(1);
        let (assignment, result) = e.profile_and_tier();
        assert_eq!(assignment.num_tiers(), 5);
        assert_eq!(assignment.num_clients(), 30 - result.dropouts().len());
    }

    #[test]
    fn vanilla_and_tiered_policies_run() {
        let e = LeafExperiment::tiny(2);
        let mut runner = e.runner();
        let v = runner.vanilla().run();
        assert_eq!(v.rounds.len(), 10);
        let u = runner.policy(&Policy::uniform(5)).run();
        assert_eq!(u.rounds.len(), 10);
    }

    #[test]
    fn adaptive_runs_on_leaf() {
        let e = LeafExperiment::tiny(3);
        let r = e.runner().adaptive(None).run();
        assert_eq!(r.policy, "adaptive");
        assert_eq!(r.rounds.len(), 10);
    }

    #[test]
    fn fast_policy_beats_slow_on_time() {
        let e = LeafExperiment::tiny(4);
        let mut runner = e.runner();
        let fast = runner.policy(&Policy::fast(5)).run().total_time();
        let slow = runner.policy(&Policy::slow(5)).run().total_time();
        assert!(slow > fast, "slow {slow} vs fast {fast}");
    }
}
