//! The lightweight latency profiler (§4.2).
//!
//! All available clients are initialised with response latency 0 and
//! asked to run the training task for `sync_rounds` profiling rounds.
//! Clients answering within `Tmax` have their accumulated latency `RT_i`
//! incremented by the observed training time; the ones that time out are
//! incremented by `Tmax`. Clients with `RT_i >= sync_rounds * Tmax`
//! after profiling (i.e. they never answered) are dropouts and excluded
//! from tiering and scheduling.

use serde::{Deserialize, Serialize};
use tifl_sim::latency::TrainingTask;
use tifl_sim::Cluster;

/// Profiler parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProfilerConfig {
    /// Number of profiling rounds (`sync_rounds`).
    pub sync_rounds: u64,
    /// Per-round response timeout in seconds (`Tmax`).
    pub tmax_sec: f64,
}

impl Default for ProfilerConfig {
    fn default() -> Self {
        Self {
            sync_rounds: 5,
            tmax_sec: 1000.0,
        }
    }
}

/// Outcome of profiling one client pool.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileResult {
    /// Mean observed response latency per client; `None` marks a dropout
    /// (never answered within `Tmax`).
    pub mean_latency: Vec<Option<f64>>,
    /// Total virtual time spent profiling (sum over rounds of the
    /// slowest responder, like a real synchronised profiling phase).
    pub profiling_time: f64,
    /// The config used.
    pub config: ProfilerConfig,
}

impl ProfileResult {
    /// Ids of excluded dropouts.
    #[must_use]
    pub fn dropouts(&self) -> Vec<usize> {
        self.mean_latency
            .iter()
            .enumerate()
            .filter_map(|(i, l)| l.is_none().then_some(i))
            .collect()
    }
}

/// The profiler: measures every device in a cluster.
#[derive(Debug, Clone, Copy, Default)]
pub struct Profiler {
    config: ProfilerConfig,
}

impl Profiler {
    /// Profiler with the given config.
    #[must_use]
    pub fn new(config: ProfilerConfig) -> Self {
        Self { config }
    }

    /// Run `sync_rounds` profiling rounds over all devices before
    /// training begins (round position 0).
    ///
    /// `task_for(client)` supplies the training task each client would
    /// run (its local sample count and the model cost), so profiled
    /// latency reflects *both* resource and data-quantity heterogeneity
    /// — exactly why the paper's tiers capture the two jointly.
    #[must_use]
    pub fn profile(
        &self,
        cluster: &Cluster,
        task_for: impl Fn(usize) -> TrainingTask,
    ) -> ProfileResult {
        self.profile_at(cluster, task_for, 0)
    }

    /// Run profiling as of training round `base_round` — the periodic
    /// re-profiling path of §4.2 for clusters whose performance drifts.
    ///
    /// Profiling rounds are flagged with
    /// [`tifl_sim::drift::PROFILING_ROUND_FLAG`] so their jitter stream
    /// is distinct from training rounds while any drift model still sees
    /// the correct training-round position.
    #[must_use]
    pub fn profile_at(
        &self,
        cluster: &Cluster,
        task_for: impl Fn(usize) -> TrainingTask,
        base_round: u64,
    ) -> ProfileResult {
        let n = cluster.num_devices();
        let mut accumulated = vec![0.0f64; n];
        let mut responded = vec![false; n];
        let mut profiling_time = 0.0f64;

        for r in 0..self.config.sync_rounds {
            let round_id = (base_round + r) | tifl_sim::drift::PROFILING_ROUND_FLAG;
            let mut round_slowest = 0.0f64;
            for c in 0..n {
                let task = task_for(c);
                let observed = cluster
                    .response(c, round_id, &task)
                    .filter(|&l| l <= self.config.tmax_sec);
                match observed {
                    Some(l) => {
                        accumulated[c] += l;
                        responded[c] = true;
                        round_slowest = round_slowest.max(l);
                    }
                    None => {
                        accumulated[c] += self.config.tmax_sec;
                        round_slowest = self.config.tmax_sec;
                    }
                }
            }
            profiling_time += round_slowest;
        }

        let sync_rounds = self.config.sync_rounds as f64;
        let mean_latency = accumulated
            .iter()
            .zip(&responded)
            .map(|(&rt, &ok)| {
                // RT_i >= sync_rounds * Tmax means every round timed out.
                if !ok || rt >= sync_rounds * self.config.tmax_sec {
                    None
                } else {
                    Some(rt / sync_rounds)
                }
            })
            .collect();

        ProfileResult {
            mean_latency,
            profiling_time,
            config: self.config,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tifl_sim::dropout::DropoutModel;
    use tifl_sim::resource::profiles;
    use tifl_sim::ClusterConfig;

    fn task(_c: usize) -> TrainingTask {
        TrainingTask {
            samples: 100,
            epochs: 1,
            flops_per_sample: 1_000_000,
            update_bytes: 1_000,
            upload_bytes: None,
        }
    }

    fn cluster() -> Cluster {
        let mut cfg = ClusterConfig::equal_groups(20, &profiles::CIFAR[..4], 1);
        cfg.latency.base_overhead_sec = 0.0;
        Cluster::new(&cfg)
    }

    #[test]
    fn profiled_latency_orders_by_cpu_share() {
        let p = Profiler::new(ProfilerConfig {
            sync_rounds: 5,
            tmax_sec: 1e9,
        });
        let r = p.profile(&cluster(), task);
        // group means: devices 0-4 fastest ... 15-19 slowest
        let l0 = r.mean_latency[0].expect("client 0 completes profiling under uniform shares");
        let l19 = r.mean_latency[19].expect("client 19 completes profiling under uniform shares");
        assert!(l19 > 5.0 * l0, "fast {l0}, slow {l19}");
        assert!(r.dropouts().is_empty());
    }

    #[test]
    fn dead_devices_are_dropouts() {
        let mut c = cluster();
        let mut d = DropoutModel::always_available(20, 0);
        d.kill(&[3, 17]);
        c.set_dropout(d);
        let p = Profiler::new(ProfilerConfig {
            sync_rounds: 3,
            tmax_sec: 1e3,
        });
        let r = p.profile(&c, task);
        assert_eq!(r.dropouts(), vec![3, 17]);
        assert_eq!(r.mean_latency.iter().flatten().count(), 18);
    }

    #[test]
    fn flaky_devices_survive_but_penalised() {
        // Device that fails ~half its profiling rounds accumulates Tmax
        // for those rounds: mean latency well above its nominal latency.
        let mut c = cluster();
        let mut probs = vec![0.0; 20];
        probs[0] = 0.5;
        c.set_dropout(DropoutModel::from_probs(probs, 42));
        let p = Profiler::new(ProfilerConfig {
            sync_rounds: 20,
            tmax_sec: 100.0,
        });
        let r = p.profile(&c, task);
        let flaky = r.mean_latency[0].expect("flaky device should not be a dropout");
        let healthy = r.mean_latency[1].expect("healthy device profiles without dropouts");
        assert!(
            flaky > 5.0 * healthy,
            "flaky {flaky} should be penalised vs healthy {healthy}"
        );
    }

    #[test]
    fn profiling_accounts_virtual_time() {
        let p = Profiler::new(ProfilerConfig {
            sync_rounds: 5,
            tmax_sec: 1e9,
        });
        let r = p.profile(&cluster(), task);
        assert!(r.profiling_time > 0.0);
        // At least sync_rounds * (slowest mean) up to jitter.
        let slowest = r
            .mean_latency
            .iter()
            .flatten()
            .fold(0.0f64, |a, &b| a.max(b));
        assert!(r.profiling_time >= 0.8 * 5.0 * slowest);
    }

    #[test]
    fn profile_is_deterministic() {
        let p = Profiler::new(ProfilerConfig::default());
        let a = p.profile(&cluster(), task);
        let b = p.profile(&cluster(), task);
        assert_eq!(a, b);
    }

    #[test]
    fn data_quantity_shows_up_in_latency() {
        // Same hardware, different sample counts: latency must scale.
        let mut cfg = ClusterConfig::equal_groups(2, &[1.0], 5);
        cfg.latency.base_overhead_sec = 0.0;
        let c = Cluster::new(&cfg);
        let p = Profiler::new(ProfilerConfig {
            sync_rounds: 5,
            tmax_sec: 1e9,
        });
        let r = p.profile(&c, |client| TrainingTask {
            samples: if client == 0 { 100 } else { 1000 },
            epochs: 1,
            flops_per_sample: 1_000_000,
            update_bytes: 1_000,
            upload_bytes: None,
        });
        let small = r.mean_latency[0].expect("small-model client completes profiling");
        let big = r.mean_latency[1].expect("big-model client completes profiling");
        assert!((big / small - 10.0).abs() < 1.0, "ratio {}", big / small);
    }
}
