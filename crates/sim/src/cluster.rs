//! A simulated testbed: devices + latency model + availability.

use crate::drift::DriftModel;
use crate::dropout::DropoutModel;
use crate::latency::{LatencyModel, LatencyModelConfig, TrainingTask};
use crate::resource::{DeviceResources, LinkQuality};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use tifl_tensor::split_seed;

/// A homogeneous group of devices (the paper assigns CPUs per group).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GroupSpec {
    /// Number of devices in the group.
    pub count: usize,
    /// CPU share of each device.
    pub cpu_share: f64,
}

/// Testbed construction parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Device groups (e.g. 5 groups of 10 clients at 4/2/1/0.5/0.1 CPUs).
    pub groups: Vec<GroupSpec>,
    /// Link bandwidth of every device in bytes/s.
    pub bandwidth_bps: f64,
    /// Latency-model parameters.
    pub latency: LatencyModelConfig,
    /// If true, device ids are assigned to hardware uniformly at random
    /// (the paper's LEAF extension assigns hardware this way); otherwise
    /// device `i` belongs to group `i / group_size` in order.
    pub shuffle_assignment: bool,
    /// Root seed for jitter and assignment.
    pub seed: u64,
}

impl ClusterConfig {
    /// Equal-sized groups over the given CPU-share profile; when
    /// `total` does not divide evenly, the first `total % groups`
    /// groups take one device more (182 over 5 = 37+37+36+36+36).
    ///
    /// # Panics
    /// Panics if the profile is empty.
    #[must_use]
    pub fn equal_groups(total: usize, cpu_profile: &[f64], seed: u64) -> Self {
        assert!(!cpu_profile.is_empty(), "need at least one device group");
        let groups = cpu_profile.len();
        Self {
            groups: cpu_profile
                .iter()
                .enumerate()
                .map(|(i, &cpu_share)| GroupSpec {
                    count: total / groups + usize::from(i < total % groups),
                    cpu_share,
                })
                .collect(),
            bandwidth_bps: 1_000_000.0,
            latency: LatencyModelConfig::default(),
            shuffle_assignment: false,
            seed,
        }
    }
}

/// The simulated testbed.
#[derive(Debug, Clone)]
pub struct Cluster {
    devices: Vec<DeviceResources>,
    latency: LatencyModel,
    dropout: DropoutModel,
    drift: DriftModel,
    /// Per-device directional links (installed by the comm subsystem);
    /// `None` falls back to each device's symmetric `bandwidth_bps`.
    links: Option<Vec<LinkQuality>>,
    seed: u64,
}

impl Cluster {
    /// Materialise a cluster from a config.
    #[must_use]
    pub fn new(config: &ClusterConfig) -> Self {
        let mut devices: Vec<DeviceResources> = config
            .groups
            .iter()
            .flat_map(|g| {
                std::iter::repeat_n(
                    DeviceResources {
                        cpu_share: g.cpu_share,
                        bandwidth_bps: config.bandwidth_bps,
                    },
                    g.count,
                )
            })
            .collect();
        if config.shuffle_assignment {
            let mut rng = rand::rngs::StdRng::seed_from_u64(split_seed(config.seed, 0xA551));
            devices.shuffle(&mut rng);
        }
        let n = devices.len();
        Self {
            devices,
            latency: LatencyModel::new(config.latency),
            dropout: DropoutModel::always_available(n, split_seed(config.seed, 0xD0D0)),
            drift: DriftModel::None,
            links: None,
            seed: config.seed,
        }
    }

    /// Install a time-varying performance model (see [`DriftModel`]).
    pub fn set_drift(&mut self, drift: DriftModel) {
        self.drift = drift;
    }

    /// Install per-device directional links (the comm subsystem's
    /// refinement of the scalar `bandwidth_bps`). All latency paths —
    /// training rounds, profiling, straggler deadlines — switch to the
    /// directional model.
    ///
    /// # Panics
    /// Panics if the link count does not cover every device.
    pub fn set_links(&mut self, links: Vec<LinkQuality>) {
        assert_eq!(
            links.len(),
            self.devices.len(),
            "link table must cover every device"
        );
        self.links = Some(links);
    }

    /// The link of device `d`: the installed directional link, or the
    /// symmetric legacy fallback over the device's `bandwidth_bps`.
    #[must_use]
    pub fn link_of(&self, d: usize) -> LinkQuality {
        self.links.as_ref().map_or_else(
            || LinkQuality::symmetric(self.devices[d].bandwidth_bps),
            |l| l[d],
        )
    }

    /// Replace the availability model (failure injection).
    pub fn set_dropout(&mut self, dropout: DropoutModel) {
        assert_eq!(
            dropout.num_devices(),
            self.devices.len(),
            "dropout model must cover every device"
        );
        self.dropout = dropout;
    }

    /// Number of devices.
    #[must_use]
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// Resources of device `d`.
    #[must_use]
    pub fn device(&self, d: usize) -> DeviceResources {
        self.devices[d]
    }

    /// Response latency of device `d` executing `task` in `round`, or
    /// `None` if the device does not respond this round.
    ///
    /// Deterministic in `(cluster seed, d, round)`: re-simulating the
    /// same round yields the same latency.
    #[must_use]
    pub fn response(&self, d: usize, round: u64, task: &TrainingTask) -> Option<f64> {
        if !self.dropout.responds(d, round) {
            return None;
        }
        let dev = self.devices[d];
        let cpu = dev.cpu_share * self.drift.cpu_scale(d, round);
        let mut rng =
            rand::rngs::StdRng::seed_from_u64(split_seed(self.seed, split_seed(d as u64, round)));
        Some(
            self.latency
                .sample_latency_link(task, cpu, &self.link_of(d), &mut rng),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::profiles;

    fn task() -> TrainingTask {
        TrainingTask {
            samples: 100,
            epochs: 1,
            flops_per_sample: 1_000_000,
            update_bytes: 10_000,
            upload_bytes: None,
        }
    }

    fn cluster() -> Cluster {
        Cluster::new(&ClusterConfig::equal_groups(50, &profiles::CIFAR, 7))
    }

    #[test]
    fn equal_groups_builds_expected_sizes() {
        let c = cluster();
        assert_eq!(c.num_devices(), 50);
        assert_eq!(c.device(0).cpu_share, 4.0);
        assert_eq!(c.device(49).cpu_share, 0.1);
    }

    #[test]
    fn equal_groups_spreads_the_remainder_over_the_first_groups() {
        // The LEAF deployment: 182 writers over five hardware groups.
        let cfg = ClusterConfig::equal_groups(182, &profiles::CIFAR, 7);
        let counts: Vec<usize> = cfg.groups.iter().map(|g| g.count).collect();
        assert_eq!(counts, [37, 37, 36, 36, 36]);
        assert_eq!(Cluster::new(&cfg).num_devices(), 182);
    }

    #[test]
    fn equal_groups_is_unchanged_when_the_total_divides() {
        // The groups the divide-evenly-only rule built, spelled out.
        let mut by_hand = ClusterConfig {
            groups: profiles::CIFAR
                .iter()
                .map(|&cpu_share| GroupSpec {
                    count: 10,
                    cpu_share,
                })
                .collect(),
            bandwidth_bps: 1_000_000.0,
            latency: LatencyModelConfig::default(),
            shuffle_assignment: false,
            seed: 7,
        };
        let mut cfg = ClusterConfig::equal_groups(50, &profiles::CIFAR, 7);
        assert_eq!(cfg.groups, by_hand.groups);
        for shuffle in [false, true] {
            cfg.shuffle_assignment = shuffle;
            by_hand.shuffle_assignment = shuffle;
            let (a, b) = (Cluster::new(&cfg), Cluster::new(&by_hand));
            for d in 0..50 {
                // Device order (and the shuffle stream behind it)...
                assert_eq!(a.device(d), b.device(d));
                // ...and the jitter stream.
                assert_eq!(a.response(d, 3, &task()), b.response(d, 3, &task()));
            }
        }
    }

    #[test]
    fn slower_group_has_higher_latency() {
        let c = cluster();
        let nominal = |d: usize| {
            c.latency
                .nominal_latency_link(&task(), c.devices[d].cpu_share, &c.link_of(d))
        };
        let (fast, slow) = (nominal(0), nominal(49));
        assert!(slow > 10.0 * fast, "fast {fast}, slow {slow}");
    }

    #[test]
    fn response_is_deterministic() {
        let c = cluster();
        assert_eq!(c.response(3, 10, &task()), c.response(3, 10, &task()));
    }

    #[test]
    fn different_rounds_jitter_differently() {
        let c = cluster();
        assert_ne!(c.response(3, 0, &task()), c.response(3, 1, &task()));
    }

    #[test]
    fn installed_links_change_the_comm_term_only() {
        let mut c = cluster();
        let symmetric = c.response(3, 0, &task()).unwrap();
        // Installing the explicit symmetric link is a no-op, bit for bit.
        let links: Vec<LinkQuality> = (0..50)
            .map(|d| LinkQuality::symmetric(c.device(d).bandwidth_bps))
            .collect();
        c.set_links(links);
        assert_eq!(c.response(3, 0, &task()), Some(symmetric));
        // A 10x slower uplink strictly slows the device down.
        let mut slow: Vec<LinkQuality> = (0..50)
            .map(|d| LinkQuality::symmetric(c.device(d).bandwidth_bps))
            .collect();
        slow[3].up_bps /= 10.0;
        c.set_links(slow);
        assert!(c.response(3, 0, &task()).unwrap() > symmetric);
    }

    #[test]
    #[should_panic(expected = "cover every device")]
    fn set_links_rejects_short_tables() {
        let mut c = cluster();
        c.set_links(vec![LinkQuality::symmetric(1e6); 3]);
    }

    #[test]
    fn shuffle_assignment_permutes_hardware() {
        let mut cfg = ClusterConfig::equal_groups(50, &profiles::CIFAR, 3);
        cfg.shuffle_assignment = true;
        let c = Cluster::new(&cfg);
        // Same multiset of CPU shares, different order than unshuffled.
        let mut shares: Vec<f64> = (0..50).map(|d| c.device(d).cpu_share).collect();
        let first_five: Vec<f64> = shares[..5].to_vec();
        assert!(
            first_five.iter().any(|&s| (s - 4.0).abs() > 1e-12),
            "shuffle left group order intact (unlikely)"
        );
        shares.sort_by(f64::total_cmp);
        let mut expect: Vec<f64> = profiles::CIFAR
            .iter()
            .flat_map(|&s| std::iter::repeat_n(s, 10))
            .collect();
        expect.sort_by(f64::total_cmp);
        assert_eq!(shares, expect);
    }
}
