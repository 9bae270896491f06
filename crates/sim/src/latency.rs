//! Response-latency model.
//!
//! The paper defines a client's response latency `L_i` as the time
//! between receiving the training task and returning the results, and a
//! round's latency as `max_i L_i` (Eq. 1). This module maps a training
//! task to `L_i`:
//!
//! ```text
//! L_i = compute + communication + jitter
//! compute       = samples * epochs * flops_per_sample
//!                 / (flops_per_cpu_sec * cpu_share)
//! communication = update_bytes / down_bps        (global model down)
//!               + upload_bytes / up_bps          (trained update up)
//!               + rtt
//! jitter        = multiplicative lognormal noise
//! ```
//!
//! The legacy scalar-bandwidth entry points ([`LatencyModel::nominal_latency`]
//! and friends) are the symmetric special case `up = down = bandwidth`,
//! `upload = update_bytes`, `rtt = 0`, which reduces the communication
//! term to the historical `2 * update_bytes / bandwidth` — bit for bit,
//! since `x + x == 2 * x` in IEEE arithmetic. Asymmetric links and
//! compressed uploads come from `tifl_comm` through
//! [`LatencyModel::nominal_latency_link`].
//!
//! Fig. 1(a)'s two observations fall straight out of this model: latency
//! is linear in sample count at fixed CPU share, and inversely
//! proportional to CPU share at fixed data size.

use crate::resource::LinkQuality;
use rand::rngs::StdRng;
use rand_distr::{Distribution, LogNormal};
use serde::{Deserialize, Serialize};

/// Parameters of the latency model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyModelConfig {
    /// Sustained throughput of one full CPU share, in FLOP/s. The
    /// default (50 MFLOP/s) makes the §3.3 case-study numbers land in
    /// the paper's 2–250 s/round range.
    pub flops_per_cpu_sec: f64,
    /// Sigma of the multiplicative lognormal jitter (0 disables jitter).
    pub jitter_sigma: f64,
    /// Fixed per-round protocol overhead in seconds (task dispatch,
    /// connection setup).
    pub base_overhead_sec: f64,
}

impl Default for LatencyModelConfig {
    fn default() -> Self {
        Self {
            flops_per_cpu_sec: 5.0e7,
            jitter_sigma: 0.05,
            base_overhead_sec: 0.2,
        }
    }
}

/// A task to be timed: one local-training invocation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainingTask {
    /// Local samples processed per epoch.
    pub samples: usize,
    /// Local epochs (the paper uses 1).
    pub epochs: usize,
    /// Model cost per sample (forward + backward), in FLOPs.
    pub flops_per_sample: u64,
    /// Serialized model-update size in bytes (the full-precision model
    /// the server ships down).
    pub update_bytes: u64,
    /// Bytes the client uploads after training — the *encoded* wire
    /// size when an update codec is active. `None` means uncompressed
    /// (`update_bytes` both ways, the legacy symmetric behaviour).
    #[serde(default)]
    pub upload_bytes: Option<u64>,
}

impl TrainingTask {
    /// Bytes crossing the uplink ([`TrainingTask::update_bytes`] unless
    /// an encoded size is set).
    #[must_use]
    pub fn upload(&self) -> u64 {
        self.upload_bytes.unwrap_or(self.update_bytes)
    }
}

/// Deterministic latency model (given an RNG for the jitter stream).
#[derive(Debug, Clone)]
pub struct LatencyModel {
    config: LatencyModelConfig,
    jitter: Option<LogNormal<f64>>,
}

impl LatencyModel {
    /// Build from a config.
    ///
    /// # Panics
    /// Panics if the config contains non-positive throughput.
    #[must_use]
    pub fn new(config: LatencyModelConfig) -> Self {
        assert!(
            config.flops_per_cpu_sec > 0.0,
            "throughput must be positive"
        );
        assert!(config.jitter_sigma >= 0.0, "jitter sigma must be >= 0");
        let jitter = if config.jitter_sigma > 0.0 {
            // Mean-1 lognormal: mu = -sigma^2/2.
            let sigma = config.jitter_sigma;
            Some(LogNormal::new(-sigma * sigma / 2.0, sigma).expect("valid lognormal"))
        } else {
            None
        };
        Self { config, jitter }
    }

    /// The model's configuration.
    #[must_use]
    pub fn config(&self) -> &LatencyModelConfig {
        &self.config
    }

    /// Deterministic (jitter-free) latency for a task on a device.
    ///
    /// # Panics
    /// Panics if `cpu_share` or `bandwidth_bps` is not positive.
    #[must_use]
    pub fn nominal_latency(&self, task: &TrainingTask, cpu_share: f64, bandwidth_bps: f64) -> f64 {
        self.nominal_latency_link(task, cpu_share, &LinkQuality::symmetric(bandwidth_bps))
    }

    /// Deterministic latency for a task on a device behind a directional
    /// link: download of the global model at `down_bps`, upload of the
    /// (possibly encoded) update at `up_bps`, plus the link's RTT.
    ///
    /// # Panics
    /// Panics if `cpu_share` or either bandwidth is not positive.
    #[must_use]
    pub fn nominal_latency_link(
        &self,
        task: &TrainingTask,
        cpu_share: f64,
        link: &LinkQuality,
    ) -> f64 {
        assert!(cpu_share > 0.0, "cpu_share must be positive");
        assert!(link.up_bps > 0.0, "bandwidth must be positive");
        assert!(link.down_bps > 0.0, "bandwidth must be positive");
        assert!(link.rtt_sec >= 0.0, "rtt must be >= 0");
        let flops = task.samples as f64 * task.epochs as f64 * task.flops_per_sample as f64;
        let compute = flops / (self.config.flops_per_cpu_sec * cpu_share);
        let comm = task.update_bytes as f64 / link.down_bps
            + task.upload() as f64 / link.up_bps
            + link.rtt_sec;
        self.config.base_overhead_sec + compute + comm
    }

    /// As [`LatencyModel::nominal_latency_link`] with multiplicative
    /// jitter drawn from `rng`.
    #[must_use]
    pub fn sample_latency_link(
        &self,
        task: &TrainingTask,
        cpu_share: f64,
        link: &LinkQuality,
        rng: &mut StdRng,
    ) -> f64 {
        let nominal = self.nominal_latency_link(task, cpu_share, link);
        match &self.jitter {
            Some(dist) => nominal * dist.sample(rng),
            None => nominal,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn task(samples: usize) -> TrainingTask {
        TrainingTask {
            samples,
            epochs: 1,
            flops_per_sample: 1_000_000,
            update_bytes: 100_000,
            upload_bytes: None,
        }
    }

    fn model(jitter: f64) -> LatencyModel {
        LatencyModel::new(LatencyModelConfig {
            flops_per_cpu_sec: 1.0e6,
            jitter_sigma: jitter,
            base_overhead_sec: 0.0,
        })
    }

    #[test]
    fn latency_linear_in_samples() {
        let m = model(0.0);
        let l1 = m.nominal_latency(&task(100), 1.0, 1e9);
        let l2 = m.nominal_latency(&task(200), 1.0, 1e9);
        assert!((l2 / l1 - 2.0).abs() < 0.01, "ratio {}", l2 / l1);
    }

    #[test]
    fn latency_inverse_in_cpu_share() {
        let m = model(0.0);
        let fast = m.nominal_latency(&task(100), 4.0, 1e9);
        let slow = m.nominal_latency(&task(100), 0.1, 1e9);
        assert!((slow / fast - 40.0).abs() < 0.5, "ratio {}", slow / fast);
    }

    #[test]
    fn communication_term_counts_both_directions() {
        let m = model(0.0);
        let t = TrainingTask {
            samples: 0,
            epochs: 1,
            flops_per_sample: 0,
            update_bytes: 500,
            upload_bytes: None,
        };
        let l = m.nominal_latency(&t, 1.0, 1000.0);
        assert!((l - 1.0).abs() < 1e-9, "2*500/1000 = 1s, got {l}");
    }

    #[test]
    fn symmetric_link_is_bitwise_equal_to_scalar_bandwidth() {
        // The legacy entry point is the symmetric special case — not
        // approximately, bit for bit (the engine's Identity-codec
        // equivalence contract rests on this).
        let m = model(0.3);
        for bw in [1000.0, 1.0e6, 3.7e7] {
            let t = task(137);
            let legacy = m.nominal_latency(&t, 0.7, bw);
            let link = m.nominal_latency_link(&t, 0.7, &LinkQuality::symmetric(bw));
            assert_eq!(legacy.to_bits(), link.to_bits());
        }
    }

    #[test]
    fn asymmetric_uplink_dominates_when_slow() {
        let m = model(0.0);
        let t = TrainingTask {
            samples: 0,
            epochs: 1,
            flops_per_sample: 0,
            update_bytes: 1000,
            upload_bytes: None,
        };
        let slow_up = LinkQuality {
            up_bps: 100.0,
            down_bps: 10_000.0,
            rtt_sec: 0.0,
        };
        let l = m.nominal_latency_link(&t, 1.0, &slow_up);
        assert!((l - (0.1 + 10.0)).abs() < 1e-9, "got {l}");
    }

    #[test]
    fn compressed_upload_shrinks_the_uplink_term() {
        let m = model(0.0);
        let full = TrainingTask {
            samples: 0,
            epochs: 1,
            flops_per_sample: 0,
            update_bytes: 4000,
            upload_bytes: None,
        };
        let compressed = TrainingTask {
            upload_bytes: Some(1000),
            ..full
        };
        let link = LinkQuality {
            up_bps: 1000.0,
            down_bps: 1000.0,
            rtt_sec: 0.5,
        };
        let lf = m.nominal_latency_link(&full, 1.0, &link);
        let lc = m.nominal_latency_link(&compressed, 1.0, &link);
        assert!((lf - (4.0 + 4.0 + 0.5)).abs() < 1e-9, "full {lf}");
        assert!((lc - (4.0 + 1.0 + 0.5)).abs() < 1e-9, "compressed {lc}");
    }

    #[test]
    fn jitter_is_mean_preserving() {
        let m = model(0.2);
        let mut rng = StdRng::seed_from_u64(0);
        let link = LinkQuality::symmetric(1e9);
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| m.sample_latency_link(&task(100), 1.0, &link, &mut rng))
            .sum::<f64>()
            / f64::from(n);
        let nominal = m.nominal_latency(&task(100), 1.0, 1e9);
        assert!(
            (mean / nominal - 1.0).abs() < 0.02,
            "jitter shifted the mean: {mean} vs {nominal}"
        );
    }

    #[test]
    fn jitter_deterministic_per_seed() {
        let m = model(0.3);
        let link = LinkQuality::symmetric(1e9);
        let a = m.sample_latency_link(&task(10), 1.0, &link, &mut StdRng::seed_from_u64(9));
        let b = m.sample_latency_link(&task(10), 1.0, &link, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "cpu_share must be positive")]
    fn rejects_zero_cpu() {
        let m = model(0.0);
        let _ = m.nominal_latency(&task(1), 0.0, 1e9);
    }
}
