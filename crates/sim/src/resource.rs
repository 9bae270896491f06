//! Device resource descriptions and the paper's hardware profiles.

use serde::{Deserialize, Serialize};

/// Compute and communication resources of one simulated device.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceResources {
    /// Fraction of a reference CPU available to local training (the
    /// paper pins clients to 4, 2, 1, 0.5, 0.1... CPUs).
    pub cpu_share: f64,
    /// Uplink/downlink bandwidth in bytes per second.
    pub bandwidth_bps: f64,
}

/// Directional link quality of one device: the communication-model
/// refinement of the scalar [`DeviceResources::bandwidth_bps`].
///
/// Real fleets are uplink-constrained (ADSL/LTE uplinks run 5–20x below
/// their downlinks), and the paper's whole tiering story rests on
/// response latency being dominated by transferring model updates —
/// so the comm subsystem (`tifl_comm`) models the two directions and a
/// round-trip setup cost separately.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkQuality {
    /// Client → server bandwidth in bytes/s.
    pub up_bps: f64,
    /// Server → client bandwidth in bytes/s.
    pub down_bps: f64,
    /// Fixed per-transfer round-trip cost in seconds (connection setup,
    /// propagation).
    pub rtt_sec: f64,
}

impl LinkQuality {
    /// The legacy link shape: the same bandwidth both ways, no RTT.
    /// Latencies computed through a symmetric link are bit-for-bit the
    /// scalar-bandwidth model's (`up + down == 2 * bytes / bps`).
    #[must_use]
    pub fn symmetric(bps: f64) -> Self {
        Self {
            up_bps: bps,
            down_bps: bps,
            rtt_sec: 0.0,
        }
    }
}

/// The paper's per-group CPU allocations (§3.3 and §5.1).
pub mod profiles {
    /// §3.3 case study: 4, 2, 1, 1/3, 1/5 CPUs across 5 groups.
    pub const CASE_STUDY: [f64; 5] = [4.0, 2.0, 1.0, 1.0 / 3.0, 1.0 / 5.0];

    /// §5.1 MNIST / Fashion-MNIST: 2, 1, 0.75, 0.5, 0.25 CPUs.
    pub const MNIST: [f64; 5] = [2.0, 1.0, 0.75, 0.5, 0.25];

    /// §5.1 CIFAR-10 / FEMNIST: 4, 2, 1, 0.5, 0.1 CPUs.
    pub const CIFAR: [f64; 5] = [4.0, 2.0, 1.0, 0.5, 0.1];

    /// Homogeneous baseline used in the data-heterogeneity-only
    /// experiments: 2 CPUs for every client.
    pub const HOMOGENEOUS: [f64; 1] = [2.0];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_are_decreasing() {
        for p in [
            &profiles::CASE_STUDY[..],
            &profiles::MNIST[..],
            &profiles::CIFAR[..],
        ] {
            for w in p.windows(2) {
                assert!(w[0] > w[1], "profile not strictly decreasing: {p:?}");
            }
        }
    }

    #[test]
    fn cifar_profile_spans_40x() {
        let p = profiles::CIFAR;
        assert!((p[0] / p[4] - 40.0).abs() < 1e-9);
    }
}
