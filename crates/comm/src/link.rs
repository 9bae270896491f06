//! Link models and transfer-cost accounting.

use serde::{Deserialize, Serialize};
use tifl_sim::LinkQuality;

/// Seconds to move `bytes` over a `bps` link — transfer seconds are the
/// one unit every communication cost in the system is expressed in
/// (client uplinks, model downlinks, aggregation planes).
///
/// # Panics
/// Panics if `bps` is not positive.
#[must_use]
pub fn transfer_secs(bytes: u64, bps: f64) -> f64 {
    assert!(bps > 0.0, "bandwidth must be positive");
    bytes as f64 / bps
}

/// How per-client links are generated: a deterministic function of the
/// client index, like the CPU-share groups in `tifl_sim::resource`.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum LinkModel {
    /// Every device keeps its configured symmetric `bandwidth_bps` with
    /// zero RTT — bit-for-bit the legacy scalar model.
    #[default]
    ClusterDefault,
    /// Bandwidth tiers mirroring the paper's hardware groups: clients
    /// split into `groups` equal contiguous groups, group `g` gets
    /// `up_bps * decay^g` / `down_bps * decay^g` — the
    /// bandwidth-heterogeneous analogue of the CPU-share profiles.
    /// `groups: 1, decay: 1.0` is one identical link for every client.
    GroupScaled {
        /// Number of equal-sized contiguous bandwidth groups.
        groups: usize,
        /// Group-0 uplink bandwidth in bytes/s.
        up_bps: f64,
        /// Group-0 downlink bandwidth in bytes/s.
        down_bps: f64,
        /// Per-group bandwidth decay factor in (0, 1].
        decay: f64,
        /// Per-transfer RTT in seconds.
        rtt_sec: f64,
    },
}

impl LinkModel {
    /// Materialise one link per device. `device_bps` supplies each
    /// device's configured scalar bandwidth (used by
    /// [`LinkModel::ClusterDefault`]).
    ///
    /// # Panics
    /// Panics on non-positive bandwidths, a negative RTT, a zero group
    /// count, or a decay outside (0, 1].
    #[must_use]
    pub fn materialize(&self, device_bps: &[f64]) -> Vec<LinkQuality> {
        let n = device_bps.len();
        match *self {
            LinkModel::ClusterDefault => device_bps
                .iter()
                .map(|&bps| LinkQuality::symmetric(bps))
                .collect(),
            LinkModel::GroupScaled {
                groups,
                up_bps,
                down_bps,
                decay,
                rtt_sec,
            } => {
                assert!(groups > 0, "at least one bandwidth group");
                assert!(up_bps > 0.0 && down_bps > 0.0, "bandwidth must be positive");
                assert!(decay > 0.0 && decay <= 1.0, "decay must be in (0, 1]");
                assert!(rtt_sec >= 0.0, "rtt must be >= 0");
                let per = n.div_ceil(groups).max(1);
                (0..n)
                    .map(|c| {
                        let g = (c / per).min(groups - 1) as i32;
                        let f = decay.powi(g);
                        LinkQuality {
                            up_bps: up_bps * f,
                            down_bps: down_bps * f,
                            rtt_sec,
                        }
                    })
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_default_mirrors_device_bandwidths() {
        let a = LinkModel::ClusterDefault.materialize(&[1.0e6, 2.0e6]);
        assert_eq!(
            a,
            [LinkQuality::symmetric(1.0e6), LinkQuality::symmetric(2.0e6)]
        );
        assert_eq!(transfer_secs(1_000_000, a[0].up_bps), 1.0);
        assert_eq!(transfer_secs(1_000_000, a[1].down_bps), 0.5);
        assert_eq!(a[0].rtt_sec, 0.0);
    }

    #[test]
    fn uniform_ignores_device_bandwidths() {
        let m = LinkModel::GroupScaled {
            groups: 1,
            up_bps: 1.0e5,
            down_bps: 1.0e6,
            decay: 1.0,
            rtt_sec: 0.1,
        };
        let a = m.materialize(&[7.0, 9.0, 11.0]);
        assert!(a
            .iter()
            .all(|l| l.up_bps == 1.0e5 && l.down_bps == 1.0e6 && l.rtt_sec == 0.1));
    }

    #[test]
    fn group_scaled_builds_bandwidth_tiers() {
        let m = LinkModel::GroupScaled {
            groups: 5,
            up_bps: 3.2e6,
            down_bps: 3.2e6,
            decay: 0.5,
            rtt_sec: 0.0,
        };
        let a = m.materialize(&[0.0; 10]);
        // 2 clients per group, halving per group: 3.2e6 ... 0.2e6.
        assert_eq!(a[0].up_bps, 3.2e6);
        assert_eq!(a[1].up_bps, 3.2e6);
        assert_eq!(a[2].up_bps, 1.6e6);
        assert_eq!(a[9].up_bps, 0.2e6);
    }

    #[test]
    fn transfer_secs_is_bytes_over_bps() {
        assert_eq!(transfer_secs(500, 1000.0), 0.5);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn transfer_rejects_zero_bandwidth() {
        let _ = transfer_secs(1, 0.0);
    }
}
