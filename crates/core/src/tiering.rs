//! Tiering: grouping clients by profiled latency (§4.2).
//!
//! The collected latencies form a histogram that is split into `m`
//! groups; clients in the same group form a tier, and each tier records
//! its average response latency for the scheduler and the estimator.
//!
//! The split, [`SplitStrategy::EqualCount`], sorts by latency and cuts
//! into `m` equal-population quantile groups. This guarantees every
//! tier has `~|K|/m` clients, satisfying the paper's requirement that
//! `n_j > |C|` for every tier.

use serde::{Deserialize, Serialize};

/// How to split the latency histogram into tiers. One strategy is
/// left; the field that names it stays in every serialised config, and
/// so in every `RunKey`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SplitStrategy {
    /// Equal-population quantile split (default).
    #[default]
    EqualCount,
}

/// Tiering parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TieringConfig {
    /// Number of tiers `m` (paper: 5).
    pub num_tiers: usize,
    /// Histogram split strategy.
    pub strategy: SplitStrategy,
}

impl TieringConfig {
    /// How many of `clients` live clients each tier holds, fastest tier
    /// first: the equal-count split gives every tier `clients / m`, and
    /// the first `clients % m` tiers one more.
    #[must_use]
    pub fn tier_sizes(&self, clients: usize) -> Vec<usize> {
        // The one strategy (this binding stops compiling if another is
        // added).
        let SplitStrategy::EqualCount = self.strategy;
        let m = self.num_tiers;
        (0..m)
            .map(|t| clients / m + usize::from(t < clients % m))
            .collect()
    }
}

impl Default for TieringConfig {
    fn default() -> Self {
        Self {
            num_tiers: 5,
            strategy: SplitStrategy::EqualCount,
        }
    }
}

/// One tier: a set of clients with similar response latency.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tier {
    /// Client ids in this tier.
    pub clients: Vec<usize>,
    /// Mean profiled response latency of the tier (seconds) — the
    /// `L_tier_i` of Eq. 6.
    pub avg_latency: f64,
}

/// The complete tier assignment, ordered fastest (tier 0) to slowest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TierAssignment {
    /// Tiers ordered by increasing average latency.
    pub tiers: Vec<Tier>,
}

impl TierAssignment {
    /// Build tiers from profiled latencies.
    ///
    /// `latencies[i] = None` marks client `i` as a dropout to exclude.
    ///
    /// # Panics
    /// Panics if there are fewer live clients than requested tiers, or
    /// `num_tiers == 0`.
    #[must_use]
    pub fn from_latencies(latencies: &[Option<f64>], config: &TieringConfig) -> Self {
        assert!(config.num_tiers > 0, "need at least one tier");
        let mut live: Vec<(usize, f64)> = latencies
            .iter()
            .enumerate()
            .filter_map(|(i, l)| l.map(|v| (i, v)))
            .collect();
        assert!(
            live.len() >= config.num_tiers,
            "cannot split {} live clients into {} tiers",
            live.len(),
            config.num_tiers
        );
        live.sort_by(|a, b| a.1.total_cmp(&b.1));

        let mut start = 0;
        let tiers = config
            .tier_sizes(live.len())
            .into_iter()
            .map(|size| {
                let g = &live[start..start + size];
                start += size;
                let avg = g.iter().map(|&(_, l)| l).sum::<f64>() / g.len() as f64;
                Tier {
                    clients: g.iter().map(|&(i, _)| i).collect(),
                    avg_latency: avg,
                }
            })
            .collect();
        Self { tiers }
    }

    /// Number of tiers.
    #[must_use]
    pub fn num_tiers(&self) -> usize {
        self.tiers.len()
    }

    /// Total clients across tiers.
    #[must_use]
    pub fn num_clients(&self) -> usize {
        self.tiers.iter().map(|t| t.clients.len()).sum()
    }

    /// Average latency of each tier, fastest first (`L_tier_i`).
    #[must_use]
    pub fn tier_latencies(&self) -> Vec<f64> {
        self.tiers.iter().map(|t| t.avg_latency).collect()
    }

    /// The tier index containing client `c`, if any.
    #[must_use]
    pub fn tier_of(&self, c: usize) -> Option<usize> {
        self.tiers.iter().position(|t| t.clients.contains(&c))
    }

    /// Client groups per tier (for the session's group evaluation).
    #[must_use]
    pub fn groups(&self) -> Vec<Vec<usize>> {
        self.tiers.iter().map(|t| t.clients.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn latencies(vals: &[f64]) -> Vec<Option<f64>> {
        vals.iter().map(|&v| Some(v)).collect()
    }

    #[test]
    fn equal_count_splits_evenly() {
        let l = latencies(&[5.0, 1.0, 3.0, 2.0, 4.0, 6.0, 8.0, 7.0, 10.0, 9.0]);
        let a = TierAssignment::from_latencies(&l, &TieringConfig::default());
        assert_eq!(a.num_tiers(), 5);
        assert!(a.tiers.iter().all(|t| t.clients.len() == 2));
        // fastest tier holds the two smallest latencies (clients 1 and 3)
        let mut t0 = a.tiers[0].clients.clone();
        t0.sort_unstable();
        assert_eq!(t0, vec![1, 3]);
    }

    #[test]
    fn tiers_ordered_by_latency() {
        let l = latencies(&[9.0, 1.0, 5.0, 2.0, 7.0, 3.0, 8.0, 4.0, 6.0, 10.0]);
        let a = TierAssignment::from_latencies(&l, &TieringConfig::default());
        let lats = a.tier_latencies();
        for w in lats.windows(2) {
            assert!(w[0] < w[1], "tier latencies not increasing: {lats:?}");
        }
    }

    #[test]
    fn uneven_population_distributes_remainder() {
        let l = latencies(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        let cfg = TieringConfig {
            num_tiers: 3,
            ..Default::default()
        };
        let a = TierAssignment::from_latencies(&l, &cfg);
        let sizes: Vec<usize> = a.tiers.iter().map(|t| t.clients.len()).collect();
        assert_eq!(sizes, vec![3, 2, 2]);
        assert_eq!(a.num_clients(), 7);
    }

    #[test]
    fn dropouts_are_excluded() {
        let mut l = latencies(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        l[2] = None;
        let cfg = TieringConfig {
            num_tiers: 5,
            ..Default::default()
        };
        let a = TierAssignment::from_latencies(&l, &cfg);
        assert_eq!(a.num_clients(), 5);
        assert_eq!(a.tier_of(2), None);
    }

    #[test]
    fn tier_of_finds_every_client() {
        let l = latencies(&[3.0, 1.0, 2.0, 5.0, 4.0]);
        let cfg = TieringConfig {
            num_tiers: 5,
            ..Default::default()
        };
        let a = TierAssignment::from_latencies(&l, &cfg);
        for c in 0..5 {
            assert!(a.tier_of(c).is_some(), "client {c} missing");
        }
        // client 1 is fastest -> tier 0
        assert_eq!(a.tier_of(1), Some(0));
        assert_eq!(a.tier_of(3), Some(4));
    }

    #[test]
    #[should_panic(expected = "cannot split")]
    fn rejects_more_tiers_than_clients() {
        let l = latencies(&[1.0, 2.0]);
        let _ = TierAssignment::from_latencies(&l, &TieringConfig::default());
    }

    #[test]
    fn avg_latency_is_group_mean() {
        let l = latencies(&[1.0, 2.0, 10.0, 20.0]);
        let cfg = TieringConfig {
            num_tiers: 2,
            ..Default::default()
        };
        let a = TierAssignment::from_latencies(&l, &cfg);
        assert!((a.tiers[0].avg_latency - 1.5).abs() < 1e-12);
        assert!((a.tiers[1].avg_latency - 15.0).abs() < 1e-12);
    }

    #[test]
    fn clients_land_in_the_latency_correct_tier() {
        // Paper invariant (§4.2): tier boundaries respect the latency
        // order — no client in tier i is slower than any client in
        // tier i+1.
        let vals = [
            37.0, 2.0, 55.0, 8.0, 90.0, 13.0, 71.0, 3.0, 28.0, 44.0, 61.0, 19.0,
        ];
        let l = latencies(&vals);
        let cfg = TieringConfig {
            num_tiers: 4,
            ..Default::default()
        };
        let a = TierAssignment::from_latencies(&l, &cfg);
        for (i, w) in a.tiers.windows(2).enumerate() {
            let fast_max = w[0]
                .clients
                .iter()
                .map(|&c| vals[c])
                .fold(f64::NEG_INFINITY, f64::max);
            let slow_min = w[1]
                .clients
                .iter()
                .map(|&c| vals[c])
                .fold(f64::INFINITY, f64::min);
            assert!(
                fast_max <= slow_min,
                "tier {i} max {fast_max} exceeds tier {} min {slow_min}",
                i + 1
            );
        }
    }

    #[test]
    fn tiers_partition_the_live_client_set() {
        // Paper invariant (§4.2): the tiers are a partition of the live
        // (non-dropout) clients — every live client in exactly one tier,
        // dropouts in none.
        let mut l = latencies(&[
            12.0, 5.0, 33.0, 7.0, 21.0, 48.0, 3.0, 16.0, 27.0, 9.0, 39.0, 14.0, 52.0, 6.0, 24.0,
        ]);
        l[4] = None;
        l[11] = None;
        let cfg = TieringConfig {
            num_tiers: 5,
            ..Default::default()
        };
        let a = TierAssignment::from_latencies(&l, &cfg);
        let mut seen = vec![0usize; l.len()];
        for tier in &a.tiers {
            for &c in &tier.clients {
                assert!(c < l.len(), "unknown client {c}");
                seen[c] += 1;
            }
        }
        for (c, lat) in l.iter().enumerate() {
            assert_eq!(
                seen[c],
                usize::from(lat.is_some()),
                "client {c} appears {} times",
                seen[c]
            );
        }
    }
}
