//! Static tier-selection policies (Table 1).
//!
//! A policy is a probability vector over tiers: each round one tier is
//! drawn from it and all `|C|` clients are selected uniformly from that
//! tier. `vanilla` is the special no-tiering baseline (uniform random
//! over the whole pool, Algorithm 1).

use serde::{Deserialize, Serialize};

/// A named static selection policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Policy {
    /// Policy name as it appears in the paper's figures.
    pub name: String,
    /// Per-tier selection probabilities (fastest tier first). Empty for
    /// the vanilla baseline.
    pub probs: Vec<f64>,
}

impl Policy {
    /// Build a custom policy.
    ///
    /// # Panics
    /// Panics if probabilities are negative or do not sum to ~1.
    #[must_use]
    pub fn new(name: impl Into<String>, probs: Vec<f64>) -> Self {
        assert!(probs.iter().all(|&p| p >= 0.0), "negative probability");
        let sum: f64 = probs.iter().sum();
        assert!(
            (sum - 1.0).abs() < 1e-9,
            "probabilities sum to {sum}, expected 1"
        );
        Self {
            name: name.into(),
            probs,
        }
    }

    /// The vanilla baseline: no tiering, uniform random over all clients.
    #[must_use]
    pub fn vanilla() -> Self {
        Self {
            name: "vanilla".into(),
            probs: Vec::new(),
        }
    }

    /// True for the vanilla (non-tiered) baseline.
    #[must_use]
    pub fn is_vanilla(&self) -> bool {
        self.probs.is_empty()
    }

    /// `uniform`: every tier equally likely (`1/m` each).
    #[must_use]
    pub fn uniform(m: usize) -> Self {
        Self::new("uniform", vec![1.0 / m as f64; m])
    }

    /// `fast`: only the fastest tier (Table 1: `1,0,0,0,0`).
    #[must_use]
    pub fn fast(m: usize) -> Self {
        let mut p = vec![0.0; m];
        p[0] = 1.0;
        Self::new("fast", p)
    }

    /// `slow`: only the slowest tier (Table 1: `0,0,0,0,1`).
    #[must_use]
    pub fn slow(m: usize) -> Self {
        let mut p = vec![0.0; m];
        p[m - 1] = 1.0;
        Self::new("slow", p)
    }

    /// `random`: prioritise the fastest tier
    /// (Table 1: `0.7, 0.1, 0.1, 0.05, 0.05` for 5 tiers).
    ///
    /// # Panics
    /// Panics unless `m == 5` (the paper only defines it for 5 tiers).
    #[must_use]
    pub fn random5(m: usize) -> Self {
        assert_eq!(m, 5, "the paper's `random` policy is defined for 5 tiers");
        Self::new("random", vec![0.7, 0.1, 0.1, 0.05, 0.05])
    }

    /// `[fast1, fast2, fast3]` (Table 1, MNIST & FMNIST): progressively
    /// de-prioritise the slowest tier — its probability drops from 0.1
    /// (`fast1`) to 0.05 (`fast2`) to 0 (`fast3`), the remainder split
    /// evenly over the other tiers.
    ///
    /// # Panics
    /// Panics unless `m == 5`.
    #[must_use]
    pub fn fast_levels(m: usize) -> [Self; 3] {
        assert_eq!(m, 5, "fast1..3 are defined for 5 tiers");
        [(1, 0.1), (2, 0.05), (3, 0.0)].map(|(level, slow_p)| {
            let other = (1.0 - slow_p) / 4.0;
            let mut p = vec![other; 4];
            p.push(slow_p);
            Self::new(format!("fast{level}"), p)
        })
    }

    /// The CIFAR-10 / FEMNIST policy set of Table 1:
    /// vanilla, slow, uniform, random, fast.
    #[must_use]
    pub fn cifar_set(m: usize) -> Vec<Policy> {
        vec![
            Policy::vanilla(),
            Policy::slow(m),
            Policy::uniform(m),
            Policy::random5(m),
            Policy::fast(m),
        ]
    }

    /// The MNIST / FMNIST policy set of Table 1:
    /// vanilla, uniform, fast1, fast2, fast3.
    #[must_use]
    pub fn mnist_set(m: usize) -> Vec<Policy> {
        let [fast1, fast2, fast3] = Policy::fast_levels(m);
        vec![Policy::vanilla(), Policy::uniform(m), fast1, fast2, fast3]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_normalised() {
        for p in Policy::cifar_set(5)
            .iter()
            .chain(Policy::mnist_set(5).iter())
        {
            if !p.is_vanilla() {
                let sum: f64 = p.probs.iter().sum();
                assert!((sum - 1.0).abs() < 1e-9, "{}: sum {sum}", p.name);
            }
        }
    }

    #[test]
    fn vanilla_has_no_tier_probs() {
        assert!(Policy::vanilla().is_vanilla());
        assert!(!Policy::uniform(5).is_vanilla());
    }

    #[test]
    fn fast_and_slow_are_point_masses() {
        assert_eq!(Policy::fast(5).probs, vec![1.0, 0.0, 0.0, 0.0, 0.0]);
        assert_eq!(Policy::slow(5).probs, vec![0.0, 0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn random5_matches_table1() {
        assert_eq!(Policy::random5(5).probs, vec![0.7, 0.1, 0.1, 0.05, 0.05]);
    }

    #[test]
    fn fast_levels_match_table1() {
        let [fast1, fast2, fast3] = Policy::fast_levels(5);
        assert_eq!(fast1.name, "fast1");
        assert_eq!(fast1.probs, vec![0.225, 0.225, 0.225, 0.225, 0.1]);
        assert_eq!(fast2.name, "fast2");
        assert_eq!(fast2.probs, vec![0.2375, 0.2375, 0.2375, 0.2375, 0.05]);
        assert_eq!(fast3.name, "fast3");
        assert_eq!(fast3.probs, vec![0.25, 0.25, 0.25, 0.25, 0.0]);
    }

    #[test]
    #[should_panic(expected = "sum")]
    fn rejects_unnormalised() {
        let _ = Policy::new("bad", vec![0.5, 0.2]);
    }

    #[test]
    fn policy_sets_have_five_members() {
        assert_eq!(Policy::cifar_set(5).len(), 5);
        assert_eq!(Policy::mnist_set(5).len(), 5);
    }
}
