//! Client-selection interface.
//!
//! The round engine is policy-agnostic: anything implementing
//! [`ClientSelector`] can drive selection. The vanilla baseline
//! ([`RandomSelector`], §3.1) picks `|C|` clients uniformly at random
//! from the full pool; `tifl-core` provides the tier-based selectors.

use crate::checkpoint::SelectorState;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use tifl_tensor::{seed_rng, split_seed};

/// A client-selection policy.
pub trait ClientSelector: Send {
    /// Human-readable policy name (used in reports and experiment output).
    fn name(&self) -> String;

    /// Choose `count` distinct clients for `round`.
    fn select(&mut self, round: u64, count: usize) -> Vec<usize>;

    /// Client groups whose holdout accuracy the selector wants evaluated
    /// after `round` completes (`TestData_t` per tier for the adaptive
    /// algorithm). `None` skips group evaluation for that round —
    /// selectors that only consume accuracies every `I` rounds should
    /// return `Some` only on the rounds they will read, sparing the
    /// aggregator needless evaluation work. The session never asks
    /// after the configured horizon's last round: no selection reads it.
    fn monitored_groups(&self, _round: u64) -> Option<Vec<Vec<usize>>> {
        None
    }

    /// Receive the per-group accuracies requested via
    /// [`ClientSelector::monitored_groups`], in the same group order.
    fn observe(&mut self, _round: u64, _group_accuracies: &[f64]) {}

    /// Serialisable working state for checkpointing, if the selector
    /// carries any between rounds (adaptive credits, probabilities,
    /// accuracy history). Stateless selectors return `None`: rebuilt
    /// from their seed they replay identically.
    fn export_state(&self) -> Option<SelectorState> {
        None
    }

    /// Restore state previously produced by
    /// [`ClientSelector::export_state`] on a selector with the same
    /// configuration. The default ignores it (stateless selectors).
    fn restore_state(&mut self, _state: &SelectorState) {}
}

/// Vanilla FedAvg selection: uniform random `|C|` clients from `K`
/// (Algorithm 1, line 3) — heterogeneity-agnostic.
pub struct RandomSelector {
    pool: Vec<usize>,
    seed: u64,
}

impl RandomSelector {
    /// Select uniformly from clients `0..num_clients`.
    #[must_use]
    pub fn new(num_clients: usize, seed: u64) -> Self {
        Self {
            pool: (0..num_clients).collect(),
            seed,
        }
    }
}

impl ClientSelector for RandomSelector {
    fn name(&self) -> String {
        "vanilla".to_string()
    }

    fn select(&mut self, round: u64, count: usize) -> Vec<usize> {
        assert!(
            count <= self.pool.len(),
            "cannot select {count} clients from a pool of {}",
            self.pool.len()
        );
        let mut rng: StdRng = seed_rng(split_seed(self.seed, round));
        let mut pool = self.pool.clone();
        pool.shuffle(&mut rng);
        pool.truncate(count);
        pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selects_requested_count_distinct() {
        let mut s = RandomSelector::new(50, 0);
        let sel = s.select(0, 5);
        assert_eq!(sel.len(), 5);
        let mut d = sel.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), 5);
    }

    #[test]
    fn deterministic_per_round() {
        let mut s1 = RandomSelector::new(50, 7);
        let mut s2 = RandomSelector::new(50, 7);
        assert_eq!(s1.select(3, 5), s2.select(3, 5));
    }

    #[test]
    fn different_rounds_differ() {
        let mut s = RandomSelector::new(50, 7);
        assert_ne!(s.select(0, 5), s.select(1, 5));
    }

    #[test]
    fn covers_pool_over_many_rounds() {
        let mut s = RandomSelector::new(20, 1);
        let mut seen = [false; 20];
        for r in 0..200 {
            for c in s.select(r, 5) {
                seen[c] = true;
            }
        }
        assert!(seen.iter().all(|&x| x), "some clients never selected");
    }

    #[test]
    fn selection_frequency_is_roughly_uniform() {
        let mut s = RandomSelector::new(10, 2);
        let mut counts = [0usize; 10];
        let rounds = 2000;
        for r in 0..rounds {
            for c in s.select(r, 2) {
                counts[c] += 1;
            }
        }
        let expect = rounds as f64 * 2.0 / 10.0;
        for (c, &n) in counts.iter().enumerate() {
            let dev = (n as f64 - expect).abs() / expect;
            assert!(
                dev < 0.15,
                "client {c} selected {n} times (expect ~{expect})"
            );
        }
    }

    #[test]
    #[should_panic(expected = "cannot select")]
    fn rejects_oversized_request() {
        let mut s = RandomSelector::new(3, 0);
        let _ = s.select(0, 5);
    }
}
