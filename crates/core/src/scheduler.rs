//! Tier schedulers: the static straw-man (§4.3) and the adaptive
//! credit-based selector of Algorithm 2 (§4.4).

use crate::policy::Policy;
use crate::tiering::TierAssignment;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use tifl_fl::checkpoint::SelectorState;
use tifl_fl::selector::ClientSelector;
use tifl_tensor::{seed_rng, split_seed};

/// Draw a tier index from a probability vector restricted to tiers with
/// remaining credit. Falls back to renormalising over credited tiers
/// when the sampled tier is exhausted (the paper's `while` loop on
/// Algorithm 2 lines 8–14).
fn draw_credited_tier(probs: &[f64], credits: &[u64], rng: &mut StdRng) -> usize {
    debug_assert_eq!(probs.len(), credits.len());
    let total: f64 = probs
        .iter()
        .zip(credits)
        .filter(|(_, &c)| c > 0)
        .map(|(&p, _)| p)
        .sum();
    assert!(
        total > 0.0,
        "no tier with remaining credits has positive probability"
    );
    let mut u = rng.gen::<f64>() * total;
    for (t, (&p, &c)) in probs.iter().zip(credits).enumerate() {
        if c == 0 {
            continue;
        }
        u -= p;
        if u <= 0.0 {
            return t;
        }
    }
    // Floating-point slack: return the last credited tier.
    probs
        .iter()
        .zip(credits)
        .enumerate()
        .filter(|(_, (_, &c))| c > 0)
        .map(|(t, _)| t)
        .next_back()
        .expect("at least one credited tier")
}

/// Select `count` clients uniformly at random from one tier.
fn select_within_tier(
    assignment: &TierAssignment,
    tier: usize,
    count: usize,
    rng: &mut StdRng,
) -> Vec<usize> {
    let pool = &assignment.tiers[tier].clients;
    assert!(
        count <= pool.len(),
        "tier {tier} has {} clients, cannot select {count}",
        pool.len()
    );
    let mut pool = pool.clone();
    pool.shuffle(rng);
    pool.truncate(count);
    pool
}

// ---------------------------------------------------------------------------
// Static straw-man selector (§4.3)
// ---------------------------------------------------------------------------

/// Static tier selection: each round draw a tier from the policy's fixed
/// probability vector, then `|C|` clients uniformly within it.
pub struct StaticTierSelector {
    assignment: TierAssignment,
    policy: Policy,
    seed: u64,
    /// Tier drawn for each round (diagnostics / tests).
    pub tier_history: Vec<usize>,
}

impl StaticTierSelector {
    /// Build from a tier assignment and a (non-vanilla) policy.
    ///
    /// # Panics
    /// Panics if the policy is vanilla or its length does not match the
    /// number of tiers.
    #[must_use]
    pub fn new(assignment: TierAssignment, policy: Policy, seed: u64) -> Self {
        assert!(
            !policy.is_vanilla(),
            "vanilla policy selects from the whole pool; use RandomSelector"
        );
        assert_eq!(
            policy.probs.len(),
            assignment.num_tiers(),
            "policy has {} tiers, assignment has {}",
            policy.probs.len(),
            assignment.num_tiers()
        );
        Self {
            assignment,
            policy,
            seed,
            tier_history: Vec::new(),
        }
    }

    /// The underlying tier assignment.
    #[must_use]
    pub fn assignment(&self) -> &TierAssignment {
        &self.assignment
    }
}

impl ClientSelector for StaticTierSelector {
    fn name(&self) -> String {
        self.policy.name.clone()
    }

    fn select(&mut self, round: u64, count: usize) -> Vec<usize> {
        let mut rng = seed_rng(split_seed(self.seed, round));
        // Static policies have unbounded credits.
        let credits = vec![u64::MAX; self.policy.probs.len()];
        let tier = draw_credited_tier(&self.policy.probs, &credits, &mut rng);
        self.tier_history.push(tier);
        select_within_tier(&self.assignment, tier, count, &mut rng)
    }
}

// ---------------------------------------------------------------------------
// Adaptive selector (Algorithm 2, §4.4)
// ---------------------------------------------------------------------------

/// Adaptive-selector parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveConfig {
    /// `I`: probabilities are re-evaluated every `I` rounds.
    pub interval: u64,
    /// `Credits_t`: how many rounds each tier may be selected in total.
    /// The paper uses credits to soft-bound the participation of slow
    /// tiers; we default to `2N/m` per tier so total credit capacity
    /// (`2N`) comfortably covers `N` rounds while still capping any
    /// single tier.
    pub credits_per_tier: u64,
    /// Exponent applied to `(1 - accuracy)` in `ChangeProbs`; larger
    /// values react more aggressively to lagging tiers.
    pub gamma: f64,
}

impl AdaptiveConfig {
    /// Defaults for an `N`-round, `m`-tier run.
    #[must_use]
    pub fn for_run(rounds: u64, num_tiers: usize) -> Self {
        Self {
            interval: 10,
            credits_per_tier: (2 * rounds / num_tiers.max(1) as u64).max(1),
            gamma: 2.0,
        }
    }
}

/// Adaptive tier selection (Algorithm 2): per-tier selection
/// probabilities re-weighted every `I` rounds toward tiers with lower
/// test accuracy, bounded by per-tier credits.
pub struct AdaptiveTierSelector {
    assignment: TierAssignment,
    config: AdaptiveConfig,
    seed: u64,
    probs: Vec<f64>,
    credits: Vec<u64>,
    /// Per-tier holdout accuracies keyed by the round after which they
    /// were observed. Sparse: only rounds the algorithm will read are
    /// evaluated (every `I` rounds).
    acc_history: std::collections::BTreeMap<u64, Vec<f64>>,
    current_tier: usize,
    /// Tier drawn for each round (diagnostics / tests).
    pub tier_history: Vec<usize>,
}

impl AdaptiveTierSelector {
    /// Build from a tier assignment.
    #[must_use]
    pub fn new(assignment: TierAssignment, config: AdaptiveConfig, seed: u64) -> Self {
        let m = assignment.num_tiers();
        assert!(m > 0, "empty tier assignment");
        assert!(config.interval > 0, "interval must be positive");
        Self {
            probs: vec![1.0 / m as f64; m],
            credits: vec![config.credits_per_tier; m],
            acc_history: std::collections::BTreeMap::new(),
            current_tier: 0,
            tier_history: Vec::new(),
            assignment,
            config,
            seed,
        }
    }

    /// Current per-tier selection probabilities.
    #[must_use]
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Remaining credits per tier.
    #[must_use]
    pub fn credits(&self) -> &[u64] {
        &self.credits
    }

    /// `ChangeProbs` (Algorithm 2 line 5): re-weight tiers so lower
    /// accuracy earns a higher selection probability,
    /// `P_t ∝ (1 - A_t)^gamma`.
    fn change_probs(&mut self, accs: &[f64]) {
        let weights: Vec<f64> = accs
            .iter()
            .map(|&a| (1.0 - a.clamp(0.0, 1.0)).max(1e-6).powf(self.config.gamma))
            .collect();
        let total: f64 = weights.iter().sum();
        for (p, w) in self.probs.iter_mut().zip(&weights) {
            *p = w / total;
        }
    }
}

impl ClientSelector for AdaptiveTierSelector {
    fn name(&self) -> String {
        "adaptive".to_string()
    }

    fn select(&mut self, round: u64, count: usize) -> Vec<usize> {
        let i = self.config.interval;
        // Algorithm 2 lines 3-7: every I rounds, if the current tier's
        // accuracy stopped improving, redistribute probabilities toward
        // low-accuracy tiers. Observations exist for rounds `r` with
        // `(r + 1) % I == 0` (see `monitored_groups`), so at a selection
        // round `round % I == 0` the latest observation is `round - 1`
        // and the previous one is `round - 1 - I` — the paper's A^r vs
        // A^{r-I} pair.
        if round.is_multiple_of(i) && round > i {
            let cur = self.current_tier;
            let now = self.acc_history.get(&(round - 1));
            let prev = self.acc_history.get(&(round - 1 - i));
            if let (Some(now), Some(prev)) = (now, prev) {
                if now[cur] <= prev[cur] {
                    let accs = now.clone();
                    self.change_probs(&accs);
                }
            }
        }

        // Lines 8-16: draw a credited tier, spend one credit.
        if self.credits.iter().all(|&c| c == 0) {
            // All credits exhausted (only possible when credits_per_tier
            // * m < N): refill so training can finish. The paper leaves
            // this case undefined; refilling preserves the soft-bound
            // semantics for the configured horizon.
            self.credits.fill(self.config.credits_per_tier);
        }
        let mut rng = seed_rng(split_seed(self.seed, round));
        let tier = draw_credited_tier(&self.probs, &self.credits, &mut rng);
        self.credits[tier] -= 1;
        self.current_tier = tier;
        self.tier_history.push(tier);
        select_within_tier(&self.assignment, tier, count, &mut rng)
    }

    fn monitored_groups(&self, round: u64) -> Option<Vec<Vec<usize>>> {
        // Only the rounds the update rule will read: `round - 1` and
        // `round - 1 - I` for selection rounds that are multiples of I.
        // The session does not ask after the horizon's last round, which
        // no selection round follows.
        (round + 1)
            .is_multiple_of(self.config.interval)
            .then(|| self.assignment.groups())
    }

    fn observe(&mut self, round: u64, group_accuracies: &[f64]) {
        assert_eq!(
            group_accuracies.len(),
            self.assignment.num_tiers(),
            "observed accuracy count does not match tier count"
        );
        self.acc_history.insert(round, group_accuracies.to_vec());
    }

    fn export_state(&self) -> Option<SelectorState> {
        Some(SelectorState {
            probs: self.probs.clone(),
            credits: self.credits.clone(),
            current_tier: self.current_tier,
            acc_history: self
                .acc_history
                .iter()
                .map(|(&r, a)| (r, a.clone()))
                .collect(),
        })
    }

    fn restore_state(&mut self, state: &SelectorState) {
        assert_eq!(
            state.probs.len(),
            self.assignment.num_tiers(),
            "selector state does not match the tier count"
        );
        assert_eq!(state.credits.len(), self.assignment.num_tiers());
        self.probs = state.probs.clone();
        self.credits = state.credits.clone();
        self.current_tier = state.current_tier;
        self.acc_history = state
            .acc_history
            .iter()
            .map(|(r, a)| (*r, a.clone()))
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tiering::TieringConfig;

    /// 10 clients in 5 tiers of 2 (client 2i, 2i+1 in tier i).
    fn assignment() -> TierAssignment {
        let latencies: Vec<Option<f64>> = (0..10).map(|i| Some((i / 2) as f64 + 1.0)).collect();
        TierAssignment::from_latencies(&latencies, &TieringConfig::default())
    }

    #[test]
    fn static_fast_only_selects_tier0() {
        let mut s = StaticTierSelector::new(assignment(), Policy::fast(5), 0);
        for r in 0..50 {
            let sel = s.select(r, 2);
            assert!(sel.iter().all(|&c| c < 2), "round {r} selected {sel:?}");
        }
        assert!(s.tier_history.iter().all(|&t| t == 0));
    }

    #[test]
    fn static_slow_only_selects_last_tier() {
        let mut s = StaticTierSelector::new(assignment(), Policy::slow(5), 0);
        let sel = s.select(0, 2);
        assert!(sel.iter().all(|&c| c >= 8), "{sel:?}");
    }

    #[test]
    fn static_uniform_hits_all_tiers() {
        let mut s = StaticTierSelector::new(assignment(), Policy::uniform(5), 1);
        for r in 0..200 {
            let _ = s.select(r, 2);
        }
        for t in 0..5 {
            let n = s.tier_history.iter().filter(|&&x| x == t).count();
            assert!(
                (20..=60).contains(&n),
                "tier {t} selected {n}/200 times under uniform"
            );
        }
    }

    #[test]
    fn static_random5_prefers_fast_tier() {
        let mut s = StaticTierSelector::new(assignment(), Policy::random5(5), 2);
        for r in 0..500 {
            let _ = s.select(r, 2);
        }
        let t0 = s.tier_history.iter().filter(|&&x| x == 0).count();
        assert!(
            (300..=400).contains(&t0),
            "tier 0 selected {t0}/500 times under random (expect ~350)"
        );
    }

    #[test]
    fn all_selected_clients_come_from_one_tier() {
        let mut s = StaticTierSelector::new(assignment(), Policy::uniform(5), 3);
        let a = assignment();
        for r in 0..100 {
            let sel = s.select(r, 2);
            let tiers: Vec<usize> = sel.iter().map(|&c| a.tier_of(c).unwrap()).collect();
            assert!(
                tiers.windows(2).all(|w| w[0] == w[1]),
                "round {r}: {tiers:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "vanilla policy")]
    fn static_rejects_vanilla() {
        let _ = StaticTierSelector::new(assignment(), Policy::vanilla(), 0);
    }

    #[test]
    fn selection_is_deterministic() {
        let mut a = StaticTierSelector::new(assignment(), Policy::uniform(5), 9);
        let mut b = StaticTierSelector::new(assignment(), Policy::uniform(5), 9);
        for r in 0..20 {
            assert_eq!(a.select(r, 2), b.select(r, 2));
        }
    }

    // -- adaptive --------------------------------------------------------

    fn adaptive(credits: u64, interval: u64) -> AdaptiveTierSelector {
        AdaptiveTierSelector::new(
            assignment(),
            AdaptiveConfig {
                interval,
                credits_per_tier: credits,
                gamma: 2.0,
            },
            7,
        )
    }

    #[test]
    fn adaptive_starts_uniform() {
        let s = adaptive(100, 10);
        assert!(s.probs().iter().all(|&p| (p - 0.2).abs() < 1e-12));
        assert_eq!(s.credits(), &[100; 5]);
    }

    #[test]
    fn adaptive_spends_credits() {
        let mut s = adaptive(100, 10);
        for r in 0..10 {
            let _ = s.select(r, 2);
            s.observe(r, &[0.5; 5]);
        }
        let spent: u64 = s.credits().iter().map(|&c| 100 - c).sum();
        assert_eq!(spent, 10);
    }

    #[test]
    fn adaptive_monitors_all_tiers_on_read_rounds() {
        let s = adaptive(100, 10);
        // Rounds whose accuracies the update rule reads: (r+1) % I == 0.
        let groups = s.monitored_groups(9).unwrap();
        assert_eq!(groups.len(), 5);
        assert_eq!(groups[0], vec![0, 1]);
        // Other rounds skip evaluation entirely.
        assert!(s.monitored_groups(0).is_none());
        assert!(s.monitored_groups(10).is_none());
    }

    #[test]
    fn change_probs_boosts_lagging_tier() {
        let mut s = adaptive(1000, 5);
        // Rounds 0..5: tier accuracies flat, tier 3 lagging badly.
        for r in 0..10u64 {
            let _ = s.select(r, 2);
            s.observe(r, &[0.9, 0.9, 0.9, 0.2, 0.9]);
        }
        // At round 10 (r % 5 == 0, r >= 5) accuracy has not improved, so
        // probabilities must shift toward tier 3.
        let _ = s.select(10, 2);
        let p = s.probs();
        let p3 = p[3];
        for (t, &pt) in p.iter().enumerate() {
            if t != 3 {
                assert!(
                    p3 > 5.0 * pt,
                    "lagging tier prob {p3} should dominate tier {t} ({pt})"
                );
            }
        }
    }

    #[test]
    fn probs_stay_normalised_after_updates() {
        let mut s = adaptive(1000, 5);
        for r in 0..50u64 {
            let _ = s.select(r, 2);
            let accs: Vec<f64> = (0..5)
                .map(|t| 0.3 + 0.1 * t as f64 + 0.001 * r as f64)
                .collect();
            s.observe(r, &accs);
        }
        let sum: f64 = s.probs().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "probs sum {sum}");
    }

    #[test]
    fn exhausted_tier_is_skipped() {
        let mut s = adaptive(3, 1000);
        // With tiny credits, after many rounds every tier hits 0 and the
        // selector must keep working (refill path) without panicking.
        for r in 0..40u64 {
            let sel = s.select(r, 2);
            assert_eq!(sel.len(), 2);
            s.observe(r, &[0.5; 5]);
        }
    }

    #[test]
    fn exported_state_restores_mid_run_bit_for_bit() {
        // Run 30 rounds straight vs 15 + export/restore + 15: identical
        // selections, probabilities and credits throughout.
        let accs = |r: u64| -> Vec<f64> {
            (0..5)
                .map(|t| 0.3 + 0.12 * t as f64 + 0.002 * r as f64)
                .collect()
        };
        let mut continuous = adaptive(40, 5);
        let mut first = adaptive(40, 5);
        let mut cont_hist = Vec::new();
        for r in 0..30u64 {
            cont_hist.push(continuous.select(r, 2));
            continuous.observe(r, &accs(r));
            if r < 15 {
                let _ = first.select(r, 2);
                first.observe(r, &accs(r));
            }
        }
        let state = first.export_state().expect("adaptive exports state");
        let mut resumed = adaptive(40, 5);
        resumed.restore_state(&state);
        let mut resumed_hist = Vec::new();
        for r in 15..30u64 {
            resumed_hist.push(resumed.select(r, 2));
            resumed.observe(r, &accs(r));
        }
        assert_eq!(&cont_hist[15..], &resumed_hist[..]);
        assert_eq!(continuous.probs(), resumed.probs());
        assert_eq!(continuous.credits(), resumed.credits());
    }

    #[test]
    fn static_selectors_export_no_state() {
        let s = StaticTierSelector::new(assignment(), Policy::uniform(5), 0);
        assert!(s.export_state().is_none());
    }

    #[test]
    fn adaptive_is_deterministic() {
        let run = || {
            let mut s = adaptive(100, 10);
            let mut hist = Vec::new();
            for r in 0..30u64 {
                hist.push(s.select(r, 2));
                s.observe(r, &[0.4, 0.5, 0.6, 0.7, 0.8]);
            }
            hist
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn default_config_scales_with_run() {
        let c = AdaptiveConfig::for_run(500, 5);
        assert_eq!(c.credits_per_tier, 200);
        assert!(c.interval > 0);
    }

    #[test]
    fn adaptive_credits_never_select_an_exhausted_tier() {
        // Paper invariant (Algorithm 2, lines 8-16): a tier with zero
        // remaining credits must not be drawn. 5 tiers x 2 credits gives
        // exactly 10 drawable rounds, so the refill fallback cannot
        // trigger; if an exhausted tier were drawable, some tier would
        // exceed its 2 selections.
        let mut s = adaptive(2, 1000);
        let mut counts = [0usize; 5];
        for r in 0..10u64 {
            let credits_before = s.credits().to_vec();
            let sel = s.select(r, 2);
            assert_eq!(sel.len(), 2, "round {r} under-selected");
            let tier = *s.tier_history.last().expect("tier recorded");
            assert!(
                credits_before[tier] > 0,
                "round {r} drew tier {tier} with zero credits"
            );
            counts[tier] += 1;
            assert!(
                counts[tier] <= 2,
                "tier {tier} exceeded its credits: {counts:?}"
            );
            s.observe(r, &[0.5; 5]);
        }
        assert_eq!(counts.iter().sum::<usize>(), 10, "every round drew a tier");
        assert!(s.credits().iter().all(|&c| c == 0), "all credits spent");
    }
}
