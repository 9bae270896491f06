//! Training-time estimation model (§4.5, Eq. 6) and the MAPE metric of
//! Table 2.

use crate::policy::Policy;
use crate::tiering::TierAssignment;

/// Eq. 6: `L_all = Σ_i (L_tier_i * P_i) * R` — expected total training
/// time for `rounds` rounds under per-tier selection probabilities.
///
/// # Panics
/// Panics if the probability vector and latency vector differ in length.
#[must_use]
pub fn estimate_training_time(tier_latencies: &[f64], probs: &[f64], rounds: u64) -> f64 {
    assert_eq!(
        tier_latencies.len(),
        probs.len(),
        "tier count mismatch: {} latencies vs {} probabilities",
        tier_latencies.len(),
        probs.len()
    );
    let per_round: f64 = tier_latencies.iter().zip(probs).map(|(&l, &p)| l * p).sum();
    per_round * rounds as f64
}

/// Convenience wrapper: estimate for a policy against a tier assignment.
///
/// # Panics
/// Panics on the vanilla policy (it has no per-tier probabilities; the
/// paper's Table 2 likewise only evaluates the tiered policies).
#[must_use]
pub fn estimate_for_policy(assignment: &TierAssignment, policy: &Policy, rounds: u64) -> f64 {
    assert!(
        !policy.is_vanilla(),
        "Eq. 6 is defined over tier probabilities; vanilla has none"
    );
    estimate_training_time(&assignment.tier_latencies(), &policy.probs, rounds)
}

/// Mean absolute percentage error (Eq. 7):
/// `|est - actual| / actual * 100` — NaN when both are zero (a
/// zero-round run), infinite when only `actual` is.
#[must_use]
pub fn mape(estimated: f64, actual: f64) -> f64 {
    (estimated - actual).abs() / actual * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tiering::{Tier, TierAssignment};

    fn assignment() -> TierAssignment {
        TierAssignment {
            tiers: vec![
                Tier {
                    clients: vec![0, 1],
                    avg_latency: 10.0,
                },
                Tier {
                    clients: vec![2, 3],
                    avg_latency: 20.0,
                },
                Tier {
                    clients: vec![4, 5],
                    avg_latency: 40.0,
                },
            ],
        }
    }

    #[test]
    fn point_mass_policy_reduces_to_tier_latency() {
        let est = estimate_training_time(&[10.0, 20.0, 40.0], &[0.0, 0.0, 1.0], 100);
        assert!((est - 4000.0).abs() < 1e-9);
    }

    #[test]
    fn uniform_policy_gives_mean_latency() {
        let probs = [1.0 / 3.0; 3];
        let est = estimate_training_time(&[10.0, 20.0, 40.0], &probs, 3);
        assert!((est - 70.0).abs() < 1e-9);
    }

    #[test]
    fn estimate_scales_linearly_with_rounds() {
        let l = [5.0, 10.0];
        let p = [0.5, 0.5];
        let e1 = estimate_training_time(&l, &p, 100);
        let e2 = estimate_training_time(&l, &p, 200);
        assert!((e2 / e1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn estimate_for_policy_uses_assignment_latencies() {
        let a = assignment();
        let p = Policy::new("fastish", vec![0.5, 0.5, 0.0]);
        let est = estimate_for_policy(&a, &p, 10);
        assert!((est - 150.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "vanilla")]
    fn estimate_rejects_vanilla() {
        let _ = estimate_for_policy(&assignment(), &Policy::vanilla(), 10);
    }

    #[test]
    fn mape_matches_paper_definition() {
        assert!((mape(46_242.0, 44_977.0) - 2.812_66).abs() < 1e-3);
        assert_eq!(mape(100.0, 100.0), 0.0);
        assert!((mape(90.0, 100.0) - 10.0).abs() < 1e-12);
        assert!(mape(0.0, 0.0).is_nan(), "a zero-round run has no error");
    }
}
