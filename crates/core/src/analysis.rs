//! Straggler-selection probability analysis (§3.2, Eqs. 2–5).
//!
//! In vanilla FL, the probability that *at least one* of the `|C|`
//! selected clients comes from the slowest level `τ_m` is
//!
//! ```text
//! Pr_s = 1 - C(|K| - |τ_m|, |C|) / C(|K|, |C|)          (Eqs. 2-3)
//!      > 1 - ((|K| - |τ_m|) / |K|)^|C|                  (Eq. 5)
//! ```
//!
//! which approaches 1 for realistic pool sizes — the formal argument for
//! why random selection almost always pays the straggler penalty.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;

/// Eq. 2: probability that a uniform-random selection of `c` clients
/// from a pool of `k` avoids all `slowest` stragglers.
///
/// Computed as the product form of Eq. 4 to stay in `f64` range for
/// pools of any size.
///
/// # Panics
/// Panics if `c > k` or `slowest > k`.
#[must_use]
pub fn prob_avoid_stragglers(k: u64, slowest: u64, c: u64) -> f64 {
    assert!(c <= k, "cannot select {c} from {k}");
    assert!(slowest <= k, "straggler level larger than pool");
    if slowest == 0 {
        return 1.0;
    }
    if c > k - slowest {
        return 0.0;
    }
    // Π_{i=0}^{c-1} (k - slowest - i) / (k - i)
    (0..c)
        .map(|i| (k - slowest - i) as f64 / (k - i) as f64)
        .product()
}

/// Eq. 3: probability that at least one straggler is selected.
#[must_use]
pub fn prob_hit_stragglers(k: u64, slowest: u64, c: u64) -> f64 {
    1.0 - prob_avoid_stragglers(k, slowest, c)
}

/// Eq. 5's lower bound: `1 - ((k - slowest) / k)^c`.
#[must_use]
pub fn prob_hit_stragglers_lower_bound(k: u64, slowest: u64, c: u64) -> f64 {
    1.0 - ((k - slowest) as f64 / k as f64).powi(c as i32)
}

/// Monte-Carlo estimate of `Pr_s` by simulating uniform selections —
/// used to validate the closed form (and by the `straggler_prob` bench
/// binary to print theory vs simulation).
#[must_use]
pub fn prob_hit_stragglers_monte_carlo(
    k: u64,
    slowest: u64,
    c: u64,
    trials: u32,
    rng: &mut StdRng,
) -> f64 {
    let pool: Vec<u64> = (0..k).collect();
    let mut hits = 0u32;
    for _ in 0..trials {
        let sel: Vec<&u64> = pool.choose_multiple(rng, c as usize).collect();
        // Stragglers are the last `slowest` ids.
        if sel.iter().any(|&&x| x >= k - slowest) {
            hits += 1;
        }
    }
    f64::from(hits) / f64::from(trials)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tifl_tensor::seed_rng;

    #[test]
    fn paper_setting_hits_stragglers_often() {
        // §5.1: |K| = 50, 10 clients in the slowest tier, |C| = 5.
        let p = prob_hit_stragglers(50, 10, 5);
        assert!(p > 0.65, "Pr_s = {p}");
    }

    #[test]
    fn closed_form_matches_hypergeometric_small_case() {
        // k=5, slowest=2, c=2: avoid = C(3,2)/C(5,2) = 3/10.
        let p = prob_avoid_stragglers(5, 2, 2);
        assert!((p - 0.3).abs() < 1e-12);
    }

    #[test]
    fn bound_of_eq5_holds() {
        for (k, s, c) in [(50u64, 10u64, 5u64), (100, 20, 10), (1000, 100, 30)] {
            let exact = prob_hit_stragglers(k, s, c);
            let bound = prob_hit_stragglers_lower_bound(k, s, c);
            assert!(
                exact >= bound - 1e-12,
                "Eq.5 bound violated for ({k},{s},{c}): exact {exact} < bound {bound}"
            );
        }
    }

    #[test]
    fn probability_approaches_one_for_large_pools() {
        // The paper's argument: with large |K| and proportional |C|,
        // Pr_s ~= 1.
        let p = prob_hit_stragglers(100_000, 20_000, 50);
        assert!(p > 0.9999, "Pr_s = {p}");
    }

    #[test]
    fn monte_carlo_agrees_with_closed_form() {
        let mut rng = seed_rng(42);
        let exact = prob_hit_stragglers(50, 10, 5);
        let mc = prob_hit_stragglers_monte_carlo(50, 10, 5, 20_000, &mut rng);
        assert!((exact - mc).abs() < 0.01, "exact {exact} vs MC {mc}");
    }

    #[test]
    fn degenerate_cases() {
        assert_eq!(prob_hit_stragglers(10, 0, 5), 0.0);
        // Selecting everything guarantees hitting the stragglers.
        assert_eq!(prob_hit_stragglers(10, 1, 10), 1.0);
        // More selections than non-stragglers: must hit.
        assert_eq!(prob_hit_stragglers(10, 8, 5), 1.0);
    }

    #[test]
    fn monotone_in_selection_size() {
        let mut prev = 0.0;
        for c in 1..=20 {
            let p = prob_hit_stragglers(100, 10, c);
            assert!(p >= prev, "Pr_s not monotone at c={c}");
            prev = p;
        }
    }
}
