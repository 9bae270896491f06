//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;
use tifl::core::analysis;
use tifl::core::estimator;
use tifl::data::partition;
use tifl::prelude::*;
use tifl::tensor::{seed_rng, ParamVec};

proptest! {
    /// Tiering is a partition: every live client appears in exactly one
    /// tier, tiers are latency-ordered, no dropout appears anywhere.
    #[test]
    fn tiering_is_a_partition(
        latencies in prop::collection::vec(
            prop::option::weighted(0.9, 0.1f64..1000.0), 10..200),
        m in 1usize..8,
    ) {
        let live = latencies.iter().flatten().count();
        prop_assume!(live >= m);
        let cfg = TieringConfig { num_tiers: m, ..Default::default() };
        let a = TierAssignment::from_latencies(&latencies, &cfg);

        // Completeness + uniqueness.
        let mut seen = vec![0usize; latencies.len()];
        for tier in &a.tiers {
            for &c in &tier.clients {
                seen[c] += 1;
            }
        }
        for (c, l) in latencies.iter().enumerate() {
            prop_assert_eq!(seen[c], usize::from(l.is_some()), "client {}", c);
        }

        // Latency ordering across tiers.
        let lats = a.tier_latencies();
        for w in lats.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }

        // Tier means bound their members' extremes.
        for tier in &a.tiers {
            let min = tier.clients.iter()
                .map(|&c| latencies[c].unwrap())
                .fold(f64::INFINITY, f64::min);
            let max = tier.clients.iter()
                .map(|&c| latencies[c].unwrap())
                .fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(tier.avg_latency >= min - 1e-9);
            prop_assert!(tier.avg_latency <= max + 1e-9);
        }
    }

    /// FedAvg stays inside the convex hull of its inputs.
    #[test]
    fn weighted_mean_is_convex_combination(
        values in prop::collection::vec(
            prop::collection::vec(-100.0f32..100.0, 4), 1..10),
        weights in prop::collection::vec(1u32..1000, 10),
    ) {
        let items: Vec<(ParamVec, f32)> = values.iter()
            .zip(&weights)
            .map(|(v, &w)| (ParamVec(v.clone()), w as f32))
            .collect();
        let mean = ParamVec::weighted_mean(&items);
        for dim in 0..4 {
            let lo = values.iter().map(|v| v[dim]).fold(f32::INFINITY, f32::min);
            let hi = values.iter().map(|v| v[dim]).fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(mean.0[dim] >= lo - 1e-3);
            prop_assert!(mean.0[dim] <= hi + 1e-3);
        }
    }

    /// Partitioners conserve sample counts and respect class limits.
    #[test]
    fn class_limit_partition_invariants(
        clients in 2usize..30,
        k in 1usize..10,
        seed in 0u64..1000,
    ) {
        let per_client = k * 20;
        let p = partition::class_limit(clients, per_client, 10, k, &mut seed_rng(seed));
        prop_assert_eq!(p.num_clients(), clients);
        prop_assert_eq!(p.total_samples(), clients * per_client);
        for c in 0..clients {
            prop_assert!(p.distinct_classes(c) <= k);
            prop_assert_eq!(p.labels[c].len(), per_client);
        }
    }

    /// Quantity-skew conserves the total and orders group volumes.
    #[test]
    fn quantity_skew_invariants(seed in 0u64..1000) {
        let p = partition::quantity_skew(
            50, 20_000, 10, &[0.10, 0.15, 0.20, 0.25, 0.30], &mut seed_rng(seed));
        let total: usize = p.total_samples();
        prop_assert!((total as i64 - 20_000).abs() < 50, "total {}", total);
        let sizes = p.sizes();
        for g in 0..4 {
            prop_assert!(sizes[g * 10] < sizes[(g + 1) * 10]);
        }
    }

    /// The straggler-probability closed form is a probability, monotone
    /// in the straggler-pool size, and bounded below by Eq. 5.
    #[test]
    fn straggler_probability_properties(
        k in 2u64..500,
        c_frac in 0.01f64..0.9,
        s_frac in 0.01f64..0.9,
    ) {
        let c = ((k as f64 * c_frac) as u64).max(1);
        let s = ((k as f64 * s_frac) as u64).max(1);
        let p = analysis::prob_hit_stragglers(k, s, c);
        prop_assert!((0.0..=1.0).contains(&p));
        let bound = analysis::prob_hit_stragglers_lower_bound(k, s, c);
        prop_assert!(p >= bound - 1e-9, "p {} < bound {}", p, bound);
        if s < k {
            let p_more = analysis::prob_hit_stragglers(k, s + 1, c);
            prop_assert!(p_more >= p - 1e-12);
        }
    }

    /// Eq. 6 is linear in rounds and monotone in tier latencies.
    #[test]
    fn estimator_properties(
        lat in prop::collection::vec(0.1f64..100.0, 5),
        probs_raw in prop::collection::vec(0.01f64..1.0, 5),
        rounds in 1u64..10_000,
    ) {
        let total: f64 = probs_raw.iter().sum();
        let probs: Vec<f64> = probs_raw.iter().map(|p| p / total).collect();
        let e1 = estimator::estimate_training_time(&lat, &probs, rounds);
        let e2 = estimator::estimate_training_time(&lat, &probs, 2 * rounds);
        prop_assert!((e2 - 2.0 * e1).abs() < 1e-6 * e1.max(1.0));

        let bumped: Vec<f64> = lat.iter().map(|l| l + 1.0).collect();
        let e3 = estimator::estimate_training_time(&bumped, &probs, rounds);
        prop_assert!(e3 > e1);
    }

    /// Policy normalisation survives construction for arbitrary positive
    /// weight vectors.
    #[test]
    fn policy_from_weights_is_normalised(
        weights in prop::collection::vec(0.001f64..10.0, 2..10),
    ) {
        let total: f64 = weights.iter().sum();
        let probs: Vec<f64> = weights.iter().map(|w| w / total).collect();
        let p = Policy::new("w", probs);
        let sum: f64 = p.probs.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
    }

    /// Dataset subsetting preserves the feature/label pairing.
    #[test]
    fn dataset_subset_pairing(
        n in 1usize..50,
        seed in 0u64..100,
    ) {
        let gen = Generator::new(SynthSpec::family(SynthFamily::Mnist), seed);
        let d = gen.generate_uniform(n, 0);
        let idx: Vec<usize> = (0..n).rev().collect();
        let s = d.subset(&idx);
        for (i, &orig) in idx.iter().enumerate() {
            prop_assert_eq!(s.y[i], d.y[orig]);
            prop_assert_eq!(s.x.row(i), d.x.row(orig));
        }
    }
}

/// JSON's punctuation, escapes, literals, numbers and multi-byte text:
/// pieces the shim parser's every branch reads.
const JSON_PIECES: [&str; 24] = [
    "[", "]", "{", "}", ":", ",", "\"", "\\", "\\u00e9", "\\ud834", "null", "tru", "false", "-",
    "0", "17", "1e308", "1e999", "-2.5E-3", ".", " ", "é", "𝄞", "\u{1}",
];

proptest! {
    /// The vendored `serde_json` answers any text with `Ok` or `Err`,
    /// never a panic.
    #[test]
    fn serde_json_parses_arbitrary_text_without_panicking(
        pieces in prop::collection::vec(0..JSON_PIECES.len(), 0..300),
    ) {
        let text: String = pieces.iter().map(|&i| JSON_PIECES[i]).collect();
        let _ = serde_json::from_str::<serde::Value>(&text);
        let _ = serde_json::from_str::<RunRequest>(&text);
    }

    /// Every finite float survives `to_string` → `from_str` bit for bit:
    /// artifact bytes and `RunKey`s rest on it.
    #[test]
    fn serde_json_round_trips_finite_floats_exactly(
        bits32 in 0u32..=u32::MAX,
        bits64 in 0u64..=u64::MAX,
    ) {
        let (x, y) = (f32::from_bits(bits32), f64::from_bits(bits64));
        if x.is_finite() {
            let back: f32 = serde_json::from_str(&serde_json::to_string(&x).unwrap()).unwrap();
            prop_assert_eq!(back.to_bits(), x.to_bits(), "{}", x);
        }
        if y.is_finite() {
            let back: f64 = serde_json::from_str(&serde_json::to_string(&y).unwrap()).unwrap();
            prop_assert_eq!(back.to_bits(), y.to_bits(), "{}", y);
        }
    }
}
