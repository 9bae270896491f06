//! Partitioning strategies (§5.1 "Heterogeneous Data Distribution").
//!
//! A partition assigns sample *labels* to clients; the synthetic
//! [`crate::synth::Generator`] then materialises each client's samples.
//! Working in label space keeps the partitioners exact (every client gets
//! precisely the class mix the strategy prescribes) and matches how the
//! paper describes its splits.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Per-client label assignment produced by a partitioner.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Partition {
    /// `labels[c]` is the list of sample labels owned by client `c`.
    pub labels: Vec<Vec<usize>>,
    /// Number of classes in the label space.
    pub classes: usize,
}

impl Partition {
    /// Number of clients.
    #[must_use]
    pub fn num_clients(&self) -> usize {
        self.labels.len()
    }

    /// Total number of samples across clients.
    #[must_use]
    pub fn total_samples(&self) -> usize {
        self.labels.iter().map(Vec::len).sum()
    }

    /// Per-client sample counts.
    #[must_use]
    pub fn sizes(&self) -> Vec<usize> {
        self.labels.iter().map(Vec::len).collect()
    }

    /// Number of distinct classes held by client `c`.
    #[must_use]
    pub fn distinct_classes(&self, c: usize) -> usize {
        let mut seen = vec![false; self.classes];
        for &l in &self.labels[c] {
            seen[l] = true;
        }
        seen.iter().filter(|&&s| s).count()
    }
}

/// IID: every client draws `per_client` labels uniformly from all classes.
#[must_use]
pub fn iid(clients: usize, per_client: usize, classes: usize, rng: &mut StdRng) -> Partition {
    let labels = (0..clients)
        .map(|_| (0..per_client).map(|_| rng.gen_range(0..classes)).collect())
        .collect();
    Partition { labels, classes }
}

/// Class-limited non-IID(k) of Zhao et al. (used for CIFAR-10 in §3.3 and
/// §5.1): every client holds an equal number of samples drawn from
/// exactly `k` classes (chosen per client), `per_client / k` samples per
/// class.
///
/// # Panics
/// Panics if `k == 0`, `k > classes`, or `k` does not divide `per_client`.
#[must_use]
pub fn class_limit(
    clients: usize,
    per_client: usize,
    classes: usize,
    k: usize,
    rng: &mut StdRng,
) -> Partition {
    assert!(k > 0 && k <= classes, "k must be in 1..=classes");
    assert_eq!(per_client % k, 0, "k must divide per_client");
    let per_class = per_client / k;

    let labels = (0..clients)
        .map(|c| {
            // Rotate through classes so coverage is even across clients,
            // then add random extra classes.
            let mut chosen: Vec<usize> = Vec::with_capacity(k);
            let start = (c * k) % classes;
            for j in 0..k {
                chosen.push((start + j) % classes);
            }
            // Random swap-in to avoid a fully deterministic pattern.
            if classes > k {
                let replace = rng.gen_range(0..k);
                let candidate = rng.gen_range(0..classes);
                if !chosen.contains(&candidate) {
                    chosen[replace] = candidate;
                }
            }
            let mut mine: Vec<usize> = chosen
                .iter()
                .flat_map(|&cl| std::iter::repeat_n(cl, per_class))
                .collect();
            mine.shuffle(rng);
            mine
        })
        .collect();
    Partition { labels, classes }
}

/// Quantity-skew split (§5.1): group `g` of `groups` receives
/// `fractions[g]` of `total` samples, divided evenly among the clients of
/// that group; labels are drawn uniformly (IID content, skewed volume).
///
/// The paper's default is `[0.10, 0.15, 0.20, 0.25, 0.30]`.
///
/// # Panics
/// Panics unless `clients % fractions.len() == 0` and fractions sum to ~1.
#[must_use]
pub fn quantity_skew(
    clients: usize,
    total: usize,
    classes: usize,
    fractions: &[f64],
    rng: &mut StdRng,
) -> Partition {
    let groups = fractions.len();
    assert!(
        groups > 0 && clients.is_multiple_of(groups),
        "clients must divide into groups"
    );
    let sum: f64 = fractions.iter().sum();
    assert!(
        (sum - 1.0).abs() < 1e-6,
        "fractions must sum to 1, got {sum}"
    );
    let per_group = clients / groups;

    let labels = (0..clients)
        .map(|c| {
            let g = c / per_group;
            let n = (total as f64 * fractions[g] / per_group as f64).round() as usize;
            (0..n).map(|_| rng.gen_range(0..classes)).collect()
        })
        .collect();
    Partition { labels, classes }
}

/// Compose quantity skew with class limiting: group `g` gets
/// `fractions[g]` of the volume AND every client holds only `k` classes.
/// This is the paper's "Combine" scenario (Fig. 6 column 2, Fig. 7).
#[must_use]
pub fn quantity_skew_class_limit(
    clients: usize,
    total: usize,
    classes: usize,
    fractions: &[f64],
    k: usize,
    rng: &mut StdRng,
) -> Partition {
    let base = quantity_skew(clients, total, classes, fractions, rng);
    let labels = base
        .labels
        .iter()
        .enumerate()
        .map(|(c, mine)| {
            let start = (c * k) % classes;
            let chosen: Vec<usize> = (0..k).map(|j| (start + j) % classes).collect();
            let mut out: Vec<usize> = mine
                .iter()
                .enumerate()
                .map(|(i, _)| chosen[i % k])
                .collect();
            out.shuffle(rng);
            out
        })
        .collect();
    Partition {
        labels,
        classes: base.classes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tifl_tensor::seed_rng;

    #[test]
    fn iid_sizes_uniform() {
        let p = iid(10, 100, 10, &mut seed_rng(0));
        assert_eq!(p.num_clients(), 10);
        assert!(p.sizes().iter().all(|&s| s == 100));
        assert_eq!(p.total_samples(), 1000);
    }

    #[test]
    fn iid_covers_many_classes() {
        let p = iid(4, 500, 10, &mut seed_rng(1));
        for c in 0..4 {
            assert_eq!(p.distinct_classes(c), 10, "client {c} missing classes");
        }
    }

    #[test]
    fn class_limit_exact_k() {
        for k in [2usize, 5, 10] {
            let p = class_limit(20, 100, 10, k, &mut seed_rng(5));
            for c in 0..20 {
                assert!(
                    p.distinct_classes(c) <= k,
                    "client {c}: {} classes > k={k}",
                    p.distinct_classes(c)
                );
            }
        }
    }

    #[test]
    fn class_limit_all_clients_equal_size() {
        let p = class_limit(20, 100, 10, 5, &mut seed_rng(6));
        assert!(p.sizes().iter().all(|&s| s == 100));
    }

    #[test]
    fn class_limit_union_covers_all_classes() {
        let p = class_limit(20, 100, 10, 2, &mut seed_rng(7));
        let mut seen = vec![false; 10];
        for mine in &p.labels {
            for &l in mine {
                seen[l] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "not all classes covered: {seen:?}");
    }

    #[test]
    fn quantity_skew_matches_paper_fractions() {
        let fr = [0.10, 0.15, 0.20, 0.25, 0.30];
        let p = quantity_skew(50, 50_000, 10, &fr, &mut seed_rng(8));
        let sizes = p.sizes();
        // Group g has 10 clients each with total*fr[g]/10 samples.
        for (g, &f) in fr.iter().enumerate() {
            let expect = (50_000.0 * f / 10.0).round() as usize;
            for (c, &size) in sizes.iter().enumerate().skip(g * 10).take(10) {
                assert_eq!(size, expect, "client {c}");
            }
        }
    }

    #[test]
    fn quantity_skew_class_limit_composes_both() {
        let fr = [0.10, 0.15, 0.20, 0.25, 0.30];
        let p = quantity_skew_class_limit(50, 50_000, 10, &fr, 5, &mut seed_rng(9));
        // volume skew preserved
        assert!(p.labels[0].len() < p.labels[49].len());
        // class limit enforced
        for c in 0..50 {
            assert!(p.distinct_classes(c) <= 5);
        }
    }

    #[test]
    fn partitions_deterministic_under_seed() {
        let a = class_limit(10, 50, 10, 2, &mut seed_rng(10));
        let b = class_limit(10, 50, 10, 2, &mut seed_rng(10));
        assert_eq!(a, b);
    }
}
