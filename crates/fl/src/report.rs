//! Per-round and per-run training records, plus their content digests
//! (the per-round digest chain behind `tifl diff` / `tifl audit`).

use serde::{Deserialize, Serialize};
use tifl_obs::diff::{DiffReport, DiffSide, Divergence, FieldDelta};
use tifl_obs::digest::{Digest128, DigestChain};

/// What happened in one global training round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundReport {
    /// Round index (0-based).
    pub round: u64,
    /// Virtual time at the *end* of the round (seconds).
    pub time: f64,
    /// This round's latency `max_i L_i` (seconds).
    pub latency: f64,
    /// Selected client ids (everyone asked to train).
    pub selected: Vec<usize>,
    /// Clients whose updates were aggregated. Equals the responders
    /// among `selected` under `WaitAll`; under over-selection it is the
    /// first `|C|` responders and the rest are discarded.
    pub aggregated: Vec<usize>,
    /// Global test accuracy measured after aggregation (if evaluated
    /// this round).
    pub accuracy: Option<f64>,
    /// Global test loss (if evaluated this round).
    pub loss: Option<f32>,
    /// Bytes shipped server → clients this round (the full-precision
    /// global model to every selected client).
    #[serde(default)]
    pub bytes_down: u64,
    /// Bytes shipped clients → server this round (one encoded update
    /// per aggregated contributor; equals the dense size when no codec
    /// is active).
    #[serde(default)]
    pub bytes_up: u64,
}

impl RoundReport {
    /// The round's 128-bit content digest: FNV-1a over its canonical
    /// JSON, covering every recorded field. Two rounds digest equal iff
    /// they serialize equal — the unit the per-run digest chain folds.
    #[must_use]
    pub fn content_digest(&self) -> Digest128 {
        Digest128::of_value(self)
    }

    /// Field-level deltas against `other` — one entry per recorded
    /// field whose rendering differs (`tifl diff`'s per-round detail).
    #[must_use]
    pub fn field_deltas(&self, other: &RoundReport) -> Vec<FieldDelta> {
        fn opt<T: std::fmt::Display>(v: Option<T>) -> String {
            v.map_or_else(|| "-".to_string(), |v| v.to_string())
        }
        fn cohort(ids: &[usize]) -> String {
            const SHOWN: usize = 8;
            let head: Vec<String> = ids.iter().take(SHOWN).map(ToString::to_string).collect();
            let ellipsis = if ids.len() > SHOWN { ", …" } else { "" };
            format!("n={} [{}{ellipsis}]", ids.len(), head.join(", "))
        }
        let mut deltas = Vec::new();
        let mut push = |field: &str, a: String, b: String| {
            if a != b {
                deltas.push(FieldDelta {
                    field: field.to_string(),
                    a,
                    b,
                });
            }
        };
        push("round", self.round.to_string(), other.round.to_string());
        push("time", self.time.to_string(), other.time.to_string());
        push(
            "latency",
            self.latency.to_string(),
            other.latency.to_string(),
        );
        push("selected", cohort(&self.selected), cohort(&other.selected));
        push(
            "aggregated",
            cohort(&self.aggregated),
            cohort(&other.aggregated),
        );
        push("accuracy", opt(self.accuracy), opt(other.accuracy));
        push("loss", opt(self.loss), opt(other.loss));
        push(
            "bytes_up",
            self.bytes_up.to_string(),
            other.bytes_up.to_string(),
        );
        push(
            "bytes_down",
            self.bytes_down.to_string(),
            other.bytes_down.to_string(),
        );
        deltas
    }
}

/// A full training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingReport {
    /// Policy name that produced the run.
    pub policy: String,
    /// Per-round records, in order.
    pub rounds: Vec<RoundReport>,
}

/// A compact, serializable digest of one run — what sweep summaries
/// and CLI listings record without shipping the full per-round series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReportSummary {
    /// Policy label of the run.
    pub policy: String,
    /// Number of completed rounds.
    pub rounds: u64,
    /// Total virtual training time in seconds (0 for an empty run).
    pub total_time: f64,
    /// Last measured global accuracy.
    pub final_accuracy: f64,
    /// Best measured global accuracy.
    pub best_accuracy: f64,
    /// Total bytes shipped clients → server.
    pub bytes_up: u64,
    /// Total bytes shipped server → clients.
    pub bytes_down: u64,
}

impl TrainingReport {
    /// The run's [`ReportSummary`].
    #[must_use]
    pub fn summary(&self) -> ReportSummary {
        ReportSummary {
            policy: self.policy.clone(),
            rounds: self.rounds.len() as u64,
            total_time: self.total_time(),
            final_accuracy: self.final_accuracy(),
            best_accuracy: self.best_accuracy(),
            bytes_up: self.total_bytes_up(),
            bytes_down: self.total_bytes_down(),
        }
    }
    /// Total virtual training time (end of last round), in seconds;
    /// 0 for an empty report.
    #[must_use]
    pub fn total_time(&self) -> f64 {
        self.rounds.last().map_or(0.0, |r| r.time)
    }

    /// Last measured global accuracy.
    #[must_use]
    pub fn final_accuracy(&self) -> f64 {
        self.rounds
            .iter()
            .rev()
            .find_map(|r| r.accuracy)
            .unwrap_or(0.0)
    }

    /// Best measured global accuracy.
    #[must_use]
    pub fn best_accuracy(&self) -> f64 {
        self.rounds
            .iter()
            .filter_map(|r| r.accuracy)
            .fold(0.0, f64::max)
    }

    /// `(round, accuracy)` series for accuracy-over-rounds plots
    /// (Figs. 3c/d, 4, 5, 8, 9b).
    #[must_use]
    pub fn accuracy_over_rounds(&self) -> Vec<(u64, f64)> {
        self.rounds
            .iter()
            .filter_map(|r| r.accuracy.map(|a| (r.round, a)))
            .collect()
    }

    /// `(virtual time, accuracy)` series for accuracy-over-time plots
    /// (Figs. 3e/f, 6e/f).
    #[must_use]
    pub fn accuracy_over_time(&self) -> Vec<(f64, f64)> {
        self.rounds
            .iter()
            .filter_map(|r| r.accuracy.map(|a| (r.time, a)))
            .collect()
    }

    /// First virtual time at which accuracy reached `target`, if ever.
    #[must_use]
    pub fn time_to_accuracy(&self, target: f64) -> Option<f64> {
        self.rounds
            .iter()
            .find(|r| r.accuracy.is_some_and(|a| a >= target))
            .map(|r| r.time)
    }

    /// How often each client was selected across the run.
    #[must_use]
    pub fn selection_counts(&self, num_clients: usize) -> Vec<usize> {
        let mut counts = vec![0usize; num_clients];
        for r in &self.rounds {
            for &c in &r.selected {
                counts[c] += 1;
            }
        }
        counts
    }

    /// Fraction of selected trainings whose updates were discarded
    /// (non-zero only under over-selection or dropouts) — the wasted
    /// client work the paper criticises in §2.
    #[must_use]
    pub fn discarded_work_fraction(&self) -> f64 {
        let selected: usize = self.rounds.iter().map(|r| r.selected.len()).sum();
        let aggregated: usize = self.rounds.iter().map(|r| r.aggregated.len()).sum();
        if selected == 0 {
            return 0.0;
        }
        1.0 - aggregated as f64 / selected as f64
    }

    /// Total bytes shipped clients → server across the run.
    #[must_use]
    pub fn total_bytes_up(&self) -> u64 {
        self.rounds.iter().map(|r| r.bytes_up).sum()
    }

    /// Total bytes shipped server → clients across the run.
    #[must_use]
    pub fn total_bytes_down(&self) -> u64 {
        self.rounds.iter().map(|r| r.bytes_down).sum()
    }

    /// One content digest per round, in round order (the digest-chain
    /// input).
    #[must_use]
    pub fn round_digests(&self) -> Vec<Digest128> {
        self.rounds
            .iter()
            .map(RoundReport::content_digest)
            .collect()
    }

    /// The per-round chain heads: `chain_heads()[k]` commits to rounds
    /// `0..=k` in order. Prefix-stable, so a diff walking two runs'
    /// heads localizes the first divergent round without re-running.
    #[must_use]
    pub fn chain_heads(&self) -> Vec<Digest128> {
        DigestChain::heads(self.rounds.iter().map(RoundReport::content_digest))
    }

    /// The digest-chain head over the whole run — the integrity field
    /// sweep artifacts embed, recomputable from the report alone (so
    /// artifacts written before the field existed still verify).
    #[must_use]
    pub fn digest_chain(&self) -> Digest128 {
        DigestChain::of(self.rounds.iter().map(RoundReport::content_digest))
    }

    /// Compare against `other` via the digest chains: localize the
    /// first divergent round (O(rounds), no re-running) and attach its
    /// field-level deltas. `name_*` label the operands in the output
    /// (file paths in the CLI).
    #[must_use]
    pub fn diff(&self, name_a: &str, other: &TrainingReport, name_b: &str) -> DiffReport {
        let digests_a = self.round_digests();
        let digests_b = other.round_digests();
        let heads_a = DigestChain::heads(digests_a.iter().copied());
        let heads_b = DigestChain::heads(digests_b.iter().copied());
        let divergence = match tifl_obs::diff::first_divergence(&digests_a, &digests_b) {
            Some(i) => Divergence::DivergedAt {
                round: i as u64,
                chain_a: heads_a[i],
                chain_b: heads_b[i],
                deltas: self.rounds[i].field_deltas(&other.rounds[i]),
            },
            None if digests_a.len() == digests_b.len() => Divergence::Identical,
            None => Divergence::Truncated {
                shared_rounds: digests_a.len().min(digests_b.len()) as u64,
            },
        };
        let side = |name: &str, report: &TrainingReport| DiffSide {
            name: name.to_string(),
            policy: report.policy.clone(),
            rounds: report.rounds.len() as u64,
            chain_head: report.digest_chain(),
        };
        DiffReport {
            a: side(name_a, self),
            b: side(name_b, other),
            divergence,
        }
    }

    /// Mean per-round latency in seconds.
    #[must_use]
    pub fn mean_round_latency(&self) -> f64 {
        if self.rounds.is_empty() {
            return 0.0;
        }
        self.rounds.iter().map(|r| r.latency).sum::<f64>() / self.rounds.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> TrainingReport {
        TrainingReport {
            policy: "test".into(),
            rounds: vec![
                RoundReport {
                    round: 0,
                    time: 10.0,
                    latency: 10.0,
                    selected: vec![0, 1],
                    aggregated: Vec::new(),
                    accuracy: Some(0.3),
                    loss: Some(2.0),
                    bytes_down: 200,
                    bytes_up: 100,
                },
                RoundReport {
                    round: 1,
                    time: 25.0,
                    latency: 15.0,
                    selected: vec![1, 2],
                    aggregated: Vec::new(),
                    accuracy: None,
                    loss: None,
                    bytes_down: 200,
                    bytes_up: 50,
                },
                RoundReport {
                    round: 2,
                    time: 30.0,
                    latency: 5.0,
                    selected: vec![0, 2],
                    aggregated: Vec::new(),
                    accuracy: Some(0.7),
                    loss: Some(1.0),
                    bytes_down: 200,
                    bytes_up: 100,
                },
            ],
        }
    }

    #[test]
    fn totals_and_finals() {
        let r = report();
        assert_eq!(r.total_time(), 30.0);
        assert_eq!(r.final_accuracy(), 0.7);
        assert_eq!(r.best_accuracy(), 0.7);
        assert!((r.mean_round_latency() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn summary_digests_the_run() {
        let r = report();
        let s = r.summary();
        assert_eq!(s.policy, "test");
        assert_eq!(s.rounds, 3);
        assert_eq!(s.total_time, 30.0);
        assert_eq!(s.final_accuracy, 0.7);
        assert_eq!(s.bytes_up, 250);
        assert_eq!(s.bytes_down, 600);
        // Empty runs digest without panicking.
        let empty = TrainingReport {
            policy: "empty".into(),
            rounds: Vec::new(),
        };
        assert_eq!(empty.summary().total_time, 0.0);
        assert_eq!(empty.summary().rounds, 0);
    }

    #[test]
    fn byte_totals_accumulate() {
        let r = report();
        assert_eq!(r.total_bytes_down(), 600);
        assert_eq!(r.total_bytes_up(), 250);
    }

    #[test]
    fn series_skip_unevaluated_rounds() {
        let r = report();
        assert_eq!(r.accuracy_over_rounds(), vec![(0, 0.3), (2, 0.7)]);
        assert_eq!(r.accuracy_over_time(), vec![(10.0, 0.3), (30.0, 0.7)]);
    }

    #[test]
    fn time_to_accuracy_finds_first_crossing() {
        let r = report();
        assert_eq!(r.time_to_accuracy(0.5), Some(30.0));
        assert_eq!(r.time_to_accuracy(0.2), Some(10.0));
        assert_eq!(r.time_to_accuracy(0.9), None);
    }

    #[test]
    fn selection_counts_accumulate() {
        let r = report();
        assert_eq!(r.selection_counts(3), vec![2, 2, 2]);
    }

    #[test]
    fn digest_chain_commits_to_every_round_in_order() {
        let r = report();
        assert_eq!(r.round_digests().len(), 3);
        assert_eq!(r.chain_heads().len(), 3);
        assert_eq!(r.chain_heads()[2], r.digest_chain());
        // Equal reports chain equal; any single-field edit changes the
        // head; the chain over a prefix matches the intermediate head.
        let same = report();
        assert_eq!(same.digest_chain(), r.digest_chain());
        let mut edited = report();
        edited.rounds[1].bytes_up += 1;
        assert_ne!(edited.digest_chain(), r.digest_chain());
        let mut prefix = report();
        prefix.rounds.truncate(2);
        assert_eq!(prefix.digest_chain(), r.chain_heads()[1]);
        // Swapping two rounds changes the head even though the digest
        // multiset is unchanged.
        let mut swapped = report();
        swapped.rounds.swap(0, 2);
        assert_ne!(swapped.digest_chain(), r.digest_chain());
    }

    #[test]
    fn diff_localizes_the_first_divergent_round() {
        let r = report();
        assert!(r.diff("a", &report(), "b").identical());

        let mut perturbed = report();
        perturbed.rounds[1].accuracy = Some(0.99);
        let d = r.diff("a", &perturbed, "b");
        match &d.divergence {
            Divergence::DivergedAt { round, deltas, .. } => {
                assert_eq!(*round, 1);
                assert_eq!(deltas.len(), 1);
                assert_eq!(deltas[0].field, "accuracy");
                assert_eq!(deltas[0].a, "-");
                assert_eq!(deltas[0].b, "0.99");
            }
            other => panic!("expected DivergedAt, got {other:?}"),
        }

        let mut truncated = report();
        truncated.rounds.truncate(1);
        assert_eq!(
            r.diff("a", &truncated, "b").divergence,
            Divergence::Truncated { shared_rounds: 1 }
        );
    }
}
