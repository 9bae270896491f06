//! A run's deterministic metrics: counters, gauges and fixed-bucket
//! histograms, as stored in run artifacts.
//!
//! A [`MetricsSnapshot`] is read off a finished run's report (see
//! `tifl_fl::TrainingReport::metrics`), so every value derives from
//! the virtual clock and the round plans. Metrics are listed in a fixed
//! order (no hash-map iteration) and histogram buckets are fixed, so
//! two runs of the same spec produce byte-identical snapshot JSON.

use serde::{Deserialize, Serialize};

/// Fixed bucket bounds (virtual seconds) for the round-latency
/// histogram. Chosen to straddle the paper's CIFAR-10 round latencies
/// across tiers (§5.2: seconds for the fast tier, thousands for the
/// slow one).
pub const LATENCY_BUCKETS_SEC: [f64; 10] = [
    1.0, 5.0, 20.0, 60.0, 180.0, 600.0, 1800.0, 3600.0, 10800.0, 43200.0,
];

/// A serialized counter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterSnap {
    /// Metric name.
    pub name: String,
    /// Accumulated count.
    pub value: u64,
}

/// A serialized gauge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeSnap {
    /// Metric name.
    pub name: String,
    /// The value.
    pub value: f64,
}

/// A serialized histogram.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistSnap {
    /// Metric name.
    pub name: String,
    /// Upper-inclusive bucket bounds.
    pub bounds: Vec<f64>,
    /// Per-bucket counts; the final entry is the overflow bucket.
    pub counts: Vec<u64>,
    /// Total observations.
    pub total: u64,
    /// Sum of all observed values.
    pub sum: f64,
}

/// A run's metrics, in a fixed order.
///
/// Stored as the optional `metrics` section of sweep run artifacts;
/// artifacts written before this section existed deserialize with
/// `None` and still validate.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counters.
    pub counters: Vec<CounterSnap>,
    /// Gauges.
    pub gauges: Vec<GaugeSnap>,
    /// Histograms.
    pub histograms: Vec<HistSnap>,
}

impl MetricsSnapshot {
    /// Look up a counter by name.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Look up a gauge by name.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// Look up a histogram by name.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistSnap> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Render the snapshot as an aligned text table.
    #[must_use]
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let width = self
            .counters
            .iter()
            .map(|c| c.name.len())
            .chain(self.gauges.iter().map(|g| g.name.len()))
            .chain(self.histograms.iter().map(|h| h.name.len()))
            .max()
            .unwrap_or(0)
            .max(6);
        for c in &self.counters {
            let _ = writeln!(out, "{:<width$} {:>14}", c.name, c.value);
        }
        for g in &self.gauges {
            let _ = writeln!(out, "{:<width$} {:>14.3}", g.name, g.value);
        }
        for h in &self.histograms {
            let _ = writeln!(
                out,
                "{:<width$} {:>14} obs, mean {:.3}",
                h.name,
                h.total,
                h.mean()
            );
        }
        out
    }
}

impl HistSnap {
    /// The histogram of `values` over the upper-inclusive `bounds`: a
    /// value `v` lands in the first bucket with `v <= bound`, and values
    /// above the last bound land in the overflow bucket, so `counts`
    /// has `bounds.len() + 1` entries. `sum` adds the values in order.
    ///
    /// # Panics
    /// If `bounds` is not strictly increasing.
    #[must_use]
    pub fn of(name: &str, bounds: &[f64], values: impl IntoIterator<Item = f64>) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let mut counts = vec![0; bounds.len() + 1];
        let (mut total, mut sum) = (0, 0.0);
        for value in values {
            let bucket = bounds.iter().position(|&b| value <= b);
            counts[bucket.unwrap_or(bounds.len())] += 1;
            total += 1;
            sum += value;
        }
        Self {
            name: name.to_string(),
            bounds: bounds.to_vec(),
            counts,
            total,
            sum,
        }
    }

    /// Mean of all observations (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_and_histograms_accumulate() {
        let snap = MetricsSnapshot {
            counters: vec![CounterSnap {
                name: "rounds".into(),
                value: 3,
            }],
            gauges: vec![GaugeSnap {
                name: "virtual_time_sec".into(),
                value: 42.5,
            }],
            // Upper-inclusive: 1.0 and 10.0 land in their own bound's
            // bucket; 1e6 in the overflow bucket.
            histograms: vec![HistSnap::of(
                "latency",
                &[1.0, 10.0, 100.0],
                [0.5, 1.0, 10.0, 1e6],
            )],
        };
        assert_eq!(snap.counter("rounds"), Some(3));
        assert_eq!(snap.gauge("virtual_time_sec"), Some(42.5));
        assert_eq!(snap.counter("absent"), None);
        let hist = snap.histogram("latency").unwrap();
        assert_eq!(hist.counts, vec![2, 1, 0, 1]);
        assert_eq!(hist.total, 4);
        assert!((hist.sum - 1_000_011.5).abs() < 1e-9);
        assert!((hist.mean() - 250_002.875).abs() < 1e-9);
        let empty = HistSnap::of("none", &LATENCY_BUCKETS_SEC, []);
        assert_eq!(empty.counts, vec![0; LATENCY_BUCKETS_SEC.len() + 1]);
        assert_eq!(empty.mean(), 0.0);
    }

    #[test]
    fn snapshots_are_byte_deterministic() {
        let build = || MetricsSnapshot {
            histograms: vec![HistSnap::of("y", &[0.5, 5.0], [3.25, 0.1, 7.0])],
            ..MetricsSnapshot::default()
        };
        let json = serde_json::to_string_pretty(&build()).unwrap();
        assert_eq!(json, serde_json::to_string_pretty(&build()).unwrap());
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, build(), "a stored snapshot reads back equal");
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_are_rejected() {
        let _ = HistSnap::of("bad", &[2.0, 1.0], []);
    }
}
