//! Fixed-bucket deterministic metrics: counters, gauges, histograms.
//!
//! The registry is built once at setup time (names and histogram
//! bucket bounds allocate there) and then driven through index
//! handles ([`CounterId`], [`GaugeId`], [`HistId`]) — the hot-path
//! operations `inc`/`set`/`observe` are plain array writes with no
//! allocation and no hashing, so a metrics-enabled run passes the
//! workspace allocation gate.
//!
//! Snapshots are deterministic by construction: metrics are reported
//! in registration order (no hash-map iteration), histogram buckets
//! are fixed at registration, and every recorded value derives from
//! the virtual clock or the round plans. Two runs of the same spec
//! produce byte-identical [`MetricsSnapshot`] JSON.

use serde::{Deserialize, Serialize};

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(usize);

#[derive(Debug, Clone)]
struct Hist {
    name: String,
    /// Upper-inclusive bucket bounds, strictly increasing. A value
    /// `v` lands in the first bucket with `v <= bound`; values above
    /// the last bound land in the implicit overflow bucket, so
    /// `counts.len() == bounds.len() + 1`.
    bounds: Vec<f64>,
    counts: Vec<u64>,
    total: u64,
    sum: f64,
}

/// Registry of counters, gauges and fixed-bucket histograms.
///
/// Register every metric up front, then drive the handles from the
/// hot path. Registration order is snapshot order.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
    hists: Vec<Hist>,
}

impl MetricsRegistry {
    /// Empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a counter (setup path; allocates the name).
    pub fn counter(&mut self, name: &str) -> CounterId {
        self.counters.push((name.to_string(), 0));
        CounterId(self.counters.len() - 1)
    }

    /// Register a gauge (setup path; allocates the name).
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        self.gauges.push((name.to_string(), 0.0));
        GaugeId(self.gauges.len() - 1)
    }

    /// Register a histogram with the given upper-inclusive bucket
    /// bounds, which must be strictly increasing (setup path).
    ///
    /// # Panics
    /// If `bounds` is not strictly increasing.
    pub fn histogram(&mut self, name: &str, bounds: &[f64]) -> HistId {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        self.hists.push(Hist {
            name: name.to_string(),
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            total: 0,
            sum: 0.0,
        });
        HistId(self.hists.len() - 1)
    }

    /// Increment a counter by `by` (hot path; allocation-free).
    pub fn inc(&mut self, id: CounterId, by: u64) {
        self.counters[id.0].1 += by;
    }

    /// Set a gauge (hot path; allocation-free).
    pub fn set(&mut self, id: GaugeId, value: f64) {
        self.gauges[id.0].1 = value;
    }

    /// Record a histogram observation (hot path; a linear scan over
    /// the fixed bounds, allocation-free).
    pub fn observe(&mut self, id: HistId, value: f64) {
        let h = &mut self.hists[id.0];
        let bucket = h
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(h.bounds.len());
        h.counts[bucket] += 1;
        h.total += 1;
        h.sum += value;
    }

    /// Serialize the current state, in registration order.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(name, value)| CounterSnap {
                    name: name.clone(),
                    value: *value,
                })
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(name, value)| GaugeSnap {
                    name: name.clone(),
                    value: *value,
                })
                .collect(),
            histograms: self
                .hists
                .iter()
                .map(|h| HistSnap {
                    name: h.name.clone(),
                    bounds: h.bounds.clone(),
                    counts: h.counts.clone(),
                    total: h.total,
                    sum: h.sum,
                })
                .collect(),
        }
    }
}

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
    /// Last value set.
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

/// A point-in-time, deterministic serialization of a registry.
///
/// Stored as the optional `metrics` section of sweep run artifacts;
/// artifacts written before this section existed deserialize with
/// `None` and still validate.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counters, in registration order.
    pub counters: Vec<CounterSnap>,
    /// Gauges, in registration order.
    pub gauges: Vec<GaugeSnap>,
    /// Histograms, in registration order.
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
            let mean = if h.total > 0 {
                h.sum / h.total as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{:<width$} {:>14} obs, mean {mean:.3}",
                h.name, h.total
            );
        }
        out
    }
}

impl HistSnap {
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
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("rounds");
        let g = reg.gauge("virtual_time_sec");
        let h = reg.histogram("latency", &[1.0, 10.0, 100.0]);
        reg.inc(c, 3);
        reg.set(g, 42.5);
        reg.observe(h, 0.5);
        reg.observe(h, 10.0); // upper-inclusive: lands in bucket 1
        reg.observe(h, 1e6); // overflow bucket
        let snap = reg.snapshot();
        assert_eq!(snap.counter("rounds"), Some(3));
        assert_eq!(snap.gauge("virtual_time_sec"), Some(42.5));
        let hist = snap.histogram("latency").unwrap();
        assert_eq!(hist.counts, vec![1, 1, 0, 1]);
        assert_eq!(hist.total, 3);
        assert!((hist.sum - 1_000_010.5).abs() < 1e-9);
    }

    #[test]
    fn hot_path_ops_do_not_grow_storage() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("a");
        let h = reg.histogram("b", &[1.0, 2.0]);
        let cp = reg.counters.as_ptr();
        let hp = reg.hists[0].counts.as_ptr();
        for i in 0..1000 {
            reg.inc(c, 1);
            reg.observe(h, i as f64);
        }
        assert_eq!(reg.counters.as_ptr(), cp);
        assert_eq!(reg.hists[0].counts.as_ptr(), hp);
    }

    #[test]
    fn snapshots_are_byte_deterministic() {
        let build = || {
            let mut reg = MetricsRegistry::new();
            let c = reg.counter("x");
            let h = reg.histogram("y", &[0.5, 5.0]);
            reg.inc(c, 7);
            reg.observe(h, 3.25);
            serde_json::to_string_pretty(&reg.snapshot()).unwrap()
        };
        assert_eq!(build(), build());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_are_rejected() {
        MetricsRegistry::new().histogram("bad", &[2.0, 1.0]);
    }
}
