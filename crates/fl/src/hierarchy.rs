//! Hierarchical master–child aggregation (§3.1, §4.1).
//!
//! Google's production FL architecture shards clients over *child*
//! aggregators whose partial aggregates a *master* combines, so a single
//! box never has to absorb millions of updates. The paper's prototype
//! simplifies to one aggregator but notes that "multiple layers of
//! aggregator can be easily integrated into TiFL"; this module supplies
//! that integration as a latency model. Rounds still fold flat
//! (weighted means compose, so a two-level FedAvg is flat FedAvg up to
//! rounding); what the tree changes is a round's time:
//! [`AggregationTree::aggregation_latency`] is the simulated wall time
//! of the tree — children work in parallel (their costs take a max),
//! the master adds its own combine cost on top — and a run with a
//! `tifl_comm::HierarchySpec` adds it to every round's latency.

use serde::{Deserialize, Serialize};

/// Shape and cost parameters of the aggregation hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AggregationTree {
    /// Maximum client updates handled per child aggregator.
    pub fan_out: usize,
    /// Cost to absorb one update at any node, seconds per megabyte.
    pub sec_per_update_mb: f64,
}

impl AggregationTree {
    /// A tree with the given fan-out and a default absorb cost of
    /// 5 ms/MB (a 1.6 Gbit/s aggregation plane).
    ///
    /// # Panics
    /// Panics if `fan_out == 0`.
    #[must_use]
    pub fn with_fan_out(fan_out: usize) -> Self {
        Self::with_plane(fan_out, 2.0e8)
    }

    /// A tree over an aggregation plane of `plane_bps` bytes/s: the
    /// absorb cost per node is exactly
    /// [`tifl_comm::link::transfer_secs`] over that bandwidth, so the
    /// hierarchy's combine latency is expressed in the same transfer
    /// seconds as every client transfer (a
    /// `tifl_comm::HierarchySpec` maps onto this constructor).
    ///
    /// # Panics
    /// Panics if `fan_out == 0` or `plane_bps` is not positive.
    #[must_use]
    pub fn with_plane(fan_out: usize, plane_bps: f64) -> Self {
        assert!(fan_out > 0, "fan-out must be positive");
        assert!(plane_bps > 0.0, "bandwidth must be positive");
        Self {
            fan_out,
            // cost(bytes) = bytes / 1e6 * sec_per_update_mb
            //             = transfer_secs(bytes, plane_bps).
            sec_per_update_mb: 1.0e6 / plane_bps,
        }
    }

    /// Number of child aggregators needed for `updates` updates.
    #[must_use]
    pub fn num_children(&self, updates: usize) -> usize {
        updates.div_ceil(self.fan_out)
    }

    /// Simulated latency of aggregating `updates` updates of
    /// `update_bytes` each: children run in parallel, the master absorbs
    /// one partial per child.
    #[must_use]
    pub fn aggregation_latency(&self, updates: usize, update_bytes: u64) -> f64 {
        self.aggregation_latency_encoded(updates, update_bytes, update_bytes)
    }

    /// As [`AggregationTree::aggregation_latency`] with compressed
    /// client uploads: children absorb `client_bytes` (the encoded wire
    /// size) per update, the master absorbs one *dense* partial of
    /// `partial_bytes` per child (children decode-and-fold, so their
    /// partial aggregates are full precision). This is how an update
    /// codec shrinks the child layer of the hierarchy but not the
    /// master hop.
    #[must_use]
    pub fn aggregation_latency_encoded(
        &self,
        updates: usize,
        client_bytes: u64,
        partial_bytes: u64,
    ) -> f64 {
        if updates == 0 {
            return 0.0;
        }
        let children = self.num_children(updates);
        // The busiest child absorbs up to `fan_out` updates.
        let busiest = updates.min(self.fan_out);
        let child_cost = busiest as f64 * client_bytes as f64 / 1.0e6 * self.sec_per_update_mb;
        let master_cost = children as f64 * partial_bytes as f64 / 1.0e6 * self.sec_per_update_mb;
        child_cost + master_cost
    }

    /// Latency of the flat single-aggregator design, for comparison.
    #[must_use]
    pub fn flat_latency(&self, updates: usize, update_bytes: u64) -> f64 {
        updates as f64 * update_bytes as f64 / 1.0e6 * self.sec_per_update_mb
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_count_rounds_up() {
        let tree = AggregationTree::with_fan_out(10);
        assert_eq!(tree.num_children(1), 1);
        assert_eq!(tree.num_children(10), 1);
        assert_eq!(tree.num_children(11), 2);
        assert_eq!(tree.num_children(95), 10);
    }

    #[test]
    fn hierarchy_beats_flat_at_scale() {
        let tree = AggregationTree::with_fan_out(100);
        let bytes = 40_000;
        // 10k clients: flat absorbs 10k updates serially; the tree's
        // critical path is 100 (child) + 100 (master).
        let flat = tree.flat_latency(10_000, bytes);
        let hier = tree.aggregation_latency(10_000, bytes);
        assert!(
            hier < flat / 10.0,
            "hierarchy {hier} should be far below flat {flat}"
        );
    }

    #[test]
    fn small_rounds_prefer_flat() {
        // With |C| = 5 updates the tree only adds the master hop — the
        // paper's justification for the single-aggregator prototype.
        let tree = AggregationTree::with_fan_out(100);
        let flat = tree.flat_latency(5, 40_000);
        let hier = tree.aggregation_latency(5, 40_000);
        assert!(hier >= flat, "tiny rounds gain nothing from the tree");
    }

    #[test]
    #[should_panic(expected = "fan-out must be positive")]
    fn rejects_zero_fan_out() {
        let _ = AggregationTree::with_fan_out(0);
    }

    #[test]
    fn plane_costs_are_comm_transfer_seconds() {
        // One update through a 1-child tree: child absorbs it, master
        // absorbs the partial — two transfers over the plane, priced
        // exactly like any other link in the comm model.
        let bps = 5.0e7;
        let tree = AggregationTree::with_plane(10, bps);
        let bytes = 123_456u64;
        let expect = 2.0 * tifl_comm::link::transfer_secs(bytes, bps);
        assert!((tree.aggregation_latency(1, bytes) - expect).abs() < 1e-12);
    }

    #[test]
    fn encoded_uploads_shrink_the_child_layer_only() {
        let tree = AggregationTree::with_plane(100, 1.0e6);
        let dense = 400_000u64;
        let encoded = 100_000u64;
        let full = tree.aggregation_latency(100, dense);
        let compressed = tree.aggregation_latency_encoded(100, encoded, dense);
        // Child layer shrinks 4x, master hop (1 partial) unchanged.
        let expect = 100.0 * 0.1 + 1.0 * 0.4;
        assert!((compressed - expect).abs() < 1e-9, "got {compressed}");
        assert!(compressed < full);
    }
}
