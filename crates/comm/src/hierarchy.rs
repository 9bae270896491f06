//! Hierarchical master–child aggregation (§3.1, §4.1).
//!
//! Google's production FL architecture shards clients over *child*
//! aggregators whose partial aggregates a *master* combines, so a single
//! box never has to absorb millions of updates. The paper's prototype
//! simplifies to one aggregator but notes that "multiple layers of
//! aggregator can be easily integrated into TiFL"; [`HierarchySpec`]
//! supplies that integration as a latency model. Rounds still fold flat
//! (weighted means compose, so a two-level FedAvg is flat FedAvg up to
//! rounding); what the tree changes is a round's time:
//! [`HierarchySpec::combine_latency`] is the simulated wall time of the
//! tree, and a run with a hierarchy adds it to every round's latency.

use serde::{Deserialize, Serialize};

/// A hierarchical aggregation plane (master/child aggregators): client
/// updates are absorbed by `ceil(|updates| / fan_out)` child
/// aggregators in parallel, whose dense partial aggregates the master
/// combines. Costs are transfer seconds over `plane_bps`, the unit of
/// [`crate::link::transfer_secs`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HierarchySpec {
    /// Maximum client updates handled per child aggregator.
    pub fan_out: usize,
    /// Bandwidth of the aggregation plane in bytes/s.
    pub plane_bps: f64,
}

impl HierarchySpec {
    /// Simulated latency of combining `updates` client uploads of
    /// `client_bytes` each: the children run in parallel, so the
    /// busiest one (up to `fan_out` updates) sets the child layer's
    /// time, and then the master absorbs one dense partial of
    /// `partial_bytes` per child. Children decode and fold, so their
    /// partials are full precision: a codec shrinks the child layer
    /// but not the master hop.
    ///
    /// # Panics
    /// Panics if `fan_out` is zero or `plane_bps` is not positive.
    #[must_use]
    pub fn combine_latency(&self, updates: usize, client_bytes: u64, partial_bytes: u64) -> f64 {
        assert!(self.fan_out > 0, "fan-out must be positive");
        assert!(self.plane_bps > 0.0, "bandwidth must be positive");
        if updates == 0 {
            return 0.0;
        }
        // Each hop costs `bytes / 1e6 * sec_per_mb`, which is
        // `transfer_secs(bytes, plane_bps)`.
        let sec_per_mb = 1.0e6 / self.plane_bps;
        let children = updates.div_ceil(self.fan_out);
        let busiest = updates.min(self.fan_out);
        let child_cost = busiest as f64 * client_bytes as f64 / 1.0e6 * sec_per_mb;
        let master_cost = children as f64 * partial_bytes as f64 / 1.0e6 * sec_per_mb;
        child_cost + master_cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::transfer_secs;

    fn tree(fan_out: usize, plane_bps: f64) -> HierarchySpec {
        HierarchySpec { fan_out, plane_bps }
    }

    /// One aggregator absorbing every update in turn.
    fn flat(updates: usize, bytes: u64, plane_bps: f64) -> f64 {
        transfer_secs(updates as u64 * bytes, plane_bps)
    }

    #[test]
    fn child_count_rounds_up() {
        // A free child layer and a one-second partial: the latency is
        // the number of children.
        let tree = tree(10, 1.0e6);
        for (updates, children) in [(1, 1.0), (10, 1.0), (11, 2.0), (95, 10.0)] {
            assert_eq!(tree.combine_latency(updates, 0, 1_000_000), children);
        }
    }

    #[test]
    fn hierarchy_beats_flat_at_scale() {
        let bytes = 40_000;
        // 10k clients: flat absorbs 10k updates serially; the tree's
        // critical path is 100 (child) + 100 (master).
        let flat = flat(10_000, bytes, 2.0e8);
        let hier = tree(100, 2.0e8).combine_latency(10_000, bytes, bytes);
        assert!(
            hier < flat / 10.0,
            "hierarchy {hier} should be far below flat {flat}"
        );
    }

    #[test]
    fn small_rounds_prefer_flat() {
        // With |C| = 5 updates the tree only adds the master hop — the
        // paper's justification for the single-aggregator prototype.
        let flat = flat(5, 40_000, 2.0e8);
        let hier = tree(100, 2.0e8).combine_latency(5, 40_000, 40_000);
        assert!(hier >= flat, "tiny rounds gain nothing from the tree");
    }

    #[test]
    #[should_panic(expected = "fan-out must be positive")]
    fn rejects_zero_fan_out() {
        let _ = tree(0, 2.0e8).combine_latency(1, 1, 1);
    }

    #[test]
    fn plane_costs_are_comm_transfer_seconds() {
        // One update through a 1-child tree: child absorbs it, master
        // absorbs the partial — two transfers over the plane, priced
        // exactly like any other link in the comm model.
        let bps = 5.0e7;
        let bytes = 123_456u64;
        let expect = 2.0 * transfer_secs(bytes, bps);
        assert!((tree(10, bps).combine_latency(1, bytes, bytes) - expect).abs() < 1e-12);
    }

    #[test]
    fn encoded_uploads_shrink_the_child_layer_only() {
        let tree = tree(100, 1.0e6);
        let dense = 400_000u64;
        let encoded = 100_000u64;
        let full = tree.combine_latency(100, dense, dense);
        let compressed = tree.combine_latency(100, encoded, dense);
        // Child layer shrinks 4x, master hop (1 partial) unchanged.
        let expect = 100.0 * 0.1 + 1.0 * 0.4;
        assert!((compressed - expect).abs() < 1e-9, "got {compressed}");
        assert!(compressed < full);
    }
}
