//! Re-serialising out-of-order completions.
//!
//! Parallel workers finish clients in wall-clock order — but FedAvg
//! folds must happen in the *canonical aggregation order* of the round
//! plan, or the floating-point sums change with the thread count
//! (addition is commutative but not associative). [`OrderedMerge`] is
//! the small reorder buffer between the two: completions are pushed
//! with their canonical slot index, and the in-order prefix is released
//! the moment it becomes contiguous.
//!
//! Memory: the buffer holds only updates that arrived *ahead* of a
//! straggling predecessor. Expected occupancy is the reorder window of
//! the completion order vs the canonical order (small — under
//! over-selection the two orders even coincide); the worst case (exact
//! reverse arrival) is the in-flight count, i.e. never worse than
//! buffering the whole round.

use std::collections::BTreeMap;

/// Reorder buffer releasing values in slot order (0, 1, 2, …).
#[derive(Debug)]
pub struct OrderedMerge<T> {
    pending: BTreeMap<usize, T>,
    next: usize,
}

impl<T> Default for OrderedMerge<T> {
    fn default() -> Self {
        Self {
            pending: BTreeMap::new(),
            next: 0,
        }
    }
}

impl<T> OrderedMerge<T> {
    /// An empty buffer expecting slot 0 first.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Accept the value for `slot` and release every contiguously
    /// available value in canonical order through `sink`.
    ///
    /// # Panics
    /// Panics if `slot` was already pushed or already released.
    pub fn push(&mut self, slot: usize, value: T, mut sink: impl FnMut(T)) {
        assert!(slot >= self.next, "slot {slot} already released");
        let clash = self.pending.insert(slot, value);
        assert!(clash.is_none(), "slot {slot} pushed twice");
        while let Some(value) = self.pending.remove(&self.next) {
            self.next += 1;
            sink(value);
        }
    }

    /// Values buffered waiting for a straggling predecessor.
    #[cfg(test)]
    fn buffered(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(order: &[usize]) -> (Vec<usize>, usize) {
        let mut merge = OrderedMerge::new();
        let mut out = Vec::new();
        let mut peak = 0;
        for &slot in order {
            merge.push(slot, slot, |v| out.push(v));
            peak = peak.max(merge.buffered());
        }
        (out, peak)
    }

    #[test]
    fn in_order_pushes_release_immediately() {
        let (out, peak) = run(&[0, 1, 2, 3]);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(peak, 0, "no buffering when arrival order is canonical");
    }

    #[test]
    fn out_of_order_pushes_release_canonically() {
        let (out, peak) = run(&[2, 0, 3, 1]);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert!(peak <= 2);
    }

    #[test]
    fn reverse_order_buffers_all_but_one() {
        let (out, peak) = run(&[3, 2, 1, 0]);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(peak, 3, "worst case: everyone waits for slot 0");
    }

    #[test]
    #[should_panic(expected = "pushed twice")]
    fn duplicate_slots_are_rejected() {
        let mut merge = OrderedMerge::new();
        merge.push(1, (), |()| {});
        merge.push(1, (), |()| {});
    }

    #[test]
    #[should_panic(expected = "already released")]
    fn released_slots_are_rejected() {
        let mut merge = OrderedMerge::new();
        merge.push(0, (), |()| {});
        merge.push(0, (), |()| {});
    }
}
