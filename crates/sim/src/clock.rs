//! Virtual time.

use serde::{Deserialize, Serialize};

/// A monotonically non-decreasing virtual clock in seconds.
///
/// All "training time" numbers in the reproduction are read off this
/// clock, so experiments that would take days on a real testbed finish
/// in milliseconds while preserving every latency ratio.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct VirtualClock {
    now: f64,
}

impl VirtualClock {
    /// A clock at time zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time in seconds.
    #[must_use]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Advance by `dt` seconds.
    ///
    /// # Panics
    /// Panics if `dt` is negative or not finite.
    pub fn advance(&mut self, dt: f64) {
        assert!(
            dt.is_finite() && dt >= 0.0,
            "clock advance must be finite and >= 0, got {dt}"
        );
        self.now += dt;
    }

    /// Reset to zero (new experiment).
    pub fn reset(&mut self) {
        self.now = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_advances() {
        let mut c = VirtualClock::new();
        assert_eq!(c.now(), 0.0);
        c.advance(1.5);
        c.advance(0.5);
        assert!((c.now() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "finite and >= 0")]
    fn advance_rejects_negative() {
        let mut c = VirtualClock::new();
        c.advance(-1.0);
    }

    #[test]
    fn reset_returns_to_zero() {
        let mut c = VirtualClock::new();
        c.advance(3.0);
        c.reset();
        assert_eq!(c.now(), 0.0);
    }
}
