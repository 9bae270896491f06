//! Time-varying device performance.
//!
//! §4.2 notes that "profiling and tiering can be conducted periodically
//! for systems with changing computation and communication performance
//! over the time". This module supplies the changing performance: a
//! [`DriftModel`] scales each device's effective CPU share as a
//! deterministic function of `(device, round)`, so experiments can plant
//! a performance change and verify that periodic re-profiling recovers
//! the right tiers.

use serde::{Deserialize, Serialize};

/// Round ids with this bit set denote profiling rounds; drift treats
/// them as the training round they were issued at (the flag is masked
/// off) while the jitter stream still sees a distinct id.
pub const PROFILING_ROUND_FLAG: u64 = 1 << 63;

/// Deterministic multiplicative drift on device CPU shares.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub enum DriftModel {
    /// Performance never changes (the paper's main experiments).
    #[default]
    None,
    /// At `at_round`, device `d`'s CPU share is multiplied by
    /// `factors[d % factors.len()]` and stays there — e.g. a fleet of
    /// phones entering/leaving charging-idle state.
    RegimeSwitch {
        /// Round at which the switch happens.
        at_round: u64,
        /// Per-device multiplicative factors (cycled by device id).
        factors: Vec<f64>,
    },
}

impl DriftModel {
    /// Effective CPU-share multiplier for device `d` at `round`.
    ///
    /// Profiling round ids (flagged with [`PROFILING_ROUND_FLAG`]) are
    /// mapped back to their underlying training round so a profiler run
    /// at round `r` observes the same regime as training at `r`.
    #[must_use]
    pub fn cpu_scale(&self, d: usize, round: u64) -> f64 {
        let round = round & !PROFILING_ROUND_FLAG;
        match self {
            DriftModel::None => 1.0,
            DriftModel::RegimeSwitch { at_round, factors } => {
                if round >= *at_round && !factors.is_empty() {
                    factors[d % factors.len()]
                } else {
                    1.0
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_identity() {
        let d = DriftModel::None;
        assert_eq!(d.cpu_scale(0, 0), 1.0);
        assert_eq!(d.cpu_scale(5, 1000), 1.0);
    }

    #[test]
    fn regime_switch_applies_after_round() {
        let d = DriftModel::RegimeSwitch {
            at_round: 100,
            factors: vec![0.5, 2.0],
        };
        assert_eq!(d.cpu_scale(0, 99), 1.0);
        assert_eq!(d.cpu_scale(0, 100), 0.5);
        assert_eq!(d.cpu_scale(1, 100), 2.0);
        assert_eq!(d.cpu_scale(2, 500), 0.5);
    }

    #[test]
    fn profiling_flag_maps_to_training_round() {
        let d = DriftModel::RegimeSwitch {
            at_round: 100,
            factors: vec![0.5],
        };
        // A profiling round issued at training round 50 sees the old
        // regime; one issued at 200 sees the new regime.
        assert_eq!(d.cpu_scale(0, 50 | PROFILING_ROUND_FLAG), 1.0);
        assert_eq!(d.cpu_scale(0, 200 | PROFILING_ROUND_FLAG), 0.5);
    }
}
