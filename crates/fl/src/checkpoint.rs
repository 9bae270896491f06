//! Session checkpointing.
//!
//! Long federated runs (the paper's LEAF experiment is 2000 rounds)
//! need to survive restarts. A [`Checkpoint`] captures everything the
//! round engine owns — global weights, virtual clock, round counter —
//! plus, when the run uses a stateful selector, that selector's state
//! ([`SelectorState`]: adaptive credits, probabilities and accuracy
//! history). [`Session::restore`](crate::session::Session) resumes
//! exactly where training left off: because every per-round source of
//! randomness is keyed by `(seed, client, round)`, a restored run is
//! bit-identical to one that never stopped — including credit-based
//! adaptive runs, whose selector restores through
//! [`ClientSelector::restore_state`](crate::selector::ClientSelector)
//! (tested in `tests/end_to_end.rs`). A lossy run's error-feedback
//! residuals ride along too, so its uploads compensate after a restore
//! exactly as they would have without one.
//!
//! Static selectors are stateless given the round number and export
//! `None`.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use tifl_tensor::ParamVec;

/// Serialisable state of a stateful client selector (the adaptive
/// credit-based algorithm's working set). Diagnostics like tier
/// histories are deliberately excluded: they never influence future
/// selections.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SelectorState {
    /// Current per-tier selection probabilities.
    pub probs: Vec<f64>,
    /// Remaining credits per tier.
    pub credits: Vec<u64>,
    /// The tier whose accuracy trend gates the next probability update.
    pub current_tier: usize,
    /// Observed per-tier holdout accuracies, keyed by round, ascending.
    pub acc_history: Vec<(u64, Vec<f64>)>,
}

/// A serialisable snapshot of a training session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Rounds completed when the snapshot was taken.
    pub round: u64,
    /// Virtual time at the snapshot.
    pub time: f64,
    /// Global model parameters.
    pub global: ParamVec,
    /// State of the run's selector, when it has any (`None` for
    /// stateless selectors and for checkpoints written before this
    /// field existed).
    #[serde(default)]
    pub selector: Option<SelectorState>,
    /// Error-feedback residuals by client (empty under the lossless
    /// Identity codec and for checkpoints written before this field
    /// existed).
    #[serde(default)]
    pub residuals: BTreeMap<usize, Vec<f32>>,
}

impl Checkpoint {
    /// Serialise to JSON.
    ///
    /// # Panics
    /// Never — all fields are plain data.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("checkpoint is plain data")
    }

    /// Parse from JSON.
    ///
    /// # Errors
    /// Returns the underlying serde error on malformed input.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip() {
        let c = Checkpoint {
            round: 123,
            time: 456.75,
            global: ParamVec(vec![1.0, -2.5, 3.25]),
            selector: None,
            residuals: BTreeMap::from([(3, vec![0.125, -1.5e-7]), (10, vec![0.0, 2.0])]),
        };
        let back = Checkpoint::from_json(&c.to_json()).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn json_round_trip_with_selector_state() {
        let c = Checkpoint {
            round: 50,
            time: 10.5,
            global: ParamVec(vec![0.0]),
            selector: Some(SelectorState {
                probs: vec![0.25, 0.75],
                credits: vec![3, 0],
                current_tier: 1,
                acc_history: vec![(9, vec![0.5, 0.6]), (19, vec![0.7, 0.8])],
            }),
            residuals: BTreeMap::new(),
        };
        let back = Checkpoint::from_json(&c.to_json()).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn selector_field_defaults_for_old_checkpoints() {
        // A pre-selector-state checkpoint (no `selector` key) still
        // parses, whatever the shim's ParamVec encoding looks like.
        #[derive(serde::Serialize)]
        struct Old {
            round: u64,
            time: f64,
            global: ParamVec,
        }
        let json = serde_json::to_string(&Old {
            round: 1,
            time: 2.0,
            global: ParamVec(vec![1.0]),
        })
        .unwrap();
        let c = Checkpoint::from_json(&json).unwrap();
        assert_eq!(c.selector, None);
        assert!(c.residuals.is_empty());
        assert_eq!(c.round, 1);
        assert_eq!(c.global, ParamVec(vec![1.0]));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Checkpoint::from_json("{not json").is_err());
    }
}
