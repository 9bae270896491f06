//! Communication modeling and update compression.
//!
//! The paper's central observation is that a client's response latency
//! is dominated by shipping model updates over heterogeneous links —
//! yet the prototype treats communication as a fixed scalar per client
//! and always transfers full-precision weights. This crate makes the
//! wire a first-class concern, in two halves:
//!
//! * **Network model** ([`link`]) — [`LinkModel`] describes per-client
//!   uplink/downlink bandwidth and RTT (the cluster's own scalars, or
//!   bandwidth tiers like the CPU-share groups in `tifl_sim`);
//!   materialised into a [`LinkAssignment`] it implements [`CommCost`],
//!   the byte-count → transfer-seconds conversion every latency path
//!   shares (round latency, straggler deadlines, tier profiling,
//!   hierarchical aggregation planes).
//! * **Update codecs** ([`codec`]) — [`CodecSpec`] names a compression
//!   scheme over `ParamVec` updates ([`CodecSpec::Identity`],
//!   [`CodecSpec::QuantizeI8`], [`CodecSpec::TopK`]); encoding yields an
//!   [`EncodedUpdate`] that knows its exact wire byte-count and can fold
//!   itself into a FedAvg accumulator without materialising a dense
//!   intermediate per client.
//!
//! A [`CommSpec`] bundles one codec with one link model (plus an
//! optional hierarchical aggregation plane) and rides on
//! `RunSpec`/`SessionConfig`, so any scenario in the evaluation matrix
//! can become bandwidth-aware and compressed declaratively.

pub mod codec;
pub mod feedback;
pub mod link;

pub use codec::{CodecSpec, EncodeScratch, EncodedUpdate};
pub use feedback::{encode_compensated, ErrorFeedback};
pub use link::{CommCost, LinkAssignment, LinkModel};

use serde::{Deserialize, Serialize};

/// A hierarchical aggregation plane (master/child aggregators): client
/// updates are absorbed by `ceil(|updates| / fan_out)` child
/// aggregators in parallel, whose dense partial aggregates the master
/// combines. Costs are in [`CommCost`] units — seconds per byte over
/// `plane_bps` (see `tifl_fl::hierarchy::AggregationTree::with_plane`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HierarchySpec {
    /// Maximum client updates handled per child aggregator.
    pub fan_out: usize,
    /// Bandwidth of the aggregation plane in bytes/s.
    pub plane_bps: f64,
}

/// The communication axis of a run: which codec shrinks the uplink and
/// which link model times the transfers.
///
/// The default (`Identity` over [`LinkModel::ClusterDefault`]) is
/// bit-for-bit the historical uncompressed behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CommSpec {
    /// Update codec applied to every client upload.
    #[serde(default)]
    pub codec: CodecSpec,
    /// Link model the transfer times come from.
    #[serde(default)]
    pub link: LinkModel,
    /// Optional master/child aggregation hierarchy; its combine cost is
    /// added to each synchronous round's latency.
    #[serde(default)]
    pub hierarchy: Option<HierarchySpec>,
}

impl CommSpec {
    /// A spec with the given codec over the legacy link model.
    #[must_use]
    pub fn with_codec(codec: CodecSpec) -> Self {
        Self {
            codec,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_the_legacy_shape() {
        let spec = CommSpec::default();
        assert_eq!(spec.codec, CodecSpec::Identity);
        assert_eq!(spec.link, LinkModel::ClusterDefault);
        assert_eq!(spec.hierarchy, None);
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = CommSpec {
            codec: CodecSpec::TopK { frac: 0.125 },
            link: LinkModel::GroupScaled {
                groups: 1,
                up_bps: 1.0e5,
                down_bps: 1.0e6,
                decay: 1.0,
                rtt_sec: 0.05,
            },
            hierarchy: Some(HierarchySpec {
                fan_out: 100,
                plane_bps: 2.0e8,
            }),
        };
        let json = serde_json::to_string(&spec).expect("serializes");
        let back: CommSpec = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, spec);
    }

    #[test]
    fn sparse_json_uses_defaults() {
        let spec: CommSpec = serde_json::from_str("{}").expect("empty spec parses");
        assert_eq!(spec, CommSpec::default());
        let spec: CommSpec =
            serde_json::from_str(r#"{"codec": "QuantizeI8"}"#).expect("partial spec parses");
        assert_eq!(spec.codec, CodecSpec::QuantizeI8);
        assert_eq!(spec.link, LinkModel::ClusterDefault);
    }
}
