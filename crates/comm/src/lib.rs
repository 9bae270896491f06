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
//!   bandwidth tiers like the CPU-share groups in `tifl_sim`),
//!   materialised into one `tifl_sim::LinkQuality` per device; every
//!   latency path (round latency, straggler deadlines, tier profiling,
//!   the [`hierarchy`]'s aggregation plane) prices bytes in the
//!   transfer seconds of [`link::transfer_secs`].
//! * **Update codecs** ([`codec`]) — [`CodecSpec`] names a compression
//!   scheme over `ParamVec` updates ([`CodecSpec::Identity`],
//!   [`CodecSpec::QuantizeI8`], [`CodecSpec::TopK`]). The one encoder,
//!   [`encode_compensated`], yields an [`EncodedUpdate`] that knows its
//!   exact wire byte-count and can fold itself into a FedAvg
//!   accumulator without materialising a dense intermediate per client.
//!
//! A [`CommSpec`] bundles one codec with one link model (plus an
//! optional [`HierarchySpec`]) and rides on `RunSpec`/`SessionConfig`,
//! so any scenario in the evaluation matrix can become bandwidth-aware
//! and compressed declaratively.

pub mod codec;
pub mod feedback;
pub mod hierarchy;
pub mod link;

pub use codec::{CodecSpec, EncodeScratch, EncodedUpdate};
pub use feedback::{encode_compensated, ErrorFeedback};
pub use hierarchy::HierarchySpec;
pub use link::LinkModel;

use serde::{Deserialize, Serialize};

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

    /// Whether a run can take every value of this spec: a top-k
    /// fraction in (0, 1]; a hierarchy's positive fan-out and plane
    /// bandwidth; a `GroupScaled` link's positive group count and
    /// bandwidths, decay in (0, 1] and non-negative RTT. NaN is out of
    /// every range. The `tifl` CLI asks when it loads a document.
    ///
    /// # Errors
    /// Names the first field out of range, with its value.
    pub fn check(&self) -> Result<(), String> {
        let fail = |field: &str, value: f64, want: &str| {
            Err(format!("comm.{field} {value} is not {want}"))
        };
        let positive = |field: &str, v: f64| match v > 0.0 {
            true => Ok(()),
            false => fail(field, v, "positive"),
        };
        let unit = |field: &str, v: f64| match v > 0.0 && v <= 1.0 {
            true => Ok(()),
            false => fail(field, v, "in (0, 1]"),
        };
        if let CodecSpec::TopK { frac } = self.codec {
            unit("codec.TopK.frac", frac)?;
        }
        if let Some(h) = self.hierarchy {
            positive("hierarchy.fan_out", h.fan_out as f64)?;
            positive("hierarchy.plane_bps", h.plane_bps)?;
        }
        if let LinkModel::GroupScaled {
            groups,
            up_bps,
            down_bps,
            decay,
            rtt_sec,
        } = self.link
        {
            positive("link.GroupScaled.groups", groups as f64)?;
            positive("link.GroupScaled.up_bps", up_bps)?;
            positive("link.GroupScaled.down_bps", down_bps)?;
            unit("link.GroupScaled.decay", decay)?;
            if rtt_sec.is_nan() || rtt_sec < 0.0 {
                return fail("link.GroupScaled.rtt_sec", rtt_sec, "at least 0");
            }
        }
        Ok(())
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

    #[test]
    fn check_names_the_first_value_a_run_would_panic_on() {
        assert_eq!(CommSpec::default().check(), Ok(()));
        let link = |decay: f64, rtt_sec: f64| LinkModel::GroupScaled {
            groups: 2,
            up_bps: 1.0e6,
            down_bps: 1.0e6,
            decay,
            rtt_sec,
        };
        let hierarchy = |fan_out, plane_bps| Some(HierarchySpec { fan_out, plane_bps });
        for (spec, want) in [
            (
                CommSpec::with_codec(CodecSpec::TopK { frac: f64::NAN }),
                "comm.codec.TopK.frac NaN is not in (0, 1]",
            ),
            (
                CommSpec {
                    hierarchy: hierarchy(4, 0.0),
                    ..CommSpec::default()
                },
                "comm.hierarchy.plane_bps 0 is not positive",
            ),
            (
                CommSpec {
                    link: link(0.5, -1.0),
                    ..CommSpec::default()
                },
                "comm.link.GroupScaled.rtt_sec -1 is not at least 0",
            ),
        ] {
            assert_eq!(spec.check(), Err(want.to_string()), "{spec:?}");
        }
        let fine = CommSpec {
            codec: CodecSpec::TopK { frac: 1.0 },
            link: link(1.0, 0.0),
            hierarchy: hierarchy(1, 1.0),
        };
        assert_eq!(fine.check(), Ok(()));
    }
}
