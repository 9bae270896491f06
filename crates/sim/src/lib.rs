//! Deterministic discrete-event testbed simulator.
//!
//! The paper's evaluation runs on a 50-client CPU cluster (clients pinned
//! to 4/2/1/0.5/0.1... CPUs) and a distributed LEAF deployment. This
//! crate replaces that hardware with a simulation that preserves what the
//! experiments measure: each simulated device has a CPU share, a network
//! bandwidth and a jitter stream, and a [`latency::LatencyModel`] maps
//! (model FLOPs, sample count, update bytes) to a response latency
//! `L_i`. A training round's latency is `max_i L_i` over the selected
//! clients (Eq. 1) — computed on the [`clock::VirtualClock`], so 500
//! simulated rounds take milliseconds of wall time.
//!
//! The event queue in [`event`] is a general discrete-event core. No
//! round loop uses it any more (rounds are planned in closed form); its
//! last caller is `tifl-benchmark`'s `sim.events_per_s` probe — see the
//! README's feature ledger.

pub mod clock;
pub mod cluster;
pub mod drift;
pub mod dropout;
pub mod event;
pub mod latency;
pub mod resource;

pub use clock::VirtualClock;
pub use cluster::{Cluster, ClusterConfig, GroupSpec};
pub use drift::DriftModel;
pub use latency::{LatencyModel, LatencyModelConfig};
pub use resource::LinkQuality;
