//! # TiFL — a Tier-based Federated Learning System
//!
//! A from-scratch Rust reproduction of *TiFL: A Tier-based Federated
//! Learning System* (Chai et al., HPDC 2020). This facade crate
//! re-exports the whole workspace so downstream users and the examples
//! depend on a single crate:
//!
//! * [`tensor`] — dense `f32` tensor primitives and deterministic RNG;
//! * [`nn`] — layers, losses, optimisers, sequential models;
//! * [`data`] — synthetic federated datasets and non-IID partitioners;
//! * [`sim`] — the discrete-event testbed simulator (virtual clock,
//!   CPU-share resource model, latency model);
//! * [`comm`] — the communication subsystem: per-client link models,
//!   transfer-cost accounting and update codecs (int8 quantization,
//!   top-k sparsification);
//! * [`fl`] — the FL substrate: clients, FedAvg aggregator, round engine;
//! * [`obs`] — observability: the report digest chain behind `tifl
//!   diff` / `tifl audit`, the Chrome trace-event vocabulary a run's
//!   virtual-time lane is written in (laid out from the round plans its
//!   report rebuilds, `Runner::virtual_trace`), and a host-time phase
//!   profiler behind a pluggable [`prelude::HostClock`];
//! * [`core`] — the paper's contribution: profiler, tiering, static and
//!   adaptive tier schedulers, training-time estimator, privacy
//!   accounting, and the composable `RunSpec`/`Runner` execution API;
//! * [`sweep`] — multi-run orchestration: declarative sweep manifests,
//!   a worker-pool scheduler that profiles each topology and builds
//!   each experiment's dataset once, a resumable keyed artifact store,
//!   store-backed pivot reporting (`tifl report`), store auditing
//!   (`tifl audit`), and verified shard-store merging (`tifl merge` /
//!   `tifl sweep --shard`).
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs` for a complete run; the short version:
//!
//! ```no_run
//! use tifl::prelude::*;
//!
//! let exp = ExperimentConfig::cifar10_resource_het(42);
//! let report = exp.runner().policy(&Policy::uniform(5)).run();
//! println!("final accuracy {:.3}", report.final_accuracy());
//! ```
//!
//! Runs compose: every cell of the paper's §5 evaluation matrix
//! (selection × aggregation × local objective × re-profiling cadence)
//! is one fluent chain — or one serializable [`prelude::RunSpec`]:
//!
//! ```no_run
//! use tifl::prelude::*;
//!
//! let exp = ExperimentConfig::cifar10_resource_het(42);
//! // FedProx under adaptive tiering with periodic re-profiling — a
//! // combination the legacy `run_*` methods could not express.
//! let report = exp
//!     .runner()
//!     .adaptive(None)
//!     .fedprox(0.01)
//!     .reprofile_every(50)
//!     .run();
//! println!("{}: {:.3}", report.policy, report.final_accuracy());
//! ```
//!
//! ## Static analysis
//!
//! The bit-for-bit invariants are guarded by stock rustc and clippy
//! lints, configured once in the root `Cargo.toml`'s `[workspace.lints]`
//! and `clippy.toml`: no `HashMap`/`HashSet`, no wall-clock reads, no
//! `unsafe`, no bare `unwrap`/`panic!` or prints in library code.

pub use tifl_comm as comm;
pub use tifl_core as core;
pub use tifl_data as data;
pub use tifl_fl as fl;
pub use tifl_nn as nn;
pub use tifl_obs as obs;
pub use tifl_sim as sim;
pub use tifl_sweep as sweep;
pub use tifl_tensor as tensor;

/// Convenience re-exports for examples and quick experiments.
pub mod prelude {
    pub use tifl_comm::{CodecSpec, CommSpec, EncodedUpdate, HierarchySpec, LinkModel};
    pub use tifl_core::baselines::DeadlineSelector;
    pub use tifl_core::exec::{EventEngine, ExecBackend};
    pub use tifl_core::experiment::{DataScenario, ExperimentConfig};
    pub use tifl_core::policy::Policy;
    pub use tifl_core::profiler::{Profiler, ProfilerConfig};
    pub use tifl_core::runner::{
        Experiment, LocalTraining, ObservedRun, RunRequest, RunSpec, Runner, SelectionStrategy,
    };
    pub use tifl_core::scheduler::{AdaptiveConfig, AdaptiveTierSelector, StaticTierSelector};
    pub use tifl_core::tiering::{TierAssignment, TieringConfig};
    pub use tifl_data::synth::{Generator, SynthFamily, SynthSpec};
    pub use tifl_data::{Dataset, FederatedDataset, LeafDataConfig};
    pub use tifl_fl::aggregator::{ClientUpdate, StreamingFold};
    pub use tifl_fl::checkpoint::{Checkpoint, SelectorState};
    pub use tifl_fl::client::{ClientConfig, DpNoiseConfig};
    pub use tifl_fl::report::{ReportSummary, RoundReport, TrainingReport};
    pub use tifl_fl::selector::{ClientSelector, RandomSelector};
    pub use tifl_fl::session::{
        AggregationMode, RoundPlan, Session, SessionConfig, SessionOverrides, TaskPricing,
    };
    pub use tifl_fl::timeline::chrome_round;
    pub use tifl_nn::models::ModelSpec;
    pub use tifl_obs::{
        host_chrome_trace, ChromeEvent, DiffReport, DiffSide, Digest128, DigestChain, Divergence,
        FieldDelta, FrozenClock, HostClock, HostProfiler, HostSpan, Phase, PhaseTotals, RealClock,
    };
    pub use tifl_sim::cluster::{Cluster, ClusterConfig};
    pub use tifl_sim::drift::DriftModel;
    pub use tifl_sim::latency::{LatencyModel, LatencyModelConfig};
    pub use tifl_sim::resource::LinkQuality;
    pub use tifl_sweep::{
        audit_store, merge_stores, shard_runs, AuditFinding, AuditReport, KeyedRun, MergeConflict,
        MergeReport, ProgressEvent, ProgressLog, RunArtifact, RunKey, RunOutcome, RunStore,
        StoreError, StoreErrorKind, SweepAxes, SweepBuilder, SweepManifest, SweepReport,
        SweepScheduler, SweepSummary, WorkerLane,
    };
}
