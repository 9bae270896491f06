//! TiFL core: the paper's contribution.
//!
//! * [`profiler`] — the lightweight latency profiler of §4.2
//!   (`sync_rounds` profiling rounds, `Tmax` timeout, dropout exclusion);
//! * [`tiering`] — grouping clients into `m` tiers by profiled latency;
//! * [`policy`] — the static selection-probability policies of Table 1;
//! * [`scheduler`] — the static straw-man selector (§4.3) and the
//!   adaptive credit-based selector of Algorithm 2 (§4.4);
//! * [`estimator`] — the training-time estimation model of Eq. 6 and the
//!   MAPE metric of Table 2;
//! * [`analysis`] — the straggler-selection probability analysis of
//!   §3.2 (Eqs. 2–5), closed form plus Monte-Carlo check;
//! * [`privacy`] — the differential-privacy amplification accounting of
//!   §4.6;
//! * [`experiment`] — ready-made experiment configurations reproducing
//!   the setups of §5.1, used by the examples and the per-figure bench
//!   binaries;
//! * [`runner`] — the composable run API: a serializable [`RunSpec`]
//!   describing one cell of the §5 evaluation matrix, and the
//!   [`Runner`] that executes it through the one canonical
//!   profile → tier → select → train pipeline (with a profiling cache);
//! * [`exec`] — how runs execute: [`exec::ExecBackend`], the thread
//!   count the one round loop in `tifl_fl` runs on (never changes a
//!   result).

pub mod analysis;
pub mod baselines;
pub mod estimator;
pub mod exec;
pub mod experiment;
pub mod policy;
pub mod privacy;
pub mod profiler;
pub mod runner;
pub mod scheduler;
pub mod tiering;

pub use exec::{EventEngine, ExecBackend};
pub use policy::Policy;
pub use profiler::{Profiler, ProfilerConfig};
pub use runner::{
    Experiment, LocalTraining, ObservedRun, RunRequest, RunSpec, Runner, SelectionStrategy,
};
pub use scheduler::{AdaptiveConfig, AdaptiveTierSelector, StaticTierSelector};
pub use tiering::{TierAssignment, TieringConfig};
