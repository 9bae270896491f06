//! Federated-learning substrate.
//!
//! Implements the vanilla cross-device FL process of the paper's §3.1
//! (Algorithm 1, FedAvg): a central [`aggregator`] holds the global
//! model; each round a [`selector`] picks `|C|` clients from the pool
//! `K`; every selected [`client`] trains locally on its own data and
//! returns updated weights; the aggregator averages them weighted by
//! local training-set size. The [`session`] round loop drives this
//! against the simulated testbed on the crate's client executor,
//! advancing the virtual clock by the round latency `max_i L_i` (Eq. 1)
//! and recording a [`report::RoundReport`] per round.
//!
//! TiFL itself (profiling, tiering, tier selection) lives in
//! `tifl-core` and plugs in through the [`selector::ClientSelector`]
//! trait — exactly the paper's claim that TiFL is non-intrusive and
//! "simply regulates client selection without intervening the
//! underlying training process" (§4.1).

pub mod aggregator;
pub mod checkpoint;
pub mod client;
pub(crate) mod exec;
pub mod report;
pub mod selector;
pub mod session;
pub mod timeline;

pub use aggregator::{aggregate_fedavg, ClientUpdate, StreamingFold};
pub use checkpoint::{Checkpoint, SelectorState};
pub use client::{ClientConfig, OptimizerSpec};
pub use report::{ReportSummary, RoundReport, TrainingReport};
pub use selector::{ClientSelector, RandomSelector};
pub use session::{RoundPlan, Session, SessionConfig};
