//! How runs execute, independently of *what* they run: one loop and a
//! thread count.
//!
//! Every round (`WaitAll`, `FirstK`) in the workspace is executed by
//! one loop, [`tifl_fl::Session::run_rounds`]: plan the round, dispatch
//! its contributors to `tifl_fl`'s client executor, fold each update
//! the moment its canonical predecessor has (an ordered merge into a
//! [`tifl_fl::StreamingFold`]), commit, and defer the global-test
//! evaluation onto the executor so it overlaps the next round's
//! training. Training is a pure function of `(seed, client, round)` and
//! folds happen in plan order, so reports and final weights are
//! bit-for-bit the same for **any** thread count; on one thread the
//! executor runs every task inline.
//!
//! An [`ExecBackend`] is therefore just a thread count:
//! [`Lockstep`](ExecBackend::Lockstep) is the loop at the ambient rayon
//! parallelism, [`EventDriven`](ExecBackend::EventDriven) at an
//! explicit one.
//!
//! ```no_run
//! use tifl_core::experiment::ExperimentConfig;
//! use tifl_core::runner::Experiment;
//!
//! let cfg = ExperimentConfig::cifar10_resource_het(42);
//! // Identical report to the default backend — on four threads.
//! let report = cfg.runner().adaptive(None).event_driven(4).run();
//! println!("{}: {:.3}", report.policy, report.final_accuracy());
//! ```

use serde::{Deserialize, Serialize};
use tifl_fl::selector::ClientSelector;
use tifl_fl::{RoundReport, Session, TrainingReport};

/// How many threads a run's round loop uses. The backend never changes
/// a run's results — only its wall-clock speed; the two variants (and
/// their serialized forms, which live in `RunKey`s and stored
/// artifacts) differ only in where the thread count comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ExecBackend {
    /// The round loop at the ambient rayon parallelism: the machine
    /// default, or the width of an enclosing `ThreadPool::install` (how
    /// the sweep scheduler divides the host among its workers).
    #[default]
    Lockstep,
    /// The round loop at an explicit thread count.
    EventDriven {
        /// Threads training clients (0 = ambient, like
        /// [`Lockstep`](ExecBackend::Lockstep)).
        threads: usize,
    },
}

impl ExecBackend {
    /// The thread count this backend resolves to, here and now.
    #[must_use]
    pub fn threads(&self) -> usize {
        match *self {
            ExecBackend::Lockstep | ExecBackend::EventDriven { threads: 0 } => {
                rayon::current_num_threads()
            }
            ExecBackend::EventDriven { threads } => threads,
        }
    }

    /// Short display label (`lockstep` / `event(4)`).
    #[must_use]
    pub fn label(&self) -> String {
        match *self {
            ExecBackend::Lockstep => "lockstep".to_string(),
            ExecBackend::EventDriven { threads: 0 } => "event".to_string(),
            ExecBackend::EventDriven { threads } => format!("event({threads})"),
        }
    }
}

/// [`Session::run_rounds`] at a fixed thread count (0 = ambient). Kept
/// only because `crates/benchmark/src/bin/tifl-benchmark/fl.rs` names
/// it; everything else calls the session.
pub struct EventEngine(usize);

impl EventEngine {
    /// An engine on `threads` threads.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self(threads)
    }

    /// Run the session's remaining configured rounds.
    pub fn run(&self, session: &mut Session, selector: &mut dyn ClientSelector) -> TrainingReport {
        let remaining = session.config().rounds - session.rounds_done();
        let rounds = session.run_rounds(selector, remaining, self.0);
        let policy = selector.name();
        TrainingReport { policy, rounds }
    }

    /// Run `rounds` rounds.
    pub fn run_rounds(
        &self,
        session: &mut Session,
        selector: &mut dyn ClientSelector,
        rounds: u64,
    ) -> Vec<RoundReport> {
        session.run_rounds(selector, rounds, self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_backend_is_lockstep() {
        assert_eq!(ExecBackend::default(), ExecBackend::Lockstep);
    }

    #[test]
    fn backend_round_trips_through_json() {
        for backend in [
            ExecBackend::Lockstep,
            ExecBackend::EventDriven { threads: 0 },
            ExecBackend::EventDriven { threads: 4 },
        ] {
            let json = serde_json::to_string(&backend).expect("serializes");
            let back: ExecBackend = serde_json::from_str(&json).expect("parses");
            assert_eq!(back, backend);
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(ExecBackend::Lockstep.label(), "lockstep");
        assert_eq!(ExecBackend::EventDriven { threads: 4 }.label(), "event(4)");
        assert_eq!(ExecBackend::EventDriven { threads: 0 }.label(), "event");
    }

    #[test]
    fn explicit_thread_counts_pass_through() {
        assert_eq!(ExecBackend::EventDriven { threads: 3 }.threads(), 3);
        assert!(ExecBackend::Lockstep.threads() >= 1);
        assert!(ExecBackend::EventDriven { threads: 0 }.threads() >= 1);
    }
}
