//! Declarative sweep manifests and their deterministic expansion.
//!
//! A [`SweepManifest`] names a base experiment and one list per
//! evaluation axis; [`SweepManifest::expand`] takes the cross product
//! in a fixed canonical order and emits one keyed
//! [`RunRequest`] per cell. The
//! [`RunKey`] is a stable content hash of the *fully resolved* request
//! (scalar overrides folded into the experiment), so the same cell
//! always lands on the same artifact file — the property the resumable
//! [`RunStore`](crate::store::RunStore) is built on.

use serde::{Deserialize, Serialize};
use tifl_comm::{CodecSpec, CommSpec, LinkModel};
use tifl_core::exec::ExecBackend;
use tifl_core::experiment::ExperimentConfig;
use tifl_core::runner::{LocalTraining, RunRequest, RunSpec, SelectionStrategy};
use tifl_fl::session::AggregationMode;
use tifl_obs::Digest128;

/// The stable identity of one run: a 128-bit content hash of the fully
/// resolved request (experiment with every scalar override applied,
/// plus the run spec). Two manifests that expand to the same cell
/// produce the same key, whatever order or axes they used — so sweep
/// artifacts are shareable and resumable across manifest edits.
///
/// Rendered (and serialized) as 32 lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RunKey(pub u128);

impl RunKey {
    /// The key of a request (resolves scalar overrides first).
    #[must_use]
    pub fn of(request: &RunRequest) -> Self {
        let resolved = (request.experiment(), request.spec.clone());
        RunKey(Digest128::of_value(&resolved).0)
    }

    /// Parse the 32-hex-digit rendering back into a key.
    #[must_use]
    pub fn parse(hex: &str) -> Option<Self> {
        if hex.len() != 32 {
            return None;
        }
        u128::from_str_radix(hex, 16).ok().map(RunKey)
    }
}

impl std::fmt::Display for RunKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl From<u128> for RunKey {
    fn from(v: u128) -> Self {
        RunKey(v)
    }
}

impl Serialize for RunKey {
    fn to_value(&self) -> serde::Value {
        serde::Value::String(self.to_string())
    }
}

impl Deserialize for RunKey {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v {
            serde::Value::String(s) => {
                RunKey::parse(s).ok_or_else(|| serde::Error::custom(format!("bad run key `{s}`")))
            }
            other => Err(serde::Error::expected("run key string", other)),
        }
    }
}

/// One list per evaluation axis; an empty list means "the base
/// experiment's value" (a single implicit cell on that axis).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SweepAxes {
    /// Pool sizes `|K|` (overrides `experiment.num_clients`).
    #[serde(default)]
    pub clients: Vec<usize>,
    /// Root seeds (overrides `experiment.seed`).
    #[serde(default)]
    pub seeds: Vec<u64>,
    /// Client-selection strategies.
    #[serde(default)]
    pub selection: Vec<SelectionStrategy>,
    /// Update-collection strategies (`None` inherits the experiment's).
    #[serde(default)]
    pub aggregation: Vec<Option<AggregationMode>>,
    /// Local-training variants.
    #[serde(default)]
    pub local: Vec<LocalTraining>,
    /// Update codecs (crossed with [`SweepAxes::link`] into the comm
    /// axis; both empty keeps the experiment's communication setup).
    #[serde(default)]
    pub codec: Vec<CodecSpec>,
    /// Link models (crossed with [`SweepAxes::codec`]).
    #[serde(default)]
    pub link: Vec<LinkModel>,
    /// Execution backends / thread counts (result-invariant).
    #[serde(default)]
    pub backend: Vec<ExecBackend>,
}

impl SweepAxes {
    /// The comm-axis cells this axes block implies: `None` (inherit)
    /// when neither codec nor link is swept, otherwise the codec × link
    /// cross product with the usual defaults filling the missing side.
    fn comm_cells(&self) -> Vec<Option<CommSpec>> {
        if self.codec.is_empty() && self.link.is_empty() {
            return vec![None];
        }
        let codecs = non_empty(&self.codec, CodecSpec::default());
        let links = non_empty(&self.link, LinkModel::default());
        let mut cells = Vec::with_capacity(codecs.len() * links.len());
        for &codec in &codecs {
            for &link in &links {
                cells.push(Some(CommSpec {
                    codec,
                    link,
                    hierarchy: None,
                }));
            }
        }
        cells
    }

    /// Number of cells the cross product yields (before key dedup).
    #[must_use]
    pub fn cells(&self) -> usize {
        let len = |n: usize| n.max(1);
        len(self.clients.len())
            * len(self.seeds.len())
            * len(self.selection.len())
            * len(self.aggregation.len())
            * len(self.local.len())
            * self.comm_cells().len()
            * len(self.backend.len())
    }
}

fn non_empty<T: Clone>(axis: &[T], default: T) -> Vec<T> {
    if axis.is_empty() {
        vec![default]
    } else {
        axis.to_vec()
    }
}

/// A declarative multi-run sweep: one base experiment plus per-axis
/// value lists, serializable as the `tifl sweep` input format.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepManifest {
    /// Sweep label, recorded in the store's summary.
    #[serde(default)]
    pub name: Option<String>,
    /// The base experiment every cell starts from.
    pub experiment: ExperimentConfig,
    /// Round-count override applied to every cell.
    #[serde(default)]
    pub rounds: Option<u64>,
    /// The axes to cross.
    #[serde(default)]
    pub axes: SweepAxes,
}

/// One expanded cell: its position in canonical order, its stable key,
/// and the self-contained request to execute.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyedRun {
    /// Position in the deduplicated canonical expansion.
    pub index: usize,
    /// Stable content key (artifact identity).
    pub key: RunKey,
    /// The run to execute.
    pub request: RunRequest,
}

impl SweepManifest {
    /// A manifest over `experiment` with no axes (a single cell).
    #[must_use]
    pub fn new(experiment: ExperimentConfig) -> Self {
        Self {
            name: None,
            experiment,
            rounds: None,
            axes: SweepAxes::default(),
        }
    }

    /// Expand the axes into keyed runs, in canonical order:
    /// clients ▸ seeds ▸ selection ▸ aggregation ▸ local ▸
    /// codec ▸ link ▸ backend, each axis iterated in manifest order
    /// (outer to inner). Cells whose fully-resolved request duplicates
    /// an earlier one (identical [`RunKey`]) are dropped — running the
    /// same cell twice would race on one artifact and waste the work.
    ///
    /// The order is a pure function of the manifest, so two expansions
    /// (today, after a restart, on another host) schedule and label the
    /// runs identically — the contract the resume path and the
    /// determinism tests pin.
    #[must_use]
    pub fn expand(&self) -> Vec<KeyedRun> {
        let clients = non_empty(&self.axes.clients, self.experiment.num_clients);
        let seeds: Vec<Option<u64>> = if self.axes.seeds.is_empty() {
            vec![None]
        } else {
            self.axes.seeds.iter().map(|&s| Some(s)).collect()
        };
        let selections = non_empty(&self.axes.selection, SelectionStrategy::default());
        let aggregations = non_empty(&self.axes.aggregation, None);
        let locals = non_empty(&self.axes.local, LocalTraining::default());
        let comms = self.axes.comm_cells();
        let backends = non_empty(&self.axes.backend, ExecBackend::default());

        let mut runs: Vec<KeyedRun> = Vec::with_capacity(self.axes.cells());
        let mut seen = std::collections::BTreeSet::new();
        for &num_clients in &clients {
            let mut experiment = self.experiment.clone();
            experiment.num_clients = num_clients;
            for &seed in &seeds {
                for selection in &selections {
                    for &aggregation in &aggregations {
                        for &local in &locals {
                            for &comm in &comms {
                                for &backend in &backends {
                                    let request = RunRequest {
                                        experiment: experiment.clone(),
                                        rounds: self.rounds,
                                        seed,
                                        clients_per_round: None,
                                        spec: RunSpec {
                                            selection: selection.clone(),
                                            aggregation,
                                            local,
                                            reprofile_every: None,
                                            label: None,
                                            backend,
                                            comm,
                                        },
                                    };
                                    let key = RunKey::of(&request);
                                    if seen.insert(key) {
                                        runs.push(KeyedRun {
                                            index: runs.len(),
                                            key,
                                            request,
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        runs
    }
}

/// Shard `runs` for cross-host splitting: slice `index` of `count`
/// keeps every run whose canonical position is `index` modulo `count`.
/// The slices are disjoint, cover the expansion, and are stable —
/// every host expanding the same manifest computes the same partition,
/// so disjoint shard stores merge (`tifl merge`) into exactly the
/// unsharded sweep's store. Runs keep their canonical `index`, so
/// artifacts and progress events are host-independent.
///
/// # Panics
/// Panics when `count` is 0 or `index >= count` (a malformed
/// `--shard i/n` should fail loudly, not silently run nothing).
#[must_use]
pub fn shard_runs(runs: &[KeyedRun], index: usize, count: usize) -> Vec<KeyedRun> {
    assert!(count > 0, "shard count must be positive");
    assert!(
        index < count,
        "shard index {index} out of range for {count} shards"
    );
    runs.iter()
        .filter(|r| r.index % count == index)
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tifl_core::policy::Policy;

    fn base() -> ExperimentConfig {
        ExperimentConfig::tiny(60)
    }

    #[test]
    fn run_key_of_a_fixed_request_is_pinned() {
        // The hex every existing store names its artifacts by: captured
        // before `RunKey` moved onto `Digest128`, it must never move.
        let request = RunRequest {
            experiment: ExperimentConfig::tiny(70),
            rounds: Some(6),
            seed: Some(9),
            clients_per_round: None,
            spec: RunSpec {
                selection: SelectionStrategy::Adaptive { config: None },
                backend: ExecBackend::EventDriven { threads: 2 },
                comm: Some(CommSpec::with_codec(CodecSpec::QuantizeI8)),
                ..RunSpec::default()
            },
        };
        assert_eq!(
            RunKey::of(&request).to_string(),
            "d556250a2293426225a62b5de5bfaec7"
        );
        let profile = crate::scheduler::profile_key(&request.experiment(), request.spec.comm);
        assert_eq!(
            format!("{profile:032x}"),
            "6e440d1b1476dd0737d41fac828c691a"
        );
    }

    #[test]
    fn empty_axes_expand_to_one_default_cell() {
        let manifest = SweepManifest::new(base());
        let runs = manifest.expand();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].index, 0);
        assert_eq!(runs[0].request.spec, RunSpec::default());
        assert_eq!(runs[0].request.seed, None);
        assert_eq!(runs[0].request.experiment, base());
    }

    #[test]
    fn expansion_order_is_canonical() {
        let mut manifest = SweepManifest::new(base());
        manifest.axes.seeds = vec![1, 2];
        manifest.axes.selection = vec![
            SelectionStrategy::Vanilla,
            SelectionStrategy::TierPolicy {
                policy: Policy::uniform(5),
            },
        ];
        manifest.axes.backend = vec![
            ExecBackend::Lockstep,
            ExecBackend::EventDriven { threads: 2 },
        ];
        let runs = manifest.expand();
        assert_eq!(runs.len(), 8);
        // seeds outermost, then selection, backend innermost.
        let labels: Vec<(Option<u64>, String, ExecBackend)> = runs
            .iter()
            .map(|r| {
                (
                    r.request.seed,
                    r.request.spec.display_label(),
                    r.request.spec.backend,
                )
            })
            .collect();
        assert_eq!(labels[0].0, Some(1));
        assert_eq!(labels[3].0, Some(1));
        assert_eq!(labels[4].0, Some(2));
        assert_eq!(labels[0].1, "vanilla");
        assert_eq!(labels[2].1, "uniform");
        assert_eq!(labels[0].2, ExecBackend::Lockstep);
        assert_eq!(labels[1].2, ExecBackend::EventDriven { threads: 2 });
        // Expansion is a pure function of the manifest.
        assert_eq!(runs, manifest.expand());
    }

    #[test]
    fn clients_axis_overrides_the_pool_size() {
        let mut manifest = SweepManifest::new(base());
        manifest.axes.clients = vec![10, 20];
        let runs = manifest.expand();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].request.experiment.num_clients, 10);
        assert_eq!(runs[1].request.experiment.num_clients, 20);
        assert_ne!(runs[0].key, runs[1].key);
    }

    #[test]
    fn comm_axes_cross_and_default_each_other() {
        let mut manifest = SweepManifest::new(base());
        manifest.axes.codec = vec![CodecSpec::Identity, CodecSpec::QuantizeI8];
        let runs = manifest.expand();
        assert_eq!(runs.len(), 2);
        assert_eq!(
            runs[0].request.spec.comm,
            Some(CommSpec::default()),
            "missing link axis defaults to ClusterDefault"
        );
        assert_eq!(
            runs[1].request.spec.comm.map(|c| c.codec),
            Some(CodecSpec::QuantizeI8)
        );
        // No comm axes at all: inherit (comm = None).
        let plain = SweepManifest::new(base());
        assert_eq!(plain.expand()[0].request.spec.comm, None);
    }

    #[test]
    fn duplicate_cells_are_deduplicated_by_key() {
        let mut manifest = SweepManifest::new(base());
        manifest.axes.seeds = vec![7, 7, 8];
        let runs = manifest.expand();
        assert_eq!(runs.len(), 2, "duplicate seed collapses to one cell");
        assert_eq!(runs.iter().map(|r| r.index).collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn keys_resolve_scalar_overrides() {
        // A seed override and the same seed baked into the experiment
        // are the same run, so they get the same key.
        let via_override = RunRequest {
            experiment: ExperimentConfig::tiny(1),
            rounds: None,
            seed: Some(9),
            clients_per_round: None,
            spec: RunSpec::default(),
        };
        let baked = RunRequest {
            experiment: ExperimentConfig::tiny(9),
            rounds: None,
            seed: None,
            clients_per_round: None,
            spec: RunSpec::default(),
        };
        assert_eq!(RunKey::of(&via_override), RunKey::of(&baked));
        assert_ne!(
            RunKey::of(&via_override),
            RunKey::of(&via_override).0.wrapping_add(1).into()
        );
    }

    #[test]
    fn keys_render_and_parse_as_hex() {
        let key = RunKey(0x0123_4567_89ab_cdef_0f0f_0f0f_0f0f_0f0f);
        let hex = key.to_string();
        assert_eq!(hex.len(), 32);
        assert_eq!(RunKey::parse(&hex), Some(key));
        assert_eq!(RunKey::parse("xyz"), None);
        let json = serde_json::to_string(&key).expect("serializes");
        let back: RunKey = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, key);
    }

    #[test]
    fn manifest_round_trips_through_json() {
        let mut manifest = SweepManifest::new(base());
        manifest.name = Some("demo".into());
        manifest.rounds = Some(6);
        manifest.axes.seeds = vec![1, 2];
        manifest.axes.selection = vec![SelectionStrategy::Adaptive { config: None }];
        manifest.axes.aggregation = vec![None, Some(AggregationMode::FirstK { factor: 1.5 })];
        let json = serde_json::to_string_pretty(&manifest).expect("serializes");
        let back: SweepManifest = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, manifest);
        // Sparse manifests parse with defaulted axes.
        let sparse: SweepManifest = serde_json::from_str(&format!(
            "{{\"experiment\": {}}}",
            serde_json::to_string(&base()).unwrap()
        ))
        .expect("sparse manifest parses");
        assert_eq!(sparse.axes, SweepAxes::default());
        assert_eq!(sparse.expand().len(), 1);
    }

    #[test]
    fn shards_partition_the_expansion() {
        let mut manifest = SweepManifest::new(base());
        manifest.axes.seeds = vec![1, 2, 3];
        manifest.axes.selection = vec![
            SelectionStrategy::Vanilla,
            SelectionStrategy::Adaptive { config: None },
        ];
        let runs = manifest.expand();
        assert!(runs.len() >= 5, "want a non-trivial expansion");
        for count in 1..=4 {
            let shards: Vec<Vec<KeyedRun>> =
                (0..count).map(|i| shard_runs(&runs, i, count)).collect();
            // Disjoint and covering: concatenating the shards in
            // index order reproduces the expansion exactly.
            let mut merged: Vec<KeyedRun> = shards.into_iter().flatten().collect();
            merged.sort_by_key(|r| r.index);
            assert_eq!(merged, runs, "count={count}");
        }
        // Canonical indices survive sharding (artifact identity is
        // host-independent).
        let shard = shard_runs(&runs, 1, 2);
        assert!(shard.iter().all(|r| r.index % 2 == 1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn shard_index_out_of_range_panics() {
        let _ = shard_runs(&[], 2, 2);
    }
}
