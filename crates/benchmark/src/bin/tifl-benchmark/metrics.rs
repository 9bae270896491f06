//! Metric names and units — the same lists `BENCHMARK.json` fixes
//! (the `quick` integration test compares the two).

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// End-to-end metrics, printed by an untraced run of every workload:
/// five measured on the units `--seed` gives, four simulated ones from
/// the fixed-seed panel (`sim_s` is a simulated second).
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("uplink_bytes", "B"),
    ("virtual_time_s", "sim_s"),
    ("virtual_time_to_acc_s", "sim_s"),
    ("tiered_speedup_virtual", "ratio"),
    ("final_accuracy", "ratio"),
];

/// Per-layer metrics, printed by a traced run of every workload. A
/// layer a workload never enters reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tensor.matmul_gflops", "GFLOP/s"),
    ("tensor.axpy_gbps", "GB/s"),
    ("tensor.quantize_i8_ns_per_elem", "ns"),
    ("tensor.dequant_axpy_ns_per_elem", "ns"),
    ("tensor.topk_ns_per_elem", "ns"),
    ("tensor.stream_probe_gbps", "GB/s"),
    ("nn.train_batch_us", "us"),
    ("nn.forward_us", "us"),
    ("nn.backward_us", "us"),
    ("nn.evaluate_us_per_sample", "us"),
    ("nn.train_gflops", "GFLOP/s"),
    ("nn.model_build_us", "us"),
    ("data.build_s", "s"),
    ("data.samples_materialized", "count"),
    ("data.resident_mb", "MB"),
    ("sim.cluster_build_s", "s"),
    ("sim.response_ns", "ns"),
    ("sim.events_per_s", "1/s"),
    ("comm.encode_us_per_update", "us"),
    ("comm.decode_fold_us_per_update", "us"),
    ("comm.wire_bytes_per_update", "B"),
    ("comm.compression_ratio", "ratio"),
    ("fl.session_build_s", "s"),
    ("fl.plan_s", "s"),
    ("fl.train_s", "s"),
    ("fl.encode_s", "s"),
    ("fl.fold_s", "s"),
    ("fl.finish_s", "s"),
    ("fl.eval_s", "s"),
    ("fl.round_ms_p50", "ms"),
    ("fl.round_ms_p90", "ms"),
    ("fl.rounds", "count"),
    ("fl.samples_trained", "count"),
    ("fl.samples_evaluated", "count"),
    ("fl.updates_folded", "count"),
    ("fl.useful_update_ratio", "ratio"),
    ("fl.train_parallel_efficiency", "ratio"),
    ("core.profile_s", "s"),
    ("core.select_us_per_round", "us"),
    ("core.observe_us_per_round", "us"),
    ("core.estimate_us", "us"),
    ("core.engine_wall_s", "s"),
    ("core.engine_residual_s", "s"),
    ("core.phase_coverage", "ratio"),
    ("sweep.expand_s", "s"),
    ("sweep.run_s", "s"),
    ("sweep.runs_per_s", "1/s"),
    ("sweep.worker_utilisation", "ratio"),
    ("sweep.sched_overhead_s", "s"),
    ("sweep.profile_cache_hit_ratio", "ratio"),
    ("sweep.store_write_us_per_artifact", "us"),
    ("sweep.artifact_bytes", "B"),
    ("sweep.load_checked_us_per_artifact", "us"),
    ("sweep.resume_s", "s"),
    ("sweep.audit_s", "s"),
    ("sweep.pivot_s", "s"),
    ("obs.digest_us_per_round", "us"),
    ("obs.observed_overhead_ratio", "ratio"),
    ("obs.trace_overhead_ratio", "ratio"),
];

/// One reported number.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
}

/// The result line: the last line of standard output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, Metric>,
}

/// Named values being collected for one of the two lists above.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// Every metric of `list` with its unit; names never set read 0.
    ///
    /// # Panics
    /// Panics if a value was set under a name `list` does not have —
    /// a metric that would silently never be reported.
    pub fn into_metrics(self, list: &[(&str, &str)]) -> BTreeMap<String, Metric> {
        for name in self.0.keys() {
            assert!(
                list.iter().any(|(n, _)| n == name),
                "metric `{name}` is not in the reported list"
            );
        }
        list.iter()
            .map(|&(name, unit)| {
                let value = self.0.get(name).copied().unwrap_or(0.0);
                (
                    name.to_string(),
                    Metric {
                        value,
                        unit: unit.to_string(),
                    },
                )
            })
            .collect()
    }
}
