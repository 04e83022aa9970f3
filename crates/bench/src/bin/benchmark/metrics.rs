//! The metric catalogue and one workload's measured outcome.
//!
//! Every name here is declared in the repository's `BENCHMARK.json`; a unit
//! test keeps the two in step. Every workload reports every metric: a
//! per-layer metric of a layer the workload does not exercise reads 0.
//! Host times that some workload would report as 0 are given as shares of
//! the workload's own time instead (`*_pct`), so every reported time is a
//! measured, non-zero value.

use std::collections::BTreeMap;

use serde::Value;

use crate::stats::{median, quartiles};

/// End-to-end metrics: `(name, unit)`. All are measured with tracing off.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "ratio"),
    ("charged_mb", "MiB"),
];

/// `begin_phase` names whose host time is attributed per phase.
pub const PHASES: [&str; 11] = [
    "nmsort.sample",
    "nmsort.p1.ingest",
    "nmsort.p1.sort",
    "nmsort.p1.writeback",
    "nmsort.p1.bounds",
    "nmsort.p2.gather",
    "nmsort.p2.merge",
    "nmsort.p2.writeout",
    "baseline.run_sort",
    "baseline.merge",
    "spms.sort",
];

/// Per-layer metrics: `(name, unit)`, reported by a traced run. The phase
/// shares `core.phase.<phase>.pct` for every entry of [`PHASES`] follow
/// these (see [`per_layer`]).
const LAYERS: [(&str, &str); 60] = [
    ("workloads.generate_s", "s"),
    ("scratchpad.new_s", "s"),
    ("scratchpad.far_charges", "count"),
    ("scratchpad.near_charges", "count"),
    ("scratchpad.near_accesses", "lines"),
    ("scratchpad.leaks", "count"),
    ("scratchpad.arena.transfer_issued", "count"),
    ("scratchpad.arena.sync_transfer", "count"),
    ("scratchpad.arena.deferred_free", "count"),
    ("core.engine_s", "s"),
    ("core.ns_per_key", "ns"),
    ("core.phase_coverage", "ratio"),
    ("core.phase.other.pct", "%"),
    ("core.dma.growth_10m_100m", "ratio"),
    ("core.nmsort.chunks", "count"),
    ("core.nmsort.batches", "count"),
    ("core.nmsort.oversized_buckets", "count"),
    ("core.degradations", "count"),
    ("core.vs_sort_unstable", "ratio"),
    ("core.vs_radix_sort", "ratio"),
    ("kernels.radix_sort_pct", "%"),
    ("kernels.sort_unstable_pct", "%"),
    ("kernels.radix_sorts", "count"),
    ("kernels.losertree_comparisons", "count"),
    ("memsim.sim_s", "sim-s"),
    ("memsim.dram_accesses", "lines"),
    ("memsim.flow_pct", "%"),
    ("memsim.des_pct", "%"),
    ("memsim.des_requests", "count"),
    ("memsim.des_flow_gap", "ratio"),
    ("memsim.bound.far_bw_s", "sim-s"),
    ("memsim.bound.near_bw_s", "sim-s"),
    ("memsim.bound.compute_s", "sim-s"),
    ("memsim.bound.noc_s", "sim-s"),
    ("memsim.bound.core_issue_s", "sim-s"),
    ("memsim.bound.slot_wait_s", "sim-s"),
    ("memsim.bound.overhead_s", "sim-s"),
    ("memsim.overlapped_pairs", "count"),
    ("memsim.overlap_frac", "ratio"),
    ("memsim.advantage_8x", "ratio"),
    ("memsim.dram_ratio", "ratio"),
    ("memsim.advantage_err_vs_paper", "ratio"),
    ("model.estimate_s", "s"),
    ("model.est_error", "ratio"),
    ("service.jobs_per_s", "1/s"),
    ("service.overhead_frac", "ratio"),
    ("service.shed", "count"),
    ("service.timed_out", "count"),
    ("service.failed", "count"),
    ("service.preemptions", "count"),
    ("service.degraded_admissions", "count"),
    ("service.makespan_vu", "vu"),
    ("service.goodput_frac", "ratio"),
    ("service.tail_latency_vu", "vu"),
    ("service.max_load_x", "x"),
    ("telemetry.spans", "count"),
    ("telemetry.flight_events", "count"),
    ("telemetry.flight_dropped", "count"),
    ("telemetry.overhead_frac", "ratio"),
    ("telemetry.traced_wall_s", "s"),
];

/// Name of the per-phase share metric for `phase`.
pub fn phase_metric(phase: &str) -> String {
    format!("core.phase.{phase}.pct")
}

/// Every per-layer metric, `(name, unit)`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    LAYERS
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .chain(PHASES.iter().map(|p| (phase_metric(p), "%")))
        .collect()
}

/// Unit of a declared metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .or_else(|| {
            per_layer()
                .into_iter()
                .find(|(n, _)| n == name)
                .map(|(_, u)| u)
        })
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub workload: &'static str,
    /// Operations attempted: verified engine calls, or offered service jobs.
    pub attempted: u64,
    /// Attempted operations that failed verification, errored, leaked
    /// near bytes, or (service) were shed or timed out.
    pub failed: u64,
    /// Everything that made the run incorrect: failures and deterministic
    /// values that differed between repetitions.
    pub errors: Vec<String>,
    /// End-to-end samples by metric name.
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Per-layer values by metric name (traced runs only).
    pub layers: BTreeMap<String, f64>,
    /// Human-readable tables printed before the result line.
    pub report: String,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    /// The reported value of every metric this run must print: the median
    /// of each end-to-end metric's samples, or each per-layer value. Names
    /// a declared metric the workload failed to measure as an error.
    pub fn reported(&self, traced: bool) -> Result<Vec<(String, &'static str, f64)>, String> {
        let declared: Vec<(String, &'static str)> = if traced {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        declared
            .into_iter()
            .map(|(name, unit)| {
                let value = if traced {
                    self.layers.get(&name).copied()
                } else {
                    self.samples.get(&name).map(|s| median(s))
                };
                match value {
                    // `+ 0.0` turns an empty sum's -0.0 into 0.
                    Some(v) if v.is_finite() => Ok((name, unit, v + 0.0)),
                    Some(v) => Err(format!("{}: {name} is {v}", self.workload)),
                    None => Err(format!("{}: {name} was not measured", self.workload)),
                }
            })
            .collect()
    }

    /// The human summary lines: `<workload> <metric> <value> <unit>`, with
    /// quartiles and sample count for sampled metrics.
    pub fn summary_lines(&self, reported: &[(String, &'static str, f64)]) -> Vec<String> {
        reported
            .iter()
            .map(|(name, unit, v)| match self.samples.get(name) {
                Some(s) => {
                    let (q1, q3) = quartiles(s);
                    format!(
                        "{} {name} {v} {unit} (q1 {q1}, q3 {q3}, n={})",
                        self.workload,
                        s.len()
                    )
                }
                None => format!("{} {name} {v} {unit}", self.workload),
            })
            .collect()
    }

    /// The result line: `correct`, `attempted`, `failed` and the
    /// reported metrics with their units.
    pub fn result_json(&self, reported: &[(String, &'static str, f64)]) -> Value {
        Value::Map(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::U64(self.attempted)),
            ("failed".into(), Value::U64(self.failed)),
            ("metrics".into(), metric_map(reported)),
        ])
    }
}

/// `{name: {"value": v, "unit": u}}`.
pub fn metric_map(reported: &[(String, &'static str, f64)]) -> Value {
    Value::Map(
        reported
            .iter()
            .map(|(n, u, v)| {
                (
                    n.clone(),
                    Value::Map(vec![
                        ("value".into(), Value::F64(*v)),
                        ("unit".into(), Value::Str((*u).into())),
                    ]),
                )
            })
            .collect(),
    )
}
