//! Simulation outputs: the quantities Table I reports.

use serde::{Deserialize, Serialize};
use tlmm_scratchpad::PhaseTrace;

/// Which resource bounded a phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Bottleneck {
    /// Far-memory (DRAM) channel bandwidth.
    FarBandwidth,
    /// Near-memory (scratchpad) channel bandwidth.
    NearBandwidth,
    /// Core compute throughput.
    Compute,
    /// On-chip network links.
    Noc,
    /// A single core's issue bandwidth (under-parallelized phase).
    CoreIssue,
    /// Transfer-slot arbitration: a core's issue path was dominated by
    /// waiting for one of the executor's `p′` transfer slots (Theorem 10
    /// contention recorded as `slot_wait_units` in the trace).
    SlotWait,
    /// The fixed phase overhead dominated (tiny phase).
    Overhead,
}

/// Per-phase simulation outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseStat {
    /// Phase name from the trace.
    pub name: String,
    /// Simulated duration in seconds (after any overlap was applied this is
    /// the *visible* duration added to the total).
    pub seconds: f64,
    /// The binding resource.
    pub bottleneck: Bottleneck,
    /// Bytes moved against far memory.
    pub far_bytes: u64,
    /// Bytes moved against near memory.
    pub near_bytes: u64,
    /// RAM-model operations executed.
    pub compute_ops: u64,
}

/// Extra measurements only the discrete-event engine produces.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DesDetail {
    /// Fraction of far-memory requests that hit an open row.
    pub far_row_hit_rate: f64,
    /// Fraction of near-memory requests that hit an open row.
    pub near_row_hit_rate: f64,
    /// Far data-bus busy time over (wall time × channels).
    pub far_bus_utilization: f64,
    /// Near data-bus busy time over (wall time × channels).
    pub near_bus_utilization: f64,
    /// Bytes that crossed the on-chip network.
    pub noc_bytes: u64,
    /// Line requests served by both memory sides.
    pub served_requests: u64,
}

/// Whole-run simulation outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Simulated wall-clock seconds.
    pub seconds: f64,
    /// Per-phase breakdown.
    pub phases: Vec<PhaseStat>,
    /// Far-memory accesses at cache-line granularity (Table I "DRAM
    /// Accesses").
    pub far_accesses: u64,
    /// Near-memory accesses at cache-line granularity (Table I "Scratchpad
    /// Accesses").
    pub near_accesses: u64,
    /// Total far bytes moved.
    pub far_bytes: u64,
    /// Total near bytes moved.
    pub near_bytes: u64,
    /// Injected faults recorded in the replayed trace (failures + delays).
    /// Non-zero means this is a *degraded* run: its traffic includes
    /// retried/retransmitted transfers charged by the fault layer.
    pub fault_events: u64,
    /// Overlappable phase pairs the engine actually overlapped (the DMA
    /// double-buffer pairs of a pipelined trace).
    pub overlapped_pairs: u64,
    /// Seconds saved by overlap versus running every phase serially:
    /// `Σ (t_p + t_q − t_pair)` over overlapped pairs. Zero on traces with
    /// no overlappable phases.
    pub overlap_saved_seconds: f64,
    /// Discrete-event-only measurements (`None` for the analytic engine).
    pub detail: Option<DesDetail>,
}

impl SimReport {
    /// Fraction of the serialized (no-overlap) makespan hidden by
    /// transfer/compute overlap: `saved / (seconds + saved)`.
    pub fn overlap_fraction(&self) -> f64 {
        let serialized = self.seconds + self.overlap_saved_seconds;
        if serialized <= 0.0 {
            0.0
        } else {
            self.overlap_saved_seconds / serialized
        }
    }
}

impl SimReport {
    /// Seconds attributable to phases bound by `b`.
    pub fn seconds_bound_by(&self, b: Bottleneck) -> f64 {
        self.phases
            .iter()
            .filter(|p| p.bottleneck == b)
            .map(|p| p.seconds)
            .sum()
    }

    /// Names of phases (deduplicated, in order of first appearance) with
    /// their aggregate seconds — convenient for printed breakdowns.
    pub fn phase_summary(&self) -> Vec<(String, f64)> {
        let mut order: Vec<String> = Vec::new();
        let mut acc: std::collections::HashMap<String, f64> = std::collections::HashMap::new();
        for p in &self.phases {
            if !acc.contains_key(&p.name) {
                order.push(p.name.clone());
            }
            *acc.entry(p.name.clone()).or_insert(0.0) += p.seconds;
        }
        order
            .into_iter()
            .map(|n| {
                let s = acc[&n];
                (n, s)
            })
            .collect()
    }
}

/// Emit one `phase_sim` telemetry event for a replayed phase: which engine
/// simulated it, its simulated seconds, the binding bottleneck, and the
/// byte/op volumes. No-op unless the JSONL sink is enabled.
pub(crate) fn emit_phase_sim(engine: &str, stat: &PhaseStat) {
    if !tlmm_telemetry::sink::enabled() {
        return;
    }
    use serde::{Serialize, Value};
    let mut fields = match stat.to_value() {
        Value::Map(fields) => fields,
        other => vec![("payload".to_string(), other)],
    };
    fields.insert(0, ("engine".to_string(), Value::Str(engine.to_string())));
    tlmm_telemetry::sink::emit("phase_sim", fields);
}

/// Count line-granular accesses for a trace (bytes / line, rounded up per
/// phase-lane so partial lines count as a full access, matching what a
/// line-based memory controller serves).
pub fn line_accesses(trace: &PhaseTrace, line_bytes: u64) -> (u64, u64) {
    let mut far = 0u64;
    let mut near = 0u64;
    for p in &trace.phases {
        for l in &p.lanes {
            far += tlmm_model::ceil_div(l.far_read_bytes, line_bytes)
                + tlmm_model::ceil_div(l.far_write_bytes, line_bytes);
            near += tlmm_model::ceil_div(l.near_read_bytes, line_bytes)
                + tlmm_model::ceil_div(l.near_write_bytes, line_bytes);
        }
    }
    (far, near)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlmm_scratchpad::{LaneWork, PhaseRecord};

    #[test]
    fn line_accesses_round_up_per_lane() {
        let trace = PhaseTrace {
            phases: vec![PhaseRecord {
                name: "x".into(),
                lanes: vec![
                    LaneWork {
                        far_read_bytes: 65,
                        near_write_bytes: 64,
                        ..Default::default()
                    },
                    LaneWork {
                        far_write_bytes: 1,
                        ..Default::default()
                    },
                ],
                overlappable: false,
                faults: 0,
            }],
        };
        let (far, near) = line_accesses(&trace, 64);
        assert_eq!(far, 2 + 1);
        assert_eq!(near, 1);
    }

    #[test]
    fn report_aggregations() {
        let r = SimReport {
            seconds: 3.0,
            phases: vec![
                PhaseStat {
                    name: "a".into(),
                    seconds: 1.0,
                    bottleneck: Bottleneck::FarBandwidth,
                    far_bytes: 10,
                    near_bytes: 0,
                    compute_ops: 0,
                },
                PhaseStat {
                    name: "b".into(),
                    seconds: 2.0,
                    bottleneck: Bottleneck::Compute,
                    far_bytes: 0,
                    near_bytes: 5,
                    compute_ops: 100,
                },
                PhaseStat {
                    name: "a".into(),
                    seconds: 0.5,
                    bottleneck: Bottleneck::FarBandwidth,
                    far_bytes: 10,
                    near_bytes: 0,
                    compute_ops: 0,
                },
            ],
            far_accesses: 0,
            near_accesses: 0,
            far_bytes: 20,
            near_bytes: 5,
            fault_events: 0,
            overlapped_pairs: 0,
            overlap_saved_seconds: 0.0,
            detail: None,
        };
        assert_eq!(r.seconds_bound_by(Bottleneck::FarBandwidth), 1.5);
        let sum = r.phase_summary();
        assert_eq!(sum[0], ("a".to_string(), 1.5));
        assert_eq!(sum[1], ("b".to_string(), 2.0));
    }
}
