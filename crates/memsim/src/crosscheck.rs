//! Cross-check: flight-recorder critical path vs. flow-engine labels.
//!
//! Two independent views of the same run exist after PR 6: the flow
//! engine replays the *phase trace* analytically and labels each phase
//! with a [`Bottleneck`], while the critical-path analyzer walks the
//! *flight trace* and attributes the makespan to per-edge categories.
//! They model different clocks (seconds under a [`crate::MachineConfig`]
//! vs. executor byte-units), so the check is categorical, not
//! quantitative: the flow engine's dominant bottleneck (by simulated
//! seconds) must be *compatible* with the critical path's dominant
//! attribution. A mismatch flags either a trace bug or a model drift —
//! exactly the validation loop the paper runs between its analysis and
//! SST measurements (§V-A).

use serde::{Deserialize, Serialize};
use tlmm_telemetry::critical::{CriticalPathReport, PathCategory};

use crate::stats::{Bottleneck, SimReport};

/// Outcome of one cross-check.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CrossCheck {
    /// Dominant critical-path category (its stable label).
    pub critical_dominant: String,
    /// Share of the critical path in that category.
    pub critical_share: f64,
    /// Flow-engine bottleneck dominating the simulated seconds.
    pub flow_dominant: String,
    /// Simulated seconds under that bottleneck.
    pub flow_seconds: f64,
    /// Are the two verdicts compatible (see [`compatible`])?
    pub agree: bool,
}

impl CrossCheck {
    /// One-line human summary.
    pub fn render(&self) -> String {
        format!(
            "critical-path says {} ({:.0}%), flow engine says {} ({:.3}s): {}",
            self.critical_dominant,
            100.0 * self.critical_share,
            self.flow_dominant,
            self.flow_seconds,
            if self.agree { "AGREE" } else { "MISMATCH" }
        )
    }
}

/// Is a critical-path attribution compatible with a flow bottleneck?
///
/// The mapping is deliberately loose where the models measure different
/// things: the NoC carries both channels' traffic, so a NoC-bound phase
/// is compatible with either bandwidth attribution; `CoreIssue` is the
/// flow engine's per-core serialization of *all* traffic, compatible
/// with any busy category; `Overhead` only fires on tiny phases and is
/// treated as compatible (the flight trace has no counterpart for it).
pub fn compatible(cat: PathCategory, b: Bottleneck) -> bool {
    match b {
        Bottleneck::FarBandwidth => cat == PathCategory::FarBandwidth,
        Bottleneck::NearBandwidth => cat == PathCategory::NearBandwidth,
        Bottleneck::SlotWait => cat == PathCategory::SlotWait,
        Bottleneck::Compute => matches!(cat, PathCategory::Compute | PathCategory::Idle),
        Bottleneck::Noc => matches!(
            cat,
            PathCategory::FarBandwidth | PathCategory::NearBandwidth
        ),
        Bottleneck::CoreIssue => cat != PathCategory::Idle,
        Bottleneck::Overhead => true,
    }
}

/// All bottleneck kinds the flow engine can label a phase with.
pub const ALL_BOTTLENECKS: [Bottleneck; 7] = [
    Bottleneck::FarBandwidth,
    Bottleneck::NearBandwidth,
    Bottleneck::Compute,
    Bottleneck::Noc,
    Bottleneck::CoreIssue,
    Bottleneck::SlotWait,
    Bottleneck::Overhead,
];

/// The subset of bottlenecks that charge *memory movement* — what a
/// virtual-domain flight trace can actually see (the executor clock
/// advances one unit per byte through a transfer slot; compute runs on
/// the algorithm's comparison model, off that clock).
pub const TRANSFER_BOTTLENECKS: [Bottleneck; 4] = [
    Bottleneck::FarBandwidth,
    Bottleneck::NearBandwidth,
    Bottleneck::Noc,
    Bottleneck::SlotWait,
];

/// Aggregate the flow report's per-phase seconds over `kinds` and return
/// the dominant `(bottleneck, seconds)` pair.
pub fn flow_dominant_among(sim: &SimReport, kinds: &[Bottleneck]) -> Option<(Bottleneck, f64)> {
    kinds
        .iter()
        .map(|&k| (k, sim.seconds_bound_by(k)))
        .filter(|&(_, s)| s > 0.0)
        .max_by(|a, b| a.1.total_cmp(&b.1))
}

/// Aggregate the flow report's per-phase seconds by bottleneck and
/// return the dominant `(bottleneck, seconds)` pair.
pub fn flow_dominant(sim: &SimReport) -> Option<(Bottleneck, f64)> {
    flow_dominant_among(sim, &ALL_BOTTLENECKS)
}

/// Cross-check a critical-path report against a flow-engine report of
/// the same run.
///
/// When the critical path attributes no time to compute (the norm for
/// virtual-domain traces — see [`TRANSFER_BOTTLENECKS`]), the comparison
/// is restricted to the flow engine's memory-movement labels so the two
/// models are judged on the ground they share; a compute-bound overall
/// verdict is a statement about machine rates the executor clock never
/// models, not a disagreement about the trace.
pub fn cross_check(cp: &CriticalPathReport, sim: &SimReport) -> CrossCheck {
    let transfer_only = cp.totals.compute == 0;
    let kinds: &[Bottleneck] = if transfer_only {
        &TRANSFER_BOTTLENECKS
    } else {
        &ALL_BOTTLENECKS
    };
    let (fb, fs) = flow_dominant_among(sim, kinds)
        .or_else(|| flow_dominant(sim))
        .unwrap_or((Bottleneck::Overhead, 0.0));
    let agree = compatible(cp.dominant, fb) || sim.phases.is_empty() || cp.makespan == 0;
    CrossCheck {
        critical_dominant: cp.dominant.label().to_string(),
        critical_share: cp.share(cp.dominant),
        flow_dominant: format!("{fb:?}"),
        flow_seconds: fs,
        agree,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::PhaseStat;
    use tlmm_telemetry::critical::CategoryTotals;
    use tlmm_telemetry::flight::ClockDomain;

    fn cp(dominant: PathCategory, units: u64) -> CriticalPathReport {
        let mut totals = CategoryTotals::default();
        match dominant {
            PathCategory::FarBandwidth => totals.far_bandwidth = units,
            PathCategory::SlotWait => totals.slot_wait = units,
            _ => totals.compute = units,
        }
        CriticalPathReport {
            domain: ClockDomain::Virtual,
            origin: 0,
            makespan: units,
            critical_worker: 0,
            transfers_on_path: 1,
            totals,
            dominant,
            segments: vec![],
        }
    }

    fn sim(b: Bottleneck) -> SimReport {
        SimReport {
            seconds: 1.0,
            phases: vec![PhaseStat {
                name: "p".into(),
                seconds: 1.0,
                bottleneck: b,
                far_bytes: 0,
                near_bytes: 0,
                compute_ops: 0,
            }],
            far_accesses: 0,
            near_accesses: 0,
            far_bytes: 0,
            near_bytes: 0,
            fault_events: 0,
            overlapped_pairs: 0,
            overlap_saved_seconds: 0.0,
            detail: None,
        }
    }

    #[test]
    fn matching_verdicts_agree() {
        let c = cross_check(
            &cp(PathCategory::FarBandwidth, 100),
            &sim(Bottleneck::FarBandwidth),
        );
        assert!(c.agree, "{}", c.render());
        let c = cross_check(&cp(PathCategory::SlotWait, 100), &sim(Bottleneck::SlotWait));
        assert!(c.agree);
    }

    #[test]
    fn noc_is_compatible_with_either_bandwidth() {
        assert!(compatible(PathCategory::FarBandwidth, Bottleneck::Noc));
        assert!(compatible(PathCategory::NearBandwidth, Bottleneck::Noc));
        assert!(!compatible(PathCategory::SlotWait, Bottleneck::Noc));
    }

    #[test]
    fn conflicting_verdicts_mismatch() {
        let c = cross_check(
            &cp(PathCategory::SlotWait, 100),
            &sim(Bottleneck::FarBandwidth),
        );
        assert!(!c.agree, "{}", c.render());
        assert!(c.render().contains("MISMATCH"));
    }
}
