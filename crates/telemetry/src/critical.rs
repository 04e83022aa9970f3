//! Critical-path reconstruction over a [`FlightTrace`].
//!
//! The makespan of a deterministic-executor run is the final virtual
//! clock of its slowest worker, and that worker's timeline *tiles* the
//! run exactly: in virtual time each of its transfers issues at the
//! previous one's retire (`worker_clock` only advances through
//! transfers), so walking its transfer chain backward from the last
//! retire decomposes `[0, makespan]` into disjoint segments —
//! slot-occupancy time (split `far_bandwidth` / `near_bandwidth`),
//! `slot_wait` time (grant − issue), and, in wall
//! mode, inter-transfer gaps attributed to `compute`.
//!
//! Each wait segment is annotated with the transfer that *held the
//! slot* until the grant (`blocked_by`), recovered from the per-slot
//! grant/retire timeline — that is the causal cross-worker edge of the
//! transfer DAG, answering "which chain made this run slow".
//!
//! The decomposition is exact by construction: segment durations sum
//! to the analyzed makespan, which for a virtual-domain trace equals
//! the executor's `makespan_units` (checked in the bench-crate
//! integration tests).

use serde::{Deserialize, Serialize};

use crate::flight::{ClockDomain, FlightTrace, TransferRec, FLAG_FAR, NO_SLOT};

/// What a critical-path segment's time was spent on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PathCategory {
    /// Occupying a slot with a far (DRAM) channel crossing.
    FarBandwidth,
    /// Occupying a slot with a near (scratchpad) crossing.
    NearBandwidth,
    /// Stalled waiting for a transfer slot (`p > p′` contention).
    SlotWait,
    /// No transfer in flight — host compute (wall mode) or pre-first
    /// -transfer lead-in.
    Compute,
    /// Trace carried no transfers at all.
    Idle,
}

impl PathCategory {
    /// Stable lowercase label (matches the attribution vocabulary in
    /// the issue tracker and DESIGN.md).
    pub fn label(&self) -> &'static str {
        match self {
            PathCategory::FarBandwidth => "far_bandwidth",
            PathCategory::NearBandwidth => "near_bandwidth",
            PathCategory::SlotWait => "slot_wait",
            PathCategory::Compute => "compute",
            PathCategory::Idle => "idle",
        }
    }
}

/// One segment of the critical worker's timeline, `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PathSegment {
    /// Segment start (trace clock domain).
    pub start: u64,
    /// Segment end.
    pub end: u64,
    /// Attribution.
    pub category: PathCategory,
    /// Transfer id this segment belongs to (0 = none).
    pub transfer: u64,
    /// For `slot_wait`: the transfer that held the slot (0 = unknown).
    pub blocked_by: u64,
}

/// Per-category totals, in trace clock units.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CategoryTotals {
    /// Far-channel slot occupancy.
    pub far_bandwidth: u64,
    /// Near-channel slot occupancy.
    pub near_bandwidth: u64,
    /// Slot-wait stalls.
    pub slot_wait: u64,
    /// Unmetered gaps (host compute / lead-in).
    pub compute: u64,
    /// Transfer-free trace.
    pub idle: u64,
}

impl CategoryTotals {
    fn add(&mut self, cat: PathCategory, units: u64) {
        match cat {
            PathCategory::FarBandwidth => self.far_bandwidth += units,
            PathCategory::NearBandwidth => self.near_bandwidth += units,
            PathCategory::SlotWait => self.slot_wait += units,
            PathCategory::Compute => self.compute += units,
            PathCategory::Idle => self.idle += units,
        }
    }

    /// `(category, units)` rows, descending units.
    pub fn ranked(&self) -> Vec<(PathCategory, u64)> {
        let mut rows = vec![
            (PathCategory::FarBandwidth, self.far_bandwidth),
            (PathCategory::NearBandwidth, self.near_bandwidth),
            (PathCategory::SlotWait, self.slot_wait),
            (PathCategory::Compute, self.compute),
            (PathCategory::Idle, self.idle),
        ];
        rows.sort_by_key(|r| std::cmp::Reverse(r.1));
        rows
    }
}

/// The analyzer's output: an exact decomposition of the makespan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CriticalPathReport {
    /// Clock domain of all times below.
    pub domain: ClockDomain,
    /// Earliest event timestamp (0 in virtual mode).
    pub origin: u64,
    /// Critical-path length: last retire − origin. Equals the
    /// executor's `makespan_units` for virtual-domain traces.
    pub makespan: u64,
    /// Worker whose timeline is the critical path.
    pub critical_worker: u32,
    /// Transfers on the path.
    pub transfers_on_path: u64,
    /// Per-category totals (sum = `makespan`).
    pub totals: CategoryTotals,
    /// Dominant category.
    pub dominant: PathCategory,
    /// The path, ascending time, tiling `[origin, origin+makespan)`.
    pub segments: Vec<PathSegment>,
}

impl CriticalPathReport {
    /// Fraction of the path spent in `cat` (0 for an empty path).
    pub fn share(&self, cat: PathCategory) -> f64 {
        if self.makespan == 0 {
            return 0.0;
        }
        let units = match cat {
            PathCategory::FarBandwidth => self.totals.far_bandwidth,
            PathCategory::NearBandwidth => self.totals.near_bandwidth,
            PathCategory::SlotWait => self.totals.slot_wait,
            PathCategory::Compute => self.totals.compute,
            PathCategory::Idle => self.totals.idle,
        };
        units as f64 / self.makespan as f64
    }

    /// Render the per-category summary as an aligned text table.
    pub fn summary_table(&self) -> String {
        let unit = match self.domain {
            ClockDomain::Virtual => "units",
            ClockDomain::Wall => "ns",
        };
        let mut out = String::new();
        out.push_str(&format!(
            "critical path: {} {} on worker {} ({} transfers)\n",
            self.makespan, unit, self.critical_worker, self.transfers_on_path
        ));
        out.push_str(&format!("{:<16} {:>14} {:>8}\n", "category", unit, "share"));
        for (cat, units) in self.totals.ranked() {
            if units == 0 {
                continue;
            }
            out.push_str(&format!(
                "{:<16} {:>14} {:>7.1}%\n",
                cat.label(),
                units,
                100.0 * self.share(cat)
            ));
        }
        out
    }
}

fn occupancy_category(t: &TransferRec) -> PathCategory {
    if t.flags & FLAG_FAR != 0 {
        PathCategory::FarBandwidth
    } else {
        PathCategory::NearBandwidth
    }
}

/// Reconstruct the critical path of `trace`. See module docs.
pub fn critical_path(trace: &FlightTrace) -> CriticalPathReport {
    let transfers = trace.transfers();
    let workers = trace.workers.max(1);
    let origin = match trace.domain {
        ClockDomain::Virtual => 0,
        ClockDomain::Wall => trace
            .lanes
            .iter()
            .flat_map(|l| l.events.iter().map(|e| e.ts))
            .min()
            .unwrap_or(0),
    };

    let Some(last) = transfers.iter().max_by_key(|t| (t.retire, t.id)) else {
        // No transfers: a single idle segment spanning the event range.
        let end = trace
            .lanes
            .iter()
            .flat_map(|l| l.events.iter().map(|e| e.ts))
            .max()
            .unwrap_or(origin);
        let makespan = end - origin;
        let mut totals = CategoryTotals::default();
        totals.add(PathCategory::Idle, makespan);
        return CriticalPathReport {
            domain: trace.domain,
            origin,
            makespan,
            critical_worker: 0,
            transfers_on_path: 0,
            totals,
            dominant: PathCategory::Idle,
            segments: vec![PathSegment {
                start: origin,
                end,
                category: PathCategory::Idle,
                transfer: 0,
                blocked_by: 0,
            }],
        };
    };

    let critical_worker = last.lane % workers;
    // The critical worker's own transfers, ascending issue time.
    let mut chain: Vec<&TransferRec> = transfers
        .iter()
        .filter(|t| t.lane % workers == critical_worker)
        .collect();
    chain.sort_by_key(|t| (t.issue, t.id));

    // Per-slot timeline for blocked_by recovery: the transfer whose
    // retire equals a wait's grant is the one that held the slot.
    let mut slot_retires: Vec<(u32, u64, u64)> = transfers
        .iter()
        .filter(|t| t.slot != NO_SLOT)
        .map(|t| (t.slot, t.retire, t.id))
        .collect();
    slot_retires.sort_unstable();
    let blocker = |slot: u32, grant: u64, own_id: u64| -> u64 {
        slot_retires
            .iter()
            .filter(|&&(s, r, id)| s == slot && r == grant && id != own_id)
            .map(|&(_, _, id)| id)
            .next_back()
            .unwrap_or(0)
    };

    let mut segments: Vec<PathSegment> = Vec::with_capacity(chain.len() * 2 + 1);
    let mut totals = CategoryTotals::default();
    let push = |segments: &mut Vec<PathSegment>,
                totals: &mut CategoryTotals,
                start: u64,
                end: u64,
                category: PathCategory,
                transfer: u64,
                blocked_by: u64| {
        if end > start {
            totals.add(category, end - start);
            segments.push(PathSegment {
                start,
                end,
                category,
                transfer,
                blocked_by,
            });
        }
    };

    let mut prev_retire = origin;
    for t in &chain {
        // Gap since the worker's previous transfer: unmetered host work
        // (zero in virtual mode, where the chain is contiguous).
        push(
            &mut segments,
            &mut totals,
            prev_retire,
            t.issue,
            PathCategory::Compute,
            0,
            0,
        );
        let blocked_by = if t.grant > t.issue && t.slot != NO_SLOT {
            blocker(t.slot, t.grant, t.id)
        } else {
            0
        };
        push(
            &mut segments,
            &mut totals,
            t.issue,
            t.grant,
            PathCategory::SlotWait,
            t.id,
            blocked_by,
        );
        push(
            &mut segments,
            &mut totals,
            t.grant,
            t.retire,
            occupancy_category(t),
            t.id,
            0,
        );
        prev_retire = prev_retire.max(t.retire);
    }

    let makespan = last.retire - origin;
    let dominant = totals.ranked()[0].0;
    CriticalPathReport {
        domain: trace.domain,
        origin,
        makespan,
        critical_worker,
        transfers_on_path: chain.len() as u64,
        totals,
        dominant,
        segments,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::{
        install, transfer_event, uninstall, FlightConfig, TransferTiming, FLAG_FAR,
    };

    fn record(events: impl FnOnce()) -> FlightTrace {
        let _g = crate::flight::test_guard();
        let _ = install(FlightConfig::virtual_time(2, 1, 0));
        events();
        uninstall().expect("installed")
    }

    #[test]
    fn contended_pair_splits_path_between_bandwidth_and_wait() {
        // Two workers, one slot: w1 waits out w0's whole transfer.
        let trace = record(|| {
            crate::with_lane(0, || {
                transfer_event(
                    100,
                    FLAG_FAR,
                    Some(TransferTiming {
                        slot: 0,
                        issue: 0,
                        grant: 0,
                        retire: 100,
                    }),
                );
            });
            crate::with_lane(1, || {
                transfer_event(
                    100,
                    FLAG_FAR,
                    Some(TransferTiming {
                        slot: 0,
                        issue: 0,
                        grant: 100,
                        retire: 200,
                    }),
                );
            });
        });
        let report = critical_path(&trace);
        assert_eq!(report.makespan, 200);
        assert_eq!(report.critical_worker, 1);
        assert_eq!(report.totals.slot_wait, 100);
        assert_eq!(report.totals.far_bandwidth, 100);
        assert!((report.share(PathCategory::SlotWait) - 0.5).abs() < 1e-9);
        // The wait is causally pinned on worker 0's transfer (id 1).
        let wait = report
            .segments
            .iter()
            .find(|s| s.category == PathCategory::SlotWait)
            .expect("wait segment");
        assert_eq!(wait.blocked_by, 1);
    }

    #[test]
    fn segments_tile_the_makespan_exactly() {
        let trace = record(|| {
            for (lane, (issue, grant, retire)) in
                [(0, (0, 0, 50)), (1, (0, 50, 150)), (0, (50, 150, 400))].into_iter()
            {
                crate::with_lane(lane, || {
                    transfer_event(
                        retire - grant,
                        FLAG_FAR,
                        Some(TransferTiming {
                            slot: 0,
                            issue,
                            grant,
                            retire,
                        }),
                    );
                });
            }
        });
        let report = critical_path(&trace);
        let sum: u64 = report.segments.iter().map(|s| s.end - s.start).sum();
        assert_eq!(sum, report.makespan);
        // Segments are contiguous and ascending.
        for w in report.segments.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        let table = report.summary_table();
        assert!(table.contains("slot_wait"));
    }

    #[test]
    fn empty_trace_reports_idle() {
        let trace = record(|| {});
        let report = critical_path(&trace);
        assert_eq!(report.makespan, 0);
        assert_eq!(report.dominant, PathCategory::Idle);
        assert_eq!(report.transfers_on_path, 0);
    }
}
