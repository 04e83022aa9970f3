//! Discrete-event replay of a phase trace (the high-fidelity path).
//!
//! Each phase is simulated at memory-request granularity: every core (lanes
//! fold onto cores round-robin) turns its byte volumes into a stream of
//! line-sized requests with synthetic streaming addresses, issues them with
//! bounded memory-level parallelism, pays NoC link occupancy and latency,
//! and the channel/bank model of [`crate::dram`] serves them in arrival
//! order. A core's compute time is spread evenly between its requests as
//! issue gaps. Phase duration = latest completion; phases run back-to-back
//! with a barrier (overlappable phases merge with their successor like in
//! the analytic model).
//!
//! The barrier drains the machine: each phase starts with idle buses and
//! links, closed rows and empty directory controllers, and only additive
//! integer statistics (accesses, row hits, busy time, NoC bytes) outlive
//! it. Phases are therefore independent, and [`simulate_des`] replays
//! them in parallel on the host worker pool before combining them in
//! trace order.
//!
//! The analytic [`crate::flow`] replay is validated against this engine in
//! the integration tests (they agree within tens of percent — the gap is
//! queueing effects the analytic model ignores).

use crate::config::MachineConfig;
use crate::dram::{ps, MemorySide, PS};
use crate::noc::Noc;
use crate::stats::{line_accesses, Bottleneck, DesDetail, PhaseStat, SimReport};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use tlmm_scratchpad::{pool, PhaseRecord, PhaseTrace};

/// DES tuning.
#[derive(Debug, Clone)]
pub struct DesOptions {
    /// Bytes per simulated request (coarsening factor; 64 = one line per
    /// request, larger values trade fidelity for speed).
    pub req_bytes: u64,
    /// Maximum outstanding requests per core (memory-level parallelism).
    pub mlp: u32,
}

impl Default for DesOptions {
    fn default() -> Self {
        Self {
            req_bytes: 64,
            mlp: 4,
        }
    }
}

#[derive(Debug)]
struct CoreState {
    far_left: u64,
    near_left: u64,
    far_total: u64,
    near_total: u64,
    /// Issue gap between requests (ps), from spreading compute time.
    gap_ps: u64,
    /// Completion times of in-flight requests.
    inflight: Vec<u64>,
    /// Earliest time the next request may issue.
    next_issue: u64,
    /// Synthetic stream addresses.
    far_addr: u64,
    near_addr: u64,
    /// Pure-compute remainder (cores with ops but no traffic).
    compute_end: u64,
}

/// Directory controller: bounds the outstanding requests one memory side
/// tracks (Fig. 7: "16K DC Entries"). The k-th request may enter service
/// only after the (k − entries)-th completed.
#[derive(Debug)]
struct DirectoryController {
    entries: usize,
    inflight: VecDeque<u64>,
}

impl DirectoryController {
    fn new(entries: u32) -> Self {
        Self {
            entries: entries.max(1) as usize,
            inflight: VecDeque::new(),
        }
    }

    /// Gate an arrival; returns the time the request may enter service.
    fn admit(&mut self, arrive: u64) -> u64 {
        if self.inflight.len() >= self.entries {
            let oldest = self.inflight.pop_front().unwrap_or(0);
            arrive.max(oldest)
        } else {
            arrive
        }
    }

    fn record_completion(&mut self, done: u64) {
        self.inflight.push_back(done);
    }
}

/// Additive statistics of one memory side.
#[derive(Debug, Clone, Copy, Default)]
struct SideStats {
    accesses: u64,
    row_hits: u64,
    busy_ps: u64,
}

impl SideStats {
    fn of(side: &MemorySide) -> Self {
        Self {
            accesses: side.accesses(),
            row_hits: side.row_hits(),
            busy_ps: side.busy_ps(),
        }
    }

    fn add(&mut self, o: Self) {
        self.accesses += o.accesses;
        self.row_hits += o.row_hits;
        self.busy_ps += o.busy_ps;
    }

    /// Row-buffer hit fraction (0 when idle).
    fn row_hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.row_hits as f64 / self.accesses as f64
        }
    }
}

/// One phase's replay: its duration and the statistics it left behind.
#[derive(Debug)]
struct PhaseRun {
    ps: u64,
    far: SideStats,
    near: SideStats,
    noc_bytes: u64,
}

/// Simulate one phase on a fresh machine (idle buses and links, closed
/// rows, empty directory controllers), as the barrier before it leaves it.
fn simulate_phase(p: &PhaseRecord, m: &MachineConfig, opt: &DesOptions) -> PhaseRun {
    let mut far = MemorySide::new(&m.far, m.line_bytes);
    let mut near = MemorySide::new(&m.near, m.line_bytes);
    let mut noc = Noc::new(m);
    let mut far_dc = DirectoryController::new(m.far.dc_entries);
    let mut near_dc = DirectoryController::new(m.near.dc_entries);
    let cores = (m.cores.max(1) as usize).min(p.lanes.len().max(1));
    let req = opt.req_bytes.max(m.line_bytes);
    let core_rate = m.core_rate(); // ops per second

    // Fold lanes onto cores.
    let mut states: Vec<CoreState> = (0..cores)
        .map(|c| CoreState {
            far_left: 0,
            near_left: 0,
            far_total: 0,
            near_total: 0,
            gap_ps: 0,
            inflight: Vec::new(),
            next_issue: 0,
            // Disjoint per-core streaming regions, far and near separate.
            far_addr: (c as u64) << 32,
            near_addr: (c as u64) << 32,
            compute_end: 0,
        })
        .collect();
    let mut core_ops = vec![0u64; cores];
    for (i, l) in p.lanes.iter().enumerate() {
        let c = i % cores;
        states[c].far_total += l.far_bytes();
        states[c].near_total += l.near_bytes();
        core_ops[c] += l.compute_ops;
    }
    for (c, s) in states.iter_mut().enumerate() {
        s.far_left = s.far_total;
        s.near_left = s.near_total;
        let reqs = (s.far_total + s.near_total).div_ceil(req);
        let compute_ps = ps(core_ops[c] as f64 / core_rate);
        match compute_ps.checked_div(reqs) {
            Some(gap) => s.gap_ps = gap,
            None => s.compute_end = compute_ps,
        }
    }

    let groups = m.groups() as usize;

    // Event queue of (issue_time, core).
    let mut q: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    for (c, s) in states.iter().enumerate() {
        if s.far_left + s.near_left > 0 {
            q.push(Reverse((s.gap_ps, c)));
        }
    }

    let mut phase_end = states.iter().map(|s| s.compute_end).max().unwrap_or(0);
    while let Some(Reverse((t, c))) = q.pop() {
        let group = c % groups;
        let s = &mut states[c];
        if s.far_left + s.near_left == 0 {
            continue;
        }
        // MLP gate: wait for the oldest in-flight request if saturated.
        if s.inflight.len() >= opt.mlp.max(1) as usize {
            let oldest = *s.inflight.iter().min().unwrap();
            if t < oldest {
                q.push(Reverse((oldest, c)));
                continue;
            }
            let idx = s
                .inflight
                .iter()
                .position(|&x| x == oldest)
                .expect("oldest in-flight present");
            s.inflight.swap_remove(idx);
        }
        // Pick the side with the larger remaining fraction so both streams
        // finish together (interleaved issue).
        let pick_far = if s.near_total == 0 {
            true
        } else if s.far_total == 0 {
            false
        } else {
            s.far_left * s.near_total >= s.near_left * s.far_total
        };
        let (bytes, addr) = if pick_far {
            let b = s.far_left.min(req);
            s.far_left -= b;
            let a = s.far_addr;
            s.far_addr += b;
            (b, a)
        } else {
            let b = s.near_left.min(req);
            s.near_left -= b;
            let a = s.near_addr;
            s.near_addr += b;
            (b, a)
        };

        // Traverse the group's NoC link (occupancy + latency)...
        let arrive = noc.traverse(group, t, bytes);
        // ...pass the directory controller's entry limit...
        let (side, dc) = if pick_far {
            (&mut far, &mut far_dc)
        } else {
            (&mut near, &mut near_dc)
        };
        let admitted = dc.admit(arrive);
        // ...then the memory side serves each line of the request.
        let done = side.service_lines(admitted, addr, bytes.div_ceil(m.line_bytes));
        let done = done + noc.response_latency();
        dc.record_completion(done);
        phase_end = phase_end.max(done);
        s.inflight.push(done);

        if s.far_left + s.near_left > 0 {
            s.next_issue = t + s.gap_ps;
            q.push(Reverse((s.next_issue, c)));
        }
    }
    PhaseRun {
        ps: phase_end + ps(m.phase_overhead_s),
        far: SideStats::of(&far),
        near: SideStats::of(&near),
        noc_bytes: noc.total_bytes(),
    }
}

/// Replay `trace` through the discrete-event engine on machine `m`.
///
/// Phases replay in parallel on the host worker pool (inline when called
/// from a pool worker); their durations and statistics are then combined
/// in trace order on the caller's thread. Every statistic is an integer
/// sum, so the report is bit-identical to a serial replay.
pub fn simulate_des(trace: &PhaseTrace, m: &MachineConfig, opt: &DesOptions) -> SimReport {
    let runs = pool::map_indexed(
        pool::host_threads(),
        trace.phases.iter().collect(),
        |_, p| simulate_phase(p, m, opt),
    );
    let mut phases: Vec<PhaseStat> = Vec::with_capacity(trace.phases.len());
    let mut total_ps = 0u64;
    let mut overlapped_pairs = 0u64;
    let mut overlap_saved_ps = 0u64;
    let mut i = 0usize;
    while i < trace.phases.len() {
        let p = &trace.phases[i];
        let t = runs[i].ps;
        let tot = p.total();
        let visible = if p.overlappable && i + 1 < trace.phases.len() {
            let q = &trace.phases[i + 1];
            let tq = runs[i + 1].ps;
            let qtot = q.total();
            let pair = t.max(tq);
            overlapped_pairs += 1;
            overlap_saved_ps += t + tq - pair;
            phases.push(PhaseStat {
                name: p.name.clone(),
                seconds: if t >= tq { pair as f64 / PS } else { 0.0 },
                bottleneck: Bottleneck::FarBandwidth,
                far_bytes: tot.far_bytes(),
                near_bytes: tot.near_bytes(),
                compute_ops: tot.compute_ops,
            });
            phases.push(PhaseStat {
                name: q.name.clone(),
                seconds: if tq > t { pair as f64 / PS } else { 0.0 },
                bottleneck: Bottleneck::Compute,
                far_bytes: qtot.far_bytes(),
                near_bytes: qtot.near_bytes(),
                compute_ops: qtot.compute_ops,
            });
            i += 2;
            pair
        } else {
            phases.push(PhaseStat {
                name: p.name.clone(),
                seconds: t as f64 / PS,
                bottleneck: Bottleneck::FarBandwidth,
                far_bytes: tot.far_bytes(),
                near_bytes: tot.near_bytes(),
                compute_ops: tot.compute_ops,
            });
            i += 1;
            t
        };
        total_ps += visible;
    }
    let (mut far, mut near, mut noc_bytes) = (SideStats::default(), SideStats::default(), 0);
    for r in &runs {
        far.add(r.far);
        near.add(r.near);
        noc_bytes += r.noc_bytes;
    }
    tlmm_telemetry::counter!("memsim.des.phases").add(phases.len() as u64);
    tlmm_telemetry::counter!("memsim.des.far_row_hits").add(far.row_hits);
    tlmm_telemetry::counter!("memsim.des.far_row_misses").add(far.accesses - far.row_hits);
    tlmm_telemetry::counter!("memsim.des.near_row_hits").add(near.row_hits);
    tlmm_telemetry::counter!("memsim.des.near_row_misses").add(near.accesses - near.row_hits);
    for stat in &phases {
        crate::stats::emit_phase_sim("des", stat);
    }
    let (far_accesses, near_accesses) = line_accesses(trace, m.line_bytes);
    let t_total = trace.total();
    let total_s = (total_ps as f64 / PS).max(f64::MIN_POSITIVE);
    let detail = DesDetail {
        far_row_hit_rate: far.row_hit_rate(),
        near_row_hit_rate: near.row_hit_rate(),
        far_bus_utilization: (far.busy_ps as f64 / PS) / (total_s * m.far.channels.max(1) as f64),
        near_bus_utilization: (near.busy_ps as f64 / PS)
            / (total_s * m.near.channels.max(1) as f64),
        noc_bytes,
        served_requests: far.accesses + near.accesses,
    };
    SimReport {
        seconds: total_ps as f64 / PS,
        phases,
        far_accesses,
        near_accesses,
        far_bytes: t_total.far_bytes(),
        near_bytes: t_total.near_bytes(),
        fault_events: trace.faults(),
        overlapped_pairs,
        overlap_saved_seconds: overlap_saved_ps as f64 / PS,
        detail: Some(detail),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::simulate_flow;
    use tlmm_scratchpad::LaneWork;

    fn phase(name: &str, lanes: Vec<LaneWork>, overlappable: bool) -> PhaseRecord {
        PhaseRecord {
            name: name.into(),
            lanes,
            overlappable,
            faults: 0,
        }
    }

    fn wide_lanes(far: u64, near: u64, ops: u64, n: usize) -> Vec<LaneWork> {
        vec![
            LaneWork {
                far_read_bytes: far,
                near_read_bytes: near,
                compute_ops: ops,
                ..Default::default()
            };
            n
        ]
    }

    #[test]
    fn bandwidth_bound_phase_agrees_with_flow() {
        let m = MachineConfig::fig4(256, 4.0);
        let trace = PhaseTrace {
            phases: vec![phase("scan", wide_lanes(1 << 20, 0, 0, 256), false)],
        };
        let des = simulate_des(&trace, &m, &DesOptions::default());
        let flow = simulate_flow(&trace, &m);
        let ratio = des.seconds / flow.seconds;
        assert!(
            ratio > 0.7 && ratio < 1.4,
            "des {} flow {} ratio {ratio}",
            des.seconds,
            flow.seconds
        );
    }

    #[test]
    fn near_traffic_scales_with_rho() {
        let run = |rho| {
            let m = MachineConfig::fig4(256, rho);
            let trace = PhaseTrace {
                phases: vec![phase("near", wide_lanes(0, 4 << 20, 0, 256), false)],
            };
            simulate_des(&trace, &m, &DesOptions::default()).seconds
        };
        let t2 = run(2.0);
        let t8 = run(8.0);
        let ratio = t2 / t8;
        assert!(ratio > 2.5 && ratio < 5.0, "ratio {ratio}");
    }

    #[test]
    fn compute_bound_phase_duration() {
        let m = MachineConfig::fig4(256, 4.0);
        let ops = 1_000_000_000u64;
        let trace = PhaseTrace {
            phases: vec![phase("crunch", wide_lanes(64, 0, ops, 256), false)],
        };
        let r = simulate_des(&trace, &m, &DesOptions::default());
        let expect = ops as f64 / m.core_rate();
        assert!(
            (r.seconds / expect) > 0.9 && (r.seconds / expect) < 1.3,
            "sim {} expect {}",
            r.seconds,
            expect
        );
    }

    #[test]
    fn pure_compute_phase_without_traffic() {
        let m = MachineConfig::fig4(16, 4.0);
        let trace = PhaseTrace {
            phases: vec![phase("think", wide_lanes(0, 0, 1_700_000, 16), false)],
        };
        let r = simulate_des(&trace, &m, &DesOptions::default());
        let expect = 1_700_000.0 / m.core_rate();
        assert!((r.seconds - expect).abs() / expect < 0.1 + m.phase_overhead_s / expect);
    }

    #[test]
    fn phases_are_sequential() {
        let m = MachineConfig::fig4(64, 4.0);
        let one = PhaseTrace {
            phases: vec![phase("a", wide_lanes(1 << 20, 0, 0, 64), false)],
        };
        let two = PhaseTrace {
            phases: vec![
                phase("a", wide_lanes(1 << 20, 0, 0, 64), false),
                phase("b", wide_lanes(1 << 20, 0, 0, 64), false),
            ],
        };
        let t1 = simulate_des(&one, &m, &DesOptions::default()).seconds;
        let t2 = simulate_des(&two, &m, &DesOptions::default()).seconds;
        assert!(t2 > 1.8 * t1, "t1={t1} t2={t2}");
    }

    #[test]
    fn overlappable_pair_shorter_than_sum() {
        let m = MachineConfig::fig4(256, 4.0);
        let mk = |overlap| PhaseTrace {
            phases: vec![
                phase("dma", wide_lanes(2 << 20, 0, 0, 256), overlap),
                phase("work", wide_lanes(0, 0, 40_000_000, 256), false),
            ],
        };
        let with = simulate_des(&mk(true), &m, &DesOptions::default()).seconds;
        let without = simulate_des(&mk(false), &m, &DesOptions::default()).seconds;
        assert!(with < without, "with={with} without={without}");
    }

    #[test]
    fn coarser_requests_are_close_to_fine() {
        let m = MachineConfig::fig4(64, 4.0);
        let trace = PhaseTrace {
            phases: vec![phase("scan", wide_lanes(1 << 20, 0, 0, 64), false)],
        };
        let fine = simulate_des(
            &trace,
            &m,
            &DesOptions {
                req_bytes: 64,
                mlp: 4,
            },
        )
        .seconds;
        let coarse = simulate_des(
            &trace,
            &m,
            &DesOptions {
                req_bytes: 1024,
                mlp: 4,
            },
        )
        .seconds;
        let ratio = fine / coarse;
        assert!(ratio > 0.6 && ratio < 1.6, "fine={fine} coarse={coarse}");
    }

    #[test]
    fn detail_reports_row_hits_and_utilization() {
        // A single streaming core keeps rows open (many cores thrash the
        // banks and drive the hit rate toward zero — also observable here).
        let m = MachineConfig::fig4(64, 4.0);
        let one = PhaseTrace {
            phases: vec![phase("scan", wide_lanes(1 << 20, 1 << 20, 0, 1), false)],
        };
        let r = simulate_des(&one, &m, &DesOptions::default());
        let d = r.detail.expect("DES must attach detail");
        assert!(d.far_row_hit_rate > 0.8, "far hits {}", d.far_row_hit_rate);
        assert!(d.far_bus_utilization <= 1.01);
        assert_eq!(d.noc_bytes, 2 * (1 << 20));
        assert_eq!(d.served_requests, 2 * (1 << 20) / 64);

        let many = PhaseTrace {
            phases: vec![phase("scan", wide_lanes(1 << 16, 0, 0, 64), false)],
        };
        let dm = simulate_des(&many, &m, &DesOptions::default())
            .detail
            .unwrap();
        assert!(
            dm.far_row_hit_rate < d.far_row_hit_rate,
            "interleaved streams must thrash rows"
        );
    }

    #[test]
    fn tiny_dc_entry_limit_throttles() {
        let mut m = MachineConfig::fig4(64, 4.0);
        let trace = PhaseTrace {
            phases: vec![phase("scan", wide_lanes(1 << 20, 0, 0, 64), false)],
        };
        let free = simulate_des(&trace, &m, &DesOptions::default()).seconds;
        m.far.dc_entries = 1; // one outstanding request node-wide
        let gated = simulate_des(&trace, &m, &DesOptions::default()).seconds;
        assert!(
            gated > 2.0 * free,
            "DC entry starvation must slow the run: {gated} vs {free}"
        );
    }

    #[test]
    fn access_counts_match_trace_volumes() {
        let m = MachineConfig::fig4(8, 4.0);
        let trace = PhaseTrace {
            phases: vec![phase("x", wide_lanes(6400, 640, 0, 8), false)],
        };
        let r = simulate_des(&trace, &m, &DesOptions::default());
        assert_eq!(r.far_accesses, 8 * 100);
        assert_eq!(r.near_accesses, 8 * 10);
    }
}
