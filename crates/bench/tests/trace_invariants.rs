//! Property tests on the flight-recorder trace of real deterministic runs
//! (ISSUE 6, satellite 3): whatever `(algo, n, p, p′, seeds)` the strategy
//! draws, the recorded trace must satisfy its structural invariants, agree
//! with the cost ledger byte-for-byte, tile the executor's makespan, and
//! replay bit-for-bit.
//!
//! The flight recorder is process-global, so every test body holds
//! [`GUARD`] — cargo runs the tests in this binary on parallel threads.

use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};
use tlmm_bench::{run_sort, Engine, Overrides, SortRun, SortSpec};
use tlmm_scratchpad::ExecConfig;
use tlmm_telemetry::critical::critical_path;
use tlmm_telemetry::flight::{self, EventKind, FlightConfig, FlightTrace};
use tlmm_telemetry::perfetto;

static GUARD: Mutex<()> = Mutex::new(());

fn guard() -> MutexGuard<'static, ()> {
    tlmm_testkit::serial_guard(&GUARD)
}

/// Run `spec` under a freshly installed virtual-domain recorder mirroring
/// the executor's `(p, p′, seed)`; returns the run and the trace.
fn traced_run(
    spec: &SortSpec,
    workers: usize,
    slots: usize,
    exec_seed: u64,
) -> (SortRun, FlightTrace) {
    flight::install(
        FlightConfig::virtual_time(workers as u32, slots as u32, exec_seed).with_capacity(1 << 17),
    );
    let run = run_sort(
        spec,
        Overrides::exec(ExecConfig::deterministic(workers, slots, exec_seed)),
    );
    let trace = flight::uninstall().expect("recorder installed");
    (run.expect("traced run"), trace)
}

fn arb_spec() -> impl Strategy<Value = (SortSpec, usize, usize, u64)> {
    (
        (
            0u8..5,           // algo selector
            2_000u64..12_000, // n
            1u64..6,          // lanes
            0u64..1_000,      // workload seed
        ),
        (
            0u64..100,   // fault seed; 0 means "no plan"
            1u64..6,     // workers
            1u64..4,     // slots
            0u64..1_000, // exec seed
        ),
    )
        .prop_map(
            |((algo, n, lanes, seed), (fault, workers, slots, exec_seed))| {
                let algo = match algo {
                    0 => Engine::NmSort,
                    1 => Engine::NmSortDma,
                    2 => Engine::Baseline,
                    3 => Engine::Spms,
                    _ => Engine::SquareSort,
                };
                let n = n as usize;
                (
                    SortSpec {
                        threads: 1,
                        algo,
                        n,
                        lanes: lanes as usize,
                        chunk_elems: if algo.uses_chunks() {
                            Some((n / 3).max(512))
                        } else {
                            None
                        },
                        seed,
                        fault_seed: if fault == 0 { None } else { Some(fault) },
                    },
                    workers as usize,
                    (slots as usize).min(workers as usize), // executor requires p' <= p
                    exec_seed,
                )
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The structural invariants the validator enforces — per-lane
    /// monotone timestamps, strict span nesting, phase alternation,
    /// issue→grant→retire triples per transfer id, slot exclusivity —
    /// hold on every reachable run, fault-injected or clean.
    #[test]
    fn traces_validate((spec, workers, slots, exec_seed) in arb_spec()) {
        let _g = guard();
        let (_, trace) = traced_run(&spec, workers, slots, exec_seed);
        if let Err(errors) = trace.validate() {
            prop_assert!(false, "trace invariants violated: {errors:?}");
        }
        // Re-assert the headline orderings independently of validate().
        for lane in &trace.lanes {
            let mut last_ts = 0u64;
            for ev in &lane.events {
                prop_assert!(ev.ts >= last_ts, "lane {} time went backwards", lane.lane);
                last_ts = ev.ts;
            }
        }
        for t in trace.transfers() {
            prop_assert!(t.issue <= t.grant && t.grant <= t.retire,
                "transfer {} ordering broken", t.id);
        }
    }

    /// Summed trace transfer bytes equal the `CostSnapshot` ledger
    /// byte-for-byte in deterministic mode — with and without fault
    /// plans (retried transfers are charged AND traced twice).
    #[test]
    fn trace_bytes_equal_ledger((spec, workers, slots, exec_seed) in arb_spec()) {
        let _g = guard();
        let (run, trace) = traced_run(&spec, workers, slots, exec_seed);
        prop_assert_eq!(trace.dropped(), 0, "ring overflowed; grow the test capacity");
        prop_assert_eq!(trace.transfer_bytes(|t| t.far()), run.ledger.far_bytes);
        prop_assert_eq!(trace.transfer_bytes(|t| !t.far()), run.ledger.near_bytes);
    }

    /// The critical path tiles the executor's charged makespan exactly,
    /// and its category totals sum to it with nothing left over.
    #[test]
    fn critical_path_tiles_makespan((spec, workers, slots, exec_seed) in arb_spec()) {
        let _g = guard();
        let (run, trace) = traced_run(&spec, workers, slots, exec_seed);
        let cp = critical_path(&trace);
        let exec = run.exec.expect("executor report");
        prop_assert_eq!(cp.makespan, exec.makespan_units);
        let t = &cp.totals;
        let sum = t.far_bandwidth + t.near_bandwidth + t.slot_wait
            + t.compute + t.fault_retry + t.idle;
        prop_assert_eq!(sum, cp.makespan, "segments must tile [0, makespan]");
        let mut cursor = cp.origin;
        for seg in &cp.segments {
            prop_assert_eq!(seg.start, cursor, "gap or overlap on the path");
            prop_assert!(seg.end >= seg.start);
            cursor = seg.end;
        }
    }

    /// Bit-for-bit replay: the same `(spec, p, p′, seed)` yields an
    /// identical trace — event streams, serialized form, and the exported
    /// Chrome JSON all match across two fresh runs.
    #[test]
    fn deterministic_runs_replay_bit_for_bit((spec, workers, slots, exec_seed) in arb_spec()) {
        let _g = guard();
        let (_, t1) = traced_run(&spec, workers, slots, exec_seed);
        let (_, t2) = traced_run(&spec, workers, slots, exec_seed);
        prop_assert_eq!(&t1, &t2);
        prop_assert_eq!(perfetto::to_chrome_json(&t1), perfetto::to_chrome_json(&t2));
    }
}

/// The oblivious engines charge exclusively through the shared `TwoLevel`
/// API, so the recorder must see every one of their bytes with zero hooks
/// of their own: traced transfer bytes equal the ledger exactly, clean and
/// faulted, for both engines.
#[test]
fn oblivious_trace_bytes_equal_ledger() {
    let _g = guard();
    for algo in [Engine::Spms, Engine::SquareSort] {
        for fault_seed in [None, Some(23u64)] {
            let spec = SortSpec {
                threads: 1,
                algo,
                n: 20_000,
                lanes: 4,
                chunk_elems: None,
                seed: 9,
                fault_seed,
            };
            let (run, trace) = traced_run(&spec, 4, 2, 11);
            assert_eq!(trace.dropped(), 0, "{algo:?}: ring overflowed");
            assert_eq!(
                trace.transfer_bytes(|t| t.far()),
                run.ledger.far_bytes,
                "{algo:?} fault={fault_seed:?}: far bytes"
            );
            assert_eq!(
                trace.transfer_bytes(|t| !t.far()),
                run.ledger.near_bytes,
                "{algo:?} fault={fault_seed:?}: near bytes"
            );
        }
    }
}

/// Non-proptest spot check: a contended run (p > p′) must attribute a
/// visible share of the critical path to slot waiting, and spans/phases
/// must appear in the trace at all (guards against silently disabled
/// instrumentation hooks).
#[test]
fn contended_run_attributes_slot_wait() {
    let _g = guard();
    let spec = SortSpec {
        threads: 1,
        algo: Engine::NmSort,
        n: 60_000,
        lanes: 8,
        chunk_elems: Some(15_000),
        seed: 5,
        fault_seed: None,
    };
    let (run, trace) = traced_run(&spec, 8, 2, 3);
    let cp = critical_path(&trace);
    assert_eq!(cp.makespan, run.exec.expect("exec report").makespan_units);
    assert!(
        cp.totals.slot_wait > 0,
        "8 workers over 2 slots must wait: {:?}",
        cp.totals
    );
    let kinds: Vec<EventKind> = trace
        .lanes
        .iter()
        .flat_map(|l| l.events.iter().map(|e| e.kind))
        .collect();
    assert!(
        kinds.contains(&EventKind::PhaseBegin),
        "phase events missing"
    );
    assert!(
        kinds.contains(&EventKind::Compute),
        "compute events missing"
    );
}
