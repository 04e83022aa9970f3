//! Golden charge-ledger snapshots: nondeterminism regressions fail loudly.
//!
//! For each of the seven sorters, a canonical small-N run's `CostSnapshot`
//! is committed under `tests/golden/` — on uniform keys, and for the two
//! oblivious engines also on Zipf(1.1) keys, whose duplicate-heavy
//! buckets take merge paths uniform keys never reach. Every test run re-executes the
//! sorter and asserts byte-identical serialization against the golden —
//! first with no executor (the sequential oracle), then under the
//! deterministic executor across `p ∈ {1, 2, 8}` workers and two scheduler
//! seeds. Arbitration may reorder and delay transfers but must never
//! change a single charged byte.
//!
//! NMsort's phase schedule is pinned too: for blocking and DMA runs, the
//! `(phase name, overlappable)` sequence and the simulated seconds on the
//! Fig. 4 machine. A schedule refactor that keeps every charged byte but
//! reorders phases or drops an overlap flag fails here.
//!
//! The discrete-event engine's whole `SimReport` on the DMA trace is pinned
//! on two machines, the Fig. 4 one and one whose channel, bank and row
//! counts are off every power of two, with the makespan's exact bits.
//!
//! Regenerate after an *intentional* accounting change with:
//! `TLMM_BLESS=1 cargo test --test golden_ledgers`

use tlmm_scratchpad::PhaseTrace;
use two_level_mem::prelude::*;

const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
const N: usize = 30_000;
const DATA_SEED: u64 = 0xC0FFEE;

fn tl() -> TwoLevel {
    TwoLevel::new(ScratchpadParams::new(64, 4.0, 1 << 20, 16 << 10).unwrap())
}

fn input() -> Vec<u64> {
    generate(Workload::UniformU64, N, DATA_SEED)
}

fn zipf_input() -> Vec<u64> {
    generate(Workload::Zipf(1.1), N, DATA_SEED)
}

/// Run one canonical sorter configuration, optionally under an executor.
fn run_sorter(name: &str, exec: Option<tlmm_scratchpad::ExecConfig>) -> CostSnapshot {
    let tl = tl();
    if let Some(cfg) = exec {
        tl.install_executor(cfg).unwrap();
    }
    let keys = if name.ends_with("_zipf") {
        zipf_input()
    } else {
        input()
    };
    let far = tl.far_from_vec(keys);
    match name {
        "nmsort" => {
            let r = two_level_mem::core::nmsort::nmsort(
                &tl,
                far,
                &NmSortConfig {
                    sim_lanes: 8,
                    threads: 1,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_sorted(r.output.as_slice_uncharged());
        }
        "nmsort_dma" => {
            // Pinned to 8,000-key chunks (4 chunks at N = 30k) so the run
            // goes through the double-buffered DMA pipeline. The default
            // DMA chunk (4M/15 = 34,952 keys on this 1 MiB scratchpad)
            // would make it a single-chunk run that never overlaps an
            // ingest.
            let r = two_level_mem::core::nmsort::nmsort(
                &tl,
                far,
                &NmSortConfig {
                    sim_lanes: 8,
                    threads: 1,
                    use_dma: true,
                    chunk_elems: Some(8_000),
                    ..Default::default()
                },
            )
            .unwrap();
            assert_sorted(r.output.as_slice_uncharged());
        }
        "seqsort" => {
            let (out, _) = seq_scratchpad_sort(
                &tl,
                far,
                &SeqSortConfig {
                    lanes: 4,
                    threads: 1,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_sorted(out.as_slice_uncharged());
        }
        "parsort" => {
            let (out, _) = par_scratchpad_sort(
                &tl,
                far,
                &ParSortConfig {
                    lanes: 8,
                    threads: 1,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_sorted(out.as_slice_uncharged());
        }
        "baseline" => {
            let r = baseline_sort(
                &tl,
                far,
                &BaselineConfig {
                    sim_lanes: 4,
                    threads: 1,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_sorted(r.output.as_slice_uncharged());
        }
        "spms" | "squaresort" | "spms_zipf" | "squaresort_zipf" => {
            let cfg = ObliviousConfig {
                lanes: 8,
                threads: 1,
                ..Default::default()
            };
            let (out, _report) = if name.starts_with("spms") {
                spms_sort(&tl, far, &cfg).unwrap()
            } else {
                squaresort_sort(&tl, far, &cfg).unwrap()
            };
            assert_sorted(out.as_slice_uncharged());
        }
        other => panic!("unknown sorter {other}"),
    }
    tl.ledger().snapshot()
}

fn assert_sorted(v: &[u64]) {
    assert!(v.windows(2).all(|w| w[0] <= w[1]), "output must be sorted");
    assert_eq!(v.len(), N);
}

/// Assert `value` serializes byte-identically to the committed golden
/// (or bless it when `TLMM_BLESS` is set), including the typed
/// round-trip — see `tlmm_testkit::check_golden`.
fn check_against_golden<T>(name: &str, value: &T, context: &str)
where
    T: serde::Serialize + serde::Deserialize + PartialEq + std::fmt::Debug,
{
    tlmm_testkit::check_golden(&tlmm_testkit::golden_path(GOLDEN_DIR, name), value, context);
}

const SORTERS: [&str; 9] = [
    "nmsort",
    "nmsort_dma",
    "seqsort",
    "parsort",
    "baseline",
    "spms",
    "squaresort",
    "spms_zipf",
    "squaresort_zipf",
];

#[test]
fn all_sorters_match_their_golden_ledgers() {
    for name in SORTERS {
        let snap = run_sorter(name, None);
        check_against_golden(name, &snap, "no executor");
    }
}

#[test]
fn golden_ledgers_replay_across_workers_and_seeds() {
    for name in SORTERS {
        for p in [1usize, 2, 8] {
            for seed in [1u64, 42] {
                let slots = p.min(2);
                let exec = tlmm_scratchpad::ExecConfig::deterministic(p, slots, seed);
                let snap = run_sorter(name, Some(exec));
                check_against_golden(name, &snap, &format!("p={p} p'={slots} seed={seed}"));
            }
        }
    }
}

#[test]
fn golden_ledgers_replay_under_fully_serialized_arbiter() {
    // p' = 1: every transfer in the whole sort funnels through a single
    // slot — the sequential-engine equivalence of the acceptance criteria.
    for name in SORTERS {
        let exec = tlmm_scratchpad::ExecConfig::deterministic(8, 1, 7);
        let snap = run_sorter(name, Some(exec));
        check_against_golden(name, &snap, "p=8 p'=1");
    }
}

/// One recorded phase: its name and whether it was marked overlappable.
#[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
struct PhaseStep {
    name: String,
    overlappable: bool,
}

/// NMsort's whole phase schedule and its simulated time on the Fig. 4
/// machine. Ledger goldens cannot see phase order or overlap flags; this
/// pins both.
#[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
struct PhaseSchedule {
    phases: Vec<PhaseStep>,
    sim_seconds: f64,
}

/// NMsort's recorded phase trace on the canonical input.
fn nmsort_trace(use_dma: bool, chunk_elems: Option<usize>) -> PhaseTrace {
    let tl = tl();
    let far = tl.far_from_vec(input());
    let r = two_level_mem::core::nmsort::nmsort(
        &tl,
        far,
        &NmSortConfig {
            sim_lanes: 8,
            threads: 1,
            use_dma,
            chunk_elems,
            ..Default::default()
        },
    )
    .unwrap();
    assert_sorted(r.output.as_slice_uncharged());
    tl.take_trace()
}

fn nmsort_schedule(use_dma: bool, chunk_elems: Option<usize>) -> PhaseSchedule {
    let trace = nmsort_trace(use_dma, chunk_elems);
    PhaseSchedule {
        phases: trace
            .phases
            .iter()
            .map(|p| PhaseStep {
                name: p.name.clone(),
                overlappable: p.overlappable,
            })
            .collect(),
        sim_seconds: simulate_flow(&trace, &MachineConfig::fig4(8, 4.0)).seconds,
    }
}

#[test]
fn nmsort_phase_schedules_match_their_goldens() {
    for (name, use_dma, chunk_elems) in [
        ("nmsort_phases_blocking", false, Some(8_000)),
        ("nmsort_phases_dma", true, Some(8_000)),
        ("nmsort_phases_dma_single", true, None),
    ] {
        let schedule = nmsort_schedule(use_dma, chunk_elems);
        check_against_golden(name, &schedule, "no executor");
    }
}

/// The discrete-event engine's whole report on one trace, with the
/// makespan's exact bits beside its decimal rendering.
#[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
struct DesGolden {
    seconds_bits: u64,
    report: SimReport,
}

/// DES tests read process-global `memsim.des.*` counters; run them one
/// at a time.
static DES_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// The pipelined DMA NMsort trace (4 chunks, so overlappable pairs).
fn dma_trace() -> PhaseTrace {
    nmsort_trace(true, Some(8_000))
}

/// A machine off every power of two: 3 far channels of 6 banks with
/// 3 KiB rows, 12 near channels (ρ = 3) with 1,000-byte rows that lines
/// straddle.
fn odd_machine() -> MachineConfig {
    let mut m = MachineConfig::fig4(8, 3.0);
    m.far.channels = 3;
    m.far.banks_per_channel = 6;
    m.far.row_bytes = 3 << 10;
    m.near.banks_per_channel = 12;
    m.near.row_bytes = 1_000;
    m
}

/// `(golden name, machine, options)`: 1 KiB requests on the Fig. 4
/// machine (the Table I setting), 320-byte requests on the odd one, so
/// requests span several lines, channels and rows.
fn des_cases() -> [(&'static str, MachineConfig, DesOptions); 2] {
    [
        (
            "des_nmsort_dma_fig4",
            MachineConfig::fig4(8, 8.0),
            DesOptions {
                req_bytes: 1024,
                mlp: 4,
            },
        ),
        (
            "des_nmsort_dma_odd",
            odd_machine(),
            DesOptions {
                req_bytes: 320,
                mlp: 4,
            },
        ),
    ]
}

/// Run `f` and return its value with the `memsim.des.*` counter deltas
/// it caused, sorted by name.
fn with_des_counter_deltas<R>(f: impl FnOnce() -> R) -> (R, Vec<(String, u64)>) {
    let des_counters = || -> std::collections::BTreeMap<String, u64> {
        tlmm_telemetry::registry()
            .counter_snapshots()
            .into_iter()
            .filter(|c| c.name.starts_with("memsim.des."))
            .map(|c| (c.name, c.value))
            .collect()
    };
    let before = des_counters();
    let out = f();
    let deltas = des_counters()
        .into_iter()
        .map(|(name, v)| {
            let d = v - before.get(&name).copied().unwrap_or(0);
            (name, d)
        })
        .filter(|(_, d)| *d > 0)
        .collect();
    (out, deltas)
}

#[test]
fn des_reports_match_their_goldens() {
    let _serial = tlmm_testkit::serial_guard(&DES_LOCK);
    let trace = dma_trace();
    for (name, machine, opt) in des_cases() {
        let report = simulate_des(&trace, &machine, &opt);
        assert!(report.overlapped_pairs > 0, "{name}: trace must overlap");
        let golden = DesGolden {
            seconds_bits: report.seconds.to_bits(),
            report,
        };
        check_against_golden(name, &golden, machine.name.as_str());
    }
}

#[test]
fn des_inside_a_pool_worker_matches_a_top_level_call() {
    let _serial = tlmm_testkit::serial_guard(&DES_LOCK);
    let trace = dma_trace();
    for (name, machine, opt) in des_cases() {
        let (top, top_deltas) = with_des_counter_deltas(|| simulate_des(&trace, &machine, &opt));
        assert!(!top_deltas.is_empty(), "{name}: DES must count");
        // Two tasks on two threads: each DES call runs on a pool worker.
        let (nested, nested_deltas) = with_des_counter_deltas(|| {
            two_level_mem::core::pool::map_indexed(2, vec![(); 2], |_, ()| {
                simulate_des(&trace, &machine, &opt)
            })
        });
        for r in &nested {
            assert_eq!(r.seconds.to_bits(), top.seconds.to_bits(), "{name}");
            assert_eq!(r, &top, "{name}");
        }
        let doubled: Vec<(String, u64)> =
            top_deltas.iter().map(|(n, d)| (n.clone(), 2 * d)).collect();
        assert_eq!(nested_deltas, doubled, "{name}: counter deltas");
    }
}
