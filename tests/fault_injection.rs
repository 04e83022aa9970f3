//! End-to-end fault-injection sweeps: NMsort must degrade gracefully —
//! sorted output (differential vs `slice::sort`), no panics, every fired
//! fault visible as a degradation record, and honest accounting (a degraded
//! run's far traffic is never below the clean run's).
//!
//! The default sweep is small enough for every CI run; the 100-seed × 1M
//! acceptance sweep is `#[ignore]`d and exercised by the nightly job
//! (`cargo test --release -- --ignored`).

use two_level_mem::prelude::*;

/// Experiment geometry shared by the sweeps: small enough to run many
/// seeds, large enough to be multi-chunk (so both phases and their
/// degradation ladders execute).
fn sweep_params() -> ScratchpadParams {
    ScratchpadParams::new(64, 3.0, 1 << 20, 64 << 10).unwrap()
}

struct SweepRun {
    far_bytes: u64,
    far_read_blocks: u64,
    far_write_blocks: u64,
    near_bytes: u64,
    trace_near_bytes: u64,
    trace_faults: u64,
    faults_injected: u64,
    degraded: bool,
}

/// One nmsort run, differential-checked against `slice::sort`. Panics (and
/// so fails the sweep) on any mis-sort.
fn run_once(v: Vec<u64>, chunk: usize, fault_seed: Option<u64>) -> SweepRun {
    let tl = TwoLevel::new(sweep_params());
    if let Some(seed) = fault_seed {
        tl.install_fault_plan(FaultPlan::seeded(seed));
    }
    let mut expect = v.clone();
    expect.sort_unstable();
    let input = tl.far_from_vec(v);
    let cfg = NmSortConfig {
        sim_lanes: 8,
        chunk_elems: Some(chunk),
        ..Default::default()
    };
    let r = nmsort(&tl, input, &cfg).expect("nmsort degrades, never fails");
    assert_eq!(
        r.output.as_slice_uncharged(),
        expect.as_slice(),
        "differential mismatch (fault_seed {fault_seed:?})"
    );
    let ledger = tl.ledger().snapshot();
    let trace = tl.take_trace();
    SweepRun {
        far_bytes: ledger.far_bytes,
        far_read_blocks: ledger.far_read_blocks,
        far_write_blocks: ledger.far_write_blocks,
        near_bytes: ledger.near_bytes,
        trace_near_bytes: trace.total().near_bytes(),
        trace_faults: trace.faults(),
        faults_injected: tl.faults_injected(),
        degraded: r.degradations.any(),
    }
}

fn seed_sweep(n: usize, seeds: std::ops::Range<u64>) {
    // Cap the chunk so two chunk buffers always fit the 1 MiB sweep
    // scratchpad, however large the input (50k elems × 8 B × 2 < 1 MiB).
    let chunk = (n / 6).min(50_000);
    let clean = run_once(generate(Workload::UniformU64, n, 42), chunk, None);
    assert_eq!(clean.faults_injected, 0);
    for seed in seeds {
        let run = run_once(generate(Workload::UniformU64, n, 42), chunk, Some(seed));
        // Honest accounting: injected faults only ever add far traffic.
        assert!(
            run.far_bytes >= clean.far_bytes,
            "seed {seed}: degraded far bytes {} below clean {}",
            run.far_bytes,
            clean.far_bytes
        );
        // No silent faults: anything the injector fired shows up as a
        // degradation record or a trace fault event.
        if run.faults_injected > 0 {
            assert!(
                run.degraded || run.trace_faults > 0,
                "seed {seed}: {} faults fired without a degradation record",
                run.faults_injected
            );
        }
    }
}

#[test]
fn fault_sweep_small() {
    seed_sweep(200_000, 0..8);
}

/// The acceptance sweep: 100 seeds at 1M elements. Roughly a minute of
/// release-mode work, so nightly-only.
#[test]
#[ignore = "nightly acceptance sweep: run with cargo test --release -- --ignored"]
fn fault_sweep_acceptance_100_seeds() {
    seed_sweep(1_000_000, 0..100);
}

/// The oversized-bucket DRAM-direct path is a *data-driven* degradation:
/// duplicate-heavy inputs overflow one bucket past the scratchpad batch
/// and Phase 2 must stream it from far memory. Verified via the report and
/// its telemetry counters rather than eyeballing.
#[test]
fn oversized_bucket_fallback_fires_and_sorts() {
    let n = 120_000;
    let v = generate(Workload::FewDistinct(2), n, 7);
    let tl = TwoLevel::new(sweep_params());
    let mut expect = v.clone();
    expect.sort_unstable();
    let input = tl.far_from_vec(v);
    let cfg = NmSortConfig {
        sim_lanes: 4,
        chunk_elems: Some(n / 6),
        threads: 1,
        ..Default::default()
    };
    let r = nmsort(&tl, input, &cfg).expect("oversized buckets degrade, not fail");
    assert_eq!(r.output.as_slice_uncharged(), expect.as_slice());
    assert!(
        r.oversized_buckets > 0,
        "two distinct values across {n} elems must overflow a bucket"
    );
    assert!(
        r.degradations.dram_direct_parts > 0,
        "oversized buckets with too few keys to sub-split stream from DRAM"
    );
    assert!(r.degradations.any());
}

/// Ledger floor: sorting N 8-byte elements through the scratchpad reads
/// the input once in Phase 1 and once in Phase 2 and writes it back twice,
/// so far reads AND far writes are each at least ⌈2·N·8 / B⌉ blocks — even
/// (especially) on degraded runs. Near traffic recorded in the trace must
/// also be consistent with the ledger: trace volumes only ever inflate.
#[test]
fn ledger_floor_holds_clean_and_degraded() {
    let n = 150_000usize;
    let block = sweep_params().block_bytes;
    let floor = (2 * n as u64 * 8).div_ceil(block);
    for fault_seed in [None, Some(3), Some(17)] {
        let run = run_once(generate(Workload::UniformU64, n, 9), n / 5, fault_seed);
        assert!(
            run.far_read_blocks >= floor,
            "far reads {} below 2N floor {floor} (fault_seed {fault_seed:?})",
            run.far_read_blocks
        );
        assert!(
            run.far_write_blocks >= floor,
            "far writes {} below 2N floor {floor} (fault_seed {fault_seed:?})",
            run.far_write_blocks
        );
        assert!(
            run.trace_near_bytes >= run.near_bytes,
            "trace near bytes {} below ledger {} (fault_seed {fault_seed:?})",
            run.trace_near_bytes,
            run.near_bytes
        );
    }
}

/// Sweep cell with the radix kernel verifiably engaged: the sweep geometry
/// (64 KiB scratchpad, 8 lanes) forms runs of ≥256 `u64`s, which is the
/// kernel layer's radix threshold, so faulted Phase-1 chunk sorts run on
/// the radix path. The kernels must not change fault semantics: output
/// still sorted (differential-checked inside `run_once`), degraded far
/// traffic still ≥ clean.
#[test]
fn fault_sweep_with_radix_kernels_engaged() {
    let radix_sorts = || {
        tlmm_telemetry::registry()
            .counter("core.kernels.radix_sorts")
            .get()
    };
    let n = 200_000;
    let chunk = n / 6;
    let before = radix_sorts();
    let clean = run_once(generate(Workload::UniformU64, n, 42), chunk, None);
    assert!(
        radix_sorts() > before,
        "sweep geometry must engage the radix kernel (runs ≥ RADIX_MIN_LEN)"
    );
    for seed in 0..4 {
        let mid = radix_sorts();
        let run = run_once(generate(Workload::UniformU64, n, 42), chunk, Some(seed));
        assert!(
            radix_sorts() > mid,
            "seed {seed}: faulted run must still take the radix kernel path"
        );
        assert!(
            run.far_bytes >= clean.far_bytes,
            "seed {seed}: degraded far bytes {} below clean {} with kernels on",
            run.far_bytes,
            clean.far_bytes
        );
    }
}

/// Dispatch one engine over `v` on an existing scratchpad, returning the
/// sorted output (copied out) or the typed error.
fn run_engine(tl: &TwoLevel, engine: Engine, v: Vec<u64>) -> Result<Vec<u64>, SortError> {
    let input = tl.far_from_vec(v);
    match engine {
        Engine::NmSort | Engine::NmSortDma => {
            let cfg = NmSortConfig {
                sim_lanes: 4,
                threads: 1,
                use_dma: engine == Engine::NmSortDma,
                ..Default::default()
            };
            nmsort(tl, input, &cfg).map(|r| r.output.as_slice_uncharged().to_vec())
        }
        Engine::Baseline => {
            let cfg = BaselineConfig {
                sim_lanes: 4,
                threads: 1,
                ..Default::default()
            };
            baseline_sort(tl, input, &cfg).map(|r| r.output.as_slice_uncharged().to_vec())
        }
        Engine::Spms | Engine::SquareSort => {
            let cfg = ObliviousConfig {
                lanes: 4,
                threads: 1,
                ..Default::default()
            };
            let run = if engine == Engine::Spms {
                spms_sort(tl, input, &cfg)
            } else {
                squaresort_sort(tl, input, &cfg)
            };
            run.map(|(out, _)| out.as_slice_uncharged().to_vec())
        }
    }
}

/// Ladder exhaustion, per engine: under maximum fault hostility (every
/// probabilistic roll fires) and under a fault budget that exhausts
/// mid-ladder, every engine must return either a *sorted* output or a
/// *typed* [`SortError`] — never panic — and must leave the scratchpad
/// arena empty and reusable either way.
#[test]
fn ladder_exhaustion_is_typed_for_every_engine() {
    let hostile = FaultPlan {
        near_alloc_fail_permille: 1000,
        transfer_fail_permille: 1000,
        stage_fail_permille: 1000,
        transfer_delay_permille: 0,
        dma_abort_permille: 1000,
        ..FaultPlan::none(13)
    };
    let plans: [(&str, FaultPlan); 3] = [
        ("unbounded hostility", hostile.clone()),
        (
            "budget exhausts mid-ladder",
            FaultPlan {
                max_faults: Some(3),
                ..hostile.clone()
            },
        ),
        (
            "budget already exhausted",
            FaultPlan {
                max_faults: Some(0),
                ..hostile
            },
        ),
    ];
    let n = 60_000;
    let mut expect = generate(Workload::UniformU64, n, 11);
    expect.sort_unstable();
    for &engine in Engine::ALL.iter() {
        for (label, plan) in &plans {
            let tl = TwoLevel::new(sweep_params());
            tl.install_fault_plan(plan.clone());
            let v = generate(Workload::UniformU64, n, 11);
            match run_engine(&tl, engine, v) {
                Ok(out) => assert_eq!(
                    out,
                    expect,
                    "{}: {label}: degraded run must still sort",
                    engine.name()
                ),
                Err(e) => {
                    // Typed by construction; it must not be the cancellation
                    // variant (no token installed) and must leave the arena
                    // reusable for the next job.
                    assert!(
                        !e.is_canceled(),
                        "{}: {label}: spurious cancellation: {e}",
                        engine.name()
                    );
                }
            }
            assert_eq!(
                tl.near_used_bytes(),
                0,
                "{}: {label}: ladder exit leaked near bytes",
                engine.name()
            );
            // Arena reusability: a clean follow-up job on the SAME
            // scratchpad still sorts.
            tl.install_fault_plan(FaultPlan::none(0));
            let again = run_engine(&tl, engine, generate(Workload::UniformU64, n, 11))
                .expect("clean rerun on the same arena succeeds");
            assert_eq!(
                again,
                expect,
                "{}: {label}: arena unusable after ladder",
                engine.name()
            );
        }
    }
}

/// The baseline preflights nothing: it never stages, allocates near
/// memory or issues a transfer, so an installed fault plan, even one that
/// fails every roll, fires no fault and leaves its ledger and its in-place
/// output equal to the clean run's, at one thread and at two.
#[test]
fn fault_plans_leave_the_baseline_ledger_unchanged() {
    let n = 60_000;
    let mut expect = generate(Workload::UniformU64, n, 12);
    expect.sort_unstable();
    let hostile = FaultPlan {
        near_alloc_fail_permille: 1000,
        transfer_fail_permille: 1000,
        stage_fail_permille: 1000,
        dma_abort_permille: 1000,
        ..FaultPlan::none(17)
    };
    for threads in [1, 2] {
        let run = |plan: Option<FaultPlan>| {
            let tl = TwoLevel::new(sweep_params());
            if let Some(plan) = plan {
                tl.install_fault_plan(plan);
            }
            let input = tl.far_from_vec(generate(Workload::UniformU64, n, 12));
            let at = input.as_slice_uncharged().as_ptr();
            let cfg = BaselineConfig {
                sim_lanes: 16,
                threads,
                ..Default::default()
            };
            let r = baseline_sort(&tl, input, &cfg).expect("the baseline has no fault ladder");
            assert_eq!(r.output.as_slice_uncharged(), expect.as_slice());
            assert_eq!(r.output.as_slice_uncharged().as_ptr(), at, "output moved");
            assert_eq!(tl.faults_injected(), 0);
            assert_eq!(tl.near_used_bytes(), 0);
            tl.ledger().snapshot()
        };
        let clean = run(None);
        for plan in [FaultPlan::seeded(3), FaultPlan::seeded(4), hostile.clone()] {
            assert_eq!(run(Some(plan)), clean, "threads {threads}");
        }
    }
}

/// A plan with explicit `fail_nth` triggers is fully deterministic: two
/// identical runs degrade identically, byte for byte.
#[test]
fn injection_is_deterministic() {
    let go = || {
        let tl = TwoLevel::new(sweep_params());
        tl.install_fault_plan(FaultPlan::seeded(99));
        let input = tl.far_from_vec(generate(Workload::UniformU64, 100_000, 5));
        let cfg = NmSortConfig {
            sim_lanes: 4,
            chunk_elems: Some(20_000),
            threads: 1,
            ..Default::default()
        };
        let r = nmsort(&tl, input, &cfg).unwrap();
        (
            tl.faults_injected(),
            r.degradations,
            tl.ledger().snapshot().far_bytes,
        )
    };
    let a = go();
    let b = go();
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
}

/// The ledger is the sum of the phase trace's lane records: a snapshot
/// sees charges in the open phase, survives `take_trace`, equals the taken
/// trace's lane costs summed on a degraded NMsort run, and
/// `reset_accounting` clears it.
#[test]
fn ledger_snapshot_is_the_sum_of_the_lane_records() {
    let tl = TwoLevel::new(sweep_params());
    tl.install_fault_plan(FaultPlan::seeded(3).fail_kth(FaultOp::FarToNear, 0));
    let input = tl.far_from_vec(generate(Workload::UniformU64, 60_000, 11));
    let cfg = NmSortConfig {
        sim_lanes: 8,
        chunk_elems: Some(12_000),
        ..Default::default()
    };
    nmsort(&tl, input, &cfg).expect("nmsort degrades, never fails");
    assert!(tl.faults_injected() > 0, "the run must be fault-injected");

    let ledger = tl.ledger().snapshot();
    let trace = tl.take_trace();
    let summed = trace
        .phases
        .iter()
        .flat_map(|p| &p.lanes)
        .fold(CostSnapshot::default(), |acc, lane| acc + lane.cost());
    assert_eq!(ledger, summed);
    assert!(ledger.far_read_blocks > 0 && ledger.near_write_blocks > 0);
    assert_eq!(
        tl.ledger().snapshot(),
        ledger,
        "take_trace leaves the ledger alone"
    );

    tl.begin_phase("open");
    tl.charge_far_io(two_level_mem::scratchpad::Dir::Read, 640);
    tl.charge_compute(7);
    let open = tl.ledger().snapshot().since(&ledger);
    assert_eq!(
        (open.far_read_blocks, open.far_bytes, open.compute_ops),
        (10, 640, 7)
    );

    tl.reset_accounting();
    assert_eq!(tl.ledger().snapshot(), CostSnapshot::default());
}

/// The ledger equals the phase trace's lane records summed.
fn assert_ledger_is_the_lane_sum(tl: &TwoLevel, label: &str) {
    let ledger = tl.ledger().snapshot();
    let summed = tl
        .take_trace()
        .phases
        .iter()
        .flat_map(|p| &p.lanes)
        .fold(CostSnapshot::default(), |acc, lane| acc + lane.cost());
    assert_eq!(ledger, summed, "{label}");
}

/// Phase 2's DRAM-direct merges read the very segments the in-place
/// output may overwrite. Forced batch fallbacks (failed gathers, in
/// blocking and DMA mode) and duplicate-heavy parts too large to stage
/// must still sort over the input's own array, and the ledger must stay
/// the sum of the lane records.
#[test]
fn dram_direct_merges_sort_in_place_and_keep_the_ledger() {
    let (n, chunk) = (60_000usize, 12_000usize);
    for use_dma in [false, true] {
        // Every Phase-1 ingest consults FarToNear once, so indices from
        // `chunks` on are Phase-2 gathers: fail the first three.
        let chunks = n.div_ceil(chunk) as u64;
        let plan =
            (chunks..chunks + 3).fold(FaultPlan::none(1), |p, k| p.fail_kth(FaultOp::FarToNear, k));
        let runs = [
            ("failed gathers", Workload::UniformU64, Some(plan)),
            ("unsplittable buckets", Workload::FewDistinct(2), None),
        ];
        for (what, w, plan) in runs {
            let label = format!("{what}, dma {use_dma}");
            let tl = TwoLevel::new(sweep_params());
            let plan_installed = plan.is_some();
            if let Some(plan) = plan {
                tl.install_fault_plan(plan);
            }
            let v = generate(w, n, 17);
            let mut expect = v.clone();
            expect.sort_unstable();
            let input = tl.far_from_vec(v);
            let at = input.as_slice_uncharged().as_ptr();
            let cfg = NmSortConfig {
                sim_lanes: 8,
                chunk_elems: Some(chunk),
                use_dma,
                ..Default::default()
            };
            let r = nmsort(&tl, input, &cfg).expect("DRAM-direct merges degrade, never fail");
            assert_eq!(r.output.as_slice_uncharged(), expect.as_slice(), "{label}");
            assert_eq!(r.output.as_slice_uncharged().as_ptr(), at, "{label}");
            let d = r.degradations;
            if plan_installed {
                assert_eq!(d.batch_fallbacks, 3, "{label}");
            } else {
                assert!(d.dram_direct_parts > 0, "{label}: no part merged from DRAM");
            }
            assert_ledger_is_the_lane_sum(&tl, &label);
        }
    }
}
