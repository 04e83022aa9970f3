//! Cancellation safety, property-tested: a job cancelled at a *random*
//! phase boundary (via a randomly sized charged-unit budget) must
//!
//! 1. surface as the typed [`SortError::Canceled`] — never a panic;
//! 2. leave the scratchpad arena with **zero** leaked near bytes; and
//! 3. leave the arena fully reusable — the next job on the *same*
//!    scratchpad sorts and matches `slice::sort` exactly.
//!
//! The budget fraction sweeps the whole range, so the trip point lands on
//! every phase boundary an engine has (including "before any work" and
//! "after all work", where the run completes normally).

use proptest::prelude::*;
use tlmm_scratchpad::CancelToken;
use two_level_mem::prelude::*;

fn cancel_params() -> ScratchpadParams {
    ScratchpadParams::new(64, 3.0, 1 << 20, 64 << 10).unwrap()
}

/// Run `engine` over `v`, returning sorted output or the typed error.
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

/// Charged units a clean run of `engine` consumes at this geometry — the
/// scale against which the random budget fraction is applied.
fn clean_units(engine: Engine, n: usize, seed: u64) -> u64 {
    let tl = TwoLevel::new(cancel_params());
    run_engine(&tl, engine, generate(Workload::UniformU64, n, seed)).expect("clean run succeeds");
    let s = tl.ledger().snapshot();
    s.far_bytes + s.near_bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cancellation_at_any_phase_boundary_is_leak_free_and_arena_reusable(
        engine_ix in 0usize..Engine::ALL.len(),
        // Sweep from "trips immediately" (0) past "never trips" (>100%).
        budget_pct in 0u64..120,
        n in 20_000usize..80_000,
        seed in 0u64..1_000,
    ) {
        let engine = Engine::ALL[engine_ix];
        let budget = clean_units(engine, n, seed) * budget_pct / 100;
        let tl = TwoLevel::new(cancel_params());
        tl.install_cancel(CancelToken::with_unit_budget(budget));
        let result = run_engine(&tl, engine, generate(Workload::UniformU64, n, seed));
        tl.clear_cancel();

        // (2) Whatever happened, the arena holds zero near bytes.
        prop_assert_eq!(tl.near_used_bytes(), 0, "leaked near bytes after {:?}", result.as_ref().err());

        // (1) The only allowed failure is the typed cancellation.
        let mut expect = generate(Workload::UniformU64, n, seed);
        expect.sort_unstable();
        match result {
            Ok(out) => prop_assert_eq!(out, expect.clone(), "uncancelled run must sort"),
            Err(e) => prop_assert!(e.is_canceled(), "unexpected error under budget: {}", e),
        }

        // (3) The next job on the SAME scratchpad produces output equal to
        // slice::sort.
        let again = run_engine(&tl, engine, generate(Workload::UniformU64, n, seed))
            .expect("follow-up job on the same arena succeeds");
        prop_assert_eq!(again, expect);
        prop_assert_eq!(tl.near_used_bytes(), 0);
    }
}

/// Deterministic anchors for the extremes the proptest may or may not hit
/// in a given run: budget 0 always cancels engines that do work before
/// their first checkpoint charge; an enormous budget never cancels.
#[test]
fn zero_budget_cancels_nmsort_and_huge_budget_does_not() {
    let n = 50_000;
    let tl = TwoLevel::new(cancel_params());
    tl.install_cancel(CancelToken::with_unit_budget(0));
    let err = run_engine(&tl, Engine::NmSort, generate(Workload::UniformU64, n, 1))
        .expect_err("zero budget must cancel at the first phase boundary");
    assert!(err.is_canceled());
    assert_eq!(tl.near_used_bytes(), 0);
    tl.clear_cancel();

    tl.install_cancel(CancelToken::with_unit_budget(u64::MAX / 2));
    let out = run_engine(&tl, Engine::NmSort, generate(Workload::UniformU64, n, 1))
        .expect("huge budget never trips");
    tl.clear_cancel();
    let mut expect = generate(Workload::UniformU64, n, 1);
    expect.sort_unstable();
    assert_eq!(out, expect);
}

/// Explicit cancellation (the flag, not the budget) set *before* the run
/// trips the very first checkpoint of every engine.
#[test]
fn pre_cancelled_token_stops_every_engine_before_work() {
    for &engine in Engine::ALL.iter() {
        let tl = TwoLevel::new(cancel_params());
        let token = CancelToken::new();
        token.cancel();
        tl.install_cancel(token);
        let err = run_engine(&tl, engine, generate(Workload::UniformU64, 30_000, 2))
            .expect_err("cancelled token must stop the run");
        assert!(err.is_canceled(), "{}: {err}", engine.name());
        assert_eq!(tl.near_used_bytes(), 0, "{}", engine.name());
    }
}

/// A deadline that trips between Phase-2 batches, after part of the output
/// has been written over the input, surfaces as the typed cancellation
/// with zero leaked near bytes, and the next job on the same scratchpad
/// sorts.
#[test]
fn deadline_between_phase2_batches_is_typed_and_leak_free() {
    let n = 200_000;
    let units = |c: CostSnapshot| c.far_bytes + c.near_bytes;
    for use_dma in [false, true] {
        let cfg = NmSortConfig {
            sim_lanes: 4,
            threads: 1,
            use_dma,
            ..Default::default()
        };
        let tl = TwoLevel::new(cancel_params());
        let clean = nmsort(
            &tl,
            tl.far_from_vec(generate(Workload::UniformU64, n, 3)),
            &cfg,
        )
        .expect("clean run succeeds");
        assert!(clean.batches >= 3, "{} batches", clean.batches);
        // Halfway through Phase 2's charges: past the first batch's
        // checkpoint, before the last one's.
        let budget = units(clean.sample_cost + clean.phase1_cost) + units(clean.phase2_cost) / 2;

        let tl = TwoLevel::new(cancel_params());
        tl.install_cancel(CancelToken::with_unit_budget(budget));
        let err = nmsort(
            &tl,
            tl.far_from_vec(generate(Workload::UniformU64, n, 3)),
            &cfg,
        )
        .expect_err("the budget runs out inside Phase 2");
        tl.clear_cancel();
        assert!(err.is_canceled(), "dma {use_dma}: {err}");
        assert_eq!(tl.near_used_bytes(), 0, "dma {use_dma}: leaked near bytes");
        let trace = tl.take_trace();
        let last = trace.phases.last().expect("phases ran");
        assert!(
            last.name.starts_with("nmsort.p2."),
            "dma {use_dma}: tripped after {}",
            last.name
        );
        assert!(trace.phases.iter().any(|p| p.name == "nmsort.p2.writeout"));

        let again = nmsort(
            &tl,
            tl.far_from_vec(generate(Workload::UniformU64, n, 3)),
            &cfg,
        )
        .expect("follow-up job on the same arena succeeds");
        assert_eq!(
            again.output.as_slice_uncharged(),
            clean.output.as_slice_uncharged()
        );
        assert_eq!(tl.near_used_bytes(), 0);
    }
}

/// A budget of exactly the run sorts' charges trips the baseline at its
/// pre-merge checkpoint: the runs are sorted, no merge wave has touched
/// the array, the error is the typed cancellation and nothing leaks. The
/// next job on the same scratchpad sorts.
#[test]
fn baseline_cancelled_before_its_merge_is_typed_and_leak_free() {
    let n = 60_000;
    let tl = TwoLevel::new(cancel_params());
    let clean = run_engine(&tl, Engine::Baseline, generate(Workload::UniformU64, n, 4))
        .expect("clean run succeeds");
    let trace = tl.take_trace();
    let names: Vec<&str> = trace.phases.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(names, ["baseline.run_sort", "baseline.merge"]);
    let run_sort = trace.phases[0].total().far_bytes();

    let tl = TwoLevel::new(cancel_params());
    tl.install_cancel(CancelToken::with_unit_budget(run_sort));
    let err = run_engine(&tl, Engine::Baseline, generate(Workload::UniformU64, n, 4))
        .expect_err("the budget runs out at the merge checkpoint");
    tl.clear_cancel();
    assert!(err.is_canceled(), "{err}");
    assert_eq!(tl.near_used_bytes(), 0, "leaked near bytes");
    let trace = tl.take_trace();
    let last = trace.phases.last().expect("the run sorts ran");
    assert_eq!(
        last.name, "baseline.run_sort",
        "tripped after {}",
        last.name
    );
    assert_eq!(trace.total().far_bytes(), run_sort, "no merge charge");

    let again = run_engine(&tl, Engine::Baseline, generate(Workload::UniformU64, n, 4))
        .expect("follow-up job on the same arena succeeds");
    assert_eq!(again, clean);
    assert_eq!(tl.near_used_bytes(), 0);
}
