//! Differential suite over the arena-backed engines: every engine, over
//! every workload shape, with and without an injected fault plan, must
//! agree with `slice::sort` — on ONE shared scratchpad that is reused
//! for all cases, so a single leaked arena byte or un-retired transfer
//! in any case poisons every case after it.

use two_level_mem::prelude::*;

use tlmm_testkit::SHAPES;

const N: usize = 12_000;

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

#[test]
fn every_engine_matches_slice_sort_on_every_shape_with_and_without_faults() {
    // ONE scratchpad for the whole matrix: leak isolation is part of the
    // property. M small enough that every engine stages multi-chunk.
    let tl = TwoLevel::new(ScratchpadParams::new(64, 4.0, 1 << 20, 16 << 10).unwrap());
    for (si, &shape) in SHAPES.iter().enumerate() {
        let data = generate(shape, N, 0xD1FF ^ si as u64);
        let mut expect = data.clone();
        expect.sort_unstable();
        for &engine in Engine::ALL.iter() {
            for fault_seed in [None, Some(1000 + si as u64)] {
                let ctx = format!("{:?} × {} × faults={fault_seed:?}", shape, engine.name());
                if let Some(fs) = fault_seed {
                    tl.install_fault_plan(FaultPlan::seeded(fs));
                }
                match run_engine(&tl, engine, data.clone()) {
                    Ok(out) => assert_eq!(out, expect, "{ctx}"),
                    Err(e) => {
                        // A seeded plan may legitimately exhaust a ladder;
                        // the failure must be typed and must not poison
                        // the scratchpad (checked below).
                        assert!(fault_seed.is_some(), "{ctx}: clean run failed: {e}");
                        assert!(!e.is_canceled(), "{ctx}: spurious cancellation: {e}");
                    }
                }
                tl.clear_faults();
                // Arena discipline: zero leaked near bytes after EVERY
                // case — the next case reuses this same scratchpad.
                assert_eq!(
                    tl.near_used_bytes(),
                    0,
                    "{ctx}: leaked near bytes poison the next case"
                );
                drop(tl.take_trace());
            }
        }
    }
}

/// The baseline's in-place merge on the shared-scratchpad discipline: on
/// every shape, with and without a fault plan, at one and two threads and
/// at a fan-in below and above the merge's sort path, it returns its
/// input's own array sorted and leaves zero near bytes behind.
#[test]
fn baseline_merges_in_place_and_leaks_nothing_on_every_shape() {
    let tl = TwoLevel::new(ScratchpadParams::new(64, 4.0, 1 << 20, 16 << 10).unwrap());
    for (si, &shape) in SHAPES.iter().enumerate() {
        let data = generate(shape, N, 0xBA5E ^ si as u64);
        let mut expect = data.clone();
        expect.sort_unstable();
        for (lanes, threads) in [(4, 1), (64, 2)] {
            for fault_seed in [None, Some(2000 + si as u64)] {
                let ctx = format!(
                    "{shape:?} × lanes {lanes} × threads {threads} × faults={fault_seed:?}"
                );
                if let Some(fs) = fault_seed {
                    tl.install_fault_plan(FaultPlan::seeded(fs));
                }
                let input = tl.far_from_vec(data.clone());
                let at = input.as_slice_uncharged().as_ptr();
                let cfg = BaselineConfig {
                    sim_lanes: lanes,
                    threads,
                    ..Default::default()
                };
                let r = baseline_sort(&tl, input, &cfg).expect("the baseline never fails");
                assert_eq!(r.output.as_slice_uncharged(), expect.as_slice(), "{ctx}");
                assert_eq!(
                    r.output.as_slice_uncharged().as_ptr(),
                    at,
                    "{ctx}: output moved"
                );
                tl.clear_faults();
                assert_eq!(tl.near_used_bytes(), 0, "{ctx}: leaked near bytes");
                drop(tl.take_trace());
            }
        }
    }
}
