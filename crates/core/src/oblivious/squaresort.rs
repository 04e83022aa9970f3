//! SquareSort — cache-oblivious √n-block recursion (Koucký–Matějka).
//!
//! Split the input into ~√n blocks of ~√n elements, sort each block
//! recursively, then combine the sorted blocks with a balanced *binary*
//! merge tree — ⌈lg √n⌉ full streaming passes per recursion level. The
//! recursion never consults a machine parameter; its `Θ((n/B)·lg(n/M))`
//! transfer profile emerges from the machine-side residency adapter
//! ([`super::Ctx`]) charging the merge passes of scratchpad-fitting
//! subtrees at near rates: once a subtree fits, its remaining lg passes
//! are cheap, so only ~lg(n/M) binary passes ever touch far memory.
//!
//! This is the *costly* oblivious opponent: where SPMS completes a level
//! in two passes via √n-way bucket merges, SquareSort pays a logarithmic
//! pass stack — exactly the gap the `fig_crossover` experiment plots.

use super::{ceil_sqrt, Ctx, ObliviousConfig, ObliviousReport};
use crate::extsort::{merge_rounds, RegionLevel};
use crate::par::{charged_copy, CopyKind};
use crate::{SortElem, SortError};
use tlmm_scratchpad::trace::{current_lane, with_lane};
use tlmm_scratchpad::{FarArray, TwoLevel};

/// Sort `input` with SquareSort. Returns the sorted array and a summary of
/// the work performed. Fails fast on `cfg.lanes == 0`.
pub fn squaresort_sort<T: SortElem>(
    tl: &TwoLevel,
    input: FarArray<T>,
    cfg: &ObliviousConfig,
) -> Result<(FarArray<T>, ObliviousReport), SortError> {
    super::validate(cfg)?;
    // Entry / exit phase boundaries — see `spms_sort` for the rationale.
    tl.checkpoint()?;
    let _phase = tl.phase("squaresort.sort");
    let mut data = input.into_vec();
    let mut scratch = vec![T::default(); data.len()];
    let cx = Ctx::new::<T>(tl, cfg);
    sort_rec(&cx, &mut data, &mut scratch, cfg.lanes, true, 1);
    tl.checkpoint()?;
    Ok((tl.far_from_vec(data), cx.report()))
}

/// One SquareSort recursion node (result left in `data`, sorted).
fn sort_rec<T: SortElem>(
    cx: &Ctx<'_>,
    data: &mut [T],
    scratch: &mut [T],
    lanes: usize,
    parent_far: bool,
    depth: u32,
) {
    let n = data.len();
    cx.note_depth(depth);
    if n <= 1 {
        return;
    }
    let level = cx.level(n);
    let entered = parent_far && level == RegionLevel::Near;
    if entered {
        cx.ingest::<T>(n, lanes);
    }
    if n <= cx.base_elems {
        cx.base_case(data, level, lanes);
    } else {
        node(cx, data, scratch, lanes, level, depth);
    }
    if entered {
        cx.writeback::<T>(n, lanes);
    }
}

fn node<T: SortElem>(
    cx: &Ctx<'_>,
    data: &mut [T],
    scratch: &mut [T],
    lanes: usize,
    level: RegionLevel,
    depth: u32,
) {
    let n = data.len();
    let _elem = std::mem::size_of::<T>();
    let block = ceil_sqrt(n);
    let n_blocks = n.div_ceil(block);
    let child_far = level == RegionLevel::Far;

    // ---- 1. Recursively sort each √n block ---------------------------
    let child_lanes = (lanes / n_blocks).max(1);
    let base = current_lane();
    let children: Vec<(&mut [T], &mut [T])> = data
        .chunks_mut(block)
        .zip(scratch.chunks_mut(block))
        .collect();
    crate::pool::run_indexed(cx.threads, children, |i, (d, s)| {
        with_lane(base + (i * child_lanes) % lanes, || {
            sort_rec(cx, d, s, child_lanes, child_far, depth + 1);
        })
    });

    // ---- 2. Balanced binary merge tree over the sorted blocks --------
    // ⌈lg √n⌉ rounds, each a full fault-gated streaming pass ping-ponging
    // between the segment and its scratch twin.
    let bytes = std::mem::size_of_val(data) as u64;
    cx.preflight_stream(level, bytes, lanes);
    let bounds: Vec<usize> = (0..=n_blocks).map(|i| (i * block).min(n)).collect();
    let (in_scratch, rounds, cmps) =
        merge_rounds(cx.tl, level, data, scratch, bounds, 2, lanes, cx.threads);
    cx.add_comparisons(cmps);
    cx.add_passes(rounds as u64);

    // An odd round count leaves the result in scratch; a real binary
    // mergesort pays the same final relocation pass, so charge it.
    if in_scratch {
        let kind = match level {
            RegionLevel::Near => CopyKind::NearToNear,
            RegionLevel::Far => CopyKind::FarToFar,
        };
        cx.preflight_stream(level, bytes, lanes);
        charged_copy(cx.tl, kind, &scratch[..n], data, lanes, cx.threads);
        cx.add_passes(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tlmm_model::ScratchpadParams;
    use tlmm_scratchpad::FaultPlan;

    fn tl() -> TwoLevel {
        // B=64, rho=4, M=1MiB, Z=16KiB: near cap = 32Ki u64 elements.
        TwoLevel::new(ScratchpadParams::new(64, 4.0, 1 << 20, 16 << 10).unwrap())
    }

    fn seq_cfg() -> ObliviousConfig {
        ObliviousConfig {
            lanes: 4,
            threads: 1,
            ..Default::default()
        }
    }

    fn random_vec(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen()).collect()
    }

    #[test]
    fn sorts_various_sizes_and_shapes() {
        for n in [0usize, 1, 2, 3, 17, 1024, 1025, 4096, 40_000, 120_000] {
            let tl = tl();
            let v = random_vec(n, n as u64);
            let mut expect = v.clone();
            expect.sort_unstable();
            let (out, _) = squaresort_sort(&tl, tl.far_from_vec(v), &seq_cfg()).unwrap();
            assert_eq!(out.into_vec(), expect, "n={n}");
        }
        for v in [
            vec![7u64; 10_000],
            (0..10_000u64).collect::<Vec<_>>(),
            (0..10_000u64).rev().collect(),
        ] {
            let tl = tl();
            let mut expect = v.clone();
            expect.sort_unstable();
            let (out, _) = squaresort_sort(&tl, tl.far_from_vec(v), &seq_cfg()).unwrap();
            assert_eq!(out.into_vec(), expect);
        }
    }

    #[test]
    fn near_resident_input_pays_exactly_one_far_roundtrip() {
        let tl = tl();
        let n = 20_000usize;
        let (out, rep) =
            squaresort_sort(&tl, tl.far_from_vec(random_vec(n, 9)), &seq_cfg()).unwrap();
        assert!(out.as_slice_uncharged().windows(2).all(|w| w[0] <= w[1]));
        let s = tl.ledger().snapshot();
        assert_eq!(s.far_bytes, 2 * (n as u64) * 8, "ingest + writeback only");
        assert!(s.near_bytes > s.far_bytes);
        assert_eq!(rep.resident_subtrees, 1);
    }

    #[test]
    fn binary_merging_outstreams_spms_beyond_residency() {
        // Past the residency cap the lg(√n) binary passes all hit far
        // memory: SquareSort's far traffic must exceed SPMS's two-pass
        // level cost on the same input.
        let n = 200_000usize;
        let v = random_vec(n, 10);
        let square = {
            let tl = tl();
            let (out, _) = squaresort_sort(&tl, tl.far_from_vec(v.clone()), &seq_cfg()).unwrap();
            assert!(out.as_slice_uncharged().windows(2).all(|w| w[0] <= w[1]));
            tl.ledger().snapshot().far_bytes
        };
        let spms = {
            let tl = tl();
            let (out, _) = super::super::spms_sort(&tl, tl.far_from_vec(v), &seq_cfg()).unwrap();
            assert!(out.as_slice_uncharged().windows(2).all(|w| w[0] <= w[1]));
            tl.ledger().snapshot().far_bytes
        };
        assert!(
            square > spms,
            "binary tree ({square} far B) must outstream √n-way buckets ({spms} far B)"
        );
    }

    #[test]
    fn parallel_and_sequential_charge_identically() {
        let snap = |threads: usize| {
            let tl = tl();
            let cfg = ObliviousConfig {
                lanes: 4,
                threads,
                ..Default::default()
            };
            let (out, _) =
                squaresort_sort(&tl, tl.far_from_vec(random_vec(60_000, 3)), &cfg).unwrap();
            assert!(out.as_slice_uncharged().windows(2).all(|w| w[0] <= w[1]));
            tl.ledger().snapshot()
        };
        assert_eq!(snap(4), snap(1));
    }

    #[test]
    fn faults_degrade_but_never_discount() {
        let run_seeded = |fault: Option<u64>| {
            let tl = tl();
            if let Some(seed) = fault {
                tl.install_fault_plan(FaultPlan::seeded(seed));
            }
            let (out, rep) =
                squaresort_sort(&tl, tl.far_from_vec(random_vec(50_000, 4)), &seq_cfg()).unwrap();
            assert!(out.as_slice_uncharged().windows(2).all(|w| w[0] <= w[1]));
            (tl.ledger().snapshot(), rep)
        };
        let (clean, _) = run_seeded(None);
        let (faulted, rep) = run_seeded(Some(11));
        assert!(faulted.far_bytes >= clean.far_bytes);
        assert!(faulted.near_bytes >= clean.near_bytes);
        assert!(rep.restreams > 0, "seed 11 must fire at least one fault");
    }

    #[test]
    fn zero_lanes_rejected_at_the_edge() {
        let tl = tl();
        let cfg = ObliviousConfig {
            lanes: 0,
            ..Default::default()
        };
        match squaresort_sort(&tl, tl.far_from_vec(vec![1u64, 0]), &cfg) {
            Err(SortError::BadConfig { .. }) => {}
            other => panic!("expected BadConfig, got {other:?}"),
        }
    }
}
