//! Property tests on the algorithmic primitives: every merge/sort variant
//! must agree with the standard library on arbitrary inputs, and the
//! accounting must obey its conservation laws.

use proptest::prelude::*;
use tlmm_core::baseline::{baseline_sort, BaselineConfig};
use tlmm_core::extsort::{external_sort, ExtSortConfig, RegionLevel};
use tlmm_core::losertree::{merge_into_slice, LoserTree};
use tlmm_core::nmsort::{nmsort, ChunkSorter, NmSortConfig};
use tlmm_core::pmerge::parallel_merge;
use tlmm_core::quicksort::external_quicksort;
use tlmm_model::ScratchpadParams;
use tlmm_scratchpad::TwoLevel;

fn tl() -> TwoLevel {
    TwoLevel::new(ScratchpadParams::new(64, 4.0, 1 << 20, 16 << 10).unwrap())
}

fn arb_runs() -> impl Strategy<Value = Vec<Vec<u64>>> {
    proptest::collection::vec(
        proptest::collection::vec(0u64..1000, 0..400).prop_map(|mut v| {
            v.sort_unstable();
            v
        }),
        0..12,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merge_into_slice_merges_like_std(runs in arb_runs()) {
        let refs: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
        let mut out = vec![0u64; runs.iter().map(|r| r.len()).sum()];
        merge_into_slice(&refs, &mut out);
        let mut expect: Vec<u64> = runs.concat();
        expect.sort_unstable();
        prop_assert_eq!(out, expect);
    }

    #[test]
    fn merge_variants_agree(runs in arb_runs(), ways in 1usize..8) {
        let refs: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
        let total: usize = runs.iter().map(|r| r.len()).sum();
        let mut a = vec![0u64; total];
        merge_into_slice(&refs, &mut a);
        let mut b = vec![0u64; total];
        parallel_merge(&refs, &mut b, ways, 1);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn loser_tree_iterator_is_sorted_and_complete(runs in arb_runs()) {
        let refs: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
        let total: usize = runs.iter().map(|r| r.len()).sum();
        let lt = LoserTree::new(refs);
        let out: Vec<u64> = lt.collect();
        prop_assert_eq!(out.len(), total);
        prop_assert!(out.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn extsort_and_quicksort_agree_with_std(
        mut v in proptest::collection::vec(any::<u64>(), 0..20_000),
        run_elems in 2usize..4096,
        fanout in 2usize..32,
    ) {
        let mut expect = v.clone();
        expect.sort_unstable();

        let tl1 = tl();
        let mut data = v.clone();
        let mut scratch = vec![0u64; data.len()];
        let cfg = ExtSortConfig {
            run_elems: Some(run_elems),
            fanout: Some(fanout),
            ..Default::default()
        };
        let out = external_sort(&tl1, RegionLevel::Near, &mut data, &mut scratch, &cfg);
        let result = if out.in_scratch { &scratch } else { &data };
        prop_assert_eq!(result, &expect);

        let tl2 = tl();
        external_quicksort(&tl2, RegionLevel::Near, &mut v, 4);
        prop_assert_eq!(&v, &expect);
    }

    #[test]
    fn nmsort_both_chunk_sorters_agree(
        v in proptest::collection::vec(any::<u64>(), 0..30_000),
        chunk in 64usize..8_000,
    ) {
        let mut expect = v.clone();
        expect.sort_unstable();
        for sorter in [ChunkSorter::MultiwayMerge, ChunkSorter::Quicksort] {
            let tl = tl();
            let input = tl.far_from_vec(v.clone());
            let cfg = NmSortConfig {
                chunk_elems: Some(chunk),
                chunk_sorter: sorter,
                threads: 1,
                ..Default::default()
            };
            let r = nmsort(&tl, input, &cfg).unwrap();
            prop_assert_eq!(r.output.as_slice_uncharged(), expect.as_slice());
        }
    }

    #[test]
    fn baseline_cost_grows_with_input(
        n1 in 1_000usize..10_000,
        grow in 2usize..4,
    ) {
        let run = |n: usize| {
            let tl = tl();
            let v: Vec<u64> = (0..n as u64).rev().collect();
            baseline_sort(&tl, tl.far_from_vec(v), &BaselineConfig {
                sim_lanes: 4,
                threads: 1,
                ..Default::default()
            }).unwrap();
            tl.ledger().snapshot().far_bytes
        };
        let small = run(n1);
        let big = run(n1 * grow);
        prop_assert!(big > small, "cost must grow: {} vs {}", small, big);
    }

    #[test]
    fn sort_works_for_key_value_pairs(
        v in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..20_000),
    ) {
        // The library is generic over Ord + Copy: records sort too.
        let v: Vec<(u32, u32)> = v;
        let mut expect = v.clone();
        expect.sort_unstable();
        let tl = tl();
        let input = tl.far_from_vec(v);
        let r = nmsort(&tl, input, &NmSortConfig {
            threads: 1,
            ..Default::default()
        }).unwrap();
        prop_assert_eq!(r.output.as_slice_uncharged(), expect.as_slice());
    }
}
