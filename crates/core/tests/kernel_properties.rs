//! Differential property tests for the kernel layer.
//!
//! Two oracles, two directions:
//! * `radix_sort` / `sort_kernel` must agree with `slice::sort_unstable`
//!   on every workload shape the experiments use — uniform, sorted,
//!   reverse, nearly-sorted, few-distinct, Zipf, all-equal, sawtooth —
//!   and for every [`RadixKey`] type (`u64`, `u32`, `i64` with negatives).
//! * The branchless [`LoserTree`] must be observationally identical to the
//!   pre-rewrite [`ReferenceLoserTree`]: same emitted sequence *and* same
//!   comparison count, on randomized run sets including empty runs.
//! * `merge_cost` must equal the comparisons the loser-tree kernel counts,
//!   and the pair-tree kernel must emit the loser tree's output, on run
//!   sets shaped like every merge the sorters issue. `merge_into_slice`'s
//!   tree-free fast paths (all runs empty, one key value) must emit the
//!   loser tree's exact sequence — payloads included — and charge its
//!   count. NMsort's in-place Phase 1 must sort under the DMA pipeline's
//!   fault ladders.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tlmm_core::kernels::reference::{merge_into_slice_ref, ReferenceLoserTree};
use tlmm_core::kernels::{radix_sort, sort_kernel, RadixKey};
use tlmm_core::losertree::{
    merge_cost, merge_into_slice, merge_pair_tree, merge_with_loser_tree, LoserTree, PREMERGE_MAX,
};
use tlmm_core::nmsort::{nmsort, NmSortConfig};
use tlmm_model::ScratchpadParams;
use tlmm_scratchpad::{FaultOp, FaultPlan, TwoLevel};
use tlmm_testkit::KERNEL_SHAPES as SHAPES;
use tlmm_workloads::generate;

fn check_radix<T: RadixKey + std::fmt::Debug>(mut v: Vec<T>) {
    let mut expect = v.clone();
    expect.sort_unstable();
    radix_sort(&mut v);
    assert_eq!(v, expect);
}

fn arb_runs() -> impl Strategy<Value = Vec<Vec<u64>>> {
    proptest::collection::vec(
        proptest::collection::vec(0u64..500, 0..300).prop_map(|mut v| {
            v.sort_unstable();
            v
        }),
        0..14,
    )
}

/// One sorted run of `len` keys in one of five shapes: empty, all equal,
/// Zipf-like plateaus (long equal-key stretches of varied length), dense
/// keys from a small range, or sparse keys from the full range.
fn shaped_run(rng: &mut StdRng, len: usize) -> Vec<u64> {
    let mut v: Vec<u64> = match rng.gen_range(0..5) {
        0 => Vec::new(),
        1 => vec![rng.gen_range(0..8); len],
        2 => {
            let mut key = rng.gen_range(0..4u64);
            let mut left = 0usize;
            (0..len)
                .map(|_| {
                    if left == 0 {
                        key += rng.gen_range(1..3);
                        left = 1 << rng.gen_range(0..10);
                    }
                    left -= 1;
                    key
                })
                .collect()
        }
        3 => (0..len).map(|_| rng.gen_range(0..64)).collect(),
        _ => (0..len).map(|_| rng.gen()).collect(),
    };
    v.sort_unstable();
    v
}

/// Up to `k_max` runs whose lengths reach `len_max` (so mean run lengths
/// fall on both sides of the pair-tree gate), plus `long` runs just
/// inside or just past [`PREMERGE_MAX`] at random positions.
fn merge_shape(seed: u64, k_max: usize, len_max: usize, long: usize) -> Vec<Vec<u64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let k = rng.gen_range(1..=k_max);
    let mut runs: Vec<Vec<u64>> = (0..k)
        .map(|_| {
            let len = rng.gen_range(0..=len_max);
            shaped_run(&mut rng, len)
        })
        .collect();
    for _ in 0..long {
        let len = PREMERGE_MAX - 1 + rng.gen_range(0..3);
        let at = rng.gen_range(0..=runs.len());
        let run = shaped_run(&mut rng, len);
        runs.insert(at, run);
    }
    runs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn merge_cost_and_both_kernels_agree_with_the_loser_tree(
        seed in any::<u64>(),
        k_max in 0usize..3,
        len_max in 0usize..3,
        long in 0usize..3,
    ) {
        let runs = merge_shape(seed, [6, 40, 300][k_max], [16, 96, 600][len_max], long);
        let refs: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
        let mut expect: Vec<u64> = runs.concat();
        expect.sort_unstable();
        let mut lt_out = vec![0u64; expect.len()];
        let counted = merge_with_loser_tree(&refs, &mut lt_out);
        prop_assert_eq!(&lt_out, &expect);
        prop_assert_eq!(merge_cost(&refs), counted);
        let mut pt_out = vec![0u64; expect.len()];
        merge_pair_tree(&refs, &mut pt_out);
        prop_assert_eq!(&pt_out, &expect);
        let mut out = vec![0u64; expect.len()];
        prop_assert_eq!(merge_into_slice(&refs, &mut out), counted);
        prop_assert_eq!(out, expect);
    }

    #[test]
    fn radix_matches_std_on_all_workload_shapes(
        shape_idx in 0usize..SHAPES.len(),
        n in 0usize..6_000,
        seed in any::<u64>(),
    ) {
        let v = generate(SHAPES[shape_idx], n, seed);
        check_radix(v);
    }

    #[test]
    fn radix_matches_std_for_all_key_types(
        v in proptest::collection::vec(any::<u64>(), 0..4_000),
    ) {
        // Reinterpret the same bits as each key type; i64 halves are
        // negative, exercising the sign-flip transform.
        check_radix(v.clone());
        check_radix(v.iter().map(|&x| x as u32).collect::<Vec<u32>>());
        check_radix(v.iter().map(|&x| x as i64).collect::<Vec<i64>>());
    }

    #[test]
    fn sort_kernel_matches_std_across_threshold(
        v in proptest::collection::vec(any::<u64>(), 0..2_000),
    ) {
        // Sizes straddle RADIX_MIN_LEN, so both dispatch arms are hit.
        let mut a = v.clone();
        let mut expect = v;
        expect.sort_unstable();
        sort_kernel(&mut a);
        prop_assert_eq!(a, expect);
    }

    #[test]
    fn loser_tree_matches_reference_sequence_and_comparisons(
        runs in arb_runs(),
    ) {
        let refs: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
        let mut new_lt = LoserTree::new(refs.clone());
        let mut old_lt = ReferenceLoserTree::new(refs);
        loop {
            let (a, b) = (new_lt.next_element(), old_lt.next_element());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        prop_assert_eq!(new_lt.comparisons(), old_lt.comparisons());
    }

    #[test]
    fn merge_into_slice_matches_reference(runs in arb_runs()) {
        let refs: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
        let total: usize = runs.iter().map(|r| r.len()).sum();
        let mut a = vec![0u64; total];
        let cmps_new = merge_into_slice(&refs, &mut a);
        let mut b = vec![0u64; total];
        let cmps_old = merge_into_slice_ref(&refs, &mut b);
        prop_assert_eq!(a, b);
        prop_assert_eq!(cmps_new, cmps_old);
    }
}

/// A key with a payload that `Ord` ignores: equal keys are ties, so the
/// payloads show which run each output element came from.
#[derive(Clone, Copy, Debug, Default)]
struct Keyed {
    key: u32,
    payload: u32,
}

impl PartialEq for Keyed {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for Keyed {}

impl PartialOrd for Keyed {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Keyed {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// `merge_into_slice` against the loser-tree kernel on `runs`: the same
/// elements with the same payloads in the same order, and the same count,
/// which is also `merge_cost`.
fn assert_matches_loser_tree(runs: &[Vec<Keyed>]) {
    let refs: Vec<&[Keyed]> = runs.iter().map(Vec::as_slice).collect();
    let total = runs.iter().map(Vec::len).sum();
    let mut expect = vec![Keyed::default(); total];
    let counted = merge_with_loser_tree(&refs, &mut expect);
    let mut out = vec![Keyed::default(); total];
    assert_eq!(merge_into_slice(&refs, &mut out), counted);
    assert_eq!(merge_cost(&refs), counted);
    let pairs = |v: &[Keyed]| v.iter().map(|x| (x.key, x.payload)).collect::<Vec<_>>();
    assert_eq!(pairs(&out), pairs(&expect));
}

#[test]
fn all_empty_merges_cost_nothing_up_to_k_4096() {
    for k in [2usize, 3, 64, 1_000, 4_096] {
        let runs = vec![Vec::<Keyed>::new(); k];
        assert_matches_loser_tree(&runs);
        let refs: Vec<&[Keyed]> = runs.iter().map(Vec::as_slice).collect();
        assert_eq!(merge_into_slice(&refs, &mut []), 0, "k={k}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// Single-key run sets with empty runs in between, up to k = 4096, and
    /// near misses where one key differs (no fast path).
    #[test]
    fn single_key_merges_match_the_loser_tree(
        seed in any::<u64>(),
        k_max in 0usize..3,
        near_miss in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let k = rng.gen_range(2..=[8, 300, 4_096][k_max]);
        let key = rng.gen_range(1..u32::MAX - 1);
        let mut runs: Vec<Vec<Keyed>> = (0..k)
            .map(|r| {
                let len = if rng.gen_bool(0.5) { 0 } else { rng.gen_range(1..40) };
                (0..len)
                    .map(|i| Keyed {
                        key,
                        payload: (r * 64 + i) as u32,
                    })
                    .collect()
            })
            .collect();
        if near_miss {
            let r = rng.gen_range(0..k);
            let bump = rng.gen_bool(0.5);
            let run = &mut runs[r];
            let odd = Keyed {
                key: if bump { key + 1 } else { key - 1 },
                payload: u32::MAX,
            };
            if bump {
                run.push(odd);
            } else {
                run.insert(0, odd);
            }
        }
        assert_matches_loser_tree(&runs);
    }
}

/// NMsort sorts in place through the DMA pipeline (`use_dma`, two host
/// threads, several chunks) while injected DMA-issue aborts demote
/// ingests to blocking copies and near-allocation refusals drive the
/// chunk-shrink ladder.
#[test]
fn in_place_phase1_sorts_under_dma_and_alloc_faults() {
    for seed in 0..6u64 {
        let tl = TwoLevel::new(ScratchpadParams::new(64, 4.0, 1 << 20, 16 << 10).unwrap());
        let mut plan = FaultPlan::none(seed);
        plan.dma_abort_permille = 400;
        plan.near_alloc_fail_permille = 300;
        plan.fail_nth = vec![(FaultOp::NearAlloc, 0), (FaultOp::DmaIssue, 1)];
        plan.max_faults = Some(12);
        tl.install_fault_plan(plan);
        let v = generate(SHAPES[seed as usize % SHAPES.len()], 60_000, seed);
        let mut expect = v.clone();
        expect.sort_unstable();
        let cfg = NmSortConfig {
            use_dma: true,
            threads: 2,
            chunk_elems: Some(8_000),
            ..Default::default()
        };
        let r = nmsort(&tl, tl.far_from_vec(v), &cfg).unwrap();
        assert!(r.chunks >= 8, "seed {seed}: {} chunks", r.chunks);
        let d = r.degradations;
        assert!(
            d.chunk_shrinks > 0 && d.dma_fallbacks > 0,
            "seed {seed}: {d:?}"
        );
        assert_eq!(r.output.as_slice_uncharged(), &expect[..], "seed {seed}");
    }
}
