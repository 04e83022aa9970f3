//! Differential property tests for the kernel layer.
//!
//! Two oracles, two directions:
//! * `radix_sort` / `sort_kernel` must agree with `slice::sort_unstable`
//!   on every workload shape the experiments use — uniform, sorted,
//!   reverse, nearly-sorted, few-distinct, Zipf, all-equal, sawtooth —
//!   and for every [`RadixKey`] type (`u64`, `u32`, `i64` with negatives).
//! * `merge_cost` must equal the reference count, [`merge_cost_ref`]: the
//!   pair pre-merge plan's pairs merged by a counted two-way loop, then
//!   `ReferenceLoserTree` played over the plan's leaves. It shares no
//!   counting code with `merge_cost`. `merge_into_slice` must charge that
//!   count and emit the sorted union at every SIMD tier the host has, on run
//!   sets shaped like every merge the sorters issue, from thousands of
//!   runs of 0–2 keys to runs past the pair pre-merge limit. Every
//!   executor path — all runs empty, one key value, plateau runs, eight or
//!   more runs — must keep equal keys in run order, payloads included.
//!   NMsort's in-place Phase 1 must sort under the DMA pipeline's fault
//!   ladders.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;
use tlmm_core::kernels::reference::{merge_cost_ref, merge_into_slice_ref};
use tlmm_core::kernels::simd::{self, Tier};
use tlmm_core::kernels::{radix_sort, sort_kernel, RadixKey};
use tlmm_core::losertree::{merge_cost, merge_into_slice, PREMERGE_MAX};
use tlmm_core::nmsort::{nmsort, NmSortConfig};
use tlmm_model::ScratchpadParams;
use tlmm_scratchpad::{FaultOp, FaultPlan, TwoLevel};
use tlmm_testkit::KERNEL_SHAPES as SHAPES;
use tlmm_workloads::generate;

/// Serializes dispatch switches: the tier is process-global and these
/// tests run on the harness's thread pool.
static DISPATCH: Mutex<()> = Mutex::new(());

/// Run `f` at every tier the host has, under [`DISPATCH`], restoring the
/// tier after; returns each tier's result. Each tier is asserted to be
/// the one dispatch runs after `f`, so no other test switched it.
fn every_tier<R>(mut f: impl FnMut() -> R) -> Vec<(Tier, R)> {
    let _guard = tlmm_testkit::serial_guard(&DISPATCH);
    let initial = simd::tier();
    let results = Tier::ALL
        .into_iter()
        .filter(|&t| t <= simd::host_tier())
        .map(|tier| {
            assert_eq!(simd::set_tier(tier), tier);
            let r = f();
            assert_eq!(simd::tier(), tier, "dispatch changed under f");
            (tier, r)
        })
        .collect();
    simd::set_tier(initial);
    results
}

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

/// Up to `k_max` runs whose lengths reach `len_max` (so both short and
/// vector-length nodes occur), plus `long` runs just inside or just past
/// [`PREMERGE_MAX`] at random positions.
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
    fn merge_cost_matches_the_played_tree_and_is_charged(
        seed in any::<u64>(),
        k_max in 0usize..4,
        len_max in 0usize..4,
        long in 0usize..3,
    ) {
        // Up to 4,096 runs only of up to 16 keys, to keep a case small.
        let k_max = [6, 40, 300, 4_096][k_max];
        let len_max = [2, 16, 96, 600][if k_max > 300 { len_max.min(1) } else { len_max }];
        let runs = merge_shape(seed, k_max, len_max, long);
        let refs: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
        let mut expect: Vec<u64> = runs.concat();
        expect.sort_unstable();
        let played = merge_cost_ref(&refs);
        let merged = every_tier(|| {
            let mut out = vec![0u64; expect.len()];
            let charged = merge_into_slice(&refs, &mut out);
            (merge_cost(&refs), charged, out)
        });
        for (tier, (cost, charged, out)) in merged {
            prop_assert_eq!(cost, played, "merge_cost, {}", tier.name());
            prop_assert_eq!(charged, played, "merge_into_slice, {}", tier.name());
            prop_assert_eq!(&out, &expect, "merge_into_slice, {}", tier.name());
        }
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

/// `merge_into_slice` on `runs`: the elements of the runs stably sorted
/// by key, so equal keys come in run order with their payloads, and the
/// charge is the played reference count, which is also `merge_cost`.
fn assert_merges_in_run_order(runs: &[Vec<Keyed>]) {
    let refs: Vec<&[Keyed]> = runs.iter().map(Vec::as_slice).collect();
    let mut expect = runs.concat();
    expect.sort();
    let played = merge_cost_ref(&refs);
    assert_eq!(merge_cost(&refs), played);
    let pairs = |v: &[Keyed]| v.iter().map(|x| (x.key, x.payload)).collect::<Vec<_>>();
    let mut out = vec![Keyed::default(); expect.len()];
    assert_eq!(merge_into_slice(&refs, &mut out), played);
    assert_eq!(pairs(&out), pairs(&expect));
}

#[test]
fn all_empty_merges_cost_nothing_up_to_k_4096() {
    for k in [2usize, 3, 64, 1_000, 4_096] {
        let runs = vec![Vec::<Keyed>::new(); k];
        assert_merges_in_run_order(&runs);
        let refs: Vec<&[Keyed]> = runs.iter().map(Vec::as_slice).collect();
        assert_eq!(merge_into_slice(&refs, &mut []), 0, "k={k}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// Single-key run sets with empty runs in between, up to k = 4096, and
    /// near misses where one key differs (no concatenation).
    #[test]
    fn single_key_merges_keep_run_order(
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
        assert_merges_in_run_order(&runs);
    }

    /// Merges that used to take a loser tree: runs with equal-key plateaus
    /// long enough to stay out of the pair plan, among shorter runs, at
    /// fan-ins from 2 to past 8.
    #[test]
    fn plateau_and_wide_merges_keep_run_order(
        seed in any::<u64>(),
        k in 2usize..24,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let runs: Vec<Vec<Keyed>> = (0..k)
            .map(|r| {
                let (len, plateau) = match rng.gen_range(0..4) {
                    0 => (0, 1),
                    1 => (rng.gen_range(1..40), 1),
                    _ => (rng.gen_range(128..1_500), rng.gen_range(32..400)),
                };
                let base = rng.gen_range(0..8u32);
                (0..len)
                    .map(|i| Keyed {
                        key: base + (i / plateau) as u32,
                        payload: (r * 2_048 + i) as u32,
                    })
                    .collect()
            })
            .collect();
        assert_merges_in_run_order(&runs);
    }
}

/// Merges of more radix keys than one cache-sized piece (32Ki keys) that
/// the executor sorts rather than merges — many runs, or a mean run too
/// short for the merge tree — and, above 256Ki keys, are cut into pieces
/// first. At every tier
/// they emit a stable sort of the runs and charge the played count, for
/// each radix key type.
#[test]
fn many_run_merges_above_a_piece_match_a_stable_sort() {
    let mut rng = StdRng::seed_from_u64(0x91EC);
    for (k, mean) in [
        (70, 600),
        (218, 300),
        (12, 4_000),
        (200, 200),
        (64, 4_500),
        (600, 480),
    ] {
        for range in [u64::MAX, 100] {
            let runs: Vec<Vec<u64>> = (0..k)
                .map(|_| {
                    let len = rng.gen_range(mean / 2..=mean * 3 / 2);
                    let mut run: Vec<u64> = (0..len).map(|_| rng.gen_range(0..range)).collect();
                    run.sort_unstable();
                    run
                })
                .collect();
            assert!(runs.iter().map(Vec::len).sum::<usize>() > 1 << 15);
            check_merge_every_tier(&runs);
            let as_u32 = |k: &u64| *k as u32;
            let narrow: Vec<Vec<u32>> = runs
                .iter()
                .map(|r| {
                    let mut r: Vec<u32> = r.iter().map(as_u32).collect();
                    r.sort_unstable();
                    r
                })
                .collect();
            check_merge_every_tier(&narrow);
            let signed: Vec<Vec<i64>> = runs
                .iter()
                .map(|r| r.iter().map(|&k| k.wrapping_sub(1 << 63) as i64).collect())
                .collect();
            check_merge_every_tier(&signed);
        }
    }
}

/// `merge_into_slice` on `runs` at every tier the host has: a stable sort
/// of the runs, charged the played reference count.
fn check_merge_every_tier<T: tlmm_core::SortElem + std::fmt::Debug>(runs: &[Vec<T>]) {
    let refs: Vec<&[T]> = runs.iter().map(Vec::as_slice).collect();
    let mut expect = runs.concat();
    expect.sort();
    let played = merge_cost_ref(&refs);
    let merged = every_tier(|| {
        let mut out = vec![T::default(); expect.len()];
        (merge_into_slice(&refs, &mut out), out)
    });
    for (tier, (charged, out)) in merged {
        assert_eq!(charged, played, "{} runs, {}", runs.len(), tier.name());
        assert!(out == expect, "{} runs, {}", runs.len(), tier.name());
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
