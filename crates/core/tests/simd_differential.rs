//! Differential tests: every runtime-dispatched SIMD kernel against its
//! scalar definition, on the same inputs, in the same process.
//!
//! The scalar forms in `kernels::simd::scalar` are the semantic spec; the
//! vector forms must give the same outputs. Each property here runs a
//! kernel once at every tier the host has — scalar, AVX2 and AVX-512,
//! each asserted to run whenever CPUID reports it — and asserts that
//! every tier's output equals the definition, across all eight experiment
//! workload shapes and the three `RadixKey` types (`u64`, `u32`, `i64`).
//! On a host without a tier its run is skipped, and
//! `tiers_exercised` prints which tiers ran (visible with
//! `--nocapture`); CI also runs the whole kernel suite under
//! `TLMM_NO_SIMD=1` so the scalar-only binary stays exercised.
//!
//! The dispatch tier is process-global, so every switch happens under
//! one test-local mutex — the rest of the suite never switches it.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;
use tlmm_core::kernels::reference::merge_cost_ref;
use tlmm_core::kernels::simd::{self, Tier};
use tlmm_core::kernels::{radix_sort, sort_kernel, RadixKey};
use tlmm_core::losertree::merge_into_slice;
use tlmm_testkit::KERNEL_SHAPES as SHAPES;
use tlmm_workloads::generate;

/// Serializes dispatch switches: the tier is process-global and these
/// tests run on the harness's thread pool.
static DISPATCH: Mutex<()> = Mutex::new(());

/// The tiers CPUID reports, read here independently of the dispatcher:
/// scalar always, AVX2 with `avx2`, AVX-512 with `avx2` and `avx512f`.
fn host_tiers() -> Vec<Tier> {
    let mut tiers = vec![Tier::Scalar];
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        tiers.push(Tier::Avx2);
        if std::is_x86_feature_detected!("avx512f") {
            tiers.push(Tier::Avx512);
        }
    }
    tiers
}

/// Run `f` at every tier of [`host_tiers`], restoring the startup
/// decision after; returns each tier's result. Each tier is asserted to
/// be the one dispatch runs, so a comparison cannot silently pit the
/// scalar path against itself.
fn every_tier<R>(f: impl Fn() -> R) -> Vec<(Tier, R)> {
    let _guard = tlmm_testkit::serial_guard(&DISPATCH);
    let initial = simd::tier();
    let results = host_tiers()
        .into_iter()
        .map(|tier| {
            assert_eq!(simd::set_tier(tier), tier, "CPUID reports {tier:?}");
            let r = f();
            assert_eq!(simd::tier(), tier, "dispatch changed under f");
            (tier, r)
        })
        .collect();
    simd::set_tier(initial);
    results
}

/// Assert that every tier's result in `results` equals `expect`.
fn assert_every_tier<R: PartialEq + std::fmt::Debug>(
    results: Vec<(Tier, R)>,
    expect: &R,
    what: &str,
) {
    for (tier, got) in results {
        assert_eq!(&got, expect, "{what}: {} differs", tier.name());
    }
}

#[test]
fn tiers_exercised() {
    let ran: Vec<&str> = every_tier(simd::tier)
        .into_iter()
        .map(|(tier, active)| {
            assert_eq!(tier, active);
            tier.name()
        })
        .collect();
    assert_eq!(simd::host_tier(), *host_tiers().last().expect("scalar"));
    println!("simd_differential: tiers exercised: {}", ran.join(", "));
}

/// `simd::sort_short` and `sort_kernel` at every tier, each equal to
/// `sort_unstable`.
fn check_short_sort(v: &[u64]) {
    let results = every_tier(|| {
        let mut short = v.to_vec();
        simd::sort_short(&mut short);
        let mut kernel = v.to_vec();
        sort_kernel(&mut kernel);
        (short, kernel)
    });
    let mut expect = v.to_vec();
    expect.sort_unstable();
    let expect = (expect.clone(), expect);
    assert_every_tier(results, &expect, &format!("short sort of {v:?}"));
}

#[test]
fn short_sorts_agree_at_every_length() {
    for len in 0..=simd::SHORT_MAX + 1 {
        let ramp: Vec<u64> = (0..len as u64).collect();
        let half = len as u64 / 2;
        let fixed = [
            vec![42; len],
            ramp.clone(),
            ramp.iter().rev().copied().collect(),
            // The pad value itself, alone and among small keys.
            vec![u64::MAX; len],
            ramp.iter()
                .map(|&i| if i % 3 == 0 { u64::MAX } else { i })
                .collect(),
            // Keys on both sides of the sign bit the vector path flips.
            ramp.iter()
                .map(|&i| (1u64 << 63).wrapping_add(i).wrapping_sub(half))
                .collect(),
            ramp.iter()
                .rev()
                .map(|&i| {
                    if i % 2 == 0 {
                        (1u64 << 63) + i
                    } else {
                        (1u64 << 63) - 1 - i
                    }
                })
                .collect(),
        ];
        for v in &fixed {
            check_short_sort(v);
        }
        for shape in SHAPES {
            for seed in 0..4 {
                check_short_sort(&generate(shape, len, seed));
            }
        }
    }
}

/// Keys whose first radix scatter, on the register path (`u64`, SIMD on:
/// a digit of `⌈lg n⌉ − 5` bits), puts exactly `sizes[d % sizes.len()]`
/// keys in bucket `d` of `2^width`, with the last bucket padded so that
/// `n` gives that width. Bucket `d`'s keys hold `d` in their top `width`
/// of `bits` bits and random bits below the digit, so the min/max
/// prefix is empty, no counting or dense-head path applies and no bucket
/// is a skew.
fn bucket_sized_keys(width: u32, bits: u32, sizes: &[usize], seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let buckets = 1usize << width;
    let mut counts: Vec<usize> = (0..buckets).map(|d| sizes[d % sizes.len()]).collect();
    counts[0] = counts[0].max(1);
    let n: usize = counts.iter().sum();
    // ⌈lg n⌉ − 5 == width ⇔ 2^(width + 4) < n ≤ 2^(width + 5).
    counts[buckets - 1] += ((1usize << (width + 4)) + 1).saturating_sub(n).max(1);
    let n: usize = counts.iter().sum();
    assert!(
        n > 1 << (width + 4) && n <= 1 << (width + 5),
        "width {width}: n = {n}"
    );
    let low = bits - width;
    let mut keys: Vec<u64> = counts
        .iter()
        .enumerate()
        .flat_map(|(d, &c)| vec![d as u64; c])
        .map(|d| (d << low) | (rng.gen::<u64>() >> (64 - low)))
        .collect();
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.gen_range(0..=i));
    }
    keys
}

/// `sort_kernel` on `v`, at every tier, against `sort_unstable`.
fn check_kernel_every_tier<T: tlmm_core::SortElem + std::fmt::Debug>(v: &[T]) {
    let results = every_tier(|| {
        let mut data = v.to_vec();
        sort_kernel(&mut data);
        data
    });
    let mut expect = v.to_vec();
    expect.sort_unstable();
    assert_every_tier(results, &expect, &format!("sort_kernel at n = {}", v.len()));
}

/// `v` as `u64`, `u32` (low halves), sign-crossing `i64` (shifted by
/// 2^63) and `(u64, u64)` pairs, each through [`check_kernel_every_tier`].
fn check_kernel_all_types(v: &[u64]) {
    check_kernel_every_tier(v);
    check_kernel_every_tier(&v.iter().map(|&k| k as u32).collect::<Vec<_>>());
    check_kernel_every_tier(
        &v.iter()
            .map(|&k| k.wrapping_sub(1 << 63) as i64)
            .collect::<Vec<_>>(),
    );
    check_kernel_every_tier(&v.iter().map(|&k| (k % 7, k)).collect::<Vec<_>>());
}

fn check_sorted_scans<T: tlmm_core::SortElem + std::fmt::Debug>(sorted: &[T], pivot: &T) {
    let results = every_tier(|| {
        (
            simd::partition_point_le(sorted, pivot),
            simd::count_le(sorted, pivot),
        )
    });
    // Every tier equals the `partition_point` definition.
    let want = sorted.partition_point(|x| x <= pivot);
    assert_every_tier(results, &(want, want), &format!("scans at pivot {pivot:?}"));
}

fn check_radix_every_tier<T: RadixKey + std::fmt::Debug>(v: &[T]) {
    let results = every_tier(|| {
        let mut data = v.to_vec();
        radix_sort(&mut data);
        data
    });
    let mut expect = v.to_vec();
    expect.sort_unstable();
    assert_every_tier(results, &expect, "radix_sort");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn boundary_scans_agree_on_all_shapes(
        shape_idx in 0usize..SHAPES.len(),
        n in 0usize..3_000,
        seed in any::<u64>(),
        pick in any::<u64>(),
    ) {
        let mut v = generate(SHAPES[shape_idx], n, seed);
        v.sort_unstable();
        // Pivots: an element (hits long equal prefixes), its neighbors,
        // and the extremes (empty / full prefix).
        let mut pivots = vec![0u64, u64::MAX];
        if !v.is_empty() {
            let p = v[(pick % v.len() as u64) as usize];
            pivots.extend([p, p.wrapping_sub(1), p.saturating_add(1)]);
        }
        for p in pivots {
            check_sorted_scans(&v, &p);
        }
    }

    #[test]
    fn boundary_scans_agree_for_all_key_types(
        v in proptest::collection::vec(any::<u64>(), 0..2_000),
        pick in any::<u64>(),
    ) {
        let pivot = if v.is_empty() { 0 } else { v[(pick % v.len() as u64) as usize] };
        let mut v64 = v.clone();
        v64.sort_unstable();
        check_sorted_scans(&v64, &pivot);
        let mut v32: Vec<u32> = v.iter().map(|&x| x as u32).collect();
        v32.sort_unstable();
        check_sorted_scans(&v32, &(pivot as u32));
        let mut vi: Vec<i64> = v.iter().map(|&x| x as i64).collect();
        vi.sort_unstable();
        check_sorted_scans(&vi, &(pivot as i64));
    }

    #[test]
    fn radix_passes_agree_on_all_shapes(
        shape_idx in 0usize..SHAPES.len(),
        n in 0usize..4_000,
        seed in any::<u64>(),
    ) {
        // End-to-end through the histogram + scatter integration points.
        let v = generate(SHAPES[shape_idx], n, seed);
        check_radix_every_tier(&v);
    }

    #[test]
    fn radix_passes_agree_for_all_key_types(
        v in proptest::collection::vec(any::<u64>(), 0..3_000),
    ) {
        check_radix_every_tier(&v);
        check_radix_every_tier(&v.iter().map(|&x| x as u32).collect::<Vec<u32>>());
        check_radix_every_tier(&v.iter().map(|&x| x as i64).collect::<Vec<i64>>());
    }

    #[test]
    fn merge_pair_agrees_on_all_shapes(
        shape_idx in 0usize..SHAPES.len(),
        n in 0usize..3_000,
        split in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let v = generate(SHAPES[shape_idx], n, seed);
        let cut = (v.len() as f64 * split) as usize;
        let (mut a, mut b) = (v[..cut].to_vec(), v[cut..].to_vec());
        a.sort_unstable();
        b.sort_unstable();
        check_merge_pair(&a, &b);
    }

    #[test]
    fn short_sorts_agree_on_random_keys(
        v in proptest::collection::vec(
            (0u8..4, any::<u64>()).prop_map(|(kind, x)| match kind {
                0 => x,
                1 => x % 8,
                // Around the sign bit, and at the pad value.
                2 => (1u64 << 63) - 4 + x % 8,
                _ => u64::MAX - x % 3,
            }),
            0..simd::SHORT_MAX + 2,
        ),
    ) {
        check_short_sort(&v);
    }

    #[test]
    fn merge_into_slice_output_and_counts_toggle_invariant(
        runs in proptest::collection::vec(
            proptest::collection::vec(0u64..500, 0..300).prop_map(|mut v| {
                v.sort_unstable();
                v
            }),
            0..14,
        ),
    ) {
        check_merge_into_slice(&runs);
    }
}

/// `simd::merge_pair` on sorted `a` and `b` at every tier, against
/// `scalar::merge_pair` and a stable sort of the concatenation.
fn check_merge_pair(a: &[u64], b: &[u64]) {
    let results = every_tier(|| {
        let mut out = vec![0u64; a.len() + b.len()];
        simd::merge_pair(a, b, &mut out);
        out
    });
    let mut expect = vec![0u64; a.len() + b.len()];
    simd::scalar::merge_pair(a, b, &mut expect);
    let mut sorted = [a, b].concat();
    sorted.sort();
    assert_eq!(expect, sorted, "the scalar definition");
    assert_every_tier(
        results,
        &expect,
        &format!("merge_pair of {} + {} keys", a.len(), b.len()),
    );
}

/// `merge_into_slice` on `runs` at every tier: a stable sort of the runs
/// and the played reference count, which no tier may change.
fn check_merge_into_slice(runs: &[Vec<u64>]) {
    // The k-way merge executes through the dispatched pair kernel, the
    // tree-or-sort choice follows the tier, and the charge is computed
    // from the runs, so the output and the count are tier-independent.
    let refs: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
    let mut expect = runs.concat();
    expect.sort();
    let played = merge_cost_ref(&refs);
    let results = every_tier(|| {
        let mut out = vec![0u64; expect.len()];
        let cmps = merge_into_slice(&refs, &mut out);
        (out, cmps)
    });
    let lens: Vec<usize> = runs.iter().map(Vec::len).collect();
    assert_every_tier(
        results,
        &(expect, played),
        &format!("merge of runs {lens:?}"),
    );
}

/// Sorted runs of `len` random keys below `range`, from `rng`.
fn sorted_run(rng: &mut StdRng, len: usize, range: u64) -> Vec<u64> {
    let mut v: Vec<u64> = (0..len).map(|_| rng.gen_range(0..range)).collect();
    v.sort_unstable();
    v
}

/// Side lengths around every threshold of the merge kernels: 0–3 (the
/// scalar merge), 4–9 (one 4-lane stream; 8 fills an AVX-512 register),
/// and around `STREAM_SPLIT_MIN`, where the co-rank cut starts and can
/// leave a half with a side under a register.
fn edge_lengths() -> Vec<usize> {
    let split = simd::STREAM_SPLIT_MIN;
    let mut lens: Vec<usize> = (0..=9).collect();
    lens.extend([
        15,
        16,
        17,
        31,
        32,
        33,
        split / 2 - 1,
        split / 2,
        split / 2 + 1,
    ]);
    lens.extend([split - 9, split - 8, split - 1, split, split + 1, 100, 257]);
    lens.sort_unstable();
    lens.dedup();
    lens
}

#[test]
fn merge_pair_agrees_at_every_edge_length() {
    let mut rng = StdRng::seed_from_u64(0xED6E);
    let lens = edge_lengths();
    for &la in &lens {
        for &lb in &lens {
            // Spread keys, and keys from a small range, whose ties put
            // co-rank cuts inside runs of one value.
            for range in [u64::MAX, 4] {
                let a = sorted_run(&mut rng, la, range);
                let b = sorted_run(&mut rng, lb, range);
                check_merge_pair(&a, &b);
            }
        }
    }
}

#[test]
fn merge_pair_agrees_on_adversarial_shapes() {
    let split = simd::STREAM_SPLIT_MIN;
    let ramp = |from: u64, len: usize| -> Vec<u64> { (from..from + len as u64).collect() };
    let mut cases: Vec<(Vec<u64>, Vec<u64>)> = Vec::new();
    for len in [3, 8, 40, split, 3 * split + 1, 5_000] {
        // One side used up early: disjoint ranges, in both orders, and a
        // side whose keys all fall inside one block of the other.
        cases.push((ramp(0, len), ramp(len as u64, len + 7)));
        cases.push((ramp(len as u64 + 7, len), ramp(0, len + 7)));
        cases.push((ramp(0, len), vec![len as u64 / 2; 5]));
        cases.push((vec![len as u64 / 2; 9], ramp(0, len)));
        // Co-rank cuts inside a run of one key value: all-equal sides,
        // and one plateau spanning the midpoint of the output.
        cases.push((vec![5; len], vec![5; len + 3]));
        let mut a = ramp(0, len);
        a.extend(vec![len as u64; 2 * len]);
        let mut b = vec![len as u64; len];
        b.extend(ramp(len as u64 + 1, len));
        cases.push((a, b));
        // Keys straddling 1 << 63, where a biased signed compare and the
        // unsigned one must agree, and 0 next to u64::MAX.
        let mid = 1u64 << 63;
        let around: Vec<u64> = (0..len as u64).map(|i| mid - len as u64 + 2 * i).collect();
        let odd: Vec<u64> = around.iter().map(|k| k + 1).collect();
        cases.push((around, odd));
        let mut lo_hi = vec![0; len / 2];
        lo_hi.extend(vec![u64::MAX; len - len / 2]);
        cases.push((lo_hi.clone(), vec![0, 1, u64::MAX - 1, u64::MAX]));
        cases.push((lo_hi.clone(), lo_hi));
        // Odd output lengths above the split threshold.
        cases.push((
            ramp(0, len).iter().map(|k| 3 * k).collect(),
            ramp(0, len + 1),
        ));
    }
    for (a, b) in cases {
        check_merge_pair(&a, &b);
        check_merge_pair(&b, &a);
    }
}

#[test]
fn merge_into_slice_agrees_around_the_tree_rule() {
    // Fan-ins and mean run lengths on both sides of the executor's
    // tree-or-sort rule at every tier, and past the piece size.
    let mut rng = StdRng::seed_from_u64(0x7EE);
    for (k, mean) in [
        (7, 511),
        (8, 511),
        (8, 512),
        (15, 600),
        (16, 600),
        (63, 520),
        (64, 520),
        (9, 4_000),
        (70, 600),
    ] {
        for range in [u64::MAX, 64] {
            let runs: Vec<Vec<u64>> = (0..k)
                .map(|r| sorted_run(&mut rng, mean + r % 3, range))
                .collect();
            check_merge_into_slice(&runs);
        }
    }
}

proptest! {
    // Each case sorts every length 0–300 in six shapes and four types.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn register_finishing_matches_sort_unstable(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Every length `sort_kernel` sends to the register sorts, their
        // merged classes and the radix sort's low end.
        for n in 0..=300usize {
            let ramp: Vec<u64> = (0..n as u64).collect();
            let shapes = [
                vec![rng.gen::<u64>(); n],
                ramp.clone(),
                ramp.iter().rev().copied().collect(),
                ramp.iter()
                    .map(|&i| if rng.gen_bool(0.7) { u64::MAX } else { i })
                    .collect(),
                // Keys on both sides of 2^63, where the sign flip acts.
                ramp.iter()
                    .map(|_| (1u64 << 63).wrapping_add(rng.gen_range(0..64)).wrapping_sub(32))
                    .collect(),
                (0..n).map(|_| rng.gen()).collect::<Vec<u64>>(),
            ];
            for v in &shapes {
                check_kernel_all_types(v);
            }
        }
        // Radix inputs whose first-level buckets hold exactly 4, 5, 63, 64
        // or 65 keys on the register path, or sit on the class edges
        // above; the empty buckets keep the mean near the ~32-key target.
        let edges: &[usize] = &[4, 5, 0, 63, 64, 65, 0, 0, 0, 0, 0, 0];
        let classes: &[usize] = &[96, 97, 0, 0, 128, 129, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];
        for width in 4..=8u32 {
            for sizes in [edges, classes] {
                let keys = bucket_sized_keys(width, 64, sizes, rng.gen());
                check_kernel_every_tier(&keys);
                let signed: Vec<i64> = keys.iter().map(|&k| (k ^ (1 << 63)) as i64).collect();
                check_kernel_every_tier(&signed);
                check_kernel_every_tier(&keys.iter().map(|&k| (k >> 7, k)).collect::<Vec<_>>());
                let narrow = bucket_sized_keys(width, 32, sizes, rng.gen());
                check_kernel_every_tier(&narrow.iter().map(|&k| k as u32).collect::<Vec<_>>());
            }
        }
    }
}
