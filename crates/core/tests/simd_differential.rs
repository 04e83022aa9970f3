//! Differential tests: every runtime-dispatched SIMD kernel against its
//! scalar definition, on the same inputs, in the same process.
//!
//! The scalar forms in `kernels::simd::scalar` are the semantic spec; the
//! AVX2 forms must be observationally identical. Each property here runs a
//! kernel twice — dispatch forced off, then forced on (asserted to take the
//! vector path whenever the host reports AVX2) — and asserts equal
//! outputs, across all eight experiment workload shapes and the three
//! `RadixKey` types (`u64`, `u32`, `i64`). On hosts without AVX2 the
//! force-on is a no-op and the comparisons hold trivially; CI also runs the
//! whole kernel suite under `TLMM_NO_SIMD=1` so the scalar-only binary
//! stays exercised.
//!
//! The dispatch flag is process-global, so every toggle happens under one
//! test-local mutex — the rest of the suite never toggles it.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;
use tlmm_core::kernels::simd;
use tlmm_core::kernels::{radix_sort, sort_kernel, RadixKey};
use tlmm_core::losertree::merge_into_slice;
use tlmm_testkit::KERNEL_SHAPES as SHAPES;
use tlmm_workloads::generate;

/// Serializes dispatch toggles: the SIMD on/off state is process-global
/// and these tests run on the harness's thread pool.
static DISPATCH: Mutex<()> = Mutex::new(());

/// Does the host report AVX2, the vector path's one requirement?
fn host_has_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Run `f` with SIMD forced off, then forced on (when the host allows),
/// restoring the startup decision after; returns both results. The "on"
/// half is asserted to run vectorized whenever the host reports AVX2, so
/// the comparison cannot silently pit the scalar path against itself.
fn both_paths<R>(f: impl Fn() -> R) -> (R, R) {
    let _guard = tlmm_testkit::serial_guard(&DISPATCH);
    let initial = simd::enabled();
    simd::set_enabled(false);
    let off = f();
    assert_eq!(
        simd::set_enabled(true),
        host_has_avx2(),
        "the vector path must be on exactly when the host reports AVX2"
    );
    let on = f();
    assert_eq!(simd::enabled(), host_has_avx2(), "dispatch changed under f");
    simd::set_enabled(initial);
    (off, on)
}

/// `simd::sort_short` and `sort_kernel` with dispatch off and on, each
/// equal to `sort_unstable`.
fn check_short_sort(v: &[u64]) {
    let (off, on) = both_paths(|| {
        let mut short = v.to_vec();
        simd::sort_short(&mut short);
        let mut kernel = v.to_vec();
        sort_kernel(&mut kernel);
        (short, kernel)
    });
    let mut expect = v.to_vec();
    expect.sort_unstable();
    let expect = (expect.clone(), expect);
    assert_eq!(off, expect, "scalar short sort mismatch on {v:?}");
    assert_eq!(on, expect, "SIMD short sort mismatch on {v:?}");
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

/// `sort_kernel` on `v`, SIMD off and on, against `sort_unstable`.
fn check_kernel_both_paths<T: tlmm_core::SortElem + std::fmt::Debug>(v: &[T]) {
    let (off, on) = both_paths(|| {
        let mut data = v.to_vec();
        sort_kernel(&mut data);
        data
    });
    let mut expect = v.to_vec();
    expect.sort_unstable();
    assert_eq!(
        off,
        expect,
        "scalar sort_kernel mismatch at n = {}",
        v.len()
    );
    assert_eq!(on, expect, "SIMD sort_kernel mismatch at n = {}", v.len());
}

/// `v` as `u64`, `u32` (low halves), sign-crossing `i64` (shifted by
/// 2^63) and `(u64, u64)` pairs, each through [`check_kernel_both_paths`].
fn check_kernel_all_types(v: &[u64]) {
    check_kernel_both_paths(v);
    check_kernel_both_paths(&v.iter().map(|&k| k as u32).collect::<Vec<_>>());
    check_kernel_both_paths(
        &v.iter()
            .map(|&k| k.wrapping_sub(1 << 63) as i64)
            .collect::<Vec<_>>(),
    );
    check_kernel_both_paths(&v.iter().map(|&k| (k % 7, k)).collect::<Vec<_>>());
}

fn check_sorted_scans<T: tlmm_core::SortElem + std::fmt::Debug>(sorted: &[T], pivot: &T) {
    let (off, on) = both_paths(|| {
        (
            simd::partition_point_le(sorted, pivot),
            simd::count_le(sorted, pivot),
        )
    });
    assert_eq!(off, on, "scan kernels diverged at pivot {pivot:?}");
    // Both equal the `partition_point` definition.
    let want = sorted.partition_point(|x| x <= pivot);
    assert_eq!(off, (want, want));
}

fn check_radix_both_paths<T: RadixKey + std::fmt::Debug>(v: &[T]) {
    let (off, on) = both_paths(|| {
        let mut data = v.to_vec();
        radix_sort(&mut data);
        data
    });
    let mut expect = v.to_vec();
    expect.sort_unstable();
    assert_eq!(off, expect, "scalar radix_sort mismatch");
    assert_eq!(on, expect, "SIMD radix_sort mismatch");
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
        check_radix_both_paths(&v);
    }

    #[test]
    fn radix_passes_agree_for_all_key_types(
        v in proptest::collection::vec(any::<u64>(), 0..3_000),
    ) {
        check_radix_both_paths(&v);
        check_radix_both_paths(&v.iter().map(|&x| x as u32).collect::<Vec<u32>>());
        check_radix_both_paths(&v.iter().map(|&x| x as i64).collect::<Vec<i64>>());
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
        let (off, on) = both_paths(|| {
            let mut out = vec![0u64; v.len()];
            simd::merge_pair(&a, &b, &mut out);
            out
        });
        let mut expect = v.clone();
        expect.sort_unstable();
        prop_assert_eq!(&off, &expect);
        prop_assert_eq!(&on, &expect);
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
        // The k-way merge executes through the dispatched pair kernel but
        // charges a count computed from the runs, so both the output and
        // the comparison ledger must be dispatch-independent.
        let refs: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
        let total: usize = runs.iter().map(|r| r.len()).sum();
        let ((out_off, cmps_off), (out_on, cmps_on)) = both_paths(|| {
            let mut out = vec![0u64; total];
            let cmps = merge_into_slice(&refs, &mut out);
            (out, cmps)
        });
        prop_assert_eq!(out_off, out_on);
        prop_assert_eq!(cmps_off, cmps_on);
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
                check_kernel_both_paths(&keys);
                let signed: Vec<i64> = keys.iter().map(|&k| (k ^ (1 << 63)) as i64).collect();
                check_kernel_both_paths(&signed);
                check_kernel_both_paths(&keys.iter().map(|&k| (k >> 7, k)).collect::<Vec<_>>());
                let narrow = bucket_sized_keys(width, 32, sizes, rng.gen());
                check_kernel_both_paths(&narrow.iter().map(|&k| k as u32).collect::<Vec<_>>());
            }
        }
    }
}
