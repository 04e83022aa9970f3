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
            let cmps = simd::merge_pair(&a, &b, &mut out);
            (out, cmps)
        });
        let mut expect = v.clone();
        expect.sort_unstable();
        let cost = simd::pair_merge_cost(&a, &b);
        prop_assert_eq!(&off, &(expect.clone(), cost));
        prop_assert_eq!(&on, &(expect, cost));
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
        // The k-way merge pre-merges short runs through the dispatched
        // pair kernel but charges the analytic model, so both the output
        // and the comparison ledger must be dispatch-independent.
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
