//! Runtime-dispatched vectorized kernels (AVX2 + portable scalar fallback).
//!
//! The hot inner loops of the kernel layer — bucket-boundary scans, the
//! radix sort's histogram and scatter passes, two-way run pre-merging and
//! sorts of at most 256 keys — have a hand-vectorized x86-64 AVX2 form
//! selected **once** at startup via `std::arch` feature detection. Every
//! entry point in this module routes to the AVX2 form when (a) the host
//! supports AVX2, (b) the element type is `u64` (the repo's benchmark key
//! type), and (c) `TLMM_NO_SIMD=1` is not set; otherwise the portable
//! scalar form in [`scalar`] runs. The scalar forms are the semantic
//! definition: the AVX2 forms must be observationally identical (same
//! outputs, same elements inspected), which the differential proptests in
//! `tests/simd_differential.rs` assert across workload shapes and key
//! types.
//!
//! **Cost-ledger invariant.** Dispatch never changes simulated charges:
//! callers charge scan lengths and comparison counts from the *data* (or
//! from the analytic two-way merge model, see [`pair_merge_cost`]), not
//! from which kernel executed. `CostSnapshot` ledgers are byte-identical
//! with SIMD forced off — asserted in-binary by `parallel_bench` and by the
//! golden-ledger replay tests. See DESIGN.md §15.

pub mod scalar;

#[cfg(target_arch = "x86_64")]
pub mod avx2;

use crate::SortElem;
#[cfg(target_arch = "x86_64")]
use core::any::Any;
use std::sync::atomic::{AtomicU8, Ordering};

/// Tri-state dispatch flag: 0 = undecided, 1 = scalar, 2 = AVX2.
static STATE: AtomicU8 = AtomicU8::new(0);

const SCALAR: u8 = 1;
const VECTOR: u8 = 2;

fn host_supports_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Is the vectorized path active? Decided once from host feature detection
/// and the `TLMM_NO_SIMD` environment variable; later calls are one relaxed
/// atomic load.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        0 => {
            let off = std::env::var_os("TLMM_NO_SIMD").is_some_and(|v| v != "0");
            let on = !off && host_supports_avx2();
            STATE.store(if on { VECTOR } else { SCALAR }, Ordering::Relaxed);
            on
        }
        SCALAR => false,
        _ => true,
    }
}

/// Force the dispatch decision (used by benches and differential tests to
/// compare both paths in one process). Enabling on a host without AVX2 is
/// a no-op; returns the resulting state.
pub fn set_enabled(on: bool) -> bool {
    let on = on && host_supports_avx2();
    STATE.store(if on { VECTOR } else { SCALAR }, Ordering::Relaxed);
    on
}

// Each dispatcher below routes its `u64`-specialized AVX2 kernel to the
// generic call site by naming the `u64` `fn` item and `Any`-downcasting the
// pointer to the `T`-typed signature — `Some` exactly when `T == u64` (the
// same trick as `crate::kernels::sort_kernel`'s `route!`).

/// `sorted.partition_point(|x| x <= pivot)`: first index holding an element
/// greater than `pivot`. The vector form finishes the binary search with a
/// SIMD linear scan over the final window; same result either way.
#[inline]
pub fn partition_point_le<T: SortElem>(sorted: &[T], pivot: &T) -> usize {
    #[cfg(target_arch = "x86_64")]
    if enabled() {
        let f: fn(&[u64], &u64) -> usize = avx2::partition_point_le_u64;
        if let Some(f) = <dyn Any>::downcast_ref::<fn(&[T], &T) -> usize>(&f).copied() {
            return f(sorted, pivot);
        }
    }
    scalar::partition_point_le(sorted, pivot)
}

/// Length of the longest prefix of (sorted) `sorted` whose elements are
/// `<= pivot` — the sequential boundary scan of `bucketize`. Both forms
/// inspect exactly the prefix plus the first exceeding element, so charged
/// scan lengths are dispatch-independent.
#[inline]
pub fn count_le<T: SortElem>(sorted: &[T], pivot: &T) -> usize {
    #[cfg(target_arch = "x86_64")]
    if enabled() {
        let f: fn(&[u64], &u64) -> usize = avx2::count_le_u64;
        if let Some(f) = <dyn Any>::downcast_ref::<fn(&[T], &T) -> usize>(&f).copied() {
            return f(sorted, pivot);
        }
    }
    scalar::count_le(sorted, pivot)
}

/// Fill `hist` with digit counts of `(key >> shift) & mask` over `data`.
/// Returns `true` when the vectorized form handled it (8-lane digit
/// extraction + unrolled counting); `false` means the caller must run its
/// scalar loop.
#[inline]
pub fn radix_histogram<T: super::RadixKey>(
    data: &[T],
    shift: u32,
    mask: u64,
    hist: &mut [u32],
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if enabled() {
        let f: fn(&[u64], u32, u64, &mut [u32]) = avx2::radix_histogram_u64;
        if let Some(f) = <dyn Any>::downcast_ref::<fn(&[T], u32, u64, &mut [u32])>(&f).copied() {
            f(data, shift, mask, hist);
            return true;
        }
    }
    let _ = (data, shift, mask, hist);
    false
}

/// Scatter `data` into `scratch` by digit using the per-bucket `cursors`
/// (exclusive prefix sums on entry, bucket ends on exit). Returns `true`
/// when the vectorized form handled it (batched digit extraction feeding
/// the scatter writes).
#[inline]
pub fn radix_scatter<T: super::RadixKey>(
    data: &[T],
    shift: u32,
    mask: u64,
    cursors: &mut [u32],
    scratch: &mut [T],
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if enabled() {
        let f: fn(&[u64], u32, u64, &mut [u32], &mut [u64]) = avx2::radix_scatter_u64;
        if let Some(f) =
            <dyn Any>::downcast_ref::<fn(&[T], u32, u64, &mut [u32], &mut [T])>(&f).copied()
        {
            f(data, shift, mask, cursors, scratch);
            return true;
        }
    }
    let _ = (data, shift, mask, cursors, scratch);
    false
}

/// Merge two sorted runs into `out` (`out.len() == a.len() + b.len()`),
/// ties taking `a` first, and return the comparisons the classic merge
/// loop plays, [`pair_merge_cost`]. The vector form runs a 4-wide bitonic
/// merge network and makes that one search; for the key types it routes
/// (`u64`), equal keys are identical elements, so its output sequence
/// matches the scalar merge exactly. The scalar form reads the count off
/// its loop. Either way the count comes from the data, so ledgers stay
/// dispatch-independent.
#[inline]
pub fn merge_pair<T: SortElem>(a: &[T], b: &[T], out: &mut [T]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if enabled() {
        let f: fn(&[u64], &[u64], &mut [u64]) -> u64 = avx2::merge_pair_u64;
        if let Some(f) = <dyn Any>::downcast_ref::<fn(&[T], &[T], &mut [T]) -> u64>(&f).copied() {
            return f(a, b, out);
        }
    }
    scalar::merge_pair(a, b, out)
}

/// Longest input [`sort_short`] sorts within AVX2's 16 registers, in one
/// sorting-network class.
pub const SHORT_MAX: usize = 64;
/// Shortest input [`sort_short`] sorts in registers: below it the smallest
/// class (16 keys in 4 registers, ~40 ns a call) loses to `sort_unstable`
/// (DESIGN.md §15).
pub const SHORT_MIN: usize = 5;
/// Longest input [`sort_short`] sorts: its widest register class, four
/// 16-register blocks of [`SHORT_MAX`] keys merged bitonically.
pub const MID_MAX: usize = 4 * SHORT_MAX;

/// Sort `data` as [`scalar::sort_short`] (`sort_unstable`) does. The
/// vector form sorts `u64` inputs of [`SHORT_MIN`]..=[`MID_MAX`] keys in
/// registers: up to [`SHORT_MAX`] keys with a sorting network and bitonic
/// merges, longer inputs in 128- or 256-key classes that merge such
/// blocks bitonically, or, just above a class boundary, as two classes
/// merged by one [`merge_pair`] network pass (DESIGN.md §15). For `u64`,
/// equal keys are identical elements, so its output is the same slice.
#[inline]
pub fn sort_short<T: SortElem>(data: &mut [T]) {
    #[cfg(target_arch = "x86_64")]
    if (SHORT_MIN..=MID_MAX).contains(&data.len()) && enabled() {
        let f: fn(&mut [u64]) = avx2::sort_short_u64;
        if let Some(f) = <dyn Any>::downcast_ref::<fn(&mut [T])>(&f).copied() {
            return f(data);
        }
    }
    scalar::sort_short(data)
}

/// [`sort_short`] from `src` into `dst` (`src.len() == dst.len()`): the
/// sorted keys of `src` are written to `dst` and `src` is left as it was.
/// The vector form reads `src` straight into registers, so it costs no
/// copy; the scalar form copies, then sorts.
#[inline]
pub fn sort_short_into<T: SortElem>(src: &[T], dst: &mut [T]) {
    #[cfg(target_arch = "x86_64")]
    if (SHORT_MIN..=MID_MAX).contains(&src.len()) && enabled() {
        let f: fn(&[u64], &mut [u64]) = avx2::sort_short_into_u64;
        if let Some(f) = <dyn Any>::downcast_ref::<fn(&[T], &mut [T])>(&f).copied() {
            return f(src, dst);
        }
    }
    scalar::sort_short_into(src, dst)
}

/// Whether [`sort_short`] and [`sort_short_into`] sort `T` in registers:
/// SIMD dispatch is on and `T` is `u64`. The radix kernel sizes its
/// buckets by this.
#[inline]
pub fn sorts_in_registers<T: SortElem>() -> bool {
    #[cfg(target_arch = "x86_64")]
    if enabled() {
        let f: fn(&mut [u64]) = avx2::sort_short_u64;
        return <dyn Any>::downcast_ref::<fn(&mut [T])>(&f).is_some();
    }
    false
}

/// Comparisons the classic two-way merge loop performs on sorted runs `a`
/// and `b`: the loop compares once per emitted element until one run
/// exhausts, so the count is `a.len() + |{x ∈ b : x < a.last()}|` when `a`
/// exhausts first (ties prefer `a`, so `a` exhausts first on equal lasts)
/// and symmetrically otherwise. Exact — not a bound — which is what lets
/// both merge kernels charge the same simulated compute.
pub fn pair_merge_cost<T: Ord>(a: &[T], b: &[T]) -> u64 {
    if a.is_empty() || b.is_empty() {
        return 0;
    }
    let a_last = a.last().expect("nonempty");
    let b_last = b.last().expect("nonempty");
    if a_last <= b_last {
        a.len() as u64 + b.partition_point(|x| x < a_last) as u64
    } else {
        b.len() as u64 + a.partition_point(|x| x <= b_last) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn scalar_partition_and_count_agree_with_std() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let n = rng.gen_range(0usize..300);
            let mut v: Vec<u64> = (0..n).map(|_| rng.gen_range(0..64)).collect();
            v.sort_unstable();
            let p = rng.gen_range(0u64..70);
            let want = v.partition_point(|x| *x <= p);
            assert_eq!(scalar::partition_point_le(&v, &p), want);
            assert_eq!(scalar::count_le(&v, &p), want);
        }
    }

    #[test]
    fn pair_merge_cost_matches_counted_loop() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..300 {
            let la = rng.gen_range(0usize..80);
            let lb = rng.gen_range(0usize..80);
            let mut a: Vec<u64> = (0..la).map(|_| rng.gen_range(0..40)).collect();
            let mut b: Vec<u64> = (0..lb).map(|_| rng.gen_range(0..40)).collect();
            a.sort_unstable();
            b.sort_unstable();
            // Reference: count the classic loop's comparisons directly.
            let (mut i, mut j, mut cmps) = (0usize, 0usize, 0u64);
            while i < a.len() && j < b.len() {
                cmps += 1;
                if a[i] <= b[j] {
                    i += 1;
                } else {
                    j += 1;
                }
            }
            assert_eq!(pair_merge_cost(&a, &b), cmps, "a={a:?} b={b:?}");
            let mut out = vec![0u64; la + lb];
            assert_eq!(
                scalar::merge_pair(&a, &b, &mut out),
                cmps,
                "a={a:?} b={b:?}"
            );
        }
    }

    #[test]
    fn merged_pairs_are_sorted_and_complete() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let la = rng.gen_range(0usize..200);
            let lb = rng.gen_range(0usize..200);
            let mut a: Vec<u64> = (0..la).map(|_| rng.gen()).collect();
            let mut b: Vec<u64> = (0..lb).map(|_| rng.gen()).collect();
            a.sort_unstable();
            b.sort_unstable();
            let mut out = vec![0u64; la + lb];
            merge_pair(&a, &b, &mut out);
            let mut expect = [a, b].concat();
            expect.sort_unstable();
            assert_eq!(out, expect);
        }
    }

    #[test]
    fn dispatch_state_reports_and_toggles() {
        let initial = enabled();
        // Force-off always succeeds; force-on succeeds only with host AVX2.
        assert!(!set_enabled(false));
        assert!(!enabled());
        let on = set_enabled(true);
        assert_eq!(on, enabled());
        set_enabled(initial);
    }
}
