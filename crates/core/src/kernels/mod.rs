//! Wall-clock kernel layer: the host-side inner loops every sorter runs on.
//!
//! The paper's analysis charges *simulated* costs (block transfers,
//! comparisons) to the [`tlmm_scratchpad::TwoLevel`] ledger; those charges
//! are fixed by the algorithms and never change here. What this module owns
//! is the **host wall clock** of the same work — the thing the bench
//! trajectory (`BENCH_kernels.json`) is judged on:
//!
//! * [`radix`] — an MSD hybrid radix sort over [`RadixKey`] element types
//!   (order-preserving bit transforms for `u64`/`u32`/`i64`): min/max
//!   prefix skip, one wide counting scatter, then each bucket finished in
//!   cache (in registers for `u64`). Used for Phase-1 run formation
//!   everywhere a chunk or run is sorted in cache, and for the pieces of
//!   deep merges.
//! * [`sort_kernel`] — the routing entry point: radix for key types above
//!   256 keys, [`simd::sort_short`] for inputs of at most 256 (register
//!   sorts for `u64`: SPMS's and SquareSort's base cases and tiny
//!   buckets), `slice::sort_unstable` otherwise. All sorters (`extsort`,
//!   `baseline`, `quicksort` base case, and through them
//!   `nmsort`/`seqsort`) call this instead of `sort_unstable` directly.
//!   The short path runs inside the `kernel.sort_unstable` flight span,
//!   whose name the frozen benchmark's `kernels.sort_unstable_pct` reads.
//! * [`reference`] — the reference implementations (a branchy loser
//!   tree that counts as it plays, comparison-only run formation), kept as
//!   the differential oracles of the tests and `kernel_bench`'s smoke mode.
//!
//! **Cost-ledger invariant.** Kernel selection must never change simulated
//! results: callers keep charging the comparison-model cost regardless of
//! which kernel ran, because the machine being simulated executes the
//! paper's comparison-based algorithm. A formation sort is charged
//! `n·⌈lg n⌉` compute; the radix kernel is a host-side stand-in that
//! produces the identical permutation faster. A k-way merge is charged the
//! loser tree's exact comparison count: a sum over tree nodes of two-way
//! merge costs, at most (not exactly) `⌈lg k⌉` per merged element.
//! [`crate::losertree::merge_cost`] computes it from the runs alone and is
//! the only count; no merge kernel counts. The merge is executed by
//! whatever the data's shape makes fastest — a concatenation, a copy and
//! one sort, or an uncounted two-way merge tree on [`simd::merge_pair`] —
//! and deep merges of [`RadixKey`] elements by radix-sorting cache-sized
//! pieces ([`crate::pmerge::parallel_merge`]) instead of `⌈lg k⌉` two-way
//! passes per key. [`reference::merge_cost_ref`], which plays the tree,
//! is the count's oracle. See DESIGN.md §10.

pub mod radix;
pub mod reference;
pub mod simd;

pub use radix::{radix_sort, RadixKey};

use crate::SortElem;
use core::any::Any;

/// Below this length the radix passes' fixed costs (histogramming + a
/// scratch buffer) lose: to [`simd::sort_short`]'s register sorts, which
/// take `u64` inputs of up to [`simd::MID_MAX`] keys, and to a comparison
/// sort, whose crossover against the radix sort is a few hundred keys.
pub const RADIX_MIN_LEN: usize = simd::MID_MAX + 1;

/// The radix kernel for `T`, if `T` is one of the [`RadixKey`] types —
/// resolved with a safe `Any` downcast of the concrete `fn` pointer (no
/// `unsafe`, no specialization): when `T` *is* `u64`, `fn(&mut [u64])` and
/// `fn(&mut [T])` are the same type and the downcast succeeds.
#[inline]
pub fn radix_kernel<T: SortElem>() -> Option<fn(&mut [T])> {
    macro_rules! route {
        ($ty:ty) => {
            let f: fn(&mut [$ty]) = radix::radix_sort::<$ty>;
            if let Some(f) = <dyn Any>::downcast_ref::<fn(&mut [T])>(&f) {
                return Some(*f);
            }
        };
    }
    route!(u64);
    route!(u32);
    route!(i64);
    None
}

/// Sort `data` with the fastest available host kernel: MSD hybrid radix for
/// [`RadixKey`] types at or above [`RADIX_MIN_LEN`], [`simd::sort_short`]
/// (for `u64`, sorting networks in registers, merged pairwise above
/// [`simd::SHORT_MAX`] keys) at or below [`simd::MID_MAX`],
/// `sort_unstable` otherwise. Produces the identical
/// permutation either way; callers charge the comparison-model compute
/// cost themselves (see the module docs).
#[inline]
pub fn sort_kernel<T: SortElem>(data: &mut [T]) {
    let flight = tlmm_telemetry::flight::enabled();
    if data.len() >= RADIX_MIN_LEN {
        if let Some(f) = radix_kernel::<T>() {
            if flight {
                tlmm_telemetry::flight::span_event(true, "kernel.radix_sort");
            }
            f(data);
            tlmm_telemetry::counter!("core.kernels.radix_sorts").incr();
            if flight {
                tlmm_telemetry::flight::span_event(false, "kernel.radix_sort");
            }
            return;
        }
    }
    // Short inputs sort in registers (`simd::sort_short`) inside this same
    // span: its name is what the frozen benchmark's
    // `kernels.sort_unstable_pct` reads, so it covers both paths.
    if flight {
        tlmm_telemetry::flight::span_event(true, "kernel.sort_unstable");
    }
    if data.len() <= simd::MID_MAX {
        simd::sort_short(data);
    } else {
        data.sort_unstable();
    }
    if flight {
        tlmm_telemetry::flight::span_event(false, "kernel.sort_unstable");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn radix_kernel_resolves_only_for_key_types() {
        assert!(radix_kernel::<u64>().is_some());
        assert!(radix_kernel::<u32>().is_some());
        assert!(radix_kernel::<i64>().is_some());
        assert!(radix_kernel::<u8>().is_none());
        assert!(radix_kernel::<u16>().is_none());
        assert!(radix_kernel::<(u64, u64)>().is_none());
    }

    #[test]
    fn sort_kernel_sorts_radix_and_fallback_types() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut a: Vec<u64> = (0..10_000).map(|_| rng.gen()).collect();
        let mut ea = a.clone();
        ea.sort_unstable();
        sort_kernel(&mut a);
        assert_eq!(a, ea);

        let mut b: Vec<(u64, u64)> = (0..10_000).map(|_| (rng.gen(), rng.gen())).collect();
        let mut eb = b.clone();
        eb.sort_unstable();
        sort_kernel(&mut b);
        assert_eq!(b, eb);
    }

    #[test]
    fn sort_kernel_small_inputs_take_comparison_path() {
        // Below the threshold both paths must still sort.
        for n in [0usize, 1, 2, 3, 255] {
            let mut rng = StdRng::seed_from_u64(n as u64);
            let mut v: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
            let mut e = v.clone();
            e.sort_unstable();
            sort_kernel(&mut v);
            assert_eq!(v, e, "n={n}");
        }
    }
}
