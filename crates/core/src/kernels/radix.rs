//! MSD hybrid radix sort over order-preserving integer key transforms.
//!
//! Run formation is the compute-heaviest part of every sorter here: Phase 1
//! of NMsort alone sorts the entire input in scratchpad-sized pieces. A
//! comparison sort pays `Θ(n lg n)` branchy comparisons; this kernel pays
//! one branch-free counting scatter, then finishes each bucket in cache —
//! without touching the I/O-level analysis, which still charges the
//! comparison model's costs (see `kernels` module docs).
//!
//! Shape, chosen by microbenchmark on the dev host (DESIGN.md §10 records
//! the measurements and the variants that lost):
//!
//! * a **min/max pre-pass** finds the common high-bit prefix of the
//!   transformed keys, so low-entropy inputs (small ranges, few distinct
//!   values, sign-skewed `i64`) spend their digit budget only on bits that
//!   actually differ — and all-equal inputs return after one read pass;
//! * a **counting fast path** when the pre-pass shows the key range is
//!   comparable to `n` (zipf ranks, sawtooth, few-distinct, permutations):
//!   count every exact key, then *reconstruct* the sorted output as
//!   run-length-encoded values — keys are bijective, so no element needs
//!   to move at all. This is what fixed the zipf run-formation regression:
//!   a scatter digit cannot separate a head-heavy distribution (the top
//!   ranks share one bucket), but a per-value count is indifferent to skew;
//! * **one wide MSD scatter** from `data` into a scratch buffer, its digit
//!   width picked from `n` and capped at [`MAX_DIGIT_BITS`] to keep the
//!   histogram cache-resident; each bucket is then finished while it is
//!   cache-hot, from the scratch buffer straight into its range of `data`.
//!   There is no copy back of the whole array and no allocation per
//!   bucket. Where [`simd::vectorizes`] (`u64` keys, SIMD dispatch
//!   on), buckets average ~32 keys ([`TARGET_LG_BUCKET`]) and every bucket
//!   of [`simd::SHORT_MIN`]`..=`[`simd::MID_MAX`] keys is read into
//!   registers and sorted into place by [`simd::sort_short_into`], the
//!   fastest level of the host's hierarchy. Elsewhere buckets average ~256
//!   keys ([`SCATTER_LG_BUCKET`]) and a second scatter of up to
//!   [`SECOND_DIGIT_BITS`] bits, counted in a stack histogram, spreads
//!   each into sub-buckets of ~1 key for one insertion pass; the register
//!   path still reaches it for buckets over [`simd::MID_MAX`] keys, which
//!   the digit cap leaves on inputs of more than ~2^17 keys;
//! * buckets neither suits finish otherwise: insertion sort for the
//!   shortest (below [`simd::SHORT_MIN`] keys, or up to [`INSERTION_MAX`]
//!   without registers), count-and-reconstruct when the bits left below
//!   the first digit span few values next to the bucket's length, a
//!   recursive call from [`RECURSE_MIN`] (skew), and a plain copy when the
//!   first scatter already consumed every differing key bit (equal keys ⇒
//!   identical elements for the primitive key types).
//!
//! Earlier LSD (8-bit ping-pong passes) and recursive-MSD variants measured
//! *slower* than `sort_unstable` on uniform `u64` on this host: multiple
//! full-array scatter passes are memory-bound here, so the design spends
//! exactly one. The recursive MSD that lost ran the whole kernel again on
//! every bucket — a min/max pre-pass and histogram and cursor tables
//! allocated on the heap per bucket. The second level here is not a
//! recursion: it reuses the first level's key range, so it needs no
//! pre-pass, and its tables live on the stack.

use super::simd;

/// An element with a fixed-width integer sort key whose order is preserved
/// by mapping into `u64` space.
///
/// Implementations must guarantee `a <= b ⇔ a.radix_key() <= b.radix_key()`,
/// that only the low [`KEY_BITS`](RadixKey::KEY_BITS) bits of the key are
/// ever set, and that the map is a *bijection* inverted by
/// [`from_radix_key`](RadixKey::from_radix_key) — equal keys mean identical
/// elements, which both the bucket-finishing step and the counting
/// fast path (which *reconstructs* elements from key counts) rely on.
pub trait RadixKey: crate::SortElem {
    /// Significant bits in the transformed key.
    const KEY_BITS: u32;
    /// Order-preserving map into unsigned key space.
    fn radix_key(self) -> u64;
    /// Inverse of [`radix_key`](RadixKey::radix_key):
    /// `from_radix_key(x.radix_key()) == x` for every element.
    fn from_radix_key(key: u64) -> Self;
}

impl RadixKey for u64 {
    const KEY_BITS: u32 = 64;
    #[inline(always)]
    fn radix_key(self) -> u64 {
        self
    }
    #[inline(always)]
    fn from_radix_key(key: u64) -> Self {
        key
    }
}

impl RadixKey for u32 {
    const KEY_BITS: u32 = 32;
    #[inline(always)]
    fn radix_key(self) -> u64 {
        self as u64
    }
    #[inline(always)]
    fn from_radix_key(key: u64) -> Self {
        key as u32
    }
}

impl RadixKey for i64 {
    const KEY_BITS: u32 = 64;
    /// Flip the sign bit: maps `i64::MIN..=i64::MAX` monotonically onto
    /// `0..=u64::MAX`.
    #[inline(always)]
    fn radix_key(self) -> u64 {
        (self as u64) ^ (1u64 << 63)
    }
    #[inline(always)]
    fn from_radix_key(key: u64) -> Self {
        (key ^ (1u64 << 63)) as i64
    }
}

/// Buckets (and second-level sub-buckets) at or below this length finish
/// with insertion sort when they do not finish in registers. Crossover
/// measured on the dev host.
const INSERTION_MAX: usize = 24;
/// Cap on the scatter's digit width: 2^12 buckets keep the histogram and
/// offset tables (2 × 16 KiB of `u32`) cache-resident during the scatter.
const MAX_DIGIT_BITS: u32 = 12;
/// The first digit's width targets buckets of ~2^5 keys where they finish
/// in registers ([`simd::vectorizes`]): 256 bytes of `u64`, one
/// 32-key register class.
const TARGET_LG_BUCKET: u32 = 5;
/// Elsewhere (SIMD dispatch off, or `u32`/`i64` keys) it targets buckets
/// of ~2^8 elements: 2 KiB of `u64`, finished in L1 by the second scatter.
const SCATTER_LG_BUCKET: u32 = 8;
/// Cap on the second scatter's digit: its 2^8-entry histogram lives on the
/// stack, and a bucket of ~2^8 keys spreads to ~1 key per sub-bucket.
const SECOND_DIGIT_BITS: u32 = 8;
/// Below this the setup passes can't pay for themselves.
const MSD_MIN_LEN: usize = 64;
/// Buckets at or above this recurse instead of taking the second scatter:
/// only genuinely skewed inputs (zipf, clustered) produce them, and the
/// recursion's min/max pre-pass re-narrows the key range so the next
/// scatter spreads them. Uniform inputs never hit this path.
const RECURSE_MIN: usize = 1 << 12;
/// Cap on the counting fast path's table: 2^22 `u32` counters (16 MiB)
/// scan in well under a millisecond; anything larger would dominate the
/// work it replaces.
const COUNTING_MAX_KEYS: u64 = 1 << 22;
/// Key span of the dense-head split's exact-count table: 4096 `u32`
/// counters stay L1-resident while the single partition pass streams.
const HEAD_SPAN: u64 = 1 << 12;
/// Keys sampled (evenly strided) to estimate how much mass sits within
/// [`HEAD_SPAN`] of the minimum.
const HEAD_SAMPLES: usize = 32;

/// Sort `data` in place with one wide MSD counting scatter on
/// [`RadixKey::radix_key`] into a scratch buffer, then a cache-resident
/// second scatter per bucket back into `data`.
pub fn radix_sort<T: RadixKey>(data: &mut [T]) {
    let n = data.len();
    if n < MSD_MIN_LEN {
        data.sort_unstable();
        return;
    }
    // A short head-heavy input ends in a comparison sort (the dense-head
    // split below); when the strided sample alone shows that, the
    // min/max pass is skipped.
    if (n as u64) < HEAD_SPAN && sample_is_head_heavy(data) {
        data.sort_unstable();
        return;
    }

    // Min/max of the transformed keys: the XOR's leading zeros are the
    // shared prefix no digit needs to inspect.
    let (mut lo, mut hi) = (u64::MAX, 0u64);
    for &x in data.iter() {
        let k = x.radix_key();
        lo = lo.min(k);
        hi = hi.max(k);
    }
    if lo == hi {
        return; // one distinct key ⇒ identical elements
    }
    // Counting fast path: when the key *range* is comparable to `n` (zipf
    // ranks, sawtooth periods, few-distinct pools, near-permutations), a
    // per-value count plus run-length reconstruction replaces the scatter,
    // the finishing sorts and the copy-back with one L1-friendly counting
    // pass and one sequential write — and skew is free, since a hot key is
    // just a large count. The bijective key contract makes reconstruction
    // exact.
    let range = hi - lo;
    if range < COUNTING_MAX_KEYS && range / 4 < n as u64 {
        let counts = key_counts(data, lo, range as usize + 1);
        reconstruct(data, lo, &counts);
        return;
    }
    // Dense-head split: a wide range can still hide a head-heavy
    // distribution whose mode sits at the minimum (zipf ranks sorted in
    // scratchpad-sized chunks: each chunk spans ~n keys but most elements
    // are tiny). A strided sample estimates the mass within HEAD_SPAN of
    // `lo`; when at least half the input lives there, one partition pass
    // exact-counts the head and a comparison sort finishes the sparse
    // spill — two passes instead of scatter + skewed-bucket finishing.
    // The split zero-fills and scans its HEAD_SPAN-entry table whatever
    // the input's length, so a shorter head-heavy input (SPMS's sample
    // merges: a few hundred Zipf keys) is sorted by comparison instead.
    if range >= HEAD_SPAN {
        let step = (n / HEAD_SAMPLES).max(1);
        let mut taken = 0usize;
        let mut within = 0usize;
        for x in data.iter().step_by(step) {
            taken += 1;
            if x.radix_key() - lo < HEAD_SPAN {
                within += 1;
            }
        }
        if within * 2 >= taken {
            if n as u64 >= HEAD_SPAN {
                dense_head_split(data, lo);
            } else {
                data.sort_unstable();
            }
            return;
        }
    }
    let registers = simd::vectorizes::<T>();
    let target = if registers {
        TARGET_LG_BUCKET
    } else {
        SCATTER_LG_BUCKET
    };
    let bits = 64 - (lo ^ hi).leading_zeros();
    let lg_n = usize::BITS - (n - 1).leading_zeros();
    let width = lg_n
        .saturating_sub(target)
        .clamp(1, MAX_DIGIT_BITS)
        .min(bits);
    let shift = bits - width;

    // First level: one wide scatter from `data` into `scratch`. Afterwards
    // `ends[b]` is the end of bucket `b`.
    let mut ends = vec![0u32; 1usize << width];
    let mut scratch: Vec<T> = vec![data[0]; n];
    scatter_by_digit(data, &mut scratch, shift, width, &mut ends);

    // Second level: finish each bucket while it is cache-hot, writing it
    // from `scratch` straight back into its own range of `data`.
    let mut start = 0usize;
    for &end in ends.iter() {
        let end = end as usize;
        finish_bucket(
            &scratch[start..end],
            &mut data[start..end],
            shift,
            registers,
        );
        start = end;
    }
}

/// Whether the [`HEAD_SAMPLES`]-key strided sample of `data` alone proves
/// what the min/max pass would decide for a head-heavy input: its key
/// span of at least `max(4n, HEAD_SPAN)` rules out the counting path
/// (which needs a range under `4n`) and reaches the dense-head check, and
/// at least half the sample lies within [`HEAD_SPAN`] of its minimum.
fn sample_is_head_heavy<T: RadixKey>(data: &[T]) -> bool {
    let n = data.len();
    let sample = || {
        data.iter()
            .step_by((n / HEAD_SAMPLES).max(1))
            .map(|x| x.radix_key())
    };
    let (lo, hi) = sample().fold((u64::MAX, 0), |(lo, hi), k| (lo.min(k), hi.max(k)));
    if hi.saturating_sub(lo) < (4 * n as u64).max(HEAD_SPAN) {
        return false;
    }
    let (taken, within) = sample().fold((0usize, 0usize), |(t, w), k| {
        (t + 1, w + usize::from(k - lo < HEAD_SPAN))
    });
    within * 2 >= taken
}

/// Counting scatter of `src` into `dst` by the `width`-bit digit above bit
/// `shift`: a histogram into `ends`, exclusive prefix sums into write
/// cursors, then one pass placing every element. On return `ends[b]` is
/// the end of bucket `b` in `dst`; returns the largest bucket's length.
///
/// Histogram and scatter have vectorized forms for identity-keyed `u64`
/// (8-lane digit extraction); other key types — and `TLMM_NO_SIMD=1` —
/// take the scalar loops. Identical counts and placements either way.
fn scatter_by_digit<T: RadixKey>(
    src: &[T],
    dst: &mut [T],
    shift: u32,
    width: u32,
    ends: &mut [u32],
) -> usize {
    let mask = (1u64 << width) - 1;
    ends.fill(0);
    if !simd::radix_histogram(src, shift, mask, ends) {
        for &x in src.iter() {
            ends[((x.radix_key() >> shift) & mask) as usize] += 1;
        }
    }
    let (mut sum, mut widest) = (0u32, 0u32);
    for c in ends.iter_mut() {
        let h = *c;
        *c = sum;
        sum += h;
        widest = widest.max(h);
    }
    if !simd::radix_scatter(src, shift, mask, ends, dst) {
        for &x in src.iter() {
            let b = ((x.radix_key() >> shift) & mask) as usize;
            dst[ends[b] as usize] = x;
            ends[b] += 1;
        }
    }
    widest as usize
}

/// Sort `src`, one first-level bucket whose keys agree above bit `shift`,
/// into `dst`. A bucket of one key (`shift == 0`, or one element) is a
/// copy; buckets too short for the register sort (or, without
/// `registers`, of at most [`INSERTION_MAX`] keys) an insertion sort;
/// buckets whose residual key span is small next to their length a
/// count-and-reconstruct. With `registers`, every other bucket of up to
/// [`simd::MID_MAX`] keys — the common case on spread keys — is read from
/// `src` into registers and sorted into `dst` by
/// [`simd::sort_short_into`]. Genuinely skewed large buckets take a
/// recursive [`radix_sort`]; what is left takes a second scatter of up to
/// [`SECOND_DIGIT_BITS`] bits with a stack histogram, then one insertion
/// pass over the nearly sorted result.
fn finish_bucket<T: RadixKey>(src: &[T], dst: &mut [T], shift: u32, registers: bool) {
    let len = src.len();
    let insertion_max = if registers {
        simd::SHORT_MIN - 1
    } else {
        INSERTION_MAX
    };
    if len <= 1 || shift == 0 {
        // shift == 0 means the scatter consumed every differing key bit:
        // the bucket holds one distinct key and is already in order.
        dst.copy_from_slice(src);
    } else if len <= insertion_max {
        dst.copy_from_slice(src);
        insertion_sort(dst);
    } else if shift < 22 && (1usize << shift) / 4 <= len {
        // Adaptive skew handling: every element shares the key prefix
        // above `shift`. When that residual span is small relative to
        // the bucket's occupancy, count-and-reconstruct directly — a
        // skewed (zipf head) bucket finishes in two cheap passes.
        let base = (src[0].radix_key() >> shift) << shift;
        reconstruct(dst, base, &key_counts(src, base, 1usize << shift));
    } else if registers && len <= simd::MID_MAX {
        simd::sort_short_into(src, dst);
    } else if len >= RECURSE_MIN {
        // Skew with a wide residual span: recurse — the nested min/max
        // pre-pass confines the next scatter to the bits this level left
        // (`< shift` of them), and the recursion's own counting fast path
        // catches clustered values once the range narrows.
        dst.copy_from_slice(src);
        radix_sort(dst);
    } else {
        // Second digit: about lg(len) bits, so sub-buckets hold ~1 key.
        let lg_len = usize::BITS - (len - 1).leading_zeros();
        let width = lg_len.min(SECOND_DIGIT_BITS).min(shift);
        let shift = shift - width;
        let mut ends = [0u32; 1 << SECOND_DIGIT_BITS];
        let ends = &mut ends[..1usize << width];
        let widest = scatter_by_digit(src, dst, shift, width, ends);
        if shift == 0 {
            return;
        }
        // Sub-buckets are ordered; an insertion pass orders within them,
        // moving each key only inside its own sub-bucket. A sub-bucket too
        // large for that to stay cheap is sorted on its own.
        if widest <= INSERTION_MAX {
            insertion_sort(dst);
        } else {
            let mut begin = 0usize;
            for &end in ends.iter() {
                let sub = &mut dst[begin..end as usize];
                if sub.len() <= INSERTION_MAX {
                    insertion_sort(sub);
                } else {
                    sub.sort_unstable();
                }
                begin = end as usize;
            }
        }
    }
}

/// Exact key counts of `src` over `span` consecutive key values starting
/// at `base`: the counting half of a counting sort.
fn key_counts<T: RadixKey>(src: &[T], base: u64, span: usize) -> Vec<u32> {
    let mut counts = vec![0u32; span];
    for &x in src.iter() {
        counts[(x.radix_key() - base) as usize] += 1;
    }
    counts
}

/// The other half: write `counts[k]` copies of the element with key
/// `base + k`, for every `k` in order, to the front of `dst`, and return
/// how many were written. No element is moved, so no scatter; correct
/// because the key map is bijective (equal keys ⇒ identical elements).
fn reconstruct<T: RadixKey>(dst: &mut [T], base: u64, counts: &[u32]) -> usize {
    let mut i = 0usize;
    for (k, &c) in counts.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let v = T::from_radix_key(base + k as u64);
        dst[i..i + c as usize].fill(v);
        i += c as usize;
    }
    i
}

/// Partition the input into a dense head (keys within [`HEAD_SPAN`] of
/// `lo`, exact-counted in an L1-resident table) and a sparse spill (all
/// larger keys, comparison-sorted). Every head key precedes every spill
/// key, so the output is the reconstructed head runs followed by the
/// sorted spill.
fn dense_head_split<T: RadixKey>(data: &mut [T], lo: u64) {
    let mut counts = vec![0u32; HEAD_SPAN as usize];
    let mut spill: Vec<T> = Vec::new();
    for &x in data.iter() {
        let k = x.radix_key() - lo;
        if k < HEAD_SPAN {
            counts[k as usize] += 1;
        } else {
            spill.push(x);
        }
    }
    spill.sort_unstable();
    let i = reconstruct(data, lo, &counts);
    data[i..].copy_from_slice(&spill);
}

/// Plain insertion sort: optimal below ~24 elements where `sort_unstable`'s
/// per-call dispatch dominates.
fn insertion_sort<T: Copy + Ord>(v: &mut [T]) {
    for i in 1..v.len() {
        let x = v[i];
        let mut j = i;
        while j > 0 && v[j - 1] > x {
            v[j] = v[j - 1];
            j -= 1;
        }
        v[j] = x;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn check<T: RadixKey + std::fmt::Debug>(mut v: Vec<T>) {
        let mut expect = v.clone();
        expect.sort_unstable();
        radix_sort(&mut v);
        assert_eq!(v, expect);
    }

    #[test]
    fn sorts_u64_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        check((0..10_000).map(|_| rng.gen::<u64>()).collect());
        check((0..5_000u64).collect());
        check((0..5_000u64).rev().collect());
        check(vec![42u64; 3_000]); // all-equal: min/max pre-pass early out
        check((0..5_000).map(|i| (i % 7) as u64).collect());
        check(vec![u64::MAX, 0, u64::MAX, 1, u64::MAX - 1]);
        check(Vec::<u64>::new());
        check(vec![9u64]);
    }

    #[test]
    fn sorts_u32() {
        let mut rng = StdRng::seed_from_u64(2);
        check((0..10_000).map(|_| rng.gen::<u32>()).collect());
        check(vec![u32::MAX, 0, 1, u32::MAX - 1]);
    }

    #[test]
    fn sorts_i64_with_negatives() {
        let mut rng = StdRng::seed_from_u64(3);
        check((0..10_000).map(|_| rng.gen::<i64>()).collect());
        check(vec![i64::MIN, i64::MAX, 0, -1, 1, i64::MIN + 1]);
        check((-5_000..5_000).rev().collect::<Vec<i64>>());
    }

    #[test]
    fn key_transforms_preserve_order() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..10_000 {
            let (a, b) = (rng.gen::<i64>(), rng.gen::<i64>());
            assert_eq!(a <= b, a.radix_key() <= b.radix_key(), "{a} vs {b}");
        }
        for _ in 0..1_000 {
            let (a, b) = (rng.gen::<u32>(), rng.gen::<u32>());
            assert_eq!(a <= b, a.radix_key() <= b.radix_key());
        }
    }

    #[test]
    fn low_entropy_inputs_narrow_the_digit_and_stay_correct() {
        // Keys confined to one byte: the min/max pre-pass narrows the
        // scatter to the 8 differing bits.
        let mut rng = StdRng::seed_from_u64(5);
        check((0..20_000).map(|_| rng.gen_range(0u64..256)).collect());
        // Two distinct keys an enormous distance apart: width clamps to
        // the differing-bit count.
        check(
            (0..10_000)
                .map(|i| if i % 3 == 0 { u64::MAX } else { 1 })
                .collect(),
        );
    }

    #[test]
    fn counting_path_handles_skew_and_permutations() {
        let mut rng = StdRng::seed_from_u64(8);
        // Zipf-ish head-heavy ranks in 1..=n: range ≈ n triggers the
        // counting path; the head value's huge count must reconstruct.
        check(
            (0..50_000)
                .map(|_| {
                    let r: f64 = rng.gen();
                    (1.0 / (1.0 - r).powf(0.8)).min(50_000.0) as u64
                })
                .collect(),
        );
        // Permutations and reversed ranges: range == n - 1.
        check((0..50_000u64).rev().collect());
        // Signed keys through the bijection's inverse.
        check((-25_000..25_000).rev().collect::<Vec<i64>>());
        check((0..50_000).map(|_| rng.gen_range(-64i64..64)).collect());
        // u32 through the widening inverse.
        check((0..50_000).map(|_| rng.gen_range(0u32..4096)).collect());
    }

    #[test]
    fn dense_head_split_handles_wide_range_head_heavy_chunks() {
        // Run-formation shape: zipf-ish ranks whose range spans the full
        // array but whose mass sits at the minimum — plus far outliers so
        // the range stays far too wide for the counting fast path.
        let mut rng = StdRng::seed_from_u64(11);
        let mut v: Vec<u64> = (0..30_000)
            .map(|_| {
                let r: f64 = rng.gen();
                (1.0 / (1.0 - r).powf(1.5)) as u64
            })
            .collect();
        v.extend((0..300).map(|_| rng.gen::<u64>()));
        check(v);
        // Head exactly at a nonzero minimum.
        check(
            (0..30_000)
                .map(|i| {
                    if i % 10 == 0 {
                        1_000_000 + rng.gen_range(0u64..100_000_000)
                    } else {
                        1_000_000 + rng.gen_range(0u64..100)
                    }
                })
                .collect(),
        );
        // Head-heavy inputs on both sides of the split's length gate: the
        // shorter ones are sorted by comparison, the rest split.
        for n in [
            64usize,
            256,
            399,
            HEAD_SPAN as usize - 1,
            HEAD_SPAN as usize,
        ] {
            check(
                (0..n)
                    .map(|i| {
                        if i % 8 == 0 {
                            rng.gen::<u64>()
                        } else {
                            rng.gen_range(0u64..64)
                        }
                    })
                    .collect(),
            );
        }
    }

    #[test]
    fn sample_head_check_keeps_counting_inputs_counting() {
        let mut rng = StdRng::seed_from_u64(12);
        for n in [64usize, 256, 1_000, HEAD_SPAN as usize - 1] {
            // Counting-path inputs: a range under 4n, head-heavy or not.
            let ranks: Vec<u64> = (0..n)
                .map(|_| {
                    let r: f64 = rng.gen();
                    (1.0 / (1.0 - r).powf(0.8)).min(4.0 * n as f64 - 1.0) as u64
                })
                .collect();
            assert!(!sample_is_head_heavy(&ranks), "n={n}");
            let perm: Vec<u64> = (0..n as u64).rev().collect();
            assert!(!sample_is_head_heavy(&perm), "n={n}");
            // A head-heavy input whose tail spans far beyond 4n (every
            // fifth key, so every stride samples both head and tail).
            let skewed: Vec<u64> = (0..n)
                .map(|i| {
                    if i % 5 == 0 {
                        rng.gen::<u64>()
                    } else {
                        rng.gen_range(0u64..64)
                    }
                })
                .collect();
            assert!(sample_is_head_heavy(&skewed), "n={n}");
        }
    }

    #[test]
    fn counting_span_reconstructs_exactly() {
        let mut rng = StdRng::seed_from_u64(9);
        let v: Vec<u64> = (0..10_000).map(|_| rng.gen_range(100u64..612)).collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        let mut out = vec![0u64; v.len()];
        assert_eq!(
            reconstruct(&mut out, 100, &key_counts(&v, 100, 512)),
            v.len()
        );
        assert_eq!(out, expect);
    }

    #[test]
    fn wide_range_with_giant_residual_bucket_still_sorts() {
        // Range too wide for the top-level counting path (two far-apart
        // clusters), but each cluster lands in one giant bucket whose
        // residual span the adaptive finishing resolves by counting.
        let mut rng = StdRng::seed_from_u64(10);
        let mut v: Vec<u64> = (0..40_000)
            .map(|_| (1u64 << 40) + rng.gen_range(0u64..128))
            .collect();
        v.extend((0..40_000).map(|_| rng.gen_range(0u64..128)));
        check(v);
    }

    #[test]
    fn clustered_ranges_exercise_every_bucket_path() {
        // Tight cluster + outliers: most buckets tiny (insertion path),
        // one giant (sort_unstable path), many empty.
        let mut rng = StdRng::seed_from_u64(6);
        let mut v: Vec<u64> = (0..30_000)
            .map(|_| 1_000_000 + rng.gen_range(0u64..64))
            .collect();
        v.extend((0..100).map(|_| rng.gen::<u64>()));
        check(v);
    }

    /// Lengths bucket finishing must handle at either side of each of its
    /// thresholds: the register sort's bounds and class edges, the
    /// insertion bound, the second scatter's and the recursion's.
    const EDGE_LENS: [usize; 20] = [
        simd::SHORT_MIN - 1,
        simd::SHORT_MIN,
        INSERTION_MAX - 1,
        INSERTION_MAX,
        INSERTION_MAX + 1,
        simd::SHORT_MAX - 1,
        simd::SHORT_MAX,
        simd::SHORT_MAX + 1,
        96,
        97,
        128,
        129,
        192,
        193,
        simd::MID_MAX,
        simd::MID_MAX + 1,
        RECURSE_MIN - 1,
        RECURSE_MIN,
        RECURSE_MIN + 1,
        255,
    ];

    /// `n` keys of one shape for the second-level property.
    fn second_level_keys(shape: usize, n: usize, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        match shape {
            // Clusters with distinct high prefixes, each of an edge length,
            // so first-level buckets land on the second level's thresholds.
            0 => {
                let mut v = Vec::with_capacity(n);
                let mut cluster = 0u64;
                while v.len() < n {
                    let len = EDGE_LENS[rng.gen_range(0..EDGE_LENS.len())].min(n - v.len());
                    let prefix = cluster.wrapping_mul(0x9E37_79B9_7F4A_7C15) & !((1 << 40) - 1);
                    v.extend((0..len).map(|_| prefix | rng.gen_range(0..1u64 << 40)));
                    cluster += 1;
                }
                v
            }
            // A mass that differs only in its low `b` bits, held apart from
            // a few far outliers: the first scatter leaves it one bucket
            // whose keys differ only below `shift`.
            1 => {
                let b = rng.gen_range(1..48u32);
                let base = rng.gen::<u64>() >> 2;
                let mut v: Vec<u64> = (0..n).map(|_| base | rng.gen_range(0..1u64 << b)).collect();
                for _ in 0..(n / 64).max(1) {
                    let at = rng.gen_range(0..n);
                    v[at] = if rng.gen() {
                        u64::MAX - rng.gen_range(0..4)
                    } else {
                        rng.gen_range(0..4)
                    };
                }
                v
            }
            // Spread keys: the common two-level path.
            _ => (0..n).map(|_| rng.gen()).collect(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn second_level_matches_sort_unstable(
            seed in any::<u64>(),
            n in 0usize..6,
            shape in 0usize..3,
        ) {
            let n = [64, 255, 256, 9_216, 39_062, 294_912][n];
            let keys = second_level_keys(shape, n, seed);
            let sorted = super::super::simd::every_tier(|| {
                let mut v = keys.clone();
                radix_sort(&mut v);
                let mut expect = keys.clone();
                expect.sort_unstable();
                // Sign-crossing i64: the u64 keys shifted by 2^63.
                let mut s: Vec<i64> = keys.iter().map(|&k| k.wrapping_sub(1 << 63) as i64).collect();
                let mut s_expect = s.clone();
                radix_sort(&mut s);
                s_expect.sort_unstable();
                // u32: the low half, so low-bit-only shapes stay low-bit-only.
                let mut w: Vec<u32> = keys.iter().map(|&k| k as u32).collect();
                let mut w_expect = w.clone();
                radix_sort(&mut w);
                w_expect.sort_unstable();
                [v == expect, s == s_expect, w == w_expect]
            });
            for (tier, [u64_ok, i64_ok, u32_ok]) in sorted {
                prop_assert!(u64_ok, "u64 n={} shape={} {:?}", n, shape, tier);
                prop_assert!(i64_ok, "i64 n={} shape={} {:?}", n, shape, tier);
                prop_assert!(u32_ok, "u32 n={} shape={} {:?}", n, shape, tier);
            }
        }
    }
}
