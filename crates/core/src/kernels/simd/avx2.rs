//! Hand-vectorized AVX2 kernels for `u64` keys.
//!
//! Every public function here is a *safe* wrapper whose body enters an
//! `unsafe` `#[target_feature(enable = "avx2")]` implementation. Callers
//! must only reach these through [`super`]'s dispatchers, which gate on
//! [`super::enabled`] (host AVX2 detected, `TLMM_NO_SIMD` unset); the
//! wrappers re-verify detection in debug builds.
//!
//! AVX2 has no unsigned 64-bit compare, so ordered comparisons run in the
//! signed domain after XOR-ing each lane with `1 << 63` (maps `u64` order
//! onto `i64` order). All loads/stores are unaligned (`loadu`/`storeu`) —
//! run slices come from arbitrary offsets inside chunk buffers.

#![allow(unsafe_code)]

use core::arch::x86_64::*;

/// `u64 → i64` order-preserving bias (flips the sign bit lane-wise).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn bias(v: __m256i) -> __m256i {
    _mm256_xor_si256(v, _mm256_set1_epi64x(i64::MIN))
}

/// Lane-wise unsigned `a > b` mask.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn gt_u64(a: __m256i, b: __m256i) -> __m256i {
    _mm256_cmpgt_epi64(bias(a), bias(b))
}

/// Lane-wise (min, max): one `vpcmpgtq`, then the lanes where `a > b`
/// swap through one XOR difference (three bitwise operations, no
/// blends). `FLIPPED` lanes hold keys whose sign bits were flipped once
/// on load (the short sort's registers) and compare as `i64`; otherwise
/// they compare as `u64`, which biases both operands first.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn minmax<const FLIPPED: bool>(a: __m256i, b: __m256i) -> (__m256i, __m256i) {
    let a_gt = if FLIPPED {
        _mm256_cmpgt_epi64(a, b)
    } else {
        gt_u64(a, b)
    };
    let swap = _mm256_and_si256(_mm256_xor_si256(a, b), a_gt);
    (_mm256_xor_si256(a, swap), _mm256_xor_si256(b, swap))
}

fn debug_check_avx2() {
    debug_assert!(
        is_x86_feature_detected!("avx2"),
        "AVX2 kernel reached without host support; dispatch must gate on simd::enabled()"
    );
}

// ---------------------------------------------------------------------------
// Boundary scans
// ---------------------------------------------------------------------------

/// See [`super::count_le`]: longest `<= pivot` prefix of sorted `s`.
pub fn count_le_u64(s: &[u64], pivot: &u64) -> usize {
    debug_check_avx2();
    // SAFETY: dispatch gates on AVX2 detection before routing here.
    unsafe { count_le_impl(s, *pivot) }
}

#[target_feature(enable = "avx2")]
unsafe fn count_le_impl(s: &[u64], pivot: u64) -> usize {
    let vp = bias(_mm256_set1_epi64x(pivot as i64));
    let mut i = 0usize;
    // 4 lanes per step; the slice is sorted, so the first lane holding an
    // element > pivot ends the scan (trailing_zeros of the movemask).
    while i + 4 <= s.len() {
        let v = _mm256_loadu_si256(s.as_ptr().add(i).cast());
        let gt = _mm256_cmpgt_epi64(bias(v), vp);
        let m = _mm256_movemask_pd(_mm256_castsi256_pd(gt)) as u32;
        if m != 0 {
            return i + m.trailing_zeros() as usize;
        }
        i += 4;
    }
    while i < s.len() && s[i] <= pivot {
        i += 1;
    }
    i
}

/// See [`super::partition_point_le`]: binary search narrowed to a small
/// window, finished with the SIMD linear scan.
pub fn partition_point_le_u64(s: &[u64], pivot: &u64) -> usize {
    debug_check_avx2();
    let p = *pivot;
    let (mut lo, mut hi) = (0usize, s.len());
    // Keep halving until the window fits a few vector steps.
    while hi - lo > 32 {
        let mid = lo + (hi - lo) / 2;
        if s[mid] <= p {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    // SAFETY: dispatch gates on AVX2 detection before routing here.
    lo + unsafe { count_le_impl(&s[lo..hi], p) }
}

// ---------------------------------------------------------------------------
// Radix histogram + scatter
// ---------------------------------------------------------------------------

/// See [`super::radix_histogram`]: digit counts of `(x >> shift) & mask`.
pub fn radix_histogram_u64(data: &[u64], shift: u32, mask: u64, hist: &mut [u32]) {
    debug_check_avx2();
    // SAFETY: dispatch gates on AVX2 detection before routing here.
    unsafe { radix_histogram_impl(data, shift, mask, hist) }
}

#[target_feature(enable = "avx2")]
unsafe fn radix_histogram_impl(data: &[u64], shift: u32, mask: u64, hist: &mut [u32]) {
    let vshift = _mm_cvtsi64_si128(shift as i64);
    let vmask = _mm256_set1_epi64x(mask as i64);
    let mut digits = [0u64; 8];
    let mut i = 0usize;
    // 8 keys per step: two 4-lane digit extractions, then eight unrolled
    // counter increments from the spilled digit buffer (the increments are
    // inherently scalar — AVX2 has no conflict detection — but the shifts
    // and masks vectorize).
    while i + 8 <= data.len() {
        let v0 = _mm256_loadu_si256(data.as_ptr().add(i).cast());
        let v1 = _mm256_loadu_si256(data.as_ptr().add(i + 4).cast());
        let d0 = _mm256_and_si256(_mm256_srl_epi64(v0, vshift), vmask);
        let d1 = _mm256_and_si256(_mm256_srl_epi64(v1, vshift), vmask);
        _mm256_storeu_si256(digits.as_mut_ptr().cast(), d0);
        _mm256_storeu_si256(digits.as_mut_ptr().add(4).cast(), d1);
        hist[digits[0] as usize] += 1;
        hist[digits[1] as usize] += 1;
        hist[digits[2] as usize] += 1;
        hist[digits[3] as usize] += 1;
        hist[digits[4] as usize] += 1;
        hist[digits[5] as usize] += 1;
        hist[digits[6] as usize] += 1;
        hist[digits[7] as usize] += 1;
        i += 8;
    }
    for &x in &data[i..] {
        hist[((x >> shift) & mask) as usize] += 1;
    }
}

/// See [`super::radix_scatter`]: scatter by digit through `cursors`.
pub fn radix_scatter_u64(
    data: &[u64],
    shift: u32,
    mask: u64,
    cursors: &mut [u32],
    scratch: &mut [u64],
) {
    debug_check_avx2();
    // SAFETY: dispatch gates on AVX2 detection before routing here.
    unsafe { radix_scatter_impl(data, shift, mask, cursors, scratch) }
}

#[target_feature(enable = "avx2")]
unsafe fn radix_scatter_impl(
    data: &[u64],
    shift: u32,
    mask: u64,
    cursors: &mut [u32],
    scratch: &mut [u64],
) {
    let vshift = _mm_cvtsi64_si128(shift as i64);
    let vmask = _mm256_set1_epi64x(mask as i64);
    let mut digits = [0u64; 8];
    let mut i = 0usize;
    // Batched digit extraction feeding scalar scatter stores (the stores
    // must stay in input order for radix stability, so they cannot be
    // reordered into gather/scatter lanes).
    while i + 8 <= data.len() {
        let v0 = _mm256_loadu_si256(data.as_ptr().add(i).cast());
        let v1 = _mm256_loadu_si256(data.as_ptr().add(i + 4).cast());
        let d0 = _mm256_and_si256(_mm256_srl_epi64(v0, vshift), vmask);
        let d1 = _mm256_and_si256(_mm256_srl_epi64(v1, vshift), vmask);
        _mm256_storeu_si256(digits.as_mut_ptr().cast(), d0);
        _mm256_storeu_si256(digits.as_mut_ptr().add(4).cast(), d1);
        for j in 0..8 {
            let b = digits[j] as usize;
            scratch[cursors[b] as usize] = data[i + j];
            cursors[b] += 1;
        }
        i += 8;
    }
    for &x in &data[i..] {
        let b = ((x >> shift) & mask) as usize;
        scratch[cursors[b] as usize] = x;
        cursors[b] += 1;
    }
}

// ---------------------------------------------------------------------------
// 4-wide bitonic merge network
// ---------------------------------------------------------------------------

/// Sort a 4-lane *bitonic* sequence ascending with the 2-step cleaner
/// (half exchange, then adjacent-pair exchange).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn bitonic4_clean<const FLIPPED: bool>(v: __m256i) -> __m256i {
    // Step 1: compare lanes {0,1} with {2,3} (swap 128-bit halves).
    let t = _mm256_permute4x64_epi64(v, 0b01_00_11_10);
    let (mn, mx) = minmax::<FLIPPED>(v, t);
    // Keep mins in lanes 0,1 and maxes in lanes 2,3.
    let v = _mm256_blend_epi32(mn, mx, 0b1111_0000);
    // Step 2: compare adjacent lanes {0,2} with {1,3}.
    let t = _mm256_permute4x64_epi64(v, 0b10_11_00_01);
    let (mn, mx) = minmax::<FLIPPED>(v, t);
    // Keep mins in lanes 0,2 and maxes in lanes 1,3.
    _mm256_blend_epi32(mn, mx, 0b1100_1100)
}

/// Merge two ascending 4-lane registers into an ascending 8-sequence,
/// returned as (low 4, high 4): reverse `b`, lane-wise min/max forms two
/// bitonic halves, clean each.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn bitonic_merge8(a: __m256i, b: __m256i) -> (__m256i, __m256i) {
    let br = _mm256_permute4x64_epi64(b, 0b00_01_10_11);
    let (lo, hi) = minmax::<false>(a, br);
    (bitonic4_clean::<false>(lo), bitonic4_clean::<false>(hi))
}

/// See [`super::merge_pair`]: merge sorted `a` and `b` into `out` with the
/// 4-wide bitonic network, streaming 4 outputs per step.
pub fn merge_pair_u64(a: &[u64], b: &[u64], out: &mut [u64]) {
    debug_check_avx2();
    assert_eq!(out.len(), a.len() + b.len(), "merge_pair size mismatch");
    if a.len() < 4 || b.len() < 4 {
        return super::scalar::merge_pair(a, b, out);
    }
    // SAFETY: dispatch gates on AVX2 detection before routing here; length
    // preconditions checked above.
    unsafe { merge_pair_impl(a, b, out) }
}

#[target_feature(enable = "avx2")]
unsafe fn merge_pair_impl(a: &[u64], b: &[u64], out: &mut [u64]) {
    // Stream-merge invariant (the classic SIMD two-way merge): hold 8
    // elements in registers, emit the low 4, keep the high 4, refill from
    // whichever run's next element is smaller. Every register element
    // originates below its run's read head, so the emitted low half is
    // bounded by both heads — the output is globally sorted.
    let mut va = _mm256_loadu_si256(a.as_ptr().cast());
    let mut vb = _mm256_loadu_si256(b.as_ptr().cast());
    let (mut ia, mut ib, mut o) = (4usize, 4usize, 0usize);
    loop {
        let (lo, hi) = bitonic_merge8(va, vb);
        _mm256_storeu_si256(out.as_mut_ptr().add(o).cast(), lo);
        o += 4;
        vb = hi;
        // Refill from the run whose head is smaller — loading from the
        // *other* run would emit elements ahead of the smaller unread head.
        // If the smaller-head run cannot supply a full block, leave the
        // register loop and finish scalar.
        let a_head_smaller = match (ia < a.len(), ib < b.len()) {
            (true, true) => a[ia] <= b[ib],
            (true, false) => true,
            (false, true) => false,
            (false, false) => break,
        };
        if a_head_smaller {
            if ia + 4 > a.len() {
                break;
            }
            va = _mm256_loadu_si256(a.as_ptr().add(ia).cast());
            ia += 4;
        } else {
            if ib + 4 > b.len() {
                break;
            }
            va = _mm256_loadu_si256(b.as_ptr().add(ib).cast());
            ib += 4;
        }
    }
    // Fewer than 4 elements remain in at least one run: spill the held
    // register and finish with a scalar 3-way merge of (held, a-tail,
    // b-tail).
    let mut held = [0u64; 4];
    _mm256_storeu_si256(held.as_mut_ptr().cast(), vb);
    let (mut h, mut i, mut j) = (0usize, ia, ib);
    while o < out.len() {
        // Smallest of the three heads; `held` is sorted ascending.
        let hv = if h < 4 { Some(held[h]) } else { None };
        let av = if i < a.len() { Some(a[i]) } else { None };
        let bv = if j < b.len() { Some(b[j]) } else { None };
        let take_h = hv.is_some()
            && av.is_none_or(|x| hv.expect("checked") <= x)
            && bv.is_none_or(|x| hv.expect("checked") <= x);
        if take_h {
            out[o] = held[h];
            h += 1;
        } else if av.is_some() && bv.is_none_or(|x| av.expect("checked") <= x) {
            out[o] = a[i];
            i += 1;
        } else {
            out[o] = b[j];
            j += 1;
        }
        o += 1;
    }
}

// ---------------------------------------------------------------------------
// Short sorts: sorting networks in registers
// ---------------------------------------------------------------------------

/// See [`super::sort_short`]: sort up to [`super::MID_MAX`] keys in place.
pub fn sort_short_u64(data: &mut [u64]) {
    debug_check_avx2();
    assert!(
        data.len() <= super::MID_MAX,
        "sort_short_u64 takes at most 256 keys"
    );
    // SAFETY: dispatch gates on AVX2 detection before routing here; the
    // length is checked above.
    unsafe { sort_short_impl(None, data) }
}

/// See [`super::sort_short_into`]: sort the up to [`super::MID_MAX`] keys
/// of `src` into `dst`.
pub fn sort_short_into_u64(src: &[u64], dst: &mut [u64]) {
    debug_check_avx2();
    assert_eq!(src.len(), dst.len(), "sort_short_into size mismatch");
    assert!(
        src.len() <= super::MID_MAX,
        "sort_short_into_u64 takes at most 256 keys"
    );
    // SAFETY: dispatch gates on AVX2 detection before routing here; the
    // lengths are checked above.
    unsafe { sort_short_impl(Some(src), dst) }
}

/// Sort the keys of `src`, or of `dst` itself when `src` is `None`, into
/// `dst` (at most [`super::MID_MAX`] keys), in registers. A class of 128
/// or 256 keys pays for its padding only when at least three quarters
/// full, so a shorter input above [`super::SHORT_MAX`] sorts its first 64
/// or 128 keys in one class and the rest in their own, into a stack
/// buffer, and one [`merge_pair`](super::merge_pair) network merges the
/// two.
#[target_feature(enable = "avx2")]
unsafe fn sort_short_impl(src: Option<&[u64]>, dst: &mut [u64]) {
    let n = dst.len();
    let head = match n {
        0..=64 | 97..=128 | 193.. => return sort_class(src, dst),
        65..=96 => 64,
        _ => 128,
    };
    let mut sorted = [0u64; 192];
    let keys = src.unwrap_or(&*dst);
    let (a, b) = sorted[..n].split_at_mut(head);
    sort_class(Some(&keys[..head]), a);
    sort_class(Some(&keys[head..]), b);
    if b.len() < 4 {
        super::scalar::merge_pair(a, b, dst);
    } else {
        merge_pair_impl(a, b, dst);
    }
}

/// Sort at most [`super::MID_MAX`] keys (of `src`, or of `dst` when `src`
/// is `None`) into `dst` in 4, 8, 16, 32 or 64 registers — the smallest
/// class of 16, 32, 64, 128 or 256 keys that holds them, padded with
/// `u64::MAX`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn sort_class(src: Option<&[u64]>, dst: &mut [u64]) {
    match dst.len() {
        0..=16 => sort_regs::<4>(src, dst),
        17..=32 => sort_regs::<8>(src, dst),
        33..=64 => sort_regs::<16>(src, dst),
        65..=128 => sort_regs::<32>(src, dst),
        _ => sort_regs::<64>(src, dst),
    }
}

/// Sort `dst.len()` keys (at most `4 * R`; read from `src`, or from `dst`
/// when `src` is `None`) in `R` registers and store them to `dst`: load
/// with each sign bit flipped, so every compare-exchange is one signed
/// `vpcmpgtq` and three bitwise operations, sort, and store the first
/// `dst.len()` keys with the sign bits flipped back.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn sort_regs<const R: usize>(src: Option<&[u64]>, dst: &mut [u64]) {
    let mut v = load_flipped::<R>(src.unwrap_or(&*dst));
    sort_flipped(&mut v);
    store_flipped(dst, &v);
}

/// Sort the keys of `R` sign-flipped registers (`R` a power of two from 4
/// to 64). Up to 16: sort the `R`-key columns with a sorting network,
/// transpose each 4×4 block so that column `c` becomes run `c` of `R`
/// keys, and merge runs pairwise, then the two halves. From 32 (more
/// registers than AVX2 has, so the compiler spills): sort each block of
/// 16 registers that way and merge the blocks pairwise by
/// [`bitonic_merge`].
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn sort_flipped<const R: usize>(v: &mut [__m256i; R]) {
    match R {
        4 => columns4(v.first_chunk_mut().expect("4 registers")),
        8 => columns8(v.first_chunk_mut().expect("8 registers")),
        16 => columns16(v.first_chunk_mut().expect("16 registers")),
        _ => {
            for block in v.chunks_exact_mut(16) {
                sort_flipped::<16>(block.try_into().expect("16 registers"));
            }
            if R == 64 {
                for half in v.chunks_exact_mut(32) {
                    bitonic_merge::<32>(half.try_into().expect("32 registers"));
                }
            }
            bitonic_merge::<R>(v);
            return;
        }
    }
    *v = columns_to_runs(*v);
    merge_runs::<R>(v);
}

/// Load `data` into `R` registers, sign bits flipped; lanes past the end
/// hold the pad `u64::MAX`, flipped (`i64::MAX`).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn load_flipped<const R: usize>(data: &[u64]) -> [__m256i; R] {
    let sign = _mm256_set1_epi64x(i64::MIN);
    let pad = _mm256_set1_epi64x(i64::MAX);
    let mut v = [pad; R];
    for (r, reg) in v.iter_mut().enumerate() {
        if 4 * r + 4 <= data.len() {
            let keys = _mm256_loadu_si256(data.as_ptr().add(4 * r).cast());
            *reg = _mm256_xor_si256(keys, sign);
        } else if 4 * r < data.len() {
            let key = |i: usize| data.get(4 * r + i).map_or(u64::MAX, |&k| k) as i64;
            let keys = _mm256_setr_epi64x(key(0), key(1), key(2), key(3));
            *reg = _mm256_xor_si256(keys, sign);
        }
    }
    v
}

/// Store the registers' first `data.len()` keys to `data`, sign bits
/// flipped back.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn store_flipped<const R: usize>(data: &mut [u64], v: &[__m256i; R]) {
    let sign = _mm256_set1_epi64x(i64::MIN);
    for (r, &reg) in v.iter().enumerate() {
        let keys = _mm256_xor_si256(reg, sign);
        if 4 * r + 4 <= data.len() {
            _mm256_storeu_si256(data.as_mut_ptr().add(4 * r).cast(), keys);
        } else if 4 * r < data.len() {
            let mut tail = [0u64; 4];
            _mm256_storeu_si256(tail.as_mut_ptr().cast(), keys);
            for (out, &key) in data[4 * r..].iter_mut().zip(&tail) {
                *out = key;
            }
        }
    }
}

/// Compare-exchange registers `a` and `b` of `v` lane-wise (min to `a`),
/// for each `(a, b)` listed, in order.
macro_rules! network {
    ($v:ident; $(($a:literal, $b:literal)),* $(,)?) => {
        $(
            let (lo, hi) = minmax::<true>($v[$a], $v[$b]);
            $v[$a] = lo;
            $v[$b] = hi;
        )*
    };
}

/// Sort each lane across 4 registers: the optimal 5-comparator network.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn columns4(v: &mut [__m256i; 4]) {
    network!(v; (0, 1), (2, 3), (0, 2), (1, 3), (1, 2));
}

/// Sort each lane across 8 registers: the optimal 19-comparator network
/// of depth 6.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn columns8(v: &mut [__m256i; 8]) {
    network!(v;
        (0, 2), (1, 3), (4, 6), (5, 7),
        (0, 4), (1, 5), (2, 6), (3, 7),
        (0, 1), (2, 3), (4, 5), (6, 7),
        (2, 4), (3, 5),
        (1, 4), (3, 6),
        (1, 2), (3, 4), (5, 6),
    );
}

/// Sort each lane across 16 registers: Green's 60-comparator network of
/// depth 10.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn columns16(v: &mut [__m256i; 16]) {
    network!(v;
        (0, 13), (1, 12), (2, 15), (3, 14), (4, 8), (5, 6), (7, 11), (9, 10),
        (0, 5), (1, 7), (2, 9), (3, 4), (6, 13), (8, 14), (10, 15), (11, 12),
        (0, 1), (2, 3), (4, 5), (6, 8), (7, 9), (10, 11), (12, 13), (14, 15),
        (0, 2), (1, 3), (4, 10), (5, 11), (6, 7), (8, 9), (12, 14), (13, 15),
        (1, 2), (3, 12), (4, 6), (5, 7), (8, 10), (9, 11), (13, 14),
        (1, 4), (2, 6), (5, 8), (7, 10), (9, 13), (11, 14),
        (2, 4), (3, 6), (9, 12), (11, 13),
        (3, 5), (6, 8), (7, 9), (10, 12),
        (3, 4), (5, 6), (7, 8), (9, 10), (11, 12),
        (6, 7), (8, 9),
    );
}

/// Turn `R` registers with sorted columns into 4 sorted runs of `R / 4`
/// registers: transpose each 4×4 block of rows `4b..4b + 4`, whose
/// register `c` then holds column `c`'s keys of those rows, and lay column
/// `c`'s registers end to end as run `c`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn columns_to_runs<const R: usize>(v: [__m256i; R]) -> [__m256i; R] {
    let blocks = R / 4;
    let mut runs = v;
    for b in 0..blocks {
        let t = transpose4([v[4 * b], v[4 * b + 1], v[4 * b + 2], v[4 * b + 3]]);
        for (c, reg) in t.into_iter().enumerate() {
            runs[c * blocks + b] = reg;
        }
    }
    runs
}

/// Merge 4 sorted runs of `K / 4` registers into one sorted sequence: the
/// first two and the last two pairwise, then the two halves.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn merge_runs<const K: usize>(v: &mut [__m256i; K]) {
    match K {
        4 => {
            bitonic_merge::<2>(v.first_chunk_mut().expect("2 + 2 registers"));
            bitonic_merge::<2>(v.last_chunk_mut().expect("2 + 2 registers"));
        }
        8 => {
            bitonic_merge::<4>(v.first_chunk_mut().expect("4 + 4 registers"));
            bitonic_merge::<4>(v.last_chunk_mut().expect("4 + 4 registers"));
        }
        _ => {
            bitonic_merge::<8>(v.first_chunk_mut().expect("8 + 8 registers"));
            bitonic_merge::<8>(v.last_chunk_mut().expect("8 + 8 registers"));
        }
    }
    bitonic_merge::<K>(v);
}

/// Merge the ascending halves of `v` (`K / 2` registers each, `K` a power
/// of two) into one ascending sequence. Each key of the first half meets
/// its mirror image in the second: the minima are the bitonic lower half,
/// the maxima — kept in mirrored order, still bitonic — the upper half.
/// Each half is then cleaned at register strides `K / 4, …, 1` and
/// finally at lane strides 2 and 1.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn bitonic_merge<const K: usize>(v: &mut [__m256i; K]) {
    let half = K / 2;
    let mut w = *v;
    for i in 0..half {
        let mirror = _mm256_permute4x64_epi64(v[K - 1 - i], 0b00_01_10_11);
        let (lo, hi) = minmax::<true>(v[i], mirror);
        w[i] = lo;
        w[half + i] = hi;
    }
    let mut stride = half / 2;
    while stride > 0 {
        for i in 0..K {
            if i & stride == 0 {
                let (lo, hi) = minmax::<true>(w[i], w[i + stride]);
                w[i] = lo;
                w[i + stride] = hi;
            }
        }
        stride /= 2;
    }
    if K < 4 {
        for (out, &reg) in v.iter_mut().zip(&w) {
            *out = bitonic4_clean::<true>(reg);
        }
        return;
    }
    // From four registers up, the lane strides 2 and 1 become register
    // strides: transpose each 4×4 block, compare-exchange its registers,
    // transpose back — fewer shuffles than cleaning each register alone.
    for b in 0..K / 4 {
        let mut t = transpose4([w[4 * b], w[4 * b + 1], w[4 * b + 2], w[4 * b + 3]]);
        network!(t; (0, 2), (1, 3), (0, 1), (2, 3));
        v[4 * b..4 * b + 4].copy_from_slice(&transpose4(t));
    }
}

/// Transpose a 4×4 block of `u64` lanes: register `c` of the result holds
/// lane `c` of each input register, in order.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn transpose4([r0, r1, r2, r3]: [__m256i; 4]) -> [__m256i; 4] {
    let t0 = _mm256_unpacklo_epi64(r0, r1);
    let t1 = _mm256_unpackhi_epi64(r0, r1);
    let t2 = _mm256_unpacklo_epi64(r2, r3);
    let t3 = _mm256_unpackhi_epi64(r2, r3);
    [
        _mm256_permute2x128_si256(t0, t2, 0x20),
        _mm256_permute2x128_si256(t1, t3, 0x20),
        _mm256_permute2x128_si256(t0, t2, 0x31),
        _mm256_permute2x128_si256(t1, t3, 0x31),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn has_avx2() -> bool {
        is_x86_feature_detected!("avx2")
    }

    #[test]
    fn count_and_partition_match_scalar() {
        if !has_avx2() {
            return;
        }
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..300 {
            let n = rng.gen_range(0usize..400);
            let dense = rng.gen_bool(0.5);
            let mut v: Vec<u64> = (0..n)
                .map(|_| {
                    if dense {
                        rng.gen_range(0..32)
                    } else {
                        rng.gen()
                    }
                })
                .collect();
            v.sort_unstable();
            let p = if dense {
                rng.gen_range(0..40)
            } else {
                rng.gen()
            };
            let want = v.partition_point(|x| *x <= p);
            assert_eq!(count_le_u64(&v, &p), want);
            assert_eq!(partition_point_le_u64(&v, &p), want);
        }
    }

    #[test]
    fn histogram_matches_scalar_loop() {
        if !has_avx2() {
            return;
        }
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..50 {
            let n = rng.gen_range(0usize..600);
            let data: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
            let bits = rng.gen_range(1u32..9);
            let shift = rng.gen_range(0u32..(64 - bits));
            let mask = (1u64 << bits) - 1;
            let buckets = 1usize << bits;
            let mut got = vec![0u32; buckets];
            radix_histogram_u64(&data, shift, mask, &mut got);
            let mut want = vec![0u32; buckets];
            for &x in &data {
                want[((x >> shift) & mask) as usize] += 1;
            }
            assert_eq!(got, want);
        }
    }

    #[test]
    fn scatter_matches_scalar_loop() {
        if !has_avx2() {
            return;
        }
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..50 {
            let n = rng.gen_range(0usize..600);
            let data: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
            let bits = rng.gen_range(1u32..7);
            let shift = rng.gen_range(0u32..(64 - bits));
            let mask = (1u64 << bits) - 1;
            let buckets = 1usize << bits;
            let mut hist = vec![0u32; buckets];
            for &x in &data {
                hist[((x >> shift) & mask) as usize] += 1;
            }
            let starts: Vec<u32> = hist
                .iter()
                .scan(0u32, |acc, &c| {
                    let s = *acc;
                    *acc += c;
                    Some(s)
                })
                .collect();
            let run = |simd: bool| {
                let mut cursors = starts.clone();
                let mut scratch = vec![0u64; n];
                if simd {
                    radix_scatter_u64(&data, shift, mask, &mut cursors, &mut scratch);
                } else {
                    for &x in &data {
                        let b = ((x >> shift) & mask) as usize;
                        scratch[cursors[b] as usize] = x;
                        cursors[b] += 1;
                    }
                }
                (cursors, scratch)
            };
            assert_eq!(run(true), run(false));
        }
    }

    #[test]
    fn merge_pair_matches_scalar_merge() {
        if !has_avx2() {
            return;
        }
        let mut rng = StdRng::seed_from_u64(14);
        for _ in 0..300 {
            let la = rng.gen_range(0usize..300);
            let lb = rng.gen_range(0usize..300);
            let dense = rng.gen_bool(0.4);
            let mut gen = |len: usize| -> Vec<u64> {
                let mut v: Vec<u64> = (0..len)
                    .map(|_| {
                        if dense {
                            rng.gen_range(0..16)
                        } else {
                            rng.gen_range(0..1000)
                        }
                    })
                    .collect();
                v.sort_unstable();
                v
            };
            let a = gen(la);
            let b = gen(lb);
            let mut got = vec![0u64; la + lb];
            merge_pair_u64(&a, &b, &mut got);
            let mut want = vec![0u64; la + lb];
            crate::kernels::simd::scalar::merge_pair(&a, &b, &mut want);
            assert_eq!(got, want, "la={la} lb={lb}");
        }
    }

    #[test]
    fn sort_short_matches_sort_unstable_at_every_length() {
        if !has_avx2() {
            return;
        }
        let mut rng = StdRng::seed_from_u64(15);
        for len in 0..=crate::kernels::simd::MID_MAX {
            for round in 0..40 {
                // Spread keys, few distinct, keys around the sign bit the
                // load flips, and keys equal to the pad value.
                let v: Vec<u64> = (0..len)
                    .map(|_| match round % 4 {
                        0 => rng.gen(),
                        1 => rng.gen_range(0..4),
                        2 => (1u64 << 63) - 2 + rng.gen_range(0..4),
                        _ => u64::MAX - rng.gen_range(0..2),
                    })
                    .collect();
                // Sentinels behind the slice: only `len` keys are written.
                let mut got = v.clone();
                got.extend([7, 7, 7, 7]);
                sort_short_u64(&mut got[..len]);
                let mut want = v.clone();
                want.sort_unstable();
                want.extend([7, 7, 7, 7]);
                assert_eq!(got, want, "len={len}");
                // The same from a source slice, which is left as it was.
                let mut into = vec![7u64; len + 4];
                sort_short_into_u64(&v, &mut into[..len]);
                assert_eq!(into, want, "into, len={len}");
            }
        }
    }

    #[test]
    fn merge_pair_adversarial_blocks() {
        if !has_avx2() {
            return;
        }
        // One run entirely below, entirely above, and interleaved in blocks
        // of 4 — the refill decision's edge cases.
        let cases: Vec<(Vec<u64>, Vec<u64>)> = vec![
            ((0..64).collect(), (64..128).collect()),
            ((64..128).collect(), (0..64).collect()),
            (
                (0..64).map(|x| x * 2).collect(),
                (0..64).map(|x| x * 2 + 1).collect(),
            ),
            (vec![5; 40], vec![5; 44]),
            ((0..8).collect(), (4..100).collect()),
        ];
        for (a, b) in cases {
            let mut got = vec![0u64; a.len() + b.len()];
            merge_pair_u64(&a, &b, &mut got);
            let mut want = [a.clone(), b.clone()].concat();
            want.sort_unstable();
            assert_eq!(got, want);
        }
    }
}
