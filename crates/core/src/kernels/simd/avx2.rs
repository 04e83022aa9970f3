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

/// Lane-wise unsigned (min, max).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn minmax_u64(a: __m256i, b: __m256i) -> (__m256i, __m256i) {
    let a_gt = gt_u64(a, b);
    (
        _mm256_blendv_epi8(a, b, a_gt),
        _mm256_blendv_epi8(b, a, a_gt),
    )
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
unsafe fn bitonic4_clean(v: __m256i) -> __m256i {
    // Step 1: compare lanes {0,1} with {2,3} (swap 128-bit halves).
    let t = _mm256_permute4x64_epi64(v, 0b01_00_11_10);
    let (mn, mx) = minmax_u64(v, t);
    // Keep mins in lanes 0,1 and maxes in lanes 2,3.
    let v = _mm256_blend_epi32(mn, mx, 0b1111_0000);
    // Step 2: compare adjacent lanes {0,2} with {1,3}.
    let t = _mm256_permute4x64_epi64(v, 0b10_11_00_01);
    let (mn, mx) = minmax_u64(v, t);
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
    let (lo, hi) = minmax_u64(a, br);
    (bitonic4_clean(lo), bitonic4_clean(hi))
}

/// See [`super::merge_pair`]: merge sorted `a` and `b` into `out` with the
/// 4-wide bitonic network, streaming 4 outputs per step, and return the
/// scalar loop's comparison count by one [`super::pair_merge_cost`]
/// search.
pub fn merge_pair_u64(a: &[u64], b: &[u64], out: &mut [u64]) -> u64 {
    debug_check_avx2();
    assert_eq!(out.len(), a.len() + b.len(), "merge_pair size mismatch");
    if a.len() < 4 || b.len() < 4 {
        return super::scalar::merge_pair(a, b, out);
    }
    // SAFETY: dispatch gates on AVX2 detection before routing here; length
    // preconditions checked above.
    unsafe { merge_pair_impl(a, b, out) };
    super::pair_merge_cost(a, b)
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
            let got_cmps = merge_pair_u64(&a, &b, &mut got);
            let mut want = vec![0u64; la + lb];
            let want_cmps = crate::kernels::simd::scalar::merge_pair(&a, &b, &mut want);
            assert_eq!(got, want, "la={la} lb={lb}");
            assert_eq!(got_cmps, want_cmps, "la={la} lb={lb}");
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
