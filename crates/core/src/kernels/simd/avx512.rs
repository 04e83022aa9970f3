//! The AVX-512 tier: [`super::merge_pair`] on an 8-lane `zmm` merge
//! network.
//!
//! AVX-512F compares `u64` lanes natively (`vpminuq`/`vpmaxuq`), so the
//! network needs no sign bias, and one register holds eight keys. The
//! stream machinery — the co-rank cut, the lockstep streams and the tail —
//! is [`super::avx2`]'s, on this network, with two streams: more did not
//! measure faster at this width (DESIGN.md §15). Merges shorter than
//! [`super::STREAM_SPLIT_MIN`] keys, or with a side too short to fill a
//! register, take one 4-lane AVX2 stream instead, whose blocks of four
//! reach shorter sides. Every other kernel runs its AVX2 form at this
//! tier.
//!
//! Callers reach [`merge_pair_u64`] only through [`super::merge_pair`],
//! which gates on [`super::Tier::Avx512`] (host `avx512f` and AVX2
//! detected, `TLMM_NO_SIMD` unset); the wrapper re-verifies detection in
//! debug builds.

#![allow(unsafe_code)]

use super::avx2::{co_ranked, Network};
use core::arch::x86_64::*;

/// The 8-lane network: [`bitonic_merge16`] on `zmm` registers.
struct Zmm;

impl Network for Zmm {
    type V = __m512i;
    const W: usize = 8;

    #[inline(always)]
    unsafe fn load(p: *const u64) -> __m512i {
        _mm512_loadu_si512(p.cast())
    }

    #[inline(always)]
    unsafe fn store(p: *mut u64, v: __m512i) {
        _mm512_storeu_si512(p.cast(), v)
    }

    #[inline(always)]
    unsafe fn merge(a: __m512i, b: __m512i) -> (__m512i, __m512i) {
        bitonic_merge16(a, b)
    }
}

/// See [`super::merge_pair`]: merge sorted `a` and `b` into `out` as two
/// co-ranked streams on the 8-lane network.
pub fn merge_pair_u64(a: &[u64], b: &[u64], out: &mut [u64]) {
    debug_assert!(
        is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx2"),
        "AVX-512 kernel reached without host support; dispatch must gate on simd::tier()"
    );
    assert_eq!(out.len(), a.len() + b.len(), "merge_pair size mismatch");
    if out.len() < super::STREAM_SPLIT_MIN || a.len() < Zmm::W || b.len() < Zmm::W {
        return super::avx2::merge_pair_u64(a, b, out);
    }
    // SAFETY: dispatch gates on AVX-512F and AVX2 detection before
    // routing here; the lengths are checked above.
    unsafe { merge_streams(a, b, out) }
}

#[target_feature(enable = "avx512f,avx2")]
unsafe fn merge_streams(a: &[u64], b: &[u64], out: &mut [u64]) {
    co_ranked::<Zmm, 2>(a, b, out)
}

/// Merge two ascending 8-lane registers into the ascending low and high
/// halves of their 16 keys: reverse `b`, so the lane-wise minima and
/// maxima are two bitonic sequences, then clean each ([`bitonic_clean8`]).
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn bitonic_merge16(a: __m512i, b: __m512i) -> (__m512i, __m512i) {
    let reverse = _mm512_set_epi64(0, 1, 2, 3, 4, 5, 6, 7);
    let br = _mm512_permutexvar_epi64(reverse, b);
    let lo = _mm512_min_epu64(a, br);
    let hi = _mm512_max_epu64(a, br);
    (bitonic_clean8(lo), bitonic_clean8(hi))
}

/// Sort an 8-lane bitonic register ascending: compare lanes at strides 4,
/// 2 and 1, each a permute bringing the partner lane over, an unsigned
/// min and max, and a blend keeping the minima in the lower lane of every
/// pair.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn bitonic_clean8(v: __m512i) -> __m512i {
    // Stride 4: swap the 256-bit halves.
    let t = _mm512_shuffle_i64x2::<0b01_00_11_10>(v, v);
    let v = _mm512_mask_blend_epi64(0xF0, _mm512_min_epu64(v, t), _mm512_max_epu64(v, t));
    // Stride 2: swap the 128-bit pairs of each half.
    let t = _mm512_permutex_epi64::<0b01_00_11_10>(v);
    let v = _mm512_mask_blend_epi64(0xCC, _mm512_min_epu64(v, t), _mm512_max_epu64(v, t));
    // Stride 1: swap the lanes of each 128-bit pair.
    let t = _mm512_shuffle_epi32::<_MM_PERM_BADC>(v);
    _mm512_mask_blend_epi64(0xAA, _mm512_min_epu64(v, t), _mm512_max_epu64(v, t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn network_merges_two_registers() {
        if !(is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx2")) {
            return;
        }
        let mut rng = StdRng::seed_from_u64(21);
        for round in 0..2_000 {
            // Spread keys, few distinct ones, and keys on both sides of
            // 1 << 63, where a signed compare would misorder them.
            let mut key = || match round % 3 {
                0 => rng.gen::<u64>(),
                1 => rng.gen_range(0..4),
                _ => (1u64 << 63)
                    .wrapping_add(rng.gen_range(0..8))
                    .wrapping_sub(4),
            };
            let mut a: Vec<u64> = (0..8).map(|_| key()).collect();
            let mut b: Vec<u64> = (0..8).map(|_| key()).collect();
            a.sort_unstable();
            b.sort_unstable();
            let mut got = [0u64; 16];
            // SAFETY: AVX-512F is detected above.
            unsafe {
                let (lo, hi) = Zmm::merge(Zmm::load(a.as_ptr()), Zmm::load(b.as_ptr()));
                Zmm::store(got.as_mut_ptr(), lo);
                Zmm::store(got.as_mut_ptr().add(8), hi);
            }
            let mut want = [a, b].concat();
            want.sort_unstable();
            assert_eq!(got[..], want[..]);
        }
    }
}
