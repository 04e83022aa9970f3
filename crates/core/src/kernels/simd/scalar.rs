//! Portable scalar forms of the vectorized kernels.
//!
//! These are the *semantic definitions*: every AVX2 kernel in
//! [`super::avx2`] must be observationally equivalent to its function here.
//! They run whenever the host lacks AVX2, `TLMM_NO_SIMD=1` is set, or the
//! element type is not one the vector layer specializes.

/// First index of (sorted) `s` holding an element `> pivot`.
#[inline]
pub fn partition_point_le<T: Ord>(s: &[T], pivot: &T) -> usize {
    s.partition_point(|x| x <= pivot)
}

/// Length of the longest `<= pivot` prefix of (sorted) `s`, found by a
/// forward linear scan — the boundary walk of `bucketize`, which inspects
/// each element once plus the first exceeding one.
#[inline]
pub fn count_le<T: Ord>(s: &[T], pivot: &T) -> usize {
    let mut i = 0;
    while i < s.len() && s[i] <= *pivot {
        i += 1;
    }
    i
}

/// Classic two-way merge of sorted runs `a` and `b` into `out`
/// (`out.len() == a.len() + b.len()`), ties taking `a` first (stable).
/// Returns the comparisons the loop plays: one per emitted element until a
/// run is used up, i.e. the output index at which that happens — the
/// count [`super::pair_merge_cost`] computes by search.
pub fn merge_pair<T: Ord + Copy>(a: &[T], b: &[T], out: &mut [T]) -> u64 {
    debug_assert_eq!(out.len(), a.len() + b.len(), "merge_pair size mismatch");
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let take_a = a[i] <= b[j];
        out[i + j] = if take_a { a[i] } else { b[j] };
        i += usize::from(take_a);
        j += usize::from(!take_a);
    }
    // One run is used up; the other's tail follows in order.
    let played = i + j;
    let (a_tail, b_tail) = (&a[i..], &b[j..]);
    out[played..played + a_tail.len()].copy_from_slice(a_tail);
    out[played + a_tail.len()..].copy_from_slice(b_tail);
    played as u64
}

/// The definition of a short sort: `sort_unstable`.
#[inline]
pub fn sort_short<T: Ord>(s: &mut [T]) {
    s.sort_unstable();
}

/// The same from `src` into `dst`: a copy, then `sort_unstable`.
#[inline]
pub fn sort_short_into<T: Ord + Copy>(src: &[T], dst: &mut [T]) {
    dst.copy_from_slice(src);
    dst.sort_unstable();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_le_stops_at_first_greater() {
        let v = [1u64, 2, 2, 3, 9];
        assert_eq!(count_le(&v, &0), 0);
        assert_eq!(count_le(&v, &2), 3);
        assert_eq!(count_le(&v, &9), 5);
        assert_eq!(count_le::<u64>(&[], &5), 0);
    }

    #[test]
    fn merge_pair_is_stable_on_ties() {
        // Tag ties so stability is observable: equal keys compare equal on
        // the first tuple field only if the second also matches — so use a
        // key-only wrapper ordering via (key, src) pairs merged on key.
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        struct E(u64, u8);
        impl Ord for E {
            fn cmp(&self, o: &Self) -> std::cmp::Ordering {
                self.0.cmp(&o.0)
            }
        }
        impl PartialOrd for E {
            fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(o))
            }
        }
        let a = [E(1, 0), E(5, 0), E(5, 0)];
        let b = [E(1, 1), E(5, 1), E(7, 1)];
        let mut out = [E(0, 0); 6];
        merge_pair(&a, &b, &mut out);
        assert_eq!(out, [E(1, 0), E(1, 1), E(5, 0), E(5, 0), E(5, 1), E(7, 1)]);
    }
}
