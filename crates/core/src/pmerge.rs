//! Parallel multiway merge via sampled multisequence splitting.
//!
//! NMsort's Phase 2 merges `Θ(N/M)` sorted chunk segments; the baseline
//! merges `p` sorted runs. Both want the merge itself parallel. We split the
//! output into near-equal parts by *sampling* splitter values from the
//! segments, computing exact per-segment boundaries with binary searches,
//! and merging each part independently with `merge_into_slice` — the same
//! multiway splitting idea the MCSTL parallel merge uses, with sampling in
//! place of exact multisequence selection.
//!
//! Splits are exact (parts are disjoint and ordered) but balance is only
//! probabilistic; heavily duplicated keys degrade balance, never
//! correctness.

use crate::losertree::merge_into_slice;
use crate::SortElem;
use tlmm_scratchpad::trace::with_lane;

/// Merge `segments` (each sorted) into `out`, split into up to `ways`
/// independent parts. Parts are charged to virtual lanes `0..ways`; with
/// `threads` > 1 they fan out on the sized worker pool. Returns total
/// comparisons.
///
/// # Panics
/// Panics if `out.len()` differs from the total segment length.
pub fn parallel_merge<T: SortElem>(
    segments: &[&[T]],
    out: &mut [T],
    ways: usize,
    threads: usize,
) -> u64 {
    let total: usize = segments.iter().map(|s| s.len()).sum();
    assert_eq!(out.len(), total, "output must fit the merge exactly");
    let ways = ways.max(1);
    if ways == 1 || total < 4 * ways || segments.len() <= 1 {
        return merge_into_slice(segments, out);
    }

    // --- Sample splitter values -------------------------------------
    let mut sample: Vec<T> = Vec::with_capacity(16 * ways);
    for seg in segments {
        if seg.is_empty() {
            continue;
        }
        let want = (16 * ways * seg.len() / total).max(1);
        let step = (seg.len() / want).max(1);
        sample.extend(seg.iter().step_by(step).copied());
    }
    sample.sort_unstable();
    sample.dedup();
    let mut splitters: Vec<T> = (1..ways)
        .map(|t| sample[(t * sample.len() / ways).min(sample.len() - 1)])
        .collect();
    splitters.dedup();

    // --- Exact boundaries per (splitter, segment) --------------------
    // boundaries[t][k] = first index of segment k beyond part t.
    let mut boundaries: Vec<Vec<usize>> = Vec::with_capacity(splitters.len() + 1);
    for s in &splitters {
        boundaries.push(
            segments
                .iter()
                .map(|seg| seg.partition_point(|x| x <= s))
                .collect(),
        );
    }
    boundaries.push(segments.iter().map(|seg| seg.len()).collect());

    // --- Build disjoint part descriptors -----------------------------
    struct Part<'a, T> {
        subs: Vec<&'a [T]>,
        len: usize,
    }
    let mut parts: Vec<Part<'_, T>> = Vec::with_capacity(boundaries.len());
    let mut prev: Vec<usize> = vec![0; segments.len()];
    for b in &boundaries {
        let subs: Vec<&[T]> = segments
            .iter()
            .zip(prev.iter().zip(b.iter()))
            .map(|(seg, (&lo, &hi))| &seg[lo..hi])
            .collect();
        let len = subs.iter().map(|s| s.len()).sum();
        parts.push(Part { subs, len });
        prev.clone_from(b);
    }

    // --- Carve `out` and merge each part ------------------------------
    let mut out_slices: Vec<&mut [T]> = Vec::with_capacity(parts.len());
    let mut rest = out;
    for p in &parts {
        let (a, b) = rest.split_at_mut(p.len);
        out_slices.push(a);
        rest = b;
    }

    let merge_part = |(t, (part, out)): (usize, (&Part<'_, T>, &mut [T]))| -> u64 {
        with_lane(t % ways, || merge_into_slice(&part.subs, out))
    };

    if threads > 1 {
        let items: Vec<(&Part<'_, T>, &mut [T])> = parts.iter().zip(out_slices).collect();
        crate::pool::map_indexed(threads, items, |t, po| merge_part((t, po)))
            .into_iter()
            .sum()
    } else {
        parts
            .iter()
            .zip(out_slices)
            .enumerate()
            .map(merge_part)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn check(segments: Vec<Vec<u64>>, ways: usize, threads: usize) {
        let refs: Vec<&[u64]> = segments.iter().map(|s| s.as_slice()).collect();
        let total: usize = segments.iter().map(|s| s.len()).sum();
        let mut out = vec![0u64; total];
        parallel_merge(&refs, &mut out, ways, threads);
        let mut expect: Vec<u64> = segments.concat();
        expect.sort_unstable();
        assert_eq!(out, expect, "ways={ways} threads={threads}");
    }

    fn random_sorted(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut v: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1_000_000)).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn merges_correctly_across_ways() {
        let segs: Vec<Vec<u64>> = (0..6)
            .map(|i| random_sorted(1000 + i * 37, i as u64))
            .collect();
        for ways in [1, 2, 4, 8, 16] {
            check(segs.clone(), ways, 1);
            check(segs.clone(), ways, 4);
        }
    }

    #[test]
    fn handles_empty_and_tiny_segments() {
        check(vec![vec![], vec![1, 2], vec![], vec![3]], 4, 1);
        check(vec![vec![]], 4, 1);
        check(vec![], 4, 1);
        check(vec![vec![5]], 8, 4);
    }

    #[test]
    fn handles_all_equal_keys() {
        check(vec![vec![7; 500], vec![7; 300], vec![7; 200]], 8, 4);
    }

    #[test]
    fn handles_disjoint_ranges() {
        check(
            vec![
                (0..1000).collect(),
                (1000..2000).collect(),
                (2000..3000).collect(),
            ],
            4,
            4,
        );
    }

    #[test]
    fn handles_skewed_sizes() {
        check(
            vec![random_sorted(100_000, 1), vec![5], random_sorted(10, 2)],
            8,
            4,
        );
    }

    #[test]
    fn comparisons_counted() {
        let segs: Vec<Vec<u64>> = (0..4).map(|i| random_sorted(5000, i)).collect();
        let refs: Vec<&[u64]> = segs.iter().map(|s| s.as_slice()).collect();
        let mut out = vec![0u64; 20_000];
        let cmps = parallel_merge(&refs, &mut out, 4, 1);
        assert!(cmps >= 20_000 / 2, "cmps={cmps}");
        assert!(cmps <= 20_000 * 4, "cmps={cmps}");
    }
}
