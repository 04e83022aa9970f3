//! Parallel multiway merge via sampled multisequence splitting.
//!
//! NMsort's Phase 2 merges `Θ(N/M)` sorted chunk segments; the baseline
//! merges `p` sorted runs. Both want the merge itself parallel. We split the
//! output into parts by *sampling* splitter values from the segments,
//! computing exact per-segment boundaries with searches, and treating each
//! part as an independent merge — the same multiway splitting idea the
//! MCSTL parallel merge uses, with sampling in place of exact
//! multisequence selection. Splits are exact (parts are disjoint and
//! ordered) but balance is only probabilistic; heavily duplicated keys
//! degrade balance, never correctness.
//!
//! The parts fix the charge: a merge costs the sum over its parts of the
//! loser tree's count, [`merge_cost`]. How the host produces the output is
//! separate. A merge of few segments, or of a type without a radix key,
//! runs [`merge_into_slice`] per part. A deep merge of
//! [`crate::kernels::RadixKey`] elements is charged [`merge_cost`] per
//! part and executed in cache-sized pieces: a second split cuts it into
//! pieces of ~32Ki keys, and the merge executor (`losertree::merge_piece`)
//! writes each piece, by a copy and a radix sort or, for a few long runs
//! of keys that `merge_pair` vectorizes, by its merge tree.
//!
//! **Known imbalance.** The charge split's sample takes every segment's
//! keys at the same quantiles, so on sorted segments of one distribution
//! its parts are badly unbalanced (see `charge_parts`). Fixing it changes
//! the charged counts, so it is left for a change that re-blesses the
//! ledger goldens. The piece split samples with jitter and is balanced.

use crate::kernels::radix_kernel;
use crate::losertree::{merge_cost, merge_into_slice, merge_piece, SORT_MIN_FAN_IN};
use crate::SortElem;
use tlmm_scratchpad::trace::with_lane;

/// Keys per piece of the sort path: 256 KiB of `u64`, an L2-sized radix
/// sort.
pub(crate) const PIECE_KEYS: usize = 1 << 15;
/// Sample keys drawn per part or piece when choosing splitters.
const OVERSAMPLE: usize = 16;

/// Merge `segments` (each sorted) into `out`, split into up to `ways`
/// independent parts. Parts are charged to virtual lanes `0..ways`; with
/// `threads` > 1 they fan out on the sized worker pool. Returns total
/// comparisons: the sum over parts of the loser tree's count,
/// [`merge_cost`].
///
/// The parts define the charge. For [`crate::kernels::RadixKey`] element
/// types with at least `SORT_MIN_FAN_IN` (8) non-empty segments they define
/// nothing else: the count is [`merge_cost`] per part, computed on the
/// pool, and the output comes from a second, finer split into pieces of
/// ~`PIECE_KEYS` (32Ki) keys, each written by the merge executor
/// (`losertree::merge_piece`), which sorts a copy of it or runs its merge
/// tree, as it decides for any merge.
/// Any other merge runs [`merge_into_slice`] per part.
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
    if sorts_pieces(segments) {
        let cmps = merge_count(segments, ways, threads);
        crate::pool::run_indexed(threads, pieces(segments, out, threads), |i, (subs, out)| {
            with_lane(i % ways.max(1), || merge_piece(&subs, out))
        });
        return cmps;
    }
    let parts = charge_parts(segments, ways, 1);
    if parts.len() == 1 {
        return merge_into_slice(segments, out);
    }
    let ways = ways.max(1);
    let merge_part = |t: usize, (subs, out): (Vec<&[T]>, &mut [T])| -> u64 {
        with_lane(t % ways, || merge_into_slice(&subs, out))
    };
    crate::pool::map_indexed(threads, carve(parts, out), merge_part)
        .into_iter()
        .sum()
}

/// Whether a merge of `segments` executes by sorting pieces: a
/// [`crate::kernels::RadixKey`] element type and at least
/// `SORT_MIN_FAN_IN` non-empty segments.
fn sorts_pieces<T: SortElem>(segments: &[&[T]]) -> bool {
    radix_kernel::<T>().is_some()
        && segments.iter().filter(|s| !s.is_empty()).count() >= SORT_MIN_FAN_IN
}

/// The comparisons a merge of `segments` is charged at `ways` parts: the
/// loser tree's count, [`merge_cost`], summed over the sampled charge
/// split ([`charge_parts`]). [`parallel_merge`] returns this count
/// whichever path executes it.
pub(crate) fn merge_count<T: SortElem>(segments: &[&[T]], ways: usize, threads: usize) -> u64 {
    let parts = charge_parts(segments, ways, threads);
    crate::pool::map_indexed(threads, parts, |_, part| merge_cost(&part))
        .into_iter()
        .sum()
}

/// The merge of `segments` into `out` cut at jittered splitters into
/// about `out.len() / PIECE_KEYS` pieces, each paired with its own slice
/// of `out`, in order; the cuts are searched on `threads` workers.
pub(crate) fn pieces<'a, 'o, T: SortElem>(
    segments: &[&'a [T]],
    out: &'o mut [T],
    threads: usize,
) -> Vec<(Vec<&'a [T]>, &'o mut [T])> {
    let total = out.len();
    let count = total.div_ceil(PIECE_KEYS);
    carve(
        split(segments, &splitters(segments, total, count, true), threads),
        out,
    )
}

/// The execution split of a merge of `segments` into about `pieces`
/// pieces, from the jittered sample: `cuts[k][t]` is where piece `t` ends
/// in segment `k`, so piece `t` takes `cuts[k][t - 1]..cuts[k][t]` of
/// every segment (from 0 for the first piece), and each segment's last
/// entry is its length.
pub(crate) fn piece_cuts<T: SortElem>(
    segments: &[&[T]],
    pieces: usize,
    threads: usize,
) -> Vec<Vec<usize>> {
    let total = segments.iter().map(|s| s.len()).sum();
    cuts(segments, &splitters(segments, total, pieces, true), threads)
}

/// The parts a merge is charged over: one part, the whole merge, when
/// `ways` is 1, the merge is shorter than `4·ways` keys or there is at most
/// one segment; otherwise the sampled split at `ways - 1` splitters (fewer
/// when sampled keys repeat).
///
/// The sample takes every segment's keys at a fixed stride from its first
/// key. On sorted segments drawn from one distribution this is degenerate:
/// every segment contributes keys at the same quantiles, so the sorted
/// sample bunches into ~[`OVERSAMPLE`] clusters of near-equal keys, and the
/// splitters fall into them. `baseline_sort` at 10M keys and 256 ways gets
/// 16 parts of 100K–605K keys and 240 of a median ~4K. The charge is a sum
/// over parts, so balancing the split changes every ledger that holds a
/// sampled merge; it is kept as is here (DESIGN.md §10).
fn charge_parts<'a, T: SortElem>(
    segments: &[&'a [T]],
    ways: usize,
    threads: usize,
) -> Vec<Vec<&'a [T]>> {
    let total: usize = segments.iter().map(|s| s.len()).sum();
    let ways = ways.max(1);
    if ways == 1 || total < 4 * ways || segments.len() <= 1 {
        return vec![segments.to_vec()];
    }
    split(segments, &splitters(segments, total, ways, false), threads)
}

/// Up to `count - 1` distinct splitters at evenly spaced ranks of a sample
/// of ~[`OVERSAMPLE`]`·count` keys, drawn from each non-empty segment in
/// proportion to its length at a fixed stride. Without `jitter` every
/// segment's stride starts at its first key and the ranks are taken among
/// the sample's distinct keys (the charge split's sample, see
/// [`charge_parts`]). With it, segment `k` of `K` starts `k/K` of a
/// stride in, so equal-length segments of one distribution sample
/// interleaved quantiles and the splitters spread evenly; and the ranks
/// are taken among all sample keys, so a key that fills many sample
/// places is one splitter, whose part holds its copies and little else,
/// instead of dragging its neighbours' keys into one outsized part.
fn splitters<T: Ord + Copy>(segments: &[&[T]], total: usize, count: usize, jitter: bool) -> Vec<T> {
    if count <= 1 || total == 0 {
        return Vec::new();
    }
    let mut sample: Vec<T> = Vec::with_capacity(OVERSAMPLE * count);
    for (k, seg) in segments.iter().enumerate() {
        if seg.is_empty() {
            continue;
        }
        let want = (OVERSAMPLE * count * seg.len() / total).max(1);
        let step = (seg.len() / want).max(1);
        let first = if jitter { k * step / segments.len() } else { 0 };
        sample.extend(seg[first..].iter().step_by(step).copied());
    }
    sample.sort_unstable();
    if !jitter {
        sample.dedup();
    }
    let mut splitters: Vec<T> = (1..count)
        .map(|t| sample[(t * sample.len() / count).min(sample.len() - 1)])
        .collect();
    splitters.dedup();
    splitters
}

/// Where every sorted segment is cut at the ascending `splitters`: part
/// `t` takes each segment's keys above splitter `t - 1` and up to
/// splitter `t`, and the last part the keys above the last splitter; a
/// segment's entry `t` is where its share of part `t` ends. The parts are
/// disjoint and ordered, so their merges laid end to end are the whole
/// merge.
///
/// Each segment is cut front to back on the pool, every cut found by
/// [`gallop`] from the previous one, so a search reads memory next to the
/// last instead of starting over in the middle of a large segment.
fn cuts<T: SortElem>(segments: &[&[T]], splitters: &[T], threads: usize) -> Vec<Vec<usize>> {
    let cut = |_, seg: &[T]| -> Vec<usize> {
        let mut at = 0;
        splitters
            .iter()
            .map(|s| {
                at += gallop(&seg[at..], s);
                at
            })
            .chain([seg.len()])
            .collect()
    };
    crate::pool::map_indexed(threads, segments.to_vec(), cut)
}

/// The parts of [`cuts`], as each segment's sub-slices.
fn split<'a, T: SortElem>(
    segments: &[&'a [T]],
    splitters: &[T],
    threads: usize,
) -> Vec<Vec<&'a [T]>> {
    let mut parts = vec![Vec::with_capacity(segments.len()); splitters.len() + 1];
    for (seg, ends) in segments.iter().zip(cuts(segments, splitters, threads)) {
        let mut from = 0;
        for (part, end) in parts.iter_mut().zip(ends) {
            part.push(&seg[from..end]);
            from = end;
        }
    }
    parts
}

/// `v.partition_point(|x| x <= s)` on sorted `v`, by doubling a bound from
/// the front and then searching between the last two bounds: `O(lg p)`
/// steps for an answer `p`, all within `v[..2p]`.
fn gallop<T: Ord>(v: &[T], s: &T) -> usize {
    let mut bound = 1;
    while bound < v.len() && v[bound - 1] <= *s {
        bound *= 2;
    }
    let lo = bound / 2;
    lo + v[lo..bound.min(v.len())].partition_point(|x| x <= s)
}

/// Pair each part with its own slice of `out`, in order.
fn carve<'a, 'o, T>(
    parts: Vec<Vec<&'a [T]>>,
    out: &'o mut [T],
) -> Vec<(Vec<&'a [T]>, &'o mut [T])> {
    let mut rest = out;
    parts
        .into_iter()
        .map(|subs| {
            let len = subs.iter().map(|s| s.len()).sum();
            let (a, b) = std::mem::take(&mut rest).split_at_mut(len);
            rest = b;
            (subs, a)
        })
        .collect()
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

    /// Sorted segments of one shape: `fan_in` segments of 0..=2·`len` keys
    /// each, with an empty segment and a one-key segment mixed in.
    fn shaped_segments(shape: &str, fan_in: usize, len: usize, seed: u64) -> Vec<Vec<u64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..fan_in)
            .map(|i| {
                let n = match i % 9 {
                    3 => 0,
                    7 => 1,
                    _ => rng.gen_range(0..=2 * len),
                };
                let mut seg: Vec<u64> = (0..n)
                    .map(|_| match shape {
                        "uniform" => rng.gen::<u64>(),
                        "single_key" => 42,
                        "zipf" => {
                            let r: f64 = rng.gen();
                            (1.0 / (1.0 - r).powf(0.8)).min(1e6) as u64
                        }
                        _ => rng.gen_range(0..4u64),
                    })
                    .collect();
                seg.sort_unstable();
                seg
            })
            .collect()
    }

    /// `parallel_merge` charges the sum of `merge_into_slice`, which is
    /// `merge_cost`, over its sampled parts and outputs the sorted
    /// concatenation, whichever path executes it.
    fn check_charge<T: SortElem + std::fmt::Debug>(
        segments: &[Vec<T>],
        ways: usize,
        threads: usize,
    ) {
        let refs: Vec<&[T]> = segments.iter().map(|s| s.as_slice()).collect();
        let total: usize = refs.iter().map(|s| s.len()).sum();
        let expect_cmps: u64 = charge_parts(&refs, ways, 1)
            .iter()
            .map(|part| {
                let mut out = vec![T::default(); part.iter().map(|s| s.len()).sum()];
                merge_into_slice(part, &mut out)
            })
            .sum();
        let mut out = vec![T::default(); total];
        let cmps = parallel_merge(&refs, &mut out, ways, threads);
        let mut expect: Vec<T> = segments.concat();
        expect.sort_unstable();
        let at = format!(
            "k={} total={total} ways={ways} threads={threads}",
            refs.len()
        );
        assert_eq!(cmps, expect_cmps, "charge differs at {at}");
        assert!(out == expect, "output differs at {at}");
    }

    /// `segments` mapped through `f`, each re-sorted.
    fn convert<T: Ord>(segments: &[Vec<u64>], f: impl Fn(u64) -> T) -> Vec<Vec<T>> {
        segments
            .iter()
            .map(|v| {
                let mut seg: Vec<T> = v.iter().map(|&x| f(x)).collect();
                seg.sort_unstable();
                seg
            })
            .collect()
    }

    #[test]
    fn charge_is_the_sum_over_sampled_parts_on_every_path() {
        for fan_in in [1, 7, 8, 9, 218, 256] {
            for (s, shape) in ["uniform", "single_key", "zipf", "duplicates"]
                .iter()
                .enumerate()
            {
                let segs = shaped_segments(shape, fan_in, 40, fan_in as u64 * 10 + s as u64);
                let as_u32 = convert(&segs, |x| x as u32);
                let as_i64 = convert(&segs, |x| (x as i64).wrapping_sub(1 << 62));
                let as_pair = convert(&segs, |x| (x, x % 3));
                for ways in [1, 8, 256] {
                    for threads in [1, 2] {
                        check_charge(&segs, ways, threads);
                        check_charge(&as_u32, ways, threads);
                        check_charge(&as_i64, ways, threads);
                        check_charge(&as_pair, ways, threads);
                    }
                }
            }
        }
    }

    #[test]
    fn charge_holds_across_many_pieces() {
        // Enough keys for the sort path to cut several pieces.
        let segs = shaped_segments("uniform", 218, 4 * PIECE_KEYS / 218, 5);
        assert!(segs.iter().map(|s| s.len()).sum::<usize>() > 2 * PIECE_KEYS);
        for (ways, threads) in [(1, 1), (8, 2), (256, 2)] {
            check_charge(&segs, ways, threads);
        }
        check_charge(&shaped_segments("zipf", 9, 4 * PIECE_KEYS / 9, 6), 8, 2);
    }

    #[test]
    fn jittered_pieces_give_a_heavy_key_its_own_piece() {
        // 64 sorted runs of Zipf-like keys: key 1 holds about a third of
        // them, then each key k about 1/k² of that, then a long tail of
        // distinct keys. A piece is either one key's copies or at most a
        // few pieces' share, so no run of head keys sizes a piece.
        let mut rng = StdRng::seed_from_u64(9);
        let segs: Vec<Vec<u64>> = (0..64)
            .map(|_| {
                let mut seg: Vec<u64> = (0..4_000)
                    .map(|_| match rng.gen_range(0..100) {
                        0..=32 => 1,
                        33..=49 => rng.gen_range(2..6),
                        _ => rng.gen_range(6..1 << 40),
                    })
                    .collect();
                seg.sort_unstable();
                seg
            })
            .collect();
        let refs: Vec<&[u64]> = segs.iter().map(|s| s.as_slice()).collect();
        let total = 64 * 4_000;
        let pieces = 64;
        let cuts = piece_cuts(&refs, pieces, 2);
        let mut biggest_mixed = 0;
        for t in 0..cuts[0].len() {
            let subs: Vec<&[u64]> = refs
                .iter()
                .zip(&cuts)
                .map(|(seg, ends)| &seg[t.checked_sub(1).map_or(0, |t| ends[t])..ends[t]])
                .collect();
            let len: usize = subs.iter().map(|s| s.len()).sum();
            if !crate::losertree::single_key(&subs) {
                biggest_mixed = biggest_mixed.max(len);
            }
        }
        assert!(
            biggest_mixed <= 3 * total / pieces,
            "a piece of several keys holds {biggest_mixed} of {total} keys"
        );
    }

    #[test]
    fn gallop_finds_the_partition_point() {
        let v: Vec<u64> = (0..1000).map(|i| i / 3).collect();
        for s in [0u64, 1, 5, 100, 332, 333, 1000] {
            assert_eq!(gallop(&v, &s), v.partition_point(|x| *x <= s), "s={s}");
        }
        assert_eq!(gallop::<u64>(&[], &7), 0);
    }
}
