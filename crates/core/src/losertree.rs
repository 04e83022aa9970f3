//! The charge of a k-way merge, and the host merge that executes it.
//!
//! Every merge in this crate — the external mergesort's merge passes,
//! NMsort's Phase-2 multiway merge of sorted chunk segments, the
//! baseline's merge rounds and SPMS's bucket merges — is charged the
//! comparisons a loser tree plays merging its runs: at most `⌈lg k⌉` per
//! emitted element (fewer once a subtree runs dry), the constant the
//! multiway merge sort analysis (Theorem 1) assumes. The tree is played
//! over the pair pre-merge plan: adjacent runs of at most
//! [`PREMERGE_MAX`] keys are two-way merged first, and the tree's leaves
//! are those pairs and the remaining runs.
//!
//! [`merge_cost`] is that count, computed from the runs alone and never
//! by playing the tree: by binary searches, by a closed form when every
//! run holds one key value, or by a scan of the non-empty runs when they
//! average a few keys. It is the only count; the tests hold it to
//! [`crate::kernels::reference::merge_cost_ref`], which plays the
//! reference tree.
//!
//! The merge kernels only execute. One executor (`merge_runs`) writes a
//! merge's output without counting and chooses by the data's shape: a
//! copy and one sort for runs of a few keys, a concatenation for one key
//! value, a copy and a radix sort for a deep merge of
//! [`crate::kernels::RadixKey`] elements, and an uncounted bottom-up
//! two-way merge tree otherwise. Every path keeps equal keys in run
//! order. [`merge_into_slice`] runs it and returns [`merge_cost`];
//! [`crate::pmerge`]'s pieces and the baseline's waves call it directly.
//! See DESIGN.md §10.

use crate::kernels::{radix_kernel, simd, sort_kernel};
use crate::pmerge::{pieces, PIECE_KEYS};
use std::ops::Range;

/// Runs at or below this length are paired by the pre-merge plan: the
/// charged tree two-way merges adjacent short runs before its leaves
/// play, halving `k` where it is cheap. Longer runs are leaves of their
/// own.
pub const PREMERGE_MAX: usize = 1 << 16;

/// Non-empty runs from which a merge of [`crate::kernels::RadixKey`]
/// elements may be executed by copying and sorting rather than by the
/// merge tree: below it the tree makes at most `⌈lg 7⌉ = 3` two-way
/// passes over every key, which wins on every tier (DESIGN.md §10).
pub(crate) const SORT_MIN_FAN_IN: usize = 8;

/// Mean run length from which the vector merge tree still beats a copy
/// and a radix sort at fan-ins from [`SORT_MIN_FAN_IN`] up to
/// [`VECTOR_TREE_FAN_IN`]: on shorter runs the tree's passes gain less
/// than the in-cache sort, and duplicate-heavy keys (SPMS's Zipf
/// buckets), which the radix sort takes faster, tip the balance.
const TREE_MIN_MEAN_RUN: usize = 512;

/// The fan-in below which the merge tree beats a copy and a radix sort
/// on runs of at least [`TREE_MIN_MEAN_RUN`] keys where `merge_pair`
/// runs vectorized ([`simd::vectorizes`]): each of the tree's `⌈lg k⌉`
/// passes costs ~1.0–1.9 ns/key there, ~4 scalar, against ~6–9 for a
/// copy and a radix sort of uniform keys. On keys of a narrow span or
/// few values the radix sort runs 2–3× faster, and 16 runs of them
/// already merge slower than they sort at `avx512` (DESIGN.md §10).
const VECTOR_TREE_FAN_IN: usize = 16;

/// Whether `merge_runs` executes a merge of `runs` (`total` keys) by
/// copying them and sorting the copy with [`sort_kernel`]: a
/// [`crate::kernels::RadixKey`] type, at least [`SORT_MIN_FAN_IN`]
/// non-empty runs, and a fan-in or mean run length at which the merge
/// tree's passes cost more than the sort.
pub(crate) fn sorts_merge<T: crate::SortElem>(runs: &[&[T]], total: usize) -> bool {
    if radix_kernel::<T>().is_none() {
        return false;
    }
    let k = runs.iter().filter(|r| !r.is_empty()).count();
    let tree_below = if simd::vectorizes::<T>() {
        VECTOR_TREE_FAN_IN
    } else {
        SORT_MIN_FAN_IN
    };
    k >= SORT_MIN_FAN_IN && (k >= tree_below || total < TREE_MIN_MEAN_RUN * k)
}

/// Plateau probe for the pair pre-merge: `true` when sampled positions of
/// the sorted run sit inside equal-key plateaus at least [`PLATEAU_GAP`]
/// long. Such a run is a leaf of its own in the charged tree. The
/// decision reads only the data, so the charge is identical across SIMD
/// dispatch and thread counts.
fn duplicate_heavy<T: Ord>(r: &[T]) -> bool {
    if r.len() < PROBE_MIN {
        return false;
    }
    let span = r.len() - PLATEAU_GAP;
    let hits = (0..PROBES)
        .filter(|&k| {
            let p = span * (2 * k + 1) / (2 * PROBES);
            r[p] == r[p + PLATEAU_GAP]
        })
        .count();
    hits * 2 >= PROBES
}

/// Plateau length [`duplicate_heavy`] probes for.
const PLATEAU_GAP: usize = 32;

/// Positions [`duplicate_heavy`] probes for a plateau.
const PROBES: usize = 4;

/// Runs shorter than this are never [`duplicate_heavy`] (its probes need
/// `PROBES` plateau gaps), so a merge of them pairs every adjacent run.
const PROBE_MIN: usize = PLATEAU_GAP * PROBES;

/// The pair pre-merge plan: the charged loser tree's leaves in order, as
/// run-index ranges — each either one run or two adjacent runs merged
/// first. With four or more runs, adjacent runs no longer than
/// [`PREMERGE_MAX`] and not [`duplicate_heavy`] are paired left to right;
/// otherwise every leaf is one run. [`merge_cost`] charges it and
/// [`crate::kernels::reference::merge_cost_ref`] plays it.
pub(crate) fn premerge_plan<'r, T: Ord>(
    runs: &'r [&'r [T]],
) -> impl Iterator<Item = Range<usize>> + Clone + 'r {
    let pairable = |r: &[T]| r.len() <= PREMERGE_MAX && !duplicate_heavy(r);
    let pairs = runs.len() >= 4;
    let mut i = 0;
    std::iter::from_fn(move || {
        let lo = i;
        i += match runs.get(lo..lo + 2) {
            Some([a, b]) if pairs && pairable(a) && pairable(b) => 2,
            _ if lo < runs.len() => 1,
            _ => return None,
        };
        Some(lo..i)
    })
}

/// Fold `runs` up a tree over the leaves of `plan` (a partition of the
/// runs into single runs and adjacent pairs, in order), padded with empty
/// leaves to a power of two, so the node of height `h` at index `i`
/// covers leaves `[i·2^h, (i+1)·2^h)`. `leaf(r, at)` makes the node of run
/// `r`, which starts at offset `at` of the merged output; `join(left,
/// right, h)` makes a node of height `h` from its two children, with
/// `h = 0` for a planned pair. A node whose right half is all padding is
/// its left child, carried up without a join. Returns the root, or `None`
/// without runs.
fn fold_plan<T: Ord, N: Copy>(
    runs: &[&[T]],
    plan: impl Iterator<Item = Range<usize>>,
    leaf: impl Fn(usize, usize) -> N,
    mut join: impl FnMut(N, N, u32) -> N,
) -> Option<N> {
    if runs.is_empty() {
        return None;
    }
    // Complete subtrees still waiting for their right sibling, as a binary
    // counter: heights strictly decrease towards the top, so 64 slots
    // hold any plan. Slots from `top` on are filler.
    let mut stack = [(leaf(0, 0), 0u32); usize::BITS as usize];
    let mut top = 0;
    let mut at = 0;
    for r in plan {
        let mut node = leaf(r.start, at);
        at += runs[r.start].len();
        if r.len() == 2 {
            node = join(node, leaf(r.start + 1, at), 0);
            at += runs[r.start + 1].len();
        }
        let mut h = 0;
        while top > 0 && stack[top - 1].1 == h {
            top -= 1;
            h += 1;
            node = join(stack[top].0, node, h);
        }
        stack[top] = (node, h);
        top += 1;
    }
    // The last subtree and the padding to its right join the ones before.
    let (mut root, _) = stack[top - 1];
    for &(left, h) in stack[..top - 1].iter().rev() {
        root = join(left, root, h + 1);
    }
    Some(root)
}

/// The comparisons a loser tree plays merging `runs` over the pair
/// pre-merge plan: the planned pairs
/// ([`crate::kernels::simd::pair_merge_cost`] each) plus the tree over
/// the plan's leaves, computed from the runs alone. With two runs it is
/// `pair_merge_cost`. This is every merge's charge: [`merge_into_slice`]
/// returns it, and [`crate::pmerge::parallel_merge`] sums it over its
/// parts.
///
/// Three ways to the one count, by the runs' shape:
/// - every non-empty run holds the same key value: a closed form in
///   `O(k)` adds (`single_key_cost`);
/// - runs averaging fewer than 8 keys (`SORT_MEAN_RUN`): a scan of the
///   non-empty runs alone (`leaf_cost`, on a copy of them laid end to
///   end);
/// - otherwise `O(k lg k)` binary searches (`search_cost`).
pub fn merge_cost<T: Ord + Copy>(runs: &[&[T]]) -> u64 {
    if single_key(runs) {
        return single_key_cost(runs);
    }
    let total: usize = runs.iter().map(|r| r.len()).sum();
    if runs.len() >= 2 && total < SORT_MEAN_RUN * runs.len() {
        let mut keys = Vec::with_capacity(total);
        let mut leaves = Vec::with_capacity(runs.len().min(total));
        for (i, r) in runs.iter().enumerate() {
            if let Some(&max) = r.last() {
                keys.extend_from_slice(r);
                leaves.push(Leaf::new(i, r.len(), max));
            }
        }
        if let Some(cost) = leaf_cost(&keys, &leaves, false) {
            return cost;
        }
    }
    search_cost(runs)
}

/// [`merge_cost`] by binary searches: each tree level is built from the
/// one below, carrying every node's runs, length and maximum, and a node
/// costs one search of each run of one side.
fn search_cost<T: Ord>(runs: &[&[T]]) -> u64 {
    if runs.len() < 2 {
        return 0;
    }
    // One level of the tree, built from the one below, so no node
    // re-scans its runs for their length or maximum.
    let mut level: Vec<CostNode<T>> = premerge_plan(runs)
        .map(|r| {
            let side = &runs[r.clone()];
            let len = side.iter().map(|x| x.len() as u64).sum();
            (
                r.start,
                r.end,
                len,
                side.iter().filter_map(|x| x.last()).max(),
            )
        })
        .collect();
    let pairs: u64 = level
        .iter()
        .filter(|&&(lo, hi, ..)| hi - lo == 2)
        .map(|&(lo, ..)| crate::kernels::simd::pair_merge_cost(runs[lo], runs[lo + 1]))
        .sum();
    let mut tree = 0u64;
    while level.len() > 1 {
        level = level
            .chunks(2)
            .map(|c| match *c {
                [l, r] => {
                    tree += node_cost(runs, l, r);
                    (l.0, r.1, l.2 + r.2, l.3.max(r.3))
                }
                // A right half of padding: the node is its left child.
                _ => c[0],
            })
            .collect();
    }
    pairs + tree
}

/// A node of [`merge_cost`]'s tree: the runs under it (`lo..hi`), their
/// total length and their maximum.
type CostNode<'r, T> = (usize, usize, u64, Option<&'r T>);

/// Comparisons one loser-tree node plays merging the runs under its left
/// subtree with those under its right: `|side that exhausts first|` plus
/// the elements of the other side ordered before that side's last
/// element. Ties go to the left side, so a right side counts its elements
/// `<` the left's last and a left side counts its elements `≤` the
/// right's last. Zero when either side is empty.
fn node_cost<T: Ord>(runs: &[&[T]], left: CostNode<T>, right: CostNode<T>) -> u64 {
    let ((llo, lhi, l_len, l_max), (rlo, rhi, r_len, r_max)) = (left, right);
    let (Some(l_max), Some(r_max)) = (l_max, r_max) else {
        return 0;
    };
    let before = |side: &[&[T]], pred: &dyn Fn(&T) -> bool| {
        side.iter()
            .map(|r| r.partition_point(pred) as u64)
            .sum::<u64>()
    };
    if l_max <= r_max {
        l_len + before(&runs[rlo..rhi], &|x| x < l_max)
    } else {
        r_len + before(&runs[llo..lhi], &|x| x <= r_max)
    }
}

/// Merge `runs` into the exactly-sized slice `out`, returning the
/// comparisons to charge: [`merge_cost`].
///
/// Runs averaging fewer than 8 keys (`SORT_MEAN_RUN`), from SPMS's sample
/// merges to a sparse part of a deep merge, are copied out, counted over
/// their non-empty runs in the copy (`leaf_cost`, the count
/// [`merge_cost`] takes on such runs, so no key is copied twice) and
/// sorted once. Any other merge is executed by `merge_runs` and charged
/// [`merge_cost`].
///
/// # Panics
/// Panics if `out.len()` differs from the total run length.
pub fn merge_into_slice<T: crate::SortElem>(runs: &[&[T]], out: &mut [T]) -> u64 {
    let total: usize = runs.iter().map(|r| r.len()).sum();
    assert_eq!(out.len(), total, "output slice must fit the merge exactly");
    if runs.len() >= 2 && total < SORT_MEAN_RUN * runs.len() {
        return count_and_sort(runs, out);
    }
    merge_runs(runs, out);
    merge_cost(runs)
}

/// Merge `runs` into `out`, exactly their total length, counting nothing:
/// the executor of every merge, whose charge is [`merge_cost`]. It
/// chooses by the data's shape:
/// - every non-empty run holds one key value: the runs concatenated;
/// - runs averaging fewer than 8 keys (`SORT_MEAN_RUN`): a copy, then one
///   sort (`sort_merged`);
/// - where [`sorts_merge`] holds (a [`crate::kernels::RadixKey`] type, at
///   least `SORT_MIN_FAN_IN` non-empty runs, and a fan-in or mean run
///   length at which the tree loses): a copy, then [`sort_kernel`];
/// - anything else: an uncounted two-way merge tree (`merge_tree`).
///
/// A merge of radix keys that would be sorted and holds more than
/// `SORT_WHOLE_MAX` keys is cut into pieces of ~[`PIECE_KEYS`] first
/// ([`crate::pmerge::pieces`]), each executed by [`merge_piece`], so that
/// no radix sort runs out of L2.
///
/// Each keeps equal keys in run order: the concatenation and the tree by
/// construction, a stable sort for other types, and for radix keys equal
/// keys are identical elements, so any order of them is the same output.
pub(crate) fn merge_runs<T: crate::SortElem>(runs: &[&[T]], out: &mut [T]) {
    execute(runs, out, true);
}

/// [`merge_runs`] on one piece of a cut merge, which is not cut again:
/// a piece's splitters can fall on its last key, so a second cut need
/// not shrink it.
pub(crate) fn merge_piece<T: crate::SortElem>(runs: &[&[T]], out: &mut [T]) {
    execute(runs, out, false);
}

/// Longest merge `merge_runs` sorts whole: 2 MiB of `u64`, an L2-sized
/// radix sort. Below it the cut into pieces costs more than it saves.
const SORT_WHOLE_MAX: usize = 8 * PIECE_KEYS;

/// The executor's one decision, for [`merge_runs`] and [`merge_piece`]:
/// a sort longer than `SORT_WHOLE_MAX` radix keys is cut into pieces
/// when `may_cut` holds.
fn execute<T: crate::SortElem>(runs: &[&[T]], out: &mut [T], may_cut: bool) {
    debug_assert_eq!(out.len(), runs.iter().map(|r| r.len()).sum::<usize>());
    let total = out.len();
    if single_key(runs) {
        return concat(runs, out);
    }
    let few = total < SORT_MEAN_RUN * runs.len();
    if !few && !sorts_merge(runs, total) {
        return merge_tree(runs, out);
    }
    if may_cut && total > SORT_WHOLE_MAX && radix_kernel::<T>().is_some() {
        for (subs, out) in pieces(runs, out, 1) {
            merge_piece(&subs, out);
        }
    } else if few {
        concat(runs, out);
        sort_merged(out);
    } else {
        concat(runs, out);
        sort_kernel(out);
    }
}

/// Copy `runs` into `out` end to end, in run order.
fn concat<T: Copy>(runs: &[&[T]], out: &mut [T]) {
    let mut rest = out;
    for r in runs {
        let (dst, next) = rest.split_at_mut(r.len());
        dst.copy_from_slice(r);
        rest = next;
    }
}

/// `true` when every non-empty run of `runs` holds one and the same key
/// value (by `Ord`).
pub(crate) fn single_key<T: Ord>(runs: &[&[T]]) -> bool {
    let Some(key) = runs.iter().find_map(|r| r.first()) else {
        return true;
    };
    let is_key = |x: Option<&T>| x.is_none_or(|x| x.cmp(key).is_eq());
    runs.iter().all(|r| is_key(r.first()) && is_key(r.last()))
}

/// [`merge_cost`] of a merge whose non-empty runs all hold one key value,
/// in `O(k)` adds: a pair or tree node whose sides are both non-empty
/// plays `|left|` (ties go left, so the left side exhausts first with no
/// right key ordered before it), and any other node plays nothing.
fn single_key_cost<T: Ord>(runs: &[&[T]]) -> u64 {
    let mut cost = 0u64;
    fold_plan(
        runs,
        premerge_plan(runs),
        |r, _| runs[r].len(),
        |l, r, _| {
            if l > 0 && r > 0 {
                cost += l as u64;
            }
            l + r
        },
    );
    cost
}

/// Where a merge-tree node's keys are: still in one input run, or in one
/// of the two merge buffers (`0` is the output, `1` the scratch).
#[derive(Clone, Copy)]
enum Held<'r, T> {
    Run(&'r [T]),
    Buf(usize),
}

/// A merge-tree node: `len` keys bound for `out[at..at + len]`.
#[derive(Clone, Copy)]
struct Node<'r, T> {
    at: usize,
    len: usize,
    held: Held<'r, T>,
}

impl<'r, T> Node<'r, T> {
    /// The node's keys: its run, or its range of `buf`, the buffer it is
    /// held in.
    fn keys<'a>(self, buf: &'a [T]) -> &'a [T]
    where
        'r: 'a,
    {
        match self.held {
            Held::Run(s) => s,
            Held::Buf(_) => &buf[self.at..self.at + self.len],
        }
    }
}

/// The uncounted merge tree of `merge_runs`: a bottom-up two-way merge
/// ([`crate::kernels::simd::merge_pair`], ties going left) over the
/// non-empty runs, a complete binary tree padded to a power of two
/// (`fold_plan` with every run a leaf). Nodes ping-pong between `out` and
/// one scratch buffer by height, the root's height writing `out`; a node
/// still in an input run is read in place, and a carried node whose next
/// merge writes the buffer it sits in moves to the other one first.
fn merge_tree<T: crate::SortElem>(runs: &[&[T]], out: &mut [T]) {
    let runs: Vec<&[T]> = runs.iter().copied().filter(|r| !r.is_empty()).collect();
    let total = out.len();
    let root_height = runs.len().next_power_of_two().trailing_zeros();
    // Allocated by the first join that writes it or moves a node into it.
    let mut scratch: Vec<T> = Vec::new();
    let leaf = |r: usize, at: usize| Node {
        at,
        len: runs[r].len(),
        held: Held::Run(runs[r]),
    };
    let plan = (0..runs.len()).map(|r| r..r + 1);
    let root = fold_plan(&runs, plan, leaf, |l, r, h| {
        let d = ((root_height - h) % 2) as usize;
        let moved = |c: Node<T>| matches!(c.held, Held::Buf(b) if b == d);
        if scratch.is_empty() && (d == 1 || moved(l) || moved(r)) {
            scratch = vec![T::default(); total];
        }
        let (dst, src): (&mut [T], &mut [T]) = if d == 0 {
            (out, &mut scratch)
        } else {
            (&mut scratch, out)
        };
        for c in [l, r].into_iter().filter(|&c| moved(c)) {
            src[c.at..c.at + c.len].copy_from_slice(&dst[c.at..c.at + c.len]);
        }
        crate::kernels::simd::merge_pair(l.keys(src), r.keys(src), &mut dst[l.at..r.at + r.len]);
        Node {
            at: l.at,
            len: l.len + r.len,
            held: Held::Buf(d),
        }
    });
    match root.map(|n| n.held) {
        Some(Held::Run(s)) => out.copy_from_slice(s),
        Some(Held::Buf(1)) => out.copy_from_slice(&scratch),
        _ => {}
    }
}

/// Mean run length below which a merge is counted over its non-empty runs
/// ([`leaf_cost`]) and sorted instead of merged, by [`merge_into_slice`],
/// `merge_runs` and SPMS's bucket merges, and below which [`merge_cost`]
/// counts the same way. With runs of about one key, a merge per node
/// costs a mispredicted loop exit and two tail copies per key or so; a
/// scan per node and one sort cost less, about a fifth of SPMS's wall
/// time on Zipf keys against merging every node (DESIGN.md §10). On
/// uniform `u64` sorting still won at 32 keys per run and lost from a few
/// hundred, so 8 keeps well clear of the crossover. A data-shape
/// constant: the count is the same either way.
pub(crate) const SORT_MEAN_RUN: usize = 8;

/// [`merge_into_slice`] for runs of a few keys: copy the non-empty runs
/// into `out` in run order, one [`Leaf`] each, count the tree over the
/// leaves ([`leaf_cost`], or `search_cost` when a run is long enough for
/// the plan to leave it unpaired), then sort `out` ([`sort_merged`]),
/// unless it holds one key value and is already in order.
fn count_and_sort<T: crate::SortElem>(runs: &[&[T]], out: &mut [T]) -> u64 {
    let Some(&key) = runs.iter().find_map(|r| r.first()) else {
        return 0;
    };
    let mut leaves = Vec::with_capacity(runs.len().min(out.len()));
    let mut single = true;
    let mut at = 0;
    for (i, r) in runs.iter().enumerate() {
        let (Some(first), Some(&max)) = (r.first(), r.last()) else {
            continue;
        };
        single &= (*first == key) & (max == key);
        out[at..at + r.len()].copy_from_slice(r);
        at += r.len();
        leaves.push(Leaf::new(i, r.len(), max));
    }
    let cost = leaf_cost(out, &leaves, single).unwrap_or_else(|| search_cost(runs));
    if !single {
        sort_merged(out);
    }
    cost
}

/// Sort the concatenated runs of a merge into its output order: stably
/// in general, which keeps equal keys in run order; with the host sort
/// kernel for [`crate::kernels::RadixKey`] types, whose equal keys are
/// identical, so any order of them is the same output.
pub(crate) fn sort_merged<T: crate::SortElem>(out: &mut [T]) {
    if radix_kernel::<T>().is_some() {
        sort_kernel(out);
    } else {
        out.sort();
    }
}

/// A non-empty run of a merge, as [`leaf_cost`] takes it: the run's index
/// among the merge's runs (empty ones included), its length and its last,
/// largest key. The run's keys follow the previous leaf's in the keys
/// `leaf_cost` is given.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Leaf<T> {
    run: u32,
    len: u32,
    max: T,
}

impl<T> Leaf<T> {
    /// Run `run` of `len` keys, the last `max`. Both fit a `u32`: leaves
    /// come from merges of runs averaging under [`SORT_MEAN_RUN`] keys, and
    /// 2³² runs would take 64 GiB of slices to list.
    #[inline]
    pub(crate) fn new(run: usize, len: usize, max: T) -> Self {
        debug_assert!(u32::try_from(run.max(len)).is_ok());
        Self {
            run: run as u32,
            len: len as u32,
            max,
        }
    }
}

/// [`merge_cost`] from a merge's non-empty runs alone: `keys` holds them
/// end to end and `leaves` describes them in order. With `single_key`
/// every key is the same value.
///
/// When the pair plan pairs every adjacent run (fewer than four runs, or
/// every run pairable), the tree over the plan's leaves is the complete
/// binary tree over the runs themselves, a pair being a node of height 1,
/// so a run's leaf position is its run index. A node plays only when both
/// of its sides hold keys, so the nodes that play are those where two
/// non-empty runs first meet: runs `i < j` meet at the node of height
/// `⌊lg(i ^ j)⌋ + 1`, their positions' lowest common ancestor, and
/// neighbours in run order meet at strictly different heights. A stack of
/// subtrees waiting for their right neighbour, each tagged with the height
/// at which it joins the one below, gives every playing node once, in
/// `O(leaves)` joins; each costs the `node_cost` formula, a scan of the
/// side that does not exhaust first. Empty runs cost nothing.
///
/// Returns `None` when a run has [`PROBE_MIN`] keys or more: the plan may
/// leave it unpaired, so positions need not be run indices.
pub(crate) fn leaf_cost<T: Ord + Copy>(
    keys: &[T],
    leaves: &[Leaf<T>],
    single_key: bool,
) -> Option<u64> {
    let Some(first) = leaves.first() else {
        return Some(0);
    };
    // Subtrees from the bottom: their keys `keys[at..at + len]`, their
    // maximum, and the height at which each joins the one below it
    // (strictly decreasing upwards, so 33 slots hold any u32 run index).
    let mut stack = [Sub {
        at: 0,
        len: first.len as usize,
        max: first.max,
        height: u32::MAX,
    }; u32::BITS as usize + 1];
    let mut top = 0;
    let mut at = first.len as usize;
    let mut long = first.len as usize >= PROBE_MIN;
    let mut prev = first.run;
    let mut cost = 0u64;
    for leaf in &leaves[1..] {
        let height = u32::BITS - (leaf.run ^ prev).leading_zeros();
        prev = leaf.run;
        long |= leaf.len as usize >= PROBE_MIN;
        while stack[top].height < height {
            let right = stack[top];
            top -= 1;
            cost += join(keys, &mut stack[top], right, single_key);
        }
        top += 1;
        stack[top] = Sub {
            at,
            len: leaf.len as usize,
            max: leaf.max,
            height,
        };
        at += leaf.len as usize;
    }
    while top > 0 {
        let right = stack[top];
        top -= 1;
        cost += join(keys, &mut stack[top], right, single_key);
    }
    (!long).then_some(cost)
}

/// A subtree of [`leaf_cost`]'s stack.
#[derive(Clone, Copy)]
struct Sub<T> {
    at: usize,
    len: usize,
    max: T,
    height: u32,
}

/// Join `right` into its left neighbour `left` and return the node's
/// comparisons, the `node_cost` formula: when `left` exhausts first (its
/// maximum is no greater), `|left|` plus the right keys `<` its maximum,
/// else `|right|` plus the left keys `≤` the right maximum. With one key
/// value throughout, the left side exhausts first and no right key is
/// below its last.
///
/// The sides are a few keys long, so a join costs its branches more than
/// its scan. A branch-free choice of side and a fixed-width masked scan
/// were measured no faster than this plain form on 57- and 3,163-run
/// buckets (DESIGN.md §10).
#[inline]
fn join<T: Ord + Copy>(keys: &[T], left: &mut Sub<T>, right: Sub<T>, single_key: bool) -> u64 {
    let cost = if single_key {
        left.len
    } else if left.max <= right.max {
        let side = &keys[right.at..right.at + right.len];
        left.len + side.iter().filter(|&&x| x < left.max).count()
    } else {
        let side = &keys[left.at..left.at + left.len];
        right.len + side.iter().filter(|&&x| x <= right.max).count()
    };
    left.len += right.len;
    left.max = left.max.max(right.max);
    cost as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::reference::merge_cost_ref;

    /// `merge_into_slice` emits the sorted union and charges
    /// `merge_cost`, which is the played reference count, at every SIMD
    /// tier; the executor alone emits the same.
    fn check_merge(runs: Vec<Vec<u64>>) {
        let refs: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
        let mut expect: Vec<u64> = runs.concat();
        expect.sort_unstable();
        let cost = merge_cost_ref(&refs);
        assert_eq!(merge_cost(&refs), cost);
        let merged = simd::every_tier(|| {
            let mut out = vec![0; expect.len()];
            let cmps = merge_into_slice(&refs, &mut out);
            let mut exec = vec![0; expect.len()];
            merge_runs(&refs, &mut exec);
            (cmps, out, exec)
        });
        for (tier, (cmps, out, exec)) in merged {
            assert_eq!(cmps, cost, "{tier:?}");
            assert_eq!(out, expect, "{tier:?}");
            assert_eq!(exec, expect, "{tier:?}");
        }
    }

    #[test]
    fn merges_zero_one_two_many() {
        check_merge(vec![]);
        check_merge(vec![vec![1, 2, 3]]);
        check_merge(vec![vec![1, 3, 5], vec![2, 4, 6]]);
        check_merge(vec![vec![1, 4, 7], vec![2, 5, 8], vec![3, 6, 9]]);
    }

    #[test]
    fn merges_with_empty_runs() {
        check_merge(vec![vec![], vec![1, 2], vec![], vec![0, 3], vec![]]);
        check_merge(vec![vec![], vec![], vec![]]);
    }

    #[test]
    fn merges_duplicates() {
        check_merge(vec![vec![1, 1, 1], vec![1, 1], vec![1]]);
        check_merge(vec![vec![5; 100], vec![5; 50], vec![4; 10], vec![6; 10]]);
    }

    #[test]
    fn merges_uneven_lengths() {
        check_merge(vec![
            (0..1000).collect(),
            vec![500],
            (250..260).collect(),
            vec![],
        ]);
    }

    #[test]
    fn non_power_of_two_runs() {
        // Up to 13 runs of 50: the merge tree below SORT_MIN_FAN_IN runs,
        // the copy and radix sort from it.
        for k in [3usize, 5, 6, 7, 9, 13] {
            let runs: Vec<Vec<u64>> = (0..k)
                .map(|i| (0..50).map(|j| (j * k + i) as u64).collect())
                .collect();
            check_merge(runs);
        }
    }

    #[test]
    fn comparisons_near_lg_k_per_element() {
        let k = 16;
        let n_per = 1000;
        let runs: Vec<Vec<u64>> = (0..k)
            .map(|i| (0..n_per).map(|j| (j * k + i) as u64).collect())
            .collect();
        let refs: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
        let mut out = vec![0; k * n_per];
        let cmps = merge_into_slice(&refs, &mut out);
        let n = (k * n_per) as u64;
        // lg 16 = 4 comparisons per element, plus lower-order build cost.
        assert!(cmps <= n * 4 + 64, "cmps={cmps}, n={n}");
        assert!(cmps >= n / 2, "merging must pay for most elements: {cmps}");
    }

    #[test]
    fn merge_cost_of_two_runs_is_pair_merge_cost() {
        let a: Vec<u64> = (0..300).map(|i| i * 3).collect();
        let b: Vec<u64> = (0..200).map(|i| i * 5 + 1).collect();
        for (x, y) in [(&a, &b), (&b, &a), (&a, &a)] {
            let cost = merge_cost(&[&x[..], &y[..]]);
            assert_eq!(cost, crate::kernels::simd::pair_merge_cost(x, y));
            check_merge(vec![x.clone(), y.clone()]);
        }
    }

    #[test]
    fn long_and_duplicate_heavy_runs_shift_the_plan() {
        // A run past PREMERGE_MAX and a duplicate-heavy run stay unpaired,
        // so later pairs sit off the tree's even boundaries: merge_cost
        // must follow the plan, not assume a perfect pairing.
        let long: Vec<u64> = (0..PREMERGE_MAX as u64 + 10).map(|i| i * 2).collect();
        let plateau: Vec<u64> = (0..4_000u64).map(|i| i / 100 * 7).collect();
        let short = |s: u64| (0..500u64).map(|i| i * 11 + s).collect::<Vec<u64>>();
        check_merge(vec![short(1), long.clone(), short(2), short(3), short(4)]);
        check_merge(vec![plateau, short(5), short(6), long, short(7), vec![]]);
    }

    #[test]
    fn merges_keep_run_order_on_ties() {
        // Key-only equality and ordering make ties observable through the
        // run tag: the executor must emit equal keys in run order, whether
        // it merges by tree (7 and 12 runs of 64 keys, some plateaus),
        // sorts (runs of 0-2) or concatenates (one key).
        #[derive(Clone, Copy, Default, Debug)]
        struct E(u64, u16);
        impl PartialEq for E {
            fn eq(&self, o: &Self) -> bool {
                self.0 == o.0
            }
        }
        impl Eq for E {}
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
        let long = |k: u16| -> Vec<Vec<E>> {
            (0..k)
                .map(|r| (0..64u64).map(|i| E(i / (r as u64 + 1), r)).collect())
                .collect()
        };
        let tiny: Vec<Vec<E>> = (0..300u16)
            .map(|r| {
                (0..r % 3)
                    .map(|i| E((u64::from(r) * 7 + u64::from(i)) % 5, r))
                    .collect()
            })
            .map(|mut run: Vec<E>| {
                run.sort();
                run
            })
            .collect();
        let one: Vec<Vec<E>> = (0..9u16).map(|r| vec![E(3, r); 20]).collect();
        for runs in [long(7), long(12), tiny, one] {
            let refs: Vec<&[E]> = runs.iter().map(|r| r.as_slice()).collect();
            let total = refs.iter().map(|r| r.len()).sum();
            let mut out = vec![E::default(); total];
            let cmps = merge_into_slice(&refs, &mut out);
            assert_eq!(cmps, merge_cost_ref(&refs));
            assert_eq!(cmps, merge_cost(&refs));
            let tagged = |v: &[E]| v.iter().map(|e| (e.0, e.1)).collect::<Vec<_>>();
            let mut expect = tagged(&runs.concat());
            expect.sort();
            assert_eq!(tagged(&out), expect);
            let mut exec = vec![E::default(); total];
            merge_runs(&refs, &mut exec);
            assert_eq!(tagged(&exec), expect);
        }
    }

    #[test]
    fn single_key_cost_matches_search_and_the_tree_up_to_k_4096() {
        // Runs of 0-3 copies of one key, empty runs at both ends, every k
        // from 1 to 4,096 (powers of two and the rest); the played tree
        // at a few of them.
        let key = [9u64; 3];
        for k in 1..=4_096usize {
            let runs: Vec<&[u64]> = (0..k)
                .map(|i| match i {
                    0 => &key[..0],
                    _ if i + 1 == k => &key[..0],
                    _ => &key[..(i * 7 + k) % 4],
                })
                .collect();
            assert_eq!(single_key_cost(&runs), search_cost(&runs), "k={k}");
            assert_eq!(merge_cost(&runs), search_cost(&runs), "k={k}");
            if k.is_power_of_two() || k % 997 == 0 {
                assert_eq!(merge_cost(&runs), merge_cost_ref(&runs), "k={k}");
            }
        }
        // Plateau runs long enough to stay out of the pair plan.
        let long = [9u64; 200];
        let runs = [&long[..], &key[..2], &key[..0], &long[..], &key[..1]];
        assert_eq!(single_key_cost(&runs), search_cost(&runs));
        assert_eq!(merge_cost(&runs), merge_cost_ref(&runs));
    }

    /// The loser tree's count over `runs` three ways that share no
    /// counting code: [`leaf_cost`] over the non-empty runs, `search_cost`
    /// by binary searches, and the reference tree played over the plan
    /// ([`merge_cost_ref`]). Returns whether the leaf count applied (no
    /// run of [`PROBE_MIN`] keys). Also holds `merge_cost`, and
    /// `merge_into_slice`'s count and output, to them with SIMD dispatch
    /// on and off.
    fn check_leaf_count<T: crate::SortElem + std::fmt::Debug>(runs: &[Vec<T>]) -> bool {
        let refs: Vec<&[T]> = runs.iter().map(Vec::as_slice).collect();
        let keys: Vec<T> = runs.concat();
        let leaves: Vec<Leaf<T>> = refs
            .iter()
            .enumerate()
            .filter_map(|(i, r)| Some(Leaf::new(i, r.len(), *r.last()?)))
            .collect();
        let single = keys.iter().all(|k| k == &keys[0]);
        let searched = search_cost(&refs);
        assert_eq!(merge_cost_ref(&refs), searched, "search against the tree");
        let counted = leaf_cost(&keys, &leaves, false);
        let long = runs.iter().any(|r| r.len() >= PROBE_MIN);
        assert_eq!(counted.is_none(), long, "the leaf count declines long runs");
        if let Some(counted) = counted {
            assert_eq!(counted, searched, "leaf count against search");
            if single {
                assert_eq!(leaf_cost(&keys, &leaves, true), Some(counted));
            }
        }
        assert_eq!(merge_cost(&refs), searched, "merge_cost");
        let mut expect = keys.clone();
        expect.sort();
        let merged = simd::every_tier(|| {
            let mut out = vec![T::default(); keys.len()];
            let cmps = merge_into_slice(&refs, &mut out);
            (cmps, out)
        });
        for (tier, (cmps, out)) in merged {
            assert_eq!(cmps, searched, "merge_into_slice, {tier:?}");
            assert_eq!(out, expect, "merge_into_slice, {tier:?}");
        }
        !long
    }
    /// `k` runs of `len(i)` keys each from `key(i, j)`, each run sorted.
    fn runs_of<T: Ord>(
        k: usize,
        len: impl Fn(usize) -> usize,
        key: impl Fn(usize, usize) -> T,
    ) -> Vec<Vec<T>> {
        (0..k)
            .map(|i| {
                let mut run: Vec<T> = (0..len(i)).map(|j| key(i, j)).collect();
                run.sort();
                run
            })
            .collect()
    }

    #[test]
    fn leaf_count_on_empty_one_key_and_equal_runs() {
        let ks: &[usize] = if cfg!(miri) {
            &[2, 3, 4, 5, 57]
        } else {
            &[2, 3, 4, 5, 57, 3_163]
        };
        for &k in ks {
            // Every run empty; every other run empty; runs of one key;
            // empty runs at both ends with 0-3 keys between; all equal.
            let mix = |i: usize, j: usize| (i * 7 + j * 13) as u64 % 11;
            assert!(check_leaf_count(&runs_of(k, |_| 0, mix)));
            assert!(check_leaf_count(&runs_of(k, |i| i % 2, mix)));
            assert!(check_leaf_count(&runs_of(k, |_| 1, mix)));
            let ends = |i: usize| if i == 0 || i + 1 == k { 0 } else { i % 4 };
            assert!(check_leaf_count(&runs_of(k, ends, mix)));
            assert!(check_leaf_count(&runs_of(k, |i| i % 3, |_, _| 5u64)));
            assert!(check_leaf_count(&runs_of(
                k,
                |i| i % 4,
                |i, j| (i * j) as u32 % 3
            )));
            assert!(check_leaf_count(&runs_of(
                k,
                |i| (i + 1) % 3,
                |i, j| { ((j % 2) as u64, (i % 5) as u64) }
            )));
        }
    }

    #[test]
    fn leaf_count_declines_a_run_long_enough_to_probe() {
        // One run of PROBE_MIN keys among one-key runs: a plateau keeps it
        // out of the pair plan, so run indices need not be leaf positions,
        // and the leaf count declines it, plateau or not.
        for k in [5usize, 57] {
            for plateau in [true, false] {
                let runs = runs_of(
                    k,
                    |i| if i == 2 { PROBE_MIN } else { 1 },
                    |i, j| {
                        if plateau {
                            (i + j / 40) as u64
                        } else {
                            (i * 3 + j) as u64
                        }
                    },
                );
                assert!(!check_leaf_count(&runs));
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        /// Runs of 0-3 keys, now and then a longer one, from a small key
        /// range (ties) or the full one, as `u64`, `u32` and pairs.
        #[test]
        fn leaf_count_matches_search_and_the_tree(
            seed in proptest::prelude::any::<u64>(),
            k_at in 0usize..6,
            range in proptest::prelude::any::<bool>(),
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let k = [2, 3, 4, 5, 57, 3_163][k_at];
            let lens: Vec<usize> = (0..k)
                .map(|_| match rng.gen_range(0..40) {
                    0 => rng.gen_range(4..200),
                    x => x % 4,
                })
                .collect();
            let span = if range { 6 } else { u64::MAX };
            let raw: Vec<Vec<u64>> = lens
                .iter()
                .map(|&n| (0..n).map(|_| rng.gen_range(0..=span)).collect())
                .collect();
            let sorted = |runs: Vec<Vec<u64>>| runs.into_iter().map(|mut r| { r.sort(); r }).collect::<Vec<_>>();
            check_leaf_count(&sorted(raw.clone()));
            check_leaf_count(&raw.iter().map(|r| {
                let mut r: Vec<u32> = r.iter().map(|&x| x as u32).collect();
                r.sort();
                r
            }).collect::<Vec<_>>());
            check_leaf_count(&raw.iter().map(|r| {
                let mut r: Vec<(u64, u64)> = r.iter().map(|&x| (x % 3, x)).collect();
                r.sort();
                r
            }).collect::<Vec<_>>());
        }
    }

    #[test]
    #[should_panic(expected = "output slice must fit")]
    fn merge_into_slice_rejects_bad_length() {
        let a = [1u64];
        let mut out = [0u64; 3];
        merge_into_slice(&[&a[..]], &mut out);
    }
}
