//! Loser-tree (tournament) k-way merging.
//!
//! The cost model of every merge in this crate: the external mergesort's
//! merge passes, NMsort's Phase-2 multiway merge of sorted chunk segments,
//! and the baseline's final merge. A loser tree merges `k` sorted runs with
//! at most `⌈lg k⌉` comparisons per emitted element (fewer once a subtree
//! runs dry) — the constant the multiway merge sort analysis (Theorem 1)
//! assumes. Every merge is charged the tree's exact count,
//! [`merge_cost`], whichever kernel executes it: [`merge_into_slice`]
//! sends merges holding a duplicate-heavy run to the loser tree and the
//! rest to a counted merge tree ([`merge_counted_tree`]), a bottom-up
//! two-way merge on the loser tree's own shape that counts each node's
//! comparisons as it merges. Runs averaging a few keys are not merged at
//! all: their non-empty runs are copied out, the tree is counted over them
//! alone (`leaf_cost`), and one sort orders them. A deep merge of
//! radix-key elements skips both: [`crate::pmerge`] charges it
//! [`merge_cost`] and sorts cache-sized pieces of it instead.
//!
//! **Kernel engineering** (see `kernels` module docs and DESIGN.md §10):
//! this is the branchless rewrite. Each internal node stores the loser's
//! *key and leaf id side by side* (parallel `node_keys`/`node_meta`
//! arrays), so one replay step issues two independent L1 loads instead of
//! the reference implementation's chained `tree[node] → heads[loser]`
//! indirection — the replay path's serial dependency is the comparison
//! chain itself, nothing else. Winner/loser selection is straight-line
//! conditional-move code built from non-short-circuit `&`/`|` predicates;
//! the only data-dependent branch left is the comparison. Exhausted runs
//! are handled sentinel-style via an alive bit folded into each node's
//! meta word rather than per-match `Option` checks.
//!
//! The replay's *store policy* is adaptive: conditional-move stores when
//! match outcomes are near coin flips (uniform keys — nothing to predict),
//! a predictable guarded store when outcomes are biased (duplicate-heavy
//! inputs, where skipping the no-op store keeps the key chain out of
//! store-to-load forwarding). The policy is retuned every [`ADAPT_BLOCK`]
//! elements from the observed winner-flip rate; both policies leave
//! identical tree state and comparison counts. The original branchy
//! implementation survives as [`crate::kernels::reference`], and the
//! equivalence tests assert both emit the identical element sequence and
//! comparison count.

use std::ops::Range;

/// Low 31 bits of a node's meta word: the leaf index. Bit 31 is the alive
/// flag.
const LEAF_MASK: u32 = 0x7FFF_FFFF;
const ALIVE_BIT: u32 = 1 << 31;

/// Elements between replay-mode retunes. Long enough to amortize the
/// decision, short enough to catch phase changes in the input.
const ADAPT_BLOCK: u32 = 8192;

/// Policy flips tolerated before the adaptive store policy is pinned.
/// Duplicate-heavy inputs with long equal-key runs sit right at the
/// `opp_wins` thresholds and would otherwise thrash the policy every
/// block, paying the mispredict cost of *both* forms; once the flip count
/// reaches this plateau the guarded form is pinned for the tree's
/// remaining life (it degrades gracefully on near-even outcomes, the
/// branchless form does not on biased ones).
const PIN_FLIPS: u32 = 4;

/// Runs at or below this length are eligible for pair pre-merging in
/// [`merge_into_slice`]: adjacent short runs are two-way merged (a
/// vectorizable streaming kernel) before the loser tree builds, halving
/// `k` where it is cheap. Long runs skip it — the pair buffer would
/// rival the tree's own working set.
pub const PREMERGE_MAX: usize = 1 << 16;

/// A loser tree over `k` in-memory sorted runs.
///
/// The tree stores, at each internal node, the *loser* of the match played
/// there; the overall winner sits above the root. Replaying a leaf after
/// emitting its head costs one root-to-leaf path of comparisons.
pub struct LoserTree<'a, T> {
    runs: Vec<&'a [T]>,
    /// Next unread position in each run.
    pos: Vec<usize>,
    /// Key of the loser parked at each internal node (`[1..k_pad]`; slot 0
    /// unused). Dead losers hold an arbitrary filler guarded by the alive
    /// bit in [`Self::node_meta`]. Empty when every run is empty.
    node_keys: Vec<T>,
    /// Loser leaf index (low 31 bits) and alive flag (bit 31) per internal
    /// node, parallel to `node_keys`.
    node_meta: Vec<u32>,
    /// The overall winner: its head element and leaf index. `None` once
    /// every run is exhausted (or the tree was built over no elements).
    root: Option<(T, u32)>,
    /// Count of live leaves — lets merge loops detect the last-run tail in
    /// O(1) and switch to a bulk copy.
    live: usize,
    /// Number of leaves (next power of two ≥ k).
    k_pad: usize,
    /// Comparisons performed so far.
    comparisons: u64,
    /// Replay store policy for the current block: `true` = guard the loser
    /// store behind `if opp_wins` (fast when the winner is biased, i.e.
    /// duplicate-heavy inputs where the branch predicts), `false` = fully
    /// branchless conditional moves (fast when match outcomes are coin
    /// flips, i.e. uniform keys). Retuned every [`ADAPT_BLOCK`] elements
    /// from the observed `opp_wins` rate; both policies leave identical
    /// tree state and comparison counts, so switching is free.
    guarded_store: bool,
    /// Elements left before the next retune.
    block_left: u32,
    /// Replay steps and `opp_wins` outcomes observed in this block.
    block_steps: u64,
    block_opp_wins: u64,
    /// Retunes whose decision flipped the policy (see [`PIN_FLIPS`]).
    policy_flips: u32,
    /// Oscillation plateau reached: the policy is pinned guarded and no
    /// longer retuned. Wall-clock heuristic only — the emitted sequence
    /// and comparison count are policy-independent.
    policy_pinned: bool,
}

impl<'a, T: Ord + Copy> LoserTree<'a, T> {
    /// Build a tree over `runs`. Empty runs are allowed.
    pub fn new(runs: Vec<&'a [T]>) -> Self {
        let k = runs.len().max(1);
        let k_pad = k.next_power_of_two();
        let pos = vec![0; runs.len()];
        let live = runs.iter().filter(|r| !r.is_empty()).count();
        let mut lt = Self {
            runs,
            pos,
            node_keys: Vec::new(),
            node_meta: Vec::new(),
            root: None,
            live,
            k_pad,
            comparisons: 0,
            guarded_store: false,
            block_left: ADAPT_BLOCK,
            block_steps: 0,
            block_opp_wins: 0,
            policy_flips: 0,
            policy_pinned: false,
        };
        lt.rebuild();
        lt
    }

    /// Full rebuild: play every match bottom-up. With no elements at all
    /// the tree starts (and stays) exhausted.
    fn rebuild(&mut self) {
        // Any element works as the dead-slot filler; the alive bit guards
        // every read.
        let Some(fill) = self.runs.iter().find_map(|r| r.first().copied()) else {
            return;
        };
        let mut winners: Vec<(T, u32)> = vec![(fill, 0); 2 * self.k_pad];
        for leaf in 0..self.k_pad {
            winners[self.k_pad + leaf] = match self.runs.get(leaf).and_then(|r| r.first()) {
                Some(&h) => (h, leaf as u32 | ALIVE_BIT),
                None => (fill, leaf as u32),
            };
        }
        self.node_keys = vec![fill; self.k_pad];
        self.node_meta = vec![0; self.k_pad];
        for node in (1..self.k_pad).rev() {
            let (w, l) = Self::play(
                winners[2 * node],
                winners[2 * node + 1],
                &mut self.comparisons,
            );
            winners[node] = w;
            self.node_keys[node] = l.0;
            self.node_meta[node] = l.1;
        }
        let (rk, rm) = winners[1];
        self.root = (rm & ALIVE_BIT != 0).then_some((rk, rm & LEAF_MASK));
    }

    /// Play a match between two `(key, meta)` entries: the live entry with
    /// the smaller key wins (ties to the lower leaf index, making the merge
    /// stable across runs). Exhausted entries always lose; a comparison is
    /// charged only when both are live.
    #[inline]
    fn play(a: (T, u32), b: (T, u32), cmps: &mut u64) -> ((T, u32), (T, u32)) {
        let (aa, ba) = (a.1 & ALIVE_BIT != 0, b.1 & ALIVE_BIT != 0);
        if aa & ba {
            *cmps += 1;
        }
        let a_wins = if aa & ba {
            (a.0 < b.0) | ((a.0 == b.0) & (a.1 & LEAF_MASK < b.1 & LEAF_MASK))
        } else if aa | ba {
            aa
        } else {
            a.1 & LEAF_MASK < b.1 & LEAF_MASK
        };
        if a_wins {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Pop the globally smallest remaining element.
    pub fn next_element(&mut self) -> Option<T> {
        // The mode branch is block-stable and predicts perfectly; each
        // monomorphized body keeps its replay loop free of the other
        // policy's code.
        let out = if self.guarded_store {
            self.advance::<true>()
        } else {
            self.advance::<false>()
        };
        self.block_left -= 1;
        if self.block_left == 0 {
            self.retune();
        }
        out
    }

    /// Emit one element with the given store policy. Both policies compute
    /// the same winner predicate and leave identical tree state — only the
    /// microarchitectural shape differs (see [`Self::guarded_store`]).
    #[inline]
    fn advance<const GUARDED: bool>(&mut self) -> Option<T> {
        let (val, w) = self.root?;
        let w = w as usize;
        // Advance leaf w; the winner always indexes a real run.
        let p = self.pos[w] + 1;
        self.pos[w] = p;
        let (mut cur_key, mut cur_meta) = match self.runs[w].get(p) {
            Some(&next) => (next, w as u32 | ALIVE_BIT),
            None => {
                self.live -= 1;
                // `val` doubles as the dead-leaf filler; the cleared alive
                // bit guards it.
                (val, w as u32)
            }
        };
        // Replay the path from w's leaf to the root. Each step loads the
        // parked loser's key and meta from parallel arrays (two independent
        // L1 loads), then selects the winner with a straight-line
        // non-short-circuit `&`/`|` predicate — flag-setting compares, no
        // data-dependent branch.
        let mut node = (self.k_pad + w) >> 1;
        let mut cmps = 0u64;
        let mut steps = 0u64;
        let mut opp_won = 0u64;
        while node != 0 {
            let ok = self.node_keys[node];
            let om = self.node_meta[node];
            let (ca, oa) = (cur_meta & ALIVE_BIT != 0, om & ALIVE_BIT != 0);
            cmps += (ca & oa) as u64;
            // `opp` wins when it is alive and (cur is dead, or opp's key is
            // strictly smaller, or the keys tie and opp has the lower leaf
            // index).
            let opp_wins = oa
                & (!ca
                    | (ok < cur_key)
                    | ((ok == cur_key) & (om & LEAF_MASK < cur_meta & LEAF_MASK)));
            steps += 1;
            opp_won += opp_wins as u64;
            if GUARDED {
                // Parked loser lost again ⇒ the node already holds the right
                // entry; the guard predicts well exactly when outcomes are
                // biased.
                if opp_wins {
                    self.node_keys[node] = cur_key;
                    self.node_meta[node] = cur_meta;
                    cur_key = ok;
                    cur_meta = om;
                }
            } else {
                // Unconditional conditional-move form: no branch to
                // mispredict when outcomes are coin flips.
                let lose_key = if opp_wins { cur_key } else { ok };
                let lose_meta = if opp_wins { cur_meta } else { om };
                self.node_keys[node] = lose_key;
                self.node_meta[node] = lose_meta;
                cur_key = if opp_wins { ok } else { cur_key };
                cur_meta = if opp_wins { om } else { cur_meta };
            }
            node >>= 1;
        }
        self.comparisons += cmps;
        self.block_steps += steps;
        self.block_opp_wins += opp_won;
        self.root = (cur_meta & ALIVE_BIT != 0).then_some((cur_key, cur_meta & LEAF_MASK));
        Some(val)
    }

    /// Pick the next block's store policy from this block's `opp_wins`
    /// rate: outcomes outside [1/4, 3/4] are predictable enough that the
    /// guarded store wins; near-even outcomes favor the branchless form.
    ///
    /// Inputs whose flip rate hovers at the thresholds (long equal-key
    /// runs alternating with mixed regions) would re-decide every block;
    /// after [`PIN_FLIPS`] flips the guarded policy is pinned instead.
    fn retune(&mut self) {
        if !self.policy_pinned {
            let (s, w) = (self.block_steps, self.block_opp_wins);
            let want = 4 * w <= s || 4 * w >= 3 * s;
            if want != self.guarded_store {
                self.policy_flips += 1;
                if self.policy_flips >= PIN_FLIPS {
                    self.policy_pinned = true;
                    self.guarded_store = true;
                } else {
                    self.guarded_store = want;
                }
            }
        }
        self.block_left = ADAPT_BLOCK;
        self.block_steps = 0;
        self.block_opp_wins = 0;
    }

    /// Total comparisons performed (for compute charging).
    pub fn comparisons(&self) -> u64 {
        self.comparisons
    }

    /// Remaining (unread) elements across all runs.
    pub fn remaining(&self) -> usize {
        self.runs
            .iter()
            .zip(&self.pos)
            .map(|(r, &p)| r.len() - p)
            .sum()
    }
}

impl<T: Ord + Copy> Iterator for LoserTree<'_, T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        self.next_element()
    }
}

impl<T> Drop for LoserTree<'_, T> {
    fn drop(&mut self) {
        // Comparisons are accumulated locally (one add per comparison would
        // dominate the merge inner loop) and flushed to the global telemetry
        // counter once per tree.
        if self.comparisons > 0 {
            tlmm_telemetry::counter!("core.losertree.comparisons").add(self.comparisons);
        }
    }
}

/// Plateau probe for the pair pre-merge: `true` when sampled positions of
/// the sorted run sit inside equal-key plateaus at least [`PLATEAU_GAP`]
/// long. Such runs feed the loser tree long winner streaks that its
/// guarded store policy turns into near-free replay steps, while a two-way
/// merge does fixed work per element regardless — so duplicate-heavy runs
/// skip pre-merging, and a merge holding one stays on the loser tree.
/// The decision reads only the data, so it is identical across SIMD
/// dispatch and thread counts, and the charged comparison total is
/// unchanged either way (see [`merge_cost`]).
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

/// Plateau length at which the loser tree's guarded-store streaks beat
/// the two-way merge's fixed per-element work (see [`duplicate_heavy`]).
const PLATEAU_GAP: usize = 32;

/// Positions [`duplicate_heavy`] probes for a plateau.
const PROBES: usize = 4;

/// The pair pre-merge plan: the loser tree's leaves in order, as run-index
/// ranges — each either one run or two adjacent runs merged first. With
/// four or more runs, adjacent runs no longer than [`PREMERGE_MAX`] and
/// not [`duplicate_heavy`] are paired left to right; otherwise every leaf
/// is one run. Both merge kernels execute this plan and [`merge_cost`]
/// charges it.
fn premerge_plan<'r, T: Ord>(
    runs: &'r [&'r [T]],
) -> impl Iterator<Item = Range<usize>> + Clone + 'r {
    pair_plan(runs, |r| r.len() <= PREMERGE_MAX && !duplicate_heavy(r))
}

/// [`premerge_plan`] with the test for a pairable run given: a caller that
/// has already probed every run for plateaus passes the length test alone.
fn pair_plan<'r, T: Ord>(
    runs: &'r [&'r [T]],
    pairable: impl Fn(&[T]) -> bool + Clone + 'r,
) -> impl Iterator<Item = Range<usize>> + Clone + 'r {
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

/// Fold `runs` up the loser tree's shape: the leaves of `plan` (a
/// [`premerge_plan`] of `runs`), padded with empty leaves to a power of
/// two, so the node of height `h` at index `i` covers leaves
/// `[i·2^h, (i+1)·2^h)`. `leaf(r, at)` makes the node of run `r`, which
/// starts at offset `at` of the merged output; `join(left, right, h)`
/// makes a node of height `h` from its two children, with `h = 0` for a
/// planned pair. A node whose right half is all padding is its left child,
/// carried up without a join. Returns the root, or `None` without runs.
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

/// Comparisons the loser tree plays merging `runs` over the pair
/// pre-merge plan — the pairs ([`crate::kernels::simd::pair_merge_cost`]
/// each) plus the tree over the plan's leaves (`node_cost` per node) —
/// computed from the runs alone. Every kernel of [`merge_into_slice`]
/// returns exactly this count, and the tests hold them to it. It is also a
/// charge on its own: a deep merge of radix-key elements
/// ([`crate::pmerge::parallel_merge`]) is charged this count per part and
/// executed by sorting, without playing any tree. With two runs it is
/// `pair_merge_cost`.
///
/// Runs averaging fewer than 8 keys (`SORT_MEAN_RUN`) are counted over their
/// non-empty runs alone (`leaf_cost`, on a copy of them laid end to
/// end); longer ones by `O(k lg k)` binary searches (`search_cost`).
pub fn merge_cost<T: Ord + Copy>(runs: &[&[T]]) -> u64 {
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
/// comparisons to charge: the loser tree's count, [`merge_cost`],
/// whichever path runs.
///
/// Two shapes need no kernel at all. A merge of empty runs writes nothing
/// and costs nothing. A merge whose non-empty runs all hold one key value
/// is the runs concatenated in run order — the order every kernel gives
/// ties — and its charge has a closed form (`single_key_cost`); SPMS's
/// duplicate-heavy buckets are mostly of these two shapes.
///
/// Runs averaging fewer than 8 keys (`SORT_MEAN_RUN`), from SPMS's sample
/// merges to a sparse part of a deep merge, are copied out, counted over
/// their non-empty runs and sorted once (`count_and_sort`), whatever their
/// keys. Otherwise two kernels, one result. A merge holding a duplicate-heavy
/// run (the plateau probe) runs the loser tree, whose guarded-store
/// streaks make it nearly free while a two-way merge does fixed work per
/// element. Every other merge, from SPMS's larger buckets to NMsort's
/// Phase-2 parts, runs [`merge_counted_tree`], which counts as it
/// merges. Both kernels keep run order on ties (lower run index first),
/// so the emitted sequence is the same, and both count the same tree.
///
/// # Panics
/// Panics if `out.len()` differs from the total run length.
pub fn merge_into_slice<T: crate::SortElem>(runs: &[&[T]], out: &mut [T]) -> u64 {
    let total: usize = runs.iter().map(|r| r.len()).sum();
    assert_eq!(out.len(), total, "output slice must fit the merge exactly");
    match runs.len() {
        0 => 0,
        1 => {
            out.copy_from_slice(runs[0]);
            0
        }
        _ if total == 0 => 0,
        k if total < SORT_MEAN_RUN * k => count_and_sort(runs, out),
        _ if single_key(runs) => {
            let mut rest: &mut [T] = out;
            for r in runs {
                let (dst, next) = rest.split_at_mut(r.len());
                dst.copy_from_slice(r);
                rest = next;
            }
            single_key_cost(runs)
        }
        _ if runs.iter().any(|r| duplicate_heavy(r)) => merge_with_loser_tree(runs, out),
        // No run is duplicate-heavy, so the plan pairs by length alone.
        _ => counted_tree(runs, out, pair_plan(runs, |r| r.len() <= PREMERGE_MAX)),
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
pub(crate) fn single_key_cost<T: Ord>(runs: &[&[T]]) -> u64 {
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

/// The loser-tree kernel of [`merge_into_slice`]: pair-merge the plan's
/// paired runs into one buffer, then play the tree over the plan's leaves.
/// Returns the comparisons both steps performed. Once a single run
/// remains, its tail is bulk-copied instead of replayed. Public so tests
/// and benches can run one kernel on any shape.
///
/// # Panics
/// Panics if `out.len()` differs from the total run length.
pub fn merge_with_loser_tree<T: crate::SortElem>(runs: &[&[T]], out: &mut [T]) -> u64 {
    let total: usize = runs.iter().map(|r| r.len()).sum();
    assert_eq!(out.len(), total, "output slice must fit the merge exactly");
    let leaves: Vec<Range<usize>> = premerge_plan(runs).collect();
    let merged_len = |r: &Range<usize>| runs[r.clone()].iter().map(|x| x.len()).sum::<usize>();
    let paired_total: usize = leaves.iter().filter(|r| r.len() == 2).map(merged_len).sum();
    let mut cmps = 0u64;
    let mut buf: Vec<T> = vec![T::default(); paired_total];
    let mut rest: &mut [T] = &mut buf;
    for r in leaves.iter().filter(|r| r.len() == 2) {
        let (a, b) = (runs[r.start], runs[r.start + 1]);
        let (dst, next) = rest.split_at_mut(a.len() + b.len());
        cmps += crate::kernels::simd::merge_pair(a, b, dst);
        rest = next;
    }
    let mut off = 0usize;
    let tree_runs: Vec<&[T]> = leaves
        .iter()
        .map(|r| {
            if r.len() == 2 {
                let len = merged_len(r);
                off += len;
                &buf[off - len..off]
            } else {
                runs[r.start]
            }
        })
        .collect();
    let mut lt = LoserTree::new(tree_runs);
    let mut emitted = 0usize;
    while emitted < out.len() {
        // Once a single run remains, stream its tail with one bulk copy
        // instead of lg(k) tree replays per element. The check is O(1) via
        // the live-leaf counter.
        if lt.live == 1 {
            let r = lt.root.expect("live leaf must be the winner").1 as usize;
            let tail = &lt.runs[r][lt.pos[r]..];
            out[emitted..].copy_from_slice(tail);
            lt.pos[r] = lt.runs[r].len();
            lt.root = None;
            lt.live = 0;
            break;
        }
        out[emitted] = lt.next_element().expect("run length accounting broken");
        emitted += 1;
    }
    cmps + lt.comparisons()
}

/// Where a counted-tree node's keys are: still in one input run, or in
/// one of the two merge buffers (`0` is the output, `1` the scratch).
#[derive(Clone, Copy)]
enum Held<'r, T> {
    Run(&'r [T]),
    Buf(usize),
}

/// A counted-tree node: `len` keys bound for `out[at..at + len]`.
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

/// The counted merge tree of [`merge_into_slice`]: a bottom-up two-way
/// merge on the loser tree's own shape (`fold_plan`), returning the
/// loser tree's comparison count, [`merge_cost`], without playing it.
///
/// A loser-tree node's comparisons are those of a two-way merge of its
/// two sides, ties going left, so each node here merges its children's
/// merged keys with [`crate::kernels::simd::merge_pair`], which returns
/// that count. Empty runs keep their leaves, and a node with an empty side
/// is its other child, carried up unmerged — the padding that makes the
/// loser tree a power of two wide — so the tree, and every node's count,
/// is the loser tree's. Nodes ping-pong between `out` and one scratch
/// buffer by height, the root's height writing `out`; a node still in an
/// input run is read in place, and a carried node whose next merge writes
/// the buffer it sits in moves to the other one first.
///
/// Runs averaging fewer than [`SORT_MEAN_RUN`] keys, where merging node
/// by node is mostly per-node overhead, are not merged: the same tree is
/// counted over the non-empty runs copied into `out` (`count_and_sort`),
/// and one sort orders them. Public so tests and benches can run one
/// kernel on any shape.
///
/// # Panics
/// Panics if `out.len()` differs from the total run length.
pub fn merge_counted_tree<T: crate::SortElem>(runs: &[&[T]], out: &mut [T]) -> u64 {
    let total: usize = runs.iter().map(|r| r.len()).sum();
    assert_eq!(out.len(), total, "output slice must fit the merge exactly");
    counted_tree(runs, out, premerge_plan(runs))
}

/// [`merge_counted_tree`] over `plan`, a [`premerge_plan`] of `runs`.
fn counted_tree<T: crate::SortElem>(
    runs: &[&[T]],
    out: &mut [T],
    plan: impl Iterator<Item = Range<usize>> + Clone,
) -> u64 {
    let total = out.len();
    if total < SORT_MEAN_RUN * runs.len() {
        return count_and_sort(runs, out);
    }
    let root_height = plan.clone().count().next_power_of_two().trailing_zeros();
    // Allocated by the first join that writes it or moves a node into it.
    let mut scratch: Vec<T> = Vec::new();
    let mut cmps = 0u64;
    let leaf = |r: usize, at: usize| Node {
        at,
        len: runs[r].len(),
        held: Held::Run(runs[r]),
    };
    let root = fold_plan(runs, plan, leaf, |l, r, h| {
        if r.len == 0 {
            return l;
        }
        if l.len == 0 {
            return r;
        }
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
        cmps += crate::kernels::simd::merge_pair(
            l.keys(src),
            r.keys(src),
            &mut dst[l.at..r.at + r.len],
        );
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
    cmps
}

/// Mean run length below which a merge is counted over its non-empty runs
/// ([`leaf_cost`]) and sorted instead of merged, by [`merge_into_slice`],
/// [`merge_counted_tree`] and SPMS's bucket merges, and below which
/// [`merge_cost`] counts the same way. With runs of about one key, a
/// merge per node costs a mispredicted loop exit and two tail copies per
/// key or so; a scan per node and one sort cost less, about a fifth of
/// SPMS's wall time on Zipf keys against merging every node (DESIGN.md
/// §10). On uniform `u64` sorting still won at 32 keys per run and lost
/// from a few hundred, so 8 keeps well clear of the crossover. A
/// data-shape constant: the count is the same either way.
pub(crate) const SORT_MEAN_RUN: usize = 8;

/// [`merge_counted_tree`] for runs of a few keys: copy the non-empty runs
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
/// in general, which keeps equal keys in run order as every kernel does;
/// with the host sort kernel for [`crate::kernels::RadixKey`] types, whose
/// equal keys are identical, so any order of them is the same output.
pub(crate) fn sort_merged<T: crate::SortElem>(out: &mut [T]) {
    if crate::kernels::radix_kernel::<T>().is_some() {
        crate::kernels::sort_kernel(out);
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

/// Runs shorter than this are never [`duplicate_heavy`] (its probes need
/// `PROBES` plateau gaps), so a merge of them pairs every adjacent run.
const PROBE_MIN: usize = PLATEAU_GAP * PROBES;

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
    use crate::kernels::reference::ReferenceLoserTree;

    /// Both kernels and `merge_into_slice` emit the sorted union, and all
    /// three count the loser tree's comparisons, `merge_cost`.
    fn check_merge(runs: Vec<Vec<u64>>) {
        let refs: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
        let mut expect: Vec<u64> = runs.concat();
        expect.sort_unstable();
        let mut out = vec![0; expect.len()];
        let cmps = merge_into_slice(&refs, &mut out);
        assert_eq!(out, expect);
        let mut lt_out = vec![0; expect.len()];
        assert_eq!(merge_with_loser_tree(&refs, &mut lt_out), cmps);
        assert_eq!(lt_out, expect);
        let mut ct_out = vec![0; expect.len()];
        assert_eq!(merge_counted_tree(&refs, &mut ct_out), cmps);
        assert_eq!(ct_out, expect);
        assert_eq!(merge_cost(&refs), cmps);
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
    fn loser_tree_is_stable_across_equal_heads() {
        // With equal elements, lower run index wins — verify by tagging.
        let a = [(1u64, 0u64), (2, 0)];
        let b = [(1u64, 1u64), (2, 1)];
        let mut lt = LoserTree::new(vec![&a[..], &b[..]]);
        let order: Vec<_> = std::iter::from_fn(|| lt.next_element()).collect();
        assert_eq!(order, vec![(1, 0), (1, 1), (2, 0), (2, 1)]);
    }

    #[test]
    fn remaining_counts_down() {
        let a = [1u64, 3];
        let b = [2u64];
        let mut lt = LoserTree::new(vec![&a[..], &b[..]]);
        assert_eq!(lt.remaining(), 3);
        lt.next_element();
        assert_eq!(lt.remaining(), 2);
        lt.next_element();
        lt.next_element();
        assert_eq!(lt.remaining(), 0);
        assert_eq!(lt.next_element(), None);
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
    fn counted_tree_keeps_run_order_on_ties() {
        // Key-only equality and ordering make ties observable through the
        // run tag: both kernels must emit equal keys in run order, whether
        // the counted tree merges (runs of 64 keys) or sorts (runs of 0-2).
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
        let long: Vec<Vec<E>> = (0..7u16)
            .map(|r| (0..64u64).map(|i| E(i / (r as u64 + 1), r)).collect())
            .collect();
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
        for runs in [long, tiny] {
            let refs: Vec<&[E]> = runs.iter().map(|r| r.as_slice()).collect();
            let total = refs.iter().map(|r| r.len()).sum();
            let mut lt_out = vec![E::default(); total];
            let cmps = merge_with_loser_tree(&refs, &mut lt_out);
            let mut ct_out = vec![E::default(); total];
            assert_eq!(merge_counted_tree(&refs, &mut ct_out), cmps);
            let tagged = |v: &[E]| v.iter().map(|e| (e.0, e.1)).collect::<Vec<_>>();
            assert_eq!(tagged(&ct_out), tagged(&lt_out));
            assert!(lt_out
                .windows(2)
                .all(|w| (w[0].0, w[0].1) <= (w[1].0, w[1].1)));
            assert_eq!(merge_cost(&refs), cmps);
        }
    }

    #[test]
    fn single_key_cost_matches_merge_cost_up_to_k_4096() {
        // Runs of 0-3 copies of one key, empty runs at both ends, every k
        // from 1 to 4,096 (powers of two and the rest).
        let key = [9u64; 3];
        for k in 1..=4_096usize {
            let runs: Vec<&[u64]> = (0..k)
                .map(|i| match i {
                    0 => &key[..0],
                    _ if i + 1 == k => &key[..0],
                    _ => &key[..(i * 7 + k) % 4],
                })
                .collect();
            assert_eq!(single_key_cost(&runs), merge_cost(&runs), "k={k}");
        }
        // Plateau runs long enough to stay out of the pair plan.
        let long = [9u64; 200];
        let runs = [&long[..], &key[..2], &key[..0], &long[..], &key[..1]];
        assert_eq!(single_key_cost(&runs), merge_cost(&runs));
    }

    /// The loser tree's count over `runs` three ways that share no code:
    /// [`leaf_cost`] over the non-empty runs, `search_cost` by binary
    /// searches, and the reference tree played to the end. Returns
    /// whether the leaf count applied (no run of [`PROBE_MIN`] keys).
    /// Also holds `merge_cost`, and `merge_into_slice`'s count and output,
    /// to them with SIMD dispatch on and off.
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
        let counted = leaf_cost(&keys, &leaves, false);
        let long = runs.iter().any(|r| r.len() >= PROBE_MIN);
        assert_eq!(counted.is_none(), long, "the leaf count declines long runs");
        if let Some(counted) = counted {
            assert_eq!(counted, searched, "leaf count against search");
            let mut played = ReferenceLoserTree::new(refs.clone());
            while played.next_element().is_some() {}
            assert_eq!(counted, played.comparisons(), "leaf count against the tree");
            if single {
                assert_eq!(leaf_cost(&keys, &leaves, true), Some(counted));
            }
        }
        assert_eq!(merge_cost(&refs), searched, "merge_cost");
        let mut expect = keys.clone();
        expect.sort();
        let prior = crate::kernels::simd::enabled();
        for vector in [true, false] {
            crate::kernels::simd::set_enabled(vector);
            let mut out = vec![T::default(); keys.len()];
            let cmps = merge_into_slice(&refs, &mut out);
            crate::kernels::simd::set_enabled(prior);
            assert_eq!(cmps, searched, "merge_into_slice, SIMD {vector}");
            assert_eq!(out, expect, "merge_into_slice, SIMD {vector}");
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

    #[test]
    fn iterator_interface() {
        let a = [1u64, 4];
        let b = [2u64, 3];
        let lt = LoserTree::new(vec![&a[..], &b[..]]);
        let v: Vec<u64> = lt.collect();
        assert_eq!(v, vec![1, 2, 3, 4]);
    }

    #[test]
    fn matches_reference_tree_sequence_and_comparisons() {
        // The branchless rewrite must be observationally identical to the
        // original branchy tree: same emitted sequence, same comparison
        // count, on run sets with duplicates and empty runs.
        let runs: Vec<Vec<u64>> = vec![
            (0..500).map(|i| i * 3).collect(),
            vec![],
            (0..200).map(|i| i * 7 + 1).collect(),
            vec![42; 100],
            vec![],
            (0..900).map(|i| i / 2).collect(),
        ];
        let refs: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
        let mut new_lt = LoserTree::new(refs.clone());
        let mut old_lt = ReferenceLoserTree::new(refs);
        loop {
            let (a, b) = (new_lt.next_element(), old_lt.next_element());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert_eq!(new_lt.comparisons(), old_lt.comparisons());
    }

    #[test]
    fn adaptive_store_policy_switches_and_stays_equivalent() {
        // Duplicate-heavy runs long enough to cross several ADAPT_BLOCK
        // boundaries: the tree must flip to the guarded-store policy and
        // still match the reference element-for-element, comparison-for-
        // comparison.
        let runs: Vec<Vec<u64>> = (0..5)
            .map(|i| (0..30_000u64).map(|j| (j / 512) * 8 + i).collect())
            .collect();
        let refs: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
        let mut new_lt = LoserTree::new(refs.clone());
        let mut old_lt = ReferenceLoserTree::new(refs);
        let mut switched = false;
        loop {
            switched |= new_lt.guarded_store;
            let (a, b) = (new_lt.next_element(), old_lt.next_element());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert!(switched, "biased input must engage the guarded store");
        assert_eq!(new_lt.comparisons(), old_lt.comparisons());
    }

    #[test]
    fn oscillating_input_pins_guarded_policy() {
        // Alternate duplicate-heavy regions (guarded wins) with uniform
        // regions (branchless wins), each spanning a couple of
        // ADAPT_BLOCKs of *emitted* elements: the retune decision flips at
        // every region edge. After PIN_FLIPS flips the policy must pin
        // guarded and stop thrashing — while staying observationally
        // identical to the reference.
        let region = 2 * ADAPT_BLOCK as u64; // emitted elements per region
        let k = 4u64;
        let per_run_region = region / k;
        let runs: Vec<Vec<u64>> = (0..k)
            .map(|r| {
                let mut v = Vec::new();
                let mut state = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(r + 1);
                for block in 0..12u64 {
                    let base = block * 1_000_000;
                    let start = v.len();
                    for _ in 0..per_run_region {
                        if block % 2 == 0 {
                            v.push(base); // all-equal region: heavily biased
                        } else {
                            // Pseudorandom region: match outcomes are coin
                            // flips (round-robin interleaving would be
                            // predictable and favor guarded too).
                            state = state
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add(1442695040888963407);
                            v.push(base + (state >> 45));
                        }
                    }
                    v[start..].sort_unstable();
                }
                v
            })
            .collect();
        let refs: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
        let mut new_lt = LoserTree::new(refs.clone());
        let mut old_lt = ReferenceLoserTree::new(refs);
        loop {
            let (a, b) = (new_lt.next_element(), old_lt.next_element());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert_eq!(new_lt.comparisons(), old_lt.comparisons());
        assert!(
            new_lt.policy_flips >= PIN_FLIPS,
            "regions must flip the policy (flips = {})",
            new_lt.policy_flips
        );
        assert!(new_lt.policy_pinned, "plateau must pin the policy");
        assert!(new_lt.guarded_store, "pinned policy is the guarded store");
    }
}
