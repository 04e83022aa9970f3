//! Loser-tree (tournament) k-way merging.
//!
//! The cost model of every merge in this crate: the external mergesort's
//! merge passes, NMsort's Phase-2 multiway merge of sorted chunk segments,
//! and the baseline's final merge. A loser tree merges `k` sorted runs with
//! at most `⌈lg k⌉` comparisons per emitted element (fewer once a subtree
//! runs dry) — the constant the multiway merge sort analysis (Theorem 1)
//! assumes. Every merge is charged the tree's exact count,
//! [`merge_cost`], whichever kernel executes it: [`merge_into_slice`]
//! sends long, duplicate-light merges to a binary tree of two-way merge
//! passes ([`merge_pair_tree`]) and the rest to the loser tree.
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
/// guarded store policy turns into near-free replay steps, while the pair
/// kernel does fixed work per element regardless — so duplicate-heavy
/// runs skip pre-merging, and a merge holding one stays on the loser tree.
/// The decision reads only the data, so it is identical across SIMD
/// dispatch and thread counts, and the charged comparison total is
/// unchanged either way (see [`merge_cost`]).
fn duplicate_heavy<T: Ord>(r: &[T]) -> bool {
    const PROBES: usize = 4;
    if r.len() < PLATEAU_GAP * PROBES {
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
/// the pair kernel's fixed per-element work (see [`duplicate_heavy`]).
const PLATEAU_GAP: usize = 32;

/// Mean run length from which [`merge_into_slice`] merges on the pair
/// tree. On uniform `u64` the pair tree beat the loser tree at every shape
/// measured (4–300 runs of 8–5,000 keys), so the gate is conservative: it
/// keeps tiny merges, dominated by call overheads, on the loser tree.
const PAIR_TREE_MIN_MEAN_RUN: usize = 32;

/// The pair pre-merge plan: the loser tree's leaves in order, as run-index
/// boundaries — leaf `j` covers `runs[b[j]..b[j + 1]]`, either one run or
/// two adjacent runs the pair kernel merges first. With four or more runs,
/// adjacent runs no longer than [`PREMERGE_MAX`] and not
/// [`duplicate_heavy`] are paired left to right; otherwise every leaf is
/// one run. [`merge_into_slice`]'s loser-tree path executes this plan and
/// [`merge_cost`] charges it.
fn premerge_plan<T: Ord>(runs: &[&[T]]) -> Vec<usize> {
    let pairable: Vec<bool> = if runs.len() >= 4 {
        runs.iter()
            .map(|r| r.len() <= PREMERGE_MAX && !duplicate_heavy(r))
            .collect()
    } else {
        vec![false; runs.len()]
    };
    let mut bounds = vec![0];
    let mut i = 0;
    while i < runs.len() {
        i += if i + 1 < runs.len() && pairable[i] && pairable[i + 1] {
            2
        } else {
            1
        };
        bounds.push(i);
    }
    bounds
}

/// Comparisons one loser-tree node plays merging the runs under its left
/// subtree with those under its right: `|side that exhausts first|` plus
/// the elements of the other side ordered before that side's last
/// element. Ties go to the left side, so a right side counts its elements
/// `<` the left's last and a left side counts its elements `≤` the
/// right's last. Zero when either side is empty.
fn node_cost<T: Ord>(left: &[&[T]], right: &[&[T]]) -> u64 {
    let len = |side: &[&[T]]| side.iter().map(|r| r.len() as u64).sum::<u64>();
    let l_last = left.iter().filter_map(|r| r.last()).max();
    let r_last = right.iter().filter_map(|r| r.last()).max();
    let (Some(l_last), Some(r_last)) = (l_last, r_last) else {
        return 0;
    };
    let before = |side: &[&[T]], pred: &dyn Fn(&T) -> bool| {
        side.iter()
            .map(|r| r.partition_point(pred) as u64)
            .sum::<u64>()
    };
    if l_last <= r_last {
        len(left) + before(right, &|x| x < l_last)
    } else {
        len(right) + before(left, &|x| x <= r_last)
    }
}

/// Comparisons [`merge_into_slice`] charges for merging `runs`: exactly
/// the count its loser-tree path performs — the pair pre-merge plan
/// ([`crate::kernels::simd::pair_merge_cost`] per pair) plus the tree over
/// the plan's leaves (`node_cost` per node) — computed from the runs
/// alone in `O(k lg k)` binary searches. Charging this instead of a
/// kernel's own count keeps every ledger identical whichever kernel
/// merges. With two runs it is `pair_merge_cost`.
pub fn merge_cost<T: Ord>(runs: &[&[T]]) -> u64 {
    if runs.len() < 2 {
        return 0;
    }
    let leaves = premerge_plan(runs);
    let n_leaves = leaves.len() - 1;
    let pairs: u64 = leaves
        .windows(2)
        .filter(|w| w[1] - w[0] == 2)
        .map(|w| crate::kernels::simd::pair_merge_cost(runs[w[0]], runs[w[0] + 1]))
        .sum();
    // Leaves past the last run are the tree's empty padding.
    let side = |lo: usize, hi: usize| &runs[leaves[lo.min(n_leaves)]..leaves[hi.min(n_leaves)]];
    let mut tree = 0u64;
    let mut width = 2;
    while width <= n_leaves.next_power_of_two() {
        for lo in (0..n_leaves).step_by(width) {
            tree += node_cost(side(lo, lo + width / 2), side(lo + width / 2, lo + width));
        }
        width *= 2;
    }
    pairs + tree
}

/// Merge `runs` into the exactly-sized slice `out`, returning the
/// comparisons to charge ([`merge_cost`]).
///
/// Two shapes need no kernel at all. A merge of empty runs writes nothing
/// and costs nothing. A merge whose non-empty runs all hold one key value
/// is the runs concatenated in run order — the order every kernel gives
/// ties — charged [`merge_cost`]; SPMS's duplicate-heavy buckets are
/// mostly of these two shapes.
///
/// Otherwise two kernels, one result. Merges whose mean run length is at least
/// `PAIR_TREE_MIN_MEAN_RUN` and that hold no duplicate-heavy run (the
/// plateau probe) go to [`merge_pair_tree`], a balanced binary tree of
/// streaming two-way merges (4-wide bitonic network when SIMD dispatch is
/// active), charged [`merge_cost`]. All other merges run the loser tree
/// over the pair pre-merge plan, which counts for itself: duplicate-heavy
/// ones because the tree's guarded-store streaks make them nearly free
/// while the pair tree does fixed work per element and allocates scratch,
/// tiny ones because the gate is conservative. Both kernels keep run order
/// on ties (lower run index first), so the emitted sequence is the same,
/// and the count is the same by construction.
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
        _ if single_key(runs) => {
            let mut rest: &mut [T] = out;
            for r in runs {
                let (dst, next) = rest.split_at_mut(r.len());
                dst.copy_from_slice(r);
                rest = next;
            }
            merge_cost(runs)
        }
        k if total >= PAIR_TREE_MIN_MEAN_RUN * k && !runs.iter().any(|r| duplicate_heavy(r)) => {
            merge_pair_tree(runs, out);
            tlmm_telemetry::counter!("core.kernels.pair_tree_merges").incr();
            merge_cost(runs)
        }
        _ => merge_with_loser_tree(runs, out),
    }
}

/// `true` when every non-empty run of `runs` holds one and the same key
/// value (by `Ord`).
fn single_key<T: Ord>(runs: &[&[T]]) -> bool {
    let Some(key) = runs.iter().find_map(|r| r.first()) else {
        return true;
    };
    let is_key = |x: Option<&T>| x.is_none_or(|x| x.cmp(key).is_eq());
    runs.iter().all(|r| is_key(r.first()) && is_key(r.last()))
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
    let leaves = premerge_plan(runs);
    let paired = |w: &[usize]| w[1] - w[0] == 2;
    let paired_total: usize = leaves
        .windows(2)
        .filter(|w| paired(w))
        .map(|w| runs[w[0]].len() + runs[w[0] + 1].len())
        .sum();
    let mut cmps = 0u64;
    let mut buf: Vec<T> = vec![T::default(); paired_total];
    let mut rest: &mut [T] = &mut buf;
    for w in leaves.windows(2).filter(|w| paired(w)) {
        let (a, b) = (runs[w[0]], runs[w[0] + 1]);
        let (dst, next) = rest.split_at_mut(a.len() + b.len());
        crate::kernels::simd::merge_pair(a, b, dst);
        cmps += crate::kernels::simd::pair_merge_cost(a, b);
        rest = next;
    }
    let mut off = 0usize;
    let tree_runs: Vec<&[T]> = leaves
        .windows(2)
        .map(|w| {
            if paired(w) {
                let len = runs[w[0]].len() + runs[w[0] + 1].len();
                off += len;
                &buf[off - len..off]
            } else {
                runs[w[0]]
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

/// Merge `runs` by a balanced binary tree of
/// [`crate::kernels::simd::merge_pair`] passes: each pass merges adjacent
/// pairs of the previous pass's runs (an odd last run is copied). Passes
/// ping-pong between `out` and one scratch buffer, starting on whichever
/// makes the last pass write `out`. Ties keep run order, so the output
/// equals the loser tree's. Counts nothing; the caller charges
/// [`merge_cost`]. Public so tests and benches can run one kernel on any
/// shape.
///
/// # Panics
/// Panics if `out.len()` differs from the total run length.
pub fn merge_pair_tree<T: crate::SortElem>(runs: &[&[T]], out: &mut [T]) {
    let total: usize = runs.iter().map(|r| r.len()).sum();
    assert_eq!(out.len(), total, "output slice must fit the merge exactly");
    let live: Vec<&[T]> = runs.iter().copied().filter(|r| !r.is_empty()).collect();
    if live.len() <= 1 {
        if let Some(r) = live.first() {
            out.copy_from_slice(r);
        }
        return;
    }
    // ⌈lg k⌉ passes for k ≥ 2 live runs.
    let passes = (live.len() - 1).ilog2() + 1;
    let mut scratch: Vec<T> = if passes > 1 {
        vec![T::default(); out.len()]
    } else {
        Vec::new()
    };
    let into_out = |pass: u32| (passes - pass).is_multiple_of(2);
    let mut bounds = if into_out(1) {
        merge_adjacent_pairs(&live, out)
    } else {
        merge_adjacent_pairs(&live, &mut scratch)
    };
    for pass in 2..=passes {
        let (src, dst): (&[T], &mut [T]) = if into_out(pass) {
            (&scratch, &mut *out)
        } else {
            (&*out, &mut scratch)
        };
        let level: Vec<&[T]> = bounds.windows(2).map(|w| &src[w[0]..w[1]]).collect();
        bounds = merge_adjacent_pairs(&level, dst);
    }
}

/// One pass of [`merge_pair_tree`]: merge runs `(0, 1)`, `(2, 3)`, … into
/// consecutive regions of `dst`, copying an odd last run. Returns the
/// region boundaries.
fn merge_adjacent_pairs<T: crate::SortElem>(runs: &[&[T]], dst: &mut [T]) -> Vec<usize> {
    let mut bounds = Vec::with_capacity(runs.len() / 2 + 2);
    bounds.push(0);
    let mut off = 0usize;
    for pair in runs.chunks(2) {
        let len: usize = pair.iter().map(|r| r.len()).sum();
        let d = &mut dst[off..off + len];
        match pair {
            [a, b] => crate::kernels::simd::merge_pair(a, b, d),
            [a] => d.copy_from_slice(a),
            _ => unreachable!("chunks(2) yields one or two runs"),
        }
        off += len;
        bounds.push(off);
    }
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::reference::ReferenceLoserTree;

    /// Both kernels and `merge_into_slice` emit the sorted union, and all
    /// three report (or charge) the loser tree's comparison count.
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
        let mut pt_out = vec![0; expect.len()];
        merge_pair_tree(&refs, &mut pt_out);
        assert_eq!(pt_out, expect);
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
    fn pair_tree_keeps_run_order_on_ties() {
        // Key-only equality and ordering make ties observable through the
        // run tag: both kernels must emit equal keys in run order.
        #[derive(Clone, Copy, Default, Debug)]
        struct E(u64, u8);
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
        let runs: Vec<Vec<E>> = (0..7u8)
            .map(|r| (0..64u64).map(|i| E(i / (r as u64 + 1), r)).collect())
            .collect();
        let refs: Vec<&[E]> = runs.iter().map(|r| r.as_slice()).collect();
        let mut lt_out = vec![E::default(); 7 * 64];
        let cmps = merge_with_loser_tree(&refs, &mut lt_out);
        let mut pt_out = vec![E::default(); 7 * 64];
        merge_pair_tree(&refs, &mut pt_out);
        let tagged = |v: &[E]| v.iter().map(|e| (e.0, e.1)).collect::<Vec<_>>();
        assert_eq!(tagged(&pt_out), tagged(&lt_out));
        assert!(lt_out
            .windows(2)
            .all(|w| (w[0].0, w[0].1) <= (w[1].0, w[1].1)));
        assert_eq!(merge_cost(&refs), cmps);
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
