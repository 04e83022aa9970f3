//! SPMS — Sample, Partition, and Merge Sort (Cole–Ramachandran).
//!
//! The deterministic resource-oblivious sort: split the input into ~√n
//! groups, sort each recursively, draw a *strided* sample from every sorted
//! group (deterministic — no RNG anywhere), merge the per-group sample runs
//! into one sorted sample, pick √n−1 evenly spaced pivots from it,
//! partition every group against the pivots (a merge scan, charged as the
//! binary searches the analysis assumes), and finish each of the √n
//! buckets with a single k-way merge of its (already sorted) group
//! segments. Partitioning and merging interleave: the bucket merge *is* the
//! completion step, so one recursion level is charged exactly two
//! streaming passes over the data (the bucket merges and a copy back)
//! plus the lower-order sample traffic.
//!
//! Below the root a node merges into a scratch as long as itself and
//! copies back. The root holds no second `n`-element array: it merges its
//! buckets in waves of consecutive buckets into one small buffer and
//! writes each wave over the group prefixes already merged
//! ([`crate::inplace`]), so the copy-back pass is charged but moves no
//! bytes.
//!
//! Most buckets hold about one key per group, and most groups none. Such a
//! bucket is merged in one walk over its two boundary rows
//! (`Boundaries::merge_tiny`): its non-empty segments are copied out, the
//! loser tree is counted over them alone (`losertree::leaf_cost`), and
//! one sort orders them.
//!
//! Control flow depends only on `n`. The machine's [`super::Ctx`] decides
//! which memory level each pass is charged against and charges the far
//! ingest/writeback boundary when a subtree becomes scratchpad-resident —
//! see the module docs of [`super`] for the residency rationale.

use super::{ceil_sqrt, Ctx, ObliviousConfig, ObliviousReport};
use crate::extsort::RegionLevel;
use crate::inplace::InPlaceOutput;
use crate::losertree::{
    leaf_cost, merge_cost, merge_into_slice, single_key, sort_merged, Leaf, SORT_MEAN_RUN,
};
use crate::par::{
    charge_compute_striped, charge_copy, charge_io_striped, charged_copy, CopyKind, Pieces,
};
use crate::{ceil_lg, SortElem, SortError};
use std::ops::Range;
use tlmm_scratchpad::trace::{current_lane, with_lane};
use tlmm_scratchpad::{Dir, FarArray, TwoLevel};

/// Sort `input` with SPMS. Returns the sorted array and a summary of the
/// work performed. Fails fast on `cfg.lanes == 0`.
pub fn spms_sort<T: SortElem>(
    tl: &TwoLevel,
    input: FarArray<T>,
    cfg: &ObliviousConfig,
) -> Result<(FarArray<T>, ObliviousReport), SortError> {
    super::validate(cfg)?;
    // Entry / exit are this engine's phase boundaries: the oblivious
    // recursion holds no scratchpad arrays (data lives in host vecs), so
    // cancellation is checked before any work and a unit-budget deadline
    // trips at completion with all work honestly charged.
    tl.checkpoint()?;
    let _phase = tl.phase("spms.sort");
    let mut data = input.into_vec();
    let cx = Ctx::new::<T>(tl, cfg);
    sort_rec(&cx, &mut data, None, cfg.lanes, true, 1);
    tl.checkpoint()?;
    Ok((tl.far_from_vec(data), cx.report()))
}

/// One SPMS recursion node over `data` (result left in `data`, sorted).
/// `scratch`, as long as `data`, takes the node's bucket merges; without
/// one the node merges in place. `parent_far` is true when the enclosing
/// segment streams against far memory — the node charges the residency
/// boundary if it is the topmost scratchpad-fitting segment on its root
/// path.
fn sort_rec<T: SortElem>(
    cx: &Ctx<'_>,
    data: &mut [T],
    scratch: Option<&mut [T]>,
    lanes: usize,
    parent_far: bool,
    depth: u32,
) {
    let n = data.len();
    cx.note_depth(depth);
    if n <= 1 {
        return;
    }
    let level = cx.level(n);
    let entered = parent_far && level == RegionLevel::Near;
    if entered {
        cx.ingest::<T>(n, lanes);
    }
    if n <= cx.base_elems {
        cx.base_case(data, level, lanes);
    } else {
        node(cx, data, scratch, lanes, level, depth);
    }
    if entered {
        cx.writeback::<T>(n, lanes);
    }
}

fn node<T: SortElem>(
    cx: &Ctx<'_>,
    data: &mut [T],
    mut scratch: Option<&mut [T]>,
    lanes: usize,
    level: RegionLevel,
    depth: u32,
) {
    let n = data.len();
    let elem = std::mem::size_of::<T>();
    // ~√n groups of ~√n elements; the last may be short.
    let k = ceil_sqrt(n);
    let group = n.div_ceil(k);
    let n_groups = n.div_ceil(group);
    let child_far = level == RegionLevel::Far;

    // ---- 1. Recursively sort each group ------------------------------
    // Groups distribute round-robin over the lanes (each child charges on
    // one lane when there are enough groups to go around, otherwise the
    // children share the lane budget). Children merge into their share of
    // this node's scratch. Under an in-place node, the children of one
    // pool task share a scratch of a group's size, grown by the first
    // child too long for a base case.
    let child_lanes = (lanes / n_groups).max(1);
    let base = current_lane();
    let mut scratches = scratch.as_deref_mut().map(|s| s.chunks_mut(group));
    let children = data
        .chunks_mut(group)
        .map(|d| (d, scratches.as_mut().and_then(Iterator::next)));
    crate::pool::run_indexed(cx.threads, in_tasks(children, CHILD_TASK), |t, kids| {
        let mut own = Vec::new();
        for (c, (d, s)) in kids.into_iter().enumerate() {
            let s = match s {
                None if d.len() > cx.base_elems => {
                    own.resize(own.len().max(d.len()), T::default());
                    Some(&mut own[..d.len()])
                }
                s => s,
            };
            let i = t * CHILD_TASK + c;
            with_lane(base + (i * child_lanes) % lanes, || {
                sort_rec(cx, d, s, child_lanes, child_far, depth + 1);
            })
        }
    });

    // ---- 2. Deterministic strided sample + pivots --------------------
    // Every ⌈√g⌉-th element of every sorted group: ~n^(3/4) elements in
    // ~√n already-sorted runs, gathered into one flat buffer. A full group
    // gives `per_group` elements and the short last one no more, so the
    // runs are the buffer's `per_group`-element chunks. Gathering is
    // strided, so it is charged as random block touches, not a streamed
    // pass.
    let stride = ceil_sqrt(group).max(1);
    let per_group = group.div_ceil(stride);
    let mut flat = Vec::with_capacity(n_groups * per_group);
    for g in data.chunks(group) {
        flat.extend(g.iter().step_by(stride).copied());
    }
    let sample_len = flat.len();
    let sample_bytes = (sample_len * elem) as u64;
    match level {
        RegionLevel::Far => cx
            .tl
            .charge_far_random(Dir::Read, sample_len as u64, sample_bytes),
        RegionLevel::Near => cx
            .tl
            .charge_near_random(Dir::Read, sample_len as u64, sample_bytes),
    }
    // Merge the sorted sample runs into one sorted sample: one small
    // streaming pass over the sample.
    let mut sample = vec![T::default(); sample_len];
    let run_refs: Vec<&[T]> = flat.chunks(per_group).collect();
    cx.preflight_stream(level, sample_bytes, lanes);
    charge_io_striped(cx.tl, level, Dir::Read, sample_bytes, lanes);
    let sample_cmps = merge_into_slice(&run_refs, &mut sample);
    charge_compute_striped(cx.tl, sample_cmps, lanes);
    charge_io_striped(cx.tl, level, Dir::Write, sample_bytes, lanes);
    cx.add_comparisons(sample_cmps);
    // √n−1 evenly spaced pivots carve √n buckets.
    let pivots: Vec<T> = (1..n_groups)
        .map(|j| sample[j * sample_len / n_groups])
        .collect();
    let waves = scratch.is_none().then(|| plan_waves(&sample, &pivots));
    drop((flat, sample));

    // ---- 3. Partition: merge-scan every group against the pivots -----
    // The boundaries are host metadata; the search comparisons are
    // charged as compute, by the binary-search formula.
    let search_cmps = (n_groups * pivots.len()) as u64 * ceil_lg(group);
    let charge_search = || {
        charge_compute_striped(cx.tl, search_cmps, lanes);
        cx.add_comparisons(search_cmps);
    };

    // ---- 4. Bucket merges: one k-way merge per bucket -----------------
    // Reading the group segments and writing the merged buckets is one full
    // streaming pass over the node.
    let buckets = Buckets {
        cx,
        level,
        lanes,
        base,
    };
    match scratch.as_deref_mut() {
        Some(scratch) => {
            // Every group's boundaries in one table, and every bucket
            // merged into its place in the scratch.
            let groups: Vec<&[T]> = data.chunks(group).collect();
            let mut bounds = Boundaries::default();
            bounds.scan(&groups, &pivots, 0..n_groups, |_| 0, cx.threads);
            charge_search();
            let sizes: Vec<usize> = bounds
                .column_sums()
                .windows(2)
                .map(|w| w[1] - w[0])
                .collect();
            let mut rest: &mut [T] = scratch;
            let outs = sizes.iter().map(|&len| {
                let (out, tail) = std::mem::take(&mut rest).split_at_mut(len);
                rest = tail;
                out
            });
            buckets.merge(
                &groups,
                &bounds,
                0,
                &sizes,
                outs.collect(),
                false,
                Vec::new(),
                |()| {},
            );
        }
        None => {
            charge_search();
            let waves = waves.expect("an in-place node plans its waves");
            merge_in_place(&buckets, data, group, &pivots, &waves);
        }
    }
    cx.add_passes(1);

    // ---- 5. Copy the concatenated buckets back: the second pass -------
    // In place there are no bytes left to move, only the pass to charge.
    let kind = match level {
        RegionLevel::Near => CopyKind::NearToNear,
        RegionLevel::Far => CopyKind::FarToFar,
    };
    cx.preflight_stream(level, std::mem::size_of_val(data) as u64, lanes);
    match scratch {
        Some(scratch) => charged_copy(cx.tl, kind, scratch, data, lanes, cx.threads),
        None => charge_copy::<T>(cx.tl, kind, n, lanes),
    }
    cx.add_passes(1);
}

/// The root's bucket merges, written over the groups they consume. Each
/// wave of `waves` merges into one reused buffer; then every group's
/// segment in the wave is dead ([`InPlaceOutput::consume`]) and the
/// wave's buckets are copied into dead slots in order. The last wave moves
/// every block home.
///
/// A bucket whose segments hold one key of a [`crate::kernels::RadixKey`]
/// type is that key `len` times: it is written with
/// [`InPlaceOutput::fill`], whose whole blocks take no slot and are
/// written home once, by the final permutation. One longer than a wave's
/// worth of keys is not staged at all, so the heaviest keys of a skewed
/// input never size the buffer.
fn merge_in_place<T: SortElem>(
    buckets: &Buckets<'_, '_>,
    data: &mut [T],
    group: usize,
    pivots: &[T],
    waves: &[Range<usize>],
) {
    let n_groups = pivots.len() + 1;
    let fill = crate::kernels::radix_kernel::<T>().is_some();
    let wave_keys = WAVE_BUCKETS * group;
    let mut out = InPlaceOutput::new(data.len(), group, BLOCKS_PER_GROUP);
    let threads = buckets.cx.threads;
    // This wave's boundary rows, and the next wave's, which its walks
    // fill on the pool alongside this wave's merges.
    let (mut bounds, mut next) = (Boundaries::default(), Boundaries::default());
    let groups: Vec<&[T]> = data.chunks(group).collect();
    bounds.scan(&groups, pivots, waves[0].clone(), |_| 0, threads);
    let mut buf: Vec<T> = Vec::new();
    for (w, wave) in waves.iter().enumerate() {
        let groups: Vec<&[T]> = data.chunks(group).collect();
        let sums = bounds.column_sums();
        let sizes: Vec<usize> = sums.windows(2).map(|w| w[1] - w[0]).collect();
        // A bucket of one key longer than a wave is filled, not staged.
        let mut segs = Vec::with_capacity(n_groups);
        let staged: Vec<usize> = (0..wave.len())
            .map(|i| {
                let filled = fill && sizes[i] > wave_keys && {
                    bounds.bucket_into(&groups, i, &mut segs);
                    single_key(&segs)
                };
                if filled {
                    0
                } else {
                    sizes[i]
                }
            })
            .collect();
        let total: usize = staged.iter().sum();
        if buf.len() < total {
            // Exactly sized, and the old one freed first: nothing in it
            // survives a wave.
            buf = Vec::new();
            buf.resize(total, T::default());
        }
        let mut rest = &mut buf[..total];
        let outs = staged.iter().map(|&len| {
            let (out, tail) = std::mem::take(&mut rest).split_at_mut(len);
            rest = tail;
            out
        });
        // Each group's walk through the next wave starts where this
        // wave's last row ends.
        let last = wave.len();
        let ahead = waves.get(w + 1).cloned().unwrap_or(0..0);
        let side = if ahead.is_empty() {
            Vec::new()
        } else {
            next.jobs(&groups, ahead.len())
        };
        let keys = buckets.merge(
            &groups,
            &bounds,
            wave.start,
            &sizes,
            outs.collect(),
            fill,
            side,
            |job| {
                walk_block(job, pivots, ahead.clone(), |g| bounds.get(g, last));
            },
        );
        let segs: Vec<(usize, usize)> = (0..n_groups)
            .map(|g| {
                (
                    g * group + bounds.get(g, 0),
                    g * group + bounds.get(g, last),
                )
            })
            .collect();
        out.consume(&segs);
        let mut at = 0;
        for ((key, &len), &staged) in keys.into_iter().zip(&sizes).zip(&staged) {
            match key {
                Some(key) => out.fill(data, len, key),
                None => Pieces::new(out.dests(data, len)).fill(&buf[at..at + len]),
            }
            at += staged;
        }
        std::mem::swap(&mut bounds, &mut next);
    }
    drop((buf, bounds, next));
    out.finish(data);
}

/// The root's merge waves: runs of consecutive buckets, each at most
/// [`WAVE_BUCKETS`] buckets and about as many average buckets' worth of
/// keys, judged by the sorted `sample`. Bucket `b` holds the sample
/// elements in `[pivot b − 1, pivot b)`, so a bucket of an average share
/// holds `sample.len() / buckets` of them. A bucket worth more than a wave
/// is a wave alone.
fn plan_waves<T: Ord>(sample: &[T], pivots: &[T]) -> Vec<Range<usize>> {
    let n_buckets = pivots.len() + 1;
    let budget = WAVE_BUCKETS * sample.len() / n_buckets;
    let starts: Vec<usize> = std::iter::once(0)
        .chain(pivots.iter().map(|p| sample.partition_point(|x| x < p)))
        .chain([sample.len()])
        .collect();
    let mut waves = Vec::new();
    let mut first = 0;
    while first < n_buckets {
        let mut end = first + 1;
        while end < n_buckets
            && end - first < WAVE_BUCKETS
            && starts[end + 1] - starts[first] <= budget
        {
            end += 1;
        }
        waves.push(first..end);
        first = end;
    }
    waves
}

/// Most buckets in one in-place merge wave, and a wave's budget in
/// average buckets' worth of keys: the root's wave buffer holds about
/// `WAVE_BUCKETS · group` keys (~48·√n), and each of its two boundary
/// tables (this wave's and the next's) `groups · (WAVE_BUCKETS + 1)`
/// entries however many buckets are empty. At 1M keys these and the slot
/// bookkeeping peak at ~21 % of the input's bytes (`crates/core/tests/spms_memory.rs`
/// holds them under 25 %).
const WAVE_BUCKETS: usize = 48;

/// Slots per group of the in-place root. Most output blocks land out of
/// place, because a group's home slots die only as late waves reach them,
/// so the final permutation moves nearly every block. On 10M Zipf keys
/// (2-vCPU VM) it took ~30 ms with slots of √n/64 keys and ~15 ms with
/// √n/16, and the wave copies 35 and 23 ms. The overflow area holds at
/// most `2·groups − 1` blocks, `n/8` keys, and about half that when every
/// wave reads every group.
const BLOCKS_PER_GROUP: usize = 16;

/// Groups per child-sort task: a task's children share one scratch under
/// an in-place node, and ~400 tasks at the root of a 10M-key sort still
/// spread over the pool.
const CHILD_TASK: usize = 8;

/// Buckets per bucket-merge task. A task lists its buckets' segments in
/// one reused buffer instead of allocating a list per bucket, and the
/// pool's dynamic claiming still spreads skewed buckets.
const MERGE_TASK: usize = 16;

/// `items` in order, in tasks of `per`.
fn in_tasks<X>(items: impl IntoIterator<Item = X>, per: usize) -> Vec<Vec<X>> {
    let mut tasks: Vec<Vec<X>> = Vec::new();
    for (i, x) in items.into_iter().enumerate() {
        if i % per == 0 {
            tasks.push(Vec::with_capacity(per));
        }
        tasks.last_mut().expect("task pushed above").push(x);
    }
    tasks
}

/// What a node's bucket merges charge against: its level, its lane budget
/// and the lane it started on.
struct Buckets<'c, 'a> {
    cx: &'c Ctx<'a>,
    level: RegionLevel,
    lanes: usize,
    base: usize,
}

impl Buckets<'_, '_> {
    /// Merge buckets `first..first + outs.len()`, whose boundaries `bounds`
    /// holds from `first` on and whose lengths are `sizes`, each into its
    /// `outs` slice, on the pool in tasks of up to [`MERGE_TASK`] buckets,
    /// at least four tasks per thread so a wave's skewed buckets still
    /// spread. Bucket `b` is charged on lane `base + b % lanes`: one
    /// fault-gated read of its keys, the loser tree's comparisons and one
    /// write. With `fill`, a bucket of one key value is not merged: its
    /// entry in the result is that key, and its slice, which may then be
    /// empty, holds nothing in particular (the charges are the same). The
    /// `side` jobs, which charge nothing, run on the same pool after the
    /// merge tasks are claimed.
    #[allow(clippy::too_many_arguments)]
    fn merge<T: SortElem, S: Send>(
        &self,
        groups: &[&[T]],
        bounds: &Boundaries,
        first: usize,
        sizes: &[usize],
        outs: Vec<&mut [T]>,
        fill: bool,
        side: Vec<S>,
        run_side: impl Fn(S) + Sync,
    ) -> Vec<Option<T>> {
        enum Job<M, S> {
            Merge(M),
            Side(S),
        }
        let (cx, level) = (self.cx, self.level);
        let per = MERGE_TASK.min(outs.len().div_ceil(4 * cx.threads)).max(1);
        let jobs: Vec<Job<_, S>> = in_tasks(outs, per)
            .into_iter()
            .map(Job::Merge)
            .chain(side.into_iter().map(Job::Side))
            .collect();
        let keys = crate::pool::map_indexed(cx.threads, jobs, |t, job| {
            let outs = match job {
                Job::Merge(outs) => outs,
                Job::Side(job) => {
                    run_side(job);
                    return Vec::new();
                }
            };
            let mut segs = Vec::new();
            let mut leaves = Vec::new();
            let mut keys = Vec::with_capacity(outs.len());
            for (i, out) in outs.into_iter().enumerate() {
                let b = t * per + i;
                let len = sizes[b];
                keys.push(with_lane(self.base + (first + b) % self.lanes, || {
                    let tiny = len < SORT_MEAN_RUN * groups.len() && out.len() == len;
                    let (cmps, key) = if tiny {
                        bounds.merge_tiny(groups, b, out, fill, &mut leaves)
                    } else {
                        None
                    }
                    .unwrap_or_else(|| {
                        bounds.bucket_into(groups, b, &mut segs);
                        let key = if fill && single_key(&segs) {
                            segs.iter().find_map(|s| s.first()).copied()
                        } else {
                            None
                        };
                        let cmps = match key {
                            Some(_) => merge_cost(&segs),
                            None => merge_into_slice(&segs, out),
                        };
                        (cmps, key)
                    });
                    let bytes = (len * std::mem::size_of::<T>()) as u64;
                    cx.preflight_stream(level, bytes, 1);
                    charge_io_striped(cx.tl, level, Dir::Read, bytes, 1);
                    cx.tl.charge_compute(cmps);
                    charge_io_striped(cx.tl, level, Dir::Write, bytes, 1);
                    cx.add_comparisons(cmps);
                    key
                }));
            }
            keys
        });
        keys.into_iter().flatten().collect()
    }
}

/// Copy `src` into `dst`, as long. Segments of up to [`SHORT_COPY`] keys,
/// nearly all of a tiny-run bucket's, are copied key by key without a
/// branch on their length (the last key is written again to fill the
/// width); `copy_from_slice` would call `memcpy` for each.
#[inline]
fn copy_short<T: Copy>(src: &[T], dst: &mut [T]) {
    if src.len() > SHORT_COPY {
        dst.copy_from_slice(src);
        return;
    }
    let last = src.len() - 1;
    for j in 0..SHORT_COPY {
        dst[j.min(last)] = src[j.min(last)];
    }
}

/// Widest segment [`copy_short`] copies key by key.
const SHORT_COPY: usize = 4;

/// Groups per block of the boundary table: one partition task's share of
/// the scan, and the width of one table row (and of a `u64` mask).
const BLOCK: usize = 64;

/// Walk `K` sorted groups `g` through their boundaries `buckets.start` to
/// `buckets.end`, group `k` starting at offset `from[k]`, its boundary
/// `buckets.start`. Boundary `j` of a group is the number of its keys
/// below pivot `j - 1` (`0` for `j = 0`, `|g|` for the last), so bucket
/// `b` takes `g[boundary b .. boundary b + 1]`. `emit(k, r, i)` sets
/// boundary `buckets.start + r` of group `k` to `i`; a later call for the
/// same `k` and `r` overrides an earlier one.
///
/// A walk merges a group's keys with the sorted pivots without a branch
/// per step: each step either passes a key below the current pivot or
/// closes that pivot's boundary, and writes the boundary either way. At
/// the root a bucket takes about one key of a group, so a loop that
/// stopped on a data-dependent branch per boundary mispredicted about once
/// per boundary. A step is a load, a compare and an index update that the
/// next step's load depends on, so the `K` walks run in lockstep, one step
/// of each per round, and their chains overlap; once one group is done,
/// the others finish alone.
fn walk<T: Ord, const K: usize>(
    g: [&[T]; K],
    pivots: &[T],
    buckets: Range<usize>,
    from: [usize; K],
    mut emit: impl FnMut(usize, usize, usize),
) {
    let rows = buckets.len() + 1;
    // Rows 1.. up to here have a pivot; the rest (at most the last
    // boundary) are `|g|`.
    let searched = rows.min(pivots.len() + 1 - buckets.start);
    let pivots = &pivots[buckets.start..buckets.start + searched - 1];
    let mut i = from;
    let mut r = [1; K];
    for (k, &i) in i.iter().enumerate() {
        emit(k, 0, i);
    }
    let mut step = |k: usize, i: &mut usize, r: &mut usize| {
        let below = g[k][*i] < pivots[*r - 1];
        *i += usize::from(below);
        emit(k, *r, *i);
        *r += usize::from(!below);
    };
    while (0..K).all(|k| r[k] < searched && i[k] < g[k].len()) {
        for k in 0..K {
            step(k, &mut i[k], &mut r[k]);
        }
    }
    for k in 0..K {
        while r[k] < searched && i[k] < g[k].len() {
            step(k, &mut i[k], &mut r[k]);
        }
    }
    // Every key of a group is passed, or every pivot closed.
    for k in 0..K {
        for row in r[k]..rows {
            emit(k, row, g[k].len());
        }
    }
}

/// Groups one [`walk`] takes in lockstep. On the root of a 10M-key Zipf
/// sort, one thread, its boundary walks took 0.11–0.12 s one group at a
/// time, 0.07–0.08 s two at a time and 0.06–0.08 s four at a time.
const WALK_LANES: usize = 4;

/// One block's share of a boundary scan: the index of its first group,
/// its groups, and its slab of the table.
type ScanJob<'s, T> = (usize, &'s [&'s [T]], &'s mut [u32]);

/// Run a scan job: [`walk`] its groups, [`WALK_LANES`] at a time (the
/// last few one at a time), through the boundaries of `buckets` from
/// offset `from(g)`, into its slab.
fn walk_block<T: Ord>(
    (first, groups, slab): ScanJob<'_, T>,
    pivots: &[T],
    buckets: Range<usize>,
    from: impl Fn(usize) -> usize,
) {
    for (pack, gs) in groups.chunks(WALK_LANES).enumerate() {
        let lane = WALK_LANES * pack;
        let mut emit = |k: usize, r: usize, i: usize| slab[r * BLOCK + lane + k] = i as u32;
        match <[&[T]; WALK_LANES]>::try_from(gs) {
            Ok(gs) => walk(
                gs,
                pivots,
                buckets.clone(),
                std::array::from_fn(|k| from(first + lane + k)),
                &mut emit,
            ),
            Err(_) => {
                for (k, &g) in gs.iter().enumerate() {
                    walk(
                        [g],
                        pivots,
                        buckets.clone(),
                        [from(first + lane + k)],
                        |_, r, i| emit(k, r, i),
                    );
                }
            }
        }
    }
}

/// A run of consecutive buckets' boundaries in every group, in one flat,
/// block-major table: `[group block][boundary][BLOCK]`. Bucket `b` of the
/// run takes from every group the segment between its boundary rows `b`
/// and `b + 1` — two contiguous rows per block. Entries are `u32`: a group
/// holds ~√n keys.
#[derive(Default)]
struct Boundaries {
    /// Boundaries per group: buckets in the run, plus one.
    rows: usize,
    table: Vec<u32>,
}

impl Boundaries {
    /// Fill the table with the boundaries of `buckets`: [`walk`] every
    /// sorted group through them from offset `from(g)`, fanning blocks of
    /// [`BLOCK`] groups out over `threads`. The rows are monotone because
    /// the pivots are sorted.
    fn scan<T: Ord + Sync>(
        &mut self,
        groups: &[&[T]],
        pivots: &[T],
        buckets: Range<usize>,
        from: impl Fn(usize) -> usize + Sync,
        threads: usize,
    ) {
        let jobs = self.jobs(groups, buckets.len());
        crate::pool::run_indexed(threads, jobs, |_, job| {
            walk_block(job, pivots, buckets.clone(), &from);
        });
    }

    /// Size the table for a run of `buckets` buckets, reusing its
    /// allocation, and split the scan that fills it into one job per
    /// block of groups (see [`walk_block`]).
    fn jobs<'s, T>(&'s mut self, groups: &'s [&'s [T]], buckets: usize) -> Vec<ScanJob<'s, T>> {
        assert!(
            groups.iter().all(|g| u32::try_from(g.len()).is_ok()),
            "SPMS group too long for a u32 boundary"
        );
        self.rows = buckets + 1;
        self.table.clear();
        self.table
            .resize(groups.len().div_ceil(BLOCK) * self.rows * BLOCK, 0);
        groups
            .chunks(BLOCK)
            .zip(self.table.chunks_mut(self.rows * BLOCK))
            .enumerate()
            .map(|(blk, (gs, slab))| (blk * BLOCK, gs, slab))
            .collect()
    }

    /// Row `r` of group `g`.
    fn get(&self, g: usize, r: usize) -> usize {
        self.table[((g / BLOCK) * self.rows + r) * BLOCK + g % BLOCK] as usize
    }

    /// Each row's sum over the groups: with a run from bucket 0, each
    /// bucket's start offset in the output, with the total appended.
    fn column_sums(&self) -> Vec<usize> {
        let mut sums = vec![0; self.rows];
        for slab in self.table.chunks(self.rows * BLOCK) {
            for (s, row) in sums.iter_mut().zip(slab.chunks(BLOCK)) {
                *s += row.iter().map(|&x| x as usize).sum::<usize>();
            }
        }
        sums
    }

    /// Bucket `b` of the run's segment of every group, in group order,
    /// into `segs`.
    fn bucket_into<'a, T>(&self, groups: &[&'a [T]], b: usize, segs: &mut Vec<&'a [T]>) {
        segs.clear();
        for (gs, slab) in groups
            .chunks(BLOCK)
            .zip(self.table.chunks(self.rows * BLOCK))
        {
            let lo = &slab[b * BLOCK..(b + 1) * BLOCK];
            let hi = &slab[(b + 1) * BLOCK..(b + 2) * BLOCK];
            segs.extend(
                gs.iter()
                    .zip(lo.iter().zip(hi))
                    .map(|(g, (&l, &h))| &g[l as usize..h as usize]),
            );
        }
    }

    /// Merge bucket `b` of the run, whose runs average fewer than
    /// [`SORT_MEAN_RUN`] keys, into `out`, exactly its length, in one walk
    /// over its two boundary rows: copy each non-empty segment into `out`
    /// in group order, one [`Leaf`] each (into `leaves`), and count the
    /// loser tree over the leaves alone ([`leaf_cost`]), so empty segments
    /// cost nothing. Then sort `out`, unless the walk saw one key value;
    /// with `fill`, that key is returned as well. Returns the count and
    /// the key, or `None` when a segment is long enough for the count to
    /// need every run ([`leaf_cost`]), with `out` then unspecified.
    fn merge_tiny<T: SortElem>(
        &self,
        groups: &[&[T]],
        b: usize,
        out: &mut [T],
        fill: bool,
        leaves: &mut Vec<Leaf<T>>,
    ) -> Option<(u64, Option<T>)> {
        leaves.clear();
        let mut at = 0;
        let mut single = true;
        for (blk, (gs, slab)) in groups
            .chunks(BLOCK)
            .zip(self.table.chunks(self.rows * BLOCK))
            .enumerate()
        {
            let lo = &slab[b * BLOCK..(b + 1) * BLOCK];
            let hi = &slab[(b + 1) * BLOCK..(b + 2) * BLOCK];
            // The block's non-empty segments as a bit mask, compared
            // without a branch per group: at the root most are empty.
            let mut mask = u64::MAX >> (BLOCK - gs.len());
            for (i, (l, h)) in lo.iter().zip(hi).enumerate() {
                mask &= !(u64::from(h == l) << i);
            }
            while mask != 0 {
                let i = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let seg = &gs[i][lo[i] as usize..hi[i] as usize];
                let (first, max) = (seg[0], seg[seg.len() - 1]);
                copy_short(seg, &mut out[at..at + seg.len()]);
                at += seg.len();
                single &= (first == out[0]) & (max == out[0]);
                leaves.push(Leaf::new(blk * BLOCK + i, seg.len(), max));
            }
        }
        let cmps = leaf_cost(out, leaves, single)?;
        if !single {
            sort_merged(out);
        }
        Some((
            cmps,
            (fill && single).then(|| out.first().copied()).flatten(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tlmm_model::ScratchpadParams;
    use tlmm_scratchpad::FaultPlan;

    fn tl() -> TwoLevel {
        // B=64, rho=4, M=1MiB, Z=16KiB: near cap = 32Ki u64 elements.
        TwoLevel::new(ScratchpadParams::new(64, 4.0, 1 << 20, 16 << 10).unwrap())
    }

    fn seq_cfg() -> ObliviousConfig {
        ObliviousConfig {
            lanes: 4,
            threads: 1,
            ..Default::default()
        }
    }

    fn random_vec(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen()).collect()
    }

    fn run(v: Vec<u64>, cfg: &ObliviousConfig) -> (Vec<u64>, ObliviousReport) {
        let tl = tl();
        let (out, rep) = spms_sort(&tl, tl.far_from_vec(v), cfg).unwrap();
        (out.into_vec(), rep)
    }

    #[test]
    fn sorts_various_sizes_and_shapes() {
        for n in [0usize, 1, 2, 3, 17, 1024, 1025, 4096, 40_000, 120_000] {
            let v = random_vec(n, n as u64);
            let mut expect = v.clone();
            expect.sort_unstable();
            let (got, _) = run(v, &seq_cfg());
            assert_eq!(got, expect, "n={n}");
        }
        for v in [
            vec![7u64; 10_000],
            (0..10_000u64).collect(),
            (0..10_000u64).rev().collect(),
        ] {
            let mut expect = v.clone();
            expect.sort_unstable();
            let (got, _) = run(v, &seq_cfg());
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn near_resident_input_pays_exactly_one_far_roundtrip() {
        // 20_000 u64 = 160 KB ≤ M/4: the whole sort is one far ingest and
        // one far writeback; every working pass is near traffic.
        let tl = tl();
        let n = 20_000usize;
        let (out, rep) = spms_sort(&tl, tl.far_from_vec(random_vec(n, 9)), &seq_cfg()).unwrap();
        assert!(out.as_slice_uncharged().windows(2).all(|w| w[0] <= w[1]));
        let s = tl.ledger().snapshot();
        assert_eq!(s.far_bytes, 2 * (n as u64) * 8, "ingest + writeback only");
        assert!(s.near_bytes > s.far_bytes, "working passes must be near");
        assert_eq!(rep.resident_subtrees, 1, "root is the resident subtree");
    }

    #[test]
    fn far_input_streams_more_than_a_roundtrip() {
        // 200_000 u64 = 1.6 MB > M/4: the root streams against far memory.
        let tl = tl();
        let n = 200_000usize;
        let (out, rep) = spms_sort(&tl, tl.far_from_vec(random_vec(n, 10)), &seq_cfg()).unwrap();
        assert!(out.as_slice_uncharged().windows(2).all(|w| w[0] <= w[1]));
        let s = tl.ledger().snapshot();
        assert!(
            s.far_bytes > 4 * (n as u64) * 8,
            "root passes + child ingests must exceed two far roundtrips: {}",
            s.far_bytes
        );
        assert!(rep.resident_subtrees > 1);
        assert!(rep.max_depth >= 2);
    }

    #[test]
    fn parallel_and_sequential_charge_identically() {
        use tlmm_workloads::{generate, Workload};
        // Uniform keys take the merge executor's general paths, Zipf keys
        // those and the single-key path, all-equal keys the single-key
        // path only.
        for w in [
            Workload::UniformU64,
            Workload::Zipf(1.1),
            Workload::AllEqual,
        ] {
            let snap = |threads: usize| {
                let tl = tl();
                let cfg = ObliviousConfig {
                    lanes: 4,
                    threads,
                    ..Default::default()
                };
                let input = generate(w, 60_000, 3);
                let (out, _) = spms_sort(&tl, tl.far_from_vec(input), &cfg).unwrap();
                assert!(out.as_slice_uncharged().windows(2).all(|w| w[0] <= w[1]));
                tl.ledger().snapshot()
            };
            assert_eq!(snap(4), snap(1), "{w:?}");
        }
    }

    #[test]
    fn faults_degrade_but_never_discount() {
        let run_seeded = |fault: Option<u64>| {
            let tl = tl();
            if let Some(seed) = fault {
                tl.install_fault_plan(FaultPlan::seeded(seed));
            }
            let (out, rep) =
                spms_sort(&tl, tl.far_from_vec(random_vec(50_000, 4)), &seq_cfg()).unwrap();
            assert!(out.as_slice_uncharged().windows(2).all(|w| w[0] <= w[1]));
            (tl.ledger().snapshot(), rep)
        };
        let (clean, _) = run_seeded(None);
        let (faulted, rep) = run_seeded(Some(11));
        assert!(faulted.far_bytes >= clean.far_bytes);
        assert!(faulted.near_bytes >= clean.near_bytes);
        assert!(rep.restreams > 0, "seed 11 must fire at least one fault");
    }

    #[test]
    fn boundary_table_matches_binary_search_rows() {
        use tlmm_workloads::{generate, Workload};
        // (n, group): 130 groups with a short last one; 64 groups, 65
        // with a 1-key last one, and a single short block.
        let shapes = [(13_000, 101), (4_096, 64), (4_097, 64), (450, 20)];
        for w in [
            Workload::AllEqual,
            Workload::FewDistinct(3),
            Workload::Sawtooth(37),
            Workload::Zipf(1.1),
            Workload::UniformU64,
        ] {
            for (n, group) in shapes {
                let mut data = generate(w, n, n as u64);
                for g in data.chunks_mut(group) {
                    g.sort_unstable();
                }
                let mut sorted = data.clone();
                sorted.sort_unstable();
                let n_groups = n.div_ceil(group);
                let pivots: Vec<u64> = (1..n_groups).map(|j| sorted[j * n / n_groups]).collect();
                let groups: Vec<&[u64]> = data.chunks(group).collect();
                // The rows the binary-search partition produced.
                let rows: Vec<Vec<usize>> = groups
                    .iter()
                    .map(|g| {
                        let mut row = vec![0];
                        row.extend(pivots.iter().map(|p| g.partition_point(|x| x < p)));
                        row.push(g.len());
                        // Sorted pivots make the rows monotone already.
                        assert!(row.windows(2).all(|w| w[0] <= w[1]));
                        row
                    })
                    .collect();
                for threads in [1, 3] {
                    let mut table = Boundaries::default();
                    table.scan(&groups, &pivots, 0..n_groups, |_| 0, threads);
                    for (g, row) in rows.iter().enumerate() {
                        for (j, &b) in row.iter().enumerate() {
                            assert_eq!(table.get(g, j), b, "{w:?} n={n} g={g} j={j}");
                        }
                    }
                    let starts = table.column_sums();
                    let mut at = 0;
                    for b in 0..n_groups {
                        assert_eq!(starts[b], at, "{w:?} n={n} bucket {b} start");
                        let mut segs = Vec::new();
                        table.bucket_into(&groups, b, &mut segs);
                        assert_eq!(segs.len(), n_groups);
                        for (g, seg) in segs.iter().enumerate() {
                            assert_eq!(*seg, &groups[g][rows[g][b]..rows[g][b + 1]]);
                            at += seg.len();
                        }
                    }
                    assert_eq!(starts[n_groups], n);
                    assert_eq!(at, n);
                    // Waves of 1, 2 and 7 buckets, in one reused table:
                    // each continues every group's walk where the last
                    // one stopped, and its column sums are its rows'.
                    for wave in [1, 2, 7] {
                        let mut from = vec![0; n_groups];
                        for first in (0..n_groups).step_by(wave) {
                            let end = (first + wave).min(n_groups);
                            table.scan(&groups, &pivots, first..end, |g| from[g], threads);
                            for (g, row) in rows.iter().enumerate() {
                                for r in 0..=end - first {
                                    assert_eq!(table.get(g, r), row[first + r], "{w:?} n={n}");
                                }
                                from[g] = row[end];
                            }
                            assert_eq!(table.column_sums(), starts[first..=end]);
                        }
                    }
                }
            }
        }
    }

    /// The one-pass tiny-run merge against the general one: on the shapes
    /// above, every bucket of the full table and of waves of 1, 2 and 7
    /// buckets, [`Boundaries::merge_tiny`] writes what
    /// [`Boundaries::bucket_into`] + `merge_into_slice` write and charges
    /// the same count, which is also the reference tree's played count.
    /// (These groups are too short for it to decline a bucket, as it does
    /// one holding a segment long enough to be probed for plateaus.) With
    /// `fill` it names the key of a non-empty bucket of one key value, and
    /// no other.
    #[test]
    fn tiny_bucket_pass_matches_bucket_into_and_merge() {
        use crate::kernels::reference::ReferenceLoserTree;
        use tlmm_workloads::{generate, Workload};
        let shapes: &[(usize, usize)] = if cfg!(miri) {
            &[(4_097, 64), (450, 20)]
        } else {
            &[(13_000, 101), (4_096, 64), (4_097, 64), (450, 20)]
        };
        for w in [
            Workload::AllEqual,
            Workload::FewDistinct(3),
            Workload::Sawtooth(37),
            Workload::Zipf(1.1),
            Workload::UniformU64,
        ] {
            for &(n, group) in shapes {
                let mut data = generate(w, n, n as u64);
                for g in data.chunks_mut(group) {
                    g.sort_unstable();
                }
                let mut sorted = data.clone();
                sorted.sort_unstable();
                let n_groups = n.div_ceil(group);
                let pivots: Vec<u64> = (1..n_groups).map(|j| sorted[j * n / n_groups]).collect();
                let groups: Vec<&[u64]> = data.chunks(group).collect();
                let mut from = vec![0; n_groups];
                for wave in [n_groups, 1, 2, 7] {
                    for first in (0..n_groups).step_by(wave) {
                        let end = (first + wave).min(n_groups);
                        let mut table = Boundaries::default();
                        table.scan(&groups, &pivots, first..end, |g| from[g], 1);
                        for (g, f) in from.iter_mut().enumerate() {
                            *f = table.get(g, end - first);
                        }
                        let sizes = table.column_sums();
                        let (mut segs, mut leaves) = (Vec::new(), Vec::new());
                        for b in 0..end - first {
                            table.bucket_into(&groups, b, &mut segs);
                            let len = sizes[b + 1] - sizes[b];
                            let mut expect = vec![0; len];
                            let cmps = merge_into_slice(&segs, &mut expect);
                            let mut out = vec![0; len];
                            let label = format!("{w:?} n={n} wave {first}..{end} bucket {b}");
                            let Some((got, key)) =
                                table.merge_tiny(&groups, b, &mut out, true, &mut leaves)
                            else {
                                assert!(segs.iter().any(|s| s.len() >= 128), "{label}");
                                continue;
                            };
                            assert_eq!(got, cmps, "{label}");
                            assert_eq!(out, expect, "{label}");
                            // The count shares no code with the tree.
                            let mut tree = ReferenceLoserTree::new(segs.clone());
                            while tree.next_element().is_some() {}
                            assert_eq!(got, tree.comparisons(), "{label}");
                            let one = len > 0 && single_key(&segs);
                            assert_eq!(key, one.then(|| expect[0]), "{label}");
                        }
                    }
                    from.fill(0);
                }
            }
        }
    }

    /// The root writes its output over its input: the sorted keys come
    /// back in the input's own allocation with one wave (300 keys) and
    /// several (4,300 keys, 66 groups, a short last one), and at the
    /// smallest size that recurses. A `u64` bucket of one key is filled
    /// in place; a pair of `u32`s, not a radix key type, stages every
    /// bucket, however long.
    #[test]
    fn in_place_root_sorts_over_its_input() {
        use tlmm_workloads::{generate, Workload};
        fn check<T: SortElem + std::fmt::Debug>(keys: Vec<T>, label: &str) {
            let mut expect = keys.clone();
            expect.sort_unstable();
            for threads in [1, 2] {
                let tl = tl();
                let input = tl.far_from_vec(keys.clone());
                let at = input.as_slice_uncharged().as_ptr();
                let cfg = ObliviousConfig {
                    lanes: 4,
                    threads,
                    base_elems: 16,
                };
                let (out, _) = spms_sort(&tl, input, &cfg).unwrap();
                assert_eq!(out.as_slice_uncharged(), expect.as_slice(), "{label}");
                assert_eq!(out.as_slice_uncharged().as_ptr(), at, "{label}");
            }
        }
        let sizes: &[usize] = if cfg!(miri) {
            &[17, 300, 4_300]
        } else {
            &[17, 300, 4_300, 9_001, 70_000]
        };
        for w in [
            Workload::UniformU64,
            Workload::Zipf(1.1),
            Workload::AllEqual,
            Workload::FewDistinct(3),
        ] {
            for &n in sizes {
                let keys = generate(w, n, n as u64);
                let label = format!("{w:?} n={n}");
                let pairs = keys.iter().map(|&k| ((k >> 32) as u32, k as u32));
                check(pairs.collect::<Vec<(u32, u32)>>(), &label);
                check(keys, &label);
            }
        }
    }

    #[test]
    fn zero_lanes_rejected_at_the_edge() {
        let tl = tl();
        let cfg = ObliviousConfig {
            lanes: 0,
            ..Default::default()
        };
        match spms_sort(&tl, tl.far_from_vec(vec![1u64, 0]), &cfg) {
            Err(SortError::BadConfig { .. }) => {}
            other => panic!("expected BadConfig, got {other:?}"),
        }
    }
}
