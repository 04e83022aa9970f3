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
//! completion step, so one recursion level costs exactly two streaming
//! passes over the data (bucket merges into scratch, charged copy back)
//! plus the lower-order sample traffic.
//!
//! Control flow depends only on `n`. The machine's [`super::Ctx`] decides
//! which memory level each pass is charged against and charges the far
//! ingest/writeback boundary when a subtree becomes scratchpad-resident —
//! see the module docs of [`super`] for the residency rationale.

use super::{ceil_sqrt, Ctx, ObliviousConfig, ObliviousReport};
use crate::extsort::RegionLevel;
use crate::par::{charge_compute_striped, charge_io_striped, charged_copy, CopyKind};
use crate::{ceil_lg, SortElem, SortError};
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
    let mut scratch = vec![T::default(); data.len()];
    let cx = Ctx::new::<T>(tl, cfg);
    sort_rec(&cx, &mut data, &mut scratch, cfg.lanes, true, 1);
    tl.checkpoint()?;
    Ok((tl.far_from_vec(data), cx.report()))
}

/// One SPMS recursion node over `data` (result left in `data`, sorted).
/// `parent_far` is true when the enclosing segment streams against far
/// memory — the node charges the residency boundary if it is the topmost
/// scratchpad-fitting segment on its root path.
fn sort_rec<T: SortElem>(
    cx: &Ctx<'_>,
    data: &mut [T],
    scratch: &mut [T],
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
    scratch: &mut [T],
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
    // children share the lane budget).
    let child_lanes = (lanes / n_groups).max(1);
    let base = current_lane();
    let children: Vec<(&mut [T], &mut [T])> = data
        .chunks_mut(group)
        .zip(scratch.chunks_mut(group))
        .collect();
    crate::pool::run_indexed(cx.threads, children, |i, (d, s)| {
        with_lane(base + (i * child_lanes) % lanes, || {
            sort_rec(cx, d, s, child_lanes, child_far, depth + 1);
        })
    });

    // ---- 2. Deterministic strided sample + pivots --------------------
    // Every ⌈√g⌉-th element of every sorted group: ~n^(3/4) elements in
    // ~√n already-sorted runs. Gathering is strided, so it is charged as
    // random block touches, not a streamed pass.
    let stride = ceil_sqrt(group).max(1);
    let sample_runs: Vec<Vec<T>> = data
        .chunks(group)
        .map(|g| g.iter().step_by(stride).copied().collect())
        .collect();
    let sample_len: usize = sample_runs.iter().map(Vec::len).sum();
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
    let run_refs: Vec<&[T]> = sample_runs.iter().map(Vec::as_slice).collect();
    cx.preflight_stream(level, sample_bytes, lanes);
    charge_io_striped(cx.tl, level, Dir::Read, sample_bytes, lanes);
    let sample_cmps = crate::losertree::merge_into_slice(&run_refs, &mut sample);
    charge_compute_striped(cx.tl, sample_cmps, lanes);
    charge_io_striped(cx.tl, level, Dir::Write, sample_bytes, lanes);
    cx.add_comparisons(sample_cmps);
    // √n−1 evenly spaced pivots carve √n buckets.
    let pivots: Vec<T> = (1..n_groups)
        .map(|j| sample[j * sample_len / n_groups])
        .collect();

    // ---- 3. Partition: merge-scan every group against the pivots -----
    // The boundary table is host metadata (O(√n·√n) = O(n) u32); the
    // search comparisons are charged as compute, by the binary-search
    // formula.
    let groups: Vec<&[T]> = data.chunks(group).collect();
    let (bounds, bucket_starts) = Boundaries::scan(&groups, &pivots, cx.threads);
    let search_cmps = (groups.len() * pivots.len()) as u64 * ceil_lg(group);
    charge_compute_striped(cx.tl, search_cmps, lanes);
    cx.add_comparisons(search_cmps);

    // ---- 4. Bucket merges: one k-way merge per bucket into scratch ----
    // Reading the group segments and writing the merged buckets is one full
    // streaming pass over the node. Buckets round-robin over lanes and go
    // to the pool in tasks of `MERGE_TASK`.
    let mut tasks: Vec<Vec<&mut [T]>> = Vec::with_capacity(n_groups.div_ceil(MERGE_TASK));
    {
        let mut rest: &mut [T] = scratch;
        for (b, w) in bucket_starts.windows(2).enumerate() {
            let (out, tail) = rest.split_at_mut(w[1] - w[0]);
            if b % MERGE_TASK == 0 {
                tasks.push(Vec::with_capacity(MERGE_TASK));
            }
            tasks.last_mut().expect("task pushed above").push(out);
            rest = tail;
        }
    }
    crate::pool::run_indexed(cx.threads, tasks, |t, outs| {
        let mut segs = Vec::with_capacity(groups.len());
        for (i, out) in outs.into_iter().enumerate() {
            let b = t * MERGE_TASK + i;
            with_lane(base + b % lanes, || {
                bounds.bucket_into(&groups, b, &mut segs);
                let bytes = std::mem::size_of_val(out) as u64;
                cx.preflight_stream(level, bytes, 1);
                charge_io_striped(cx.tl, level, Dir::Read, bytes, 1);
                let cmps = crate::losertree::merge_into_slice(&segs, out);
                cx.tl.charge_compute(cmps);
                charge_io_striped(cx.tl, level, Dir::Write, bytes, 1);
                cx.add_comparisons(cmps);
            })
        }
    });
    cx.add_passes(1);

    // ---- 5. Copy the concatenated buckets back: the second pass -------
    let kind = match level {
        RegionLevel::Near => CopyKind::NearToNear,
        RegionLevel::Far => CopyKind::FarToFar,
    };
    cx.preflight_stream(level, std::mem::size_of_val(data) as u64, lanes);
    charged_copy(cx.tl, kind, &scratch[..n], data, lanes, cx.threads);
    cx.add_passes(1);
}

/// Buckets per bucket-merge task. A task lists its buckets' segments in
/// one reused buffer instead of allocating a list per bucket, and the
/// pool's dynamic claiming still spreads skewed buckets: ~200 tasks at
/// the root of a 10M-key sort.
const MERGE_TASK: usize = 16;

/// Groups per block of the boundary table: one partition task's share of
/// the scan, and the width of one table row.
const BLOCK: usize = 64;

/// Every group's bucket boundaries in one flat, block-major table:
/// `[group block][boundary][BLOCK]`. Boundary `j` of group `g` is the
/// number of its keys below pivot `j - 1` (`0` for `j = 0`, `|g|` for the
/// last), so bucket `b` takes `g[boundary b .. boundary b + 1]` from every
/// group — two contiguous rows per block. Entries are `u32`: a group holds
/// ~√n keys.
struct Boundaries {
    /// Boundaries per group: `pivots + 2`.
    rows: usize,
    table: Vec<u32>,
}

impl Boundaries {
    /// Scan every sorted group against the sorted `pivots` with one
    /// merge-scan cursor per group, fanning blocks of [`BLOCK`] groups out
    /// over `threads`. Each boundary equals `partition_point(|x| x < p)`,
    /// and the rows are monotone because the pivots are sorted. Also
    /// returns each bucket's start offset in the concatenated output (the
    /// column sums of the table), with the total appended.
    fn scan<T: Ord + Sync>(groups: &[&[T]], pivots: &[T], threads: usize) -> (Self, Vec<usize>) {
        let rows = pivots.len() + 2;
        assert!(
            groups.iter().all(|g| u32::try_from(g.len()).is_ok()),
            "SPMS group too long for a u32 boundary"
        );
        let mut table = vec![0u32; groups.len().div_ceil(BLOCK) * rows * BLOCK];
        let blocks: Vec<(&[&[T]], &mut [u32])> = groups
            .chunks(BLOCK)
            .zip(table.chunks_mut(rows * BLOCK))
            .collect();
        let col_sums = crate::pool::map_indexed(threads, blocks, |_, (gs, slab)| {
            for (lane, g) in gs.iter().enumerate() {
                let mut i = 0;
                for (j, p) in pivots.iter().enumerate() {
                    while i < g.len() && g[i] < *p {
                        i += 1;
                    }
                    slab[(j + 1) * BLOCK + lane] = i as u32;
                }
                slab[(rows - 1) * BLOCK + lane] = g.len() as u32;
            }
            slab.chunks(BLOCK)
                .map(|row| row.iter().map(|&x| x as usize).sum::<usize>())
                .collect::<Vec<_>>()
        });
        let mut starts = vec![0; rows];
        for sums in &col_sums {
            for (s, x) in starts.iter_mut().zip(sums) {
                *s += x;
            }
        }
        (Self { rows, table }, starts)
    }

    /// Boundary `j` of group `g`.
    #[cfg(test)]
    fn get(&self, g: usize, j: usize) -> usize {
        self.table[((g / BLOCK) * self.rows + j) * BLOCK + g % BLOCK] as usize
    }

    /// Bucket `b`'s segment of every group, in group order, into `segs`.
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
        // Uniform keys merge on the counted tree, Zipf keys on it and on
        // the single-key path, all-equal keys on the single-key path only.
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
                    let (table, starts) = Boundaries::scan(&groups, &pivots, threads);
                    for (g, row) in rows.iter().enumerate() {
                        for (j, &b) in row.iter().enumerate() {
                            assert_eq!(table.get(g, j), b, "{w:?} n={n} g={g} j={j}");
                        }
                    }
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
                }
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
