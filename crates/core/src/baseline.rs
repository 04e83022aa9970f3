//! The single-level baseline: GNU-parallel-class multiway mergesort.
//!
//! Table I compares NMsort against "the GNU parallel C++ library's multi-way
//! merge sort (originally from the MCSTL)", running entirely out of
//! conventional DRAM. This module is that comparator: `p` simulated threads
//! each sort a contiguous run with an introsort, then the sorted runs are
//! multiway-merged (single pass when the cache can hold one input buffer per
//! run, as on the Fig. 4 machine).
//!
//! Cost accounting models what the SST simulation measures: an introsort's
//! partitioning passes stream the run through DRAM once per level *above*
//! the point where the subproblem fits the per-thread cache share, plus one
//! final in-cache pass; the merge streams everything once more per round,
//! as the out-of-place MCSTL merge does. The scratchpad is never touched —
//! "GNU Sort" has zero scratchpad accesses in Table I by construction.
//!
//! The host does not copy that layout: each round's groups are merged over
//! the runs they consume ([`crate::inplace`]), so the sort returns its
//! input's own allocation and holds no second `n`-element array. The
//! charges are those of the out-of-place rounds ([`Round::charge`]); the
//! wave copies and the final block permutation are uncharged host work.

use crate::extsort::{RegionLevel, Round};
use crate::inplace::InPlaceOutput;
use crate::kernels::radix_kernel;
use crate::losertree::{merge_runs, single_key};
use crate::par::scatter;
use crate::pmerge::{merge_count, piece_cuts, PIECE_KEYS};
use crate::{ceil_lg, SortElem, SortError};
use tlmm_scratchpad::trace::with_lane;
use tlmm_scratchpad::{Dir, FarArray, TwoLevel};

/// Tuning knobs for [`baseline_sort`].
#[derive(Debug, Clone)]
pub struct BaselineConfig {
    /// Simulated threads `p` (= number of initial runs). The paper's machine
    /// has 256.
    pub sim_lanes: usize,
    /// Host worker threads sorting runs and merging groups (1 = inline).
    pub threads: usize,
    /// Per-thread effective cache share in bytes. Default: `Z / sim_lanes`.
    pub cache_per_lane_bytes: Option<u64>,
    /// Merge fan-in. Default: one `B`-sized input buffer per half cache,
    /// clamped to the run count (single-pass merge on big caches, like the
    /// MCSTL merge).
    pub fanout: Option<usize>,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        Self {
            sim_lanes: 8,
            threads: crate::pool::host_threads(),
            cache_per_lane_bytes: None,
            fanout: None,
        }
    }
}

/// Result of a [`baseline_sort`] run.
#[derive(Debug)]
pub struct BaselineReport<T> {
    /// Sorted output: the input's own far array.
    pub output: FarArray<T>,
    /// Initial sorted runs (= simulated threads).
    pub runs: usize,
    /// Introsort partitioning passes charged per run (levels above cache).
    pub partition_passes: u32,
    /// Multiway merge rounds.
    pub merge_rounds: u32,
}

/// Sort `input` with the DRAM-only parallel multiway mergesort.
pub fn baseline_sort<T: SortElem>(
    tl: &TwoLevel,
    input: FarArray<T>,
    cfg: &BaselineConfig,
) -> Result<BaselineReport<T>, SortError> {
    let n = input.len();
    let p = cfg.sim_lanes.max(1);
    crate::pool::validate_threads(cfg.threads)?;
    let elem = std::mem::size_of::<T>() as u64;
    let mut data = input;
    if n <= 1 {
        return Ok(BaselineReport {
            output: data,
            runs: n,
            partition_passes: 0,
            merge_rounds: 0,
        });
    }
    let _run_span = tlmm_telemetry::span!("baseline_sort");
    let run_elems = n.div_ceil(p);
    let zc_bytes = cfg
        .cache_per_lane_bytes
        .unwrap_or_else(|| (tl.params().cache_bytes / p as u64).max(1));
    let zc_elems = (zc_bytes / elem.max(1)).max(1) as usize;
    // Introsort levels whose subproblems exceed the thread's cache share:
    // each streams the whole run through DRAM once (read + write), plus one
    // final pass for the in-cache base sorts.
    let depth_above = if run_elems > zc_elems {
        ceil_lg(run_elems.div_ceil(zc_elems)) as u32
    } else {
        0
    };
    let passes = depth_above + 1;

    // ---- Run sorting ----------------------------------------------------
    // Phase boundary: cooperative cancellation / deadline check.
    tl.checkpoint()?;
    tl.begin_phase("baseline.run_sort");
    let sort_run = |(r, run): (usize, &mut [T])| {
        with_lane(r % p, || {
            let bytes = run.len() as u64 * elem;
            for _ in 0..passes {
                tl.charge_far_io(Dir::Read, bytes);
                tl.charge_far_io(Dir::Write, bytes);
            }
            crate::kernels::sort_kernel(run);
            tl.charge_compute(run.len() as u64 * ceil_lg(run.len()));
        })
    };
    if cfg.threads > 1 {
        let runs: Vec<&mut [T]> = data
            .as_mut_slice_uncharged()
            .chunks_mut(run_elems)
            .collect();
        crate::pool::run_indexed(cfg.threads, runs, |r, run| sort_run((r, run)));
    } else {
        data.as_mut_slice_uncharged()
            .chunks_mut(run_elems)
            .enumerate()
            .for_each(sort_run);
    }
    let n_runs = n.div_ceil(run_elems);

    // ---- Multiway merge ---------------------------------------------------
    tl.checkpoint()?;
    tl.begin_phase("baseline.merge");
    let fanout = cfg.fanout.unwrap_or_else(|| {
        ((tl.params().cache_bytes / (2 * tl.params().block_bytes)) as usize).clamp(2, 4096)
    });
    let mut bounds: Vec<usize> = (0..=n_runs).map(|i| (i * run_elems).min(n)).collect();
    let far = data.as_mut_slice_uncharged();
    let mut rounds = 0u32;
    while bounds.len() > 2 {
        let round = Round::plan(bounds.len() - 1, fanout, p);
        // Several groups fan out on the pool, each merged on its thread;
        // one group (the usual single round) merges its waves on the pool.
        let mut rest = &mut *far;
        let groups: Vec<(&mut [T], usize)> = round
            .groups
            .iter()
            .map(|&(lo, hi)| {
                let len = bounds[hi] - bounds[lo];
                let (group, tail) = std::mem::take(&mut rest).split_at_mut(len);
                rest = tail;
                (group, bounds[lo + 1] - bounds[lo])
            })
            .collect();
        let cmps = crate::pool::map_indexed(cfg.threads, groups, |_, (group, run)| {
            merge_in_place(group, run, round.ways, cfg.threads)
        });
        for (g, (&(lo, hi), cmps)) in round.groups.iter().zip(cmps).enumerate() {
            round.charge::<T>(tl, RegionLevel::Far, g, bounds[hi] - bounds[lo], cmps);
        }
        bounds = round.merged_bounds(&bounds);
        rounds += 1;
    }
    tl.end_phase();

    Ok(BaselineReport {
        output: data,
        runs: n_runs,
        partition_passes: passes,
        merge_rounds: rounds,
    })
}

/// Pieces a wave merges at most: a wave buffer of 16 pieces of 32Ki keys
/// is 4 MiB of `u64`.
const WAVE_PIECES: usize = 16;
/// Least pieces a group is cut into, so that on a short group a wave is
/// at most a sixteenth of it ...
const MIN_PIECES: usize = 256;
/// ... but no piece is cut shorter than this: a group of fewer than 16
/// such pieces is one wave.
const MIN_PIECE_KEYS: usize = 1 << 10;
/// Output slots per run ([`InPlaceOutput::new`]), NMsort's: the overflow
/// area stays under `2·runs − 1` slots, ~1/32 of the group.
const SLOTS_PER_RUN: usize = 64;

/// Merge `group`, sorted runs of `run` elements laid end to end (the last
/// may be shorter), over itself. Returns the comparisons charged, the
/// loser tree's count summed over the sampled charge split at `ways`
/// parts ([`merge_count`]), the count an out-of-place `parallel_merge`
/// of the runs returns.
///
/// The host merges in *waves*: the runs are cut into balanced pieces
/// ([`piece_cuts`]), consecutive pieces form a wave of at most
/// `WAVE_PIECES` pieces' worth of elements, a wave's pieces merge on the
/// pool into one reused buffer, and then the wave's segment of every run
/// is dead and the buffer is copied over dead slots
/// ([`InPlaceOutput`]). The last wave moves every block home. A piece of
/// one [`crate::kernels::RadixKey`] key longer than a wave is written with
/// [`InPlaceOutput::fill`] instead of staged, so an input's heaviest key
/// never sizes the buffer.
fn merge_in_place<T: SortElem>(group: &mut [T], run: usize, ways: usize, threads: usize) -> u64 {
    let m = group.len();
    let n_runs = m.div_ceil(run);
    let (cmps, cuts, piece) = {
        let runs: Vec<&[T]> = group.chunks(run).collect();
        let cmps = merge_count(&runs, ways, threads);
        if n_runs == 1 {
            return cmps;
        }
        let piece = PIECE_KEYS.min(m.div_ceil(MIN_PIECES)).max(MIN_PIECE_KEYS);
        let cuts = piece_cuts(&runs, m.div_ceil(piece), threads);
        (cmps, cuts, piece)
    };
    let radix = radix_kernel::<T>().is_some();
    let wave_keys = WAVE_PIECES * piece;
    // Where piece `t` starts in run `k` (`t` = the piece count: the run's
    // end), as an offset into the group.
    let start = |k: usize, t: usize| k * run + t.checked_sub(1).map_or(0, |t| cuts[k][t]);
    let n_pieces = cuts[0].len();
    let sizes: Vec<usize> = (0..n_pieces)
        .map(|t| (0..n_runs).map(|k| start(k, t + 1) - start(k, t)).sum())
        .collect();
    let mut out = InPlaceOutput::new(m, run, SLOTS_PER_RUN);
    let mut buf = Vec::new();
    let mut first = 0;
    while first < n_pieces {
        let mut end = first + 1;
        let mut keys = sizes[first];
        while end < n_pieces && keys + sizes[end] <= wave_keys {
            keys += sizes[end];
            end += 1;
        }
        let subs = |t: usize| -> Vec<&[T]> {
            (0..n_runs)
                .map(|k| &group[start(k, t)..start(k, t + 1)])
                .collect()
        };
        // A piece longer than a wave is a wave alone; one of a single key
        // is filled, not staged.
        let key = if radix && keys > wave_keys {
            let subs = subs(first);
            let key = subs.iter().find_map(|s| s.first().copied());
            key.filter(|_| single_key(&subs))
        } else {
            None
        };
        let segs: Vec<(usize, usize)> = (0..n_runs)
            .map(|k| (start(k, first), start(k, end)))
            .collect();
        if let Some(key) = key {
            out.consume(&segs);
            out.fill(group, keys, key);
        } else {
            if buf.len() < keys {
                // Exactly sized, and the old one freed first: nothing in
                // it survives a wave.
                buf = Vec::new();
                buf.resize(keys, T::default());
            }
            let mut rest = &mut buf[..keys];
            let items: Vec<(Vec<&[T]>, &mut [T])> = (first..end)
                .map(|t| {
                    let (dst, tail) = std::mem::take(&mut rest).split_at_mut(sizes[t]);
                    rest = tail;
                    (subs(t), dst)
                })
                .collect();
            crate::pool::run_indexed(threads, items, |i, (subs, dst)| {
                with_lane(i % ways.max(1), || merge_runs(&subs, dst))
            });
            out.consume(&segs);
            scatter(&buf[..keys], out.dests(group, keys), threads);
        }
        first = end;
    }
    out.finish(group);
    cmps
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tlmm_model::ScratchpadParams;

    fn tl() -> TwoLevel {
        TwoLevel::new(ScratchpadParams::new(64, 4.0, 1 << 20, 16 << 10).unwrap())
    }

    fn random_vec(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen()).collect()
    }

    #[test]
    fn sorts_correctly() {
        let tl = tl();
        for n in [0usize, 1, 2, 100, 10_000, 200_000] {
            let v = random_vec(n, n as u64);
            let mut expect = v.clone();
            expect.sort_unstable();
            let r = baseline_sort(&tl, tl.far_from_vec(v), &BaselineConfig::default()).unwrap();
            assert_eq!(r.output.as_slice_uncharged(), expect.as_slice(), "n={n}");
        }
    }

    #[test]
    fn never_touches_scratchpad() {
        let tl = tl();
        baseline_sort(
            &tl,
            tl.far_from_vec(random_vec(100_000, 3)),
            &BaselineConfig::default(),
        )
        .unwrap();
        let s = tl.ledger().snapshot();
        assert_eq!(s.near_blocks(), 0, "GNU sort has zero scratchpad accesses");
        assert_eq!(s.near_bytes, 0);
        assert!(s.far_bytes > 0);
    }

    #[test]
    fn far_traffic_exceeds_nmsorts_four_passes() {
        // On a machine where runs exceed the per-lane cache, the baseline
        // streams the data more times than NMsort's ~4 far passes.
        let tl = tl();
        let n = 200_000usize;
        baseline_sort(
            &tl,
            tl.far_from_vec(random_vec(n, 4)),
            &BaselineConfig {
                sim_lanes: 8,
                ..Default::default()
            },
        )
        .unwrap();
        let s = tl.ledger().snapshot();
        let data_bytes = (n * 8) as u64;
        assert!(
            s.far_bytes > 4 * data_bytes,
            "far bytes {} vs 4 passes {}",
            s.far_bytes,
            4 * data_bytes
        );
    }

    #[test]
    fn single_merge_round_when_cache_allows() {
        let tl = tl();
        let r = baseline_sort(
            &tl,
            tl.far_from_vec(random_vec(50_000, 5)),
            &BaselineConfig {
                sim_lanes: 8,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(r.runs, 8);
        assert_eq!(r.merge_rounds, 1, "Fig.4-class caches merge in one pass");
    }

    #[test]
    fn multi_round_merge_with_small_fanout() {
        let tl = tl();
        let v = random_vec(10_000, 6);
        let mut expect = v.clone();
        expect.sort_unstable();
        let r = baseline_sort(
            &tl,
            tl.far_from_vec(v),
            &BaselineConfig {
                sim_lanes: 16,
                fanout: Some(2),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(r.merge_rounds, 4); // 16 -> 8 -> 4 -> 2 -> 1
        assert_eq!(r.output.as_slice_uncharged(), expect.as_slice());
    }

    #[test]
    fn partition_passes_grow_when_cache_shrinks() {
        let tl = tl();
        let mk = |cache: u64| {
            let r = baseline_sort(
                &tl,
                tl.far_from_vec(random_vec(100_000, 7)),
                &BaselineConfig {
                    sim_lanes: 4,
                    cache_per_lane_bytes: Some(cache),
                    ..Default::default()
                },
            )
            .unwrap();
            r.partition_passes
        };
        let big = mk(10 << 20);
        let small = mk(16 << 10);
        assert_eq!(big, 1, "run fits cache: single pass");
        assert!(small > big, "small={small} big={big}");
    }

    #[test]
    fn equal_keys_and_presorted() {
        let tl = tl();
        for v in [vec![5u64; 50_000], (0..50_000u64).collect::<Vec<_>>()] {
            let mut expect = v.clone();
            expect.sort_unstable();
            let r = baseline_sort(&tl, tl.far_from_vec(v), &BaselineConfig::default()).unwrap();
            assert_eq!(r.output.as_slice_uncharged(), expect.as_slice());
        }
    }
}
