//! Striped, charged bulk copies between memory levels.
//!
//! Moving a chunk between DRAM and the scratchpad is bandwidth work shared
//! by all cores: each of the `lanes` virtual lanes streams a contiguous
//! stripe. These helpers perform the copy (fanning out over the caller's
//! `threads` host workers via [`crate::pool`]) and charge each stripe to
//! its lane, so the phase trace shows the transfer as parallel — which is
//! how the flow simulator can apply the full channel bandwidth to it.

use crate::extsort::RegionLevel;
use crate::SortElem;
use std::ops::Range;
use tlmm_scratchpad::trace::{current_lane, with_lane};
use tlmm_scratchpad::{Dir, TwoLevel};

/// Charge an IO volume split evenly across lanes — the attribution for
/// cooperative streaming operations whose real execution interleaves lanes
/// finely (bulk transfers, shared merge streams).
///
/// Lane ids are *offset by the ambient lane*: an operation running "on"
/// lane 5 with `lanes = 1` charges lane 5, not lane 0, so nested
/// single-lane work (e.g. one bucket of a parallel recursion) stays on its
/// assigned lane.
///
/// Under an installed deterministic executor the stripes are *issued in a
/// seeded-permutation order* (schedule fuzzing): each stripe keeps its lane
/// (attribution is positional, not temporal), so per-lane trace volumes and
/// the ledger are invariant under the permutation — only the arbitration
/// timeline (slot waits) moves.
pub fn charge_io_striped(tl: &TwoLevel, level: RegionLevel, dir: Dir, bytes: u64, lanes: usize) {
    let base = current_lane();
    let charge_one = |i: usize, r: &Range<usize>| {
        with_lane(base + i, || match level {
            RegionLevel::Near => tl.charge_near_io(dir, r.len() as u64),
            RegionLevel::Far => tl.charge_far_io(dir, r.len() as u64),
        })
    };
    match tl.executor().filter(|e| e.is_deterministic()) {
        Some(ex) => {
            let rs: Vec<Range<usize>> = striped_ranges(bytes as usize, lanes).collect();
            for i in ex.permutation(rs.len()) {
                charge_one(i, &rs[i]);
            }
        }
        None => {
            for (i, r) in striped_ranges(bytes as usize, lanes).enumerate() {
                charge_one(i, &r);
            }
        }
    }
}

/// Charge compute split evenly across lanes (ambient-lane offset like
/// [`charge_io_striped`]). Compute never touches transfer slots, so there
/// is nothing to arbitrate or permute.
pub fn charge_compute_striped(tl: &TwoLevel, ops: u64, lanes: usize) {
    let base = current_lane();
    for (i, r) in striped_ranges(ops as usize, lanes).enumerate() {
        with_lane(base + i, || tl.charge_compute(r.len() as u64));
    }
}

/// Endpoint pair of a charged copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyKind {
    /// DRAM → scratchpad (far read + near write).
    FarToNear,
    /// Scratchpad → DRAM (near read + far write).
    NearToFar,
    /// DRAM → DRAM (far read + far write).
    FarToFar,
    /// Scratchpad → scratchpad (near read + near write).
    NearToNear,
}

/// Split `0..len` into at most `lanes` contiguous near-equal stripes.
///
/// Returns a lazy iterator so per-charge callers ([`charge_io_striped`],
/// [`charge_compute_striped`]) stay allocation-free on the hot path — these
/// run once per transfer in every merge round and used to collect a `Vec`
/// each time. The iterator is `Clone + ExactSizeIterator`, so callers that
/// genuinely need a materialized list (e.g. pool fan-out) can collect it
/// themselves.
pub fn striped_ranges(
    len: usize,
    lanes: usize,
) -> impl ExactSizeIterator<Item = Range<usize>> + Clone {
    let lanes = lanes.max(1);
    // `per` for the empty case is arbitrary; `count` is 0 so nothing yields.
    let per = if len == 0 { 1 } else { len.div_ceil(lanes) };
    let count = len.div_ceil(per);
    (0..count).map(move |i| i * per..((i + 1) * per).min(len))
}

fn charge_stripe<T>(tl: &TwoLevel, kind: CopyKind, elems: usize) {
    let bytes = (elems * std::mem::size_of::<T>()) as u64;
    match kind {
        CopyKind::FarToNear => {
            tl.charge_far_io(Dir::Read, bytes);
            tl.charge_near_io(Dir::Write, bytes);
        }
        CopyKind::NearToFar => {
            tl.charge_near_io(Dir::Read, bytes);
            tl.charge_far_io(Dir::Write, bytes);
        }
        CopyKind::FarToFar => {
            tl.charge_far_io(Dir::Read, bytes);
            tl.charge_far_io(Dir::Write, bytes);
        }
        CopyKind::NearToNear => {
            tl.charge_near_io(Dir::Read, bytes);
            tl.charge_near_io(Dir::Write, bytes);
        }
    }
}

/// Copy `src` into `dst` (equal lengths) in lane stripes, charging both
/// endpoints of `kind`. `threads` bounds the host fan-out (1 = inline).
pub fn charged_copy<T: SortElem>(
    tl: &TwoLevel,
    kind: CopyKind,
    src: &[T],
    dst: &mut [T],
    lanes: usize,
    threads: usize,
) {
    assert_eq!(src.len(), dst.len(), "charged_copy length mismatch");
    charged_scatter(tl, kind, src, [dst], lanes, threads);
}

/// The charges of a [`charged_copy`] of `elems` elements of `T`, with no
/// bytes moved: the same stripes on the same lanes, and under an installed
/// executor the same stage schedule. For a copy whose bytes the host
/// never needs to move, as when SPMS's merges already land in place.
pub(crate) fn charge_copy<T>(tl: &TwoLevel, kind: CopyKind, elems: usize, lanes: usize) {
    let base = current_lane();
    let work = |i: usize, len: usize| with_lane(base + i, || charge_stripe::<T>(tl, kind, len));
    match tl.executor().filter(|_| elems > 0) {
        Some(ex) => {
            let work = &work;
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = striped_ranges(elems, lanes)
                .enumerate()
                .map(|(i, r)| Box::new(move || work(i, r.len())) as Box<dyn FnOnce() + Send>)
                .collect();
            ex.run_tasks(tasks);
        }
        None => {
            for (i, r) in striped_ranges(elems, lanes).enumerate() {
                work(i, r.len());
            }
        }
    }
}

/// [`charged_copy`] into a destination in pieces: the slices of `dst`,
/// laid end to end, take `src` (equal total lengths). The stripes, their
/// lanes and their charges are those of a `charged_copy` of `src`; only
/// where the bytes land differs.
pub(crate) fn charged_scatter<'d, T: SortElem>(
    tl: &TwoLevel,
    kind: CopyKind,
    src: &[T],
    dst: impl IntoIterator<Item = &'d mut [T]>,
    lanes: usize,
    threads: usize,
) {
    let mut pieces = Pieces::new(dst);
    let base = current_lane();
    let work = |(i, (r, runs)): (usize, (Range<usize>, Vec<&mut [T]>))| {
        with_lane(base + i, || {
            Pieces::new(runs).fill(&src[r.clone()]);
            charge_stripe::<T>(tl, kind, r.len());
        })
    };
    let executor = tl.executor().filter(|_| !src.is_empty());
    if executor.is_some() || threads > 1 {
        // Fan-out needs materialized stripes; this path is the
        // thread-spawning one, so a couple of small Vecs are in the noise.
        let items: Vec<(Range<usize>, Vec<&mut [T]>)> = striped_ranges(src.len(), lanes)
            .map(|r| (r.clone(), pieces.take(r.len())))
            .collect();
        if let Some(ex) = executor {
            // An installed executor owns the stage schedule: deterministic
            // mode runs the stripes sequentially in a seeded-permutation
            // order, host mode fans them out to its worker pool (contending
            // for transfer slots either way). Lane attribution stays
            // positional (base + i), so the trace is permutation-invariant.
            let work = &work;
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = items
                .into_iter()
                .enumerate()
                .map(|(i, rd)| Box::new(move || work((i, rd))) as Box<dyn FnOnce() + Send>)
                .collect();
            ex.run_tasks(tasks);
        } else {
            crate::pool::run_indexed(threads, items, |i, rd| work((i, rd)));
        }
    } else {
        // Sequential path: walk the stripe iterator and fill the pieces as
        // we go — no allocation at all.
        for (i, r) in striped_ranges(src.len(), lanes).enumerate() {
            with_lane(base + i, || {
                pieces.fill(&src[r.clone()]);
                charge_stripe::<T>(tl, kind, r.len());
            })
        }
    }
    assert!(
        pieces.is_spent(),
        "charged_scatter: destination longer than source"
    );
}

/// Least elements [`scatter`] gives a worker thread: a shorter copy
/// costs less than starting the thread.
const SCATTER_MIN_STRIPE: usize = 1 << 16;

/// Copy `src` into the slices of `dst` laid end to end (equal total
/// lengths), in contiguous stripes of at least `SCATTER_MIN_STRIPE`
/// elements on up to `threads` worker threads. Host work only: it charges
/// nothing.
pub(crate) fn scatter<'d, T: SortElem>(
    src: &[T],
    dst: impl IntoIterator<Item = &'d mut [T]>,
    threads: usize,
) {
    let mut pieces = Pieces::new(dst);
    let stripes = threads.min(src.len() / SCATTER_MIN_STRIPE).max(1);
    let items: Vec<(Range<usize>, Vec<&mut [T]>)> = striped_ranges(src.len(), stripes)
        .map(|r| (r.clone(), pieces.take(r.len())))
        .collect();
    crate::pool::run_indexed(threads, items, |_, (r, runs)| {
        Pieces::new(runs).fill(&src[r])
    });
    assert!(pieces.is_spent(), "scatter: destination longer than source");
}

/// A destination in pieces, handed out front to back.
pub(crate) struct Pieces<'d, T, I> {
    rest: I,
    cur: &'d mut [T],
}

impl<'d, T: Copy, I: Iterator<Item = &'d mut [T]>> Pieces<'d, T, I> {
    pub(crate) fn new(dst: impl IntoIterator<IntoIter = I>) -> Self {
        Self {
            rest: dst.into_iter(),
            cur: &mut [],
        }
    }

    /// The next run of the destination: at most `max` (≥ 1) elements, all
    /// in one piece.
    fn next_run(&mut self, max: usize) -> &'d mut [T] {
        while self.cur.is_empty() {
            self.cur = self
                .rest
                .next()
                .expect("charged_scatter: destination shorter than source");
        }
        let len = max.min(self.cur.len());
        let (run, tail) = std::mem::take(&mut self.cur).split_at_mut(len);
        self.cur = tail;
        run
    }

    /// Copy `src` into the next `src.len()` elements.
    pub(crate) fn fill(&mut self, mut src: &[T]) {
        while !src.is_empty() {
            let run = self.next_run(src.len());
            let (head, tail) = src.split_at(run.len());
            run.copy_from_slice(head);
            src = tail;
        }
    }

    /// The next `len` elements, as runs.
    fn take(&mut self, mut len: usize) -> Vec<&'d mut [T]> {
        let mut runs = Vec::new();
        while len > 0 {
            let run = self.next_run(len);
            len -= run.len();
            runs.push(run);
        }
        runs
    }

    fn is_spent(&mut self) -> bool {
        self.cur.is_empty() && self.rest.all(|p| p.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlmm_model::ScratchpadParams;

    fn tl() -> TwoLevel {
        TwoLevel::new(ScratchpadParams::new(64, 4.0, 1 << 20, 16 << 10).unwrap())
    }

    #[test]
    fn striped_ranges_cover_exactly() {
        for (len, lanes) in [(0, 4), (1, 4), (10, 3), (100, 7), (4096, 16), (5, 100)] {
            let rs: Vec<_> = striped_ranges(len, lanes).collect();
            assert_eq!(striped_ranges(len, lanes).len(), rs.len());
            assert!(rs.len() <= lanes.max(1));
            let mut cursor = 0;
            for r in &rs {
                assert_eq!(r.start, cursor);
                assert!(!r.is_empty());
                cursor = r.end;
            }
            assert_eq!(cursor, len);
        }
    }

    #[test]
    fn copy_moves_data_and_charges() {
        let tl = tl();
        let src: Vec<u64> = (0..10_000).collect();
        let mut dst = vec![0u64; 10_000];
        charged_copy(&tl, CopyKind::FarToNear, &src, &mut dst, 8, 1);
        assert_eq!(src, dst);
        let s = tl.ledger().snapshot();
        assert_eq!(s.far_bytes, 80_000);
        assert_eq!(s.near_bytes, 80_000);
        // 8 stripes of 10 000 B each, ⌈10000/64⌉ = 157 blocks per stripe.
        assert_eq!(s.far_read_blocks, 8 * 157);
    }

    #[test]
    fn scatter_charges_like_one_copy_wherever_the_bytes_land() {
        let src: Vec<u64> = (0..10_000).collect();
        let copy = {
            let tl = tl();
            charged_copy(&tl, CopyKind::NearToFar, &src, &mut vec![0; 10_000], 8, 1);
            tl.ledger().snapshot()
        };
        for threads in [1, 4] {
            let tl = tl();
            let mut dst = vec![0u64; 10_000];
            // Pieces of uneven length that cut across the 8 stripes.
            let (a, rest) = dst.split_at_mut(1);
            let (b, rest) = rest.split_at_mut(4_000);
            let (c, d) = rest.split_at_mut(0);
            charged_scatter(&tl, CopyKind::NearToFar, &src, [a, b, c, d], 8, threads);
            assert_eq!(dst, src);
            assert_eq!(tl.ledger().snapshot(), copy, "threads {threads}");
        }
    }

    #[test]
    fn charge_only_copy_charges_like_the_copy() {
        use tlmm_scratchpad::ExecConfig;
        let src: Vec<u64> = (0..10_000).collect();
        for executor in [None, Some(ExecConfig::deterministic(4, 1, 7))] {
            let run = |copy: bool| {
                let tl = tl();
                if let Some(cfg) = executor {
                    tl.install_executor(cfg).unwrap();
                }
                tl.begin_phase("copy");
                if copy {
                    let mut dst = vec![0u64; src.len()];
                    charged_copy(&tl, CopyKind::FarToFar, &src, &mut dst, 8, 1);
                } else {
                    charge_copy::<u64>(&tl, CopyKind::FarToFar, src.len(), 8);
                }
                tl.end_phase();
                (tl.ledger().snapshot(), tl.take_trace())
            };
            let ((copied, copy_trace), (charged, charge_trace)) = (run(true), run(false));
            assert_eq!(copied, charged, "{executor:?}");
            assert_eq!(copy_trace.phases[0].lanes, charge_trace.phases[0].lanes);
        }
    }

    #[test]
    fn parallel_copy_matches_sequential_charges() {
        let run = |threads: usize| {
            let tl = tl();
            let src: Vec<u32> = (0..50_000).collect();
            let mut dst = vec![0u32; 50_000];
            charged_copy(&tl, CopyKind::NearToFar, &src, &mut dst, 8, threads);
            assert_eq!(src, dst);
            tl.ledger().snapshot()
        };
        let a = run(4);
        let b = run(1);
        assert_eq!(a, b);
    }

    #[test]
    fn all_copy_kinds_charge_correct_levels() {
        let cases = [
            (CopyKind::FarToNear, true, true),
            (CopyKind::NearToFar, true, true),
            (CopyKind::FarToFar, true, false),
            (CopyKind::NearToNear, false, true),
        ];
        for (kind, far, near) in cases {
            let tl = tl();
            let src = vec![1u8; 1000];
            let mut dst = vec![0u8; 1000];
            charged_copy(&tl, kind, &src, &mut dst, 4, 1);
            let s = tl.ledger().snapshot();
            assert_eq!(s.far_bytes > 0, far, "{kind:?}");
            assert_eq!(s.near_bytes > 0, near, "{kind:?}");
        }
    }

    #[test]
    fn lanes_receive_stripes() {
        let tl = tl();
        tl.begin_phase("copy");
        let src = vec![0u64; 8192];
        let mut dst = vec![0u64; 8192];
        charged_copy(&tl, CopyKind::FarToNear, &src, &mut dst, 8, 4);
        tl.end_phase();
        let t = tl.take_trace();
        assert_eq!(t.phases[0].active_lanes(), 8);
        // Stripes are near-equal.
        let works = &t.phases[0].lanes;
        let max = works.iter().map(|w| w.far_read_bytes).max().unwrap();
        let min = works.iter().map(|w| w.far_read_bytes).min().unwrap();
        assert!(max - min <= 8 * 1024 / 8);
    }
}
