//! Cache-*oblivious* sorting engines under the shared charging model.
//!
//! The aware engines (NMsort, seqsort, parsort) size their chunks, runs and
//! fanouts from `M` and `Z`. The engines in this module do not: their
//! control flow — recursion shape, pass structure, sample sizes — depends
//! only on `n`. They are the serious scratchpad-oblivious opponents the
//! paper's comparison needs (ROADMAP item 4):
//!
//! * [`spms`] — **SPMS** (Cole–Ramachandran, *Resource Oblivious Sorting on
//!   Multicores*): recursively sort ~√n groups, draw a deterministic strided
//!   sample, partition every group against the sample pivots, and finish
//!   each bucket with one k-way loser-tree merge — sample-sort partitioning
//!   interleaved with merging, no machine parameter anywhere.
//! * [`squaresort`] — **SquareSort** (Koucký–Matějka): recursively sort √n
//!   blocks of √n elements, then combine them with a balanced *binary*
//!   merge tree — the classic `Θ((n/B)·lg(n/M))` cache-oblivious mergesort
//!   cost profile, paid honestly pass by pass.
//!
//! # Where the machine goes when the algorithm is oblivious
//!
//! A cache-oblivious algorithm still *runs on* a machine; the ideal-cache
//! assumption says the memory system transparently keeps a working set
//! resident once it fits. Here that assumption is [`Residency`], which is
//! part of the simulated machine, not the algorithm: a recursion node whose
//! data + ping-pong scratch fit comfortably in the scratchpad is charged at
//! near rates, with one explicit far ingest when its subtree is entered and
//! one far writeback when it is left (exactly the base-case boundary
//! charging `seqsort` performs). Everything larger streams against far
//! memory. The algorithms never read the threshold — they ask "charge this
//! pass for a segment of `n` elements" and the machine answers.
//!
//! Every byte flows through `TwoLevel::charge_far*`/`charge_near*` (via
//! [`crate::par::charge_io_striped`]/[`crate::par::charged_copy`]), so the
//! arbiter's `TransferGrant`s, the fault injector's preflight rolls and the
//! flight recorder instrument these engines with zero new hooks — the
//! existing golden-ledger, schedule-fuzzing and trace-invariant harnesses
//! apply verbatim.

pub mod spms;
pub mod squaresort;

pub use spms::spms_sort;
pub use squaresort::squaresort_sort;

use crate::extsort::RegionLevel;
use crate::par::{charge_io_striped, striped_ranges};
use crate::SortElem;
use std::sync::atomic::{AtomicU64, Ordering};
use tlmm_scratchpad::trace::{current_lane, with_lane};
use tlmm_scratchpad::{Dir, FaultDecision, FaultOp, StagingArena, TwoLevel};

/// Tuning knobs shared by both oblivious engines. None of these encode a
/// memory-hierarchy size: `base_elems` is a constant recursion cutoff (the
/// usual "O(1) base case, engineered constant" of cache-oblivious practice)
/// and the lane/thread knobs only affect attribution and host threading.
#[derive(Debug, Clone)]
pub struct ObliviousConfig {
    /// Virtual lanes to attribute work to (simulated cores). Default 8.
    pub lanes: usize,
    /// Host worker threads across recursion children and bucket merges
    /// (1 = run inline). Charges are identical at every thread count.
    pub threads: usize,
    /// Recursion cutoff in elements: segments at most this long are sorted
    /// with one read pass, an in-cache kernel sort, and one write pass.
    /// A constant — deliberately *not* derived from `M` or `Z`.
    pub base_elems: usize,
}

impl Default for ObliviousConfig {
    fn default() -> Self {
        Self {
            lanes: 8,
            threads: crate::pool::host_threads(),
            base_elems: 1024,
        }
    }
}

/// What an oblivious engine did, for reports and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObliviousReport {
    /// Recursion subtrees that fit the scratchpad and were charged one far
    /// ingest + one far writeback (the residency boundary).
    pub resident_subtrees: u64,
    /// Full streaming passes over segment data (merges, distributes,
    /// copy-backs) — the quantity the crossover figure plots.
    pub streaming_passes: u64,
    /// Comparisons charged as compute.
    pub comparisons: u64,
    /// Fault-induced re-streamed passes (aborted or delayed streams are
    /// charged again in full — degraded runs are never cheaper).
    pub restreams: u64,
    /// Deepest recursion level reached (root = 1).
    pub max_depth: u32,
}

/// Charging context threaded through both recursions: the `TwoLevel` being
/// charged, the machine-side residency threshold, and atomic tallies (the
/// recursions fan children out over [`crate::pool`] when configured).
pub(crate) struct Ctx<'a> {
    pub tl: &'a TwoLevel,
    /// Largest segment (in elements) the machine keeps near-resident —
    /// data plus equal-sized ping-pong scratch within half the scratchpad.
    near_cap_elems: usize,
    /// Transfer ledger: the oblivious engines move every byte
    /// synchronously (ideal-cache streaming has no pending transfers),
    /// so each ingest/writeback is recorded as a sync transfer. The
    /// arena never allocates here — no capacity is reserved.
    arena: StagingArena,
    pub base_elems: usize,
    pub threads: usize,
    resident_subtrees: AtomicU64,
    streaming_passes: AtomicU64,
    comparisons: AtomicU64,
    restreams: AtomicU64,
    max_depth: AtomicU64,
}

impl<'a> Ctx<'a> {
    pub fn new<T>(tl: &'a TwoLevel, cfg: &ObliviousConfig) -> Self {
        let elem = std::mem::size_of::<T>().max(1);
        // Data + scratch both resident within M/2 leaves the other half for
        // the machine's own working state — the same comfortable-fit margin
        // the aware engines use when sizing chunks. The validated form
        // lives on `ScratchpadParams`, shared with admission control.
        let near_cap_elems = tl.params().resident_cap_elems(elem);
        Ctx {
            tl,
            near_cap_elems,
            arena: StagingArena::new(tl),
            base_elems: cfg.base_elems.max(2),
            threads: cfg.threads,
            resident_subtrees: AtomicU64::new(0),
            streaming_passes: AtomicU64::new(0),
            comparisons: AtomicU64::new(0),
            restreams: AtomicU64::new(0),
            max_depth: AtomicU64::new(0),
        }
    }

    /// The machine's residency answer for a segment of `elems` elements.
    /// This is the ideal-cache assumption made explicit; the algorithms
    /// never branch on the threshold itself.
    pub fn level(&self, elems: usize) -> RegionLevel {
        if elems <= self.near_cap_elems {
            RegionLevel::Near
        } else {
            RegionLevel::Far
        }
    }

    pub fn note_depth(&self, depth: u32) {
        self.max_depth.fetch_max(depth as u64, Ordering::Relaxed);
    }

    pub fn add_comparisons(&self, n: u64) {
        self.comparisons.fetch_add(n, Ordering::Relaxed);
    }

    pub fn add_passes(&self, n: u64) {
        self.streaming_passes.fetch_add(n, Ordering::Relaxed);
    }

    /// Fault-gate one streaming pass of `bytes` at `level`. An aborted or
    /// delayed stream wastes its inbound read, which is charged again in
    /// full before the pass proceeds — honest accounting: faults only ever
    /// add traffic.
    pub fn preflight_stream(&self, level: RegionLevel, bytes: u64, lanes: usize) {
        let op = match level {
            RegionLevel::Near => FaultOp::NearStage,
            RegionLevel::Far => FaultOp::FarStage,
        };
        match self.tl.preflight(op) {
            FaultDecision::Proceed => {}
            FaultDecision::Fail(_) | FaultDecision::Delay(_) => {
                charge_io_striped(self.tl, level, Dir::Read, bytes, lanes);
                self.restreams.fetch_add(1, Ordering::Relaxed);
                tlmm_telemetry::counter!("degradation.oblivious_restream").incr();
            }
        }
    }

    /// Charge the far ingest of a newly near-resident subtree: stream the
    /// segment out of DRAM into the scratchpad once, in lane stripes.
    pub fn ingest<T>(&self, elems: usize, lanes: usize) {
        let bytes = (elems * std::mem::size_of::<T>()) as u64;
        match self.tl.preflight(FaultOp::FarToNear) {
            FaultDecision::Proceed => {}
            FaultDecision::Fail(_) | FaultDecision::Delay(_) => {
                charge_io_striped(self.tl, RegionLevel::Far, Dir::Read, bytes, lanes);
                self.restreams.fetch_add(1, Ordering::Relaxed);
                tlmm_telemetry::counter!("degradation.oblivious_restream").incr();
            }
        }
        let base = current_lane();
        for (i, r) in striped_ranges(bytes as usize, lanes).enumerate() {
            with_lane(base + i, || {
                self.tl.charge_far_io(Dir::Read, r.len() as u64);
                self.tl.charge_near_io(Dir::Write, r.len() as u64);
            });
        }
        self.arena.note_sync_transfer();
        self.resident_subtrees.fetch_add(1, Ordering::Relaxed);
    }

    /// Charge the far writeback when a near-resident subtree is left.
    pub fn writeback<T>(&self, elems: usize, lanes: usize) {
        let bytes = (elems * std::mem::size_of::<T>()) as u64;
        match self.tl.preflight(FaultOp::NearToFar) {
            FaultDecision::Proceed => {}
            FaultDecision::Fail(_) | FaultDecision::Delay(_) => {
                charge_io_striped(self.tl, RegionLevel::Near, Dir::Read, bytes, lanes);
                self.restreams.fetch_add(1, Ordering::Relaxed);
                tlmm_telemetry::counter!("degradation.oblivious_restream").incr();
            }
        }
        let base = current_lane();
        for (i, r) in striped_ranges(bytes as usize, lanes).enumerate() {
            with_lane(base + i, || {
                self.tl.charge_near_io(Dir::Read, r.len() as u64);
                self.tl.charge_far_io(Dir::Write, r.len() as u64);
            });
        }
        self.arena.note_sync_transfer();
    }

    /// Sort a base-case segment: one fault-gated read pass, the in-cache
    /// kernel sort, one write pass, `n·⌈lg n⌉` compute.
    pub fn base_case<T: SortElem>(&self, data: &mut [T], level: RegionLevel, lanes: usize) {
        let bytes = std::mem::size_of_val(data) as u64;
        self.preflight_stream(level, bytes, lanes);
        charge_io_striped(self.tl, level, Dir::Read, bytes, lanes);
        crate::kernels::sort_kernel(data);
        let cmps = data.len() as u64 * crate::ceil_lg(data.len());
        crate::par::charge_compute_striped(self.tl, cmps, lanes);
        charge_io_striped(self.tl, level, Dir::Write, bytes, lanes);
        self.add_comparisons(cmps);
        self.add_passes(1);
    }

    pub fn report(&self) -> ObliviousReport {
        ObliviousReport {
            resident_subtrees: self.resident_subtrees.load(Ordering::Relaxed),
            streaming_passes: self.streaming_passes.load(Ordering::Relaxed),
            comparisons: self.comparisons.load(Ordering::Relaxed),
            restreams: self.restreams.load(Ordering::Relaxed),
            max_depth: self.max_depth.load(Ordering::Relaxed) as u32,
        }
    }
}

/// Integer `⌈√n⌉` — the recursion splitter both engines share. Exact for
/// all `usize` values (no float rounding at 2⁵³).
pub(crate) fn ceil_sqrt(n: usize) -> usize {
    if n <= 1 {
        return n;
    }
    let mut x = (n as f64).sqrt() as usize;
    // Float sqrt can land one off in either direction near perfect squares.
    while x.saturating_mul(x) >= n {
        x -= 1;
    }
    while x.saturating_mul(x) < n {
        x += 1;
    }
    x
}

/// Validate the shared config at the API edge (matching
/// `ParSortConfig::lanes == 0` handling).
pub(crate) fn validate(cfg: &ObliviousConfig) -> Result<(), crate::SortError> {
    if cfg.lanes == 0 {
        return Err(crate::SortError::BadConfig {
            reason: "ObliviousConfig::lanes must be at least 1",
        });
    }
    crate::pool::validate_threads(cfg.threads)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_sqrt_exact() {
        for n in 0usize..2000 {
            let s = ceil_sqrt(n);
            if n > 0 {
                assert!(s * s >= n, "n={n} s={s}");
                assert!((s - 1) * (s - 1) < n || s <= 1, "n={n} s={s}");
            }
        }
        assert_eq!(ceil_sqrt(1 << 40), 1 << 20);
        assert_eq!(ceil_sqrt((1 << 40) + 1), (1 << 20) + 1);
    }
}
