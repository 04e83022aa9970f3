//! Scratchpad-aware multithreaded sorting primitives.
//!
//! This crate is the paper's primary contribution in library form:
//!
//! * [`mod@nmsort`] — **NMsort** (§IV-D), the practical two-phase near-memory
//!   sort: Phase 1 sorts `Θ(M)`-sized chunks inside the scratchpad and
//!   records bucket *metadata* (`BucketPos`, `BucketTot`) instead of eagerly
//!   scattering buckets; Phase 2 streams batches of whole buckets back
//!   through the scratchpad and multiway-merges the sorted chunk segments.
//! * [`seqsort`] — the theoretically optimal sequential scratchpad sample
//!   sort of §III (randomized bucketizing scans, Theorem 6).
//! * [`baseline`] — a GNU-parallel-class multiway mergesort that only uses
//!   far memory: the paper's comparison point ("GNU sort" in Table I).
//! * [`extsort`] — the external multiway mergesort engine both sorts build
//!   on (run formation + multiway merge passes charged the loser tree's
//!   comparisons, with exact transfer accounting), usable against either
//!   memory level.
//! * [`oblivious`] — the cache-*oblivious* opponents: SPMS
//!   (Cole–Ramachandran sample–partition–merge) and SquareSort
//!   (Koucký–Matějka √n-block recursion), whose control flow never reads a
//!   machine parameter; the residency adapter charges their passes to the
//!   correct level.
//! * [`losertree`] — k-way merging: every merge's charge, the loser tree's
//!   comparison count computed from the runs ([`losertree::merge_cost`]),
//!   and the uncounted host merge that executes it.
//! * [`kernels`] — the host wall-clock kernel layer: MSD hybrid radix run
//!   formation for [`kernels::RadixKey`] types, SIMD kernels, and the
//!   reference implementations the tests and benches use as oracles.
//! * [`sample`] — random pivot sampling (§III-A).
//! * [`bucketize`] — bucket-boundary extraction in sorted chunks (the
//!   multithreaded `BucketPos` computation of §IV-D).
//!
//! All algorithms run on a [`tlmm_scratchpad::TwoLevel`] memory and charge
//! every transfer to its ledger and phase trace; the `tlmm-memsim` crate
//! turns those traces into simulated wall-clock time on a configurable
//! machine.
//!
//! # Quickstart
//!
//! ```
//! use tlmm_model::ScratchpadParams;
//! use tlmm_scratchpad::TwoLevel;
//! use tlmm_core::nmsort::{nmsort, NmSortConfig};
//!
//! let params = ScratchpadParams::new(64, 4.0, 1 << 22, 1 << 16).unwrap();
//! let tl = TwoLevel::new(params);
//! let input = tl.far_from_vec((0u64..100_000).rev().collect::<Vec<_>>());
//! let cfg = NmSortConfig::default();
//! let report = nmsort(&tl, input, &cfg).unwrap();
//! assert!(report.output.as_slice_uncharged().windows(2).all(|w| w[0] <= w[1]));
//! ```

pub mod baseline;
pub mod bucketize;
pub mod extsort;
mod inplace;
pub mod kernels;
pub mod losertree;
pub mod nmsort;
pub mod oblivious;
pub mod par;
pub mod parsort;
pub mod pmerge;
pub mod pool;
pub mod quicksort;
pub mod sample;
pub mod select;
pub mod seqsort;

pub use baseline::{baseline_sort, BaselineConfig};
pub use kernels::{radix_sort, sort_kernel, RadixKey};
pub use nmsort::{nmsort, ChunkSorter, DegradationStats, NmSortConfig, NmSortReport};
pub use oblivious::{spms_sort, squaresort_sort, ObliviousConfig, ObliviousReport};
pub use parsort::{par_scratchpad_sort, ParSortConfig};
pub use select::{select_kth, SelectConfig};
pub use seqsort::{seq_scratchpad_sort, SeqSortConfig};

/// Bound required of sortable elements throughout the crate.
pub trait SortElem: Copy + Ord + Send + Sync + Default + 'static {}
impl<T: Copy + Ord + Send + Sync + Default + 'static> SortElem for T {}

/// Errors surfaced by the sorting algorithms.
#[derive(Debug)]
pub enum SortError {
    /// The scratchpad runtime rejected an allocation or transfer.
    Memory(tlmm_scratchpad::SpError),
    /// The scratchpad is too small to host even one working chunk plus
    /// bookkeeping for this input (need `M` comfortably above `Z`).
    ScratchpadTooSmall {
        /// Bytes the algorithm needed at minimum.
        needed: u64,
        /// Scratchpad bytes available.
        available: u64,
    },
    /// A caller-supplied configuration value is invalid (e.g.
    /// `ParSortConfig::lanes == 0`). Rejected at the API edge rather than
    /// silently clamped, so misconfigurations fail loudly.
    BadConfig {
        /// What was wrong with the configuration.
        reason: &'static str,
    },
    /// The job's [`tlmm_scratchpad::CancelToken`] tripped at a phase
    /// boundary (explicit cancellation or a charged-unit deadline). All
    /// work charged before the boundary stays charged; scratchpad buffers
    /// are released on unwind, leaving the arena reusable.
    Canceled,
}

impl SortError {
    /// Was this run stopped by cooperative cancellation (vs failing)?
    pub fn is_canceled(&self) -> bool {
        matches!(self, SortError::Canceled)
    }
}

impl From<tlmm_scratchpad::SpError> for SortError {
    fn from(e: tlmm_scratchpad::SpError) -> Self {
        match e {
            tlmm_scratchpad::SpError::Cancelled => SortError::Canceled,
            e => SortError::Memory(e),
        }
    }
}

impl core::fmt::Display for SortError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SortError::Memory(e) => write!(f, "memory error: {e}"),
            SortError::ScratchpadTooSmall { needed, available } => write!(
                f,
                "scratchpad too small: need {needed} B, have {available} B"
            ),
            SortError::BadConfig { reason } => write!(f, "bad configuration: {reason}"),
            SortError::Canceled => f.write_str("job canceled at a phase boundary"),
        }
    }
}

impl std::error::Error for SortError {}

/// `⌈lg₂ n⌉` as a `u64`, with `lg(0) = lg(1) = 1` so compute charges are
/// never zero for nonempty work.
#[inline]
pub(crate) fn ceil_lg(n: usize) -> u64 {
    (usize::BITS - n.max(2).saturating_sub(1).leading_zeros()) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_lg_values() {
        assert_eq!(ceil_lg(0), 1);
        assert_eq!(ceil_lg(1), 1);
        assert_eq!(ceil_lg(2), 1);
        assert_eq!(ceil_lg(3), 2);
        assert_eq!(ceil_lg(4), 2);
        assert_eq!(ceil_lg(5), 3);
        assert_eq!(ceil_lg(1024), 10);
        assert_eq!(ceil_lg(1025), 11);
    }
}
