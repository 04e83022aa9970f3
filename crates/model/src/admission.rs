//! Admission-control estimator: predicted near-memory footprint and charged
//! work for a sort job, *before* running it.
//!
//! The service layer (`tlmm-service`) asks two questions when a job
//! arrives: **will it fit** (peak scratchpad residency vs. the near-memory
//! budget left after currently running jobs) and **how long will it run**
//! (charged far+near bytes, the same virtual-time currency the cost ledger
//! books). Both answers come from the closed-form cost mirrors this crate
//! already maintains for the theory plots — [`crate::oblivious::spms_cost`],
//! [`crate::oblivious::squaresort_cost`],
//! [`crate::oblivious::nmsort_aware_cost`] and
//! [`crate::theorems::baseline_sort_cost`] — plus NMsort's scratchpad
//! geometry ([`NmSortGeometry`], which `tlmm-core`'s NMsort sizes its
//! buffers with): the chunk buffers, the resident pivot sample, and the
//! `BucketTot` array.
//!
//! [`shrink_to_fit`] additionally runs NMsort's chunk-shrinking ladder
//! *proactively*: when the clean-geometry footprint exceeds the budget, it
//! halves the chunk (the same degradation the runtime would discover via
//! failed allocations) until the job fits or the ladder is exhausted —
//! trading more Phase-1 chunks for admission instead of an OOM rejection.

use crate::engine::Engine;
use crate::params::ScratchpadParams;

/// Rungs on the proactive chunk-shrinking ladder — matches the runtime
/// `Shrink` backoff budget in `tlmm-scratchpad`.
pub const MAX_PROACTIVE_SHRINKS: u32 = 3;

/// What the estimator predicts for one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionEstimate {
    /// Peak scratchpad (near-memory) residency in bytes the job will hold.
    pub near_peak_bytes: u64,
    /// Predicted charged far+near **bytes** — the virtual-time work units
    /// the service scheduler uses for run-length and deadline arithmetic.
    pub est_units: u64,
    /// The Phase-1 chunk (elements) the estimate assumed; `0` for engines
    /// that do not chunk.
    pub chunk_elems: usize,
    /// Proactive shrink rungs applied by [`shrink_to_fit`] (0 from
    /// [`estimate`]).
    pub shrinks: u32,
}

/// NMsort's scratchpad geometry for one chunk size: the single owner of
/// the rule that both the `tlmm-core` sorter and this estimator use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NmSortGeometry {
    /// Elements per Phase-1 chunk.
    pub chunk: usize,
    /// Phase-1 chunks.
    pub n_chunks: usize,
    /// Chunk-sized staging buffers: 2 blocking (current + sort scratch),
    /// 3 when the DMA pipeline double-buffers a multi-chunk input.
    pub n_bufs: usize,
    /// Pivots sampled (0 for a single-chunk run).
    pub n_pivots: usize,
}

impl NmSortGeometry {
    /// NMsort's default Phase-1 chunk (elements), clamped to `n`: both
    /// modes budget 4/5 of the scratchpad for chunk buffers — the blocking
    /// schedule splits it two ways (40 % each), the DMA pipeline three
    /// ways (the third buffer is the double-buffered next chunk).
    pub fn default_chunk(p: &ScratchpadParams, n: usize, elem_bytes: usize, dma: bool) -> usize {
        let m_elems = p.scratchpad_capacity_elems(elem_bytes);
        let chunk = if dma {
            m_elems * 4 / 15
        } else {
            m_elems * 2 / 5
        };
        chunk.max(2).clamp(1, n.max(1))
    }

    /// The geometry of sorting `n` elements in `chunk`-element chunks.
    /// `n_pivots` overrides the default pivot count
    /// `min(M/4B, chunk/8, 65536)`; either is raised to at least 1.
    pub fn new(
        p: &ScratchpadParams,
        n: usize,
        chunk: usize,
        dma: bool,
        n_pivots: Option<usize>,
    ) -> Self {
        let n_chunks = n.div_ceil(chunk.max(1)).max(1);
        let n_bufs = if dma && n_chunks > 1 { 3 } else { 2 };
        let n_pivots = if n_chunks <= 1 {
            0
        } else {
            n_pivots
                .unwrap_or_else(|| {
                    (p.scratchpad_blocks() as usize / 4)
                        .min(chunk / 8)
                        .min(65_536)
                })
                .max(1)
        };
        Self {
            chunk,
            n_chunks,
            n_bufs,
            n_pivots,
        }
    }

    /// Peak scratchpad bytes: the chunk buffers, the resident pivots, and
    /// the `(pivots+1)`-entry `BucketTot` array of `u64` totals.
    pub fn near_peak_bytes(&self, elem_bytes: usize) -> u64 {
        (self.n_bufs * self.chunk * elem_bytes
            + self.n_pivots * elem_bytes
            + (self.n_pivots + 1) * 8) as u64
    }
}

/// Convert a predicted block split into charged bytes (`far_blocks·B +
/// near_blocks·ρB`), the unit the cost ledger books and the service's
/// virtual clock advances in.
fn units(p: &ScratchpadParams, split: crate::theorems::CostSplit) -> u64 {
    let far = split.far_blocks.max(0.0) * p.block_bytes as f64;
    let near = split.near_blocks.max(0.0) * p.near_block_bytes() as f64;
    (far + near).ceil() as u64
}

/// Predict the near-memory peak and charged work of sorting `n` elements
/// of `elem_bytes` with `engine`. `chunk_elems` overrides NMsort's default
/// chunk (ignored by non-chunking engines).
pub fn estimate(
    p: &ScratchpadParams,
    engine: Engine,
    n: u64,
    elem_bytes: usize,
    chunk_elems: Option<usize>,
) -> AdmissionEstimate {
    let (near_peak_bytes, est_units, chunk) = match engine {
        Engine::NmSort | Engine::NmSortDma => {
            let dma = engine == Engine::NmSortDma;
            let chunk = chunk_elems
                .unwrap_or_else(|| NmSortGeometry::default_chunk(p, n as usize, elem_bytes, dma));
            (
                NmSortGeometry::new(p, n as usize, chunk, dma, None).near_peak_bytes(elem_bytes),
                units(p, crate::oblivious::nmsort_aware_cost(p, n, elem_bytes)),
                chunk,
            )
        }
        // The baseline never touches the scratchpad: far traffic only.
        Engine::Baseline => (
            0,
            units(p, crate::theorems::baseline_sort_cost(p, n, elem_bytes)),
            0,
        ),
        // The oblivious engines stage resident subtrees through the
        // scratchpad; the residency adapter caps any subtree at the
        // resident capacity, so the working set is the doubled input
        // (data + merge scratch) clamped to half the scratchpad.
        Engine::Spms => (
            (2 * n * elem_bytes as u64).min(p.scratchpad_bytes / 2),
            units(p, crate::oblivious::spms_cost(p, n, elem_bytes)),
            0,
        ),
        Engine::SquareSort => (
            (2 * n * elem_bytes as u64).min(p.scratchpad_bytes / 2),
            units(p, crate::oblivious::squaresort_cost(p, n, elem_bytes)),
            0,
        ),
    };
    AdmissionEstimate {
        near_peak_bytes,
        est_units,
        chunk_elems: chunk,
        shrinks: 0,
    }
}

/// [`estimate`], then — if the predicted near peak exceeds
/// `near_budget_bytes` — run NMsort's chunk-shrinking ladder proactively
/// (up to [`MAX_PROACTIVE_SHRINKS`] halvings). Returns `None` when the job
/// cannot fit the budget even fully degraded: the caller queues or sheds
/// it instead of letting the runtime discover the OOM.
pub fn shrink_to_fit(
    p: &ScratchpadParams,
    engine: Engine,
    n: u64,
    elem_bytes: usize,
    chunk_elems: Option<usize>,
    near_budget_bytes: u64,
) -> Option<AdmissionEstimate> {
    let mut est = estimate(p, engine, n, elem_bytes, chunk_elems);
    if est.near_peak_bytes <= near_budget_bytes {
        return Some(est);
    }
    if !engine.uses_chunks() {
        // Non-chunking engines have no ladder to descend.
        return None;
    }
    let mut chunk = est.chunk_elems;
    let dma = engine == Engine::NmSortDma;
    for shrink in 1..=MAX_PROACTIVE_SHRINKS {
        if chunk <= 2 {
            break;
        }
        chunk = (chunk / 2).max(2);
        let peak = NmSortGeometry::new(p, n as usize, chunk, dma, None).near_peak_bytes(elem_bytes);
        if peak <= near_budget_bytes {
            est.near_peak_bytes = peak;
            est.chunk_elems = chunk;
            est.shrinks = shrink;
            return Some(est);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> ScratchpadParams {
        ScratchpadParams::new(64, 4.0, 1 << 20, 64 << 10).unwrap()
    }

    #[test]
    fn baseline_needs_no_near_memory() {
        let e = estimate(&params(), Engine::Baseline, 100_000, 8, None);
        assert_eq!(e.near_peak_bytes, 0);
        assert!(e.est_units > 0);
    }

    #[test]
    fn nmsort_peak_fits_the_scratchpad_it_was_sized_for() {
        let p = params();
        let e = estimate(&p, Engine::NmSort, 1_000_000, 8, None);
        assert!(e.near_peak_bytes > 0);
        assert!(e.near_peak_bytes <= p.scratchpad_bytes);
        assert!(e.chunk_elems > 0);
    }

    #[test]
    fn small_jobs_estimate_smaller_than_large_jobs() {
        let p = params();
        for eng in Engine::ALL {
            let small = estimate(&p, eng, 10_000, 8, None);
            let large = estimate(&p, eng, 1_000_000, 8, None);
            assert!(
                small.est_units < large.est_units,
                "{}: {} !< {}",
                eng.name(),
                small.est_units,
                large.est_units
            );
        }
    }

    #[test]
    fn shrink_ladder_fits_a_halved_budget() {
        let p = params();
        let full = estimate(&p, Engine::NmSort, 1_000_000, 8, None);
        // A budget below the clean peak forces proactive shrinking.
        let budget = full.near_peak_bytes / 2;
        let fitted = shrink_to_fit(&p, Engine::NmSort, 1_000_000, 8, None, budget)
            .expect("one or two halvings must fit");
        assert!(fitted.shrinks >= 1);
        assert!(fitted.near_peak_bytes <= budget);
        assert!(fitted.chunk_elems < full.chunk_elems);
    }

    #[test]
    fn impossible_budgets_are_refused_not_oomed() {
        let p = params();
        assert_eq!(
            shrink_to_fit(&p, Engine::NmSort, 1_000_000, 8, None, 64),
            None
        );
        assert_eq!(
            shrink_to_fit(&p, Engine::Spms, 1_000_000, 8, None, 64),
            None
        );
    }

    #[test]
    fn estimates_are_deterministic() {
        let p = params();
        for eng in Engine::ALL {
            assert_eq!(
                estimate(&p, eng, 123_456, 8, None),
                estimate(&p, eng, 123_456, 8, None)
            );
        }
    }
}
