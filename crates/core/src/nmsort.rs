//! NMsort: the practical two-phase near-memory parallel sort (§IV-D).
//!
//! **Phase 1.** Stream `Θ(M)`-sized chunks of the input into the scratchpad;
//! sort each chunk there with a parallel external mergesort; write the
//! sorted chunk back to DRAM, over the chunk's own range of the input
//! (host memory only; the charges are those of a separate array); and
//! extract *bucket metadata* — per chunk, the `BucketPos` array (first
//! index of every bucket in the sorted chunk), and globally the `BucketTot`
//! array (aggregate bucket sizes), which stays resident in the scratchpad
//! for the whole run. Recording metadata instead of eagerly scattering
//! bucket elements avoids the many small DRAM transfers that made the
//! naive algorithm unable to exploit the scratchpad.
//!
//! **Phase 2.** Greedily take maximal runs of consecutive buckets whose
//! total size fits the scratchpad ("we batched thousands of buckets into one
//! transfer"); gather the corresponding segment of every sorted chunk into
//! the scratchpad; multiway-merge the segments (they are sorted); and stream
//! the merged batch to its final position in DRAM.
//!
//! Inputs with heavy duplication can produce single buckets larger than the
//! scratchpad; those are split by sampled sub-splitters and, in the limit
//! (too few distinct keys to split), merged directly from DRAM — correct for
//! arbitrary inputs, merely less scratchpad-accelerated, and counted
//! honestly either way.

use crate::bucketize::{accumulate_totals, bucket_positions, BucketPositions};
use crate::extsort::{external_sort, ExtSortConfig, RegionLevel};
use crate::par::{charge_compute_striped, charge_io_striped, charged_copy, CopyKind};
use crate::pmerge::parallel_merge;
use crate::quicksort::external_quicksort;
use crate::sample::{draw_pivots, PivotSample};
use crate::{SortElem, SortError};
use serde::{Deserialize, Serialize};
use tlmm_model::{CostSnapshot, NmSortGeometry};
use tlmm_scratchpad::trace::with_lane;
use tlmm_scratchpad::{
    with_faults_suppressed, ArenaBuf, Backoff, Dir, FarArray, FaultDecision, FaultOp, NearArray,
    RetryClass, StagingArena, TwoLevel,
};

/// Which algorithm sorts each chunk inside the scratchpad (§III-A: "Other
/// sorting algorithms could be used, such as quicksort").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChunkSorter {
    /// Multiway mergesort with fanout `Z/ρB` (Corollary 3; the paper's
    /// choice — "practically competitive" at hardware-realistic ρ).
    #[default]
    MultiwayMerge,
    /// External quicksort (Corollary 7; optimal only when ρ = Ω(lg M/Z)).
    Quicksort,
}

/// Tuning knobs for [`nmsort`].
#[derive(Debug, Clone)]
pub struct NmSortConfig {
    /// Virtual lanes (simulated cores) to attribute work to. The paper's
    /// Fig. 4 machine has 256.
    pub sim_lanes: usize,
    /// Elements per Phase-1 chunk. Default: 40 % of the scratchpad, leaving
    /// an equal-sized merge buffer plus bookkeeping space.
    pub chunk_elems: Option<usize>,
    /// Number of pivots (`m`, so `m+1` buckets). Default:
    /// `min(M/4B, chunk/8, 65536)`.
    pub n_pivots: Option<usize>,
    /// RNG seed for pivot sampling.
    pub seed: u64,
    /// Host worker threads fanning out real work (chunk copies, segment
    /// gathers, merges) in addition to virtual-lane accounting. `1` runs
    /// everything inline; never affects simulated charges.
    pub threads: usize,
    /// Mark ingest phases overlappable (DMA double-buffering semantics).
    pub use_dma: bool,
    /// In-scratchpad chunk sorting algorithm.
    pub chunk_sorter: ChunkSorter,
}

impl Default for NmSortConfig {
    fn default() -> Self {
        Self {
            sim_lanes: 8,
            chunk_elems: None,
            n_pivots: None,
            seed: 0x5EED_CAFE,
            threads: crate::pool::host_threads(),
            use_dma: false,
            chunk_sorter: ChunkSorter::MultiwayMerge,
        }
    }
}

/// Counts of every degradation-ladder action a run took; all zero on a
/// clean run over well-spread keys. Each ladder rung is also mirrored in a
/// `degradation.*` telemetry counter, so fleets can alert on them without
/// plumbing reports around.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DegradationStats {
    /// Phase-1 chunk-size halvings after injected allocation failures.
    pub chunk_shrinks: u64,
    /// Retried small near allocations (pivot residence, bucket totals).
    pub alloc_retries: u64,
    /// Re-staged transfers after injected aborts (Phase-1 ingest and
    /// writeback; each aborted attempt was charged in full).
    pub transfer_retries: u64,
    /// Transfers that completed after an injected retransmission delay
    /// (charged twice).
    pub transfer_delays: u64,
    /// Cache staging streams re-read (or retransmitted) inside the chunk
    /// sorter after injected [`FaultOp::FarStage`]/[`FaultOp::NearStage`]
    /// events.
    pub stage_restages: u64,
    /// Operations forced through with injection suppressed after the retry
    /// budget ran out — the last rung of every ladder.
    pub forced_ops: u64,
    /// Phase-2 batches merged straight from DRAM because their gather could
    /// not be staged into the scratchpad.
    pub batch_fallbacks: u64,
    /// Oversized-bucket parts merged straight from DRAM (too few distinct
    /// keys to sub-split). Fires on duplicate-heavy inputs even without
    /// faults — a data-driven degradation, not a fault-driven one.
    pub dram_direct_parts: u64,
    /// DMA-overlapped Phase-1 transfers demoted to blocking synchronous
    /// copies after an injected [`FaultOp::DmaIssue`] abort (same bytes
    /// moved; only the overlap is lost).
    pub dma_fallbacks: u64,
}

impl DegradationStats {
    /// Total degradation events of any kind.
    pub fn total(&self) -> u64 {
        self.chunk_shrinks
            + self.alloc_retries
            + self.transfer_retries
            + self.transfer_delays
            + self.stage_restages
            + self.forced_ops
            + self.batch_fallbacks
            + self.dram_direct_parts
            + self.dma_fallbacks
    }

    /// Did any ladder rung fire?
    pub fn any(&self) -> bool {
        self.total() > 0
    }
}

/// Result of an [`nmsort`] run.
#[derive(Debug)]
pub struct NmSortReport<T> {
    /// The sorted output, resident in far memory.
    pub output: FarArray<T>,
    /// Phase-1 chunks processed.
    pub chunks: usize,
    /// Pivots used (after deduplication).
    pub n_pivots: usize,
    /// Phase-2 batches (bucket groups merged per scratchpad fill).
    pub batches: usize,
    /// Oversized buckets that required sub-splitting or streaming.
    pub oversized_buckets: usize,
    /// Degradation-ladder actions the run took (fault recovery and
    /// DRAM-direct fallbacks).
    pub degradations: DegradationStats,
    /// Ledger delta of the sampling step.
    pub sample_cost: CostSnapshot,
    /// Ledger delta of Phase 1.
    pub phase1_cost: CostSnapshot,
    /// Ledger delta of Phase 2.
    pub phase2_cost: CostSnapshot,
}

/// The run's scratchpad geometry ([`NmSortGeometry`], shared with the
/// admission estimator), rejected up front when its buffers, pivots and
/// totals cannot fit the scratchpad.
fn geometry<T: SortElem>(
    tl: &TwoLevel,
    n: usize,
    cfg: &NmSortConfig,
) -> Result<NmSortGeometry, SortError> {
    let elem = std::mem::size_of::<T>();
    let p = tl.params();
    let chunk = cfg
        .chunk_elems
        .unwrap_or_else(|| NmSortGeometry::default_chunk(p, n, elem, cfg.use_dma))
        .clamp(1, n.max(1));
    let geo = NmSortGeometry::new(p, n, chunk, cfg.use_dma, cfg.n_pivots);
    let needed = geo.near_peak_bytes(elem);
    if needed > p.scratchpad_bytes {
        return Err(SortError::ScratchpadTooSmall {
            needed,
            available: p.scratchpad_bytes,
        });
    }
    Ok(geo)
}

/// Charge the full traffic of a far↔near copy of `bytes` without moving
/// data — the honest cost of an aborted or retransmitted staging attempt
/// (the payload crossed the channels and was discarded).
fn charge_copy_volume(tl: &TwoLevel, kind: CopyKind, bytes: u64, lanes: usize) {
    match kind {
        CopyKind::FarToNear => {
            charge_io_striped(tl, RegionLevel::Far, Dir::Read, bytes, lanes);
            charge_io_striped(tl, RegionLevel::Near, Dir::Write, bytes, lanes);
        }
        CopyKind::NearToFar => {
            charge_io_striped(tl, RegionLevel::Near, Dir::Read, bytes, lanes);
            charge_io_striped(tl, RegionLevel::Far, Dir::Write, bytes, lanes);
        }
        _ => unreachable!("staged copies move between far and near"),
    }
}

/// Consult the fault injector before a far↔near staging transfer of
/// `bytes` and re-stage on injected aborts: every aborted attempt is
/// charged in full, bounded by the [`Backoff`] policy's `Stage` budget
/// before the transfer is forced through. The caller charges the transfer
/// itself afterwards. Both Phase-1 ingests run this ladder: the blocking
/// copy and the overlapped issue.
fn stage_with_retry(
    tl: &TwoLevel,
    kind: CopyKind,
    bytes: u64,
    lanes: usize,
    stats: &mut DegradationStats,
) {
    let op = match kind {
        CopyKind::FarToNear => FaultOp::FarToNear,
        CopyKind::NearToFar => FaultOp::NearToFar,
        _ => unreachable!("staged copies move between far and near"),
    };
    let mut bo = Backoff::for_memory(tl, RetryClass::Stage);
    loop {
        match tl.preflight(op) {
            FaultDecision::Fail(_) => {
                charge_copy_volume(tl, kind, bytes, lanes);
                if bo.again() {
                    stats.transfer_retries += 1;
                } else {
                    bo.give_up();
                    stats.forced_ops += 1;
                    break;
                }
            }
            FaultDecision::Delay(_) => {
                charge_copy_volume(tl, kind, bytes, lanes);
                stats.transfer_delays += 1;
                tlmm_telemetry::counter!("degradation.transfer_delay").incr();
                break;
            }
            FaultDecision::Proceed => break,
        }
    }
}

/// A [`charged_copy`] behind the [`stage_with_retry`] fault ladder.
fn staged_copy_with_retry<T: SortElem>(
    tl: &TwoLevel,
    kind: CopyKind,
    src: &[T],
    dst: &mut [T],
    lanes: usize,
    threads: usize,
    stats: &mut DegradationStats,
) {
    stage_with_retry(tl, kind, std::mem::size_of_val(src) as u64, lanes, stats);
    charged_copy(tl, kind, src, dst, lanes, threads);
}

/// A blocking Phase-1 ingest of `src` into the front of `dst`.
fn ingest_sync<T: SortElem>(
    tl: &TwoLevel,
    src: &[T],
    dst: &mut ArenaBuf<T>,
    lanes: usize,
    threads: usize,
    stats: &mut DegradationStats,
) {
    staged_copy_with_retry(
        tl,
        CopyKind::FarToNear,
        src,
        &mut dst.as_mut_slice_uncharged()[..src.len()],
        lanes,
        threads,
        stats,
    );
    dst.arena().note_sync_transfer();
}

/// Consult the injector's [`FaultOp::DmaIssue`] class before overlapping a
/// Phase-1 transfer with DMA. An injected abort demotes the transfer to a
/// blocking synchronous copy (the phase is simply not marked overlappable):
/// same bytes move, only the latency hiding is lost — the mildest rung of
/// the degradation ladder. Delay decisions keep the overlap.
fn dma_issue_allowed(tl: &TwoLevel, stats: &mut DegradationStats) -> bool {
    match tl.preflight(FaultOp::DmaIssue) {
        FaultDecision::Fail(_) => {
            stats.dma_fallbacks += 1;
            tlmm_telemetry::counter!("degradation.dma_abort").incr();
            tlmm_telemetry::counter!("degradation.dma_sync_fallback").incr();
            false
        }
        FaultDecision::Delay(_) | FaultDecision::Proceed => true,
    }
}

/// Injected fault events on the cache staging classes so far (the chunk
/// sorter recovers from these internally; see [`crate::extsort`]).
fn stage_event_count(tl: &TwoLevel) -> u64 {
    tl.fault_injector()
        .map(|inj| {
            inj.events()
                .iter()
                .filter(|e| matches!(e.op, FaultOp::FarStage | FaultOp::NearStage))
                .count() as u64
        })
        .unwrap_or(0)
}

/// Near allocation with bounded retry of injected refusals, then a forced
/// attempt with injection suppressed. Genuine capacity errors propagate
/// immediately.
fn near_alloc_with_retry<T: Copy + Default>(
    tl: &TwoLevel,
    len: usize,
    stats: &mut DegradationStats,
) -> Result<NearArray<T>, SortError> {
    let mut bo = Backoff::for_memory(tl, RetryClass::Alloc);
    while !bo.exhausted() {
        match tl.near_alloc::<T>(len) {
            Ok(a) => return Ok(a),
            Err(e) if e.is_injected() => {
                bo.again();
                stats.alloc_retries += 1;
            }
            Err(e) => return Err(e.into()),
        }
    }
    bo.give_up();
    stats.forced_ops += 1;
    with_faults_suppressed(|| tl.near_alloc::<T>(len)).map_err(SortError::from)
}

/// Allocate the chunk-sized staging buffers from the run's arena, halving
/// the chunk under injected allocation pressure (bounded by the
/// [`Backoff`] `Shrink` budget) before forcing the allocation through.
/// Returns the chunk size actually used. Arena growth is exact-fit, so the
/// scratchpad bytes reserved here match what direct `near_alloc` calls
/// would have reserved, shrink ladder included.
fn alloc_chunk_buffers<T: SortElem>(
    tl: &TwoLevel,
    arena: &StagingArena,
    mut chunk: usize,
    n_bufs: usize,
    stats: &mut DegradationStats,
) -> Result<(usize, Vec<ArenaBuf<T>>), SortError> {
    let try_alloc = |chunk: usize| -> Result<Vec<ArenaBuf<T>>, tlmm_scratchpad::SpError> {
        let mut bufs = Vec::with_capacity(n_bufs);
        for _ in 0..n_bufs {
            bufs.push(arena.alloc_array::<T>(chunk)?);
        }
        Ok(bufs)
    };
    let mut bo = Backoff::for_memory(tl, RetryClass::Shrink);
    loop {
        match try_alloc(chunk) {
            Ok(bufs) => return Ok((chunk, bufs)),
            Err(e) if e.is_injected() && chunk > 2 && bo.again() => {
                // Transient scratchpad pressure: degrade to a smaller chunk
                // (more Phase-1 chunks, same asymptotics) instead of failing.
                chunk = (chunk / 2).max(2);
                stats.chunk_shrinks += 1;
            }
            Err(e) if e.is_injected() => {
                bo.give_up();
                stats.forced_ops += 1;
                return with_faults_suppressed(|| try_alloc(chunk))
                    .map(|bufs| (chunk, bufs))
                    .map_err(SortError::from);
            }
            Err(e) => return Err(e.into()),
        }
    }
}

/// The sort → writeback → bounds tail of one Phase-1 chunk iteration.
/// The sorted chunk is written back over `own_range`, the chunk's own
/// range of the input, which the chunk's ingest has already read.
/// In the DMA pipeline it runs while the next chunk's ingest is in flight
/// on a background worker. The caller owns the enclosing phase bracket
/// and calls `end_phase`.
#[allow(clippy::too_many_arguments)]
fn p1_sort_writeback_bounds<T: SortElem>(
    tl: &TwoLevel,
    cfg: &NmSortConfig,
    ext_cfg: &ExtSortConfig,
    sample: &PivotSample<T>,
    chunk_buf: &mut ArenaBuf<T>,
    scratch_buf: &mut ArenaBuf<T>,
    own_range: &mut [T],
    totals_buf: &mut NearArray<u64>,
    all_positions: &mut Vec<BucketPositions>,
    degradations: &mut DegradationStats,
    n_chunks: usize,
    lanes: usize,
) {
    let len = own_range.len();

    tl.begin_phase("nmsort.p1.sort");
    let sorted: &[T] = match cfg.chunk_sorter {
        ChunkSorter::MultiwayMerge => {
            let outcome = external_sort(
                tl,
                RegionLevel::Near,
                &mut chunk_buf.as_mut_slice_uncharged()[..len],
                &mut scratch_buf.as_mut_slice_uncharged()[..len],
                ext_cfg,
            );
            if outcome.in_scratch {
                &scratch_buf.as_slice_uncharged()[..len]
            } else {
                &chunk_buf.as_slice_uncharged()[..len]
            }
        }
        ChunkSorter::Quicksort => {
            external_quicksort(
                tl,
                RegionLevel::Near,
                &mut chunk_buf.as_mut_slice_uncharged()[..len],
                lanes,
            );
            &chunk_buf.as_slice_uncharged()[..len]
        }
    };

    tl.begin_phase("nmsort.p1.writeback");
    if cfg.use_dma && dma_issue_allowed(tl, degradations) {
        tl.mark_phase_overlappable();
    }
    staged_copy_with_retry(
        tl,
        CopyKind::NearToFar,
        sorted,
        own_range,
        lanes,
        cfg.threads,
        degradations,
    );
    scratch_buf.arena().note_sync_transfer();

    if n_chunks > 1 {
        tl.begin_phase("nmsort.p1.bounds");
        let pos = bucket_positions(
            tl,
            RegionLevel::Near,
            sorted,
            &sample.pivots,
            lanes,
            cfg.threads,
        );
        accumulate_totals(tl, totals_buf.as_mut_slice_uncharged(), &pos, lanes);
        // BucketPos for this chunk goes to DRAM (the auxiliary array of
        // Fig. 2(c)); the write is a cooperative stream like the data
        // transfers.
        charge_io_striped(
            tl,
            RegionLevel::Far,
            Dir::Write,
            (pos.len() * 8) as u64,
            lanes,
        );
        all_positions.push(pos);
    }
}

/// Greedy batch plan over buckets: maximal consecutive groups with total
/// size ≤ `cap`. A single bucket larger than `cap` forms its own batch.
fn plan_batches(totals: &[u64], cap: u64) -> Vec<(usize, usize)> {
    let mut batches = Vec::new();
    let mut lo = 0usize;
    let mut acc = 0u64;
    for (i, &t) in totals.iter().enumerate() {
        if acc > 0 && acc + t > cap {
            batches.push((lo, i));
            lo = i;
            acc = 0;
        }
        acc += t;
    }
    if acc > 0 || lo < totals.len() {
        batches.push((lo, totals.len()));
    }
    batches.retain(|(a, b)| a < b);
    batches
}

/// Sort `input` with NMsort; returns the sorted output and a report.
pub fn nmsort<T: SortElem>(
    tl: &TwoLevel,
    input: FarArray<T>,
    cfg: &NmSortConfig,
) -> Result<NmSortReport<T>, SortError> {
    let n = input.len();
    let lanes = cfg.sim_lanes.max(1);
    crate::pool::validate_threads(cfg.threads)?;
    if n == 0 {
        return Ok(NmSortReport {
            output: input,
            chunks: 0,
            n_pivots: 0,
            batches: 0,
            oversized_buckets: 0,
            degradations: DegradationStats::default(),
            sample_cost: CostSnapshot::default(),
            phase1_cost: CostSnapshot::default(),
            phase2_cost: CostSnapshot::default(),
        });
    }
    let _run_span = tlmm_telemetry::span!("nmsort");
    let geo = geometry::<T>(tl, n, cfg)?;
    let base = tl.ledger().snapshot();
    let mut degradations = DegradationStats::default();
    // Stage-class faults are handled (and charged) inside the chunk sorter;
    // attribute them to this run by event-log delta.
    let stage_events_base = stage_event_count(tl);

    // ---- Scratchpad allocations ---------------------------------------
    // All chunk staging lives in a generation-based arena: chunk_buf
    // (ingest + gather space), scratch_buf (sort ping-pong + merge
    // output), and in DMA mode next_buf (the incoming double-buffered
    // chunk). Allocated before sampling so that an allocation-pressure
    // chunk shrink can still influence the default pivot count.
    let arena = StagingArena::new(tl);
    let (chunk, bufs) =
        alloc_chunk_buffers::<T>(tl, &arena, geo.chunk, geo.n_bufs, &mut degradations)?;
    let mut bufs = bufs.into_iter();
    let mut chunk_buf = bufs.next().expect("chunk buffer");
    let mut scratch_buf = bufs.next().expect("scratch buffer");
    let mut next_buf = bufs.next();
    let n_chunks = n.div_ceil(chunk.max(1)).max(1);
    // The pivot count stays anchored to the *pre-shrink* geometry: a
    // degraded run must never sample fewer pivots (and so pay less far
    // traffic) than the clean run would. The shrunk chunk only affects how
    // many Phase-1 chunks there are; the smaller buffers always still hold
    // the pre-shrink pivot set.
    let n_pivots = if n_chunks <= 1 {
        0
    } else {
        geo.n_pivots.max(1)
    };

    // ---- Pivot sample (kept resident in the scratchpad) ---------------
    tl.begin_phase("nmsort.sample");
    let sample: PivotSample<T> = if n_chunks > 1 {
        draw_pivots(tl, &input, n_pivots, cfg.seed, lanes)
    } else {
        PivotSample {
            pivots: Vec::new(),
            drawn: 0,
        }
    };
    tl.end_phase();
    let after_sample = tl.ledger().snapshot();

    // pivot_res reserves the resident sample; totals = BucketTot.
    let _pivot_res = near_alloc_with_retry::<T>(tl, sample.pivots.len(), &mut degradations)?;
    let mut totals_buf = near_alloc_with_retry::<u64>(tl, sample.n_buckets(), &mut degradations)?;

    // ---- Phase 1 --------------------------------------------------------
    // Each sorted chunk is written back over its own range of the input,
    // which its ingest has already read: the input becomes the sorted
    // chunks. Far allocation is uncharged, so this saves host memory and
    // first-touch page faults without changing a charge.
    let mut sorted_chunks = input;
    let mut all_positions: Vec<BucketPositions> = Vec::with_capacity(n_chunks);
    let ext_cfg = ExtSortConfig {
        lanes,
        threads: cfg.threads,
        ..Default::default()
    };
    // Chunks in flight. At depth 2 (DMA double buffering) the ingest of
    // chunk k+1 is issued into next_buf before chunk k is sorted. That
    // needs a third buffer and at least two chunks; when the shrink
    // ladder consumed the third buffer's headroom, the run degrades to
    // depth 1, the blocking schedule.
    let depth = if cfg.use_dma && n_chunks > 1 && next_buf.is_some() {
        2
    } else {
        1
    };
    let mut chunks: Vec<&mut [T]> = sorted_chunks
        .as_mut_slice_uncharged()
        .chunks_mut(chunk)
        .collect();
    debug_assert_eq!(chunks.len(), n_chunks);
    if depth > 1 {
        // Prime the pipeline: the first chunk has nothing to hide behind,
        // so its ingest is synchronous and not overlappable.
        tl.begin_phase("nmsort.p1.ingest");
        ingest_sync(
            tl,
            chunks[0],
            &mut chunk_buf,
            lanes,
            cfg.threads,
            &mut degradations,
        );
    }
    for k in 0..n_chunks {
        // Phase boundary: cooperative cancellation / deadline check.
        tl.checkpoint()?;
        // Chunk k's range receives its sorted writeback while, at depth
        // 2, the ingest of chunk k+1 reads the next range: split so the
        // two borrows are disjoint.
        let (through_k, later) = chunks.split_at_mut(k + 1);
        let own_range: &mut [T] = through_k[k];
        // Ingest chunk k + depth - 1: into chunk_buf at depth 1, into
        // next_buf (overlapping chunk k's sort) at depth 2.
        let ahead = k + depth - 1;
        let mut pending = None;
        if ahead < n_chunks {
            tl.begin_phase("nmsort.p1.ingest");
            if depth == 1 {
                ingest_sync(
                    tl,
                    own_range,
                    &mut chunk_buf,
                    lanes,
                    cfg.threads,
                    &mut degradations,
                );
            } else {
                let src: &[T] = later[0];
                let nb = next_buf.as_mut().expect("depth 2 has a next buffer");
                if dma_issue_allowed(tl, &mut degradations) {
                    // Every preflight and ledger charge lands on this
                    // thread, at issue time; the background worker below
                    // only moves bytes, which keeps overlapped runs
                    // byte-identical to blocking ones. The phase is
                    // overlappable, so the flow engine charges
                    // max(ingest(k+1), sort(k)) instead of their sum.
                    tl.mark_phase_overlappable();
                    let bytes = std::mem::size_of_val(src) as u64;
                    stage_with_retry(tl, CopyKind::FarToNear, bytes, lanes, &mut degradations);
                    charge_copy_volume(tl, CopyKind::FarToNear, bytes, lanes);
                    let id = nb.issue(Dir::Read, bytes).map_err(SortError::from)?;
                    if cfg.threads > 1 {
                        pending = Some((id, src));
                    } else {
                        // One host thread: the copy runs inline at issue
                        // time. Identical charges; the overlap is
                        // simulated only.
                        nb.transfer_fill(src, 0);
                        arena.retire(id).map_err(SortError::from)?;
                    }
                } else {
                    // Injected DmaIssue abort: demoted to a blocking copy
                    // in the same phase slot — same bytes move, overlap
                    // lost.
                    ingest_sync(tl, src, nb, lanes, cfg.threads, &mut degradations);
                }
            }
        }

        let mut sort_writeback_bounds = || {
            p1_sort_writeback_bounds(
                tl,
                cfg,
                &ext_cfg,
                &sample,
                &mut chunk_buf,
                &mut scratch_buf,
                own_range,
                &mut totals_buf,
                &mut all_positions,
                &mut degradations,
                n_chunks,
                lanes,
            )
        };
        if let Some((id, src)) = pending {
            // Sort chunk k while the ingest of chunk k+1 is in flight. The
            // read-before-retire guard on next_buf stays armed the whole
            // time; the worker writes through the transfer path.
            let nb = next_buf.as_mut().expect("depth 2 has a next buffer");
            std::thread::scope(|s| {
                s.spawn(move || nb.transfer_fill(src, 0));
                sort_writeback_bounds();
            });
            arena.retire(id).map_err(SortError::from)?;
        } else {
            sort_writeback_bounds();
        }
        tl.end_phase();
        if depth > 1 && ahead < n_chunks {
            std::mem::swap(
                &mut chunk_buf,
                next_buf.as_mut().expect("depth 2 has a next buffer"),
            );
        }
    }
    // Phase 2 needs only two buffers; freeing the double buffer here
    // exercises the arena's free path on every DMA run.
    drop(next_buf);
    let after_p1 = tl.ledger().snapshot();

    // ---- Phase 2 --------------------------------------------------------
    let mut batches_run = 0usize;
    let mut oversized = 0usize;
    let elem = std::mem::size_of::<T>() as u64;
    let output = if n_chunks == 1 {
        // The single sorted chunk already is the final list.
        sorted_chunks
    } else {
        let mut output = tl.far_alloc::<T>(n);
        // Read BucketTot (resident in near) to plan batches (Fig. 3(a)).
        tl.begin_phase("nmsort.p2.plan");
        let totals: Vec<u64> = totals_buf.as_slice_uncharged().to_vec();
        charge_io_striped(
            tl,
            RegionLevel::Near,
            Dir::Read,
            (totals.len() * 8) as u64,
            lanes,
        );
        let cap = chunk as u64;
        let batches = plan_batches(&totals, cap);
        batches_run = batches.len();

        let chunk_starts: Vec<usize> = (0..n_chunks).map(|k| k * chunk).collect();
        let mut out_off = 0usize;
        for (blo, bhi) in batches {
            // Phase boundary: cooperative cancellation / deadline check.
            tl.checkpoint()?;
            let total: u64 = totals[blo..bhi].iter().sum();
            if total == 0 {
                continue;
            }
            if total <= cap {
                // Can this batch be staged into the scratchpad right now?
                tl.begin_phase("nmsort.p2.gather");
                let decision = tl.preflight(FaultOp::FarToNear);
                if let FaultDecision::Delay(_) = decision {
                    charge_copy_volume(tl, CopyKind::FarToNear, total * elem, lanes);
                    degradations.transfer_delays += 1;
                    tlmm_telemetry::counter!("degradation.transfer_delay").incr();
                }
                if let FaultDecision::Fail(_) = decision {
                    // The gather aborted mid-flight: charge the lost staging
                    // attempt and merge this batch straight from DRAM — the
                    // same fallback §IV-D uses for unsplittable buckets.
                    charge_copy_volume(tl, CopyKind::FarToNear, total * elem, lanes);
                    degradations.batch_fallbacks += 1;
                    tlmm_telemetry::counter!("degradation.p2_dram_direct").incr();
                    merge_batch_from_far(
                        tl,
                        &sorted_chunks,
                        &all_positions,
                        &chunk_starts,
                        (blo, bhi),
                        &mut output,
                        out_off,
                        total as usize,
                        lanes,
                        cfg.threads,
                    );
                } else {
                    merge_batch_via_scratchpad(
                        tl,
                        &sorted_chunks,
                        &all_positions,
                        &chunk_starts,
                        (blo, bhi),
                        &mut chunk_buf,
                        &mut scratch_buf,
                        &mut output,
                        out_off,
                        total as usize,
                        lanes,
                        cfg.threads,
                    );
                }
            } else {
                oversized += 1;
                tlmm_telemetry::counter!("nmsort.oversized_bucket").incr();
                let direct_parts = merge_oversized_bucket(
                    tl,
                    &sorted_chunks,
                    &all_positions,
                    &chunk_starts,
                    (blo, bhi),
                    &mut chunk_buf,
                    &mut scratch_buf,
                    &mut output,
                    out_off,
                    total as usize,
                    lanes,
                    cfg.threads,
                );
                degradations.dram_direct_parts += direct_parts as u64;
            }
            out_off += total as usize;
        }
        debug_assert_eq!(out_off, n, "batches must cover the input exactly");
        output
    };

    let after_p2 = tl.ledger().snapshot();
    degradations.stage_restages = stage_event_count(tl) - stage_events_base;
    if degradations.any() {
        tlmm_telemetry::counter!("degradation.runs").incr();
    }
    Ok(NmSortReport {
        output,
        chunks: n_chunks,
        n_pivots: sample.pivots.len(),
        batches: batches_run,
        oversized_buckets: oversized,
        degradations,
        sample_cost: after_sample.since(&base),
        phase1_cost: after_p1.since(&after_sample),
        phase2_cost: after_p2.since(&after_p1),
    })
}

/// Phase-2 fallback when a batch cannot be staged: merge its segments
/// straight from DRAM into the output, never touching the scratchpad. Far
/// traffic matches the staged path (one read + one write of the batch);
/// what is lost is the near-memory acceleration, not correctness.
#[allow(clippy::too_many_arguments)]
fn merge_batch_from_far<T: SortElem>(
    tl: &TwoLevel,
    sorted_chunks: &FarArray<T>,
    all_positions: &[BucketPositions],
    chunk_starts: &[usize],
    bucket_range: (usize, usize),
    output: &mut FarArray<T>,
    out_off: usize,
    total: usize,
    lanes: usize,
    threads: usize,
) {
    let elem = std::mem::size_of::<T>() as u64;
    let segs = batch_segments(all_positions, chunk_starts, bucket_range);
    tl.begin_phase("nmsort.p2.stream_far");
    let src = sorted_chunks.as_slice_uncharged();
    // Reading each chunk's BucketPos boundary pair from DRAM.
    tl.charge_far_random(Dir::Read, 2 * segs.len() as u64, 16 * segs.len() as u64);
    let seg_slices: Vec<&[T]> = segs.iter().map(|&(a, b)| &src[a..b]).collect();
    let out = &mut output.as_mut_slice_uncharged()[out_off..out_off + total];
    let cmps = parallel_merge(&seg_slices, out, lanes, threads);
    charge_io_striped(tl, RegionLevel::Far, Dir::Read, total as u64 * elem, lanes);
    charge_io_striped(tl, RegionLevel::Far, Dir::Write, total as u64 * elem, lanes);
    charge_compute_striped(tl, cmps, lanes);
    tl.end_phase();
}

/// Per-chunk segment of a bucket range: `(chunk_global_lo, chunk_global_hi)`
/// element offsets into the `sorted_chunks` array.
fn batch_segments(
    all_positions: &[BucketPositions],
    chunk_starts: &[usize],
    (blo, bhi): (usize, usize),
) -> Vec<(usize, usize)> {
    all_positions
        .iter()
        .zip(chunk_starts)
        .map(|(pos, &start)| (start + pos[blo] as usize, start + pos[bhi] as usize))
        .collect()
}

/// Standard Phase-2 batch: gather segments into the scratchpad, merge them
/// there, stream the result out.
#[allow(clippy::too_many_arguments)]
fn merge_batch_via_scratchpad<T: SortElem>(
    tl: &TwoLevel,
    sorted_chunks: &FarArray<T>,
    all_positions: &[BucketPositions],
    chunk_starts: &[usize],
    bucket_range: (usize, usize),
    gather_buf: &mut ArenaBuf<T>,
    merge_buf: &mut ArenaBuf<T>,
    output: &mut FarArray<T>,
    out_off: usize,
    total: usize,
    lanes: usize,
    threads: usize,
) {
    let elem = std::mem::size_of::<T>() as u64;
    let segs = batch_segments(all_positions, chunk_starts, bucket_range);

    // -- Gather: one parallel transfer per chunk segment ----------------
    tl.begin_phase("nmsort.p2.gather");
    gather_buf.arena().note_sync_transfer();
    let src = sorted_chunks.as_slice_uncharged();
    let gather = gather_buf.as_mut_slice_uncharged();
    {
        // Carve the gather buffer into per-segment destinations.
        let mut dsts: Vec<&mut [T]> = Vec::with_capacity(segs.len());
        let mut rest = &mut gather[..total];
        for &(lo, hi) in &segs {
            let (a, b) = rest.split_at_mut(hi - lo);
            dsts.push(a);
            rest = b;
        }
        let copy_one = |(k, (&(lo, hi), dst)): (usize, (&(usize, usize), &mut [T]))| {
            with_lane(k % lanes, || {
                // Reading this chunk's BucketPos boundary pair from DRAM.
                tl.charge_far_random(Dir::Read, 2, 16);
                if hi > lo {
                    dst.copy_from_slice(&src[lo..hi]);
                }
            })
        };
        if let Some(ex) = tl.executor() {
            // The installed executor owns the gather schedule: seeded
            // permutation in deterministic mode, its worker pool in host
            // mode. Lane attribution stays positional (k % lanes), so the
            // trace is invariant under the permutation.
            let copy_one = &copy_one;
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = segs
                .iter()
                .zip(dsts)
                .enumerate()
                .map(|(k, (seg, dst))| {
                    Box::new(move || copy_one((k, (seg, dst)))) as Box<dyn FnOnce() + Send>
                })
                .collect();
            ex.run_tasks(tasks);
        } else if threads > 1 {
            let items: Vec<(&(usize, usize), &mut [T])> = segs.iter().zip(dsts).collect();
            crate::pool::run_indexed(threads, items, |k, sd| copy_one((k, sd)));
        } else {
            segs.iter().zip(dsts).enumerate().for_each(copy_one);
        }
        // The gather streams the whole batch; all lanes cooperate on the
        // transfer (segments are subdivided further on a real machine), so
        // the volume is charged striped rather than one-lane-per-chunk.
        charge_io_striped(tl, RegionLevel::Far, Dir::Read, total as u64 * elem, lanes);
        charge_io_striped(
            tl,
            RegionLevel::Near,
            Dir::Write,
            total as u64 * elem,
            lanes,
        );
    }

    // -- Merge inside the scratchpad -------------------------------------
    tl.begin_phase("nmsort.p2.merge");
    {
        let gather: &[T] = gather_buf.as_slice_uncharged();
        let mut seg_slices: Vec<&[T]> = Vec::with_capacity(segs.len());
        let mut cursor = 0usize;
        for &(lo, hi) in &segs {
            seg_slices.push(&gather[cursor..cursor + (hi - lo)]);
            cursor += hi - lo;
        }
        let out = &mut merge_buf.as_mut_slice_uncharged()[..total];
        let cmps = parallel_merge(&seg_slices, out, lanes, threads);
        // Merge streams the batch through cache once each way.
        charge_io_striped(tl, RegionLevel::Near, Dir::Read, total as u64 * elem, lanes);
        charge_io_striped(
            tl,
            RegionLevel::Near,
            Dir::Write,
            total as u64 * elem,
            lanes,
        );
        charge_compute_striped(tl, cmps, lanes);
    }

    // -- Stream the merged batch to its final DRAM position -------------
    tl.begin_phase("nmsort.p2.writeout");
    merge_buf.arena().note_sync_transfer();
    charged_copy(
        tl,
        CopyKind::NearToFar,
        &merge_buf.as_slice_uncharged()[..total],
        &mut output.as_mut_slice_uncharged()[out_off..out_off + total],
        lanes,
        threads,
    );
    tl.end_phase();
}

/// A single bucket larger than the scratchpad: split it into
/// scratchpad-sized parts by sampled sub-splitters and run each part as a
/// normal batch; parts that still do not fit (too few distinct keys) are
/// merged straight from DRAM. Returns how many parts took the DRAM-direct
/// path.
#[allow(clippy::too_many_arguments)]
fn merge_oversized_bucket<T: SortElem>(
    tl: &TwoLevel,
    sorted_chunks: &FarArray<T>,
    all_positions: &[BucketPositions],
    chunk_starts: &[usize],
    bucket_range: (usize, usize),
    gather_buf: &mut ArenaBuf<T>,
    merge_buf: &mut ArenaBuf<T>,
    output: &mut FarArray<T>,
    out_off: usize,
    total: usize,
    lanes: usize,
    threads: usize,
) -> usize {
    let elem = std::mem::size_of::<T>() as u64;
    let cap = gather_buf.len();
    let segs = batch_segments(all_positions, chunk_starts, bucket_range);
    let src = sorted_chunks.as_slice_uncharged();

    // Sample sub-splitters from the bucket's segments (random far reads).
    tl.begin_phase("nmsort.p2.subsplit");
    let n_parts = total.div_ceil(cap / 2) + 1;
    let mut sample: Vec<T> = Vec::new();
    for &(lo, hi) in &segs {
        let len = hi - lo;
        if len == 0 {
            continue;
        }
        let want = ((16 * n_parts * len) / total).max(1);
        let step = (len / want).max(1);
        sample.extend(src[lo..hi].iter().step_by(step).copied());
    }
    tl.charge_far_random(Dir::Read, sample.len() as u64, sample.len() as u64 * elem);
    crate::kernels::sort_kernel(&mut sample);
    tl.charge_compute(sample.len() as u64 * crate::ceil_lg(sample.len()));
    sample.dedup();
    let mut splitters: Vec<T> = (1..n_parts)
        .map(|t| sample[(t * sample.len() / n_parts).min(sample.len() - 1)])
        .collect();
    splitters.dedup();

    // Per-splitter boundaries inside each segment (binary searches on DRAM).
    let mut cuts: Vec<Vec<usize>> = Vec::with_capacity(splitters.len() + 1);
    for s in &splitters {
        let row: Vec<usize> = segs
            .iter()
            .map(|&(lo, hi)| lo + src[lo..hi].partition_point(|x| x <= s))
            .collect();
        tl.charge_far_random(
            Dir::Read,
            segs.len() as u64 * crate::ceil_lg(total),
            segs.len() as u64 * crate::ceil_lg(total) * elem,
        );
        cuts.push(row);
    }
    cuts.push(segs.iter().map(|&(_, hi)| hi).collect());
    tl.end_phase();

    // Run each part.
    let mut dram_direct = 0usize;
    let mut part_off = out_off;
    let mut prev: Vec<usize> = segs.iter().map(|&(lo, _)| lo).collect();
    for row in cuts {
        let part_segs: Vec<(usize, usize)> = prev.iter().zip(&row).map(|(&a, &b)| (a, b)).collect();
        let part_total: usize = part_segs.iter().map(|&(a, b)| b - a).sum();
        prev = row;
        if part_total == 0 {
            continue;
        }
        if part_total <= cap {
            merge_part_via_scratchpad(
                tl, src, &part_segs, gather_buf, merge_buf, output, part_off, part_total, lanes,
                threads,
            );
        } else {
            // Degenerate duplication: merge straight from DRAM.
            dram_direct += 1;
            tlmm_telemetry::counter!("nmsort.dram_direct_part").incr();
            tl.begin_phase("nmsort.p2.stream_far");
            let seg_slices: Vec<&[T]> = part_segs.iter().map(|&(a, b)| &src[a..b]).collect();
            let out = &mut output.as_mut_slice_uncharged()[part_off..part_off + part_total];
            let cmps = parallel_merge(&seg_slices, out, lanes, threads);
            charge_io_striped(
                tl,
                RegionLevel::Far,
                Dir::Read,
                part_total as u64 * elem,
                lanes,
            );
            charge_io_striped(
                tl,
                RegionLevel::Far,
                Dir::Write,
                part_total as u64 * elem,
                lanes,
            );
            charge_compute_striped(tl, cmps, lanes);
            tl.end_phase();
        }
        part_off += part_total;
    }
    debug_assert_eq!(
        part_off,
        out_off + total,
        "oversized parts must cover bucket"
    );
    dram_direct
}

/// Gather + merge + writeout for an explicit segment list (used by the
/// oversized-bucket path).
#[allow(clippy::too_many_arguments)]
fn merge_part_via_scratchpad<T: SortElem>(
    tl: &TwoLevel,
    src: &[T],
    part_segs: &[(usize, usize)],
    gather_buf: &mut ArenaBuf<T>,
    merge_buf: &mut ArenaBuf<T>,
    output: &mut FarArray<T>,
    out_off: usize,
    total: usize,
    lanes: usize,
    threads: usize,
) {
    let elem = std::mem::size_of::<T>() as u64;
    tl.begin_phase("nmsort.p2.gather");
    gather_buf.arena().note_sync_transfer();
    {
        let gather = &mut gather_buf.as_mut_slice_uncharged()[..total];
        let mut cursor = 0usize;
        for &(lo, hi) in part_segs {
            gather[cursor..cursor + (hi - lo)].copy_from_slice(&src[lo..hi]);
            cursor += hi - lo;
        }
        charge_io_striped(tl, RegionLevel::Far, Dir::Read, total as u64 * elem, lanes);
        charge_io_striped(
            tl,
            RegionLevel::Near,
            Dir::Write,
            total as u64 * elem,
            lanes,
        );
    }
    tl.begin_phase("nmsort.p2.merge");
    {
        let gather: &[T] = gather_buf.as_slice_uncharged();
        let mut seg_slices: Vec<&[T]> = Vec::with_capacity(part_segs.len());
        let mut cursor = 0usize;
        for &(lo, hi) in part_segs {
            seg_slices.push(&gather[cursor..cursor + (hi - lo)]);
            cursor += hi - lo;
        }
        let out = &mut merge_buf.as_mut_slice_uncharged()[..total];
        let cmps = parallel_merge(&seg_slices, out, lanes, threads);
        charge_io_striped(tl, RegionLevel::Near, Dir::Read, total as u64 * elem, lanes);
        charge_io_striped(
            tl,
            RegionLevel::Near,
            Dir::Write,
            total as u64 * elem,
            lanes,
        );
        charge_compute_striped(tl, cmps, lanes);
    }
    tl.begin_phase("nmsort.p2.writeout");
    merge_buf.arena().note_sync_transfer();
    charged_copy(
        tl,
        CopyKind::NearToFar,
        &merge_buf.as_slice_uncharged()[..total],
        &mut output.as_mut_slice_uncharged()[out_off..out_off + total],
        lanes,
        threads,
    );
    tl.end_phase();
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tlmm_model::ScratchpadParams;

    fn tl_small() -> TwoLevel {
        // M = 1 MiB, Z = 16 KiB, B = 64, rho = 4.
        TwoLevel::new(ScratchpadParams::new(64, 4.0, 1 << 20, 16 << 10).unwrap())
    }

    fn random_vec(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen()).collect()
    }

    fn assert_sorted_matches(report: &NmSortReport<u64>, mut expect: Vec<u64>) {
        expect.sort_unstable();
        assert_eq!(report.output.as_slice_uncharged(), expect.as_slice());
    }

    #[test]
    fn sorts_multi_chunk_input() {
        let tl = tl_small();
        // M holds 131072 u64; chunk ≈ 52428; use n = 500k for ~10 chunks.
        let v = random_vec(500_000, 42);
        let input = tl.far_from_vec(v.clone());
        let report = nmsort(&tl, input, &NmSortConfig::default()).unwrap();
        assert!(report.chunks >= 8, "chunks = {}", report.chunks);
        assert!(report.batches >= 2);
        assert_sorted_matches(&report, v);
    }

    #[test]
    fn sorts_single_chunk_input() {
        let tl = tl_small();
        let v = random_vec(10_000, 1);
        let input = tl.far_from_vec(v.clone());
        let report = nmsort(&tl, input, &NmSortConfig::default()).unwrap();
        assert_eq!(report.chunks, 1);
        assert_eq!(report.n_pivots, 0);
        assert_sorted_matches(&report, v);
    }

    #[test]
    fn sorts_empty_and_tiny() {
        let tl = tl_small();
        for n in [0usize, 1, 2, 3] {
            let v = random_vec(n, n as u64);
            let input = tl.far_from_vec(v.clone());
            let report = nmsort(&tl, input, &NmSortConfig::default()).unwrap();
            assert_sorted_matches(&report, v);
        }
    }

    #[test]
    fn sorts_presorted_reverse_and_equal() {
        let tl = tl_small();
        let n = 300_000usize;
        let cases: Vec<Vec<u64>> = vec![
            (0..n as u64).collect(),
            (0..n as u64).rev().collect(),
            vec![7; n],
        ];
        for v in cases {
            let input = tl.far_from_vec(v.clone());
            let report = nmsort(&tl, input, &NmSortConfig::default()).unwrap();
            assert_sorted_matches(&report, v);
        }
    }

    #[test]
    fn all_equal_forces_oversized_bucket_path() {
        let tl = tl_small();
        let n = 400_000usize;
        let v = vec![99u64; n];
        let input = tl.far_from_vec(v.clone());
        let report = nmsort(&tl, input, &NmSortConfig::default()).unwrap();
        assert!(report.oversized_buckets >= 1);
        assert_sorted_matches(&report, v);
    }

    #[test]
    fn few_distinct_keys() {
        let tl = tl_small();
        let n = 400_000usize;
        let v: Vec<u64> = (0..n).map(|i| (i % 3) as u64).collect();
        let input = tl.far_from_vec(v.clone());
        let report = nmsort(&tl, input, &NmSortConfig::default()).unwrap();
        assert_sorted_matches(&report, v);
    }

    #[test]
    fn respects_explicit_geometry() {
        let tl = tl_small();
        let v = random_vec(100_000, 5);
        let input = tl.far_from_vec(v.clone());
        let cfg = NmSortConfig {
            chunk_elems: Some(10_000),
            n_pivots: Some(100),
            ..Default::default()
        };
        let report = nmsort(&tl, input, &cfg).unwrap();
        assert_eq!(report.chunks, 10);
        assert!(report.n_pivots <= 100);
        assert_sorted_matches(&report, v);
    }

    #[test]
    fn rejects_oversized_chunk_config() {
        let tl = tl_small();
        let input = tl.far_from_vec(random_vec(100_000, 6));
        let cfg = NmSortConfig {
            chunk_elems: Some(100_000), // 2x 800KB buffers > 1MB scratchpad
            ..Default::default()
        };
        match nmsort(&tl, input, &cfg) {
            Err(SortError::ScratchpadTooSmall { .. }) => {}
            other => panic!("expected ScratchpadTooSmall, got {other:?}"),
        }
    }

    #[test]
    fn sequential_and_parallel_agree_on_ledger() {
        let run = |threads: usize| {
            let tl = tl_small();
            let input = tl.far_from_vec(random_vec(200_000, 7));
            let cfg = NmSortConfig {
                threads,
                ..Default::default()
            };
            nmsort(&tl, input, &cfg).unwrap();
            tl.ledger().snapshot()
        };
        let a = run(4);
        let b = run(1);
        assert_eq!(a.far_bytes, b.far_bytes);
        assert_eq!(a.near_bytes, b.near_bytes);
    }

    #[test]
    fn far_traffic_is_a_few_passes() {
        // NMsort's DRAM traffic should be ~4 passes over the data
        // (ingest read, writeback write, gather read, writeout write) plus
        // metadata — far below a DRAM-only sort's traffic.
        let tl = tl_small();
        let n = 500_000usize;
        let input = tl.far_from_vec(random_vec(n, 8));
        nmsort(&tl, input, &NmSortConfig::default()).unwrap();
        let s = tl.ledger().snapshot();
        let data_bytes = (n * 8) as u64;
        assert!(s.far_bytes >= 4 * data_bytes, "far {} B", s.far_bytes);
        assert!(s.far_bytes <= 5 * data_bytes, "far {} B", s.far_bytes);
        // Near traffic dominates far traffic (the whole point).
        assert!(s.near_bytes > s.far_bytes);
    }

    #[test]
    fn phase_costs_partition_total() {
        let tl = tl_small();
        let input = tl.far_from_vec(random_vec(300_000, 9));
        let r = nmsort(&tl, input, &NmSortConfig::default()).unwrap();
        let s = tl.ledger().snapshot();
        let sum = r.sample_cost + r.phase1_cost + r.phase2_cost;
        assert_eq!(sum.far_bytes, s.far_bytes);
        assert_eq!(sum.near_bytes, s.near_bytes);
        assert_eq!(sum.compute_ops, s.compute_ops);
    }

    #[test]
    fn trace_has_expected_phases() {
        let tl = tl_small();
        let input = tl.far_from_vec(random_vec(300_000, 10));
        nmsort(&tl, input, &NmSortConfig::default()).unwrap();
        let t = tl.take_trace();
        let names: std::collections::HashSet<&str> =
            t.phases.iter().map(|p| p.name.as_str()).collect();
        for expected in [
            "nmsort.sample",
            "nmsort.p1.ingest",
            "nmsort.p1.sort",
            "nmsort.p1.writeback",
            "nmsort.p1.bounds",
            "nmsort.p2.gather",
            "nmsort.p2.merge",
            "nmsort.p2.writeout",
        ] {
            assert!(names.contains(expected), "missing phase {expected}");
        }
    }

    #[test]
    fn dma_marks_ingest_overlappable() {
        let tl = tl_small();
        let input = tl.far_from_vec(random_vec(200_000, 11));
        let cfg = NmSortConfig {
            use_dma: true,
            ..Default::default()
        };
        nmsort(&tl, input, &cfg).unwrap();
        let t = tl.take_trace();
        // Pipelined schedule: the priming ingest of chunk 0 has nothing to
        // hide behind (synchronous); every later ingest is issued before
        // the previous chunk's sort and overlaps it.
        let ingest: Vec<bool> = t
            .phases
            .iter()
            .filter(|p| p.name == "nmsort.p1.ingest")
            .map(|p| p.overlappable)
            .collect();
        assert!(ingest.len() >= 2, "expected multiple ingest phases");
        assert!(!ingest[0], "priming ingest must be synchronous");
        assert!(
            ingest[1..].iter().all(|&o| o),
            "steady-state ingests must overlap: {ingest:?}"
        );
        assert!(t
            .phases
            .iter()
            .filter(|p| p.name == "nmsort.p1.sort")
            .all(|p| !p.overlappable));
        assert!(t
            .phases
            .iter()
            .filter(|p| p.name == "nmsort.p1.writeback")
            .all(|p| p.overlappable));
    }

    #[test]
    fn quicksort_chunk_sorter_sorts_and_costs_more_near_traffic() {
        let run = |sorter: ChunkSorter| {
            let tl = tl_small();
            let v = random_vec(300_000, 21);
            let mut expect = v.clone();
            expect.sort_unstable();
            let input = tl.far_from_vec(v);
            let cfg = NmSortConfig {
                chunk_sorter: sorter,
                ..Default::default()
            };
            let r = nmsort(&tl, input, &cfg).unwrap();
            assert_eq!(r.output.as_slice_uncharged(), expect.as_slice());
            tl.ledger().snapshot().near_blocks()
        };
        let merge = run(ChunkSorter::MultiwayMerge);
        let quick = run(ChunkSorter::Quicksort);
        // rho = 4 on this geometry is below Corollary 7's optimality point,
        // so quicksort should stream more near blocks.
        assert!(quick > merge, "quick {quick} vs merge {merge}");
    }

    #[test]
    fn chunk_shrinks_on_injected_alloc_failure() {
        let tl = tl_small();
        // Fail the very first near allocation: the chunk-buffer ladder must
        // halve the chunk and carry on.
        tl.install_fault_plan(tlmm_scratchpad::FaultPlan::none(1).fail_kth(FaultOp::NearAlloc, 0));
        let v = random_vec(300_000, 31);
        let input = tl.far_from_vec(v.clone());
        let clean_chunks = {
            let tl2 = tl_small();
            let input2 = tl2.far_from_vec(v.clone());
            nmsort(&tl2, input2, &NmSortConfig::default())
                .unwrap()
                .chunks
        };
        let r = nmsort(&tl, input, &NmSortConfig::default()).unwrap();
        assert_eq!(r.degradations.chunk_shrinks, 1);
        assert!(r.chunks > clean_chunks, "{} vs {}", r.chunks, clean_chunks);
        assert_sorted_matches(&r, v);
    }

    #[test]
    fn batch_gather_failure_falls_back_to_dram_direct() {
        let tl = tl_small();
        // Phase 1 of a ~6-chunk run consumes 6 far→near preflights (ingest);
        // fail the 7th, which is the first Phase-2 batch gather.
        let v = random_vec(300_000, 32);
        let probe = {
            let tl2 = tl_small();
            let input2 = tl2.far_from_vec(v.clone());
            nmsort(&tl2, input2, &NmSortConfig::default())
                .unwrap()
                .chunks
        };
        tl.install_fault_plan(
            tlmm_scratchpad::FaultPlan::none(1).fail_kth(FaultOp::FarToNear, probe as u64),
        );
        let input = tl.far_from_vec(v.clone());
        let r = nmsort(&tl, input, &NmSortConfig::default()).unwrap();
        assert_eq!(r.degradations.batch_fallbacks, 1);
        assert_sorted_matches(&r, v);
    }

    #[test]
    fn degrades_gracefully_and_never_cheapens_under_mixed_faults() {
        let v = random_vec(300_000, 33);
        let clean = {
            let tl = tl_small();
            let input = tl.far_from_vec(v.clone());
            let r = nmsort(&tl, input, &NmSortConfig::default()).unwrap();
            assert!(!r.degradations.any());
            tl.ledger().snapshot()
        };
        for seed in 0..4u64 {
            let tl = tl_small();
            tl.install_fault_plan(tlmm_scratchpad::FaultPlan::seeded(seed));
            let input = tl.far_from_vec(v.clone());
            let r = nmsort(&tl, input, &NmSortConfig::default()).unwrap();
            assert_sorted_matches(&r, v.clone());
            let s = tl.ledger().snapshot();
            // Honest accounting: faults can only add DRAM traffic.
            assert!(
                s.far_bytes >= clean.far_bytes,
                "seed {seed}: degraded {} < clean {}",
                s.far_bytes,
                clean.far_bytes
            );
            if tl.faults_injected() > 0 {
                assert!(r.degradations.any(), "seed {seed}: faults fired silently");
            }
        }
    }

    #[test]
    fn degraded_trace_records_fault_counts() {
        let tl = tl_small();
        tl.install_fault_plan(
            tlmm_scratchpad::FaultPlan::none(1)
                .fail_kth(FaultOp::FarToNear, 0)
                .fail_kth(FaultOp::NearToFar, 2),
        );
        let v = random_vec(300_000, 34);
        let input = tl.far_from_vec(v.clone());
        let r = nmsort(&tl, input, &NmSortConfig::default()).unwrap();
        assert_sorted_matches(&r, v);
        assert_eq!(tl.take_trace().faults(), 2);
    }

    #[test]
    fn plan_batches_greedy() {
        assert_eq!(plan_batches(&[5, 5, 5], 10), vec![(0, 2), (2, 3)]);
        assert_eq!(plan_batches(&[20], 10), vec![(0, 1)]);
        assert_eq!(plan_batches(&[3, 20, 3], 10), vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(plan_batches(&[], 10), Vec::<(usize, usize)>::new());
        assert_eq!(plan_batches(&[0, 0, 4], 10), vec![(0, 3)]);
    }
}
