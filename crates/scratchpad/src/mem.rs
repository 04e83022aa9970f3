//! The [`TwoLevel`] memory handle: allocation, transfers, staging, phases.

use crate::array::{FarArray, NearArray};
use crate::cancel::CancelToken;
use crate::error::SpError;
use crate::executor::{ExecConfig, ExecConfigError, Executor};
use crate::fault::{self, FaultDecision, FaultInjector, FaultOp, FaultPlan};
use crate::trace::{PhaseTrace, TraceRecorder};
use parking_lot::Mutex;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use tlmm_model::ledger::Dir;
use tlmm_model::ScratchpadParams;
use tlmm_telemetry::flight::{FLAG_FAR, FLAG_RANDOM};

/// Shared state behind a [`TwoLevel`] handle.
#[derive(Debug)]
pub struct TwoLevelInner {
    pub(crate) params: ScratchpadParams,
    pub(crate) recorder: TraceRecorder,
    pub(crate) near_used: AtomicU64,
    pub(crate) faults: Mutex<Option<Arc<FaultInjector>>>,
    /// Fast-path gate so un-faulted runs never take the `faults` lock.
    pub(crate) has_faults: AtomicBool,
    pub(crate) executor: Mutex<Option<Arc<Executor>>>,
    /// Fast-path gate so executor-free runs never take the `executor` lock.
    pub(crate) has_executor: AtomicBool,
    /// The current job's cancel token plus the ledger unit count at install
    /// time (deadline budgets are measured from there).
    pub(crate) cancel: Mutex<Option<(CancelToken, u64)>>,
    /// Fast-path gate so cancel-free runs never take the `cancel` lock.
    pub(crate) has_cancel: AtomicBool,
}

/// Handle to a two-level main memory. Cheap to clone; clones share the
/// ledger, trace and scratchpad budget.
///
/// All methods are `&self` and thread-safe. Algorithms move raw slices and
/// charge what they move through [`Self::charge_far_io`],
/// [`Self::charge_near_io`] and their random-access siblings: a far
/// transfer in `B`-byte blocks, a near transfer in `ρB`-byte blocks. A
/// transfer between the two memories passes through the cache, so it
/// charges both sides. [`Self::load_far`] and [`Self::load_near`] stage a
/// range into a host `Vec` standing in for the cache, which is free like
/// cache hits in the model.
#[derive(Debug, Clone)]
pub struct TwoLevel {
    inner: Arc<TwoLevelInner>,
}

fn range_check(r: &Range<usize>, len: usize) -> Result<(), SpError> {
    if r.start > r.end || r.end > len {
        Err(SpError::RangeOutOfBounds {
            start: r.start,
            end: r.end,
            len,
        })
    } else {
        Ok(())
    }
}

impl TwoLevel {
    /// Create a two-level memory with the given model parameters; panics on
    /// invalid parameters. Prefer [`Self::try_new`] at API edges where the
    /// parameters come from a caller.
    pub fn new(params: ScratchpadParams) -> Self {
        Self::try_new(params).expect("invalid scratchpad parameters")
    }

    /// Create a two-level memory, surfacing invalid parameters (zero
    /// scratchpad, near block larger than `M`, bad ρ, …) as a typed
    /// [`SpError::BadParams`] instead of a panic now or an arithmetic
    /// underflow later inside `near_alloc`.
    pub fn try_new(params: ScratchpadParams) -> Result<Self, SpError> {
        params.validate().map_err(SpError::BadParams)?;
        Ok(Self {
            inner: Arc::new(TwoLevelInner {
                params,
                recorder: TraceRecorder::new(),
                near_used: AtomicU64::new(0),
                faults: Mutex::new(None),
                has_faults: AtomicBool::new(false),
                executor: Mutex::new(None),
                has_executor: AtomicBool::new(false),
                cancel: Mutex::new(None),
                has_cancel: AtomicBool::new(false),
            }),
        })
    }

    /// The model parameters this memory was built with.
    pub fn params(&self) -> &ScratchpadParams {
        &self.inner.params
    }

    /// The block-transfer ledger (model-unit ground truth): the phase
    /// recorder, whose [`TraceRecorder::snapshot`] sums its lane records.
    pub fn ledger(&self) -> &TraceRecorder {
        &self.inner.recorder
    }

    /// Bytes currently allocated in the scratchpad.
    pub fn near_used_bytes(&self) -> u64 {
        self.inner.near_used.load(Ordering::Relaxed)
    }

    /// Bytes still available in the scratchpad.
    pub fn near_available_bytes(&self) -> u64 {
        self.inner
            .params
            .scratchpad_bytes
            .saturating_sub(self.near_used_bytes())
    }

    /// How many `T`s could still be allocated in the scratchpad.
    pub fn near_available_elems<T>(&self) -> usize {
        (self.near_available_bytes() as usize) / std::mem::size_of::<T>().max(1)
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// Install `plan` on this memory; every hooked operation from now on
    /// consults the returned injector. Replaces any previous plan.
    pub fn install_fault_plan(&self, plan: FaultPlan) -> Arc<FaultInjector> {
        let inj = Arc::new(FaultInjector::new(plan));
        *self.inner.faults.lock() = Some(Arc::clone(&inj));
        self.inner.has_faults.store(true, Ordering::Release);
        inj
    }

    /// Install the standard seeded profile from `TLMM_FAULT_SEED` if the
    /// variable is set; returns the injector when it is.
    pub fn install_faults_from_env(&self) -> Option<Arc<FaultInjector>> {
        FaultPlan::from_env().map(|p| self.install_fault_plan(p))
    }

    /// Remove any installed fault plan.
    pub fn clear_faults(&self) {
        *self.inner.faults.lock() = None;
        self.inner.has_faults.store(false, Ordering::Release);
    }

    /// The currently installed injector, if any.
    pub fn fault_injector(&self) -> Option<Arc<FaultInjector>> {
        if !self.inner.has_faults.load(Ordering::Acquire) {
            return None;
        }
        self.inner.faults.lock().clone()
    }

    /// Failures injected so far (0 when no plan is installed).
    pub fn faults_injected(&self) -> u64 {
        self.fault_injector().map(|i| i.injected()).unwrap_or(0)
    }

    /// Run `f` with fault injection disabled on this thread — the final
    /// rung of a degradation ladder after bounded retries.
    pub fn with_faults_suppressed<R>(&self, f: impl FnOnce() -> R) -> R {
        fault::with_faults_suppressed(f)
    }

    /// Consult the fault plan for one logical operation of class `op`
    /// *without* moving any data. Algorithm kernels that charge explicitly
    /// (rather than calling the transfer methods) gate their staging steps
    /// on this, so injected faults reach the raw-slice hot paths too.
    ///
    /// A `Fail`/`Delay` decision is recorded in the open phase's fault
    /// count and in telemetry; honest recharging is the caller's job
    /// (the caller knows the volume it was about to move).
    pub fn preflight(&self, op: FaultOp) -> FaultDecision {
        if !self.inner.has_faults.load(Ordering::Acquire) || fault::faults_suppressed() {
            return FaultDecision::Proceed;
        }
        let Some(inj) = self.inner.faults.lock().clone() else {
            return FaultDecision::Proceed;
        };
        let d = inj.decide(op);
        match d {
            FaultDecision::Proceed => {}
            FaultDecision::Fail(_) => {
                self.inner.recorder.record_fault();
                tlmm_telemetry::counter!("fault.injected").incr();
                if tlmm_telemetry::flight::enabled() {
                    tlmm_telemetry::flight::fault_event(&format!("{op:?}.fail"));
                }
                match op {
                    FaultOp::NearAlloc => tlmm_telemetry::counter!("fault.near_alloc").incr(),
                    FaultOp::FarToNear => tlmm_telemetry::counter!("fault.far_to_near").incr(),
                    FaultOp::NearToFar => tlmm_telemetry::counter!("fault.near_to_far").incr(),
                    FaultOp::FarStage => tlmm_telemetry::counter!("fault.far_stage").incr(),
                    FaultOp::NearStage => tlmm_telemetry::counter!("fault.near_stage").incr(),
                    FaultOp::DmaIssue => tlmm_telemetry::counter!("fault.dma_issue").incr(),
                }
            }
            FaultDecision::Delay(_) => {
                self.inner.recorder.record_fault();
                tlmm_telemetry::counter!("fault.delayed").incr();
                if tlmm_telemetry::flight::enabled() {
                    tlmm_telemetry::flight::fault_event(&format!("{op:?}.delay"));
                }
            }
        }
        d
    }

    // ------------------------------------------------------------------
    // Cooperative cancellation (phase-boundary checkpoints)
    // ------------------------------------------------------------------

    /// Install `token` as the current job's cancel/deadline token; any
    /// unit budget on the token is measured from the ledger's charge total
    /// at this instant. Replaces any previous token.
    pub fn install_cancel(&self, token: CancelToken) {
        let snap = self.inner.recorder.snapshot();
        *self.inner.cancel.lock() = Some((token, snap.far_bytes + snap.near_bytes));
        self.inner.has_cancel.store(true, Ordering::Release);
    }

    /// Remove any installed cancel token (end of job).
    pub fn clear_cancel(&self) {
        *self.inner.cancel.lock() = None;
        self.inner.has_cancel.store(false, Ordering::Release);
    }

    /// The currently installed cancel token, if any.
    pub fn cancel_token(&self) -> Option<CancelToken> {
        if !self.inner.has_cancel.load(Ordering::Acquire) {
            return None;
        }
        self.inner.cancel.lock().as_ref().map(|(t, _)| t.clone())
    }

    /// Cooperative cancellation point. Sort engines call this **at phase
    /// boundaries**; it returns [`SpError::Cancelled`] when the installed
    /// token was cancelled or its charged-unit deadline budget has been
    /// exhausted (the token is then cancelled too, so every later
    /// checkpoint agrees). Near allocations held by the caller unwind via
    /// RAII on the resulting early return, leaving the arena reusable.
    /// Free when no token is installed (one atomic load).
    pub fn checkpoint(&self) -> Result<(), SpError> {
        if !self.inner.has_cancel.load(Ordering::Acquire) {
            return Ok(());
        }
        let guard = self.inner.cancel.lock();
        let Some((token, base_units)) = guard.as_ref() else {
            return Ok(());
        };
        if token.is_cancelled() {
            tlmm_telemetry::counter!("cancel.checkpoint_trips").incr();
            return Err(SpError::Cancelled);
        }
        if let Some(budget) = token.unit_budget() {
            let snap = self.inner.recorder.snapshot();
            let spent = (snap.far_bytes + snap.near_bytes).saturating_sub(*base_units);
            if spent >= budget {
                token.cancel();
                tlmm_telemetry::counter!("cancel.deadline_trips").incr();
                return Err(SpError::Cancelled);
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Executor (Theorem 10 `p′` transfer arbitration)
    // ------------------------------------------------------------------

    /// Install an executor on this memory; from now on every charged
    /// transfer contends for its `p′` transfer slots and stage fan-outs
    /// routed through [`Self::run_stage`] execute on its workers. Replaces
    /// any previous executor. Arbitration never touches the charge ledger —
    /// only waits (trace `slot_wait_units` + telemetry) are added — so the
    /// ledger stays byte-identical to an executor-free run.
    pub fn install_executor(&self, cfg: ExecConfig) -> Result<Arc<Executor>, ExecConfigError> {
        cfg.validate()?;
        let ex = Arc::new(Executor::new(cfg));
        *self.inner.executor.lock() = Some(Arc::clone(&ex));
        self.inner.has_executor.store(true, Ordering::Release);
        Ok(ex)
    }

    /// Install a deterministic executor from `TLMM_EXEC_SEED` (plus
    /// `TLMM_EXEC_WORKERS` / `TLMM_EXEC_SLOTS`) if set; returns the
    /// executor when one was installed.
    pub fn install_executor_from_env(&self) -> Option<Arc<Executor>> {
        ExecConfig::from_env().and_then(|cfg| self.install_executor(cfg).ok())
    }

    /// Remove any installed executor.
    pub fn clear_executor(&self) {
        *self.inner.executor.lock() = None;
        self.inner.has_executor.store(false, Ordering::Release);
    }

    /// The currently installed executor, if any.
    pub fn executor(&self) -> Option<Arc<Executor>> {
        if !self.inner.has_executor.load(Ordering::Acquire) {
            return None;
        }
        self.inner.executor.lock().clone()
    }

    /// Execute one stage of tasks: on the installed executor's worker pool
    /// (seeded-permutation sequential in deterministic mode, OS threads in
    /// host mode) when one is installed, otherwise sequentially in the
    /// given order. Tasks handle their own lane attribution.
    pub fn run_stage<'env>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'env>>) {
        match self.executor() {
            Some(ex) => ex.run_tasks(tasks),
            None => {
                for t in tasks {
                    t();
                }
            }
        }
    }

    /// Arbitrate one charged transfer of `bytes` over the executor's
    /// transfer slots (no-op without an executor). The caller books the
    /// grant's virtual wait with the charge and holds the grant across it,
    /// so that in host mode `p′` genuinely bounds concurrent charged
    /// operations.
    #[inline]
    fn arbitrate(&self, bytes: u64) -> Option<crate::executor::TransferGrant> {
        if !self.inner.has_executor.load(Ordering::Acquire) {
            return None;
        }
        let ex = self.inner.executor.lock().clone()?;
        Some(ex.begin_transfer(crate::trace::current_lane(), bytes))
    }

    // ------------------------------------------------------------------
    // Allocation
    // ------------------------------------------------------------------

    /// Move a host vector into far memory. Free: the data is *defined* to
    /// start in DRAM, exactly like a freshly produced input array.
    pub fn far_from_vec<T: Copy>(&self, v: Vec<T>) -> FarArray<T> {
        FarArray {
            data: v,
            owner: Arc::clone(&self.inner),
        }
    }

    /// Allocate a zero-initialised far array. Far memory is arbitrarily
    /// large; this cannot fail.
    pub fn far_alloc<T: Copy + Default>(&self, len: usize) -> FarArray<T> {
        self.far_from_vec(vec![T::default(); len])
    }

    /// Allocate a near (scratchpad) array, failing if capacity `M` would be
    /// exceeded — the modified `malloc` of §VI-B.2.
    pub fn near_alloc<T: Copy + Default>(&self, len: usize) -> Result<NearArray<T>, SpError> {
        if let FaultDecision::Fail(index) = self.preflight(FaultOp::NearAlloc) {
            return Err(SpError::FaultInjected {
                op: FaultOp::NearAlloc,
                index,
            });
        }
        let bytes = (len * std::mem::size_of::<T>()) as u64;
        let cap = self.inner.params.scratchpad_bytes;
        // Reserve optimistically; roll back on overflow.
        let prev = self.inner.near_used.fetch_add(bytes, Ordering::Relaxed);
        if prev + bytes > cap {
            self.inner.near_used.fetch_sub(bytes, Ordering::Relaxed);
            return Err(SpError::NearCapacityExceeded {
                requested: bytes,
                available: cap.saturating_sub(prev),
            });
        }
        Ok(NearArray {
            data: vec![T::default(); len],
            reserved_bytes: bytes,
            owner: Arc::clone(&self.inner),
        })
    }

    /// Reserve `bytes` of scratchpad capacity without materialising an
    /// array — the staging arena's growth path. Same optimistic
    /// reserve/rollback protocol (and the same error numbers) as
    /// [`Self::near_alloc`], so arena growth is indistinguishable from a
    /// direct allocation in capacity accounting.
    pub(crate) fn reserve_near_bytes(&self, bytes: u64) -> Result<(), SpError> {
        let cap = self.inner.params.scratchpad_bytes;
        let prev = self.inner.near_used.fetch_add(bytes, Ordering::Relaxed);
        if prev + bytes > cap {
            self.inner.near_used.fetch_sub(bytes, Ordering::Relaxed);
            return Err(SpError::NearCapacityExceeded {
                requested: bytes,
                available: cap.saturating_sub(prev),
            });
        }
        Ok(())
    }

    /// Return `bytes` of scratchpad capacity reserved with
    /// [`Self::reserve_near_bytes`].
    pub(crate) fn release_near_bytes(&self, bytes: u64) {
        self.inner.near_used.fetch_sub(bytes, Ordering::Relaxed);
    }

    // ------------------------------------------------------------------
    // Charging primitives
    // ------------------------------------------------------------------

    /// Book one charge — the only write it makes — on the current lane of
    /// the open phase: `blocks` model-unit transfers carrying `payload`
    /// bytes, arbitrated for and occupying `occupied` channel bytes. `flags`
    /// are the flight recorder's bits; [`FLAG_FAR`] also picks the level.
    /// The flight trace carries the payload, so it cross-checks against
    /// the ledger byte-for-byte, while the grant's timing reflects the
    /// occupancy (they differ for random access).
    fn charge(&self, flags: u32, dir: Dir, blocks: u64, occupied: u64, payload: u64) {
        let grant = self.arbitrate(occupied);
        let wait = grant.as_ref().map_or(0, |g| g.wait_units);
        self.inner.recorder.charge(|w| {
            w.slot_wait_units += wait;
            w.book(flags & FLAG_FAR != 0, dir, blocks, occupied, payload);
        });
        if tlmm_telemetry::flight::enabled() {
            let flags = match dir {
                Dir::Read => flags,
                Dir::Write => flags | tlmm_telemetry::flight::FLAG_WRITE,
            };
            let timing = grant.as_ref().and_then(|g| g.timing);
            tlmm_telemetry::flight::transfer_event(payload, flags, timing);
        }
    }

    /// Record `n` RAM-model operations (comparisons, arithmetic).
    pub fn charge_compute(&self, n: u64) {
        self.inner.recorder.charge(|w| w.compute_ops += n);
        if tlmm_telemetry::flight::enabled() {
            tlmm_telemetry::flight::compute_event(n);
        }
    }

    // Algorithm kernels operate on raw slices and charge explicitly through
    // these primitives, mirroring exactly the staging they logically perform
    // but without the extra copies.

    /// Charge a contiguous far-memory transfer of `bytes` bytes
    /// (`⌈bytes/B⌉` blocks).
    pub fn charge_far_io(&self, dir: Dir, bytes: u64) {
        let blocks = self.inner.params.far_blocks_for(bytes);
        self.charge(FLAG_FAR, dir, blocks, bytes, bytes);
        tlmm_telemetry::histogram!("scratchpad.far.transfer_bytes").record(bytes);
    }

    /// Charge a contiguous near-memory transfer of `bytes` bytes
    /// (`⌈bytes/ρB⌉` blocks).
    pub fn charge_near_io(&self, dir: Dir, bytes: u64) {
        let blocks = self.inner.params.near_blocks_for(bytes);
        self.charge(0, dir, blocks, bytes, bytes);
        tlmm_telemetry::histogram!("scratchpad.near.transfer_bytes").record(bytes);
    }

    /// Charge `accesses` *random* far-memory accesses moving `bytes` bytes
    /// in total: each random access costs a full block regardless of how few
    /// bytes it uses (e.g. gathering a random sample, §III-A), and occupies
    /// the channels for that full block.
    pub fn charge_far_random(&self, dir: Dir, accesses: u64, bytes: u64) {
        let occupied = accesses * self.inner.params.block_bytes;
        self.charge(FLAG_FAR | FLAG_RANDOM, dir, accesses, occupied, bytes);
    }

    /// Charge `accesses` random near-memory accesses moving `bytes` bytes.
    pub fn charge_near_random(&self, dir: Dir, accesses: u64, bytes: u64) {
        let occupied = accesses * self.inner.params.near_block_bytes();
        self.charge(FLAG_RANDOM, dir, accesses, occupied, bytes);
    }

    // ------------------------------------------------------------------
    // Staging into the cache (one side charged)
    // ------------------------------------------------------------------

    /// Stream `src[range]` into the cache-resident buffer `dst` (cleared
    /// first). Charges a near read.
    pub fn load_near<T: Copy>(
        &self,
        src: &NearArray<T>,
        range: Range<usize>,
        dst: &mut Vec<T>,
    ) -> Result<(), SpError> {
        range_check(&range, src.data.len())?;
        dst.clear();
        dst.extend_from_slice(&src.data[range.clone()]);
        self.charge_near_io(Dir::Read, (range.len() * std::mem::size_of::<T>()) as u64);
        Ok(())
    }

    /// Stream `src[range]` into the cache-resident buffer `dst` (cleared
    /// first). Charges a far read.
    pub fn load_far<T: Copy>(
        &self,
        src: &FarArray<T>,
        range: Range<usize>,
        dst: &mut Vec<T>,
    ) -> Result<(), SpError> {
        range_check(&range, src.data.len())?;
        dst.clear();
        dst.extend_from_slice(&src.data[range.clone()]);
        self.charge_far_io(Dir::Read, (range.len() * std::mem::size_of::<T>()) as u64);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Phases
    // ------------------------------------------------------------------

    /// Begin a named phase; subsequent charges land in it. Returns a guard
    /// that ends the phase when dropped.
    pub fn phase(&self, name: &str) -> PhaseGuard<'_> {
        self.inner.recorder.begin_phase(name);
        PhaseGuard { tl: self }
    }

    /// Begin a named phase without a guard.
    pub fn begin_phase(&self, name: &str) {
        self.inner.recorder.begin_phase(name);
    }

    /// End the open phase.
    pub fn end_phase(&self) {
        self.inner.recorder.end_phase();
    }

    /// Mark the open phase overlappable (its transfers may proceed behind
    /// the next phase's compute — DMA semantics).
    pub fn mark_phase_overlappable(&self) {
        self.inner.recorder.mark_overlappable();
    }

    /// Snapshot the phase trace recorded so far.
    pub fn trace(&self) -> PhaseTrace {
        self.inner.recorder.trace()
    }

    /// Take the phase trace and clear the recorded phases; the ledger keeps
    /// counting.
    pub fn take_trace(&self) -> PhaseTrace {
        self.inner.recorder.take_trace()
    }

    /// Reset ledger and trace (e.g. after a warm-up run). Scratchpad
    /// allocations are untouched.
    pub fn reset_accounting(&self) {
        self.inner.recorder.reset();
    }
}

/// Ends the phase it guards when dropped.
pub struct PhaseGuard<'a> {
    tl: &'a TwoLevel,
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        self.tl.end_phase();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::with_lane;

    fn tl() -> TwoLevel {
        // B=64, rho=4 (near block 256B), M=1MiB, Z=16KiB.
        TwoLevel::new(ScratchpadParams::new(64, 4.0, 1 << 20, 16 << 10).unwrap())
    }

    #[test]
    fn near_alloc_respects_capacity() {
        let tl = tl();
        let a = tl.near_alloc::<u64>((1 << 20) / 8).unwrap(); // fills M
        assert!(tl.near_alloc::<u64>(1).is_err());
        drop(a);
        assert!(tl.near_alloc::<u64>(1).is_ok());
    }

    #[test]
    fn near_alloc_error_reports_availability() {
        let tl = tl();
        let _a = tl.near_alloc::<u8>((1 << 20) - 100).unwrap();
        match tl.near_alloc::<u8>(200) {
            Err(SpError::NearCapacityExceeded {
                requested,
                available,
            }) => {
                assert_eq!(requested, 200);
                assert_eq!(available, 100);
            }
            other => panic!("expected capacity error, got {other:?}"),
        }
    }

    #[test]
    fn io_charges_round_each_side_to_its_block() {
        let tl = tl();
        // A 4096-byte far→near transfer: 64 far blocks read, 16 near
        // blocks written.
        tl.charge_far_io(Dir::Read, 4096);
        tl.charge_near_io(Dir::Write, 4096);
        // Partial blocks round up on each side: 40 bytes is one block.
        tl.charge_far_io(Dir::Write, 40);
        tl.charge_near_io(Dir::Read, 257);
        let s = tl.ledger().snapshot();
        assert_eq!(s.far_read_blocks, 64);
        assert_eq!(s.far_write_blocks, 1);
        assert_eq!(s.near_write_blocks, 16);
        assert_eq!(s.near_read_blocks, 2);
        assert_eq!(s.far_bytes, 4096 + 40);
        assert_eq!(s.near_bytes, 4096 + 257);
    }

    #[test]
    fn random_access_occupies_whole_blocks_but_books_its_payload() {
        let tl = tl();
        tl.charge_far_random(Dir::Read, 3, 24);
        tl.charge_near_random(Dir::Write, 2, 16);
        let s = tl.ledger().snapshot();
        assert_eq!((s.far_read_blocks, s.far_bytes), (3, 24));
        assert_eq!((s.near_write_blocks, s.near_bytes), (2, 16));
        let lane = tl.take_trace().phases[0].lanes[0];
        assert_eq!(lane.far_read_bytes, 3 * 64);
        assert_eq!(lane.near_write_bytes, 2 * 256);
        assert_eq!(lane.cost(), s);
    }

    #[test]
    fn staging_charges_one_side_only() {
        let tl = tl();
        let near = {
            let mut a = tl.near_alloc::<u64>(128).unwrap();
            a.as_mut_slice_uncharged()
                .iter_mut()
                .enumerate()
                .for_each(|(i, v)| *v = i as u64);
            a
        };
        let mut buf = Vec::new();
        tl.load_near(&near, 32..64, &mut buf).unwrap();
        assert_eq!(buf.len(), 32);
        assert_eq!(buf[0], 32);
        let s = tl.ledger().snapshot();
        assert_eq!(s.near_read_blocks, 1); // 256 bytes = exactly one rho*B block
        assert_eq!(s.far_blocks(), 0);
        assert_eq!(s.near_write_blocks, 0);
    }

    #[test]
    fn out_of_bounds_is_reported_not_panicking() {
        let tl = tl();
        let far = tl.far_from_vec(vec![1u8; 10]);
        let near = tl.near_alloc::<u8>(10).unwrap();
        let mut buf = Vec::new();
        assert!(matches!(
            tl.load_far(&far, 5..15, &mut buf),
            Err(SpError::RangeOutOfBounds { .. })
        ));
        assert!(matches!(
            tl.load_near(&near, 0..11, &mut buf),
            Err(SpError::RangeOutOfBounds { .. })
        ));
        // Nothing charged on failure.
        assert_eq!(tl.ledger().snapshot().total_blocks(), 0);
    }

    #[test]
    fn phases_collect_lane_work() {
        let tl = tl();
        {
            let _p = tl.phase("ingest");
            with_lane(1, || {
                tl.charge_far_io(Dir::Read, 8192);
                tl.charge_near_io(Dir::Write, 8192);
            });
        }
        {
            let _p = tl.phase("compute");
            tl.charge_compute(500);
        }
        let t = tl.take_trace();
        assert_eq!(t.phases.len(), 2);
        assert_eq!(t.phases[0].name, "ingest");
        assert_eq!(t.phases[0].lanes[1].far_read_bytes, 8192);
        assert_eq!(t.phases[0].lanes[1].near_write_blocks, 32);
        assert!(t.phases[0].lanes[0].is_idle());
        assert_eq!(t.phases[1].total().compute_ops, 500);
    }

    #[test]
    fn reset_accounting_clears_everything() {
        let tl = tl();
        let far = tl.far_from_vec(vec![0u8; 64]);
        let mut buf = Vec::new();
        tl.load_far(&far, 0..64, &mut buf).unwrap();
        tl.reset_accounting();
        assert_eq!(tl.ledger().snapshot().total_blocks(), 0);
        assert!(tl.take_trace().phases.is_empty());
    }

    #[test]
    fn clone_shares_budget_and_ledger() {
        let tl = tl();
        let tl2 = tl.clone();
        let _a = tl.near_alloc::<u8>(1 << 20).unwrap();
        assert!(tl2.near_alloc::<u8>(1).is_err());
        let far = tl2.far_from_vec(vec![0u8; 64]);
        let mut buf = Vec::new();
        tl2.load_far(&far, 0..64, &mut buf).unwrap();
        assert_eq!(tl.ledger().snapshot().far_read_blocks, 1);
    }

    #[test]
    fn concurrent_transfers_charge_losslessly() {
        let tl = tl();
        let far = tl.far_from_vec(vec![1u64; 64 * 128]);
        std::thread::scope(|s| {
            for t in 0..8 {
                let tl = tl.clone();
                let far = &far;
                s.spawn(move || {
                    with_lane(t, || {
                        let mut buf = Vec::new();
                        for i in 0..16 {
                            let start = (t * 16 + i) * 64;
                            tl.load_far(far, start..start + 64, &mut buf).unwrap();
                        }
                    })
                });
            }
        });
        // 128 loads of 512 bytes = 8 far blocks each.
        assert_eq!(tl.ledger().snapshot().far_read_blocks, 128 * 8);
        let t = tl.trace();
        assert_eq!(t.total().far_read_bytes, 128 * 512);
        assert_eq!(t.phases[0].active_lanes(), 8);
    }
}
