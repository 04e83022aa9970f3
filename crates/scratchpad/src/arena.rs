//! Generation-based linear staging arena with an offset allocator and
//! pending-transfer retirement.
//!
//! The ad-hoc buffer paths moved far↔near bytes through exclusive
//! [`crate::NearArray`]s: every gather owned its destination, so a chunk's
//! ingest could never proceed while the previous chunk was being sorted —
//! the overlap promised by §VI-B/§VII of the paper was not even
//! *representable*. This module replaces that with the staging-arena
//! design used by GPU upload heaps (lahar's `StagingArena`, lazy_vulkan's
//! allocator with `pending_transfers`/`pending_frees`):
//!
//! * [`OffsetAlloc`] — a first-fit offset allocator over a linear byte
//!   range with free-list coalescing. The arena's address space models
//!   scratchpad placement; the backing store is host memory, consistent
//!   with the rest of the runtime (what makes near memory "near" is the
//!   accounting, not the silicon).
//! * [`StagingArena`] — a self-growing arena carved out of scratchpad
//!   capacity. Growth is **exact-fit** (it reserves exactly the bytes the
//!   failing allocation needs, never a doubling) so `near_used_bytes`
//!   stays byte-identical to what direct `near_alloc` calls would have
//!   reserved — admission control and capacity errors see no difference.
//!   Growth beyond the configured near cap `M` is rejected up front with
//!   the typed [`tlmm_model::params::ParamError::StagingBeyondNearCap`].
//! * **Generations** — every allocation gets a fresh generation number,
//!   never reused. A transfer issued against a dropped buffer's
//!   generation fails with [`SpError::StaleGeneration`] instead of
//!   silently writing into whoever reused the offset.
//! * **Pending transfers** — every far↔near movement is issued as a
//!   [`TransferId`] and later retired. A buffer dropped while a transfer
//!   is in flight lands on the pending-free list and its offsets return
//!   to the free list only when the last transfer retires; reading a
//!   destination before retirement panics (an always-on invariant, not a
//!   debug assert).
//!
//! The capacity reserved from the scratchpad is returned when the last
//! arena handle drops (RAII, like `NearArray`), so leak checks that
//! assert `near_used_bytes() == 0` after a job keep working unchanged.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;
use tlmm_model::ledger::Dir;

use crate::error::SpError;
use crate::fault::{FaultDecision, FaultOp};
use crate::mem::TwoLevel;

// ---------------------------------------------------------------------
// Offset allocator
// ---------------------------------------------------------------------

/// First-fit offset allocator over a linear `0..capacity` byte range.
///
/// Free blocks are kept sorted by offset and coalesced on free, so a
/// fully drained arena always collapses back to one block and reuse is
/// deterministic: the same alloc/free sequence always yields the same
/// offsets (the schedule-fuzz tests rely on this).
#[derive(Debug, Default)]
pub struct OffsetAlloc {
    capacity: u64,
    used: u64,
    /// Sorted, non-adjacent `(offset, len)` free blocks.
    free: Vec<(u64, u64)>,
}

impl OffsetAlloc {
    /// An empty allocator (capacity 0 — every alloc needs a grow first).
    pub fn new() -> Self {
        Self::default()
    }

    /// Total byte range managed.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Append `bytes` of fresh capacity at the end of the range,
    /// coalescing with a trailing free block if one exists.
    pub fn grow(&mut self, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let start = self.capacity;
        self.capacity += bytes;
        self.release(start, bytes);
    }

    /// Allocate `bytes`, returning the placed offset, or `None` if no
    /// free block fits (caller decides whether to grow).
    pub fn alloc(&mut self, bytes: u64) -> Option<u64> {
        if bytes == 0 {
            // Zero-sized allocations take no space but still get a
            // distinct conceptual slot; place them at the current end.
            return Some(self.capacity);
        }
        let ix = self.free.iter().position(|&(_, len)| len >= bytes)?;
        let (off, len) = self.free[ix];
        if len == bytes {
            self.free.remove(ix);
        } else {
            self.free[ix] = (off + bytes, len - bytes);
        }
        self.used += bytes;
        Some(off)
    }

    /// Return `bytes` at `offset` to the free list, coalescing with
    /// adjacent free blocks.
    pub fn free(&mut self, offset: u64, bytes: u64) {
        if bytes == 0 {
            return;
        }
        debug_assert!(self.used >= bytes, "free of bytes never allocated");
        self.used -= bytes;
        self.release(offset, bytes);
    }

    fn release(&mut self, offset: u64, bytes: u64) {
        let ix = self
            .free
            .iter()
            .position(|&(off, _)| off > offset)
            .unwrap_or(self.free.len());
        self.free.insert(ix, (offset, bytes));
        // Coalesce with the successor, then the predecessor.
        if ix + 1 < self.free.len() && self.free[ix].0 + self.free[ix].1 == self.free[ix + 1].0 {
            self.free[ix].1 += self.free[ix + 1].1;
            self.free.remove(ix + 1);
        }
        if ix > 0 && self.free[ix - 1].0 + self.free[ix - 1].1 == self.free[ix].0 {
            self.free[ix - 1].1 += self.free[ix].1;
            self.free.remove(ix);
        }
    }

    /// Largest single free block (0 when the free list is empty).
    pub fn largest_free(&self) -> u64 {
        self.free.iter().map(|&(_, len)| len).max().unwrap_or(0)
    }

    /// Number of free blocks (fragmentation probe for tests).
    pub fn free_blocks(&self) -> usize {
        self.free.len()
    }
}

// ---------------------------------------------------------------------
// Arena
// ---------------------------------------------------------------------

/// Identifier of one pending (or already retired) arena transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TransferId(u64);

impl TransferId {
    /// The raw id (1-based issue order).
    pub fn raw(self) -> u64 {
        self.0
    }
}

#[derive(Debug)]
struct LiveSlot {
    offset: u64,
    bytes: u64,
    /// Transfers issued against this generation and not yet retired.
    inflight: u32,
    /// The owning buffer was dropped while transfers were in flight; the
    /// slot frees when the last one retires.
    free_deferred: bool,
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    generation: u64,
    dir: Dir,
    bytes: u64,
}

/// Cumulative arena statistics — cheap counters, snapshot with
/// [`StagingArena::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Allocations served (including after growth).
    pub allocs: u64,
    /// Exact-fit growth steps taken.
    pub grows: u64,
    /// Slots freed immediately on drop.
    pub frees: u64,
    /// Slots whose free was deferred behind an in-flight transfer.
    pub deferred_frees: u64,
    /// Pending transfers issued.
    pub issued: u64,
    /// Pending transfers retired.
    pub retired: u64,
    /// Synchronous transfers recorded via
    /// [`StagingArena::note_sync_transfer`] (issued and retired in one
    /// step — by definition never overlapped).
    pub sync_transfers: u64,
    /// Peak bytes allocated inside the arena.
    pub peak_used: u64,
    /// Peak capacity reserved from the scratchpad.
    pub peak_capacity: u64,
}

impl ArenaStats {
    /// Fraction of all recorded transfers that went through the pending
    /// (overlappable) path rather than the synchronous one. The flow
    /// engine reports *realized* overlap; this reports *exposed* overlap.
    pub fn overlap_fraction(&self) -> f64 {
        let total = self.retired + self.sync_transfers;
        if total == 0 {
            return 0.0;
        }
        self.retired as f64 / total as f64
    }
}

#[derive(Debug, Default)]
struct ArenaState {
    alloc: OffsetAlloc,
    live: BTreeMap<u64, LiveSlot>,
    pending: BTreeMap<u64, Pending>,
    next_gen: u64,
    next_transfer: u64,
    stats: ArenaStats,
}

#[derive(Debug)]
struct ArenaInner {
    tl: TwoLevel,
    state: Mutex<ArenaState>,
}

impl Drop for ArenaInner {
    fn drop(&mut self) {
        // Return the whole reservation; live slots (there should be none
        // — buffers hold an Arc to the inner, so they outlive us only by
        // bug) are covered by the capacity release.
        let cap = self.state.get_mut().alloc.capacity();
        if cap > 0 {
            self.tl.release_near_bytes(cap);
        }
    }
}

/// A self-growing, generation-based staging arena carved out of
/// scratchpad capacity. Cheap to clone (a handle); the underlying
/// reservation is released when the last handle *and* the last
/// [`ArenaBuf`] drop.
#[derive(Debug, Clone)]
pub struct StagingArena {
    inner: Arc<ArenaInner>,
}

impl StagingArena {
    /// An empty arena on `tl` — no capacity reserved until the first
    /// allocation.
    pub fn new(tl: &TwoLevel) -> Self {
        Self {
            inner: Arc::new(ArenaInner {
                tl: tl.clone(),
                state: Mutex::new(ArenaState::default()),
            }),
        }
    }

    /// An arena pre-grown to `bytes` of capacity.
    pub fn with_capacity(tl: &TwoLevel, bytes: u64) -> Result<Self, SpError> {
        let arena = Self::new(tl);
        arena.grow(bytes)?;
        Ok(arena)
    }

    /// Grow the arena by exactly `bytes`, validating against the near
    /// cap and reserving scratchpad capacity.
    fn grow(&self, bytes: u64) -> Result<(), SpError> {
        let mut st = self.inner.state.lock();
        let total = st.alloc.capacity() + bytes;
        self.inner
            .tl
            .params()
            .check_staging(total)
            .map_err(SpError::BadParams)?;
        self.inner.tl.reserve_near_bytes(bytes)?;
        st.alloc.grow(bytes);
        st.stats.grows += 1;
        st.stats.peak_capacity = st.stats.peak_capacity.max(st.alloc.capacity());
        Ok(())
    }

    /// Allocate a `len`-element staging buffer, growing the arena
    /// exact-fit when no free block is large enough. Subject to the same
    /// `NearAlloc` fault class as [`TwoLevel::near_alloc`], so existing
    /// degradation ladders (chunk shrinking, alloc retries) behave
    /// identically over arena-backed buffers.
    pub fn alloc_array<T: Copy + Default>(&self, len: usize) -> Result<ArenaBuf<T>, SpError> {
        if let FaultDecision::Fail(index) = self.inner.tl.preflight(FaultOp::NearAlloc) {
            return Err(SpError::FaultInjected {
                op: FaultOp::NearAlloc,
                index,
            });
        }
        let bytes = (len * std::mem::size_of::<T>()) as u64;
        {
            let st = self.inner.state.lock();
            if bytes > 0 && st.alloc.largest_free() < bytes {
                let total = st.alloc.capacity() + bytes;
                drop(st);
                // Validate + reserve outside the first lock scope; grow
                // re-locks. A concurrent grow only adds capacity, which
                // never invalidates this one.
                self.inner
                    .tl
                    .params()
                    .check_staging(total)
                    .map_err(SpError::BadParams)?;
                self.grow(bytes)?;
            }
        }
        let mut st = self.inner.state.lock();
        let offset = match st.alloc.alloc(bytes) {
            Some(off) => off,
            None => {
                // A concurrent allocation raced us to the grown block;
                // grow again under the same validation.
                drop(st);
                self.grow(bytes)?;
                st = self.inner.state.lock();
                st.alloc
                    .alloc(bytes)
                    .expect("exact-fit growth must satisfy the allocation")
            }
        };
        let generation = st.next_gen;
        st.next_gen += 1;
        st.live.insert(
            generation,
            LiveSlot {
                offset,
                bytes,
                inflight: 0,
                free_deferred: false,
            },
        );
        st.stats.allocs += 1;
        st.stats.peak_used = st.stats.peak_used.max(st.alloc.used());
        if let Some(pct) = (st.alloc.used() * 100).checked_div(st.alloc.capacity()) {
            tlmm_telemetry::histogram!("arena.occupancy_pct").record(pct);
        }
        tlmm_telemetry::counter!("arena.alloc_bytes").add(bytes);
        drop(st);
        Ok(ArenaBuf {
            data: vec![T::default(); len],
            generation,
            inner: Arc::clone(&self.inner),
        })
    }

    /// Issue a pending transfer against a live generation. Fails with
    /// [`SpError::StaleGeneration`] when the generation has been freed —
    /// the aliasing bug this arena exists to make impossible.
    pub fn issue_transfer(
        &self,
        generation: u64,
        dir: Dir,
        bytes: u64,
    ) -> Result<TransferId, SpError> {
        let mut st = self.inner.state.lock();
        match st.live.get_mut(&generation) {
            Some(slot) if !slot.free_deferred => slot.inflight += 1,
            _ => return Err(SpError::StaleGeneration { generation }),
        }
        Ok(Self::record_issue(&mut st, generation, dir, bytes))
    }

    fn record_issue(st: &mut ArenaState, generation: u64, dir: Dir, bytes: u64) -> TransferId {
        st.next_transfer += 1;
        let id = st.next_transfer;
        st.pending.insert(
            id,
            Pending {
                generation,
                dir,
                bytes,
            },
        );
        st.stats.issued += 1;
        tlmm_telemetry::counter!("arena.transfer_issued").incr();
        TransferId(id)
    }

    /// Retire a pending transfer. Exactly-once: a second retire of the
    /// same id (or a retire of an id never issued) fails with
    /// [`SpError::TransferNotPending`]. Retiring the last in-flight
    /// transfer of a dropped buffer performs its deferred free.
    pub fn retire(&self, id: TransferId) -> Result<(), SpError> {
        let mut st = self.inner.state.lock();
        let Some(p) = st.pending.remove(&id.0) else {
            return Err(SpError::TransferNotPending { id: id.0 });
        };
        let slot = st
            .live
            .get_mut(&p.generation)
            .expect("live slot outlives its pending transfers");
        slot.inflight -= 1;
        if slot.free_deferred && slot.inflight == 0 {
            let slot = st.live.remove(&p.generation).expect("just looked up");
            st.alloc.free(slot.offset, slot.bytes);
            st.stats.frees += 1;
        }
        st.stats.retired += 1;
        tlmm_telemetry::counter!("arena.transfer_retired").incr();
        drop(st);
        if tlmm_telemetry::flight::enabled() {
            let flags = match p.dir {
                Dir::Read => 0,
                Dir::Write => tlmm_telemetry::flight::FLAG_WRITE,
            };
            tlmm_telemetry::flight::arena_retire_event(id.0, p.bytes, flags);
        }
        Ok(())
    }

    /// Record a transfer that was performed synchronously (charged and
    /// copied inline): issued and retired in one step. Keeps the arena's
    /// transfer ledger complete for paths that cannot overlap — Phase 2
    /// gathers, oblivious ingest/writeback, DMA sync fallbacks.
    pub fn note_sync_transfer(&self) {
        self.inner.state.lock().stats.sync_transfers += 1;
        tlmm_telemetry::counter!("arena.sync_transfer").incr();
    }

    /// Bytes of scratchpad capacity this arena has reserved.
    pub fn capacity_bytes(&self) -> u64 {
        self.inner.state.lock().alloc.capacity()
    }

    /// Bytes currently allocated to live buffers.
    pub fn used_bytes(&self) -> u64 {
        self.inner.state.lock().alloc.used()
    }

    /// Live (not yet dropped, or drop-deferred) allocations.
    pub fn live_allocations(&self) -> usize {
        self.inner.state.lock().live.len()
    }

    /// Transfers issued and not yet retired.
    pub fn pending_transfers(&self) -> usize {
        self.inner.state.lock().pending.len()
    }

    /// Snapshot the cumulative statistics.
    pub fn stats(&self) -> ArenaStats {
        self.inner.state.lock().stats
    }

    fn release_slot(&self, generation: u64) {
        let mut st = self.inner.state.lock();
        let Some(slot) = st.live.get_mut(&generation) else {
            debug_assert!(false, "double release of generation {generation}");
            return;
        };
        if slot.inflight > 0 {
            slot.free_deferred = true;
            st.stats.deferred_frees += 1;
            tlmm_telemetry::counter!("arena.deferred_free").incr();
            return;
        }
        let slot = st.live.remove(&generation).expect("just looked up");
        st.alloc.free(slot.offset, slot.bytes);
        st.stats.frees += 1;
    }

    fn assert_settled(&self, generation: u64, what: &str) {
        let st = self.inner.state.lock();
        let slot = st
            .live
            .get(&generation)
            .expect("accessing a buffer that is still alive");
        assert!(
            slot.inflight == 0,
            "read-before-retire: {what} of arena generation {generation} \
             with {} transfer(s) still in flight",
            slot.inflight
        );
    }
}

// ---------------------------------------------------------------------
// ArenaBuf
// ---------------------------------------------------------------------

/// A typed staging buffer inside a [`StagingArena`].
///
/// Plain accessors enforce the read-before-retire invariant: touching
/// the contents while a pending transfer targets this buffer panics.
/// The transfer engine itself writes through [`ArenaBuf::transfer_fill`]
/// / [`ArenaBuf::transfer_slice_mut`], which bypass the guard (the
/// in-flight transfer *is* the writer).
#[derive(Debug)]
pub struct ArenaBuf<T> {
    data: Vec<T>,
    generation: u64,
    inner: Arc<ArenaInner>,
}

impl<T: Copy + Default> ArenaBuf<T> {
    /// Elements in the buffer.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Is the buffer empty?
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// This buffer's never-reused generation number.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The arena this buffer lives in.
    pub fn arena(&self) -> StagingArena {
        StagingArena {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Issue a pending transfer targeting this buffer.
    pub fn issue(&self, dir: Dir, bytes: u64) -> Result<TransferId, SpError> {
        self.arena().issue_transfer(self.generation, dir, bytes)
    }

    /// Read access without a ledger charge (mirrors
    /// [`crate::NearArray`]'s accessor). Panics if a pending transfer
    /// still targets this buffer — the read-before-retire guard.
    pub fn as_slice_uncharged(&self) -> &[T] {
        self.arena().assert_settled(self.generation, "read");
        &self.data
    }

    /// Write access without a ledger charge. Panics if a pending
    /// transfer still targets this buffer.
    pub fn as_mut_slice_uncharged(&mut self) -> &mut [T] {
        self.arena().assert_settled(self.generation, "write");
        &mut self.data
    }

    /// The transfer engine's write path: copy `src` into the buffer
    /// starting at `at`, bypassing the read-before-retire guard (the
    /// pending transfer is the one doing the writing). No charges — the
    /// issuer charges at issue time.
    pub fn transfer_fill(&mut self, src: &[T], at: usize) {
        self.data[at..at + src.len()].copy_from_slice(src);
    }

    /// The transfer engine's read path for outbound (near→far) pending
    /// transfers: the raw contents, guard bypassed.
    pub fn transfer_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable raw contents for in-place compute that is itself the
    /// retiring writer (sorting a chunk the moment its ingest retired is
    /// *not* this — use [`Self::as_mut_slice_uncharged`] there so the
    /// guard fires on schedule bugs).
    pub fn transfer_slice_mut(&mut self) -> &mut [T] {
        &mut self.data
    }
}

impl<T> Drop for ArenaBuf<T> {
    fn drop(&mut self) {
        StagingArena {
            inner: Arc::clone(&self.inner),
        }
        .release_slot(self.generation);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlmm_model::params::ParamError;
    use tlmm_model::ScratchpadParams;

    fn tl() -> TwoLevel {
        TwoLevel::new(ScratchpadParams::new(64, 3.0, 1 << 20, 64 << 10).unwrap())
    }

    #[test]
    fn offset_alloc_first_fit_and_coalesce() {
        let mut a = OffsetAlloc::new();
        assert_eq!(a.alloc(64), None);
        a.grow(256);
        let x = a.alloc(64).unwrap();
        let y = a.alloc(64).unwrap();
        let z = a.alloc(64).unwrap();
        assert_eq!((x, y, z), (0, 64, 128));
        assert_eq!(a.used(), 192);
        // Free the middle, then the first: blocks coalesce into 0..128.
        a.free(y, 64);
        a.free(x, 64);
        assert_eq!(a.free_blocks(), 2); // [0..128) and [192..256)
        assert_eq!(a.largest_free(), 128);
        // First-fit places a 128-byte alloc back at 0.
        assert_eq!(a.alloc(128).unwrap(), 0);
        // Drain everything: one block again.
        a.free(z, 64);
        a.free(0, 128);
        assert_eq!(a.free_blocks(), 1);
        assert_eq!(a.largest_free(), 256);
        assert_eq!(a.used(), 0);
    }

    #[test]
    fn offset_alloc_coalesces_across_grow_boundary() {
        let mut a = OffsetAlloc::new();
        a.grow(64);
        let x = a.alloc(64).unwrap();
        a.grow(64);
        a.free(x, 64);
        // The freed head merges with the grown tail.
        assert_eq!(a.free_blocks(), 1);
        assert_eq!(a.largest_free(), 128);
    }

    #[test]
    fn arena_reserves_and_releases_scratchpad_capacity() {
        let tl = tl();
        {
            let arena = StagingArena::new(&tl);
            let a = arena.alloc_array::<u64>(100).unwrap();
            assert_eq!(tl.near_used_bytes(), 800);
            assert_eq!(arena.capacity_bytes(), 800);
            drop(a);
            // Freed slot returns to the free list; capacity is retained
            // for reuse, so the reservation stands…
            assert_eq!(arena.used_bytes(), 0);
            assert_eq!(tl.near_used_bytes(), 800);
            // …and reuse does not grow.
            let b = arena.alloc_array::<u64>(100).unwrap();
            assert_eq!(tl.near_used_bytes(), 800);
            assert_eq!(arena.stats().grows, 1);
            drop(b);
        }
        // …until the arena itself drops.
        assert_eq!(tl.near_used_bytes(), 0);
    }

    #[test]
    fn generations_are_never_reused_even_when_offsets_are() {
        let tl = tl();
        let arena = StagingArena::new(&tl);
        let a = arena.alloc_array::<u64>(8).unwrap();
        let g0 = a.generation();
        drop(a);
        let b = arena.alloc_array::<u64>(8).unwrap();
        assert_ne!(b.generation(), g0);
        // The dead generation is unusable.
        let err = arena.issue_transfer(g0, Dir::Read, 64).unwrap_err();
        assert_eq!(err, SpError::StaleGeneration { generation: g0 });
    }

    #[test]
    fn retire_is_exactly_once() {
        let tl = tl();
        let arena = StagingArena::new(&tl);
        let buf = arena.alloc_array::<u64>(8).unwrap();
        let id = buf.issue(Dir::Read, 64).unwrap();
        arena.retire(id).unwrap();
        let err = arena.retire(id).unwrap_err();
        assert_eq!(err, SpError::TransferNotPending { id: id.raw() });
        // Retiring an id that was never issued is the same error.
        let err = arena.retire(TransferId(999)).unwrap_err();
        assert_eq!(err, SpError::TransferNotPending { id: 999 });
    }

    #[test]
    #[should_panic(expected = "read-before-retire")]
    fn reading_a_pending_destination_panics() {
        let tl = tl();
        let arena = StagingArena::new(&tl);
        let buf = arena.alloc_array::<u64>(8).unwrap();
        let _id = buf.issue(Dir::Read, 64).unwrap();
        let _ = buf.as_slice_uncharged();
    }

    #[test]
    fn drop_with_inflight_transfer_defers_the_free_until_retire() {
        let tl = tl();
        let arena = StagingArena::new(&tl);
        let buf = arena.alloc_array::<u64>(8).unwrap();
        let id = buf.issue(Dir::Read, 64).unwrap();
        drop(buf);
        // Offsets are NOT reusable yet: the in-flight transfer still
        // owns them.
        assert_eq!(arena.used_bytes(), 64);
        assert_eq!(arena.live_allocations(), 1);
        assert_eq!(arena.stats().deferred_frees, 1);
        arena.retire(id).unwrap();
        assert_eq!(arena.used_bytes(), 0);
        assert_eq!(arena.live_allocations(), 0);
        assert_eq!(arena.stats().frees, 1);
    }

    #[test]
    fn issue_against_drop_deferred_generation_is_stale() {
        let tl = tl();
        let arena = StagingArena::new(&tl);
        let buf = arena.alloc_array::<u64>(8).unwrap();
        let g = buf.generation();
        let id = buf.issue(Dir::Read, 64).unwrap();
        drop(buf);
        let err = arena.issue_transfer(g, Dir::Read, 64).unwrap_err();
        assert_eq!(err, SpError::StaleGeneration { generation: g });
        arena.retire(id).unwrap();
    }

    #[test]
    fn growth_beyond_near_cap_is_typed() {
        let tl = tl();
        let arena = StagingArena::new(&tl);
        // M = 1 MiB; ask for 2 MiB of u64s.
        let err = arena.alloc_array::<u64>(1 << 18).unwrap_err();
        assert_eq!(
            err,
            SpError::BadParams(ParamError::StagingBeyondNearCap {
                requested: 2 << 20,
                cap: 1 << 20,
            })
        );
        // The failed growth reserved nothing.
        assert_eq!(tl.near_used_bytes(), 0);
        assert_eq!(arena.capacity_bytes(), 0);
    }

    #[test]
    fn growth_respects_other_near_tenants() {
        let tl = tl();
        // A direct near allocation holds most of the scratchpad.
        let _resident = tl.near_alloc::<u64>(120_000).unwrap(); // 960 KB
        let arena = StagingArena::new(&tl);
        // Staging validation passes (128 KB ≤ M) but the reservation
        // itself must fail: capacity is shared with the resident tenant.
        let err = arena.alloc_array::<u64>(16 << 10).unwrap_err();
        assert!(matches!(err, SpError::NearCapacityExceeded { .. }), "{err}");
        assert_eq!(arena.capacity_bytes(), 0);
    }

    #[test]
    fn transfer_fill_bypasses_guard_and_lands_bytes() {
        let tl = tl();
        let arena = StagingArena::new(&tl);
        let mut buf = arena.alloc_array::<u64>(4).unwrap();
        let id = buf.issue(Dir::Read, 32).unwrap();
        buf.transfer_fill(&[1, 2], 1);
        arena.retire(id).unwrap();
        assert_eq!(buf.as_slice_uncharged(), &[0, 1, 2, 0]);
    }

    #[test]
    fn stats_and_overlap_fraction() {
        let tl = tl();
        let arena = StagingArena::new(&tl);
        let buf = arena.alloc_array::<u64>(8).unwrap();
        let id = buf.issue(Dir::Read, 64).unwrap();
        arena.retire(id).unwrap();
        arena.note_sync_transfer();
        arena.note_sync_transfer();
        let s = arena.stats();
        assert_eq!(s.issued, 1);
        assert_eq!(s.retired, 1);
        assert_eq!(s.sync_transfers, 2);
        assert!((s.overlap_fraction() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.peak_used, 64);
        assert_eq!(s.peak_capacity, 64);
    }

    #[test]
    fn near_alloc_fault_class_applies_to_arena_allocs() {
        use crate::fault::FaultPlan;
        let tl = tl();
        tl.install_fault_plan(FaultPlan::none(7).fail_kth(FaultOp::NearAlloc, 0));
        let arena = StagingArena::new(&tl);
        let err = arena.alloc_array::<u64>(8).unwrap_err();
        assert!(err.is_injected(), "{err}");
        tl.clear_faults();
        arena.alloc_array::<u64>(8).unwrap();
    }
}
