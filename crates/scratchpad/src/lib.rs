//! User-controlled two-level main memory runtime.
//!
//! The scratchpad architecture of the paper (§VI) exposes near memory as a
//! separate physical address range reached with ordinary loads/stores; the
//! *application* decides what lives where. This crate is that programming
//! model in library form:
//!
//! * [`TwoLevel`] — a handle to a two-level memory: a capacity-limited
//!   **near** region (the scratchpad, size `M`) and an arbitrarily large
//!   **far** region (DRAM). Both are host RAM; what makes them different is
//!   the *accounting*: every transfer is charged to a
//!   [`tlmm_model::CostLedger`] in exact model units (`⌈bytes/B⌉` far
//!   blocks, `⌈bytes/ρB⌉` near blocks) and recorded in a [`trace::PhaseTrace`]
//!   that the `tlmm-memsim` crate replays through an architectural timing
//!   model.
//! * [`FarArray`] / [`NearArray`] — typed arrays living in one region.
//!   Allocating a [`NearArray`] beyond the scratchpad capacity fails, exactly
//!   like the modified `malloc` of §VI-B.2 would.
//! * Transfer and staging methods on [`TwoLevel`] ([`TwoLevel::far_to_near`],
//!   [`TwoLevel::load_near`], …): algorithms *choreograph* data movement
//!   explicitly, which is the whole point of a user-controlled hierarchy.
//! * [`StagingArena`] — the one staging path for far↔near movement:
//!   generation-checked buffers carved from scratchpad capacity, with
//!   pending transfers that a background copy retires. NMsort's DMA
//!   pipeline (§VII future work) overlaps its chunk ingests through it.
//! * [`executor::Executor`] — a worker-pool runtime arbitrating every
//!   charged transfer over a bounded pool of `p′` transfer slots
//!   (Theorem 10), with a seeded deterministic scheduler mode replayable
//!   bit-for-bit from `(seed, p, p′)`.
//! * [`trace`] — virtual-lane phase traces. Simulated parallelism (e.g. the
//!   256 cores of the paper's Fig. 4 machine) is expressed by charging work
//!   to *virtual lanes* via [`trace::with_lane`], independent of how many
//!   host threads actually execute.
//! * [`pool`] — the scoped host worker pool every real fan-out uses (the
//!   sorters and the discrete-event replay alike).
//!
//! # Example
//!
//! ```
//! use tlmm_scratchpad::TwoLevel;
//! use tlmm_model::ScratchpadParams;
//!
//! let params = ScratchpadParams::new(64, 4.0, 1 << 20, 16 << 10).unwrap();
//! let tl = TwoLevel::new(params);
//! let far = tl.far_from_vec((0u64..1000).rev().collect::<Vec<_>>());
//! let mut near = tl.near_alloc::<u64>(1000).unwrap();
//! tl.far_to_near(&far, 0..1000, &mut near, 0).unwrap();
//! let snap = tl.ledger().snapshot();
//! assert_eq!(snap.far_read_blocks, 125); // ⌈8000 B / 64 B⌉
//! assert_eq!(snap.near_write_blocks, 32); // ⌈8000 B / 256 B⌉ (ρB = 256)
//! ```

pub mod arena;
pub mod array;
pub mod backoff;
pub mod cancel;
pub mod error;
pub mod executor;
pub mod fault;
pub mod mem;
pub mod pool;
pub mod trace;

pub use arena::{ArenaBuf, ArenaStats, OffsetAlloc, StagingArena, TransferId};
pub use array::{FarArray, NearArray};
pub use backoff::{splitmix64, Backoff, RetryClass};
pub use cancel::CancelToken;
pub use error::SpError;
pub use executor::{
    ExecConfig, ExecConfigError, ExecMode, ExecReport, Executor, TransferGrant, WorkerReport,
    EXEC_SEED_ENV, EXEC_SLOTS_ENV, EXEC_WORKERS_ENV,
};
pub use fault::{
    with_faults_suppressed, FaultDecision, FaultEvent, FaultInjector, FaultKind, FaultOp,
    FaultPlan, FAULT_SEED_ENV,
};
pub use mem::TwoLevel;
pub use trace::{with_lane, LaneWork, PhaseRecord, PhaseTrace};

// Re-exported so algorithm crates can name transfer directions without
// depending on `tlmm-model` directly.
pub use tlmm_model::ledger::Dir;
