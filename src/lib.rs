//! **two-level-mem** — a reproduction of *"Two-Level Main Memory Co-Design:
//! Multi-Threaded Algorithmic Primitives, Analysis, and Simulation"*
//! (IPDPS 2015) as a Rust workspace.
//!
//! This façade crate re-exports the workspace so applications can depend on
//! one crate:
//!
//! * [`model`] — the algorithmic scratchpad model (`B`, `ρB`, `M`, `Z`),
//!   cost ledger, theorems, and the memory-bound inequality.
//! * [`scratchpad`] — the user-controlled two-level memory runtime:
//!   capacity-checked near allocation, charged transfers, the staging
//!   arena that NMsort's DMA pipeline overlaps its ingests through, phase
//!   traces.
//! * [`core`] — the sorting algorithms: NMsort, the sequential scratchpad
//!   sample sort, the external mergesort engine, and the GNU-style
//!   single-level baseline.
//! * [`memsim`] — the architectural simulator (Fig. 4 machine, analytic and
//!   discrete-event replay, cache and DRAM models).
//! * [`kmeans`] — scratchpad-accelerated k-means (§VII extension).
//! * [`workloads`] — seeded input generators.
//! * [`analysis`] — predicted-vs-measured validation, speedups, frontiers.
//!
//! # Example: sort on a simulated two-level memory
//!
//! ```
//! use two_level_mem::prelude::*;
//!
//! // A small two-level memory: 64 B far blocks, rho = 4, M = 4 MiB, Z = 64 KiB.
//! let params = ScratchpadParams::new(64, 4.0, 4 << 20, 64 << 10).unwrap();
//! let tl = TwoLevel::new(params);
//!
//! // Sort a million random u64s with NMsort.
//! let data = two_level_mem::workloads::generate(Workload::UniformU64, 1_000_000, 42);
//! let input = tl.far_from_vec(data);
//! let report = nmsort(&tl, input, &NmSortConfig::default()).unwrap();
//! assert!(report.output.as_slice_uncharged().windows(2).all(|w| w[0] <= w[1]));
//!
//! // Replay the recorded phase trace on the paper's Fig. 4 machine.
//! let machine = MachineConfig::fig4(256, 4.0);
//! let sim = simulate_flow(&tl.take_trace(), &machine);
//! println!("simulated time: {:.3} s, DRAM accesses: {}, scratchpad accesses: {}",
//!          sim.seconds, sim.far_accesses, sim.near_accesses);
//! ```

pub use tlmm_analysis as analysis;
pub use tlmm_core as core;
pub use tlmm_kmeans as kmeans;
pub use tlmm_memsim as memsim;
pub use tlmm_model as model;
pub use tlmm_scratchpad as scratchpad;
pub use tlmm_tile as tile;
pub use tlmm_workloads as workloads;

/// The names most applications need.
pub mod prelude {
    pub use tlmm_core::baseline::{baseline_sort, BaselineConfig};
    pub use tlmm_core::nmsort::{
        nmsort, ChunkSorter, DegradationStats, NmSortConfig, NmSortReport,
    };
    pub use tlmm_core::oblivious::{spms_sort, squaresort_sort, ObliviousConfig, ObliviousReport};
    pub use tlmm_core::parsort::{par_scratchpad_sort, ParSortConfig};
    pub use tlmm_core::select::{select_kth, SelectConfig};
    pub use tlmm_core::seqsort::{seq_scratchpad_sort, SeqSortConfig};
    pub use tlmm_core::SortError;
    pub use tlmm_kmeans::{kmeans_far, kmeans_near, kmeans_tiled, KMeansConfig};
    pub use tlmm_memsim::des::{simulate_des, DesOptions};
    pub use tlmm_memsim::{simulate_flow, MachineConfig, SimReport};
    pub use tlmm_model::{CostSnapshot, Engine, ScratchpadParams};
    pub use tlmm_scratchpad::{FarArray, FaultOp, FaultPlan, NearArray, TwoLevel, FAULT_SEED_ENV};
    pub use tlmm_tile::{gemm_far, gemm_near, GemmConfig, Matrix};
    pub use tlmm_workloads::{generate, Workload};
}
