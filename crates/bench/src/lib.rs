//! Shared experiment harness for the table/figure binaries.
//!
//! Every binary in `src/bin/` regenerates one artifact of the paper's
//! evaluation (see DESIGN.md §4 for the index). This library holds the
//! common plumbing: the experiment-scale memory parameters, one
//! parameterized runner ([`run_sort`]) that executes a sort and hands back
//! its phase trace, ledger and size so the binaries can replay the same run
//! on many machine configurations, and the [`artifact`] module that writes
//! each binary's text and [`tlmm_telemetry::RunReport`] JSON under
//! `results/`, and the [`cli`] helpers that turn malformed arguments into
//! exit code 2.

use serde::{Deserialize, Serialize};
use tlmm_core::baseline::{baseline_sort, BaselineConfig};
use tlmm_core::nmsort::{nmsort, DegradationStats, NmSortConfig};
use tlmm_core::oblivious::{spms_sort, squaresort_sort, ObliviousConfig};
use tlmm_core::SortError;
use tlmm_model::{CostSnapshot, ScratchpadParams};
use tlmm_scratchpad::{ExecConfig, ExecMode, ExecReport, FaultPlan, PhaseTrace, TwoLevel};
use tlmm_workloads::{generate, Workload};

pub mod artifact;
pub mod cli;

/// Experiment-scale model parameters.
///
/// The paper's node has a multi-GB scratchpad that can hold "several copies
/// of an array of 10 million 64-bit integers" (§V-A); chunking is exercised
/// by bounding NMsort's chunk size rather than shrinking the array. `rho`
/// only affects *timing* (and the ledger's near-block units), never the
/// byte trace, so one run can be replayed on machines with different
/// scratchpad bandwidths.
pub fn experiment_params(rho: f64) -> ScratchpadParams {
    ScratchpadParams::new(64, rho, 256 << 20, 36 << 20).expect("valid experiment params")
}

/// Fault and degradation summary of one measured run, in the shape the
/// result-file JSON wants (attach with `RunReport::section("degradations",
/// …)` so fault-matrix artifacts are diffable, not just pass/fail).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunDegradations {
    /// Fault seed the run was driven by (0 when no plan was installed —
    /// the `Option` is flattened because a fired fault count of zero
    /// already distinguishes clean runs).
    pub fault_seed: u64,
    /// Injected (aborting) faults the runtime fired.
    pub faults_injected: u64,
    /// Injected retransmission delays the runtime fired.
    pub faults_delayed: u64,
    /// Fault events recorded in the phase trace (what memsim replays).
    pub trace_faults: u64,
    /// Phase-1 chunk-size halvings.
    pub chunk_shrinks: u64,
    /// Retried small near allocations.
    pub alloc_retries: u64,
    /// Re-staged Phase-1 transfers (aborted attempts charged in full).
    pub transfer_retries: u64,
    /// Transfers charged twice after an injected delay.
    pub transfer_delays: u64,
    /// Chunk-sorter staging streams re-read after stage faults.
    pub stage_restages: u64,
    /// Operations forced through with injection suppressed.
    pub forced_ops: u64,
    /// Phase-2 batches merged straight from DRAM.
    pub batch_fallbacks: u64,
    /// Oversized-bucket parts merged straight from DRAM.
    pub dram_direct_parts: u64,
    /// DMA-overlapped transfers demoted to blocking synchronous copies.
    pub dma_fallbacks: u64,
}

impl RunDegradations {
    fn from_parts(fault_seed: u64, tl: &TwoLevel, stats: DegradationStats, faults: u64) -> Self {
        let (injected, delayed) = match tl.fault_injector() {
            Some(inj) => (inj.injected(), inj.delayed()),
            None => (0, 0),
        };
        RunDegradations {
            fault_seed,
            faults_injected: injected,
            faults_delayed: delayed,
            trace_faults: faults,
            chunk_shrinks: stats.chunk_shrinks,
            alloc_retries: stats.alloc_retries,
            transfer_retries: stats.transfer_retries,
            transfer_delays: stats.transfer_delays,
            stage_restages: stats.stage_restages,
            forced_ops: stats.forced_ops,
            batch_fallbacks: stats.batch_fallbacks,
            dram_direct_parts: stats.dram_direct_parts,
            dma_fallbacks: stats.dma_fallbacks,
        }
    }

    /// Did the run degrade at all (fault fired or any ladder rung taken)?
    pub fn any(&self) -> bool {
        self.faults_injected
            + self.faults_delayed
            + self.trace_faults
            + self.chunk_shrinks
            + self.alloc_retries
            + self.transfer_retries
            + self.transfer_delays
            + self.stage_restages
            + self.forced_ops
            + self.batch_fallbacks
            + self.dram_direct_parts
            + self.dma_fallbacks
            > 0
    }
}

/// Outcome of one measured sort run.
pub struct SortRun {
    /// The recorded phase trace (replayable on any machine config).
    pub trace: PhaseTrace,
    /// Ledger totals in model units.
    pub ledger: CostSnapshot,
    /// Output is sorted (verified before returning).
    pub n: usize,
    /// Fault/degradation summary (all-zero for clean runs).
    pub degradations: RunDegradations,
    /// Transfer-slot arbitration report when an executor was installed
    /// (explicitly or via `TLMM_EXEC_SEED`); `None` otherwise.
    pub exec: Option<ExecReport>,
}

/// Errors surfaced by the harness runners.
#[derive(Debug)]
pub enum HarnessError {
    /// The sort itself failed.
    Sort(SortError),
    /// The output failed verification: `output[index] > output[index + 1]`.
    NotSorted {
        /// First out-of-order position.
        index: usize,
    },
}

impl From<SortError> for HarnessError {
    fn from(e: SortError) -> Self {
        HarnessError::Sort(e)
    }
}

impl core::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            HarnessError::Sort(e) => write!(f, "sort failed: {e}"),
            HarnessError::NotSorted { index } => {
                write!(f, "harness: output not sorted at index {index}")
            }
        }
    }
}

impl std::error::Error for HarnessError {}

/// Verify `v` is non-decreasing; report the first violation instead of
/// panicking so binaries can surface the failure with context.
pub fn check_sorted(v: &[u64]) -> Result<(), HarnessError> {
    match v.windows(2).position(|w| w[0] > w[1]) {
        None => Ok(()),
        Some(index) => Err(HarnessError::NotSorted { index }),
    }
}

/// The engine registry [`run_sort`] dispatches over. The enum itself lives
/// in `tlmm-model` (the dependency root) so the service layer can share it;
/// re-exported here so every bench binary keeps its `tlmm_bench::Engine`
/// path.
pub use tlmm_model::Engine;

/// Former name of [`Engine`]; kept so existing call sites (and muscle
/// memory) keep compiling — type-alias enum variants are path-compatible.
pub type SortAlgo = Engine;

/// Parameters for one measured sort run.
#[derive(Debug, Clone, Copy)]
pub struct SortSpec {
    /// Algorithm variant.
    pub algo: SortAlgo,
    /// Elements to sort (random u64).
    pub n: usize,
    /// Virtual lanes (simulated cores).
    pub lanes: usize,
    /// Host worker threads for real fan-out (1 = inline). Never affects
    /// simulated charges — only wall clock. Forced to 1 under a
    /// deterministic executor, which owns the schedule.
    pub threads: usize,
    /// NMsort chunk bound in elements (ignored by the baseline).
    pub chunk_elems: Option<usize>,
    /// Workload seed.
    pub seed: u64,
    /// When set, install [`FaultPlan::seeded`] with this seed on the run's
    /// `TwoLevel` before sorting — the sort must still produce verified
    /// output by degrading gracefully.
    pub fault_seed: Option<u64>,
}

/// Run one sort per `spec` on a fresh experiment-scale [`TwoLevel`],
/// verify the output, and return the recorded trace and ledger.
///
/// This is the single runner behind [`run_nmsort`], [`run_nmsort_dma`] and
/// [`run_baseline`]; the setup (params, workload, verification, trace
/// harvest) lives only here.
pub fn run_sort(spec: &SortSpec) -> Result<SortRun, HarnessError> {
    // `TLMM_FAULT_SEED` turns any harness binary into a degraded run;
    // an explicit `fault_seed` on the spec wins over the environment.
    let plan = spec
        .fault_seed
        .map(FaultPlan::seeded)
        .or_else(FaultPlan::from_env);
    run_sort_with_plan(spec, plan)
}

/// Like [`run_sort`] but with an explicit [`FaultPlan`] instead of the
/// standard seeded profile — the `fault_matrix` binary sweeps targeted
/// profiles (alloc-only, transfer-only, DMA-only, …) through this.
/// `spec.fault_seed` is ignored; the plan's own seed is recorded.
///
/// `TLMM_EXEC_SEED` (+ `TLMM_EXEC_WORKERS`/`TLMM_EXEC_SLOTS`) turns the run
/// into a deterministic-executor run, exactly as the fault-seed variable
/// turns it into a degraded one.
pub fn run_sort_with_plan(
    spec: &SortSpec,
    plan: Option<FaultPlan>,
) -> Result<SortRun, HarnessError> {
    run_sort_full(spec, plan, ExecConfig::from_env(), experiment_params(4.0))
}

/// Like [`run_sort`] but under an explicit executor configuration — the
/// `fig_corescale` contention sweep drives `p × p′` cells through this.
pub fn run_sort_with_exec(
    spec: &SortSpec,
    exec: Option<ExecConfig>,
) -> Result<SortRun, HarnessError> {
    let plan = spec
        .fault_seed
        .map(FaultPlan::seeded)
        .or_else(FaultPlan::from_env);
    run_sort_full(spec, plan, exec, experiment_params(4.0))
}

/// Like [`run_sort`] but on an explicitly sized [`TwoLevel`] — the
/// `fig_crossover` sweep varies the near-memory size per cell through this
/// (every other runner pins the paper's experiment-scale parameters).
pub fn run_sort_on(spec: &SortSpec, params: ScratchpadParams) -> Result<SortRun, HarnessError> {
    let plan = spec
        .fault_seed
        .map(FaultPlan::seeded)
        .or_else(FaultPlan::from_env);
    run_sort_full(spec, plan, ExecConfig::from_env(), params)
}

fn run_sort_full(
    spec: &SortSpec,
    plan: Option<FaultPlan>,
    exec: Option<ExecConfig>,
    params: ScratchpadParams,
) -> Result<SortRun, HarnessError> {
    let tl = TwoLevel::new(params);
    // A deterministic executor owns the schedule: host threads racing the
    // virtual arbiter would make the recorded waits order-dependent, so
    // rayon is switched off and stage parallelism is the executor's.
    let deterministic_exec = exec
        .as_ref()
        .map(|c| c.mode == ExecMode::Deterministic)
        .unwrap_or(false);
    let executor = exec.map(|cfg| {
        tl.install_executor(cfg)
            .expect("harness executor config must validate")
    });
    let fault_seed = plan.as_ref().map(|p| p.seed).unwrap_or(0);
    if let Some(plan) = plan {
        tl.install_fault_plan(plan);
    }
    let input = tl.far_from_vec(generate(Workload::UniformU64, spec.n, spec.seed));
    let (output, stats) = match spec.algo {
        SortAlgo::NmSort | SortAlgo::NmSortDma => {
            let cfg = NmSortConfig {
                sim_lanes: spec.lanes,
                chunk_elems: spec.chunk_elems,
                threads: if deterministic_exec { 1 } else { spec.threads },
                use_dma: spec.algo == SortAlgo::NmSortDma,
                ..Default::default()
            };
            let report = nmsort(&tl, input, &cfg)?;
            (report.output, report.degradations)
        }
        SortAlgo::Baseline => {
            let cfg = BaselineConfig {
                sim_lanes: spec.lanes,
                threads: if deterministic_exec { 1 } else { spec.threads },
                ..Default::default()
            };
            // The baseline has no degradation ladder of its own; injector
            // counts below still record any faults it absorbed.
            (
                baseline_sort(&tl, input, &cfg)?.output,
                DegradationStats::default(),
            )
        }
        SortAlgo::Spms | SortAlgo::SquareSort => {
            // The oblivious engines take no chunk bound — their recursion
            // shape depends only on n. Fault resilience is re-streaming
            // (charged in full), not a ladder, so degradation stats stay
            // with the injector counts harvested below.
            let cfg = ObliviousConfig {
                lanes: spec.lanes,
                threads: if deterministic_exec { 1 } else { spec.threads },
                ..Default::default()
            };
            let (output, _report) = match spec.algo {
                SortAlgo::Spms => spms_sort(&tl, input, &cfg)?,
                _ => squaresort_sort(&tl, input, &cfg)?,
            };
            (output, DegradationStats::default())
        }
    };
    check_sorted(output.as_slice_uncharged())?;
    let trace = tl.take_trace();
    let degradations = RunDegradations::from_parts(fault_seed, &tl, stats, trace.faults());
    Ok(SortRun {
        trace,
        ledger: tl.ledger().snapshot(),
        n: spec.n,
        degradations,
        exec: executor.map(|ex| ex.report()),
    })
}

/// Run NMsort on `n` random u64s with `lanes` virtual lanes; chunks are
/// bounded to `chunk_elems` to exercise the two-phase structure.
pub fn run_nmsort(
    n: usize,
    lanes: usize,
    chunk_elems: usize,
    seed: u64,
) -> Result<SortRun, HarnessError> {
    run_sort(&SortSpec {
        threads: 1,
        algo: SortAlgo::NmSort,
        n,
        lanes,
        chunk_elems: Some(chunk_elems),
        seed,
        fault_seed: None,
    })
}

/// Run NMsort with DMA-overlapped ingest (the §VII improvement).
pub fn run_nmsort_dma(
    n: usize,
    lanes: usize,
    chunk_elems: usize,
    seed: u64,
) -> Result<SortRun, HarnessError> {
    run_sort(&SortSpec {
        threads: 1,
        algo: SortAlgo::NmSortDma,
        n,
        lanes,
        chunk_elems: Some(chunk_elems),
        seed,
        fault_seed: None,
    })
}

/// Run the GNU-style far-memory baseline.
pub fn run_baseline(n: usize, lanes: usize, seed: u64) -> Result<SortRun, HarnessError> {
    run_sort(&SortSpec {
        threads: 1,
        algo: SortAlgo::Baseline,
        n,
        lanes,
        chunk_elems: None,
        seed,
        fault_seed: None,
    })
}

/// The Table-I scale: 10 M random 64-bit integers on a 256-core node, with
/// NMsort chunks of 2 M elements (the scratchpad holds several copies of
/// the array; bounding the chunk exercises Phase 2's batched merges).
pub const TABLE1_N: usize = 10_000_000;
/// Simulated cores for the headline experiments.
pub const TABLE1_LANES: usize = 256;
/// NMsort chunk bound for the headline experiments.
pub const TABLE1_CHUNK: usize = 2_000_000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_runs_small() {
        let nm = run_nmsort(100_000, 16, 20_000, 1).expect("nmsort run");
        assert!(nm.trace.phases.len() > 4);
        assert!(nm.ledger.near_blocks() > 0);
        let base = run_baseline(100_000, 16, 1).expect("baseline run");
        assert_eq!(base.ledger.near_blocks(), 0);
        // At toy scale the baseline's runs fit its per-lane cache share, so
        // its far traffic is the 4-pass minimum — NMsort's should be close
        // (the Table-I gap appears at paper scale; see tests/end_to_end.rs).
        assert!(nm.ledger.far_bytes < 2 * base.ledger.far_bytes);
    }

    #[test]
    fn engine_registry_round_trips() {
        for e in Engine::ALL {
            assert_eq!(Engine::parse(e.name()), Some(e));
        }
        assert_eq!(Engine::parse("quantum"), None);
        assert!(Engine::NmSort.uses_chunks() && !Engine::Spms.uses_chunks());
        assert!(Engine::Spms.is_oblivious() && !Engine::Baseline.is_oblivious());
    }

    #[test]
    fn oblivious_engines_route_through_the_harness() {
        for algo in [Engine::Spms, Engine::SquareSort] {
            let spec = SortSpec {
                threads: 1,
                algo,
                n: 50_000,
                lanes: 8,
                chunk_elems: None,
                seed: 2,
                fault_seed: None,
            };
            let run = run_sort(&spec).expect("oblivious run");
            assert!(run.ledger.far_bytes >= 2 * 50_000 * 8, "{algo:?}");
            assert!(run.trace.phases.iter().any(|p| p.name.contains("sort")));
            // Same spec under a fault plan still sorts, never cheaper.
            let faulted = run_sort(&SortSpec {
                threads: 1,
                fault_seed: Some(5),
                ..spec
            })
            .expect("faulted oblivious run degrades, not fails");
            assert!(faulted.ledger.far_bytes >= run.ledger.far_bytes, "{algo:?}");
        }
    }

    #[test]
    fn check_sorted_reports_first_violation() {
        assert!(check_sorted(&[]).is_ok());
        assert!(check_sorted(&[1, 2, 2, 3]).is_ok());
        match check_sorted(&[1, 3, 2, 0]) {
            Err(HarnessError::NotSorted { index: 1 }) => {}
            other => panic!("expected NotSorted at 1, got {other:?}"),
        }
    }

    #[test]
    fn dma_spec_routes_through_same_runner() {
        let dma = run_nmsort_dma(50_000, 8, 10_000, 2).expect("dma run");
        assert!(dma.trace.phases.iter().any(|p| p.overlappable));
    }

    #[test]
    fn exec_spec_arbitrates_without_changing_charges() {
        let spec = SortSpec {
            threads: 1,
            algo: SortAlgo::NmSort,
            n: 60_000,
            lanes: 8,
            chunk_elems: Some(15_000),
            seed: 5,
            fault_seed: None,
        };
        let free =
            run_sort_with_exec(&spec, Some(ExecConfig::deterministic(8, 8, 3))).expect("p'=p run");
        let starved =
            run_sort_with_exec(&spec, Some(ExecConfig::deterministic(8, 1, 3))).expect("p'=1 run");
        let free_r = free.exec.as_ref().expect("executor report");
        let starved_r = starved.exec.as_ref().expect("executor report");
        // Private slots never wait; one slot under eight lanes must.
        assert_eq!(free_r.total_wait_units, 0);
        assert!(starved_r.total_wait_units > 0);
        // Same demand either way, and arbitration never changes the ledger.
        assert_eq!(free_r.total_bytes, starved_r.total_bytes);
        assert_eq!(free.ledger, starved.ledger);
        // Serialized transfers cannot beat the per-slot rate.
        assert!(starved_r.throughput_units() <= 1.0 + 1e-9);
    }

    #[test]
    fn faulted_spec_sorts_and_surfaces_degradations() {
        let spec = SortSpec {
            threads: 1,
            algo: SortAlgo::NmSort,
            n: 100_000,
            lanes: 8,
            chunk_elems: Some(20_000),
            seed: 3,
            fault_seed: Some(7),
        };
        // run_sort already verified the output; a degraded run must still
        // return Ok. The summary must be serializable (it feeds the
        // results/<name>.json section) and carry the seed.
        let run = run_sort(&spec).expect("faulted run degrades, not fails");
        assert_eq!(run.degradations.fault_seed, 7);
        let json = serde::json::to_string(&run.degradations).expect("summary serializes");
        assert!(json.contains("\"fault_seed\""));
        let clean = run_sort(&SortSpec {
            threads: 1,
            fault_seed: None,
            ..spec
        })
        .expect("clean run");
        assert_eq!(clean.degradations.fault_seed, 0);
        assert_eq!(clean.degradations.faults_injected, 0);
        // Honest accounting: injected faults never make the run cheaper.
        assert!(run.ledger.far_bytes >= clean.ledger.far_bytes);
    }
}
