//! **Fault matrix** — graceful-degradation sweep across fault profiles.
//!
//! Runs NMsort at a small scale under a matrix of fault profiles
//! (clean, alloc-only, transfer-only, DMA-only, mixed) × seeds, verifying
//! every run sorts correctly and reporting the far-traffic overhead each
//! profile pays relative to the clean run. Honest accounting means an
//! injected fault can only add far traffic, never remove it — the sweep
//! asserts that invariant on every cell.
//!
//! Writes `results/fault_matrix.txt` (rendered matrix) and
//! `results/fault_matrix.json` (telemetry report with one `degradations`
//! section per profile, so fault-matrix artifacts are diffable rather than
//! pass/fail).
//!
//! Run: `cargo run --release -p tlmm-bench --bin experiments -- fault_matrix [N [SEEDS]]`
//! (defaults: 200000 keys, 3 seeds)

use std::num::{NonZeroU64, NonZeroUsize};
use tlmm_analysis::table::Table;
use tlmm_bench::cli::{Args, Outcome};
use tlmm_bench::{artifact, outln, run_sort, Engine, Overrides, RunDegradations, SortSpec};
use tlmm_scratchpad::FaultPlan;
use tlmm_telemetry::RunReport;

/// One row of the matrix: a named fault profile.
struct Profile {
    name: &'static str,
    /// DMA aborts only fire on the DMA-overlapped ingest path.
    algo: Engine,
    make: fn(u64) -> Option<FaultPlan>,
}

fn alloc_only(seed: u64) -> Option<FaultPlan> {
    Some(FaultPlan {
        near_alloc_fail_permille: 120,
        ..FaultPlan::none(seed)
    })
}

fn transfer_only(seed: u64) -> Option<FaultPlan> {
    Some(FaultPlan {
        transfer_fail_permille: 30,
        transfer_delay_permille: 20,
        ..FaultPlan::none(seed)
    })
}

fn dma_only(seed: u64) -> Option<FaultPlan> {
    Some(FaultPlan {
        dma_abort_permille: 300,
        ..FaultPlan::none(seed)
    })
}

const PROFILES: &[Profile] = &[
    Profile {
        name: "clean",
        algo: Engine::NmSort,
        make: |_| None,
    },
    Profile {
        name: "alloc",
        algo: Engine::NmSort,
        make: alloc_only,
    },
    Profile {
        name: "transfer",
        algo: Engine::NmSort,
        make: transfer_only,
    },
    Profile {
        name: "dma",
        algo: Engine::NmSortDma,
        make: dma_only,
    },
    Profile {
        name: "mixed",
        algo: Engine::NmSort,
        make: |seed| Some(FaultPlan::seeded(seed)),
    },
    // The oblivious engines share the fault machinery with zero hooks of
    // their own: their resilience is charged re-streaming, so the same
    // overhead-≥-0 invariant must hold on their rows.
    Profile {
        name: "spms-mixed",
        algo: Engine::Spms,
        make: |seed| Some(FaultPlan::seeded(seed)),
    },
    Profile {
        name: "squaresort-mixed",
        algo: Engine::SquareSort,
        make: |seed| Some(FaultPlan::seeded(seed)),
    },
];

/// Aggregate of one profile across all seeds.
#[derive(Default)]
struct ProfileAgg {
    runs: u64,
    faults_injected: u64,
    faults_delayed: u64,
    degraded_runs: u64,
    far_bytes: u64,
    last: RunDegradations,
}

pub fn run(mut args: Args) -> Outcome {
    let n = args
        .positional::<NonZeroUsize>("key count")
        .map_or(200_000, NonZeroUsize::get);
    let n_seeds = args
        .positional::<NonZeroU64>("seed count")
        .map_or(3, NonZeroU64::get);
    args.finish();
    let lanes = 16;
    let chunk = (n / 5).max(1000);
    eprintln!(
        "[fault_matrix] {} profiles x {n_seeds} seeds, n={n}, lanes={lanes}, chunk={chunk}",
        PROFILES.len()
    );

    // Same workload for every cell; only faults vary.
    let spec = |algo| SortSpec::new(algo, n, lanes, 0xFA).chunked(chunk);
    let mut aggs: Vec<ProfileAgg> = PROFILES.iter().map(|_| ProfileAgg::default()).collect();
    for seed in 0..n_seeds {
        for (profile, agg) in PROFILES.iter().zip(aggs.iter_mut()) {
            let plan = Overrides::plan((profile.make)(seed));
            let run = run_sort(&spec(profile.algo), plan)
                .map_err(|e| format!("{} seed {seed}: {e}", profile.name))?;
            agg.runs += 1;
            agg.faults_injected += run.degradations.faults_injected;
            agg.faults_delayed += run.degradations.faults_delayed;
            agg.degraded_runs += u64::from(run.degradations.any());
            agg.far_bytes += run.ledger.far_bytes;
            agg.last = run.degradations;
        }
    }

    // Clean baselines are deterministic (same workload, no plan): one per
    // engine, so every row's overhead is honest-accounting relative to
    // *its own* algorithm, not to NMsort's traffic profile.
    let mut clean_far_by_algo: Vec<(Engine, f64)> = Vec::new();
    for profile in PROFILES {
        if clean_far_by_algo.iter().any(|(a, _)| *a == profile.algo) {
            continue;
        }
        let run = run_sort(&spec(profile.algo), Overrides::plan(None))
            .map_err(|e| format!("{} clean baseline: {e}", profile.name))?;
        clean_far_by_algo.push((profile.algo, run.ledger.far_bytes as f64));
    }
    let clean_far_of = |algo: Engine| -> f64 {
        clean_far_by_algo
            .iter()
            .find(|(a, _)| *a == algo)
            .expect("baseline computed for every profile algo")
            .1
    };
    let mut out = String::new();
    outln!(
        out,
        "\nFault matrix — n={n}, {n_seeds} seeds per profile (far overhead \
         vs each engine's own clean run)\n"
    );
    let mut t = Table::new([
        "profile",
        "runs",
        "injected",
        "delayed",
        "degraded",
        "far overhead",
    ]);
    for (profile, agg) in PROFILES.iter().zip(&aggs) {
        let far = agg.far_bytes as f64 / agg.runs as f64;
        let clean_far = clean_far_of(profile.algo);
        let overhead = far / clean_far - 1.0;
        assert!(
            overhead >= -1e-9,
            "{}: degraded run cheaper than clean ({far} < {clean_far})",
            profile.name
        );
        t.row(vec![
            profile.name.to_string(),
            agg.runs.to_string(),
            agg.faults_injected.to_string(),
            agg.faults_delayed.to_string(),
            format!("{}/{}", agg.degraded_runs, agg.runs),
            format!("{:+.2}%", overhead * 100.0),
        ]);
    }
    outln!(out, "{}", t.render());
    outln!(
        out,
        "every cell sorted correctly; far overhead is the honest-accounting \
         cost of the degradation ladders (never negative)."
    );

    let mut report = RunReport::collect("fault_matrix")
        .meta("n", n)
        .meta("n_seeds", n_seeds)
        .meta("lanes", lanes)
        .meta("chunk_elems", chunk);
    for (profile, agg) in PROFILES.iter().zip(&aggs) {
        report = report.section(&format!("degradations_{}", profile.name), &agg.last);
    }
    artifact::emit("fault_matrix", &out, report)?;
    Ok(())
}
