//! **parallel_bench** — paper-scale multi-threaded sort sweep
//! (`BENCH_parallel.json`).
//!
//! Table I evaluates sorts at 10M–100M keys across core counts; this
//! harness is the repo's matching record. It sweeps
//! `engine ∈ {nmsort, spms} × n × threads ∈ {1, 2, 4, 8}` with virtual
//! lanes fixed at 8, measuring two independent axes per cell:
//!
//! * **wall** — host wall clock of the full harness run with
//!   `SortSpec::threads` worker threads (median of the measured
//!   iterations, after `WARMUP` untimed ones; the per-thread *speedup* is
//!   the median of per-iteration ratios, pairing each `t`-thread run with
//!   the 1-thread run of the same iteration). Host-dependent; recorded
//!   with `host_cores` and only asserted when the host actually has ≥ 8
//!   cores. A cell whose thread count exceeds the host's cores is
//!   labelled `wall_oversubscribed` instead of `wall`.
//! * **sim_flow** — simulated flow time of the recorded (host-thread-
//!   independent) trace replayed on the paper's Fig. 4 node restricted to
//!   `t` cores. Deterministic, so these speedups are what `perf_gate`
//!   diffs against the committed smoke baseline.
//!
//! In-binary invariants, asserted every run:
//!
//! * `CostSnapshot` ledgers are **byte-identical** across all host thread
//!   counts (the worker pool performs no charging), and
//! * byte-identical with SIMD dispatch forced off (`TLMM_NO_SIMD`
//!   equivalent) — kernels charge from the data, never from which code
//!   path executed. See DESIGN.md §15.
//! * NMsort's simulated 8-core flow speedup is ≥ 2.5× at the largest
//!   full-mode size (the Table I regime); wall clock must match when the
//!   host has the cores to show it.
//!
//! Output: `BENCH_parallel.json` at the repo root (full mode, the
//! committed record) or `<results>/BENCH_parallel_smoke.json` (smoke
//! mode, diffed by `perf_gate --baseline BENCH_parallel_smoke.json`),
//! plus `results/parallel_bench.{txt,json}` via the artifact plumbing.
//!
//! Run: `cargo run --release -p tlmm-bench --bin experiments -- parallel_bench [--smoke]`

use std::time::Instant;
use tlmm_bench::bench_file::{median, BenchFile, Cell, SweepInfo};
use tlmm_bench::cli::{Args, Outcome};
use tlmm_bench::{artifact, outln, run_sort, Engine, Overrides, SortSpec};
use tlmm_core::kernels::simd;
use tlmm_core::pool::host_threads;
use tlmm_memsim::{simulate_flow, MachineConfig};
use tlmm_telemetry::RunReport;

/// Virtual lanes for every cell: fixed so the recorded trace (and hence
/// the ledger) is identical along the whole thread axis.
const LANES: usize = 8;
/// Host thread axis (the paper's per-node core sweep, scaled down).
const THREADS: [usize; 4] = [1, 2, 4, 8];
/// Scratchpad bandwidth expansion for the replay machine (paper's 8×).
const RHO: f64 = 8.0;
/// Engines under test: the aware two-phase sort and the cache-oblivious
/// competitor running under the same ledger.
const ENGINES: [Engine; 2] = [Engine::NmSort, Engine::Spms];
/// Untimed iterations before the measured ones: the first sorts of a
/// process pay its page faults and allocator growth.
const WARMUP: usize = 1;

fn spec(engine: Engine, n: usize, threads: usize) -> SortSpec {
    SortSpec {
        threads,
        ..SortSpec::new(engine, n, LANES, 0xBA11)
    }
}

/// One `(engine, n)` group: `(WARMUP + iters) × |THREADS|` harness runs,
/// the last `iters` of each thread count timed, plus one SIMD-disabled
/// run, with every ledger compared byte-for-byte.
struct GroupResult {
    wall_ms: Vec<f64>,      // per THREADS index, median
    wall_speedup: Vec<f64>, // per THREADS index, median of ratios
    sim_secs: Vec<f64>,     // per THREADS index (deterministic)
    sim_speedup: Vec<f64>,  // per THREADS index
}

fn run_group(engine: Engine, n: usize, iters: usize, asserted: &mut Vec<String>) -> GroupResult {
    let name = engine.name();
    // Wall medians and per-iteration ratio collection.
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); THREADS.len()];
    let mut ratios: Vec<Vec<f64>> = vec![Vec::new(); THREADS.len()];
    let mut ledger_json: Option<String> = None;
    let mut trace_for_sim = None;
    for iter in 0..WARMUP + iters {
        let mut wall_1t = f64::NAN;
        for (ti, &t) in THREADS.iter().enumerate() {
            let t0 = Instant::now();
            let run = run_sort(&spec(engine, n, t), Overrides::default())
                .expect("parallel_bench sort failed");
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            if ti == 0 {
                wall_1t = ms;
            }
            if iter >= WARMUP {
                walls[ti].push(ms);
                ratios[ti].push(wall_1t / ms);
            }
            // Ledger must not depend on host threads (the pool performs
            // no simulated charging) — byte-identical, not just equal.
            let json = serde::json::to_string(&run.ledger).expect("ledger serializes");
            match &ledger_json {
                None => ledger_json = Some(json),
                Some(first) => assert_eq!(
                    &json, first,
                    "{name}/{n}: ledger diverged at threads={t} iter={iter}"
                ),
            }
            if iter == 0 && ti == 0 {
                trace_for_sim = Some(run.trace);
            }
        }
    }

    // SIMD dispatch must not touch the ledger either: one more 1-thread
    // run with the vector path forced off.
    let prior = simd::enabled();
    simd::set_enabled(false);
    let off = run_sort(&spec(engine, n, 1), Overrides::default()).expect("SIMD-off run failed");
    simd::set_enabled(prior);
    let off_json = serde::json::to_string(&off.ledger).expect("ledger serializes");
    assert_eq!(
        Some(&off_json),
        ledger_json.as_ref(),
        "{name}/{n}: ledger changed with SIMD disabled"
    );
    asserted.push(format!(
        "{name}/{n}: ledger byte-identical across threads {THREADS:?} and SIMD on/off"
    ));

    // Simulated flow: the same trace replayed on Fig. 4 nodes restricted
    // to t cores (lanes fold onto cores). Pure function of the trace.
    let trace = trace_for_sim.expect("trace recorded");
    let sim_secs: Vec<f64> = THREADS
        .iter()
        .map(|&t| simulate_flow(&trace, &MachineConfig::fig4(t as u32, RHO)).seconds)
        .collect();
    let sim_speedup: Vec<f64> = sim_secs.iter().map(|&s| sim_secs[0] / s).collect();

    GroupResult {
        wall_ms: walls.into_iter().map(median).collect(),
        wall_speedup: ratios.into_iter().map(median).collect(),
        sim_secs,
        sim_speedup,
    }
}

/// The overlap axis: the DMA double-buffered pipeline against the
/// blocking ingest path, under the SAME pinned chunk geometry so both
/// modes stage identical volumes. Asserted in-binary every run:
///
/// * the two ledgers are **byte-identical** — overlap hides time, never
///   traffic (the far/near totals equal the pre-arena blocking path's);
/// * the pipelined trace's simulated flow makespan never exceeds the
///   blocking trace's, and the flow engine reports overlapped pairs;
/// * wall clock is compared at 2 host threads (the background ingest
///   copier needs a second core) but only *asserted* when the host
///   actually has ≥ 2 cores.
fn run_overlap_group(
    n: usize,
    iters: usize,
    smoke: bool,
    host: usize,
    asserted: &mut Vec<String>,
    cells: &mut Vec<Cell>,
    text: &mut String,
) {
    // ≥ 4 chunks at every size, 3-buffer-feasible (3 × 16 MB ≪ M).
    let chunk_elems = (n / 4).min(2_000_000);
    let t_wall = if host >= 2 { 2 } else { 1 };
    let spec_of = |engine: Engine| spec(engine, n, t_wall).chunked(chunk_elems);

    let mut blk_walls = Vec::new();
    let mut dma_walls = Vec::new();
    let mut first = None;
    for iter in 0..WARMUP + iters {
        let t0 = Instant::now();
        let blk =
            run_sort(&spec_of(Engine::NmSort), Overrides::default()).expect("blocking run failed");
        let blk_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        let dma =
            run_sort(&spec_of(Engine::NmSortDma), Overrides::default()).expect("dma run failed");
        if iter >= WARMUP {
            dma_walls.push(t0.elapsed().as_secs_f64() * 1e3);
            blk_walls.push(blk_ms);
        }

        let blk_json = serde::json::to_string(&blk.ledger).expect("ledger serializes");
        let dma_json = serde::json::to_string(&dma.ledger).expect("ledger serializes");
        assert_eq!(
            blk_json, dma_json,
            "nmsort_dma/{n}: pipelined ledger diverged from blocking at chunk={chunk_elems}"
        );
        if first.is_none() {
            first = Some((blk.trace, dma.trace));
        }
    }
    asserted.push(format!(
        "nmsort_dma/{n}: ledger byte-identical to blocking nmsort at chunk={chunk_elems}"
    ));

    let (blk_trace, dma_trace) = first.expect("at least one iter");
    let machine = MachineConfig::fig4(*THREADS.last().expect("axis nonempty") as u32, RHO);
    let blk_sim = simulate_flow(&blk_trace, &machine);
    let dma_sim = simulate_flow(&dma_trace, &machine);
    assert!(
        dma_sim.overlapped_pairs > 0,
        "nmsort_dma/{n}: no overlap exposed"
    );
    assert!(
        dma_sim.seconds <= blk_sim.seconds * 1.000_001,
        "nmsort_dma/{n}: overlap slowed the simulated run: {} vs {}",
        dma_sim.seconds,
        blk_sim.seconds
    );
    if !smoke {
        assert!(
            dma_sim.seconds < blk_sim.seconds,
            "nmsort_dma/{n}: expected a strict simulated overlap gain"
        );
    }
    asserted.push(format!(
        "nmsort_dma/{n}: simulated overlap gain {:.2}% ({} pairs, {:.1}% of serialized hidden)",
        (1.0 - dma_sim.seconds / blk_sim.seconds) * 100.0,
        dma_sim.overlapped_pairs,
        dma_sim.overlap_fraction() * 100.0
    ));

    let blk_wall = median(blk_walls);
    let dma_wall = median(dma_walls);
    if host >= 2 && !smoke {
        assert!(
            dma_wall <= blk_wall * 1.10,
            "nmsort_dma/{n}: pipelined wall {dma_wall:.1}ms regressed past \
             blocking {blk_wall:.1}ms on a {host}-core host"
        );
        asserted.push(format!(
            "nmsort_dma/{n}: wall {:.1}ms vs blocking {:.1}ms on {host} cores",
            dma_wall, blk_wall
        ));
    }

    outln!(
        text,
        "{:<8} {:>11} {:>3} {:>12.1} {:>8.2}x {:>12.4} {:>8.2}x  (overlap vs blocking)",
        "nm_dma",
        n,
        t_wall,
        dma_wall,
        blk_wall / dma_wall,
        dma_sim.seconds,
        blk_sim.seconds / dma_sim.seconds
    );
    cells.push(Cell {
        kernel: "sim_overlap".into(),
        workload: format!("nmsort_dma/t={}", THREADS.last().expect("axis nonempty")),
        n,
        baseline_ms: Some(blk_sim.seconds * 1e3),
        optimized_ms: dma_sim.seconds * 1e3,
        speedup: Some(blk_sim.seconds / dma_sim.seconds),
    });
    cells.push(Cell {
        kernel: "wall_overlap".into(),
        workload: format!("nmsort_dma/t={t_wall}"),
        n,
        baseline_ms: Some(blk_wall),
        optimized_ms: dma_wall,
        speedup: None,
    });
}

pub fn run(mut args: Args) -> Outcome {
    let smoke = args.flag("--smoke");
    args.finish();
    let mode = if smoke {
        "parallel_smoke"
    } else {
        "parallel_full"
    };
    let (sizes, iters): (Vec<usize>, usize) = if smoke {
        (vec![2_000_000], 3)
    } else {
        (vec![10_000_000, 30_000_000, 100_000_000], 3)
    };
    let host = host_threads();
    eprintln!(
        "[parallel_bench] mode={mode}, n={sizes:?}, threads={THREADS:?}, \
         lanes={LANES}, host_cores={host}, {iters} iters"
    );
    tlmm_telemetry::reset();

    let mut cells = Vec::new();
    let mut asserted = Vec::new();
    let mut text = String::new();
    outln!(
        text,
        "Parallel sort sweep ({mode}): lanes={LANES}, rho={RHO}, \
         host_cores={host}, median of {iters}"
    );
    outln!(
        text,
        "{:<8} {:>11} {:>3} {:>12} {:>9} {:>12} {:>9}",
        "engine",
        "n",
        "t",
        "wall ms",
        "wall x",
        "sim s",
        "sim x"
    );

    // Cells are `perf_gate`-compatible: `kernel` is the measurement axis
    // (`sim_flow` / `wall`), `workload` is `<engine>/t=<threads>`. Only
    // `sim_flow` cells carry a `speedup` — they are deterministic; wall
    // medians are recorded for the eyeball but never gate.
    for engine in ENGINES {
        for &n in &sizes {
            eprintln!("[parallel_bench] {} n={n}...", engine.name());
            let g = run_group(engine, n, iters, &mut asserted);
            for (ti, &t) in THREADS.iter().enumerate() {
                // More threads than cores time the host's scheduler, not
                // the sort: such cells are labelled, never asserted.
                let over = t > host;
                outln!(
                    text,
                    "{:<8} {:>11} {:>3} {:>12.1} {:>8.2}x {:>12.4} {:>8.2}x{}",
                    engine.name(),
                    n,
                    t,
                    g.wall_ms[ti],
                    g.wall_speedup[ti],
                    g.sim_secs[ti],
                    g.sim_speedup[ti],
                    if over { "  (wall oversubscribed)" } else { "" }
                );
                cells.push(Cell {
                    kernel: "sim_flow".into(),
                    workload: format!("{}/t={t}", engine.name()),
                    n,
                    baseline_ms: Some(g.sim_secs[0] * 1e3),
                    optimized_ms: g.sim_secs[ti] * 1e3,
                    speedup: Some(g.sim_speedup[ti]),
                });
                cells.push(Cell {
                    kernel: if over { "wall_oversubscribed" } else { "wall" }.into(),
                    workload: format!("{}/t={t}", engine.name()),
                    n,
                    baseline_ms: Some(g.wall_ms[0]),
                    optimized_ms: g.wall_ms[ti],
                    speedup: None,
                });
            }

            // The Table I criterion: 8 cores must buy ≥ 2.5× on NMsort at
            // full scale. Simulated flow asserts everywhere (it is host-
            // independent); wall clock asserts only where the host can
            // physically show it.
            let last = THREADS.len() - 1;
            if engine == Engine::NmSort && !smoke {
                assert!(
                    g.sim_speedup[last] >= 2.5,
                    "nmsort/{n}: simulated 8-core speedup {:.2}x < 2.5x",
                    g.sim_speedup[last]
                );
                asserted.push(format!(
                    "nmsort/{n}: simulated 8-core speedup {:.2}x >= 2.5x",
                    g.sim_speedup[last]
                ));
                if host >= *THREADS.last().expect("axis nonempty") {
                    assert!(
                        g.wall_speedup[last] >= 2.5,
                        "nmsort/{n}: wall 8-thread speedup {:.2}x < 2.5x on {host}-core host",
                        g.wall_speedup[last]
                    );
                    asserted.push(format!(
                        "nmsort/{n}: wall 8-thread speedup {:.2}x >= 2.5x",
                        g.wall_speedup[last]
                    ));
                }
            }
            // Smoke keeps a loose floor so total scaling breakage fails CI
            // even before the perf gate diffs exact values.
            if engine == Engine::NmSort && smoke {
                assert!(
                    g.sim_speedup[last] > 2.0,
                    "nmsort/{n} (smoke): simulated 8-core speedup {:.2}x lost all scaling",
                    g.sim_speedup[last]
                );
            }
        }
    }

    // The overlap axis: DMA pipeline vs blocking, same pinned geometry.
    for &n in &sizes {
        eprintln!("[parallel_bench] nmsort_dma overlap n={n}...");
        run_overlap_group(n, iters, smoke, host, &mut asserted, &mut cells, &mut text);
    }

    for a in &asserted {
        outln!(text, "assert: {a}");
    }

    let file = BenchFile {
        git_sha: artifact::git_sha(),
        mode: mode.into(),
        warmup_iters: WARMUP,
        measured_iters: iters,
        sweep: Some(SweepInfo {
            host_cores: host,
            lanes: LANES,
            rho: RHO,
            asserted,
        }),
        cells,
    };
    // Full mode refreshes the committed record at the repo root; smoke
    // writes next to the CI artifacts for the perf gate to diff.
    let path = file.write(smoke, "parallel")?;
    outln!(text, "wrote {}", path.display());

    let report = RunReport::collect("parallel_bench")
        .meta("mode", mode)
        .meta("host_cores", host.to_string());
    artifact::emit("parallel_bench", &text, report)?;
    Ok(())
}
