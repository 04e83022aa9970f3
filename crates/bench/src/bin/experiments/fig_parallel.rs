//! **F-PAR** — Theorem 10: parallel scratchpad sorting scales with `p′`.
//!
//! §IV-C: allowing `p′` processors to make simultaneous block transfers
//! divides both Theorem 6 terms by `p′`. Two sweeps:
//!
//! * the parallel scratchpad sample sort at increasing lane counts,
//!   reporting simulated time, the trace's per-lane critical path (the
//!   model's "block-transfer steps"), and the Theorem 10 prediction;
//! * every registered [`Engine`] (or a `--engines a,b` subset, parsed
//!   through the registry — no hand-rolled algo-name strings) through the
//!   standard harness with host threads from the worker pool, replayed at
//!   1 and 8 simulated cores so the lane-scaling each engine actually
//!   achieves sits next to the theorem's idealized division.
//!
//! Run: `cargo run --release -p tlmm-bench --bin experiments -- fig_parallel [--engines nmsort,spms]`

use tlmm_analysis::table::{count, secs, Table};
use tlmm_bench::cli::{Args, Outcome};
use tlmm_bench::{
    artifact, check_sorted, outln, parse_engine, run_sort, Engine, Overrides, SortSpec,
};
use tlmm_core::parsort::{par_scratchpad_sort, ParSortConfig};
use tlmm_core::pool::host_threads;
use tlmm_memsim::{simulate_flow, MachineConfig};
use tlmm_model::theorems;
use tlmm_model::ScratchpadParams;
use tlmm_scratchpad::TwoLevel;
use tlmm_telemetry::RunReport;
use tlmm_workloads::{generate, Workload};

/// `(engine, sim 1-core seconds, sim 8-core seconds)` sweep rows.
type SweepRow = (Engine, f64, f64);

/// Registry sweep: each engine once through [`run_sort`] with 8 virtual
/// lanes and real host fan-out, then the recorded trace replayed at 1 and
/// 8 simulated cores. Returns `(engine, sim_1c, sim_8c)` rows.
fn engine_sweep(
    engines: &[Engine],
    n: usize,
    threads: usize,
) -> Result<Vec<SweepRow>, Box<dyn std::error::Error>> {
    let mut rows = Vec::new();
    for &engine in engines {
        let spec = SortSpec {
            threads,
            ..SortSpec::new(engine, n, 8, 4)
        };
        let run = run_sort(&spec, Overrides::default())?;
        let s1 = simulate_flow(&run.trace, &MachineConfig::fig4(1, 4.0)).seconds;
        let s8 = simulate_flow(&run.trace, &MachineConfig::fig4(8, 4.0)).seconds;
        rows.push((engine, s1, s8));
    }
    Ok(rows)
}

pub fn run(mut args: Args) -> Outcome {
    // `--engines a,b,c` filters the registry sweep; names must parse.
    let engines = args
        .value_with("--engines", |list| {
            list.split(',')
                .map(|s| parse_engine(s.trim()))
                .collect::<Result<Vec<_>, _>>()
        })
        .unwrap_or_else(|| Engine::ALL.to_vec());
    args.finish();
    let n = 2_000_000usize;
    let params = ScratchpadParams::new(64, 4.0, 16 << 20, 2 << 20).unwrap();

    let mut out = String::new();
    outln!(
        out,
        "\nF-PAR — parallel scratchpad sample sort vs p' (N = 2M, rho = 4)\n"
    );
    let mut t = Table::new([
        "p'",
        "sim (s)",
        "max-lane steps",
        "Thm 10 steps",
        "measured/pred",
    ]);
    let mut ratios = Vec::new();
    for lanes in [1usize, 2, 4, 8, 16, 32, 64] {
        let tl = TwoLevel::new(params);
        let input = tl.far_from_vec(generate(Workload::UniformU64, n, 4));
        let (sorted, _) = par_scratchpad_sort(
            &tl,
            input,
            &ParSortConfig {
                lanes,
                ..Default::default()
            },
        )?;
        check_sorted(sorted.as_slice_uncharged())?;
        let trace = tl.take_trace();
        // Critical path in block-transfer steps: the busiest lane's total
        // blocks across the whole run.
        let steps: u64 = trace
            .lane_totals()
            .iter()
            .map(|l| {
                l.far_bytes() / params.block_bytes + l.near_bytes() / params.near_block_bytes()
            })
            .max()
            .unwrap_or(0);
        let pred = theorems::theorem10_parallel_sort(&params, n as u64, 8, lanes as u64);
        let sim = simulate_flow(&trace, &MachineConfig::fig4(lanes.max(4) as u32, 4.0));
        t.row(vec![
            lanes.to_string(),
            secs(sim.seconds),
            count(steps),
            format!("{:.0}", pred.far_blocks + pred.near_blocks),
            format!("{:.2}", steps as f64 / (pred.far_blocks + pred.near_blocks)),
        ]);
        ratios.push(steps as f64 / (pred.far_blocks + pred.near_blocks));
    }
    outln!(out, "{}", t.render());
    outln!(
        out,
        "expected shape: simulated time and per-lane steps fall with p' \
         (Theorem 10's division); the constant drifts up at high p' from \
         the serial residue (pivot handling, per-bucket bookkeeping) that \
         the asymptotic analysis hides."
    );

    // ---- Registry sweep: what each engine's trace does with 8 cores.
    let threads = host_threads();
    eprintln!(
        "[fig_parallel] registry sweep: {} engines, {threads} host threads...",
        engines.len()
    );
    let rows = engine_sweep(&engines, n, threads)?;
    let mut et = Table::new(["engine", "sim 1c (s)", "sim 8c (s)", "scaling"]);
    let mut scalings = Vec::new();
    for (engine, s1, s8) in &rows {
        et.row(vec![
            engine.name().to_string(),
            secs(*s1),
            secs(*s8),
            format!("{:.2}x", s1 / s8),
        ]);
        scalings.push(s1 / s8);
    }
    outln!(
        out,
        "\nRegistry engines, 8 lanes, {threads} host thread(s), replayed at 1 vs 8 cores:\n"
    );
    outln!(out, "{}", et.render());
    outln!(
        out,
        "expected shape: the lane-parallel engines approach the Theorem 10 \
         division (bounded by the serial residue); per-engine wall clock \
         and the full thread axis live in BENCH_parallel.json."
    );

    let report = RunReport::collect("fig_parallel")
        .meta("n", n)
        .meta("host_threads", threads)
        .section("measured_over_predicted", &ratios)
        .section("engine_core_scaling", &scalings);
    artifact::emit("fig_parallel", &out, report)?;
    Ok(())
}
