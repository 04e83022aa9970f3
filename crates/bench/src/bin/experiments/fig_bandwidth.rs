//! **F-BW** — running time vs scratchpad bandwidth expansion (ρ).
//!
//! The paper (§I-A, §V-B) reports "a linear reduction in running time for
//! our algorithm when increasing the bandwidth from two to eight times".
//! This harness sweeps ρ further to expose where the linear regime ends:
//! once the scratchpad side stops being the bottleneck, the far-memory
//! passes and the compute floor take over.
//!
//! Run: `cargo run --release -p tlmm-bench --bin experiments -- fig_bandwidth [N]`

use std::num::NonZeroUsize;
use tlmm_analysis::table::{ratio, secs, Table};
use tlmm_bench::cli::{Args, Outcome};
use tlmm_bench::{artifact, outln, run_baseline, run_nmsort, TABLE1_CHUNK, TABLE1_LANES, TABLE1_N};
use tlmm_memsim::stats::Bottleneck;
use tlmm_memsim::{simulate_flow, MachineConfig};
use tlmm_telemetry::RunReport;

pub fn run(mut args: Args) -> Outcome {
    let n = args
        .positional::<NonZeroUsize>("key count")
        .map_or(TABLE1_N, NonZeroUsize::get);
    args.finish();
    eprintln!("[fig_bandwidth] sorting {n} random u64 once, replaying across rho...");
    let base = run_baseline(n, TABLE1_LANES, 0xF1)?;
    let nm = run_nmsort(n, TABLE1_LANES, TABLE1_CHUNK.min(n / 4 + 1), 0xF1)?;
    let base_sim = simulate_flow(&base.trace, &MachineConfig::fig4(256, 2.0));

    let mut t = Table::new([
        "rho",
        "NMsort (s)",
        "GNU (s)",
        "speedup",
        "near-bound (s)",
        "far-bound (s)",
    ]);
    let mut sweep = Vec::new();
    for rho in [1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0] {
        let m = MachineConfig::fig4(256, rho);
        let sim = simulate_flow(&nm.trace, &m);
        t.row(vec![
            format!("{rho}"),
            secs(sim.seconds),
            secs(base_sim.seconds),
            ratio(base_sim.seconds / sim.seconds),
            secs(sim.seconds_bound_by(Bottleneck::NearBandwidth)),
            secs(sim.seconds_bound_by(Bottleneck::FarBandwidth)),
        ]);
        sweep.push(sim.seconds);
    }
    let mut out = String::new();
    outln!(
        out,
        "\nF-BW — NMsort simulated time vs scratchpad bandwidth (256 cores)\n"
    );
    outln!(out, "{}", t.render());
    outln!(
        out,
        "expected shape: time falls ~linearly in rho while the near-bound \
         component dominates, then flattens once far passes dominate."
    );

    let report = RunReport::collect("fig_bandwidth")
        .meta("n", n)
        .meta("lanes", TABLE1_LANES)
        .section("baseline_sim_2x", &base_sim)
        .section("nmsort_seconds_by_rho", &sweep);
    artifact::emit("fig_bandwidth", &out, report)?;
    Ok(())
}
