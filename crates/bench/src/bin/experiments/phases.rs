//! Diagnostic: per-phase simulated time breakdown for one NMsort run,
//! plus the run's own wall-clock telemetry span tree.
//!
//! Run: `cargo run --release -p tlmm-bench --bin experiments -- phases [N]`

use std::num::NonZeroUsize;
use tlmm_analysis::table::{secs, Table};
use tlmm_bench::cli::{Args, Outcome};
use tlmm_bench::{artifact, outln, run_baseline, run_nmsort, TABLE1_LANES};
use tlmm_memsim::{simulate_flow, MachineConfig};
use tlmm_telemetry::RunReport;

pub fn run(mut args: Args) -> Outcome {
    let n = args
        .positional::<NonZeroUsize>("key count")
        .map_or(2_000_000, NonZeroUsize::get);
    args.finish();
    let nm = run_nmsort(n, TABLE1_LANES, n / 4 + 1, 0xD1)?;
    let m = MachineConfig::fig4(256, 8.0);
    let sim = simulate_flow(&nm.trace, &m);
    let mut out = String::new();
    outln!(
        out,
        "NMsort total: {:.6} s over {} phases",
        sim.seconds,
        sim.phases.len()
    );
    let mut t = Table::new(["phase", "total (s)", "bottleneck sample"]);
    for (name, s) in sim.phase_summary() {
        let b = sim
            .phases
            .iter()
            .filter(|p| p.name == name)
            .max_by(|a, b| a.seconds.total_cmp(&b.seconds))
            .map(|p| format!("{:?}", p.bottleneck))
            .unwrap_or_default();
        t.row(vec![name, secs(s), b]);
    }
    outln!(out, "{}", t.render());

    let base = run_baseline(n, TABLE1_LANES, 0xD1)?;
    let bsim = simulate_flow(&base.trace, &MachineConfig::fig4(256, 2.0));
    outln!(out, "baseline total: {:.6} s", bsim.seconds);
    let mut t = Table::new(["phase", "total (s)"]);
    for (name, s) in bsim.phase_summary() {
        t.row(vec![name, secs(s)]);
    }
    outln!(out, "{}", t.render());

    let report = RunReport::collect("phases")
        .meta("n", n)
        .meta("lanes", TABLE1_LANES)
        .section("nmsort_sim_8x", &sim)
        .section("baseline_sim_2x", &bsim);
    // The measured span tree is this diagnostic's whole point: show it.
    outln!(out, "host wall-clock span tree (telemetry):\n");
    outln!(out, "{}", report.render_tree());
    artifact::emit("phases", &out, report)?;
    Ok(())
}
