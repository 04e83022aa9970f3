//! **Table I** — SST simulation results for various scratchpad near-memory
//! bandwidths.
//!
//! Reproduces the paper's headline table: GNU parallel multiway mergesort
//! vs NMsort at 2×/4×/8× scratchpad bandwidth on the Fig. 4 256-core node,
//! reporting simulated time and scratchpad/DRAM access counts.
//!
//! Writes `results/table1.txt` (rendered table) and `results/table1.json`
//! (telemetry [`tlmm_telemetry::RunReport`]: wall-clock span tree, counters,
//! histograms, and the simulator outputs as sections).
//!
//! Run: `cargo run --release -p tlmm-bench --bin table1 [-- N]` (N keys,
//! default 10M; anything but one positive integer exits with code 2).

use std::num::NonZeroUsize;
use tlmm_analysis::compare_runs;
use tlmm_analysis::table::{count, ratio, secs, Table};
use tlmm_bench::cli::{parse_or_exit, usage_error};
use tlmm_bench::{artifact, outln, run_baseline, run_nmsort, TABLE1_CHUNK, TABLE1_LANES, TABLE1_N};
use tlmm_memsim::{simulate_flow, MachineConfig};
use tlmm_telemetry::RunReport;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n = match args.as_slice() {
        [] => TABLE1_N,
        [n] => parse_or_exit::<NonZeroUsize>("table1", "key count", n).get(),
        _ => usage_error("table1", "usage: table1 [N]"),
    };
    let chunk = TABLE1_CHUNK.min(n / 4 + 1);
    eprintln!("[table1] sorting {n} random u64 with {TABLE1_LANES} simulated cores...");

    let base = run_baseline(n, TABLE1_LANES, 0xB0)?;
    let nm = run_nmsort(n, TABLE1_LANES, chunk, 0xB0)?;

    let rhos = [2.0, 4.0, 8.0];
    let base_sim = simulate_flow(&base.trace, &MachineConfig::fig4(256, 2.0));
    let nm_sims: Vec<_> = rhos
        .iter()
        .map(|&r| simulate_flow(&nm.trace, &MachineConfig::fig4(256, r)))
        .collect();

    let mut t = Table::new(["", "GNU Sort", "NMsort (2X)", "NMsort (4X)", "NMsort (8X)"]);
    t.row(vec![
        "Sim Time (s)".to_string(),
        secs(base_sim.seconds),
        secs(nm_sims[0].seconds),
        secs(nm_sims[1].seconds),
        secs(nm_sims[2].seconds),
    ]);
    t.row(vec![
        "Scratchpad Accesses".to_string(),
        count(base_sim.near_accesses),
        count(nm_sims[0].near_accesses),
        count(nm_sims[1].near_accesses),
        count(nm_sims[2].near_accesses),
    ]);
    t.row(vec![
        "DRAM Accesses".to_string(),
        count(base_sim.far_accesses),
        count(nm_sims[0].far_accesses),
        count(nm_sims[1].far_accesses),
        count(nm_sims[2].far_accesses),
    ]);
    let mut out = String::new();
    outln!(
        out,
        "\nTable I — simulated results, {n} random 64-bit integers, 256 cores\n"
    );
    outln!(out, "{}", t.render());

    outln!(out, "derived quantities (paper's prose claims):");
    let mut d = Table::new(["rho", "speedup", "advantage", "DRAM ratio", "near/far"]);
    for (i, &r) in rhos.iter().enumerate() {
        let c = compare_runs(&base_sim, &nm_sims[i]);
        d.row(vec![
            format!("{r}x"),
            ratio(c.speedup),
            format!("{:.1}%", c.advantage * 100.0),
            ratio(c.far_access_ratio),
            ratio(c.near_per_far),
        ]);
    }
    outln!(out, "{}", d.render());
    outln!(
        out,
        "expected shapes: advantage grows with rho (paper: >25% at 8x); \
         GNU does ~2x the DRAM accesses; GNU scratchpad accesses = 0."
    );

    let report = RunReport::collect("table1")
        .meta("n", n)
        .meta("lanes", TABLE1_LANES)
        .meta("chunk_elems", chunk)
        .section("baseline_ledger", &base.ledger)
        .section("nmsort_ledger", &nm.ledger)
        .section("nmsort_degradations", &nm.degradations)
        .section("baseline_sim_2x", &base_sim)
        .section("nmsort_sim_2x", &nm_sims[0])
        .section("nmsort_sim_4x", &nm_sims[1])
        .section("nmsort_sim_8x", &nm_sims[2]);
    artifact::emit("table1", &out, report)?;
    Ok(())
}
