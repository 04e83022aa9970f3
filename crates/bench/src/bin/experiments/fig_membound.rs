//! **F-BOUND** — the §V-A memory-bandwidth-bound frontier.
//!
//! Prints the pressure grid `x / (y·log Z)` over core counts and DRAM
//! bandwidth scalings, plus the crossover core count for the Fig. 4 node
//! ("we observe that sorting is memory bound if the number of cores is 256
//! and not memory bound when that number is reduced to 128").
//!
//! Run: `cargo run --release -p tlmm-bench --bin experiments -- fig_membound`

use tlmm_analysis::frontier::{fig4_crossover_cores, frontier_for_cores};
use tlmm_analysis::table::Table;
use tlmm_bench::cli::{Args, Outcome};
use tlmm_bench::{artifact, outln};
use tlmm_telemetry::RunReport;

pub fn run(args: Args) -> Outcome {
    args.finish();
    let cores = [16u32, 32, 64, 128, 192, 256, 384, 512, 1024];
    let scales = [0.5, 1.0, 2.0, 4.0, 8.0];

    let mut t = Table::new(
        std::iter::once("cores \\ bw".to_string())
            .chain(scales.iter().map(|s| format!("{s}x DRAM"))),
    );
    let mut pressures = Vec::new();
    for &c in &cores {
        let mut row = vec![c.to_string()];
        for &s in &scales {
            let p = frontier_for_cores(&[c], s, 8)[0];
            row.push(format!(
                "{:.2}{}",
                p.pressure,
                if p.memory_bound() { "*" } else { " " }
            ));
            pressures.push(p.pressure);
        }
        t.row(row);
    }
    let mut out = String::new();
    outln!(
        out,
        "\nF-BOUND — memory pressure x/(y·log Z); '*' = memory-bandwidth bound\n"
    );
    outln!(out, "{}", t.render());
    let crossover = fig4_crossover_cores(8);
    match crossover {
        Some(c) => outln!(
            out,
            "Fig. 4 node crossover: sorting becomes memory-bound at {c} cores \
             (paper: between 128 and 256)."
        ),
        None => outln!(out, "no crossover below u32::MAX cores"),
    }

    let report = RunReport::collect("fig_membound")
        .section("pressure_grid", &pressures)
        .section("crossover_cores", &crossover);
    artifact::emit("fig_membound", &out, report)?;
    Ok(())
}
