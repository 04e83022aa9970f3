//! **F-MODEL** — measured block transfers vs Theorem 6 predictions.
//!
//! "Memory access counts from simulations corroborate predicted
//! performance" (abstract). Here the ledger's exact far/near block counts
//! are compared against the Theorem 6 closed forms over an `N` × `ρ`
//! sweep; the hidden Θ-constants should stay flat if the implementation
//! has the predicted asymptotics.
//!
//! Run: `cargo run --release -p tlmm-bench --bin experiments -- fig_model_validation`

use tlmm_analysis::table::{count, Table};
use tlmm_analysis::validation::{constants_stable, ValidationRow};
use tlmm_bench::cli::{Args, Outcome};
use tlmm_bench::{artifact, check_sorted, outln};
use tlmm_core::nmsort::{nmsort, NmSortConfig};
use tlmm_model::ScratchpadParams;
use tlmm_scratchpad::TwoLevel;
use tlmm_telemetry::RunReport;
use tlmm_workloads::{generate, Workload};

pub fn run(args: Args) -> Outcome {
    args.finish();
    // A smaller scratchpad (4 MiB) so every N in the sweep is multi-chunk.
    let mut rows = Vec::new();
    let mut t = Table::new([
        "N",
        "rho",
        "far meas",
        "far pred",
        "c_far",
        "near meas",
        "near pred",
        "c_near",
    ]);
    for &rho in &[2.0, 4.0, 8.0] {
        for &n in &[500_000usize, 1_000_000, 2_000_000, 4_000_000] {
            let params = ScratchpadParams::new(64, rho, 4 << 20, 256 << 10).unwrap();
            let tl = TwoLevel::new(params);
            let input = tl.far_from_vec(generate(Workload::UniformU64, n, n as u64));
            let cfg = NmSortConfig {
                sim_lanes: 16,
                ..Default::default()
            };
            let report = nmsort(&tl, input, &cfg)?;
            check_sorted(report.output.as_slice_uncharged())?;
            let s = tl.ledger().snapshot();
            let row = ValidationRow::new(&params, n as u64, 8, &s);
            t.row(vec![
                count(n as u64),
                format!("{rho}"),
                count(row.measured_far),
                format!("{:.0}", row.predicted_far),
                format!("{:.2}", row.far_constant()),
                count(row.measured_near),
                format!("{:.0}", row.predicted_near),
                format!("{:.2}", row.near_constant()),
            ]);
            rows.push(row);
        }
    }
    let mut out = String::new();
    outln!(
        out,
        "\nF-MODEL — ledger block counts vs Theorem 6 (NMsort, M=4MiB, Z=256KiB)\n"
    );
    outln!(out, "{}", t.render());
    let stable = constants_stable(&rows, 4.0);
    outln!(
        out,
        "hidden-constant stability across the sweep (max/min <= 4): {}",
        if stable { "PASS" } else { "FAIL" }
    );
    outln!(
        out,
        "expected shape: c_far and c_near drift slowly (log factors), \
         far below any polynomial divergence."
    );

    let far_constants: Vec<f64> = rows.iter().map(|r| r.far_constant()).collect();
    let near_constants: Vec<f64> = rows.iter().map(|r| r.near_constant()).collect();
    let report = RunReport::collect("fig_model_validation")
        .meta("stable", stable)
        .section("far_constants", &far_constants)
        .section("near_constants", &near_constants);
    artifact::emit("fig_model_validation", &out, report)?;
    Ok(())
}
