//! **F-ENERGY** — memory-system energy: NMsort vs the DRAM-only baseline.
//!
//! The architecture's second selling point (§I, §VI-A): stacked near memory
//! moves bytes at a fraction of the off-package energy. The byte traffic
//! that Table I counts becomes joules under the per-byte model of
//! `tlmm_memsim::energy`. The outcome is instructive: NMsort halves the
//! expensive DDR traffic but moves ~2.5 bytes through the scratchpad per
//! DDR byte saved, so the energy win tracks how cheap the near byte really
//! is — the sweep below varies that coefficient.
//!
//! Run: `cargo run --release -p tlmm-bench --bin experiments -- fig_energy [N]`

use std::num::NonZeroUsize;
use tlmm_analysis::table::{ratio, Table};
use tlmm_bench::cli::{Args, Outcome};
use tlmm_bench::{artifact, outln, run_baseline, run_nmsort, TABLE1_CHUNK, TABLE1_LANES, TABLE1_N};
use tlmm_memsim::energy::{estimate_energy, EnergyModel};
use tlmm_telemetry::RunReport;

pub fn run(mut args: Args) -> Outcome {
    let n = args
        .positional::<NonZeroUsize>("key count")
        .map_or(TABLE1_N, NonZeroUsize::get);
    args.finish();
    eprintln!("[fig_energy] sorting {n} random u64 once per algorithm...");
    let base = run_baseline(n, TABLE1_LANES, 0xE0)?;
    let nm = run_nmsort(n, TABLE1_LANES, TABLE1_CHUNK.min(n / 4 + 1), 0xE0)?;
    let model = EnergyModel::default();
    let eb = estimate_energy(&base.trace, &model);
    let en = estimate_energy(&nm.trace, &model);

    let mut t = Table::new(["component", "GNU Sort (mJ)", "NMsort (mJ)"]);
    let mj = |j: f64| format!("{:.2}", j * 1e3);
    t.row(vec!["far memory".to_string(), mj(eb.far_j), mj(en.far_j)]);
    t.row(vec![
        "near memory".to_string(),
        mj(eb.near_j),
        mj(en.near_j),
    ]);
    t.row(vec![
        "on-chip network".to_string(),
        mj(eb.noc_j),
        mj(en.noc_j),
    ]);
    t.row(vec![
        "compute".to_string(),
        mj(eb.compute_j),
        mj(en.compute_j),
    ]);
    t.row(vec![
        "TOTAL".to_string(),
        mj(eb.total_j()),
        mj(en.total_j()),
    ]);
    let mut out = String::new();
    outln!(out, "\nF-ENERGY — memory-system energy, {n} random u64 (energy model: DDR 160 pJ/B, stacked 48 pJ/B)\n");
    outln!(out, "{}", t.render());
    outln!(
        out,
        "energy advantage: {} (data movement is {:.0}% of GNU sort's budget, {:.0}% of NMsort's)",
        ratio(eb.total_j() / en.total_j()),
        eb.data_movement_fraction() * 100.0,
        en.data_movement_fraction() * 100.0,
    );

    // Sensitivity: the advantage is governed by the near-byte energy.
    outln!(
        out,
        "\nsensitivity to the near-memory energy coefficient:\n"
    );
    let mut t = Table::new(["near pJ/B", "GNU (mJ)", "NMsort (mJ)", "advantage"]);
    let mut sensitivity = Vec::new();
    for near_pj in [96.0, 48.0, 24.0, 12.0, 6.0] {
        let m = EnergyModel {
            near_pj_per_byte: near_pj,
            ..EnergyModel::default()
        };
        let eb = estimate_energy(&base.trace, &m);
        let en = estimate_energy(&nm.trace, &m);
        t.row(vec![
            format!("{near_pj}"),
            format!("{:.2}", eb.total_j() * 1e3),
            format!("{:.2}", en.total_j() * 1e3),
            ratio(eb.total_j() / en.total_j()),
        ]);
        sensitivity.push(eb.total_j() / en.total_j());
    }
    outln!(out, "{}", t.render());
    outln!(
        out,
        "shape: at DDR-like near energy the extra scratchpad passes spend \
         what the DDR savings buy; as stacking pushes pJ/B down, NMsort's \
         energy advantage approaches the 2x DDR-traffic ratio."
    );

    let report = RunReport::collect("fig_energy")
        .meta("n", n)
        .meta("lanes", TABLE1_LANES)
        .section("baseline_ledger", &base.ledger)
        .section("nmsort_ledger", &nm.ledger)
        .section("energy_advantage_by_near_pj", &sensitivity);
    artifact::emit("fig_energy", &out, report)?;
    Ok(())
}
