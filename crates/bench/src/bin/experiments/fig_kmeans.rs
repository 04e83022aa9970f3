//! **F-KMEANS** — scratchpad k-means speedup (§VII).
//!
//! "All our k-means algorithms run a factor of ρ faster using scratchpad
//! for many sizes of data and k." Both variants run the same Lloyd's
//! iterations; the near variant streams resident points at scratchpad
//! bandwidth, so in the bandwidth-bound regime the per-iteration speedup
//! approaches ρ. The one-off seeding/staging passes dilute the end-to-end
//! number, so both are reported.
//!
//! Run: `cargo run --release -p tlmm-bench --bin experiments -- fig_kmeans`

use tlmm_analysis::table::{ratio, secs, Table};
use tlmm_bench::cli::{Args, Outcome};
use tlmm_bench::{artifact, outln};
use tlmm_kmeans::{generate_blobs, kmeans_far, kmeans_near, KMeansConfig};
use tlmm_memsim::{simulate_flow, MachineConfig, SimReport};
use tlmm_model::ScratchpadParams;
use tlmm_scratchpad::TwoLevel;
use tlmm_telemetry::RunReport;

fn iter_seconds(sim: &SimReport) -> f64 {
    sim.phase_summary()
        .into_iter()
        .filter(|(n, _)| n == "kmeans.iter")
        .map(|(_, s)| s)
        .sum()
}

struct Row {
    far_total: f64,
    near_total: f64,
    far_iter: f64,
    near_iter: f64,
    iters: u32,
}

fn measure(n: usize, d: usize, k: usize, rho: f64) -> Row {
    let params = ScratchpadParams::new(64, rho, 256 << 20, 36 << 20).unwrap();
    let pts = generate_blobs(n, d, k, 40.0, 7);
    let cfg = KMeansConfig {
        k,
        dim: d,
        max_iters: 15,
        tol: 0.0,
        sim_lanes: 256,
        ..Default::default()
    };
    let machine = MachineConfig::fig4(256, rho);

    let tl = TwoLevel::new(params);
    let arr = tl.far_from_vec(pts.clone());
    let rf = kmeans_far(&tl, &arr, &cfg);
    let far_sim = simulate_flow(&tl.take_trace(), &machine);

    let tl = TwoLevel::new(params);
    let arr = tl.far_from_vec(pts);
    let rn = kmeans_near(&tl, &arr, &cfg).expect("kmeans_near");
    assert_eq!(rf.assignments, rn.assignments, "variants must agree");
    let near_sim = simulate_flow(&tl.take_trace(), &machine);

    Row {
        far_total: far_sim.seconds,
        near_total: near_sim.seconds,
        far_iter: iter_seconds(&far_sim),
        near_iter: iter_seconds(&near_sim),
        iters: rf.iterations,
    }
}

pub fn run(args: Args) -> Outcome {
    args.finish();
    let mut out = String::new();
    outln!(
        out,
        "\nF-KMEANS — DRAM-streaming vs scratchpad k-means (256 cores)\n"
    );
    let mut t = Table::new([
        "n",
        "d",
        "k",
        "rho",
        "DRAM (s)",
        "scratch (s)",
        "iter speedup",
        "total speedup",
        "iters",
    ]);
    let mut iter_speedups = Vec::new();
    for &(n, d, k) in &[
        (2_000_000usize, 4usize, 8usize),
        (1_000_000, 8, 16),
        (4_000_000, 2, 4),
    ] {
        for &rho in &[2.0, 4.0, 8.0] {
            let r = measure(n, d, k, rho);
            t.row(vec![
                n.to_string(),
                d.to_string(),
                k.to_string(),
                format!("{rho}"),
                secs(r.far_total),
                secs(r.near_total),
                ratio(r.far_iter / r.near_iter),
                ratio(r.far_total / r.near_total),
                r.iters.to_string(),
            ]);
            iter_speedups.push(r.far_iter / r.near_iter);
        }
    }
    outln!(out, "{}", t.render());
    outln!(
        out,
        "expected shape: iteration speedup approaches rho while iterations \
         are bandwidth-bound (paper: 'a factor of rho faster')."
    );

    let report = RunReport::collect("fig_kmeans")
        .meta("lanes", 256)
        .section("iter_speedups", &iter_speedups);
    artifact::emit("fig_kmeans", &out, report)?;
    Ok(())
}
