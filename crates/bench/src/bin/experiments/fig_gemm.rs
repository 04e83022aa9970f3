//! **F-GEMM** — tiled matrix multiply: the data-reuse kernel (§VII "what
//! other kinds of algorithms...").
//!
//! GEMM re-reads B once per tile-row of A, so staging B in the scratchpad
//! converts Θ(n³/t) far traffic into one far pass plus rho-accelerated
//! near traffic. With a healthy per-core cache the kernel is compute-bound
//! (t/8 multiply-adds per byte) and the scratchpad cannot help — so the
//! sweep also shrinks the blocking tile, modelling the cache-starved
//! many-core regime where GEMM joins sorting on the bandwidth-bound side
//! of the §V-A frontier.
//!
//! Run: `cargo run --release -p tlmm-bench --bin experiments -- fig_gemm`

use tlmm_analysis::table::{count, ratio, secs, Table};
use tlmm_bench::cli::{Args, Outcome};
use tlmm_bench::{artifact, outln};
use tlmm_memsim::{simulate_flow, MachineConfig};
use tlmm_model::ScratchpadParams;
use tlmm_scratchpad::TwoLevel;
use tlmm_telemetry::RunReport;
use tlmm_tile::{gemm_far, gemm_near, GemmConfig, Matrix};

pub fn run(args: Args) -> Outcome {
    args.finish();
    let n = 768usize; // square matrices, 4.5 MB each
    let mut out = String::new();
    outln!(
        out,
        "\nF-GEMM — {n}x{n} f64 GEMM, B staged in the scratchpad (256 cores)\n"
    );
    let mut t = Table::new([
        "tile",
        "rho",
        "DRAM GEMM (s)",
        "scratchpad GEMM (s)",
        "speedup",
        "far acc (DRAM)",
        "far acc (scratch)",
    ]);
    let mut speedups = Vec::new();
    for tile in [32usize, 16, 8] {
        for rho in [2.0, 4.0, 8.0] {
            let params = ScratchpadParams::new(64, rho, 64 << 20, 2 << 20).unwrap();
            let machine = MachineConfig::fig4(256, rho);
            let cfg = GemmConfig {
                sim_lanes: 256,
                tile: Some(tile),
                ..Default::default()
            };

            let tl = TwoLevel::new(params);
            let a = Matrix::random(&tl, n, n, 1);
            let b = Matrix::random(&tl, n, n, 2);
            let cf = gemm_far(&tl, &a, &b, &cfg);
            let sim_far = simulate_flow(&tl.take_trace(), &machine);

            let tl = TwoLevel::new(params);
            let a = Matrix::random(&tl, n, n, 1);
            let b = Matrix::random(&tl, n, n, 2);
            let cn = gemm_near(&tl, &a, &b, &cfg).expect("B fits the scratchpad");
            assert_eq!(
                cf.data.as_slice_uncharged(),
                cn.data.as_slice_uncharged(),
                "variants must agree"
            );
            let sim_near = simulate_flow(&tl.take_trace(), &machine);

            t.row(vec![
                tile.to_string(),
                format!("{rho}"),
                secs(sim_far.seconds),
                secs(sim_near.seconds),
                ratio(sim_far.seconds / sim_near.seconds),
                count(sim_far.far_accesses),
                count(sim_near.far_accesses),
            ]);
            speedups.push(sim_far.seconds / sim_near.seconds);
        }
    }
    outln!(out, "{}", t.render());
    outln!(
        out,
        "expected shape: far accesses collapse toward ~3 matrix passes; the \
         speedup appears once the tile (= effective per-core cache) is small \
         enough that t/8 ops/byte falls below the node's compute/bandwidth \
         ratio, and then grows with rho — GEMM crosses the same frontier \
         sorting does."
    );

    let report = RunReport::collect("fig_gemm")
        .meta("n", n)
        .meta("lanes", 256)
        .section("speedup_by_tile_rho", &speedups);
    artifact::emit("fig_gemm", &out, report)?;
    Ok(())
}
