//! **F-OVHD** — BucketPos metadata overhead vs block size.
//!
//! §IV-D: "If B (the cache line size) is 128, then the memory overhead is
//! less than 1%, and larger cache lines reduce the relative overhead."
//! The auxiliary array per chunk has `Θ(M/B)` entries against `Θ(M)` chunk
//! elements, so the fraction scales as `1/B` (in entries per element).
//!
//! Run: `cargo run --release -p tlmm-bench --bin experiments -- fig_overhead`

use tlmm_analysis::table::{count, Table};
use tlmm_bench::cli::{Args, Outcome};
use tlmm_bench::{artifact, check_sorted, outln};
use tlmm_core::nmsort::{nmsort, NmSortConfig};
use tlmm_model::ScratchpadParams;
use tlmm_scratchpad::TwoLevel;
use tlmm_telemetry::RunReport;
use tlmm_workloads::{generate, Workload};

pub fn run(args: Args) -> Outcome {
    args.finish();
    let n = 2_000_000usize;
    let mut t = Table::new([
        "B (bytes)",
        "pivots m",
        "chunks",
        "metadata (B)",
        "data (B)",
        "overhead",
    ]);
    let mut overheads = Vec::new();
    for &b in &[64u64, 128, 256, 512, 1024] {
        let params = ScratchpadParams::new(b, 4.0, 16 << 20, 1 << 20).unwrap();
        let tl = TwoLevel::new(params);
        let input = tl.far_from_vec(generate(Workload::UniformU64, n, b));
        // The paper's overhead arithmetic: a chunk of Θ(M) elements carries
        // an auxiliary array of Θ(M/B) entries, i.e. one entry per block of
        // the chunk — overhead ≈ 1/B ("less than 1% if B is 128").
        let chunk = (params.scratchpad_capacity_elems(8) * 2 / 5).max(2);
        let cfg = NmSortConfig {
            sim_lanes: 16,
            n_pivots: Some((chunk / b as usize).max(1)),
            ..Default::default()
        };
        let r = nmsort(&tl, input, &cfg)?;
        check_sorted(r.output.as_slice_uncharged())?;
        // Metadata: one BucketPos array (m+2 u64) per chunk + BucketTot.
        let meta_bytes =
            r.chunks as u64 * (r.n_pivots as u64 + 2) * 8 + (r.n_pivots as u64 + 1) * 8;
        let data_bytes = (n * 8) as u64;
        t.row(vec![
            b.to_string(),
            count(r.n_pivots as u64),
            r.chunks.to_string(),
            count(meta_bytes),
            count(data_bytes),
            format!("{:.3}%", meta_bytes as f64 / data_bytes as f64 * 100.0),
        ]);
        overheads.push(meta_bytes as f64 / data_bytes as f64);
    }
    let mut out = String::new();
    outln!(
        out,
        "\nF-OVHD — bucket metadata overhead vs block size B (N = 2M u64)\n"
    );
    outln!(out, "{}", t.render());
    outln!(
        out,
        "expected shape: overhead ~ 1/B; around or below 1% by B = 128."
    );

    let report = RunReport::collect("fig_overhead")
        .meta("n", n)
        .section("overhead_by_block", &overheads);
    artifact::emit("fig_overhead", &out, report)?;
    Ok(())
}
