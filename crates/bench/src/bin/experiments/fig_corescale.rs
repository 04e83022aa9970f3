//! **F-CORES** — when does the scratchpad help? Core-count scaling.
//!
//! §V-B: "related simulations with 128 cores rather than 256 are not
//! memory-bandwidth bound and hence do not benefit from scratchpad usage".
//! This harness replays the same traces on Fig. 4 nodes with varying core
//! counts and prints the §V-A pressure next to the simulated advantage.
//!
//! A second sweep drives the Theorem 10 arbiter directly: NMsort runs
//! under the deterministic executor for each `(p, p′)` cell and the
//! effective transfer parallelism (`total bytes / makespan`) is recorded.
//! Throughput climbs while workers still have private slots and saturates
//! at the bandwidth bound once `p > p′` — the same knee as the paper's
//! 128-vs-256 observation, measured on the runtime instead of the replay.
//!
//! Run: `cargo run --release -p tlmm-bench --bin experiments -- fig_corescale [N]`

use serde::{Deserialize, Serialize};
use std::num::NonZeroUsize;
use tlmm_analysis::table::{secs, Table};
use tlmm_bench::cli::{Args, Outcome};
use tlmm_bench::{
    artifact, outln, run_baseline, run_nmsort, run_sort, Engine, Overrides, SortSpec, TABLE1_CHUNK,
    TABLE1_LANES, TABLE1_N,
};
use tlmm_memsim::{simulate_flow, MachineConfig};
use tlmm_model::bounds::bandwidth_bound_verdict;
use tlmm_scratchpad::ExecConfig;
use tlmm_telemetry::RunReport;

/// One `(p, p′)` cell of the contention sweep.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct ContentionCell {
    /// Workers `p` (also the sort's virtual lanes).
    p: usize,
    /// Transfer slots `p′` actually granted (`min(p, nominal)`).
    p_prime: usize,
    /// Arbitrated bytes (identical demand in every cell of a row).
    total_bytes: u64,
    /// Virtual makespan of the transfer schedule.
    makespan_units: u64,
    /// Virtual units workers spent waiting for a slot.
    wait_units: u64,
    /// Effective transfer parallelism: `total_bytes / makespan` — bounded
    /// by `p′` and the knee of the sweep.
    throughput: f64,
}

/// Run the `(p, p′)` contention sweep; every cell sorts the same input.
fn contention_sweep(
    n: usize,
    ps: &[usize],
    slots_axis: &[usize],
) -> Result<Vec<Vec<ContentionCell>>, Box<dyn std::error::Error>> {
    let mut rows = Vec::new();
    for &q in slots_axis {
        let mut row = Vec::new();
        for &p in ps {
            let spec = SortSpec::new(Engine::NmSort, n, p, 0xEC).chunked(n / 4 + 1);
            let p_prime = q.min(p);
            let exec = Overrides::exec(ExecConfig::deterministic(p, p_prime, 9));
            let run = run_sort(&spec, exec)?;
            let r = run.exec.expect("deterministic executor must report");
            row.push(ContentionCell {
                p,
                p_prime,
                total_bytes: r.total_bytes,
                makespan_units: r.makespan_units,
                wait_units: r.total_wait_units,
                throughput: r.throughput_units(),
            });
        }
        rows.push(row);
    }
    Ok(rows)
}

pub fn run(mut args: Args) -> Outcome {
    let n = args
        .positional::<NonZeroUsize>("key count")
        .map_or(TABLE1_N, NonZeroUsize::get);
    args.finish();
    eprintln!("[fig_corescale] sorting {n} random u64 once, replaying across core counts...");
    let base = run_baseline(n, TABLE1_LANES, 0xC0)?;
    let nm = run_nmsort(n, TABLE1_LANES, TABLE1_CHUNK.min(n / 4 + 1), 0xC0)?;

    let mut t = Table::new([
        "cores",
        "pressure",
        "mem-bound",
        "GNU (s)",
        "NMsort 8x (s)",
        "advantage",
    ]);
    let mut advantages = Vec::new();
    for cores in [32u32, 64, 128, 256, 512, 1024] {
        let m8 = MachineConfig::fig4(cores, 8.0);
        let m_base = MachineConfig::fig4(cores, 2.0);
        let v = bandwidth_bound_verdict(&m8.machine_rates(8));
        let bs = simulate_flow(&base.trace, &m_base);
        let ns = simulate_flow(&nm.trace, &m8);
        let adv = 1.0 - ns.seconds / bs.seconds;
        t.row(vec![
            cores.to_string(),
            format!("{:.2}", v.pressure()),
            if v.is_memory_bound() { "yes" } else { "no" }.to_string(),
            secs(bs.seconds),
            secs(ns.seconds),
            format!("{:.1}%", adv * 100.0),
        ]);
        advantages.push(adv);
    }
    let mut out = String::new();
    outln!(
        out,
        "\nF-CORES — scratchpad benefit vs core count (10M u64, rho=8)\n"
    );
    outln!(out, "{}", t.render());
    outln!(
        out,
        "expected shape: advantage appears once pressure exceeds 1 \
         (the paper's 128-vs-256 flip) and grows with core count."
    );

    // ---- Theorem 10 contention sweep: p workers over p' transfer slots.
    let sweep_n = (n / 25).clamp(20_000, 400_000);
    let ps = [1usize, 2, 4, 8, 16, 32];
    let slots_axis = [1usize, 2, 4, 8];
    eprintln!("[fig_corescale] contention sweep: NMsort of {sweep_n} u64 per (p, p') cell...");
    let sweep = contention_sweep(sweep_n, &ps, &slots_axis)?;

    let mut ct = Table::new(["p' \\ p", "1", "2", "4", "8", "16", "32"]);
    for row in &sweep {
        let mut cells = vec![row[0].p_prime.max(row.last().unwrap().p_prime).to_string()];
        cells.extend(row.iter().map(|c| format!("{:.2}", c.throughput)));
        ct.row(cells);
    }
    outln!(
        out,
        "\ncontention sweep — effective transfer parallelism \
         (arbitrated bytes / virtual makespan), NMsort {sweep_n} u64\n"
    );
    outln!(out, "{}", ct.render());
    outln!(
        out,
        "expected shape: each row climbs with p, then saturates at the \
         bandwidth bound once p > p' (Theorem 10's knee)."
    );

    // The knee is an acceptance criterion, not just a picture: fail the
    // artifact if saturation or the serialized bound is violated.
    for row in &sweep {
        let q = row.last().unwrap().p_prime;
        let at = |p: usize| {
            row.iter()
                .find(|c| c.p == p)
                .expect("sweep covers p")
                .throughput
        };
        assert!(
            at(32) <= q as f64 + 1e-9,
            "p'={q}: throughput {} exceeds the slot bound",
            at(32)
        );
        // Past the knee the extra workers stop buying bandwidth: by p = 32
        // (≥ 4× every p' in the sweep) throughput has converged on the slot
        // bound instead of growing with p.
        assert!(
            at(32) >= 0.75 * q as f64,
            "p'={q}: throughput {} never saturated toward the slot bound",
            at(32)
        );
        // And a post-knee doubling (16 → 32, both > p') is strictly weaker
        // than the near-linear pre-knee one (1 → 2, both ≤ p').
        if q >= 2 {
            let pre_gain = at(2) / at(1);
            let post_gain = at(32) / at(16);
            assert!(
                pre_gain >= 1.6 && pre_gain > post_gain,
                "p'={q}: pre-knee doubling ({pre_gain:.2}) must beat post-knee ({post_gain:.2})"
            );
        }
        // And the slots bought real parallelism by the knee.
        if q >= 4 {
            assert!(
                at(q) >= 2.0 * at(1),
                "p'={q}: throughput must climb up to the knee"
            );
        }
    }

    let report = RunReport::collect("fig_corescale")
        .meta("n", n)
        .meta("lanes", TABLE1_LANES)
        .meta("contention_n", sweep_n)
        .section("advantage_by_cores", &advantages)
        .section("contention", &sweep);
    artifact::emit("fig_corescale", &out, report)?;
    Ok(())
}
