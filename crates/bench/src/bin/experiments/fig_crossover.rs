//! **fig_crossover** — where does scratchpad-awareness start paying?
//!
//! Sweeps n × near-memory size M and runs the aware engine (NMsort) against
//! the cache-oblivious family (SPMS, SquareSort) on identically seeded
//! workloads, comparing *simulated* far traffic (charged ledgers from real
//! runs) with the *predicted* far traffic from `tlmm_model::oblivious`'s
//! recursion mirrors. For each (M, engine) pair it reports the crossover
//! point: the smallest n where the oblivious engine's far traffic exceeds
//! NMsort's by more than 5%. Below the residency cap (`M/4` of data) every
//! engine pays exactly one far roundtrip, so obliviousness is free; beyond
//! it the aware layout wins and the crossover should sit at the cap and
//! move right as M grows.
//!
//! In-binary sanity gates (the artifact is only written if they hold):
//! * at the largest n per M, each oblivious engine's far traffic ≥ NMsort's;
//! * the simulated crossover exists and is monotone non-decreasing in M;
//! * predicted and simulated crossovers land within one grid step.
//!
//! Run: `cargo run --release -p tlmm-bench --bin experiments -- fig_crossover [--smoke]`
//! (`--smoke` shrinks the sweep to two small Ms for CI.)

use serde::Serialize;
use tlmm_analysis::table::Table;
use tlmm_bench::cli::{Args, Outcome};
use tlmm_bench::{artifact, outln, run_sort, Engine, Overrides, SortSpec};
use tlmm_model::oblivious::{
    near_resident_cap_elems, nmsort_aware_cost, predicted_crossover, spms_cost, squaresort_cost,
};
use tlmm_model::theorems::CostSplit;
use tlmm_model::ScratchpadParams;
use tlmm_telemetry::RunReport;

const ELEM: usize = 8; // u64 keys
const MARGIN: f64 = 1.05; // crossover = far traffic >5% above NMsort's

/// One measured sweep cell.
#[derive(Serialize)]
struct Cell {
    m_bytes: u64,
    n: u64,
    engine: &'static str,
    far_blocks_sim: f64,
    far_blocks_pred: f64,
    near_blocks_sim: f64,
}

/// Per-(M, engine) crossover verdict.
#[derive(Serialize)]
struct Crossover {
    m_bytes: u64,
    engine: &'static str,
    cap_elems: u64,
    simulated_n: u64,
    predicted_n: u64,
}

fn params_for(m: u64) -> ScratchpadParams {
    ScratchpadParams::new(64, 4.0, m, m / 16).expect("sweep params validate")
}

fn predictor(engine: Engine) -> fn(&ScratchpadParams, u64, usize) -> CostSplit {
    match engine {
        Engine::Spms => spms_cost,
        Engine::SquareSort => squaresort_cost,
        _ => nmsort_aware_cost,
    }
}

fn measure_far_blocks(engine: Engine, n: u64, params: ScratchpadParams) -> (f64, f64) {
    // Same workload in every cell; only (M, engine) vary.
    let spec = SortSpec::new(engine, n as usize, 8, 0xC0);
    let run = run_sort(&spec, Overrides::params(params))
        .unwrap_or_else(|e| panic!("{} n={n}: {e}", engine.name()));
    let far = run.ledger.far_bytes as f64 / params.block_bytes as f64;
    let near = run.ledger.near_bytes as f64 / params.near_block_bytes() as f64;
    (far, near)
}

pub fn run(mut args: Args) -> Outcome {
    let smoke = args.flag("--smoke");
    args.finish();
    let ms: &[u64] = if smoke {
        &[1 << 20, 4 << 20]
    } else {
        &[4 << 20, 16 << 20, 64 << 20]
    };
    // n at fixed ratios of the residency cap so the crossover is always
    // bracketed: strictly below, at, and well beyond the cap.
    let ratios: &[(u64, u64)] = if smoke {
        &[(1, 2), (1, 1), (2, 1), (4, 1)]
    } else {
        &[(1, 4), (1, 2), (1, 1), (2, 1), (4, 1), (8, 1)]
    };
    let engines = [Engine::Spms, Engine::SquareSort];
    eprintln!(
        "[fig_crossover] {} Ms x {} ns x {} oblivious engines{}",
        ms.len(),
        ratios.len(),
        engines.len(),
        if smoke { " (smoke)" } else { "" }
    );

    let mut cells: Vec<Cell> = Vec::new();
    let mut crossovers: Vec<Crossover> = Vec::new();
    let mut out = String::new();
    outln!(
        out,
        "\nfig_crossover — aware (nmsort) vs oblivious (spms, squaresort) far \
         traffic in {}-byte blocks; crossover = first n on the grid where an \
         oblivious engine pays >{:.0}% more far traffic than nmsort\n",
        64,
        (MARGIN - 1.0) * 100.0
    );

    for &m in ms {
        let params = params_for(m);
        let cap = near_resident_cap_elems(&params, ELEM);
        let grid: Vec<u64> = ratios.iter().map(|&(p, q)| (cap * p / q).max(2)).collect();

        // Measure every cell: NMsort first (the aware yardstick), then the
        // oblivious engines against it.
        let mut aware_sim: Vec<f64> = Vec::new();
        let mut t = Table::new(["n / cap", "n", "nmsort", "spms", "squaresort", "pred s/q"]);
        for (gi, &n) in grid.iter().enumerate() {
            let (aware_far, _) = measure_far_blocks(Engine::NmSort, n, params);
            aware_sim.push(aware_far);
            cells.push(Cell {
                m_bytes: m,
                n,
                engine: Engine::NmSort.name(),
                far_blocks_sim: aware_far,
                far_blocks_pred: nmsort_aware_cost(&params, n, ELEM).far_blocks,
                near_blocks_sim: 0.0,
            });
            let mut row = vec![
                format!("{}/{}", ratios[gi].0, ratios[gi].1),
                n.to_string(),
                format!("{aware_far:.0}"),
            ];
            let mut preds = Vec::new();
            for engine in engines {
                let (far, near) = measure_far_blocks(engine, n, params);
                let pred = predictor(engine)(&params, n, ELEM).far_blocks;
                cells.push(Cell {
                    m_bytes: m,
                    n,
                    engine: engine.name(),
                    far_blocks_sim: far,
                    far_blocks_pred: pred,
                    near_blocks_sim: near,
                });
                row.push(format!("{far:.0}"));
                preds.push(format!("{pred:.0}"));
            }
            row.push(preds.join("/"));
            t.row(row);
        }
        outln!(out, "M = {} MiB (cap = {} elems)", m >> 20, cap);
        outln!(out, "{}", t.render());

        for engine in engines {
            // Simulated crossover: scan the measured cells on this M.
            let simulated_n = grid
                .iter()
                .enumerate()
                .find(|&(gi, &n)| {
                    cells
                        .iter()
                        .find(|c| c.m_bytes == m && c.n == n && c.engine == engine.name())
                        .map(|c| c.far_blocks_sim > aware_sim[gi] * MARGIN)
                        .unwrap_or(false)
                })
                .map(|(_, &n)| n);
            let predicted_n = predicted_crossover(&params, ELEM, &grid, predictor(engine), MARGIN);

            // --- Sanity gates ---
            let last_n = *grid.last().expect("non-empty grid");
            let last_cell = cells
                .iter()
                .find(|c| c.m_bytes == m && c.n == last_n && c.engine == engine.name())
                .expect("largest-n cell measured");
            assert!(
                last_cell.far_blocks_sim >= *aware_sim.last().expect("aware cell"),
                "{} at n={last_n} (M={m}): oblivious far traffic must not undercut \
                 the aware engine in the paper regime",
                engine.name()
            );
            let simulated_n = simulated_n.unwrap_or_else(|| {
                panic!(
                    "{} (M={m}): no simulated crossover on the grid",
                    engine.name()
                )
            });
            let predicted_n = predicted_n.unwrap_or_else(|| {
                panic!(
                    "{} (M={m}): no predicted crossover on the grid",
                    engine.name()
                )
            });
            let sim_idx = grid.iter().position(|&n| n == simulated_n).unwrap();
            let pred_idx = grid.iter().position(|&n| n == predicted_n).unwrap();
            assert!(
                sim_idx.abs_diff(pred_idx) <= 1,
                "{} (M={m}): predicted crossover n={predicted_n} is more than one \
                 grid step from simulated n={simulated_n}",
                engine.name()
            );
            if let Some(prev) = crossovers.iter().rfind(|c| c.engine == engine.name()) {
                assert!(
                    simulated_n >= prev.simulated_n,
                    "{}: crossover must be monotone in M ({} at M={} then {} at M={m})",
                    engine.name(),
                    prev.simulated_n,
                    prev.m_bytes,
                    simulated_n
                );
            }
            crossovers.push(Crossover {
                m_bytes: m,
                engine: engine.name(),
                cap_elems: cap,
                simulated_n,
                predicted_n,
            });
        }
    }

    let mut t = Table::new(["M (MiB)", "engine", "cap", "simulated n*", "predicted n*"]);
    for c in &crossovers {
        t.row(vec![
            (c.m_bytes >> 20).to_string(),
            c.engine.to_string(),
            c.cap_elems.to_string(),
            c.simulated_n.to_string(),
            c.predicted_n.to_string(),
        ]);
    }
    outln!(
        out,
        "crossover points (n* grows with M: awareness buys exactly \
                 one residency cap)"
    );
    outln!(out, "{}", t.render());

    let report = RunReport::collect("fig_crossover")
        .meta("smoke", smoke)
        .meta("elem_bytes", ELEM)
        .meta("margin", MARGIN)
        .section("cells", &cells)
        .section("crossovers", &crossovers);
    artifact::emit("fig_crossover", &out, report)?;
    Ok(())
}
