//! `perf_gate` — CI perf-regression gate over the kernel bench.
//!
//! Compares a freshly measured smoke run (`kernel_bench --smoke`, which
//! writes `<results>/BENCH_kernels_smoke.json`) against the committed
//! smoke baseline (`BENCH_kernels_smoke.json` at the repo root), cell by
//! cell, and fails with a per-kernel delta table when any before→after
//! **speedup** regresses beyond the tolerance.
//!
//! Speedups — not raw medians — are what gates portably: each speedup is
//! the ratio of an interleaved baseline/optimized pair measured back to
//! back on the *same* host in the *same* process (see `kernel_bench`'s
//! `paired_medians_ms`), so host-to-host clock drift cancels. Raw medians
//! of the unpaired cells (`bucketize`, `nmsort_e2e`) are reported for the
//! eyeball but never fail the gate.
//!
//! Run: `cargo run --release -p tlmm-bench --bin perf_gate -- \
//!     [--baseline PATH] [--fresh PATH] [--tolerance FRAC]`
//!
//! Tolerance defaults to 0.15 (±15%); override with the flag or
//! `TLMM_PERF_TOLERANCE`. A malformed flag, tolerance or input file exits
//! with code 2; a regression exits with 1.

use serde::{Deserialize, Serialize};
use tlmm_bench::cli::{flag_value, parse_or_exit, usage_error};
use tlmm_bench::{artifact, outln};

const BIN: &str = "perf_gate";
use tlmm_telemetry::RunReport;

/// Mirror of `kernel_bench`'s cell record (decode-only).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Cell {
    kernel: String,
    workload: String,
    n: usize,
    baseline_ms: Option<f64>,
    optimized_ms: f64,
    speedup: Option<f64>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct BenchFile {
    git_sha: String,
    mode: String,
    warmup_iters: usize,
    measured_iters: usize,
    cells: Vec<Cell>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Delta {
    kernel: String,
    workload: String,
    n: usize,
    committed_speedup: f64,
    fresh_speedup: f64,
    /// `fresh / committed - 1`.
    delta: f64,
    verdict: String,
}

fn load(path: &str) -> BenchFile {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| usage_error(BIN, format_args!("cannot read {path}: {e}")));
    serde::json::from_str(&text)
        .unwrap_or_else(|e| usage_error(BIN, format_args!("cannot parse {path}: {e}")))
}

/// A tolerance from the flag or the environment: a finite fraction ≥ 0.
/// (NaN would compare false against every delta and pass any regression.)
fn parse_tolerance(what: &str, text: &str) -> f64 {
    let t: f64 = parse_or_exit(BIN, what, text);
    if !(t.is_finite() && t >= 0.0) {
        usage_error(
            BIN,
            format_args!("bad {what} {text:?}: must be a finite fraction >= 0"),
        );
    }
    t
}

fn main() {
    let mut baseline_path = "BENCH_kernels_smoke.json".to_string();
    let mut fresh_path = artifact::results_dir()
        .join("BENCH_kernels_smoke.json")
        .display()
        .to_string();
    let mut tolerance = match std::env::var("TLMM_PERF_TOLERANCE") {
        Ok(text) => parse_tolerance("TLMM_PERF_TOLERANCE", &text),
        Err(std::env::VarError::NotPresent) => 0.15,
        Err(e) => usage_error(BIN, format_args!("bad TLMM_PERF_TOLERANCE: {e}")),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if !matches!(flag, "--baseline" | "--fresh" | "--tolerance") {
            usage_error(BIN, format_args!("unknown flag {flag:?}"));
        }
        let val = flag_value(BIN, &argv, i);
        match flag {
            "--baseline" => baseline_path = val.to_string(),
            "--fresh" => fresh_path = val.to_string(),
            _ => tolerance = parse_tolerance("--tolerance", val),
        }
        i += 2;
    }

    let committed = load(&baseline_path);
    let fresh = load(&fresh_path);
    if committed.mode != fresh.mode {
        usage_error(
            BIN,
            format_args!(
                "comparing mode {:?} against {:?} — cells are not size-matched, refusing",
                fresh.mode, committed.mode
            ),
        );
    }

    let mut text = String::new();
    outln!(
        text,
        "perf gate: {} (fresh, {}) vs {} (committed, {}), tolerance ±{:.0}%",
        fresh_path,
        fresh.git_sha,
        baseline_path,
        committed.git_sha,
        tolerance * 100.0
    );
    outln!(
        text,
        "{:<14} {:<13} {:>9} {:>10} {:>9} {:>8}  {}",
        "kernel",
        "workload",
        "n",
        "committed",
        "fresh",
        "delta",
        "verdict"
    );

    let mut deltas = Vec::new();
    let mut regressions = 0usize;
    for c in &committed.cells {
        let Some(cs) = c.speedup else { continue };
        let Some(f) = fresh
            .cells
            .iter()
            .find(|f| f.kernel == c.kernel && f.workload == c.workload && f.n == c.n)
        else {
            outln!(
                text,
                "{:<14} {:<13} {:>9} {:>10.2}x {:>9} {:>8}  MISSING in fresh run",
                c.kernel,
                c.workload,
                c.n,
                cs,
                "-",
                "-"
            );
            regressions += 1;
            continue;
        };
        let fs = f.speedup.unwrap_or(0.0);
        let delta = fs / cs - 1.0;
        let verdict = if delta < -tolerance {
            regressions += 1;
            "REGRESSED"
        } else if delta > tolerance {
            "improved (consider re-blessing the baseline)"
        } else {
            "ok"
        };
        outln!(
            text,
            "{:<14} {:<13} {:>9} {:>9.2}x {:>8.2}x {:>+7.1}%  {verdict}",
            c.kernel,
            c.workload,
            c.n,
            cs,
            fs,
            delta * 100.0
        );
        deltas.push(Delta {
            kernel: c.kernel.clone(),
            workload: c.workload.clone(),
            n: c.n,
            committed_speedup: cs,
            fresh_speedup: fs,
            delta,
            verdict: verdict.to_string(),
        });
    }

    // Unpaired cells: informational wall-clock drift only.
    outln!(text);
    outln!(text, "unpaired cells (informational, never gate):");
    for c in committed.cells.iter().filter(|c| c.speedup.is_none()) {
        if let Some(f) = fresh
            .cells
            .iter()
            .find(|f| f.kernel == c.kernel && f.workload == c.workload && f.n == c.n)
        {
            outln!(
                text,
                "{:<14} {:<13} {:>9} {:>9.3}ms {:>7.3}ms {:>+7.1}%",
                c.kernel,
                c.workload,
                c.n,
                c.optimized_ms,
                f.optimized_ms,
                (f.optimized_ms / c.optimized_ms - 1.0) * 100.0
            );
        }
    }

    outln!(text);
    if regressions > 0 {
        outln!(
            text,
            "perf gate: FAIL — {regressions} regression(s) beyond tolerance"
        );
    } else {
        outln!(
            text,
            "perf gate: OK — {} paired cell(s) within tolerance",
            deltas.len()
        );
    }

    let report = RunReport::collect("perf_gate")
        .meta("tolerance", tolerance)
        .meta("baseline", &baseline_path)
        .meta("fresh", &fresh_path)
        .meta("regressions", regressions)
        .section("deltas", &deltas);
    artifact::emit("perf_gate", &text, report).expect("emit perf_gate artifacts");
    if regressions > 0 {
        std::process::exit(1);
    }
}
