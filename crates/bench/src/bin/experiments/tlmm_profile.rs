//! `tlmm_profile` — run one sort under the flight recorder and emit a
//! Perfetto-loadable trace plus a critical-path attribution summary.
//!
//! This is the observability companion to the other experiments: where
//! `table1` asks *how much* a run costs, this asks *where the time went* —
//! which worker lane carried the makespan, how much of it was far/near
//! occupancy vs. waiting on a p′ transfer slot, and whether that verdict
//! agrees with the flow engine's analytic [`Bottleneck`] labels.
//!
//! Run (defaults to a contended deterministic run, p=8 workers over p′=2
//! transfer slots, so `slot_wait` shows up on the path):
//!
//! ```text
//! cargo run --release -p tlmm-bench --bin experiments -- tlmm_profile \
//!     [--algo nmsort|dma|baseline|spms|squaresort] [--n N] [--lanes L]
//!     [--chunk C] [--seed S] [--workers P] [--slots P'] [--exec-seed E]
//!     [--fault-seed F] [--name NAME]
//! ```
//!
//! Outputs under `results/` (or `$TLMM_RESULTS_DIR`):
//! `<name>.trace.json` (Chrome/Perfetto trace), `<name>.txt` and
//! `<name>.json` (critical-path summary + cross-check). In deterministic
//! mode the binary *asserts* the trace's internal invariants: validation
//! passes, the critical-path length equals the executor's charged makespan,
//! and traced transfer bytes equal the cost ledger byte-for-byte.
//!
//! [`Bottleneck`]: tlmm_memsim::stats::Bottleneck

use std::num::NonZeroUsize;
use tlmm_bench::cli::{Args, Outcome};
use tlmm_bench::{artifact, outln, parse_engine, run_sort, Engine, Overrides, SortSpec};
use tlmm_memsim::crosscheck::cross_check;
use tlmm_memsim::{simulate_flow, MachineConfig};
use tlmm_scratchpad::ExecConfig;
use tlmm_telemetry::critical::critical_path;
use tlmm_telemetry::flight::{self, FlightConfig};
use tlmm_telemetry::{perfetto, RunReport};

/// The experiment's arguments, as printed on a usage error.
pub const USAGE: &str = "[--algo ENGINE] [--n N] [--lanes L] [--chunk C] [--seed S] \
                         [--workers P] [--slots P'] [--exec-seed E] [--fault-seed F] [--name NAME]";

struct Opts {
    algo: Engine,
    n: usize,
    lanes: usize,
    chunk: usize,
    seed: u64,
    workers: usize,
    slots: usize,
    exec_seed: u64,
    fault_seed: Option<u64>,
    name: String,
}

/// Parse the flags; each one absent keeps the default run.
fn parse_opts(args: &mut Args) -> Opts {
    let count = |args: &mut Args, flag: &str, default: usize| {
        args.value::<NonZeroUsize>(flag)
            .map_or(default, NonZeroUsize::get)
    };
    let opts = Opts {
        algo: args
            .value_with("--algo", parse_engine)
            .unwrap_or(Engine::NmSort),
        n: count(args, "--n", 200_000),
        lanes: count(args, "--lanes", 8),
        chunk: count(args, "--chunk", 40_000),
        seed: args.value("--seed").unwrap_or(42),
        workers: count(args, "--workers", 8),
        slots: count(args, "--slots", 2),
        exec_seed: args.value("--exec-seed").unwrap_or(7),
        fault_seed: args.value("--fault-seed"),
        name: args
            .value("--name")
            .unwrap_or_else(|| "tlmm_profile".to_string()),
    };
    args.finish();
    opts
}

pub fn run(mut args: Args) -> Outcome {
    let opts = parse_opts(&mut args);
    let exec = ExecConfig::deterministic(opts.workers, opts.slots, opts.exec_seed);
    if let Err(e) = exec.validate() {
        args.fail(format_args!("bad executor: {e}"));
    }

    let spec = SortSpec {
        chunk_elems: opts.algo.uses_chunks().then_some(opts.chunk),
        fault_seed: opts.fault_seed,
        ..SortSpec::new(opts.algo, opts.n, opts.lanes, opts.seed)
    };

    // The recorder mirrors the executor's (p, p′, seed) so the trace is a
    // self-describing replay key. Capacity is sized generously: a dropped
    // event would make the byte cross-check report a false mismatch.
    flight::install(
        FlightConfig::virtual_time(opts.workers as u32, opts.slots as u32, opts.exec_seed)
            .with_capacity(1 << 20),
    );
    let run = run_sort(&spec, Overrides::exec(exec)).unwrap_or_else(|e| {
        flight::uninstall();
        eprintln!("[{}] run failed: {e}", opts.name);
        std::process::exit(1);
    });
    let trace = flight::uninstall().expect("recorder was installed");

    // --- Invariant gates (deterministic mode makes these exact). ---
    if let Err(errors) = trace.validate() {
        eprintln!("[{}] trace validation FAILED:", opts.name);
        for e in &errors {
            eprintln!("  - {e}");
        }
        std::process::exit(1);
    }
    let cp = critical_path(&trace);
    let exec_report = run.exec.as_ref().expect("executor report");
    assert_eq!(
        cp.makespan, exec_report.makespan_units,
        "critical-path length must equal the executor's charged makespan"
    );
    if trace.dropped() == 0 {
        let traced_far = trace.transfer_bytes(|t| t.far());
        let traced_near = trace.transfer_bytes(|t| !t.far());
        assert_eq!(
            traced_far, run.ledger.far_bytes,
            "traced far bytes must equal the cost ledger"
        );
        assert_eq!(
            traced_near, run.ledger.near_bytes,
            "traced near bytes must equal the cost ledger"
        );
    }

    // --- Cross-check against the flow engine's analytic labels. ---
    let sim = simulate_flow(&run.trace, &MachineConfig::fig4(opts.lanes as u32, 4.0));
    let xc = cross_check(&cp, &sim);

    // --- Perfetto trace artifact. ---
    let chrome = perfetto::to_chrome_json(&trace);
    let dir = artifact::results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let trace_path = dir.join(format!("{}.trace.json", opts.name));
    std::fs::write(&trace_path, &chrome).expect("write trace.json");

    // --- Human summary. ---
    let mut text = String::new();
    outln!(
        text,
        "tlmm_profile: {:?} n={} lanes={}",
        opts.algo,
        opts.n,
        opts.lanes
    );
    outln!(
        text,
        "executor: p={} workers, p'={} slots, seed={} (deterministic)",
        opts.workers,
        opts.slots,
        opts.exec_seed
    );
    outln!(
        text,
        "trace: {} events across {} lanes ({} dropped), {} transfers",
        trace.lanes.iter().map(|l| l.events.len()).sum::<usize>(),
        trace.lanes.len(),
        trace.dropped(),
        trace.transfers().len()
    );
    outln!(text);
    outln!(text, "{}", cp.summary_table());
    outln!(text, "cross-check: {}", xc.render());
    outln!(text, "perfetto trace: {}", trace_path.display());

    let report = RunReport::collect(&opts.name)
        .meta("algo", format!("{:?}", opts.algo))
        .meta("n", opts.n)
        .meta("lanes", opts.lanes)
        .meta("workers", opts.workers)
        .meta("slots", opts.slots)
        .meta("exec_seed", opts.exec_seed)
        .meta("trace_file", trace_path.display())
        .section("critical_path", &cp)
        .section("cross_check", &xc)
        .section("ledger", &run.ledger)
        .section("degradations", &run.degradations);
    artifact::emit(&opts.name, &text, report)?;
    Ok(())
}
