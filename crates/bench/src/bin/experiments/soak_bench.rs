//! **Soak bench** — the service layer under sustained multi-tenant load.
//!
//! Drives `tlmm-service` with a deterministic stream of mixed sort jobs
//! (all five engines, three priority classes, eight tenants, a spread of
//! sizes and deadlines) at 1×, 2×, and 4× the machine's offered-load
//! capacity, and reports per-class p50/p95/p99 latency plus shed /
//! preemption / timeout counts per level.
//!
//! The run *asserts* the robustness headlines in-binary, so a regression
//! fails the bench rather than quietly shifting a number:
//!
//! * zero leaked near bytes across every job at every load level;
//! * every rejection is typed (`Infeasible` ⇒ `retry_after == 0`, the
//!   saturation reasons ⇒ `retry_after > 0`) — overload never panics;
//! * under 4× overload, interactive p99 stays within `3×` its 1×-load
//!   p99 (bounded latency for the protected class);
//! * goodput at 4× stays ≥ 50 % of the 1×-load goodput rate (graceful
//!   degradation, not collapse).
//!
//! Writes `results/soak.txt` and `results/soak.json`.
//!
//! Run: `cargo run --release -p tlmm-bench --bin experiments -- soak_bench [--smoke]`
//! (`--smoke` runs hundreds of jobs per level instead of thousands.)

use serde::Serialize;
use tlmm_analysis::table::Table;
use tlmm_bench::cli::{Args, Outcome};
use tlmm_bench::{artifact, outln};
use tlmm_model::{Engine, ScratchpadParams};
use tlmm_scratchpad::splitmix64;
use tlmm_service::{
    ClassStats, JobOutcome, JobRequest, Priority, RejectReason, ServiceConfig, ServiceReport,
    SortService,
};
use tlmm_telemetry::RunReport;

/// Summary of one load level, serialized into `results/soak.json`.
#[derive(Debug, Clone, Serialize)]
struct LevelSummary {
    /// Offered-load multiplier (1, 2, 4).
    load_x: u64,
    /// Jobs offered.
    jobs: u64,
    /// Jobs completed with verified output.
    completed: u64,
    /// Typed admission rejections.
    shed: u64,
    /// Deadline timeouts (queued + mid-run cancellations).
    timed_out: u64,
    /// Typed engine failures.
    failed: u64,
    /// Slot-preemption events.
    preemptions: u64,
    /// Jobs admitted with a proactively shrunk chunk.
    degraded_admissions: u64,
    /// Post-job leak checks (== physical runs).
    leak_checks: u64,
    /// Leak checks that found residual near bytes (must be 0).
    leak_failures: u64,
    /// Virtual makespan of the level.
    makespan: u64,
    /// Charged units of completed jobs.
    goodput_units: u64,
    /// Charged units including cancelled / failed work.
    total_units: u64,
    /// Per-class latency stats.
    classes: Vec<ClassStats>,
}

fn service_config(smoke: bool) -> ServiceConfig {
    ServiceConfig {
        // Small scratchpad on purpose: near-memory contention (and hence
        // admission pressure) is the thing under test.
        params: ScratchpadParams::new(64, 4.0, 1 << 20, 64 << 10).expect("soak params are valid"),
        slots: 8,
        near_budget_bytes: 0,
        tenant_slot_cap: 6,
        // Interactive's queue is small on purpose: bounding its queue is
        // what bounds its p99 under overload.
        queue_cap: if smoke { [4, 32, 128] } else { [4, 128, 512] },
        seed: 0x50AC_BEEF,
    }
}

/// Deterministic mixed workload: `jobs` arrivals spread so that offered
/// load is `load_x` times the slot pool's service capacity.
fn build_jobs(jobs: usize, load_x: u64, cfg: &ServiceConfig) -> Vec<JobRequest> {
    let mut out = Vec::with_capacity(jobs);
    let mut est_total: u64 = 0;
    let mut protos = Vec::with_capacity(jobs);
    for i in 0..jobs as u64 {
        let h = splitmix64(0xD15C_0000 ^ i);
        let class = match h % 10 {
            0 | 1 => Priority::Interactive,
            2..=6 => Priority::Batch,
            _ => Priority::Background,
        };
        let engine = match (h >> 8) % 10 {
            0..=5 => Engine::NmSort,
            6 => Engine::NmSortDma,
            7 => Engine::Baseline,
            8 => Engine::Spms,
            _ => Engine::SquareSort,
        };
        let n = 2_000 + ((h >> 16) % 38_000) as usize;
        let est = tlmm_model::admission_estimate(&cfg.params, engine, n as u64, 8, None);
        est_total += est.est_units;
        protos.push((h, class, engine, n, est.est_units));
    }
    // The pool serves `slots` units per virtual tick; spreading arrivals
    // over (total demand)/(slots × load_x) ticks offers load_x × capacity.
    let span = (est_total / (cfg.slots * load_x)).max(jobs as u64);
    let gap = (span / jobs as u64).max(1);
    for (i, (h, class, engine, n, est_units)) in protos.into_iter().enumerate() {
        let arrival = i as u64 * gap;
        // A third of interactive jobs carry a deadline: 8× their ideal
        // full-pool service time — generous when healthy, binding under
        // overload.
        let deadline = if class == Priority::Interactive && h % 3 == 0 {
            Some(arrival + 8 * est_units.div_ceil(cfg.slots).max(1))
        } else {
            None
        };
        out.push(JobRequest {
            tenant: (h >> 32) % 8,
            priority: class,
            engine,
            n,
            seed: h,
            arrival,
            deadline,
        });
    }
    out
}

fn summarize(load_x: u64, jobs: usize, rep: &ServiceReport) -> LevelSummary {
    let sum = |f: fn(&ClassStats) -> u64| rep.classes.iter().map(f).sum::<u64>();
    LevelSummary {
        load_x,
        jobs: jobs as u64,
        completed: sum(|c| c.completed),
        shed: sum(|c| c.shed),
        timed_out: sum(|c| c.timed_out),
        failed: sum(|c| c.failed),
        preemptions: rep.preemptions,
        degraded_admissions: rep.degraded_admissions,
        leak_checks: rep.leak_checks,
        leak_failures: rep.leak_failures,
        makespan: rep.makespan,
        goodput_units: rep.goodput_units,
        total_units: rep.total_units,
        classes: rep.classes.clone(),
    }
}

/// Goodput rate in charged units per virtual tick.
fn goodput_rate(s: &LevelSummary) -> f64 {
    if s.makespan == 0 {
        return 0.0;
    }
    s.goodput_units as f64 / s.makespan as f64
}

pub fn run(mut args: Args) -> Outcome {
    let smoke = args.flag("--smoke");
    args.finish();
    let jobs_per_level = if smoke { 200 } else { 1_200 };
    let cfg = service_config(smoke);

    tlmm_telemetry::reset();
    let _run = tlmm_telemetry::span!("soak.run");

    let mut text = String::new();
    outln!(
        text,
        "Soak: {} jobs/level through tlmm-service at 1x/2x/4x offered load{}",
        jobs_per_level,
        if smoke { " (smoke)" } else { "" }
    );
    outln!(
        text,
        "  M = {} KiB, p' = {} slots, tenant cap = {}, latencies in virtual units (charged bytes)",
        cfg.params.scratchpad_bytes >> 10,
        cfg.slots,
        cfg.tenant_slot_cap
    );
    outln!(text);

    let mut levels: Vec<LevelSummary> = Vec::new();
    for load_x in [1u64, 2, 4] {
        let jobs = build_jobs(jobs_per_level, load_x, &cfg);
        let svc = SortService::new(cfg.clone()).expect("service config is valid");
        let (rep, outcomes) = {
            let _s = tlmm_telemetry::span!("soak.level");
            svc.run(&jobs).expect("service run cannot fail as a whole")
        };

        // Every rejection must be typed and carry an honest retry hint.
        for o in &outcomes {
            if let JobOutcome::Shed(r) = o {
                match r.reason {
                    RejectReason::Infeasible => assert_eq!(
                        r.retry_after, 0,
                        "infeasible jobs must not be told to retry"
                    ),
                    RejectReason::NearSaturated | RejectReason::QueueFull => {
                        assert!(r.retry_after > 0, "saturation sheds must carry retry_after")
                    }
                }
            }
        }
        assert_eq!(
            rep.leak_failures, 0,
            "{load_x}x load leaked near bytes ({} checks)",
            rep.leak_checks
        );
        levels.push(summarize(load_x, jobs_per_level, &rep));
    }

    // ---- rendered tables ------------------------------------------------
    let mut t = Table::new([
        "load",
        "jobs",
        "done",
        "shed",
        "timeout",
        "fail",
        "preempt",
        "degraded",
        "makespan",
        "goodput/tick",
    ]);
    for s in &levels {
        t.row([
            format!("{}x", s.load_x),
            s.jobs.to_string(),
            s.completed.to_string(),
            s.shed.to_string(),
            s.timed_out.to_string(),
            s.failed.to_string(),
            s.preemptions.to_string(),
            s.degraded_admissions.to_string(),
            s.makespan.to_string(),
            format!("{:.1}", goodput_rate(s)),
        ]);
    }
    outln!(text, "{}", t.render());

    outln!(text, "Per-class completion latency (virtual units):");
    let mut t = Table::new(["load", "class", "done", "p50", "p95", "p99", "max"]);
    for s in &levels {
        for c in &s.classes {
            t.row([
                format!("{}x", s.load_x),
                c.class.clone(),
                c.completed.to_string(),
                c.p50.to_string(),
                c.p95.to_string(),
                c.p99.to_string(),
                c.max_latency.to_string(),
            ]);
        }
    }
    outln!(text, "{}", t.render());

    // ---- headline assertions -------------------------------------------
    let base = &levels[0];
    let worst = &levels[2];
    let p99_1x = base.classes[Priority::Interactive.index()].p99;
    let p99_4x = worst.classes[Priority::Interactive.index()].p99;
    assert!(
        base.classes[Priority::Interactive.index()].completed > 0
            && worst.classes[Priority::Interactive.index()].completed > 0,
        "interactive jobs must complete at both 1x and 4x"
    );
    assert!(
        p99_4x <= 3 * p99_1x,
        "interactive p99 unbounded under overload: 4x p99 {p99_4x} > 3 x 1x p99 {p99_1x}"
    );
    let rate_1x = goodput_rate(base);
    let rate_4x = goodput_rate(worst);
    assert!(
        rate_4x >= 0.5 * rate_1x,
        "goodput collapsed under overload: 4x rate {rate_4x:.1} < 50% of 1x rate {rate_1x:.1}"
    );
    assert!(
        worst.shed + worst.timed_out > 0,
        "4x overload should shed or time out some work (else the load model is broken)"
    );
    outln!(
        text,
        "headlines: interactive p99 {}x -> {}x of 1x-load p99 (bound 3x); \
         goodput rate {:.1} -> {:.1} units/tick ({:.0}% retained, bound 50%)",
        1,
        if p99_1x > 0 {
            p99_4x as f64 / p99_1x as f64
        } else {
            0.0
        },
        rate_1x,
        rate_4x,
        100.0 * rate_4x / rate_1x.max(f64::MIN_POSITIVE)
    );

    drop(_run);
    let report = RunReport::collect("soak")
        .meta("smoke", smoke)
        .meta("jobs_per_level", jobs_per_level)
        .meta("slots", cfg.slots)
        .meta("scratchpad_bytes", cfg.params.scratchpad_bytes)
        .section("levels", &levels);
    artifact::emit("soak", &text, report)?;
    Ok(())
}
