//! The four workloads. Each function takes its sizes as arguments so tests
//! can run it end to end at a tiny scale; [`run`] calls them at the fixed
//! paper scale.

use std::time::Instant;

use tlmm_core::kernels::radix_sort;
use tlmm_core::{baseline_sort, nmsort, spms_sort, BaselineConfig, NmSortConfig, ObliviousConfig};
use tlmm_memsim::des::{simulate_des, DesOptions};
use tlmm_memsim::stats::SimReport;
use tlmm_memsim::{simulate_flow, MachineConfig};
use tlmm_model::{admission_estimate, Engine, ScratchpadParams};
use tlmm_scratchpad::{splitmix64, TwoLevel};
use tlmm_service::{
    percentile, JobOutcome, JobRequest, Priority, ServiceConfig, ServiceError, ServiceReport,
    SortService,
};
use tlmm_workloads::{generate, Workload};

use crate::harness::{bound_layers, measure, Ctx, Kind, Measured, Probe, Setup};
use crate::metrics::Outcome;
use crate::stats::{check_output, median, tail_percentile, Fingerprint};

/// Workload names, in run order.
pub const WORKLOADS: [&str; 4] = ["table1_10m", "dma_100m", "spms_zipf_10m", "service_mix"];

/// Run workload `name` at its fixed paper scale.
pub fn run(name: &str, ctx: &Ctx) -> Option<Outcome> {
    Some(match name {
        "table1_10m" => table1(ctx, 10_000_000, 2_000_000),
        "dma_100m" => dma(ctx, 100_000_000, 2_000_000, 10_000_000),
        "spms_zipf_10m" => spms_zipf(ctx, 10_000_000),
        "service_mix" => service_mix(ctx, 1_200),
        _ => return None,
    })
}

/// The experiment-scale two-level memory of the paper's node: 64 B blocks,
/// a 256 MiB scratchpad and a 36 MiB last-level cache. ρ only scales the
/// ledger's near-block units; the simulated ρ comes from the machine the
/// trace is replayed on.
fn node_params() -> ScratchpadParams {
    ScratchpadParams::new(64, 4.0, 256 << 20, 36 << 20).expect("node parameters are valid")
}

/// Keys are `u64`.
const ELEM_BYTES: usize = 8;

/// Table I's GNU sort vs NMsort (8×) columns: simulated seconds and DRAM
/// accesses (EXPERIMENTS.md, T1).
const PAPER_GNU: (f64, f64) = (898.419, 394_774_287.0);
const PAPER_NMSORT_2X_DRAM: f64 = 161_440_225.0;
const PAPER_NMSORT_8X_S: f64 = 640.126;

/// Memsim metrics shared by the sort workloads, from the primary replay.
fn sim_layers(p: &mut Probe, sim: &SimReport) {
    p.det("sim_s", sim.seconds);
    p.det("dram_accesses", sim.far_accesses as f64);
    p.det("near_accesses", sim.near_accesses as f64);
    p.layer("memsim.sim_s", sim.seconds);
    p.layer("memsim.dram_accesses", sim.far_accesses as f64);
    p.layer("scratchpad.near_accesses", sim.near_accesses as f64);
    p.layer("memsim.overlapped_pairs", sim.overlapped_pairs as f64);
    p.layer("memsim.overlap_frac", sim.overlap_fraction());
    bound_layers(p, sim);
    p.sim(sim);
}

/// Charged units the model predicted over the units the ledger booked.
fn est_error(predicted: u64, measured: u64) -> f64 {
    predicted as f64 / measured.max(1) as f64 - 1.0
}

fn nmsort_layers(p: &mut Probe, r: &tlmm_core::NmSortReport<u64>) {
    p.det("chunks", r.chunks as f64);
    p.det("batches", r.batches as f64);
    p.layer("core.nmsort.chunks", r.chunks as f64);
    p.layer("core.nmsort.batches", r.batches as f64);
    p.layer("core.nmsort.oversized_buckets", r.oversized_buckets as f64);
    p.layer("core.degradations", r.degradations.total() as f64);
}

/// Table I: GNU-style baseline and blocking NMsort on `n` uniform keys with
/// 256 lanes, the NMsort trace replayed at ρ ∈ {2, 4, 8} by the flow
/// engine and at ρ = 8 by the discrete-event engine.
pub fn table1(ctx: &Ctx, n: usize, chunk: usize) -> Outcome {
    const LANES: usize = 256;
    let params = node_params();
    let machines = [2.0, 4.0, 8.0].map(|rho| MachineConfig::fig4(LANES as u32, rho));
    let des = DesOptions {
        req_bytes: 1024,
        ..DesOptions::default()
    };
    let m = measure(ctx, LANES, |p| {
        let input = p.setup(Setup::Generate, || {
            generate(Workload::UniformU64, n, ctx.seed)
        });
        let fp = Fingerprint::of(&input);
        let copy = input.clone();
        let (tlb, tln) = p.setup(Setup::New, || {
            (TwoLevel::new(params), TwoLevel::new(params))
        });
        let (est_b, est_n) = p.setup(Setup::Estimate, || {
            (
                admission_estimate(&params, Engine::Baseline, n as u64, ELEM_BYTES, None),
                admission_estimate(&params, Engine::NmSort, n as u64, ELEM_BYTES, Some(chunk)),
            )
        });

        let bcfg = BaselineConfig {
            sim_lanes: LANES,
            threads: ctx.threads,
            ..Default::default()
        };
        let far = tlb.far_from_vec(copy);
        match p.call("baseline_sort", Kind::Engine, || {
            baseline_sort(&tlb, far, &bcfg)
        }) {
            Ok(r) => p.check_sort("baseline_sort", &tlb, fp, r.output.as_slice_uncharged()),
            Err(e) => return p.engine_error("baseline_sort", e),
        }
        let ncfg = NmSortConfig {
            sim_lanes: LANES,
            chunk_elems: Some(chunk),
            threads: ctx.threads,
            use_dma: false,
            ..Default::default()
        };
        let far = tln.far_from_vec(input);
        let nm = match p.call("nmsort", Kind::Engine, || nmsort(&tln, far, &ncfg)) {
            Ok(r) => r,
            Err(e) => return p.engine_error("nmsort", e),
        };
        p.check_sort("nmsort", &tln, fp, nm.output.as_slice_uncharged());
        nmsort_layers(p, &nm);
        drop(nm);
        p.keys(2 * n);
        p.charged(&tlb);
        p.charged(&tln);
        let (led_b, led_n) = (tlb.ledger().snapshot(), tln.ledger().snapshot());
        p.layer(
            "model.est_error",
            est_error(
                est_b.est_units + est_n.est_units,
                led_b.far_bytes + led_b.near_bytes + led_n.far_bytes + led_n.near_bytes,
            ),
        );

        let (trace_b, trace_n) = (tlb.take_trace(), tln.take_trace());
        let base = p.call("simulate_flow", Kind::Sim, || {
            simulate_flow(&trace_b, &machines[0])
        });
        let mut nm_sims = Vec::new();
        for machine in &machines {
            nm_sims.push(p.call("simulate_flow", Kind::Sim, || {
                simulate_flow(&trace_n, machine)
            }));
        }
        let des = p.call("simulate_des", Kind::Sim, || {
            simulate_des(&trace_n, &machines[2], &des)
        });
        let nm8 = &nm_sims[2];
        sim_layers(p, nm8);
        p.det("baseline_sim_s", base.seconds);
        p.det("des_s", des.seconds);
        let requests = des.detail.map_or(0, |d| d.served_requests);
        p.layer("memsim.des_requests", requests as f64);
        p.layer("memsim.des_flow_gap", des.seconds / nm8.seconds - 1.0);
        let advantage = 1.0 - nm8.seconds / base.seconds;
        p.layer("memsim.advantage_8x", advantage);
        p.layer(
            "memsim.dram_ratio",
            base.far_accesses as f64 / nm8.far_accesses.max(1) as f64,
        );
        p.layer(
            "memsim.advantage_err_vs_paper",
            advantage / (1.0 - PAPER_NMSORT_8X_S / PAPER_GNU.0) - 1.0,
        );
    });
    let mut o = m.outcome("table1_10m");
    if ctx.traced {
        let paper_ratio = PAPER_GNU.1 / PAPER_NMSORT_2X_DRAM;
        o.report.push_str(&format!(
            "paper: advantage at 8x {:.3}, DRAM ratio {paper_ratio:.2}\n",
            1.0 - PAPER_NMSORT_8X_S / PAPER_GNU.0
        ));
        references(&m, &mut o, "nmsort", || {
            generate(Workload::UniformU64, n, ctx.seed)
        });
    }
    o
}

/// DMA-overlapped NMsort on `n` uniform keys with 8 lanes and `chunk`-key
/// chunks, replayed on `fig4(8, 8.0)`. A traced run also times one
/// `growth_n`-key sort with the same configuration and attributes the
/// per-key growth from `growth_n` to `n` to phases.
pub fn dma(ctx: &Ctx, n: usize, chunk: usize, growth_n: usize) -> Outcome {
    const LANES: usize = 8;
    let params = node_params();
    let machine = MachineConfig::fig4(LANES as u32, 8.0);
    let cfg = NmSortConfig {
        sim_lanes: LANES,
        chunk_elems: Some(chunk),
        threads: ctx.threads,
        use_dma: true,
        ..Default::default()
    };
    let one = |p: &mut Probe, n: usize| {
        let input = p.setup(Setup::Generate, || {
            generate(Workload::UniformU64, n, ctx.seed)
        });
        let fp = Fingerprint::of(&input);
        let tl = p.setup(Setup::New, || TwoLevel::new(params));
        let est = p.setup(Setup::Estimate, || {
            admission_estimate(
                &params,
                Engine::NmSortDma,
                n as u64,
                ELEM_BYTES,
                Some(chunk),
            )
        });
        let far = tl.far_from_vec(input);
        let nm = match p.call("nmsort", Kind::Engine, || nmsort(&tl, far, &cfg)) {
            Ok(r) => r,
            Err(e) => return p.engine_error("nmsort", e),
        };
        p.check_sort("nmsort", &tl, fp, nm.output.as_slice_uncharged());
        nmsort_layers(p, &nm);
        drop(nm);
        p.keys(n);
        p.charged(&tl);
        let led = tl.ledger().snapshot();
        p.layer(
            "model.est_error",
            est_error(est.est_units, led.far_bytes + led.near_bytes),
        );
        let trace = tl.take_trace();
        let sim = p.call("simulate_flow", Kind::Sim, || {
            simulate_flow(&trace, &machine)
        });
        sim_layers(p, &sim);
    };
    let m = measure(ctx, LANES, |p| one(p, n));
    let mut o = m.outcome("dma_100m");
    if ctx.traced {
        references(&m, &mut o, "nmsort", || {
            generate(Workload::UniformU64, n, ctx.seed)
        });
        let untraced = Ctx {
            traced: false,
            seconds: 0.0,
            ..*ctx
        };
        let small = measure(&untraced, LANES, |p| one(p, growth_n));
        o.errors.extend(small.outcome("dma_growth").errors);
        growth(&m, &small, n, growth_n, &mut o);
    }
    o
}

/// Per-key cost at `n` over per-key cost at `growth_n`, both untraced
/// medians, and the phases that carry the difference.
fn growth(big: &Measured, small: &Measured, n: usize, growth_n: usize, o: &mut Outcome) {
    let ns_key =
        |m: &Measured, k: usize, f: &dyn Fn(&Probe) -> f64| m.median_of(f) * 1e9 / k as f64;
    let engine = |p: &Probe| p.call_s("nmsort");
    let ratio = ns_key(big, n, &engine) / ns_key(small, growth_n, &engine);
    o.layers.insert("core.dma.growth_10m_100m".into(), ratio);
    let mut rows: Vec<(String, f64, f64)> = big
        .warmup
        .phase_names()
        .map(|ph| {
            let s = ns_key(small, growth_n, &|p| p.phase_s(ph));
            let b = ns_key(big, n, &|p| p.phase_s(ph));
            (ph.to_string(), s, b)
        })
        .collect();
    rows.sort_by(|a, b| (b.2 - b.1).total_cmp(&(a.2 - a.1)));
    o.report.push_str(&format!(
        "per-key growth {growth_n} -> {n} keys: {ratio:.3}x\n{:<22} {:>12} {:>12} {:>10}\n",
        "phase", "small ns/key", "large ns/key", "delta"
    ));
    for (ph, s, b) in &rows {
        o.report
            .push_str(&format!("{ph:<22} {s:>12.2} {b:>12.2} {:>+10.2}\n", b - s));
    }
    if let Some((ph, s, b)) = rows.first() {
        o.report
            .push_str(&format!("growth carried by: {ph} ({:+.2} ns/key)\n", b - s));
    }
}

/// SPMS on `n` Zipf(1.1) keys with 8 lanes, replayed on `fig4(8, 8.0)`.
pub fn spms_zipf(ctx: &Ctx, n: usize) -> Outcome {
    const LANES: usize = 8;
    let params = node_params();
    let machine = MachineConfig::fig4(LANES as u32, 8.0);
    let cfg = ObliviousConfig {
        lanes: LANES,
        threads: ctx.threads,
        ..Default::default()
    };
    let keys = || generate(Workload::Zipf(1.1), n, ctx.seed);
    let m = measure(ctx, LANES, |p| {
        let input = p.setup(Setup::Generate, keys);
        let fp = Fingerprint::of(&input);
        let tl = p.setup(Setup::New, || TwoLevel::new(params));
        let est = p.setup(Setup::Estimate, || {
            admission_estimate(&params, Engine::Spms, n as u64, ELEM_BYTES, None)
        });
        let far = tl.far_from_vec(input);
        let out = match p.call("spms_sort", Kind::Engine, || spms_sort(&tl, far, &cfg)) {
            Ok((out, _)) => out,
            Err(e) => return p.engine_error("spms_sort", e),
        };
        p.check_sort("spms_sort", &tl, fp, out.as_slice_uncharged());
        drop(out);
        p.keys(n);
        p.charged(&tl);
        let led = tl.ledger().snapshot();
        p.layer(
            "model.est_error",
            est_error(est.est_units, led.far_bytes + led.near_bytes),
        );
        let trace = tl.take_trace();
        let sim = p.call("simulate_flow", Kind::Sim, || {
            simulate_flow(&trace, &machine)
        });
        sim_layers(p, &sim);
    });
    let mut o = m.outcome("spms_zipf_10m");
    if ctx.traced {
        references(&m, &mut o, "spms_sort", keys);
    }
    o
}

/// Time `sort_unstable` and the bare radix kernel on the workload's input
/// and report the engine's untraced median against each.
fn references(m: &Measured, o: &mut Outcome, engine: &str, input: impl Fn() -> Vec<u64>) {
    let engine_s = m.median_of(|p| p.call_s(engine));
    let mut time = |name: &str, sort: &dyn Fn(&mut [u64])| {
        let mut v = input();
        let fp = Fingerprint::of(&v);
        let t = Instant::now();
        sort(std::hint::black_box(&mut v));
        let s = t.elapsed().as_secs_f64();
        if let Err(e) = check_output(fp, &v) {
            o.errors.push(format!("reference {name}: {e}"));
        }
        o.report.push_str(&format!(
            "reference {name}: {s:.4} s, {engine} {engine_s:.4} s\n"
        ));
        engine_s / s
    };
    let unstable = time("sort_unstable", &|v| v.sort_unstable());
    let radix = time("radix_sort", &|v| radix_sort(v));
    o.layers.insert("core.vs_sort_unstable".into(), unstable);
    o.layers.insert("core.vs_radix_sort".into(), radix);
}

/// The service configuration of the soak: a deliberately small 1 MiB
/// scratchpad so near-memory contention drives admission, `p′ = 8`.
fn service_config() -> ServiceConfig {
    ServiceConfig {
        params: ScratchpadParams::new(64, 4.0, 1 << 20, 64 << 10)
            .expect("service params are valid"),
        slots: 8,
        near_budget_bytes: 0,
        tenant_slot_cap: 6,
        queue_cap: [4, 128, 512],
        seed: 0x50AC_BEEF,
    }
}

/// The service runs as this many shards: independent `SortService`
/// instances, each serving its own tenants and half of the jobs, side by
/// side on the engine threads. The service runs every engine on one
/// thread. With one instance the second core sat idle, and on the 2-vCPU
/// host its pass times jumped between two speeds (about 1.4 s and 1.85 s)
/// for tens of seconds at a time: over 18 runs of ten seconds the run
/// medians spread 0.19, against 0.06 for two concurrent passes timed until
/// both had ended.
const SHARDS: usize = 2;

/// Tenants per shard: shard `s` serves tenants `4s` to `4s + 3`.
const TENANTS_PER_SHARD: u64 = 4;

/// One job before it is scheduled: `(hash, class, engine, n)`.
type Proto = (u64, Priority, Engine, usize);

/// One shard's job mix, the soak's: 20 % interactive, 50 % batch, 30 %
/// background; 60 % NMsort, 10 % each of DMA NMsort, baseline, SPMS and
/// SquareSort; 2k–40k keys.
///
/// Unlike the soak, every share is exact and the key counts are spread
/// evenly over 2k–40k within every engine and class, so every seed and
/// every shard offers the same jobs. The seed and the shard shuffle their
/// arrival order and draw each job's tenant, deadline and keys. Drawn per
/// job, the work of the slow engines (SPMS and SquareSort) varied by ±20 %
/// between seeds and set the pass's host time.
fn job_protos(seed: u64, shard: usize, jobs: usize) -> Vec<Proto> {
    let stream = splitmix64(seed) ^ (shard as u64) << 32;
    let mut mix: Vec<(Priority, Engine, usize)> = (0..jobs)
        .map(|i| {
            let engine = match i % 10 {
                0..=5 => Engine::NmSort,
                6 => Engine::NmSortDma,
                7 => Engine::Baseline,
                8 => Engine::Spms,
                _ => Engine::SquareSort,
            };
            let class = match i / 10 % 10 {
                0 | 1 => Priority::Interactive,
                2..=6 => Priority::Batch,
                _ => Priority::Background,
            };
            // Jobs of one engine and class lie 100 apart in `i`, so their
            // size ranks do too: evenly spread over the whole range.
            let rank = i * 37 % jobs;
            (class, engine, 2_000 + rank * 38_000 / jobs)
        })
        .collect();
    for i in (1..jobs).rev() {
        let r = splitmix64(stream ^ 0xE61E_0000 ^ i as u64);
        mix.swap(i, (r % (i as u64 + 1)) as usize);
    }
    (0..jobs as u64)
        .zip(mix)
        .map(|(i, (class, engine, n))| {
            let h = splitmix64(stream ^ 0xD15C_0000 ^ i);
            (h, class, engine, n)
        })
        .collect()
}

/// Every shard's jobs, `jobs` in all.
fn shard_protos(seed: u64, jobs: usize) -> Vec<Vec<Proto>> {
    (0..SHARDS)
        .map(|s| job_protos(seed, s, jobs / SHARDS))
        .collect()
}

/// Admission estimates of `protos`, in charged units.
fn estimates(protos: &[Proto], cfg: &ServiceConfig) -> Vec<u64> {
    protos
        .iter()
        .map(|&(_, _, engine, n)| {
            admission_estimate(&cfg.params, engine, n as u64, ELEM_BYTES, None).est_units
        })
        .collect()
}

/// Nominal load: the share of the slot pool's capacity, as the admission
/// model estimates it, that "1×" offers. The model underestimates charged
/// units 2–6× at these sizes (`model.est_error`), so the soak's own 1×
/// (share 1.0) is overloaded and sheds about a fifth of its jobs. At this
/// share no seed tried (1–300) sheds or times out a job, so at 1× every
/// attempted job must complete.
const NOMINAL: f64 = 0.06;

/// Open-loop arrival schedule of one shard at `load_x` × nominal load:
/// arrivals keep a fixed virtual-time spacing whatever the progress, so
/// the generator is never late. A third of interactive jobs carry a
/// deadline of 8× their estimated single-slot service time.
fn schedule(
    protos: &[Proto],
    est: &[u64],
    shard: usize,
    load_x: f64,
    cfg: &ServiceConfig,
) -> Vec<JobRequest> {
    let jobs = protos.len().max(1) as f64;
    let total: u64 = est.iter().sum();
    let span = (total as f64 / (cfg.slots as f64 * NOMINAL * load_x)).max(jobs);
    let gap = (span / jobs).max(1.0);
    protos
        .iter()
        .zip(est)
        .enumerate()
        .map(|(i, (&(h, class, engine, n), &units))| {
            let arrival = (i as f64 * gap) as u64;
            let deadline = (class == Priority::Interactive && h % 3 == 0)
                .then(|| arrival + DEADLINE_X * units.max(1));
            JobRequest {
                tenant: shard as u64 * TENANTS_PER_SHARD + (h >> 32) % TENANTS_PER_SHARD,
                priority: class,
                engine,
                n,
                seed: h,
                arrival,
                deadline,
            }
        })
        .collect()
}

/// Every shard's schedule at `load_x` × nominal load.
fn schedules(
    protos: &[Vec<Proto>],
    est: &[Vec<u64>],
    load_x: f64,
    cfg: &ServiceConfig,
) -> Vec<Vec<JobRequest>> {
    (0..SHARDS)
        .map(|s| schedule(&protos[s], &est[s], s, load_x, cfg))
        .collect()
}

/// Deadlines and the latency limit, in multiples of a job's estimated
/// single-slot service time (its estimated units: one slot serves one unit
/// per tick). The soak divides by the eight-slot pool as well; with the
/// model's underestimate that deadline cannot be met even on an idle
/// service, so it would measure the model's error rather than load.
const DEADLINE_X: u64 = 8;

type ShardRun = Result<(ServiceReport, Vec<JobOutcome>), ServiceError>;

/// Shards served at once: all of them when there is a thread for each,
/// else one at a time.
fn shard_width(threads: usize) -> usize {
    if threads >= SHARDS {
        SHARDS
    } else {
        1
    }
}

/// Run each shard's jobs on its own service, [`shard_width`] at a time.
fn run_shards(svcs: &[SortService], lists: &[Vec<JobRequest>], threads: usize) -> Vec<ShardRun> {
    if shard_width(threads) == 1 {
        return svcs.iter().zip(lists).map(|(s, l)| s.run(l)).collect();
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = svcs
            .iter()
            .zip(lists)
            .map(|(s, l)| scope.spawn(move || s.run(l)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a service shard panicked"))
            .collect()
    })
}

/// Outcome counts and report totals of one pass over every shard.
#[derive(Default)]
struct Pass {
    shed: u64,
    timed_out: u64,
    failed: u64,
    /// Messages of failed jobs.
    errors: Vec<String>,
    /// Sorted interactive completion latencies.
    interactive: Vec<u64>,
    /// Keys of jobs that started.
    keys: usize,
    /// `(estimated, measured)` units of completed jobs.
    units: (u64, u64),
    /// The latest shard's makespan.
    makespan: u64,
    total_units: u64,
    goodput_units: u64,
    leak_failures: u64,
    preemptions: u64,
    degraded_admissions: u64,
}

fn tally(
    lists: &[Vec<JobRequest>],
    est: &[Vec<u64>],
    runs: &[(ServiceReport, Vec<JobOutcome>)],
) -> Pass {
    let mut pass = Pass::default();
    for ((jobs, est), (report, outcomes)) in lists.iter().zip(est).zip(runs) {
        for ((job, &e), out) in jobs.iter().zip(est).zip(outcomes) {
            match out {
                JobOutcome::Done { latency, units, .. } => {
                    if job.priority == Priority::Interactive {
                        pass.interactive.push(*latency);
                    }
                    pass.keys += job.n;
                    pass.units.0 += e;
                    pass.units.1 += units;
                }
                JobOutcome::Shed(_) => pass.shed += 1,
                JobOutcome::TimedOut { ran, .. } => {
                    pass.timed_out += 1;
                    pass.keys += if *ran { job.n } else { 0 };
                }
                JobOutcome::Failed { error } => {
                    pass.failed += 1;
                    pass.keys += job.n;
                    pass.errors.push(format!("service job failed: {error}"));
                }
            }
        }
        pass.makespan = pass.makespan.max(report.makespan);
        pass.total_units += report.total_units;
        pass.goodput_units += report.goodput_units;
        pass.leak_failures += report.leak_failures;
        pass.preemptions += report.preemptions;
        pass.degraded_admissions += report.degraded_admissions;
    }
    pass.interactive.sort_unstable();
    pass
}

impl Pass {
    fn failures(&self) -> u64 {
        self.shed + self.timed_out + self.failed
    }

    /// Completed-job units over all charged units, as
    /// `ServiceReport::goodput_fraction` computes it for one shard.
    fn goodput_fraction(&self) -> f64 {
        if self.total_units == 0 {
            1.0
        } else {
            self.goodput_units as f64 / self.total_units as f64
        }
    }
}

/// `jobs` mixed sort jobs through [`SHARDS`] instances of [`SortService`]
/// at nominal load; a traced run also offers the grid of loads once to
/// find the highest one the service sustains.
pub fn service_mix(ctx: &Ctx, jobs: usize) -> Outcome {
    let cfg = service_config();
    let jobs = jobs / SHARDS * SHARDS;
    let m = measure(ctx, cfg.slots as usize, |p| {
        let protos = p.setup(Setup::Generate, || shard_protos(ctx.seed, jobs));
        let (est, lists) = p.setup(Setup::Estimate, || {
            let est: Vec<Vec<u64>> = protos.iter().map(|pr| estimates(pr, &cfg)).collect();
            let lists = schedules(&protos, &est, 1.0, &cfg);
            (est, lists)
        });
        let svcs = p.setup(Setup::New, || {
            (0..SHARDS)
                .map(|_| SortService::new(cfg.clone()))
                .collect::<Result<Vec<_>, _>>()
        });
        let svcs = match svcs {
            Ok(s) => s,
            Err(e) => return p.engine_error("SortService::new", e),
        };
        let width = shard_width(ctx.threads);
        let runs = p.call("service_run", Kind::Service(width), || {
            run_shards(&svcs, &lists, ctx.threads)
        });
        let runs = match runs.into_iter().collect::<Result<Vec<_>, _>>() {
            Ok(r) => r,
            Err(e) => return p.engine_error("SortService::run", e),
        };
        let pass = tally(&lists, &est, &runs);
        p.ops(jobs as u64, pass.failures());
        if pass.leak_failures != 0 {
            p.error(format!(
                "{} jobs leaked scratchpad bytes",
                pass.leak_failures
            ));
        }
        for e in &pass.errors {
            p.error(e.clone());
        }
        p.keys(pass.keys);
        p.charged_units(pass.total_units);
        service_layers(p, &pass, jobs);
    });
    let mut o = m.outcome("service_mix");
    if ctx.traced {
        max_load(ctx, &cfg, jobs, &mut o);
    }
    o
}

fn service_layers(p: &mut Probe, pass: &Pass, jobs: usize) {
    let tail = tail_percentile(&pass.interactive);
    p.det("makespan", pass.makespan as f64);
    p.det("total_units", pass.total_units as f64);
    p.det("tail_vu", tail.map_or(0.0, |t| t.1 as f64));
    p.det("failures", pass.failures() as f64);
    p.layer("service.jobs_per_s", jobs as f64 / p.call_s("service_run"));
    p.layer("service.shed", pass.shed as f64);
    p.layer("service.timed_out", pass.timed_out as f64);
    p.layer("service.failed", pass.failed as f64);
    p.layer("service.preemptions", pass.preemptions as f64);
    p.layer(
        "service.degraded_admissions",
        pass.degraded_admissions as f64,
    );
    p.layer("service.makespan_vu", pass.makespan as f64);
    p.layer("service.goodput_frac", pass.goodput_fraction());
    p.layer("service.tail_latency_vu", tail.map_or(0.0, |t| t.1 as f64));
    p.layer("model.est_error", est_error(pass.units.0, pass.units.1));
}

/// Offered loads tried once on a traced run, above the 1× that sheds
/// nothing (the soak's grid sat below its overloaded 1×). At 8× about 1 %
/// of jobs fail; 16× leaves room above it, so a faster service can show.
const LOAD_GRID: [f64; 5] = [1.0, 2.0, 4.0, 8.0, 16.0];

/// The highest load whose failure share is at most 1 % and whose
/// interactive p90 is at most the deadline rule applied to the median
/// interactive job: [`DEADLINE_X`] × its estimated service time.
fn max_load(ctx: &Ctx, cfg: &ServiceConfig, jobs: usize, o: &mut Outcome) {
    let protos = shard_protos(ctx.seed, jobs);
    let est: Vec<Vec<u64>> = protos.iter().map(|pr| estimates(pr, cfg)).collect();
    let interactive: Vec<f64> = protos
        .iter()
        .flatten()
        .zip(est.iter().flatten())
        .filter(|(j, _)| j.1 == Priority::Interactive)
        .map(|(_, &e)| e as f64)
        .collect();
    let limit = DEADLINE_X as f64 * median(&interactive);
    let svcs: Vec<SortService> = (0..SHARDS)
        .map(|_| SortService::new(cfg.clone()).expect("service config is valid"))
        .collect();
    let mut best = 0.0f64;
    o.report.push_str(&format!(
        "{:>6} {:>6} {:>6} {:>8} {:>7} {:>12}  (p90 limit {limit:.0} vu)\n",
        "load", "shed", "t/out", "failed", "fail%", "int.p90_vu"
    ));
    for load in LOAD_GRID {
        let lists = schedules(&protos, &est, load, cfg);
        let runs = run_shards(&svcs, &lists, ctx.threads);
        let pass = match runs.into_iter().collect::<Result<Vec<_>, _>>() {
            Ok(runs) => tally(&lists, &est, &runs),
            Err(e) => {
                o.errors.push(format!("service at {load}x: {e}"));
                continue;
            }
        };
        let p90 = if pass.interactive.is_empty() {
            f64::INFINITY
        } else {
            percentile(&pass.interactive, 0.9) as f64
        };
        let fail = pass.failures() as f64 / jobs as f64;
        if fail <= 0.01 && p90 <= limit {
            best = best.max(load);
        }
        o.report.push_str(&format!(
            "{load:>6} {:>6} {:>6} {:>8} {:>7.2} {p90:>12}\n",
            pass.shed,
            pass.timed_out,
            pass.failed,
            100.0 * fail
        ));
    }
    o.layers.insert("service.max_load_x".into(), best);
}
