//! Repetitions, timing, and the traced repetition.
//!
//! A workload is one closure that performs a single repetition through a
//! [`Probe`]: set-up steps go through [`Probe::setup`], calls into a layer's
//! public functions through [`Probe::call`] (the only time that counts as
//! wall time), and verification happens outside both. [`measure`] runs the
//! closure once to warm up, then — untraced — until both the minimum
//! repetition count and the requested seconds are reached, or — traced —
//! once without and once with the flight recorder installed.

use std::collections::BTreeMap;
use std::time::Instant;

use tlmm_memsim::stats::{Bottleneck, SimReport};
use tlmm_scratchpad::TwoLevel;
use tlmm_telemetry::flight::{self, EventKind, FlightConfig, FlightTrace};
use tlmm_telemetry::{now_ns, registry, take_spans};

use crate::metrics::{per_layer, phase_metric, Outcome, PHASES};
use crate::stats::{check_output, median, Fingerprint};

/// Settings shared by every workload of one run.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Drives the generated inputs and the job mix, nothing else.
    pub seed: u64,
    /// Minimum wall-clock seconds of timed repetitions (untraced runs).
    pub seconds: f64,
    /// Time one untraced and one traced repetition and report per-layer
    /// metrics.
    pub traced: bool,
    /// Host threads handed to the engines.
    pub threads: usize,
}

/// What a timed call is, for attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A sort engine (`core`): its `begin_phase` spans are attributed.
    Engine,
    /// A `memsim` replay.
    Sim,
    /// The service front end: engine phases run inside it, on this many
    /// threads side by side.
    Service(usize),
}

impl Kind {
    /// Threads whose engine phase spans can overlap during the call.
    fn width(self) -> usize {
        match self {
            Kind::Service(width) => width,
            Kind::Engine | Kind::Sim => 1,
        }
    }
}

/// Set-up steps timed into `setup_s`.
#[derive(Debug, Clone, Copy)]
pub enum Setup {
    /// Input or job-list generation (`workloads`).
    Generate,
    /// Memory or service construction (`scratchpad`, `service`).
    New,
    /// Admission estimates (`model`).
    Estimate,
}

#[derive(Debug, Clone)]
struct Call {
    name: &'static str,
    kind: Kind,
    start_ns: u64,
    end_ns: u64,
}

impl Call {
    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Set-up steps are repeated until they have taken this long in total.
const SETUP_REPEAT_S: f64 = 0.02;

/// One repetition's record.
#[derive(Debug, Default)]
pub struct Probe {
    traced: bool,
    setup_ns: [u64; 3],
    calls: Vec<Call>,
    det: Vec<(&'static str, f64)>,
    attempted: u64,
    failed: u64,
    leaks: u64,
    errors: Vec<String>,
    charged_bytes: u64,
    keys: u64,
    /// Workload-specific per-layer values.
    layers: BTreeMap<String, f64>,
    /// The primary replay, joined with host phase times in the phase table.
    sim: Option<SimReport>,
    /// Host nanoseconds per `begin_phase` name inside engine or service
    /// calls, in order of first appearance.
    phase_ns: Vec<(String, u64)>,
    spans: usize,
    /// Peak resident set during this repetition, MiB.
    peak_rss_mb: f64,
}

impl Probe {
    /// Time a set-up step. A step shorter than [`SETUP_REPEAT_S`] is run
    /// again until that much time has passed, and its median time counts:
    /// a single run of a step that short (the service's whole set-up takes
    /// about 0.1 ms) mostly measures the caches the previous repetition
    /// evicted.
    pub fn setup<R>(&mut self, step: Setup, mut f: impl FnMut() -> R) -> R {
        let start = Instant::now();
        let mut times = Vec::new();
        loop {
            let t = Instant::now();
            let r = f();
            times.push(t.elapsed().as_secs_f64());
            if start.elapsed().as_secs_f64() >= SETUP_REPEAT_S {
                self.setup_ns[step as usize] += (median(&times) * 1e9) as u64;
                return r;
            }
        }
    }

    /// Time one call into a layer's public API. On the traced repetition
    /// the call also gets its own telemetry span, `bench.<name>`.
    pub fn call<R>(&mut self, name: &'static str, kind: Kind, f: impl FnOnce() -> R) -> R {
        let span = self
            .traced
            .then(|| tlmm_telemetry::enter(&format!("bench.{name}")));
        let start_ns = now_ns();
        let r = std::hint::black_box(f());
        let end_ns = now_ns();
        drop(span);
        self.calls.push(Call {
            name,
            kind,
            start_ns,
            end_ns,
        });
        r
    }

    /// Record a value that must be identical in every repetition.
    pub fn det(&mut self, name: &'static str, v: f64) {
        self.det.push((name, v));
    }

    /// Record a workload-specific per-layer value.
    pub fn layer(&mut self, name: &str, v: f64) {
        self.layers.insert(name.to_string(), v);
    }

    /// Record the primary replay for the phase table.
    pub fn sim(&mut self, sim: &SimReport) {
        self.sim = Some(sim.clone());
    }

    /// Count ledger bytes (far + near) charged by this repetition.
    pub fn charged(&mut self, tl: &TwoLevel) {
        let s = tl.ledger().snapshot();
        self.charged_bytes += s.far_bytes + s.near_bytes;
    }

    /// Count service units (ledger bytes) charged by this repetition.
    pub fn charged_units(&mut self, units: u64) {
        self.charged_bytes += units;
    }

    /// Count keys sorted by engine calls.
    pub fn keys(&mut self, n: usize) {
        self.keys += n as u64;
    }

    /// Count `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Record an error that makes the run incorrect.
    pub fn error(&mut self, e: String) {
        self.errors.push(e);
    }

    /// An engine call returned an error: one failed operation.
    pub fn engine_error(&mut self, what: &str, e: impl std::fmt::Display) {
        self.ops(1, 1);
        self.errors.push(format!("{what}: {e}"));
    }

    /// Verify one engine call: the output holds exactly the input's keys in
    /// order, and the call left no scratchpad bytes allocated.
    pub fn check_sort(&mut self, what: &str, tl: &TwoLevel, input: Fingerprint, out: &[u64]) {
        let leaked = tl.near_used_bytes();
        let res = check_output(input, out).and_then(|()| match leaked {
            0 => Ok(()),
            b => Err(format!("{b} scratchpad bytes still allocated")),
        });
        self.leaks += u64::from(leaked != 0);
        self.ops(1, u64::from(res.is_err()));
        if let Err(e) = res {
            self.errors.push(format!("{what}: {e}"));
        }
    }

    /// Set-up seconds.
    pub fn setup_s(&self) -> f64 {
        self.setup_ns.iter().sum::<u64>() as f64 * 1e-9
    }

    /// Wall seconds of the timed calls.
    pub fn wall_s(&self) -> f64 {
        self.calls.iter().map(Call::secs).fold(0.0, |a, b| a + b)
    }

    /// Seconds in calls named `name`.
    pub fn call_s(&self, name: &str) -> f64 {
        self.calls
            .iter()
            .filter(|c| c.name == name)
            .map(Call::secs)
            .fold(0.0, |a, b| a + b)
    }

    /// Host seconds inside sort engines: the engine calls themselves, or —
    /// when engines run inside the service — their phase spans.
    pub fn engine_s(&self) -> f64 {
        let calls = self
            .calls
            .iter()
            .filter(|c| c.kind == Kind::Engine)
            .map(Call::secs)
            .fold(0.0, |a, b| a + b);
        if calls > 0.0 {
            calls
        } else {
            self.phase_total_s()
        }
    }

    fn phase_total_s(&self) -> f64 {
        self.phase_ns.iter().map(|(_, ns)| *ns).sum::<u64>() as f64 * 1e-9
    }

    /// Host seconds of phase `name`.
    pub fn phase_s(&self, name: &str) -> f64 {
        self.phase_ns
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, ns)| *ns as f64 * 1e-9)
    }

    /// Phase names in order of first appearance.
    pub fn phase_names(&self) -> impl Iterator<Item = &str> {
        self.phase_ns.iter().map(|(n, _)| n.as_str())
    }

    /// Drain the finished telemetry spans and attribute the engine phase
    /// spans that fall inside engine or service calls.
    fn collect_phases(&mut self) {
        let spans = take_spans();
        self.spans = spans.len();
        let attributed: Vec<&Call> = self
            .calls
            .iter()
            .filter(|c| matches!(c.kind, Kind::Engine | Kind::Service(_)))
            .collect();
        for s in spans.iter().filter(|s| is_phase(&s.name)) {
            let (s0, s1) = (s.start_ns, s.start_ns + s.dur_ns);
            let ns: u64 = attributed
                .iter()
                .map(|c| s1.min(c.end_ns).saturating_sub(s0.max(c.start_ns)))
                .sum();
            match self.phase_ns.iter_mut().find(|(n, _)| *n == s.name) {
                Some(entry) => entry.1 += ns,
                None => self.phase_ns.push((s.name.clone(), ns)),
            }
        }
    }
}

/// `begin_phase` spans of the sort engines (`anonymous` collects charges
/// made outside any named phase).
fn is_phase(name: &str) -> bool {
    ["nmsort.", "baseline.", "spms.", "squaresort."]
        .iter()
        .any(|p| name.starts_with(p))
        || name == "anonymous"
}

/// The traced repetition and what the recorders held after it.
struct Traced {
    probe: Probe,
    flight: FlightTrace,
    counters: BTreeMap<String, u64>,
    histogram_counts: BTreeMap<String, u64>,
}

impl Traced {
    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    fn histogram_count(&self, name: &str) -> f64 {
        self.histogram_counts.get(name).copied().unwrap_or(0) as f64
    }

    /// Host nanoseconds inside the flight-recorded spans named `name`,
    /// summed over lanes (and so over host threads).
    fn kernel_ns(&self, name: &str) -> u64 {
        let mut total = 0;
        for lane in &self.flight.lanes {
            let mut open: Vec<u64> = Vec::new();
            for ev in &lane.events {
                if self.flight.name(ev.name) != name {
                    continue;
                }
                match ev.kind {
                    EventKind::SpanBegin => open.push(ev.ts),
                    EventKind::SpanEnd => {
                        if let Some(t0) = open.pop() {
                            total += ev.ts.saturating_sub(t0);
                        }
                    }
                    _ => {}
                }
            }
        }
        total
    }
}

/// A workload's repetitions.
pub struct Measured {
    pub warmup: Probe,
    reps: Vec<Probe>,
    traced: Option<Traced>,
}

/// Untraced runs time at least this many repetitions.
const MIN_REPS: usize = 5;

fn run_rep(traced: bool, rep: &mut impl FnMut(&mut Probe)) -> Probe {
    let mut p = Probe {
        traced,
        ..Probe::default()
    };
    if let Err(e) = reset_peak_rss() {
        p.error(e);
    }
    rep(&mut p);
    match peak_rss_mb() {
        Ok(mb) => p.peak_rss_mb = mb,
        Err(e) => p.error(e),
    }
    p.collect_phases();
    p
}

/// Run `rep` once to warm up. Untraced, then run it for at least
/// [`MIN_REPS`] repetitions and `ctx.seconds` seconds. Traced, run it once
/// more — the baseline of the tracing overhead — and then once under the
/// flight recorder. `lanes` sizes the recorder's per-lane rings.
pub fn measure(ctx: &Ctx, lanes: usize, mut rep: impl FnMut(&mut Probe)) -> Measured {
    tlmm_telemetry::reset();
    let warmup = run_rep(false, &mut rep);
    let mut reps = Vec::new();
    let t0 = Instant::now();
    let enough = |reps: usize| {
        if ctx.traced {
            reps == 1
        } else {
            reps >= MIN_REPS && t0.elapsed().as_secs_f64() >= ctx.seconds
        }
    };
    while !enough(reps.len()) {
        reps.push(run_rep(false, &mut rep));
    }
    let traced = ctx.traced.then(|| {
        tlmm_telemetry::reset();
        // Room for about four million events (~230 MiB) however many lanes
        // charge: enough that no workload drops kernel spans.
        let per_lane = ((1usize << 22) / lanes.max(1)).max(4096);
        let threads = ctx.threads as u32;
        flight::install(FlightConfig::wall(threads, threads).with_capacity(per_lane));
        let probe = run_rep(true, &mut rep);
        let flight = flight::uninstall().expect("flight recorder was installed");
        let counters = registry()
            .counter_snapshots()
            .into_iter()
            .map(|c| (c.name, c.value))
            .collect();
        let histogram_counts = registry()
            .histogram_snapshots()
            .into_iter()
            .map(|h| (h.name, h.count))
            .collect();
        Traced {
            probe,
            flight,
            counters,
            histogram_counts,
        }
    });
    Measured {
        warmup,
        reps,
        traced,
    }
}

/// Lower this process's peak resident set (`VmHWM`) to its current one, so
/// the next reading is the peak of one repetition. A single process-wide
/// peak of the small `service_mix` process moved by 5–10 % between runs of
/// the same seed.
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak resident set: {e}"))
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Per-layer times every workload must measure as non-zero.
const NONZERO: [&str; 6] = [
    "workloads.generate_s",
    "scratchpad.new_s",
    "core.engine_s",
    "core.ns_per_key",
    "model.estimate_s",
    "telemetry.traced_wall_s",
];

impl Measured {
    fn all(&self) -> impl Iterator<Item = &Probe> {
        std::iter::once(&self.warmup)
            .chain(&self.reps)
            .chain(self.traced.as_ref().map(|t| &t.probe))
    }

    /// Median over the timed repetitions of `f`.
    pub fn median_of(&self, f: impl Fn(&Probe) -> f64) -> f64 {
        median(&self.reps.iter().map(f).collect::<Vec<_>>())
    }

    /// Assemble the outcome every workload shares: end-to-end samples,
    /// correctness, determinism across repetitions, and — when traced —
    /// the per-layer metrics common to all layers.
    pub fn outcome(&self, workload: &'static str) -> Outcome {
        let mut o = Outcome {
            workload,
            ..Outcome::default()
        };
        for p in self.all() {
            o.errors.extend(p.errors.iter().cloned());
            if p.det != self.warmup.det {
                o.errors.push(format!(
                    "deterministic values differ between repetitions: {:?} vs {:?}",
                    p.det, self.warmup.det
                ));
            }
        }
        o.errors.dedup();
        o.attempted = self.reps.iter().map(|p| p.attempted).sum();
        o.failed = self.reps.iter().map(|p| p.failed).sum();
        let samples = |f: fn(&Probe) -> f64| self.reps.iter().map(f).collect::<Vec<f64>>();
        o.samples.insert("setup_s".into(), samples(Probe::setup_s));
        o.samples.insert("wall_s".into(), samples(Probe::wall_s));
        o.samples.insert(
            "charged_mb".into(),
            samples(|p| p.charged_bytes as f64 / (1u64 << 20) as f64),
        );
        o.samples
            .insert("peak_rss_mb".into(), samples(|p| p.peak_rss_mb));
        let ok = (o.attempted - o.failed.min(o.attempted)) as f64 / o.attempted.max(1) as f64;
        o.samples.insert("ok_frac".into(), vec![ok]);
        if let Some(t) = &self.traced {
            self.common_layers(t, &mut o);
        }
        o
    }

    fn common_layers(&self, t: &Traced, o: &mut Outcome) {
        let p = &t.probe;
        for (name, _) in per_layer() {
            o.layers.insert(name, 0.0);
        }
        let setup = |i: usize| self.median_of(|r| r.setup_ns[i] as f64 * 1e-9);
        let engine_s = p.engine_s();
        // Thread-seconds the phase spans could cover.
        let attributed: f64 = p
            .calls
            .iter()
            .filter(|c| matches!(c.kind, Kind::Engine | Kind::Service(_)))
            .map(|c| c.secs() * c.kind.width() as f64)
            .sum();
        let phase_total = p.phase_total_s();
        let coverage = if attributed > 0.0 {
            phase_total / attributed
        } else {
            0.0
        };
        let in_service = p.calls.iter().any(|c| matches!(c.kind, Kind::Service(_)));
        let pct = |s: f64, of: f64| if of > 0.0 { 100.0 * s / of } else { 0.0 };
        let named: f64 = PHASES.iter().map(|ph| p.phase_s(ph)).sum();
        let untraced_wall = self.median_of(Probe::wall_s);
        let values = [
            ("workloads.generate_s", setup(Setup::Generate as usize)),
            ("scratchpad.new_s", setup(Setup::New as usize)),
            ("model.estimate_s", setup(Setup::Estimate as usize)),
            ("scratchpad.leaks", p.leaks as f64),
            (
                "scratchpad.far_charges",
                t.histogram_count("scratchpad.far.transfer_bytes"),
            ),
            (
                "scratchpad.near_charges",
                t.histogram_count("scratchpad.near.transfer_bytes"),
            ),
            (
                "scratchpad.arena.transfer_issued",
                t.counter("arena.transfer_issued"),
            ),
            (
                "scratchpad.arena.sync_transfer",
                t.counter("arena.sync_transfer"),
            ),
            (
                "scratchpad.arena.deferred_free",
                t.counter("arena.deferred_free"),
            ),
            ("core.engine_s", engine_s),
            ("core.ns_per_key", engine_s * 1e9 / p.keys.max(1) as f64),
            ("core.phase_coverage", coverage),
            (
                "service.overhead_frac",
                if in_service { 1.0 - coverage } else { 0.0 },
            ),
            ("core.phase.other.pct", pct(engine_s - named, engine_s)),
            (
                "kernels.radix_sort_pct",
                pct(t.kernel_ns("kernel.radix_sort") as f64 * 1e-9, engine_s),
            ),
            (
                "kernels.sort_unstable_pct",
                pct(t.kernel_ns("kernel.sort_unstable") as f64 * 1e-9, engine_s),
            ),
            ("kernels.radix_sorts", t.counter("core.kernels.radix_sorts")),
            (
                "kernels.losertree_comparisons",
                t.counter("core.losertree.comparisons"),
            ),
            (
                "memsim.flow_pct",
                pct(p.call_s("simulate_flow"), p.wall_s()),
            ),
            ("memsim.des_pct", pct(p.call_s("simulate_des"), p.wall_s())),
            ("telemetry.spans", p.spans as f64),
            (
                "telemetry.flight_events",
                t.flight.lanes.iter().map(|l| l.emitted).sum::<u64>() as f64,
            ),
            ("telemetry.flight_dropped", t.flight.dropped() as f64),
            ("telemetry.overhead_frac", p.wall_s() / untraced_wall - 1.0),
            ("telemetry.traced_wall_s", p.wall_s()),
        ];
        for (name, v) in values {
            o.layers.insert(name.to_string(), v);
        }
        for ph in PHASES {
            o.layers
                .insert(phase_metric(ph), pct(p.phase_s(ph), engine_s));
        }
        for (name, v) in &p.layers {
            o.layers.insert(name.clone(), *v);
        }
        for name in NONZERO {
            if o.layers[name] <= 0.0 {
                o.errors.push(format!(
                    "{workload}: {name} measured as 0",
                    workload = o.workload
                ));
            }
        }
        o.report.push_str(&phase_table(p, engine_s));
    }
}

/// Host time per phase joined with the simulated time and bottleneck the
/// primary replay gives the same phase name.
fn phase_table(p: &Probe, engine_s: f64) -> String {
    let mut out = format!(
        "{:<22} {:>10} {:>9} {:>8} {:>12}  {}\n",
        "phase", "host_s", "ns/key", "%engine", "sim_s", "bottleneck"
    );
    let keys = p.keys.max(1) as f64;
    for name in p.phase_names() {
        let host = p.phase_s(name);
        let (sim_s, bottleneck) = match &p.sim {
            Some(sim) if sim.phases.iter().any(|s| s.name == name) => {
                let stats = sim.phases.iter().filter(|s| s.name == name);
                let worst = stats
                    .clone()
                    .max_by(|a, b| a.seconds.total_cmp(&b.seconds))
                    .expect("a phase of this name exists");
                (
                    format!("{:.6}", stats.map(|s| s.seconds).sum::<f64>()),
                    bottleneck_name(worst.bottleneck),
                )
            }
            _ => ("-".into(), "-"),
        };
        out.push_str(&format!(
            "{name:<22} {host:>10.4} {:>9.2} {:>8.1} {sim_s:>12}  {bottleneck}\n",
            host * 1e9 / keys,
            100.0 * host / engine_s.max(f64::MIN_POSITIVE),
        ));
    }
    out
}

/// Stable label of a bottleneck, as in the `memsim.bound.*` metric names.
pub fn bottleneck_name(b: Bottleneck) -> &'static str {
    match b {
        Bottleneck::FarBandwidth => "far_bw",
        Bottleneck::NearBandwidth => "near_bw",
        Bottleneck::Compute => "compute",
        Bottleneck::Noc => "noc",
        Bottleneck::CoreIssue => "core_issue",
        Bottleneck::SlotWait => "slot_wait",
        Bottleneck::Overhead => "overhead",
    }
}

/// The simulated seconds of `sim` per bottleneck, as `memsim.bound.*`.
pub fn bound_layers(p: &mut Probe, sim: &SimReport) {
    for b in [
        Bottleneck::FarBandwidth,
        Bottleneck::NearBandwidth,
        Bottleneck::Compute,
        Bottleneck::Noc,
        Bottleneck::CoreIssue,
        Bottleneck::SlotWait,
        Bottleneck::Overhead,
    ] {
        p.layer(
            &format!("memsim.bound.{}_s", bottleneck_name(b)),
            sim.seconds_bound_by(b),
        );
    }
}
