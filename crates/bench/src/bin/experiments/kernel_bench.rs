//! **Kernel bench** — host wall-clock before→after deltas for the kernel
//! layer (DESIGN.md §10).
//!
//! Four cells × four workload shapes (plus one Phase-2-shaped merge):
//!
//! * `run_formation` — Phase-1 style chunk sorting: `sort_unstable` per run
//!   (the pre-kernel reference) vs [`tlmm_core::kernels::sort_kernel`]
//!   (MSD hybrid radix for `u64`).
//! * `kway_merge` — k-way merge of sorted runs: the original branchy
//!   loser tree vs `merge_into_slice` (the branchless loser tree, or the
//!   two-way merge tree for long runs), over 16 runs of each shape plus a
//!   `phase2` cell shaped like NMsort's Phase-2 merge parts (50 × 5k) and
//!   an `spms_bucket` cell shaped like SPMS's root bucket merges on Zipf
//!   keys (one bucket of ~3k runs averaging one key, one single-key
//!   bucket).
//! * `bucketize` — `BucketPos` extraction over sorted chunks (no
//!   before/after pair: the kernel layer doesn't change it; the median is
//!   recorded to catch regressions).
//! * `nmsort_e2e` — end-to-end NMsort wall clock at 1M (and 10M in
//!   `--full10m` mode) through the standard harness.
//!
//! Methodology: every measurement clones pristine input outside the timed
//! region, runs `WARMUP` untimed iterations, then reports the **median of
//! `MEASURE` timed iterations** — medians are robust to one-off
//! scheduling noise without discarding real variance (see DESIGN.md §10).
//!
//! Output: `BENCH_kernels.json` at the working directory root (the
//! committed before→after record) and `results/kernel_bench.{txt,json}`
//! via the artifact plumbing.
//!
//! Run: `cargo run --release -p tlmm-bench --bin experiments -- kernel_bench [--smoke | --full10m]`
//!
//! `--smoke` shrinks sizes for CI and additionally asserts the optimized
//! kernels agree element-for-element with the reference implementations.

use std::time::Instant;
use tlmm_bench::bench_file::{median, BenchFile, Cell};
use tlmm_bench::cli::{Args, Outcome};
use tlmm_bench::{artifact, outln, run_sort, Engine, Overrides, SortSpec};
use tlmm_core::kernels::reference::{form_runs_ref, merge_into_slice_ref};
use tlmm_core::kernels::sort_kernel;
use tlmm_core::losertree::merge_into_slice;
use tlmm_core::{bucketize, extsort::RegionLevel};
use tlmm_model::ScratchpadParams;
use tlmm_scratchpad::TwoLevel;
use tlmm_telemetry::RunReport;
use tlmm_workloads::{generate, Workload};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sorted-run length for the formation cell: the external mergesort's
/// default at experiment scale (`Z / (2·elem·lanes)` = 4 MiB / 128).
const RUN_ELEMS: usize = 32_768;
/// Merge fan-in for the k-way cell (the experiments' typical fanout).
const KWAY: usize = 16;
/// Runs × keys per run of the k-way `phase2` cell, in both modes.
const PHASE2_RUNS: (usize, usize) = (50, 5_000);
/// Runs per bucket of the `spms_bucket` cell, in both modes: SPMS's
/// fan-in at the root of a 10M-key sort (`⌈√10⁷⌉` groups).
const SPMS_BUCKET_RUNS: usize = 3_163;

struct Timing {
    warmup: usize,
    measure: usize,
}

/// Median of `timing.measure` timed iterations after `timing.warmup`
/// untimed ones. `prep` runs outside the timed region every iteration.
fn median_ms<S, P: FnMut() -> S, F: FnMut(S)>(timing: &Timing, mut prep: P, mut work: F) -> f64 {
    for _ in 0..timing.warmup {
        work(prep());
    }
    let mut samples = Vec::with_capacity(timing.measure);
    for _ in 0..timing.measure {
        let state = prep();
        let t0 = Instant::now();
        work(state);
        samples.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    median(samples)
}

/// Shortest timed work per side of one paired sample. A cell faster than
/// this repeats its kernels within the sample, so a scheduler tick or a
/// timer-resolution step is a small share of every sample.
const MIN_SAMPLE_MS: f64 = 10.0;

/// Interleaved before/after medians: each measured sample times the
/// baseline and the optimized kernel back to back, so slow load drift on a
/// shared host hits both sides of the ratio equally (DESIGN.md §10).
///
/// A sample runs `reps` baseline/optimized pairs (each on a fresh `prep`
/// state) and sums each side's time, with `reps` sized from the warmup so
/// each side's sum reaches [`MIN_SAMPLE_MS`]. Returns `(median_base_ms,
/// median_opt_ms, median_speedup)`, the medians per run of the kernel.
/// The speedup is the **median of the per-sample ratios**, not the ratio
/// of the medians: a transient stall (frequency throttle, scheduler
/// migration) lands inside one sample and skews both of that sample's
/// timings together, so its ratio stays sane while the ratio-of-medians
/// can pair a stalled sample with a clean one. The perf gate compares
/// these ratios.
fn paired_medians_ms<S, P, A, B>(
    timing: &Timing,
    mut prep: P,
    mut base: A,
    mut opt: B,
) -> (f64, f64, f64)
where
    P: FnMut() -> S,
    A: FnMut(S),
    B: FnMut(S),
{
    let timed = |f: &mut dyn FnMut(S), state: S| {
        let t0 = Instant::now();
        f(state);
        t0.elapsed().as_secs_f64() * 1e3
    };
    let mut fastest = f64::INFINITY;
    for _ in 0..timing.warmup {
        let b = timed(&mut base, prep());
        let o = timed(&mut opt, prep());
        fastest = fastest.min(b).min(o);
    }
    let reps = (MIN_SAMPLE_MS / fastest).ceil().clamp(1.0, 1e4) as usize;
    let mut bs = Vec::with_capacity(timing.measure);
    let mut os = Vec::with_capacity(timing.measure);
    let mut ratios = Vec::with_capacity(timing.measure);
    for _ in 0..timing.measure {
        let (mut b, mut o) = (0.0, 0.0);
        for _ in 0..reps {
            b += timed(&mut base, prep());
            o += timed(&mut opt, prep());
        }
        bs.push(b / reps as f64);
        os.push(o / reps as f64);
        ratios.push(b / o);
    }
    (median(bs), median(os), median(ratios))
}

fn shapes() -> [(&'static str, Workload); 4] {
    [
        ("uniform", Workload::UniformU64),
        ("sawtooth", Workload::Sawtooth(8192)),
        ("few_distinct", Workload::FewDistinct(64)),
        ("zipf", Workload::Zipf(1.2)),
    ]
}

/// Optimized run formation: `sort_kernel` per chunk (radix for u64).
fn form_runs_opt(data: &mut [u64], run_elems: usize) {
    for run in data.chunks_mut(run_elems.max(2)) {
        sort_kernel(run);
    }
}

fn run_formation_cells(n: usize, timing: &Timing, smoke: bool, cells: &mut Vec<Cell>) {
    for (name, w) in shapes() {
        let input = generate(w, n, 0xF0);
        if smoke {
            let mut a = input.clone();
            let mut b = input.clone();
            form_runs_ref(&mut a, RUN_ELEMS);
            form_runs_opt(&mut b, RUN_ELEMS);
            assert_eq!(a, b, "run formation kernels disagree on {name}");
        }
        let (base, opt, speedup) = paired_medians_ms(
            timing,
            || input.clone(),
            |mut v| form_runs_ref(&mut v, RUN_ELEMS),
            |mut v| form_runs_opt(&mut v, RUN_ELEMS),
        );
        cells.push(Cell {
            kernel: "run_formation".into(),
            workload: name.into(),
            n,
            baseline_ms: Some(base),
            optimized_ms: opt,
            speedup: Some(speedup),
        });
    }
}

fn kway_merge_cells(n: usize, timing: &Timing, smoke: bool, cells: &mut Vec<Cell>) {
    for (name, w) in shapes() {
        let runs = sorted_runs(generate(w, n, 0xF1), n.div_ceil(KWAY));
        cells.push(kway_merge_cell(name, &[runs], timing, smoke));
    }
    // NMsort's Phase-2 shape on the benchmark's 100M-key run: each of the
    // 8 merge parts of a batch holds 50 chunk segments of ~5k keys.
    let (k, len) = PHASE2_RUNS;
    let runs = sorted_runs(generate(Workload::UniformU64, k * len, 0xF4), len);
    cells.push(kway_merge_cell("phase2", &[runs], timing, smoke));
    cells.push(kway_merge_cell(
        "spms_bucket",
        &spms_buckets(),
        timing,
        smoke,
    ));
}

/// Two of SPMS's root buckets on 10M Zipf keys: one whose runs hold 0–2
/// distinct keys (one on average), merged on the loser tree, and one
/// whose runs all hold the same key (0–12 copies each), which needs no
/// tree.
fn spms_buckets() -> Vec<Vec<Vec<u64>>> {
    let mut rng = StdRng::seed_from_u64(0xF5);
    let tiny = (0..SPMS_BUCKET_RUNS)
        .map(|_| {
            let mut run: Vec<u64> = (0..rng.gen_range(0..=2)).map(|_| rng.gen()).collect();
            run.sort_unstable();
            run
        })
        .collect();
    let single = (0..SPMS_BUCKET_RUNS)
        .map(|_| vec![42; rng.gen_range(0..=12)])
        .collect();
    vec![tiny, single]
}

/// `data` cut into `run_len`-key runs, each sorted.
fn sorted_runs(mut data: Vec<u64>, run_len: usize) -> Vec<Vec<u64>> {
    for run in data.chunks_mut(run_len) {
        run.sort_unstable();
    }
    data.chunks(run_len).map(<[u64]>::to_vec).collect()
}

/// Reference loser tree vs `merge_into_slice` on a list of merges, each
/// a run set merged into its own output. In smoke mode, first assert both
/// emit the same output and comparison count, with SIMD dispatch on and
/// off.
fn kway_merge_cell(name: &str, merges: &[Vec<Vec<u64>>], timing: &Timing, smoke: bool) -> Cell {
    let merges: Vec<Vec<&[u64]>> = merges
        .iter()
        .map(|runs| runs.iter().map(Vec::as_slice).collect())
        .collect();
    let len = |runs: &[&[u64]]| runs.iter().map(|r| r.len()).sum::<usize>();
    let outputs = || -> Vec<Vec<u64>> { merges.iter().map(|runs| vec![0; len(runs)]).collect() };
    if smoke {
        for runs in &merges {
            assert_kernels_agree(name, runs);
        }
    }
    let merges = &merges;
    let merge_all = |merge: fn(&[&[u64]], &mut [u64]) -> u64| {
        move |mut outs: Vec<Vec<u64>>| {
            for (runs, out) in merges.iter().zip(&mut outs) {
                merge(runs, out);
            }
        }
    };
    let (base, opt, speedup) = paired_medians_ms(
        timing,
        outputs,
        merge_all(merge_into_slice_ref),
        merge_all(merge_into_slice),
    );
    Cell {
        kernel: "kway_merge".into(),
        workload: name.into(),
        n: merges.iter().map(|runs| len(runs)).sum(),
        baseline_ms: Some(base),
        optimized_ms: opt,
        speedup: Some(speedup),
    }
}

/// Smoke-mode agreement on one run set: the reference tree and
/// `merge_into_slice` emit the same output and count, with SIMD dispatch
/// on and off.
fn assert_kernels_agree(name: &str, runs: &[&[u64]]) {
    let n: usize = runs.iter().map(|r| r.len()).sum();
    let mut a = vec![0u64; n];
    let mut b = vec![0u64; n];
    let ca = merge_into_slice_ref(runs, &mut a);
    let cb = merge_into_slice(runs, &mut b);
    assert_eq!(a, b, "merge kernels disagree on {name}");
    assert_eq!(ca, cb, "merge comparison counts diverge on {name}");
    // And the SIMD merge paths must be invisible: same output, same
    // comparison ledger, with vector dispatch forced off.
    let prior = tlmm_core::kernels::simd::enabled();
    tlmm_core::kernels::simd::set_enabled(false);
    let mut c = vec![0u64; n];
    let cc = merge_into_slice(runs, &mut c);
    tlmm_core::kernels::simd::set_enabled(prior);
    assert_eq!(b, c, "merge output changed with SIMD disabled on {name}");
    assert_eq!(cb, cc, "merge counts changed with SIMD disabled on {name}");
}

fn bucketize_cells(n: usize, timing: &Timing, cells: &mut Vec<Cell>) {
    let tl = TwoLevel::new(ScratchpadParams::new(64, 4.0, 1 << 22, 1 << 16).unwrap());
    for (name, w) in shapes() {
        let mut sorted = generate(w, n, 0xF2);
        sorted.sort_unstable();
        // 63 pivots ≈ the experiments' bucket counts; dedup for the
        // duplicate-heavy shapes (pivots must be strictly increasing).
        let mut pivots: Vec<u64> = (1..64u64)
            .map(|i| sorted[(i as usize * n / 64).min(n - 1)])
            .collect();
        pivots.dedup();
        let opt = median_ms(
            timing,
            || (),
            |()| {
                bucketize::bucket_positions(&tl, RegionLevel::Near, &sorted, &pivots, 8, 1);
            },
        );
        cells.push(Cell {
            kernel: "bucketize".into(),
            workload: name.into(),
            n,
            baseline_ms: None,
            optimized_ms: opt,
            speedup: None,
        });
    }
}

fn nmsort_cells(sizes: &[usize], timing: &Timing, cells: &mut Vec<Cell>) {
    for &n in sizes {
        for (name, _) in shapes().into_iter().take(1) {
            // End-to-end is dominated by the uniform case the paper
            // evaluates; one shape keeps full runs under a minute.
            let opt = median_ms(
                timing,
                || (),
                |()| {
                    let spec = SortSpec::new(Engine::NmSort, n, 8, 0xF3);
                    run_sort(&spec, Overrides::default()).expect("nmsort e2e cell failed");
                },
            );
            cells.push(Cell {
                kernel: "nmsort_e2e".into(),
                workload: name.into(),
                n,
                baseline_ms: None,
                optimized_ms: opt,
                speedup: None,
            });
        }
    }
}

pub fn run(mut args: Args) -> Outcome {
    let smoke = args.flag("--smoke");
    let full10m = args.flag("--full10m");
    if smoke && full10m {
        args.fail("--smoke and --full10m exclude each other");
    }
    args.finish();
    let mode = if smoke { "smoke" } else { "full" };

    let (n, nmsort_sizes, timing) = if smoke {
        // 100k keeps a smoke run in CI seconds while giving each paired
        // cell multiple full runs/chunks to time — at 20k the speedup
        // ratios were too noisy for a ±15% gate.
        (
            100_000,
            vec![100_000],
            Timing {
                warmup: 1,
                measure: 9,
            },
        )
    } else {
        let mut sizes = vec![1_000_000];
        if full10m {
            sizes.push(10_000_000);
        }
        (
            1_000_000,
            sizes,
            Timing {
                warmup: 2,
                measure: 7,
            },
        )
    };

    eprintln!(
        "[kernel_bench] mode={mode}, n={n}, median of {}",
        timing.measure
    );
    tlmm_telemetry::reset();

    let mut cells = Vec::new();
    run_formation_cells(n, &timing, smoke, &mut cells);
    kway_merge_cells(n, &timing, smoke, &mut cells);
    bucketize_cells(n, &timing, &mut cells);
    nmsort_cells(&nmsort_sizes, &timing, &mut cells);

    // Rendered table.
    let mut text = String::new();
    outln!(
        text,
        "Kernel wall-clock bench ({mode}): median of {} after {} warmup",
        timing.measure,
        timing.warmup
    );
    outln!(
        text,
        "{:<14} {:<13} {:>10} {:>12} {:>12} {:>8}",
        "kernel",
        "workload",
        "n",
        "baseline ms",
        "optimized ms",
        "speedup"
    );
    for c in &cells {
        outln!(
            text,
            "{:<14} {:<13} {:>10} {:>12} {:>12.3} {:>8}",
            c.kernel,
            c.workload,
            c.n,
            c.baseline_ms.map_or("-".into(), |b| format!("{b:.3}")),
            c.optimized_ms,
            c.speedup.map_or("-".into(), |s| format!("{s:.2}x"))
        );
    }
    if smoke {
        outln!(
            text,
            "smoke agreement checks: OK (kernels match references)"
        );
    }

    let file = BenchFile {
        git_sha: artifact::git_sha(),
        mode: mode.into(),
        warmup_iters: timing.warmup,
        measured_iters: timing.measure,
        sweep: None,
        cells,
    };
    // Full mode refreshes the committed trajectory file; smoke mode writes
    // its (smaller-n) cells next to the other CI artifacts so the perf
    // gate can diff them against the committed smoke baseline without
    // ever clobbering the full-mode record.
    let bench_path = file.write(smoke, "kernels")?;
    outln!(text, "wrote {}", bench_path.display());

    let report = RunReport::collect("kernel_bench")
        .meta("mode", mode)
        .meta("n", n.to_string());
    artifact::emit("kernel_bench", &text, report)?;
    Ok(())
}
