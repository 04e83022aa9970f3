//! **Kernel bench** — host wall-clock before→after deltas for the kernel
//! layer (DESIGN.md §10).
//!
//! Four kernels × four workload shapes, plus three merge cells shaped like
//! the sorters' own merges, the radix sort's crossover, and short and
//! mid-size sorts:
//!
//! * `run_formation` — Phase-1 style chunk sorting: `sort_unstable` per run
//!   (the pre-kernel reference) vs [`tlmm_core::kernels::sort_kernel`]
//!   (MSD hybrid radix for `u64`).
//! * `kway_merge` — k-way merge of sorted runs: a copy of the runs and a
//!   stable `slice::sort` of the concatenation (the host's own
//!   run-detecting merge) vs `merge_into_slice` (the charge, `merge_cost`,
//!   plus the executor's merge tree, radix sort or concatenation), over 16
//!   runs of each shape, plus a `phase2` cell shaped like NMsort's
//!   Phase-2 merge parts (50 × 5k), an `spms_bucket` cell shaped like
//!   SPMS's root bucket merges on Zipf keys (one bucket of ~3k runs
//!   averaging one key, one single-key bucket) and an `spms_leaf_bucket`
//!   cell shaped like its bucket merges one level down (1,000 merges of
//!   57 runs averaging one key). Full mode adds `dma_100m`'s two merge
//!   shapes: `dma_p1` (a Phase-1 chunk merge, 7 × 294,912) and `dma_p2`
//!   (a Phase-2 batch, 50 × 40,000).
//! * `merge_pair` — `simd::scalar::merge_pair` vs `simd::merge_pair` on
//!   2 × 16Ki uniform keys, one cell per vector tier the host has (the
//!   cell's workload names the tier).
//! * `radix_crossover` — `sort_unstable` vs `radix_sort` on the bench's
//!   keys cut into pieces of 256–4,096 (the cell's `n`), uniform and
//!   Zipf(1.1): where `RADIX_MIN_LEN` should sit (DESIGN.md §10).
//! * `short_sort` — `sort_unstable` vs `sort_kernel` on the bench's keys
//!   cut into pieces of 16, 32 and 56 (the cell's `n`), uniform and
//!   Zipf(1.1): the register sorting network of `simd::sort_short` in its
//!   three size classes, 56 keys being SPMS's base cases and tiny buckets.
//! * `mid_sort` — the same on pieces of 96, 160 and 255 keys: the merged
//!   register sorts `simd::sort_short` runs above 64 keys (DESIGN.md §15).
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
use tlmm_core::kernels::simd::{self, Tier};
use tlmm_core::kernels::{radix_sort, sort_kernel};
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
/// Runs × keys per run of the full-mode `dma_p1` and `dma_p2` cells:
/// `dma_100m`'s two merge shapes, a Phase-1 chunk merge of 7 formed runs
/// and a Phase-2 batch of 50 chunk segments.
const DMA_MERGES: [(&str, usize, usize); 2] = [("dma_p1", 7, 294_912), ("dma_p2", 50, 40_000)];
/// Keys per side of the `merge_pair` cells.
const PAIR_KEYS: usize = 1 << 14;
/// Runs per bucket of the `spms_bucket` cell, in both modes: SPMS's
/// fan-in at the root of a 10M-key sort (`⌈√10⁷⌉` groups).
const SPMS_BUCKET_RUNS: usize = 3_163;
/// Runs per merge × merges of the `spms_leaf_bucket` cell, in both modes:
/// SPMS's fan-in one level below the root of a 10M-key sort (`⌈√3163⌉`
/// groups), where its ~180k bucket merges are.
const SPMS_LEAF_BUCKETS: (usize, usize) = (57, 1_000);

/// Piece lengths of the `radix_crossover` cells, around `RADIX_MIN_LEN`.
const CROSSOVER_LENS: [usize; 5] = [256, 512, 1_024, 2_048, 4_096];

/// Piece lengths of the `short_sort` cells: one per register class of
/// `simd::sort_short` (16, 32 and 64 keys), 56 being SPMS's pieces.
const SHORT_LENS: [usize; 3] = [16, 32, 56];

/// Piece lengths of the `mid_sort` cells: a 64-key class merged with a
/// 32-key one, a 128-key class merged with a 32-key one, and a nearly
/// full 256-key class.
const MID_LENS: [usize; 3] = [96, 160, 255];

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

/// `sort_unstable` against `radix_sort` on `n` keys sorted in pieces of
/// each of [`CROSSOVER_LENS`]: a cell's `n` is the piece length, and its
/// times are for all `n` keys.
fn radix_crossover_cells(n: usize, timing: &Timing, cells: &mut Vec<Cell>) {
    for (name, w) in [
        ("uniform", Workload::UniformU64),
        ("zipf", Workload::Zipf(1.1)),
    ] {
        let input = generate(w, n, 0xF7);
        for len in CROSSOVER_LENS {
            let (base, opt, speedup) = paired_medians_ms(
                timing,
                || input.clone(),
                |mut v| v.chunks_mut(len).for_each(<[u64]>::sort_unstable),
                |mut v| v.chunks_mut(len).for_each(radix_sort),
            );
            cells.push(Cell {
                kernel: "radix_crossover".into(),
                workload: name.into(),
                n: len,
                baseline_ms: Some(base),
                optimized_ms: opt,
                speedup: Some(speedup),
            });
        }
    }
}

/// `sort_unstable` against `sort_kernel` on `n` keys sorted in pieces of
/// each of `lens`, as `kernel` cells: a cell's `n` is the piece length,
/// and its times are for all `n` keys. In smoke mode, first assert that
/// `sort_kernel` gives `sort_unstable`'s output with SIMD dispatch on and
/// off.
fn piece_sort_cells(
    kernel: &str,
    lens: &[usize],
    n: usize,
    timing: &Timing,
    smoke: bool,
    cells: &mut Vec<Cell>,
) {
    for (name, w) in [
        ("uniform", Workload::UniformU64),
        ("zipf", Workload::Zipf(1.1)),
    ] {
        let input = generate(w, n, 0xF8);
        for &len in lens {
            if smoke {
                assert_piece_sorts_agree(name, &input, len);
            }
            let (base, opt, speedup) = paired_medians_ms(
                timing,
                || input.clone(),
                |mut v| v.chunks_mut(len).for_each(<[u64]>::sort_unstable),
                |mut v| v.chunks_mut(len).for_each(sort_kernel),
            );
            cells.push(Cell {
                kernel: kernel.into(),
                workload: name.into(),
                n: len,
                baseline_ms: Some(base),
                optimized_ms: opt,
                speedup: Some(speedup),
            });
        }
    }
}

/// Smoke-mode agreement: `input` sorted in `len`-key pieces by
/// `sort_kernel` equals `sort_unstable`'s, with SIMD dispatch on and off.
fn assert_piece_sorts_agree(name: &str, input: &[u64], len: usize) {
    let mut want = input.to_vec();
    want.chunks_mut(len).for_each(<[u64]>::sort_unstable);
    let prior = simd::tier();
    for tier in [Tier::Scalar, simd::host_tier()] {
        simd::set_tier(tier);
        let mut got = input.to_vec();
        got.chunks_mut(len).for_each(sort_kernel);
        assert_eq!(
            got,
            want,
            "piece sorts of {len} disagree on {name} ({})",
            tier.name()
        );
    }
    simd::set_tier(prior);
}

fn kway_merge_cells(n: usize, timing: &Timing, smoke: bool, cells: &mut Vec<Cell>) {
    for (name, w) in shapes() {
        let runs = sorted_runs(generate(w, n, 0xF1), n.div_ceil(KWAY));
        cells.push(kway_merge_cell(name, &[runs], timing, smoke));
    }
    if !smoke {
        for (name, k, len) in DMA_MERGES {
            let runs = sorted_runs(generate(Workload::UniformU64, k * len, 0xF9), len);
            cells.push(kway_merge_cell(name, &[runs], timing, smoke));
        }
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
    let mut rng = StdRng::seed_from_u64(0xF6);
    let (k, merges) = SPMS_LEAF_BUCKETS;
    let leaf_buckets: Vec<_> = (0..merges).map(|_| tiny_runs(&mut rng, k)).collect();
    cells.push(kway_merge_cell(
        "spms_leaf_bucket",
        &leaf_buckets,
        timing,
        smoke,
    ));
}

/// Two of SPMS's root buckets on 10M Zipf keys: one whose runs hold 0–2
/// distinct keys (one on average), and one whose runs all hold the same
/// key (0–12 copies each), which needs no merge.
fn spms_buckets() -> Vec<Vec<Vec<u64>>> {
    let mut rng = StdRng::seed_from_u64(0xF5);
    let tiny = tiny_runs(&mut rng, SPMS_BUCKET_RUNS);
    let single = (0..SPMS_BUCKET_RUNS)
        .map(|_| vec![42; rng.gen_range(0..=12)])
        .collect();
    vec![tiny, single]
}

/// `k` sorted runs of 0–2 random keys each, one on average.
fn tiny_runs(rng: &mut StdRng, k: usize) -> Vec<Vec<u64>> {
    (0..k)
        .map(|_| {
            let mut run: Vec<u64> = (0..rng.gen_range(0..=2)).map(|_| rng.gen()).collect();
            run.sort_unstable();
            run
        })
        .collect()
}

/// `data` cut into `run_len`-key runs, each sorted.
fn sorted_runs(mut data: Vec<u64>, run_len: usize) -> Vec<Vec<u64>> {
    for run in data.chunks_mut(run_len) {
        run.sort_unstable();
    }
    data.chunks(run_len).map(<[u64]>::to_vec).collect()
}

/// Copy and stable sort vs `merge_into_slice` on a list of merges, each a
/// run set merged into its own output. In smoke mode, first assert that
/// `merge_into_slice` emits the reference tree's output and comparison
/// count, with SIMD dispatch on and off.
///
/// The timed baseline copies the runs end to end and sorts the copy with
/// the standard library's stable sort, which finds the runs and merges
/// them: host work of the same kind as the kernel's (a copy, then merges
/// or a sort of the same keys, no tree that replays per key), so host
/// states move both sides together (DESIGN.md §10).
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
    let (base, opt, speedup) = paired_medians_ms(
        timing,
        outputs,
        |mut outs: Vec<Vec<u64>>| {
            for (runs, out) in merges.iter().zip(&mut outs) {
                copy_and_sort(runs, out);
            }
        },
        |mut outs: Vec<Vec<u64>>| {
            for (runs, out) in merges.iter().zip(&mut outs) {
                merge_into_slice(runs, out);
            }
        },
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

/// The `kway_merge` baseline: `runs` copied into `out` end to end, then
/// sorted stably.
fn copy_and_sort(runs: &[&[u64]], out: &mut [u64]) {
    let mut at = 0;
    for r in runs {
        out[at..at + r.len()].copy_from_slice(r);
        at += r.len();
    }
    out.sort();
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
    let prior = simd::tier();
    simd::set_tier(Tier::Scalar);
    let mut c = vec![0u64; n];
    let cc = merge_into_slice(runs, &mut c);
    simd::set_tier(prior);
    assert_eq!(b, c, "merge output changed with SIMD disabled on {name}");
    assert_eq!(cb, cc, "merge counts changed with SIMD disabled on {name}");
}

/// `scalar::merge_pair` against `simd::merge_pair` on two sorted runs of
/// [`PAIR_KEYS`] uniform keys, one cell per vector tier the host has,
/// named after the tier.
fn merge_pair_cells(timing: &Timing, cells: &mut Vec<Cell>) {
    let runs = sorted_runs(
        generate(Workload::UniformU64, 2 * PAIR_KEYS, 0xFA),
        PAIR_KEYS,
    );
    let (a, b) = (&runs[0], &runs[1]);
    let prior = simd::tier();
    for tier in [Tier::Avx2, Tier::Avx512] {
        if simd::set_tier(tier) != tier {
            continue;
        }
        let (base, opt, speedup) = paired_medians_ms(
            timing,
            || vec![0u64; 2 * PAIR_KEYS],
            |mut out| simd::scalar::merge_pair(a, b, &mut out),
            |mut out| simd::merge_pair(a, b, &mut out),
        );
        cells.push(Cell {
            kernel: "merge_pair".into(),
            workload: tier.name().into(),
            n: 2 * PAIR_KEYS,
            baseline_ms: Some(base),
            optimized_ms: opt,
            speedup: Some(speedup),
        });
    }
    simd::set_tier(prior);
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
    merge_pair_cells(&timing, &mut cells);
    radix_crossover_cells(n, &timing, &mut cells);
    piece_sort_cells("short_sort", &SHORT_LENS, n, &timing, smoke, &mut cells);
    piece_sort_cells("mid_sort", &MID_LENS, n, &timing, smoke, &mut cells);
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

    let tier = simd::tier().name();
    let file = BenchFile {
        git_sha: artifact::git_sha(),
        mode: mode.into(),
        simd_tier: Some(tier.into()),
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
        .meta("simd_tier", tier)
        .meta("n", n.to_string());
    artifact::emit("kernel_bench", &text, report)?;
    Ok(())
}
