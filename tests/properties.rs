//! Property-based tests across the workspace: for arbitrary inputs and
//! geometries, every sort is a sorted permutation of its input and the
//! accounting invariants hold.

use proptest::prelude::*;
use two_level_mem::prelude::*;

fn tiny_params() -> ScratchpadParams {
    // Small M so even modest inputs are multi-chunk: M = 256 KiB, Z = 32 KiB.
    ScratchpadParams::new(64, 3.0, 256 << 10, 32 << 10).unwrap()
}

fn sorted_copy(v: &[u64]) -> Vec<u64> {
    let mut s = v.to_vec();
    s.sort_unstable();
    s
}

use tlmm_testkit::shaped_workload;
use two_level_mem::core::kernels::simd;

/// `Option<u64>` fault seed: half the cases run clean, half under the
/// standard seeded mixed fault profile.
fn opt_fault_seed() -> impl Strategy<Value = Option<u64>> {
    (any::<bool>(), any::<u64>()).prop_map(|(fire, seed)| fire.then_some(seed))
}

/// One clean oblivious run; returns the sorted output and the far bytes it
/// was charged.
fn run_oblivious<T: two_level_mem::core::SortElem>(
    spms: bool,
    keys: Vec<T>,
    lanes: usize,
    fault_seed: Option<u64>,
) -> (Vec<T>, u64) {
    let tl = TwoLevel::new(tiny_params());
    if let Some(fs) = fault_seed {
        tl.install_fault_plan(FaultPlan::seeded(fs));
    }
    let input = tl.far_from_vec(keys);
    let cfg = ObliviousConfig {
        lanes,
        threads: 1,
        ..Default::default()
    };
    let (out, _report) = if spms {
        spms_sort(&tl, input, &cfg).unwrap()
    } else {
        squaresort_sort(&tl, input, &cfg).unwrap()
    };
    (
        out.as_slice_uncharged().to_vec(),
        tl.ledger().snapshot().far_bytes,
    )
}

/// Differential check for one oblivious engine: sorted-permutation vs
/// `slice::sort` on the chosen key type, and — when a fault plan is in
/// play — a degraded run that still sorts and never pays *less* far
/// traffic than the clean one.
fn oblivious_differential(
    spms: bool,
    w: Workload,
    n: usize,
    seed: u64,
    lanes: usize,
    key_kind: u8,
    fault_seed: Option<u64>,
) {
    fn check<T: two_level_mem::core::SortElem + std::fmt::Debug>(
        spms: bool,
        keys: Vec<T>,
        lanes: usize,
        fault_seed: Option<u64>,
    ) {
        let mut expect = keys.clone();
        expect.sort_unstable();
        let (clean_out, clean_far) = run_oblivious(spms, keys.clone(), lanes, None);
        prop_assert_eq!(&clean_out, &expect);
        if fault_seed.is_some() {
            let (fault_out, fault_far) = run_oblivious(spms, keys, lanes, fault_seed);
            prop_assert_eq!(&fault_out, &expect);
            prop_assert!(
                fault_far >= clean_far,
                "degraded run under-charged: {} < {} far bytes",
                fault_far,
                clean_far
            );
        }
    }
    let base = generate(w, n, seed);
    match key_kind {
        0 => check::<u64>(spms, base, lanes, fault_seed),
        1 => check::<u32>(
            spms,
            base.into_iter().map(|x| (x >> 32) as u32).collect(),
            lanes,
            fault_seed,
        ),
        _ => check::<i64>(
            spms,
            base.into_iter().map(|x| x as i64).collect(),
            lanes,
            fault_seed,
        ),
    }
}

/// Sort `keys` with the baseline at `lanes` simulated threads and
/// `fanout` at 1, 2 and 4 host threads, SIMD on and off: each run must
/// return its input's own array, sorted, and all six ledgers must agree.
fn baseline_in_place<T: two_level_mem::core::SortElem + std::fmt::Debug>(
    keys: Vec<T>,
    lanes: usize,
    fanout: Option<usize>,
) {
    let mut expect = keys.clone();
    expect.sort_unstable();
    let prior = simd::enabled();
    let mut runs = Vec::new();
    for vector in [true, false] {
        simd::set_enabled(vector);
        for threads in [1, 2, 4] {
            let tl = TwoLevel::new(tiny_params());
            let input = tl.far_from_vec(keys.clone());
            let at = input.as_slice_uncharged().as_ptr();
            let cfg = BaselineConfig {
                sim_lanes: lanes,
                threads,
                fanout,
                ..Default::default()
            };
            let r = baseline_sort(&tl, input, &cfg).unwrap();
            let out = r.output.as_slice_uncharged();
            let case = format!("lanes {lanes} fanout {fanout:?} threads {threads} simd {vector}");
            runs.push((
                case,
                out == expect.as_slice(),
                out.as_ptr() == at,
                tl.ledger().snapshot(),
            ));
        }
    }
    simd::set_enabled(prior);
    for (case, sorted, in_place, ledger) in &runs {
        prop_assert!(*sorted, "{}: not sorted", case);
        prop_assert!(*in_place, "{}: output moved", case);
        prop_assert_eq!(
            ledger,
            &runs[0].3,
            "{}: ledger differs from {}",
            case,
            runs[0].0
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn nmsort_sorts_arbitrary_inputs(
        v in proptest::collection::vec(any::<u64>(), 0..60_000),
        lanes in 1usize..16,
        chunk_div in 1usize..6,
    ) {
        let tl = TwoLevel::new(tiny_params());
        let expect = sorted_copy(&v);
        let n = v.len();
        let input = tl.far_from_vec(v);
        let cfg = NmSortConfig {
            sim_lanes: lanes,
            chunk_elems: if n > 16 { Some((n / chunk_div).clamp(8, 14_000)) } else { None },
            threads: 1,
            ..Default::default()
        };
        let r = nmsort(&tl, input, &cfg).unwrap();
        prop_assert_eq!(r.output.as_slice_uncharged(), expect.as_slice());
    }

    #[test]
    fn nmsort_handles_duplicate_heavy_inputs(
        n in 0usize..50_000,
        distinct in 1u64..8,
        seed in any::<u64>(),
    ) {
        let v = generate(Workload::FewDistinct(distinct), n, seed);
        let tl = TwoLevel::new(tiny_params());
        let expect = sorted_copy(&v);
        let input = tl.far_from_vec(v);
        let r = nmsort(&tl, input, &NmSortConfig {
            threads: 1,
            ..Default::default()
        }).unwrap();
        prop_assert_eq!(r.output.as_slice_uncharged(), expect.as_slice());
    }

    #[test]
    fn baseline_sorts_arbitrary_inputs(
        v in proptest::collection::vec(any::<u64>(), 0..40_000),
        lanes in 1usize..32,
    ) {
        let tl = TwoLevel::new(tiny_params());
        let expect = sorted_copy(&v);
        let input = tl.far_from_vec(v);
        let r = baseline_sort(&tl, input, &BaselineConfig {
            sim_lanes: lanes,
            threads: 1,
            ..Default::default()
        }).unwrap();
        prop_assert_eq!(r.output.as_slice_uncharged(), expect.as_slice());
    }

    #[test]
    fn seqsort_sorts_arbitrary_inputs(
        v in proptest::collection::vec(any::<u64>(), 0..40_000),
    ) {
        let tl = TwoLevel::new(tiny_params());
        let expect = sorted_copy(&v);
        let input = tl.far_from_vec(v);
        let (out, _) = seq_scratchpad_sort(&tl, input, &SeqSortConfig::default()).unwrap();
        prop_assert_eq!(out.as_slice_uncharged(), expect.as_slice());
    }

    #[test]
    fn ledger_bytes_and_blocks_are_consistent(
        v in proptest::collection::vec(any::<u64>(), 100..30_000),
    ) {
        let tl = TwoLevel::new(tiny_params());
        let input = tl.far_from_vec(v);
        nmsort(&tl, input, &NmSortConfig { threads: 1, ..Default::default() }).unwrap();
        let s = tl.ledger().snapshot();
        let p = tiny_params();
        // Block counts can exceed bytes/block (ceiling per transfer) but
        // never be smaller, and never exceed one block per byte.
        prop_assert!(s.far_blocks() >= s.far_bytes / p.block_bytes);
        prop_assert!(s.near_blocks() >= s.near_bytes / p.near_block_bytes());
        prop_assert!(s.far_blocks() <= s.far_bytes.max(1));
        // Trace volumes match ledger byte volumes for sequential IO; random
        // accesses inflate the trace (full blocks), never deflate it.
        let t = tl.take_trace().total();
        prop_assert!(t.far_bytes() >= s.far_bytes);
        prop_assert!(t.near_bytes() >= s.near_bytes);
    }

    #[test]
    fn simulated_time_monotone_in_rho(
        v in proptest::collection::vec(any::<u64>(), 2_000..25_000),
    ) {
        let tl = TwoLevel::new(tiny_params());
        let input = tl.far_from_vec(v);
        nmsort(&tl, input, &NmSortConfig { threads: 1, ..Default::default() }).unwrap();
        let trace = tl.take_trace();
        let mut prev = f64::INFINITY;
        for rho in [1.0, 2.0, 4.0, 8.0] {
            let s = simulate_flow(&trace, &MachineConfig::fig4(16, rho)).seconds;
            prop_assert!(s <= prev * 1.0001, "rho {} time {} prev {}", rho, s, prev);
            prev = s;
        }
    }

    // ---- Differential suite: every sort vs `slice::sort` across workload
    // shapes, with and without a fault plan installed. A seeded plan must
    // never change the *output* — only the cost of producing it.

    #[test]
    fn nmsort_differential_across_shapes_and_faults(
        w in shaped_workload(),
        n in 0usize..40_000,
        seed in any::<u64>(),
        lanes in 1usize..8,
        fault_seed in opt_fault_seed(),
    ) {
        let v = generate(w, n, seed);
        let expect = sorted_copy(&v);
        let tl = TwoLevel::new(tiny_params());
        if let Some(fs) = fault_seed {
            tl.install_fault_plan(FaultPlan::seeded(fs));
        }
        let input = tl.far_from_vec(v);
        let cfg = NmSortConfig {
            sim_lanes: lanes,
            chunk_elems: if n > 64 { Some((n / 3).clamp(32, 14_000)) } else { None },
            threads: 1,
            ..Default::default()
        };
        let r = nmsort(&tl, input, &cfg).unwrap();
        prop_assert_eq!(r.output.as_slice_uncharged(), expect.as_slice());
        // Injected faults must never pass silently: every one is either a
        // recorded degradation or a trace fault event.
        if tl.faults_injected() > 0 {
            let trace_faults = tl.take_trace().faults();
            prop_assert!(
                r.degradations.any() || trace_faults > 0,
                "{} faults fired with no degradation record", tl.faults_injected()
            );
        }
    }

    /// A multi-chunk NMsort writes Phase 2 over its input: the output is
    /// the input's own far array, sorted, for every shape, chunk size,
    /// mode, kernel dispatch and fault plan.
    #[test]
    fn nmsort_sorts_in_place_across_shapes_modes_and_faults(
        w in shaped_workload(),
        n in 2usize..40_000,
        chunk_div in 2usize..60,
        seed in any::<u64>(),
        use_dma in any::<bool>(),
        vector in any::<bool>(),
        fault_seed in opt_fault_seed(),
    ) {
        let v = generate(w, n, seed);
        let expect = sorted_copy(&v);
        let tl = TwoLevel::new(tiny_params());
        if let Some(fs) = fault_seed {
            tl.install_fault_plan(FaultPlan::seeded(fs));
        }
        let input = tl.far_from_vec(v);
        let at = input.as_slice_uncharged().as_ptr();
        let cfg = NmSortConfig {
            sim_lanes: 4,
            chunk_elems: Some(n.div_ceil(chunk_div).clamp(1, 9_000)),
            threads: 1,
            use_dma,
            ..Default::default()
        };
        let prior = simd::enabled();
        simd::set_enabled(vector);
        let r = nmsort(&tl, input, &cfg).unwrap();
        simd::set_enabled(prior);
        prop_assert_eq!(r.output.as_slice_uncharged(), expect.as_slice());
        prop_assert_eq!(r.output.as_slice_uncharged().as_ptr(), at);
    }

    #[test]
    fn quicksort_chunk_sorter_differential(
        w in shaped_workload(),
        n in 0usize..30_000,
        seed in any::<u64>(),
        fault_seed in opt_fault_seed(),
    ) {
        let v = generate(w, n, seed);
        let expect = sorted_copy(&v);
        let tl = TwoLevel::new(tiny_params());
        if let Some(fs) = fault_seed {
            tl.install_fault_plan(FaultPlan::seeded(fs));
        }
        let input = tl.far_from_vec(v);
        let cfg = NmSortConfig {
            chunk_sorter: ChunkSorter::Quicksort,
            threads: 1,
            ..Default::default()
        };
        let r = nmsort(&tl, input, &cfg).unwrap();
        prop_assert_eq!(r.output.as_slice_uncharged(), expect.as_slice());
    }

    #[test]
    fn extsort_differential_across_shapes_and_faults(
        w in shaped_workload(),
        n in 1usize..20_000,
        seed in any::<u64>(),
        fault_seed in opt_fault_seed(),
    ) {
        use two_level_mem::core::extsort::{external_sort, ExtSortConfig, RegionLevel};
        let v = generate(w, n, seed);
        let expect = sorted_copy(&v);
        let tl = TwoLevel::new(tiny_params());
        if let Some(fs) = fault_seed {
            tl.install_fault_plan(FaultPlan::seeded(fs));
        }
        let mut data = tl.far_from_vec(v);
        let mut scratch = tl.far_from_vec(vec![0u64; n]);
        let outcome = external_sort(
            &tl,
            RegionLevel::Far,
            data.as_mut_slice_uncharged(),
            scratch.as_mut_slice_uncharged(),
            &ExtSortConfig::default(),
        );
        let result = if outcome.in_scratch {
            scratch.as_slice_uncharged()
        } else {
            data.as_slice_uncharged()
        };
        prop_assert_eq!(result, expect.as_slice());
    }

    #[test]
    fn baseline_differential_under_faults(
        w in shaped_workload(),
        n in 0usize..20_000,
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
    ) {
        let v = generate(w, n, seed);
        let expect = sorted_copy(&v);
        let tl = TwoLevel::new(tiny_params());
        tl.install_fault_plan(FaultPlan::seeded(fault_seed));
        let input = tl.far_from_vec(v);
        let r = baseline_sort(&tl, input, &BaselineConfig {
            threads: 1,
            ..Default::default()
        }).unwrap();
        prop_assert_eq!(r.output.as_slice_uncharged(), expect.as_slice());
    }

    /// The baseline merges over its own runs whatever the shape, the lane
    /// count (fan-in below and above the merge's sort path at 8 runs, and
    /// past the default fanout of 256 into a second round), a fanout of 2
    /// (many rounds) and the key type: `u64`, `i64`, and a pair with no
    /// radix key.
    #[test]
    fn baseline_sorts_in_place_across_shapes_lanes_and_threads(
        w in shaped_workload(),
        n in (0u8..4, 0usize..30_000).prop_map(|(edge, n)| if edge == 0 { n % 64 } else { n }),
        seed in any::<u64>(),
        lanes in 1usize..301,
        two_way in any::<bool>(),
        key_kind in 0u8..3,
    ) {
        let fanout = two_way.then_some(2);
        let keys = generate(w, n, seed);
        match key_kind {
            0 => baseline_in_place(keys, lanes, fanout),
            1 => baseline_in_place(keys.into_iter().map(|x| x as i64).collect(), lanes, fanout),
            _ => baseline_in_place(
                keys.into_iter().map(|x| (x % 1_000, x)).collect::<Vec<(u64, u64)>>(),
                lanes,
                fanout,
            ),
        }
    }

    // ---- Oblivious engines: differential vs `slice::sort` across the same
    // workload shapes, over three key types, with and without faults. Honest
    // accounting means a faulted run can re-stream but never under-charge.

    #[test]
    fn spms_differential_across_shapes_keys_and_faults(
        w in shaped_workload(),
        n in 0usize..30_000,
        seed in any::<u64>(),
        lanes in 1usize..8,
        key_kind in 0u8..3,
        fault_seed in opt_fault_seed(),
    ) {
        oblivious_differential(true, w, n, seed, lanes, key_kind, fault_seed);
    }

    /// SPMS's root merges over its input: the output is the input's own
    /// allocation, sorted, for every shape, size, thread count, kernel
    /// dispatch and fault plan. A clean ledger does not depend on the
    /// thread count. A faulted one does: the injector rolls per operation
    /// in issue order, so with threads a fault can land on a different
    /// bucket and restream its bytes; it is held to never undercutting
    /// the clean run.
    #[test]
    fn spms_sorts_in_place_across_shapes_threads_and_faults(
        w in (0u8..5, 2u64..500).prop_map(|(which, period)| match which {
            0 => Workload::AllEqual,
            1 => Workload::FewDistinct(3),
            2 => Workload::Sawtooth(period),
            3 => Workload::Zipf(1.1),
            _ => Workload::UniformU64,
        }),
        // Most sizes leave the last group short; one in four is the
        // smallest that recurses.
        n in (0u8..4, 2usize..40_000).prop_map(|(edge, n)| match edge {
            0 => ObliviousConfig::default().base_elems + 1,
            _ => n,
        }),
        seed in any::<u64>(),
        vector in any::<bool>(),
        fault_seed in opt_fault_seed(),
    ) {
        let v = generate(w, n, seed);
        let expect = sorted_copy(&v);
        let prior = simd::enabled();
        simd::set_enabled(vector);
        let run = |threads: usize, fault_seed: Option<u64>| {
            let tl = TwoLevel::new(tiny_params());
            if let Some(fs) = fault_seed {
                tl.install_fault_plan(FaultPlan::seeded(fs));
            }
            let input = tl.far_from_vec(v.clone());
            let at = input.as_slice_uncharged().as_ptr();
            let cfg = ObliviousConfig { lanes: 4, threads, ..Default::default() };
            let (out, _) = spms_sort(&tl, input, &cfg).unwrap();
            let out = out.as_slice_uncharged();
            (out == expect.as_slice(), out.as_ptr() == at, tl.ledger().snapshot())
        };
        let clean: Vec<_> = [1, 2, 4].into_iter().map(|t| run(t, None)).collect();
        let faulted: Vec<_> = match fault_seed {
            Some(_) => [1, 2, 4].into_iter().map(|t| run(t, fault_seed)).collect(),
            None => Vec::new(),
        };
        simd::set_enabled(prior);
        for (i, (sorted, in_place, ledger)) in clean.iter().chain(&faulted).enumerate() {
            let threads = [1, 2, 4][i % 3];
            prop_assert!(*sorted, "{:?} n {} threads {}: not sorted", w, n, threads);
            prop_assert!(*in_place, "{:?} n {} threads {}: output moved", w, n, threads);
            prop_assert!(ledger.far_bytes >= clean[0].2.far_bytes);
            prop_assert!(ledger.near_bytes >= clean[0].2.near_bytes);
        }
        prop_assert_eq!(&clean[0].2, &clean[1].2, "ledger at 1 thread differs from 2");
        prop_assert_eq!(&clean[0].2, &clean[2].2, "ledger at 1 thread differs from 4");
    }

    #[test]
    fn squaresort_differential_across_shapes_keys_and_faults(
        w in shaped_workload(),
        n in 0usize..30_000,
        seed in any::<u64>(),
        lanes in 1usize..8,
        key_kind in 0u8..3,
        fault_seed in opt_fault_seed(),
    ) {
        oblivious_differential(false, w, n, seed, lanes, key_kind, fault_seed);
    }

    #[test]
    fn kmeans_assignments_valid_and_variants_agree(
        n in 50usize..2_000,
        k in 1usize..6,
        d in 1usize..4,
        seed in any::<u64>(),
    ) {
        let pts = two_level_mem::kmeans::generate_blobs(n, d, k, 5.0, seed);
        let tl = TwoLevel::new(tiny_params());
        let arr = tl.far_from_vec(pts);
        let cfg = KMeansConfig { k, dim: d, max_iters: 8, sim_lanes: 4, parallel: false, ..Default::default() };
        let a = kmeans_far(&tl, &arr, &cfg);
        let b = kmeans_near(&tl, &arr, &cfg).unwrap();
        prop_assert_eq!(&a.assignments, &b.assignments);
        prop_assert!(a.assignments.iter().all(|&c| (c as usize) < k));
        prop_assert!(a.inertia.is_finite());
    }
}

/// Duplicate-heavy inputs overflow buckets past the scratchpad batch, and
/// their parts merge through the scratchpad or straight from DRAM; either
/// way the output lands over the input's own array, in blocking and DMA
/// mode, with the SIMD kernels on and off.
#[test]
fn nmsort_oversized_buckets_sort_in_place() {
    let prior = simd::enabled();
    for vector in [true, false] {
        simd::set_enabled(vector);
        for w in [Workload::Zipf(1.1), Workload::FewDistinct(3)] {
            for use_dma in [false, true] {
                let v = generate(w, 120_000, 5);
                let expect = sorted_copy(&v);
                let tl = TwoLevel::new(tiny_params());
                let input = tl.far_from_vec(v);
                let at = input.as_slice_uncharged().as_ptr();
                let cfg = NmSortConfig {
                    sim_lanes: 4,
                    chunk_elems: Some(6_000),
                    use_dma,
                    ..Default::default()
                };
                let r = nmsort(&tl, input, &cfg).unwrap();
                let label = format!("{w:?} dma {use_dma} simd {vector}");
                assert!(r.oversized_buckets > 0, "{label}: no oversized bucket");
                assert_eq!(r.output.as_slice_uncharged(), expect.as_slice(), "{label}");
                assert_eq!(r.output.as_slice_uncharged().as_ptr(), at, "{label}");
            }
        }
    }
    simd::set_enabled(prior);
}
