//! Regression tests: SPMS and the baseline sort in place. SPMS's root
//! merges its buckets in waves over the groups they consume, so a sort's
//! extra heap is a wave buffer, a wave's boundary table and the slot
//! bookkeeping, not a second `n`-key array and an `n`-entry boundary
//! table. The baseline merges its runs the same way, in waves of pieces.
//!
//! The counting allocator wraps `System` and tracks live bytes and their
//! peak. The peak is reset once the input is allocated, so what is
//! measured is everything the sort allocates on top of its input. The
//! tests share the counters, so they take turns.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use tlmm_core::{baseline_sort, spms_sort, BaselineConfig, ObliviousConfig};
use tlmm_model::ScratchpadParams;
use tlmm_scratchpad::TwoLevel;
use tlmm_workloads::{generate, Workload};

struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: delegates directly to `System`; the counters are relaxed atomic
// side effects with no influence on the returned memory.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
        PEAK.fetch_max(live, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

/// One measurement at a time: the counters are process-wide.
static TURN: Mutex<()> = Mutex::new(());

#[test]
fn spms_peak_extra_heap_is_a_fraction_of_its_input() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    const N: usize = 1_000_000;
    let input_bytes = N * std::mem::size_of::<u64>();
    for w in [Workload::UniformU64, Workload::Zipf(1.1)] {
        let keys = generate(w, N, 7);
        let mut expect = keys.clone();
        expect.sort_unstable();
        let tl = TwoLevel::new(ScratchpadParams::new(64, 4.0, 1 << 20, 16 << 10).unwrap());
        let cfg = ObliviousConfig {
            lanes: 8,
            threads: 2,
            ..Default::default()
        };
        let input = tl.far_from_vec(keys);
        let at = input.as_slice_uncharged().as_ptr();
        let base = LIVE.load(Ordering::SeqCst);
        PEAK.store(base, Ordering::SeqCst);
        let (out, _) = spms_sort(&tl, input, &cfg).unwrap();
        let extra = PEAK.load(Ordering::SeqCst) - base;
        assert_eq!(out.as_slice_uncharged(), expect.as_slice(), "{w:?}");
        assert_eq!(out.as_slice_uncharged().as_ptr(), at, "{w:?}: output moved");
        assert!(
            extra < input_bytes / 4,
            "{w:?}: spms_sort peaked at {extra} extra heap bytes for {input_bytes} input bytes"
        );
        println!("{w:?}: {extra} extra heap bytes for {input_bytes} input bytes");
    }
}

#[test]
fn baseline_peak_extra_heap_is_a_fraction_of_its_input() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    const N: usize = 1_000_000;
    let input_bytes = N * std::mem::size_of::<u64>();
    // 256 lanes is Table I's single 256-way round; 16 lanes a round of
    // longer runs (each thread's run sort holds a radix buffer of one run,
    // so two of them take an eighth of the input here); a fanout of 4
    // takes four rounds of many groups.
    let shapes = [(256, None), (16, None), (256, Some(4))];
    for w in [
        Workload::UniformU64,
        Workload::Zipf(1.1),
        Workload::AllEqual,
    ] {
        for (sim_lanes, fanout) in shapes {
            let keys = generate(w, N, 8);
            let mut expect = keys.clone();
            expect.sort_unstable();
            let tl = TwoLevel::new(ScratchpadParams::new(64, 4.0, 1 << 20, 16 << 10).unwrap());
            let cfg = BaselineConfig {
                sim_lanes,
                threads: 2,
                fanout,
                ..Default::default()
            };
            let input = tl.far_from_vec(keys);
            let at = input.as_slice_uncharged().as_ptr();
            let base = LIVE.load(Ordering::SeqCst);
            PEAK.store(base, Ordering::SeqCst);
            let r = baseline_sort(&tl, input, &cfg).unwrap();
            let extra = PEAK.load(Ordering::SeqCst) - base;
            let case = format!("{w:?} lanes {sim_lanes} fanout {fanout:?}");
            assert_eq!(r.output.as_slice_uncharged(), expect.as_slice(), "{case}");
            assert_eq!(
                r.output.as_slice_uncharged().as_ptr(),
                at,
                "{case}: output moved"
            );
            assert!(
                extra < input_bytes / 4,
                "{case}: baseline_sort peaked at {extra} extra heap bytes for {input_bytes} input bytes"
            );
            println!("{case}: {extra} extra heap bytes for {input_bytes} input bytes");
        }
    }
}
