//! When does the scratchpad help? A streaming-analytics study.
//!
//! §I of the paper is explicit about a limitation: "the scratchpad will not
//! accelerate a computation that consists of a single scan of a large chunk
//! of data that resides in DRAM" — the DRAM→cache bandwidth is unchanged.
//! The benefit appears when data is *reused*: stage once, scan many times
//! at ρ× bandwidth.
//!
//! This example runs a histogram kernel `passes` times over the same array,
//! once streaming from DRAM every pass and once staged in the scratchpad,
//! and shows the crossover at passes ≈ 2.
//!
//! Run: `cargo run --release --example streaming_analytics`

use two_level_mem::analysis::table::{ratio, secs, Table};
use two_level_mem::core::par::{charged_copy, CopyKind};
use two_level_mem::prelude::*;
use two_level_mem::scratchpad::with_lane;

/// Elements each lane streams through cache per charged load.
const PIECE: usize = 1 << 14;

fn histogram_of(piece: &[u64], hist: &mut [u64; 64]) {
    for &v in piece {
        hist[(v >> 58) as usize] += 1;
    }
}

/// Split `0..n` into one contiguous stripe per lane, each cut into
/// `PIECE`-element loads, and call `f(range)` once per load under its
/// lane, so the simulator applies aggregate channel bandwidth.
fn for_each_lane_piece(n: usize, lanes: usize, mut f: impl FnMut(std::ops::Range<usize>)) {
    let per = n.div_ceil(lanes).max(1);
    for (lane, lo) in (0..n).step_by(per).enumerate() {
        let hi = (lo + per).min(n);
        with_lane(lane, || {
            for at in (lo..hi).step_by(PIECE) {
                f(at..(at + PIECE).min(hi));
            }
        });
    }
}

fn main() {
    let n = 4_000_000usize;
    let lanes = 64usize;
    let params = ScratchpadParams::new(64, 4.0, 64 << 20, 4 << 20).unwrap();
    let machine = MachineConfig::fig4(lanes as u32, 4.0);
    let data = generate(Workload::UniformU64, n, 99);

    let mut t = Table::new(["passes", "DRAM-scan (s)", "staged (s)", "speedup"]);
    for passes in [1u32, 2, 4, 8] {
        // Variant A: all lanes scan from DRAM every pass.
        let tl = TwoLevel::new(params);
        let far = tl.far_from_vec(data.clone());
        let mut hist = [0u64; 64];
        let mut buf = Vec::new();
        for _ in 0..passes {
            tl.begin_phase("scan.dram");
            for_each_lane_piece(n, lanes, |r| {
                tl.load_far(&far, r, &mut buf).unwrap();
                histogram_of(&buf, &mut hist);
                // One op per element, charged to the scanning lane.
                tl.charge_compute(buf.len() as u64);
            });
            tl.end_phase();
        }
        let dram_time = simulate_flow(&tl.take_trace(), &machine).seconds;

        // Variant B: stage once into the scratchpad, then scan from near.
        let tl = TwoLevel::new(params);
        let far = tl.far_from_vec(data.clone());
        let mut near = tl.near_alloc::<u64>(n).expect("fits the scratchpad");
        tl.begin_phase("stage");
        // All lanes cooperate on the one-off staging transfer.
        charged_copy(
            &tl,
            CopyKind::FarToNear,
            far.as_slice_uncharged(),
            near.as_mut_slice_uncharged(),
            lanes,
            1,
        );
        let mut hist2 = [0u64; 64];
        for _ in 0..passes {
            tl.begin_phase("scan.near");
            // Each lane scans its stripe of the staged copy.
            for_each_lane_piece(n, lanes, |r| {
                tl.load_near(&near, r, &mut buf).unwrap();
                histogram_of(&buf, &mut hist2);
                tl.charge_compute(buf.len() as u64);
            });
            tl.end_phase();
        }
        // Results must agree regardless of placement.
        assert_eq!(hist, hist2);
        let staged_time = simulate_flow(&tl.take_trace(), &machine).seconds;

        t.row(vec![
            passes.to_string(),
            secs(dram_time),
            secs(staged_time),
            ratio(dram_time / staged_time),
        ]);
    }
    println!("\nhistogram over {n} u64, rho = 4, {lanes} cores\n");
    println!("{}", t.render());
    println!(
        "single pass: staging costs a full extra transfer — the scratchpad \
         cannot help (§I). Reuse amortizes the staging and approaches rho."
    );
}
