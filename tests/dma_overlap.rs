//! DMA overlap (§VII future work): marking Phase-1 transfers overlappable
//! must never slow the simulated run down, and must speed it up when
//! transfers and compute are comparable.

use two_level_mem::prelude::*;

fn run(n: usize, use_dma: bool) -> f64 {
    let params = ScratchpadParams::new(64, 2.0, 2 << 20, 128 << 10).unwrap();
    let tl = TwoLevel::new(params);
    let input = tl.far_from_vec(generate(Workload::UniformU64, n, 23));
    nmsort(
        &tl,
        input,
        &NmSortConfig {
            sim_lanes: 32,
            use_dma,
            seed: 1,
            ..Default::default()
        },
    )
    .unwrap();
    simulate_flow(&tl.take_trace(), &MachineConfig::fig4(32, 2.0)).seconds
}

#[test]
fn dma_never_hurts_and_usually_helps() {
    let plain = run(250_000, false);
    let dma = run(250_000, true);
    assert!(
        dma <= plain * 1.001,
        "DMA-overlapped {dma} must not exceed blocking {plain}"
    );
    assert!(
        dma < plain * 0.98,
        "expected a visible overlap gain: {dma} vs {plain}"
    );
}
