//! Algorithmic model of a two-level main memory (DRAM + scratchpad).
//!
//! This crate encodes the theoretical machinery of *"Two-Level Main Memory
//! Co-Design: Multi-Threaded Algorithmic Primitives, Analysis, and
//! Simulation"* (IPDPS 2015):
//!
//! * [`params::ScratchpadParams`] — the model parameters: cache size `Z`,
//!   scratchpad size `M`, DRAM block size `B`, and the bandwidth expansion
//!   factor `ρ` (the scratchpad moves blocks of size `ρB` at the same unit
//!   cost as a DRAM block of size `B`).
//! * [`ledger::CostLedger`] — a thread-safe block-transfer ledger used by the
//!   runtime (`tlmm-scratchpad`) to charge every far/near transfer exactly
//!   as the model prescribes.
//! * [`theorems`] — the paper's Theorems 1, 2, 6, 8 and 10 and Corollaries 3
//!   and 7 as closed-form cost predictors, plus the matching lower bound.
//! * [`bounds`] — the §V-A back-of-envelope test for when sorting becomes
//!   memory-bandwidth bound (`y·log Z < x`).
//! * [`recursion`] — Lemma 5's randomized recursion-depth machinery
//!   (good/bad split probabilities, expected scan counts).
//!
//! Cost in this model is measured in **block transfers**: moving any block —
//! small (`B` bytes, DRAM↔cache) or large (`ρB` bytes, scratchpad↔cache) —
//! costs exactly 1. Computation is free; the model targets memory-bound
//! computations.

pub mod admission;
pub mod bounds;
pub mod engine;
pub mod ledger;
pub mod oblivious;
pub mod params;
pub mod recursion;
pub mod theorems;

pub use admission::{
    estimate as admission_estimate, shrink_to_fit, AdmissionEstimate, NmSortGeometry,
};
pub use bounds::{BandwidthBoundVerdict, MachineRates};
pub use engine::Engine;
pub use ledger::{CostLedger, CostSnapshot};
pub use params::ScratchpadParams;

/// Binary logarithm clamped so that callers can feed it values `< 2`
/// without producing negative or infinite costs.
///
/// The asymptotic formulas divide by `lg(base)`; for degenerate parameter
/// settings (e.g. `Z/ρB < 2`) the model's guidance is that the logarithm's
/// base saturates at 2 (a branching factor below two is meaningless for a
/// merge). All `theorems` formulas use this helper.
#[inline]
pub fn lg2_clamped(x: f64) -> f64 {
    x.max(2.0).log2()
}

/// `log_base(x)` with the base clamped to at least 2 and the argument clamped
/// to at least 1 (so costs are never negative).
#[inline]
pub fn log_clamped(base: f64, x: f64) -> f64 {
    x.max(1.0).log2() / lg2_clamped(base)
}

/// Integer ceiling division. Used everywhere block counts are computed.
#[inline]
pub const fn ceil_div(a: u64, b: u64) -> u64 {
    if b == 0 {
        0
    } else {
        a.div_ceil(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_div_basics() {
        assert_eq!(ceil_div(0, 64), 0);
        assert_eq!(ceil_div(1, 64), 1);
        assert_eq!(ceil_div(64, 64), 1);
        assert_eq!(ceil_div(65, 64), 2);
        assert_eq!(ceil_div(128, 64), 2);
        assert_eq!(ceil_div(5, 0), 0, "division by zero blocks is defined as 0");
    }

    #[test]
    fn log_clamped_never_negative() {
        assert!(log_clamped(0.5, 0.5) >= 0.0);
        assert!(log_clamped(1.0, 10.0) > 0.0);
        assert_eq!(log_clamped(2.0, 1.0), 0.0);
    }

    #[test]
    fn log_clamped_matches_plain_log_in_sane_range() {
        let v = log_clamped(8.0, 64.0);
        assert!((v - 2.0).abs() < 1e-12);
    }

    #[test]
    fn lg2_clamped_saturates() {
        assert_eq!(lg2_clamped(1.0), 1.0);
        assert_eq!(lg2_clamped(0.0), 1.0);
        assert_eq!(lg2_clamped(4.0), 2.0);
    }
}
