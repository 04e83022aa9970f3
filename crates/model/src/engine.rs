//! The engine registry: every sort algorithm the repo can run.
//!
//! The enum lives in `tlmm-model` (the dependency root) so that *both* the
//! bench harness and the service layer can dispatch over the same registry
//! without depending on each other: `tlmm-bench` re-exports it as its
//! `Engine`, and `tlmm-service` keys admission estimates and job specs on
//! it.

use serde::{Deserialize, Serialize};

/// Which sort engine a run executes — the single registry every bench
/// binary and service job dispatches through. Adding a sorter means adding
/// a variant here, one [`Engine::name`]/[`Engine::parse`] row, and one
/// match arm in each runner; no binary carries its own algo-name strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Engine {
    /// NMsort with blocking ingest transfers.
    NmSort,
    /// NMsort with DMA-overlapped ingest (the §VII improvement).
    NmSortDma,
    /// The GNU-style far-memory multiway mergesort baseline.
    Baseline,
    /// SPMS (Cole–Ramachandran) — cache-oblivious sample–partition–merge.
    Spms,
    /// SquareSort (Koucký–Matějka) — cache-oblivious √n-block recursion.
    SquareSort,
}

impl Engine {
    /// Every registered engine, in display order.
    pub const ALL: [Engine; 5] = [
        Engine::NmSort,
        Engine::NmSortDma,
        Engine::Baseline,
        Engine::Spms,
        Engine::SquareSort,
    ];

    /// Canonical lowercase name (artifact keys, `--algo` values).
    pub fn name(self) -> &'static str {
        match self {
            Engine::NmSort => "nmsort",
            Engine::NmSortDma => "dma",
            Engine::Baseline => "baseline",
            Engine::Spms => "spms",
            Engine::SquareSort => "squaresort",
        }
    }

    /// Inverse of [`Engine::name`] (case-sensitive, exact).
    pub fn parse(s: &str) -> Option<Engine> {
        Engine::ALL.into_iter().find(|e| e.name() == s)
    }

    /// Does the engine read a chunk bound? Only the aware NMsort variants
    /// chunk; the baseline and the oblivious engines ignore it.
    pub fn uses_chunks(self) -> bool {
        matches!(self, Engine::NmSort | Engine::NmSortDma)
    }

    /// Is the engine scratchpad-*oblivious* (control flow independent of
    /// `M` and `Z`)? The `fig_crossover` sweep partitions on this.
    pub fn is_oblivious(self) -> bool {
        matches!(self, Engine::Spms | Engine::SquareSort)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for e in Engine::ALL {
            assert_eq!(Engine::parse(e.name()), Some(e));
        }
        assert_eq!(Engine::parse("bogosort"), None);
    }
}
