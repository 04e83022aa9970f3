//! One deterministic retry policy behind every degradation ladder.
//!
//! Before this module, the runtime had independently grown retry loops —
//! NMsort's re-stage, alloc-retry and chunk-shrink ladders, and extsort's
//! run-formation re-read — each with its own attempt counter and
//! telemetry. [`Backoff`] centralizes the policy: bounded attempts per [`RetryClass`], per-class counters (both the
//! unified `backoff.*` family and the pre-existing `degradation.*` names,
//! so dashboards keep working), and *advisory* seeded jitter derived from
//! the same splitmix64 hash the fault injector rolls with.
//!
//! The jitter is advisory only: [`Backoff::advice_units`] is a virtual-time
//! hint for schedulers (the service layer turns it into `retry_after`
//! values) and is never charged to the cost ledger — retry behavior stays
//! byte-identical to the pre-unification ladders.

use crate::mem::TwoLevel;

/// The splitmix64 increment (golden-ratio gamma).
pub const SPLITMIX_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 finalizer — the one seeded hash the whole runtime shares:
/// fault-injection rolls, executor schedule permutations and arbitration
/// tie-breaks, and backoff jitter all mix through here.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(SPLITMIX_GAMMA);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Which degradation ladder a [`Backoff`] instance is pacing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryClass {
    /// NMsort staged-copy re-stage (Phase-1 ingest / writeback).
    Stage,
    /// Small near-allocation retry (pivot residence, bucket totals).
    Alloc,
    /// Chunk-buffer allocation: each retry halves the chunk.
    Shrink,
    /// extsort run-formation re-read after an aborted staging stream.
    Restage,
}

impl RetryClass {
    /// Every class, for sweeps and counter registration.
    pub const ALL: [RetryClass; 4] = [
        RetryClass::Stage,
        RetryClass::Alloc,
        RetryClass::Shrink,
        RetryClass::Restage,
    ];

    /// Stable short name (telemetry, artifacts).
    pub fn name(self) -> &'static str {
        match self {
            RetryClass::Stage => "stage",
            RetryClass::Alloc => "alloc",
            RetryClass::Shrink => "shrink",
            RetryClass::Restage => "restage",
        }
    }

    /// Jitter salt. Index 0 belonged to a retired DMA class; the others
    /// keep their values so advisory jitter stays put.
    pub fn index(self) -> usize {
        match self {
            RetryClass::Stage => 1,
            RetryClass::Alloc => 2,
            RetryClass::Shrink => 3,
            RetryClass::Restage => 4,
        }
    }

    /// Default bounded attempts — exactly the bounds the ad-hoc ladders
    /// used, so unification never changes ledger-visible behavior.
    pub fn default_attempts(self) -> u32 {
        match self {
            RetryClass::Stage => 3,
            RetryClass::Alloc => 3,
            RetryClass::Shrink => 3,
            RetryClass::Restage => 1,
        }
    }

    /// Pre-unification `degradation.*` counter incremented per retry.
    fn legacy_retry(self) {
        match self {
            RetryClass::Stage => tlmm_telemetry::counter!("degradation.transfer_retry").incr(),
            RetryClass::Alloc => tlmm_telemetry::counter!("degradation.alloc_retry").incr(),
            RetryClass::Shrink => tlmm_telemetry::counter!("degradation.chunk_shrink").incr(),
            RetryClass::Restage => tlmm_telemetry::counter!("degradation.extsort_restage").incr(),
        }
    }

    /// Pre-unification `degradation.*` counter incremented when the ladder
    /// gives up retrying and forces the operation through.
    fn legacy_forced(self) {
        match self {
            RetryClass::Stage => tlmm_telemetry::counter!("degradation.transfer_forced").incr(),
            RetryClass::Alloc | RetryClass::Shrink => {
                tlmm_telemetry::counter!("degradation.alloc_forced").incr()
            }
            RetryClass::Restage => tlmm_telemetry::counter!("degradation.extsort_forced").incr(),
        }
    }

    fn unified_retry(self) {
        match self {
            RetryClass::Stage => tlmm_telemetry::counter!("backoff.stage.retry").incr(),
            RetryClass::Alloc => tlmm_telemetry::counter!("backoff.alloc.retry").incr(),
            RetryClass::Shrink => tlmm_telemetry::counter!("backoff.shrink.retry").incr(),
            RetryClass::Restage => tlmm_telemetry::counter!("backoff.restage.retry").incr(),
        }
    }

    fn unified_forced(self) {
        match self {
            RetryClass::Stage => tlmm_telemetry::counter!("backoff.stage.forced").incr(),
            RetryClass::Alloc => tlmm_telemetry::counter!("backoff.alloc.forced").incr(),
            RetryClass::Shrink => tlmm_telemetry::counter!("backoff.shrink.forced").incr(),
            RetryClass::Restage => tlmm_telemetry::counter!("backoff.restage.forced").incr(),
        }
    }
}

/// Bounded, seeded, deterministic retry state for one operation.
///
/// Usage is a two-verb protocol: call [`Backoff::again`] when an attempt
/// failed with an *injected* error — `true` means "retry permitted" (the
/// attempt is counted and the advisory jitter recorded), `false` means the
/// budget is exhausted; then call [`Backoff::give_up`] before taking the
/// final forced rung.
#[derive(Debug, Clone)]
pub struct Backoff {
    class: RetryClass,
    max_attempts: u32,
    seed: u64,
    attempt: u32,
}

impl Backoff {
    /// A ladder of `class` with its default attempt bound. The seed feeds
    /// only the advisory jitter, never the retry decision.
    pub fn new(class: RetryClass, seed: u64) -> Self {
        Self {
            class,
            max_attempts: class.default_attempts(),
            seed,
            attempt: 0,
        }
    }

    /// A ladder seeded from the memory's installed fault plan (0 when no
    /// plan is installed) — the "existing fault-hash splitmix" seed.
    pub fn for_memory(tl: &TwoLevel, class: RetryClass) -> Self {
        let seed = tl.fault_injector().map(|i| i.plan().seed).unwrap_or(0);
        Self::new(class, seed)
    }

    /// Override the attempt bound (tests, service-layer policies).
    pub fn with_attempts(mut self, max_attempts: u32) -> Self {
        self.max_attempts = max_attempts;
        self
    }

    /// The ladder's class.
    pub fn class(&self) -> RetryClass {
        self.class
    }

    /// Retries consumed so far.
    pub fn attempts_used(&self) -> u32 {
        self.attempt
    }

    /// Has the retry budget run out?
    pub fn exhausted(&self) -> bool {
        self.attempt >= self.max_attempts
    }

    /// Advisory virtual-time wait before the *next* retry: exponential in
    /// the attempt number with a seeded jitter term. Pure function of
    /// `(seed, class, attempt)`; never charged anywhere.
    pub fn advice_units(&self) -> u64 {
        let span = 1u64 << (self.attempt.min(16) + 5);
        let salt = ((self.class.index() as u64) << 56) ^ self.attempt as u64;
        span + splitmix64(self.seed ^ splitmix64(salt)) % span
    }

    /// One attempt failed with an injected error: may the caller retry?
    /// Counts the retry (unified + legacy counters, jitter histogram) when
    /// permitted.
    pub fn again(&mut self) -> bool {
        if self.attempt >= self.max_attempts {
            return false;
        }
        tlmm_telemetry::histogram!("backoff.advice_units").record(self.advice_units());
        self.attempt += 1;
        self.class.unified_retry();
        self.class.legacy_retry();
        true
    }

    /// The ladder is giving up on retries and will force the operation
    /// through with injection suppressed — count the final rung.
    pub fn give_up(&self) {
        self.class.unified_forced();
        self.class.legacy_forced();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_match_the_ladders_they_replaced() {
        assert_eq!(RetryClass::Stage.default_attempts(), 3);
        assert_eq!(RetryClass::Alloc.default_attempts(), 3);
        assert_eq!(RetryClass::Shrink.default_attempts(), 3);
        assert_eq!(RetryClass::Restage.default_attempts(), 1);
    }

    #[test]
    fn again_is_bounded_and_counts() {
        let mut bo = Backoff::new(RetryClass::Stage, 7);
        assert!(bo.again());
        assert!(bo.again());
        assert!(bo.again());
        assert!(!bo.again());
        assert!(bo.exhausted());
        assert_eq!(bo.attempts_used(), 3);
    }

    #[test]
    fn advice_is_deterministic_and_grows() {
        let mk = |attempt: u32| Backoff {
            class: RetryClass::Stage,
            max_attempts: 8,
            seed: 42,
            attempt,
        };
        assert_eq!(mk(0).advice_units(), mk(0).advice_units());
        // Exponential floor: attempt k's advice is at least 2^(k+5).
        for k in 0..8 {
            let a = mk(k).advice_units();
            assert!(a >= 1 << (k + 5), "attempt {k}: advice {a}");
            assert!(a < 1 << (k + 6), "attempt {k}: advice {a}");
        }
        // Different seeds jitter differently (fixed seeds, deterministic).
        let other = Backoff { seed: 43, ..mk(0) };
        assert_ne!(other.advice_units(), mk(0).advice_units());
    }

    #[test]
    fn splitmix_matches_known_sequence() {
        // Pin the hash: fault decisions, executor schedules, and jitter all
        // depend on these exact values staying put.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(1), 0x910A_2DEC_8902_5CC1);
    }
}
