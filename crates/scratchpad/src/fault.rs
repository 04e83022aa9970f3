//! Deterministic fault injection for the two-level runtime.
//!
//! A production two-level memory does not fail cleanly: scratchpad
//! allocations hit transient pressure, far↔near transfers time out or
//! deliver corrupt payloads, and DMA engines abort in-flight issues. The
//! paper's algorithms are *provably correct under any memory regime*
//! (§IV-D falls back to sub-splitting and DRAM-direct merging when buckets
//! outgrow the scratchpad); this module lets tests and benchmarks exercise
//! that robustness deterministically.
//!
//! A [`FaultPlan`] describes *what* may fail (per-operation-class
//! probabilities in permille, plus explicit "fail the k-th op" triggers)
//! and is installed on a [`crate::TwoLevel`] as a [`FaultInjector`] — the
//! runtime consults it on every hooked operation. Decisions are pure
//! functions of `(seed, op class, op index)`: with a sequential execution
//! the fault sequence is exactly reproducible from the seed, and under
//! host parallelism the *multiset* of decisions per class is preserved
//! (only their interleaving varies).
//!
//! Fault semantics are honest about traffic: an injected transfer failure
//! models a payload that moved and was then discarded, so the aborted
//! attempt is still charged to the ledger ([`crate::TwoLevel::ledger`]) — degraded
//! runs can only cost *more* than clean runs, never less. See DESIGN.md §9
//! for the full degradation ladder.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Operation classes a [`FaultPlan`] can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultOp {
    /// A near (scratchpad) allocation — the modified `malloc` of §VI-B.2
    /// under transient pressure.
    NearAlloc,
    /// A bulk DRAM → scratchpad transfer.
    FarToNear,
    /// A bulk scratchpad → DRAM transfer.
    NearToFar,
    /// A far-memory ↔ cache staging stream (run formation, buffer refills).
    FarStage,
    /// A near-memory ↔ cache staging stream.
    NearStage,
    /// A background DMA issue (aborted in flight).
    DmaIssue,
}

impl FaultOp {
    /// Every operation class, in [`Self::index`] order.
    pub const ALL: [FaultOp; 6] = [
        FaultOp::NearAlloc,
        FaultOp::FarToNear,
        FaultOp::NearToFar,
        FaultOp::FarStage,
        FaultOp::NearStage,
        FaultOp::DmaIssue,
    ];

    /// Stable short name (telemetry counters, artifacts).
    pub fn name(self) -> &'static str {
        match self {
            FaultOp::NearAlloc => "near_alloc",
            FaultOp::FarToNear => "far_to_near",
            FaultOp::NearToFar => "near_to_far",
            FaultOp::FarStage => "far_stage",
            FaultOp::NearStage => "near_stage",
            FaultOp::DmaIssue => "dma_issue",
        }
    }

    /// Dense index into per-class counter arrays.
    pub fn index(self) -> usize {
        match self {
            FaultOp::NearAlloc => 0,
            FaultOp::FarToNear => 1,
            FaultOp::NearToFar => 2,
            FaultOp::FarStage => 3,
            FaultOp::NearStage => 4,
            FaultOp::DmaIssue => 5,
        }
    }

    /// Does this class move data (and therefore admit *delay* faults)?
    pub fn is_transfer(self) -> bool {
        !matches!(self, FaultOp::NearAlloc)
    }

    fn fail_permille(self, plan: &FaultPlan) -> u32 {
        match self {
            FaultOp::NearAlloc => plan.near_alloc_fail_permille,
            FaultOp::FarToNear | FaultOp::NearToFar => plan.transfer_fail_permille,
            FaultOp::FarStage | FaultOp::NearStage => plan.stage_fail_permille,
            FaultOp::DmaIssue => plan.dma_abort_permille,
        }
    }
}

/// What happened to an operation the injector examined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The operation failed outright (payload lost, allocation refused,
    /// DMA issue aborted).
    Fail,
    /// The transfer completed but needed a link-level retransmission —
    /// extra traffic, no error surfaced.
    Delay,
}

/// One injected fault, for inspection and artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// The operation class hit.
    pub op: FaultOp,
    /// Fail or delay.
    pub kind: FaultKind,
    /// 0-based index of the operation within its class.
    pub index: u64,
}

/// Environment variable holding the default fault seed; when set,
/// [`FaultPlan::from_env`] returns the mixed-profile plan
/// [`FaultPlan::seeded`] built from it.
pub const FAULT_SEED_ENV: &str = "TLMM_FAULT_SEED";

/// A deterministic description of which operations fail.
///
/// Probabilities are expressed in permille (0–1000). Whether the k-th
/// operation of a class faults is a pure function of
/// `(seed, class, k)` — no global RNG state, no wall clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for the per-operation decision hash.
    pub seed: u64,
    /// Permille chance a [`FaultOp::NearAlloc`] is refused.
    pub near_alloc_fail_permille: u32,
    /// Permille chance a bulk far↔near transfer aborts.
    pub transfer_fail_permille: u32,
    /// Permille chance a cache staging stream aborts.
    pub stage_fail_permille: u32,
    /// Permille chance a transfer-class op is *delayed* (retransmitted)
    /// rather than failed.
    pub transfer_delay_permille: u32,
    /// Permille chance a DMA issue is aborted in flight.
    pub dma_abort_permille: u32,
    /// Explicit `(class, k)` pairs that always fail, independent of the
    /// probabilistic rolls ("fail the k-th `near_alloc`").
    pub fail_nth: Vec<(FaultOp, u64)>,
    /// Upper bound on total *failures* injected (delays excluded); `None`
    /// is unbounded. A budget guarantees overall progress even under
    /// pathological probabilities.
    pub max_faults: Option<u64>,
}

impl FaultPlan {
    /// A plan that never fires (useful as a sweep baseline).
    pub fn none(seed: u64) -> Self {
        Self {
            seed,
            near_alloc_fail_permille: 0,
            transfer_fail_permille: 0,
            stage_fail_permille: 0,
            transfer_delay_permille: 0,
            dma_abort_permille: 0,
            fail_nth: Vec::new(),
            max_faults: None,
        }
    }

    /// The standard mixed fault profile: moderate allocation pressure,
    /// occasional transfer aborts and delays, frequent DMA aborts, with a
    /// progress-guaranteeing budget. This is the profile behind
    /// [`FAULT_SEED_ENV`] and the fault-matrix sweeps.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            near_alloc_fail_permille: 40,
            transfer_fail_permille: 15,
            stage_fail_permille: 5,
            transfer_delay_permille: 10,
            dma_abort_permille: 150,
            fail_nth: Vec::new(),
            max_faults: Some(512),
        }
    }

    /// Build the seeded profile from [`FAULT_SEED_ENV`] if it is set to a
    /// parsable integer.
    pub fn from_env() -> Option<Self> {
        let raw = std::env::var(FAULT_SEED_ENV).ok()?;
        raw.trim().parse::<u64>().ok().map(Self::seeded)
    }

    /// Add an explicit "fail the k-th op of this class" trigger.
    pub fn fail_kth(mut self, op: FaultOp, k: u64) -> Self {
        self.fail_nth.push((op, k));
        self
    }

    /// Does this plan ever fire?
    pub fn is_active(&self) -> bool {
        !self.fail_nth.is_empty()
            || FaultOp::ALL.iter().any(|op| op.fail_permille(self) > 0)
            || self.transfer_delay_permille > 0
    }
}

/// The decision the injector hands back for one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// Execute normally.
    Proceed,
    /// The operation fails; the payload (if any) moved and was lost. The
    /// carried value is the op's 0-based index within its class.
    Fail(u64),
    /// The transfer completes after a retransmission (charge it twice).
    Delay(u64),
}

use crate::backoff::splitmix64;

fn roll(seed: u64, op: FaultOp, k: u64, salt: u64) -> u64 {
    splitmix64(seed ^ splitmix64(((op.index() as u64) << 56) ^ k ^ (salt << 48))) % 1000
}

thread_local! {
    static SUPPRESS_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// Are fault decisions suppressed on this thread (see
/// [`with_faults_suppressed`])?
pub fn faults_suppressed() -> bool {
    SUPPRESS_DEPTH.with(|d| d.get() > 0)
}

/// Run `f` with fault injection disabled on this thread — the last rung of
/// every degradation ladder, guaranteeing forward progress after bounded
/// retries. Nestable.
pub fn with_faults_suppressed<R>(f: impl FnOnce() -> R) -> R {
    SUPPRESS_DEPTH.with(|d| d.set(d.get() + 1));
    let r = f();
    SUPPRESS_DEPTH.with(|d| d.set(d.get() - 1));
    r
}

/// Runtime state of an installed [`FaultPlan`]: per-class operation
/// counters, the injected-fault budget, and an event log.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    op_counts: [AtomicU64; 6],
    injected: AtomicU64,
    delayed: AtomicU64,
    log: Mutex<Vec<FaultEvent>>,
}

impl FaultInjector {
    /// Fresh state for `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            op_counts: Default::default(),
            injected: AtomicU64::new(0),
            delayed: AtomicU64::new(0),
            log: Mutex::new(Vec::new()),
        }
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Decide the fate of the next operation of class `op`, consuming one
    /// index of that class.
    pub fn decide(&self, op: FaultOp) -> FaultDecision {
        let k = self.op_counts[op.index()].fetch_add(1, Ordering::Relaxed);
        let explicit = self.plan.fail_nth.iter().any(|&(o, i)| o == op && i == k);
        let budget_ok = self
            .plan
            .max_faults
            .map(|m| self.injected.load(Ordering::Relaxed) < m)
            .unwrap_or(true);
        if budget_ok
            && (explicit || roll(self.plan.seed, op, k, 1) < op.fail_permille(&self.plan) as u64)
        {
            self.injected.fetch_add(1, Ordering::Relaxed);
            self.log.lock().push(FaultEvent {
                op,
                kind: FaultKind::Fail,
                index: k,
            });
            return FaultDecision::Fail(k);
        }
        if op.is_transfer()
            && roll(self.plan.seed, op, k, 2) < self.plan.transfer_delay_permille as u64
        {
            self.delayed.fetch_add(1, Ordering::Relaxed);
            self.log.lock().push(FaultEvent {
                op,
                kind: FaultKind::Delay,
                index: k,
            });
            return FaultDecision::Delay(k);
        }
        FaultDecision::Proceed
    }

    /// Failures injected so far (delays excluded).
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Delays injected so far.
    pub fn delayed(&self) -> u64 {
        self.delayed.load(Ordering::Relaxed)
    }

    /// Operations of class `op` examined so far.
    pub fn op_count(&self, op: FaultOp) -> u64 {
        self.op_counts[op.index()].load(Ordering::Relaxed)
    }

    /// Snapshot of every injected event, in injection order.
    pub fn events(&self) -> Vec<FaultEvent> {
        self.log.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_in_seed_and_index() {
        let a = FaultInjector::new(FaultPlan::seeded(7));
        let b = FaultInjector::new(FaultPlan::seeded(7));
        let da: Vec<FaultDecision> = (0..500).map(|_| a.decide(FaultOp::FarToNear)).collect();
        let db: Vec<FaultDecision> = (0..500).map(|_| b.decide(FaultOp::FarToNear)).collect();
        assert_eq!(da, db);
        assert_eq!(a.events(), b.events());
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultInjector::new(FaultPlan::seeded(1));
        let b = FaultInjector::new(FaultPlan::seeded(2));
        let da: Vec<FaultDecision> = (0..2000).map(|_| a.decide(FaultOp::NearAlloc)).collect();
        let db: Vec<FaultDecision> = (0..2000).map(|_| b.decide(FaultOp::NearAlloc)).collect();
        assert_ne!(da, db);
    }

    #[test]
    fn explicit_kth_failure_fires() {
        let plan = FaultPlan::none(0).fail_kth(FaultOp::NearAlloc, 2);
        let inj = FaultInjector::new(plan);
        assert_eq!(inj.decide(FaultOp::NearAlloc), FaultDecision::Proceed);
        assert_eq!(inj.decide(FaultOp::NearAlloc), FaultDecision::Proceed);
        assert_eq!(inj.decide(FaultOp::NearAlloc), FaultDecision::Fail(2));
        assert_eq!(inj.decide(FaultOp::NearAlloc), FaultDecision::Proceed);
        assert_eq!(inj.injected(), 1);
        assert_eq!(inj.op_count(FaultOp::NearAlloc), 4);
    }

    #[test]
    fn budget_caps_failures() {
        let mut plan = FaultPlan::seeded(3);
        plan.near_alloc_fail_permille = 1000; // every alloc would fail...
        plan.max_faults = Some(5); // ...but only 5 are allowed
        let inj = FaultInjector::new(plan);
        let fails = (0..100)
            .filter(|_| matches!(inj.decide(FaultOp::NearAlloc), FaultDecision::Fail(_)))
            .count();
        assert_eq!(fails, 5);
    }

    #[test]
    fn probabilities_are_roughly_respected() {
        let mut plan = FaultPlan::none(11);
        plan.transfer_fail_permille = 100; // 10 %
        let inj = FaultInjector::new(plan);
        let fails = (0..10_000)
            .filter(|_| matches!(inj.decide(FaultOp::NearToFar), FaultDecision::Fail(_)))
            .count();
        assert!((500..2_000).contains(&fails), "fails = {fails}");
    }

    #[test]
    fn alloc_class_never_delays() {
        let mut plan = FaultPlan::none(5);
        plan.transfer_delay_permille = 1000;
        let inj = FaultInjector::new(plan);
        for _ in 0..200 {
            assert!(!matches!(
                inj.decide(FaultOp::NearAlloc),
                FaultDecision::Delay(_)
            ));
        }
        assert!(matches!(
            inj.decide(FaultOp::FarToNear),
            FaultDecision::Delay(_)
        ));
    }

    #[test]
    fn suppression_nests() {
        assert!(!faults_suppressed());
        with_faults_suppressed(|| {
            assert!(faults_suppressed());
            with_faults_suppressed(|| assert!(faults_suppressed()));
            assert!(faults_suppressed());
        });
        assert!(!faults_suppressed());
    }

    #[test]
    fn none_plan_is_inactive() {
        assert!(!FaultPlan::none(9).is_active());
        assert!(FaultPlan::seeded(9).is_active());
        assert!(FaultPlan::none(9)
            .fail_kth(FaultOp::DmaIssue, 0)
            .is_active());
    }
}
