//! Counters and log2-bucketed histograms in a global sharded registry.
//!
//! Handles are `&'static` after first lookup; the `counter!` /
//! `histogram!` macros cache the lookup in a per-call-site `OnceLock`,
//! so steady-state cost is one relaxed atomic op per update. Hot loops
//! (e.g. loser-tree comparisons) should still batch locally and flush
//! once per phase — the registry is for aggregation, not for per-element
//! traffic.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};

/// A monotonic event counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Add `n` occurrences.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one occurrence.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Number of histogram buckets: bucket 0 holds exact zeros, bucket `i`
/// (1 ≤ i ≤ 64) holds values in `[2^(i-1), 2^i)`.
const BUCKETS: usize = 65;

/// A histogram over `u64` samples with power-of-two bucket boundaries.
///
/// The boundaries are exact: a sample of `2^k` lands in the bucket whose
/// inclusive lower bound is `2^k`, and `2^k - 1` lands one bucket below.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// Bucket index for a sample: 0 for 0, else `floor(log2(v)) + 1`.
pub fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Inclusive `(lo, hi)` sample range covered by bucket `index`.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    match index {
        0 => (0, 0),
        64 => (1 << 63, u64::MAX),
        i => (1 << (i - 1), (1 << i) - 1),
    }
}

impl Histogram {
    /// Record one sample.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Record `n` samples of the same value.
    pub fn record_n(&self, value: u64, n: u64) {
        self.buckets[bucket_index(value)].fetch_add(n, Ordering::Relaxed);
        self.count.fetch_add(n, Ordering::Relaxed);
        self.sum.fetch_add(value.wrapping_mul(n), Ordering::Relaxed);
    }

    /// Record a batch of samples with one atomic flush per non-empty
    /// bucket instead of three atomics per sample. Hot loops that produce
    /// many samples per phase (e.g. per-bucket element counts) should use
    /// this to stay inside the telemetry overhead budget.
    pub fn record_iter<I: IntoIterator<Item = u64>>(&self, values: I) {
        let mut local = [0u64; BUCKETS];
        let mut count = 0u64;
        let mut sum = 0u64;
        for v in values {
            local[bucket_index(v)] += 1;
            count += 1;
            sum = sum.wrapping_add(v);
        }
        if count == 0 {
            return;
        }
        for (i, &c) in local.iter().enumerate() {
            if c > 0 {
                self.buckets[i].fetch_add(c, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(count, Ordering::Relaxed);
        self.sum.fetch_add(sum, Ordering::Relaxed);
    }

    /// Total number of samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Occupancy of bucket `index`.
    pub fn bucket(&self, index: usize) -> u64 {
        self.buckets[index].load(Ordering::Relaxed)
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
    }

    /// Point-in-time copy of this histogram under `name` (non-empty
    /// buckets only).
    pub fn snapshot(&self, name: &str) -> HistogramSnapshot {
        let buckets = (0..BUCKETS)
            .filter_map(|i| {
                let count = self.bucket(i);
                (count > 0).then(|| {
                    let (lo, hi) = bucket_bounds(i);
                    BucketCount { lo, hi, count }
                })
            })
            .collect();
        HistogramSnapshot {
            name: name.to_string(),
            count: self.count(),
            sum: self.sum(),
            buckets,
        }
    }
}

/// One non-empty histogram bucket in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BucketCount {
    /// Inclusive lower sample bound.
    pub lo: u64,
    /// Inclusive upper sample bound.
    pub hi: u64,
    /// Number of samples that fell in `[lo, hi]`.
    pub count: u64,
}

/// Point-in-time value of a named counter.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Registry name, e.g. `core.kernels.radix_sorts`.
    pub name: String,
    /// Total at snapshot time.
    pub value: u64,
}

/// Point-in-time state of a named histogram (empty buckets omitted).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Registry name, e.g. `scratchpad.transfer_bytes`.
    pub name: String,
    /// Total number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Non-empty buckets in ascending range order.
    pub buckets: Vec<BucketCount>,
}

impl HistogramSnapshot {
    /// Mean sample value, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

const SHARDS: usize = 16;

#[derive(Default)]
struct Shard {
    counters: RwLock<HashMap<String, Arc<Counter>>>,
    histograms: RwLock<HashMap<String, Arc<Histogram>>>,
}

/// Global sharded registry of named counters and histograms.
///
/// Sharding (by name hash) keeps first-time registration from serializing
/// across threads; steady-state updates never touch the registry because
/// callers hold `Arc` handles.
#[derive(Default)]
pub struct Registry {
    shards: [Shard; SHARDS],
}

fn shard_of(name: &str) -> usize {
    // FNV-1a; stable across runs so shard assignment is deterministic.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in name.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    (hash as usize) % SHARDS
}

impl Registry {
    /// Get or create the counter registered under `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let shard = &self.shards[shard_of(name)];
        if let Some(c) = shard.counters.read().get(name) {
            return Arc::clone(c);
        }
        Arc::clone(shard.counters.write().entry(name.to_string()).or_default())
    }

    /// Get or create the histogram registered under `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let shard = &self.shards[shard_of(name)];
        if let Some(h) = shard.histograms.read().get(name) {
            return Arc::clone(h);
        }
        Arc::clone(
            shard
                .histograms
                .write()
                .entry(name.to_string())
                .or_default(),
        )
    }

    /// Snapshot every counter with a non-zero total, sorted by name.
    pub fn counter_snapshots(&self) -> Vec<CounterSnapshot> {
        let mut out: Vec<CounterSnapshot> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.counters
                    .read()
                    .iter()
                    .filter(|(_, c)| c.get() > 0)
                    .map(|(name, c)| CounterSnapshot {
                        name: name.clone(),
                        value: c.get(),
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Snapshot every histogram with at least one sample, sorted by name.
    pub fn histogram_snapshots(&self) -> Vec<HistogramSnapshot> {
        let mut out: Vec<HistogramSnapshot> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.histograms
                    .read()
                    .iter()
                    .filter(|(_, h)| h.count() > 0)
                    .map(|(name, h)| h.snapshot(name))
                    .collect::<Vec<_>>()
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Zero every counter and histogram (handles stay valid).
    pub fn reset(&self) {
        for shard in &self.shards {
            for c in shard.counters.read().values() {
                c.reset();
            }
            for h in shard.histograms.read().values() {
                h.reset();
            }
        }
    }
}

/// The process-wide [`Registry`].
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// Fetch (and cache at the call site) the counter named `$name`.
///
/// `counter!("core.kernels.radix_sorts").incr();`
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Counter>> =
            ::std::sync::OnceLock::new();
        HANDLE
            .get_or_init(|| $crate::registry().counter($name))
            .as_ref()
    }};
}

/// Fetch (and cache at the call site) the histogram named `$name`.
///
/// `histogram!("scratchpad.transfer_bytes").record(len_bytes);`
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
            ::std::sync::OnceLock::new();
        HANDLE
            .get_or_init(|| $crate::registry().histogram($name))
            .as_ref()
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_exact_at_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        for k in 1..63 {
            let p = 1u64 << k;
            assert_eq!(bucket_index(p), k as usize + 1, "2^{k}");
            assert_eq!(bucket_index(p - 1), k as usize, "2^{k} - 1");
            assert_eq!(bucket_index(p + 1), k as usize + 1, "2^{k} + 1");
        }
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn bucket_bounds_partition_the_domain() {
        assert_eq!(bucket_bounds(0), (0, 0));
        let mut expected_lo = 1u64;
        for i in 1..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(lo, expected_lo);
            assert!(hi >= lo);
            // Every bound maps back to its own bucket.
            assert_eq!(bucket_index(lo), i);
            assert_eq!(bucket_index(hi), i);
            expected_lo = hi.wrapping_add(1);
        }
        assert_eq!(expected_lo, 0); // wrapped past u64::MAX: full coverage
    }

    #[test]
    fn histogram_snapshot_reflects_samples() {
        let h = Histogram::default();
        h.record(0);
        h.record(1);
        h.record(16);
        h.record_n(17, 3);
        let snap = h.snapshot("t");
        assert_eq!(snap.count, 6);
        assert_eq!(snap.sum, 1 + 16 + 3 * 17); // the 0 sample adds nothing
        assert_eq!(
            snap.buckets,
            vec![
                BucketCount {
                    lo: 0,
                    hi: 0,
                    count: 1
                },
                BucketCount {
                    lo: 1,
                    hi: 1,
                    count: 1
                },
                BucketCount {
                    lo: 16,
                    hi: 31,
                    count: 4
                },
            ]
        );
    }

    #[test]
    fn record_iter_matches_individual_records() {
        let batched = Histogram::default();
        let single = Histogram::default();
        let samples = [0u64, 1, 1, 7, 8, 1024, 1025, u64::MAX];
        batched.record_iter(samples.iter().copied());
        for &v in &samples {
            single.record(v);
        }
        assert_eq!(batched.snapshot("b").buckets, single.snapshot("s").buckets);
        assert_eq!(batched.count(), single.count());
        assert_eq!(batched.sum(), single.sum());
        batched.record_iter(std::iter::empty());
        assert_eq!(batched.count(), samples.len() as u64);
    }

    #[test]
    fn registry_returns_same_handle() {
        let a = registry().counter("t.metrics.same");
        let b = registry().counter("t.metrics.same");
        assert!(Arc::ptr_eq(&a, &b));
        a.add(2);
        assert_eq!(b.get(), 2);
    }

    #[test]
    fn macros_cache_and_accumulate() {
        for _ in 0..3 {
            counter!("t.metrics.macro").incr();
            histogram!("t.metrics.macro_h").record(8);
        }
        assert!(registry().counter("t.metrics.macro").get() >= 3);
        assert!(registry().histogram("t.metrics.macro_h").count() >= 3);
    }
}
