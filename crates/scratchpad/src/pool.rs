//! Sized scoped worker pool for real host fan-out.
//!
//! Every sorter config carries `threads: usize`, and every fan-out site
//! routes through this module: a per-region [`std::thread::scope`] pool of
//! `min(threads, tasks)` workers claiming tasks through an atomic cursor.
//! The pool lives in this crate, the lowest one that fans out, so the
//! sorters (`tlmm-core`, which re-exports it) and the discrete-event
//! replay (`tlmm-memsim`) share one mechanism and one nesting rule.
//!
//! Regions do not nest. A fan-out called from inside a pool worker (an
//! SPMS group sort fanning out its own bucket merges, or a DES replay
//! called from a parallel sweep) runs inline on that worker, so one
//! region never holds more than `threads` live threads; the outer
//! region's dynamic claiming already keeps every worker busy.
//!
//! Dynamic claiming (rather than static partitioning) keeps skewed task
//! sets — oversized NMsort buckets, unbalanced oblivious recursions, a
//! DES trace whose merge phase dwarfs its sample phase — from idling
//! workers behind one long task.
//!
//! The pool performs **no simulated charging**: charges are attributed to
//! virtual lanes by the callers exactly as in sequential execution, which
//! is what keeps `CostSnapshot` ledgers byte-identical across thread
//! counts (asserted by every engine's `*_charge_identically` test and by
//! `parallel_bench` in-binary).

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    /// Set on pool workers: a nested fan-out runs inline instead of
    /// spawning a second region.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Host threads available to a default config: `available_parallelism()`,
/// or 1 when the runtime cannot tell.
pub fn host_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Run `f(i, item)` for every item of `items`, fanning out over at most
/// `threads` scoped host threads. `threads <= 1`, fewer than two items, or
/// a call from inside a pool worker runs inline on the caller — bit-for-bit
/// the sequential execution.
///
/// Panics in a worker propagate to the caller when the scope joins.
pub fn run_indexed<T, F>(threads: usize, items: Vec<T>, f: F)
where
    T: Send,
    F: Fn(usize, T) + Sync,
{
    map_indexed(threads, items, f);
}

/// Like [`run_indexed`] but collects each task's result in input order.
pub fn map_indexed<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let workers = threads.max(1).min(n);
    if workers <= 1 || IN_POOL.with(Cell::get) {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }
    // Task slots: each worker claims the next index from the cursor and
    // takes ownership of that slot's item. The mutexes are uncontended by
    // construction (one claimant per index) — they exist to move `T` out
    // of the shared vector safely.
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let out: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                IN_POOL.with(|p| p.set(true));
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = slots[i]
                        .lock()
                        .expect("pool slot poisoned")
                        .take()
                        .expect("pool task claimed twice");
                    *out[i].lock().expect("pool result slot poisoned") = Some(f(i, item));
                }
            });
        }
    });
    out.into_iter()
        .map(|m| {
            m.into_inner()
                .expect("pool result slot poisoned")
                .expect("pool task not executed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn map_preserves_input_order() {
        for threads in [1usize, 2, 3, 8] {
            let items: Vec<usize> = (0..257).collect();
            let out = map_indexed(threads, items, |i, x| {
                assert_eq!(i, x);
                x * 3
            });
            assert_eq!(out, (0..257).map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let count = AtomicU64::new(0);
        run_indexed(4, (0..1000).collect::<Vec<u32>>(), |_, _| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn sequential_when_single_thread() {
        let ids = Mutex::new(HashSet::new());
        run_indexed(1, (0..64).collect::<Vec<u32>>(), |_, _| {
            ids.lock().unwrap().insert(std::thread::current().id());
        });
        let ids = ids.into_inner().unwrap();
        assert_eq!(ids.len(), 1);
        assert!(ids.contains(&std::thread::current().id()));
    }

    #[test]
    fn fans_out_when_host_has_cores() {
        let ids = Mutex::new(HashSet::new());
        // Each task sleeps, releasing the CPU so another worker can claim
        // the next slot — on a single-core host instant tasks could all be
        // drained by whichever worker starts first.
        run_indexed(4, (0..64).collect::<Vec<u32>>(), |_, _| {
            ids.lock().unwrap().insert(std::thread::current().id());
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        let ids = ids.into_inner().unwrap();
        assert!(
            ids.len() > 1,
            "expected multiple workers, saw {}",
            ids.len()
        );
        assert!(ids.len() <= 4);
    }

    #[test]
    fn nested_regions_run_inline_on_the_calling_worker() {
        // Every nested task must run on the worker that called the inner
        // region, so the whole region never exceeds `threads` host threads.
        let threads = 3;
        let all = Mutex::new(HashSet::new());
        let mismatches = AtomicU64::new(0);
        run_indexed(threads, (0..24).collect::<Vec<u32>>(), |_, _| {
            let outer = std::thread::current().id();
            all.lock().unwrap().insert(outer);
            run_indexed(threads, (0..8).collect::<Vec<u32>>(), |_, _| {
                let inner = std::thread::current().id();
                all.lock().unwrap().insert(inner);
                if inner != outer {
                    mismatches.fetch_add(1, Ordering::Relaxed);
                }
            });
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        assert_eq!(mismatches.load(Ordering::Relaxed), 0);
        let all = all.into_inner().unwrap();
        assert!(all.len() <= threads, "saw {} threads", all.len());
        assert!(!all.contains(&std::thread::current().id()));
        // The caller itself is not a worker: its next region fans out again.
        let ids = Mutex::new(HashSet::new());
        run_indexed(threads, (0..32).collect::<Vec<u32>>(), |_, _| {
            ids.lock().unwrap().insert(std::thread::current().id());
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        let ids = ids.into_inner().unwrap();
        assert!(!ids.contains(&std::thread::current().id()));
    }

    #[test]
    fn mutable_borrows_fan_out() {
        let mut data = vec![0u64; 1024];
        let chunks: Vec<&mut [u64]> = data.chunks_mut(100).collect();
        run_indexed(3, chunks, |i, c| {
            for x in c.iter_mut() {
                *x = i as u64;
            }
        });
        for (i, x) in data.iter().enumerate() {
            assert_eq!(*x, (i / 100) as u64);
        }
    }
}
