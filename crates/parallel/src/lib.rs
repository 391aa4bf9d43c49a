//! Minimal parallel-execution substrate for the HASTE experiment harness.
//!
//! The simulation sweeps evaluate hundreds of independent random topologies
//! per figure; this crate provides the small amount of machinery needed to
//! spread that work across cores:
//!
//! * [`par_map`] / [`par_map_range`] — scoped parallel map over a slice or
//!   an index range (atomic index claiming, results returned in input
//!   order, worker panics propagate),
//! * [`par_reduce_range`] — parallel fold over an index range with an
//!   associative, commutative combine (the optimizers' argmax scans),
//! * [`ThreadPool`] — a persistent pool for fire-and-forget jobs,
//! * [`default_threads`] — the machine's available parallelism.
//!
//! Rayon is the obvious off-the-shelf answer, but it is outside this
//! project's dependency allowlist; the subset needed here is small enough to
//! build safely on `std::thread::scope` + `crossbeam` channels.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pool;

pub use pool::ThreadPool;

use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of worker threads to use by default: the machine's available
/// parallelism, or 1 if it cannot be determined.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolves a user-facing `threads` knob: `0` means "auto-detect via
/// [`default_threads`]", any other value is taken literally.
///
/// Every `threads` field in the workspace (`GreedyOptions`, `TabularOptions`,
/// `InstanceOptions`, `OfflineConfig`, `OnlineConfig`, the service daemon)
/// shares this convention, so `0` behaves identically everywhere. All
/// parallel paths are bit-deterministic in the thread count, so auto-detect
/// never changes results — only wall-clock.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        default_threads()
    } else {
        requested
    }
}

/// Applies `f` to every element of `items` in parallel and returns the
/// results in input order: [`par_map_range`] over the indices, so `f`
/// receives `(index, &item)`.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_range(items.len(), threads, |i| f(i, &items[i]))
}

/// Applies `f` to every index in `0..n` in parallel and returns the results
/// in index order. The optimizers use it to scan candidate ranges.
///
/// Work is claimed index by index via an atomic counter, so uneven
/// per-index cost balances automatically. With `threads <= 1` (or a single
/// index) the map runs inline on the caller's thread. If any invocation of
/// `f` panics, the panic propagates to the caller once all workers have
/// stopped.
pub fn par_map_range<R, F>(n: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, n);
    if threads == 1 {
        return (0..n).map(f).collect();
    }
    let counter = AtomicUsize::new(0);
    let (tx, rx) = crossbeam::channel::unbounded::<(usize, R)>();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let counter = &counter;
            let f = &f;
            scope.spawn(move || loop {
                let i = counter.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // The receiver sits below in the same scope; send only
                // fails if collection stopped early, in which case stopping
                // the worker is the right thing to do anyway.
                if tx.send((i, f(i))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for (i, r) in rx {
            out[i] = Some(r);
        }
        out.into_iter()
            .map(|slot| slot.expect("every index sent exactly once"))
            .collect()
    })
}

/// Parallel fold of `f(0), …, f(n-1)` with an associative `combine`.
///
/// Each worker folds its claimed indices locally; partials are combined on
/// the calling thread. When `combine` is associative **and commutative**
/// with a true `identity` (e.g. a total-order maximum), the result is
/// bit-identical for every thread count — the property the greedy argmax
/// scans rely on.
pub fn par_reduce_range<R, F, C>(n: usize, threads: usize, identity: R, f: F, combine: C) -> R
where
    R: Send + Clone,
    F: Fn(usize) -> R + Sync,
    C: Fn(R, R) -> R + Sync,
{
    if n == 0 {
        return identity;
    }
    let threads = threads.clamp(1, n);
    if threads == 1 {
        return (0..n).fold(identity, |acc, i| combine(acc, f(i)));
    }
    let counter = AtomicUsize::new(0);
    let partials = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let counter = &counter;
            let f = &f;
            let combine = &combine;
            let local_identity = identity.clone();
            handles.push(scope.spawn(move || {
                let mut acc = local_identity;
                loop {
                    let i = counter.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    acc = combine(acc, f(i));
                }
                acc
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect::<Vec<_>>()
    });
    partials.into_iter().fold(identity, &combine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = par_map(&items, 8, |i, &x| {
            assert_eq!(i as u64, x);
            x * 2
        });
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(&empty, 4, |_, &x| x).is_empty());
        assert_eq!(par_map(&[7u32], 4, |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn par_map_single_thread_inline() {
        let items = vec![1, 2, 3];
        assert_eq!(par_map(&items, 1, |_, &x| x * x), vec![1, 4, 9]);
        assert_eq!(par_map(&items, 0, |_, &x| x * x), vec![1, 4, 9]);
    }

    #[test]
    fn par_map_range_visits_every_index_once() {
        let hits: Vec<AtomicU64> = (0..500).map(|_| AtomicU64::new(0)).collect();
        par_map_range(500, 8, |i| hits[i].fetch_add(1, Ordering::Relaxed));
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_reduce_range_sums() {
        let total = par_reduce_range(1000, 8, 0u64, |i| i as u64 + 1, |a, b| a + b);
        assert_eq!(total, 500_500);
    }

    #[test]
    fn par_reduce_range_empty_returns_identity() {
        let total = par_reduce_range(0, 8, 42u64, |i| i as u64, |a, b| a + b);
        assert_eq!(total, 42);
    }

    #[test]
    #[should_panic]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..64).collect();
        let _ = par_map(&items, 4, |_, &x| {
            if x == 13 {
                panic!("boom");
            }
            x
        });
    }

    #[test]
    fn default_threads_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn resolve_threads_zero_is_auto_detect() {
        assert_eq!(resolve_threads(0), default_threads());
        for n in 1..=8 {
            assert_eq!(resolve_threads(n), n);
        }
    }

    #[test]
    fn uneven_work_completes() {
        let items: Vec<u64> = (0..64).rev().collect();
        let out = par_map(&items, 8, |_, &x| {
            let mut acc = 0u64;
            for i in 0..(x * 1000) {
                acc = acc.wrapping_add(i);
            }
            acc
        });
        assert_eq!(out.len(), 64);
    }
}
