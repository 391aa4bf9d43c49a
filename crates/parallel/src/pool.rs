//! A persistent thread pool for fire-and-forget jobs and fan-outs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use crossbeam::channel::{self, Sender};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size pool of worker threads executing `'static` jobs.
///
/// Jobs are dispatched through an unbounded channel. Dropping the pool
/// closes the channel and joins all workers (after letting queued jobs
/// drain).
///
/// The experiment sweeps and the optimizers use the scoped
/// [`crate::par_map`] family instead (it can borrow from the caller). The
/// pool has two users in the service: the front door, whose workers each
/// serve one connection for as long as it stays open, and the router,
/// whose per-fleet workers stay parked between [`fan_out`]s, so a `TICK`
/// starts no thread.
///
/// [`fan_out`]: ThreadPool::fan_out
pub struct ThreadPool {
    sender: Option<Sender<Job>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ThreadPool {
    /// Creates a pool with `threads` workers (at least one), named
    /// `haste-pool-<index>`.
    pub fn new(threads: usize) -> Self {
        Self::named("haste-pool", threads)
    }

    /// Creates a pool with `threads` workers (at least one), named
    /// `<name>-<index>` (Linux shows the first 15 bytes of a thread name).
    pub fn named(name: &str, threads: usize) -> Self {
        let threads = threads.max(1);
        let (sender, receiver) = channel::unbounded::<Job>();
        let workers = (0..threads)
            .map(|idx| {
                let receiver = receiver.clone();
                std::thread::Builder::new()
                    .name(format!("{name}-{idx}"))
                    .spawn(move || {
                        for job in receiver.iter() {
                            job();
                        }
                    })
                    .expect("failed to spawn pool worker")
            })
            .collect();
        ThreadPool {
            sender: Some(sender),
            workers,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Submits a job for execution.
    pub fn execute<F>(&self, job: F)
    where
        F: FnOnce() + Send + 'static,
    {
        self.sender
            .as_ref()
            .expect("pool is live while not dropped")
            .send(Box::new(job))
            .expect("workers outlive the sender");
    }

    /// Applies `f` to every item and returns the results in item order:
    /// item 0 on the calling thread, the others as jobs on this pool's
    /// workers, all at once, so the call returns when the slowest is
    /// done. A call of `f` that panics yields `Err` with its panic
    /// payload at its index; the worker that ran it keeps serving. When
    /// this returns, no worker holds an item any more.
    pub fn fan_out<T, R, F>(&self, items: &[Arc<T>], f: F) -> Vec<std::thread::Result<R>>
    where
        T: Send + Sync + 'static,
        R: Send + 'static,
        F: Fn(&T) -> R + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        let (done, results) = channel::unbounded();
        for (index, item) in items.iter().enumerate().skip(1) {
            let (f, item, done) = (Arc::clone(&f), Arc::clone(item), done.clone());
            self.execute(move || {
                let result = catch_unwind(AssertUnwindSafe(|| f(&item)));
                drop(item);
                // The caller waits for every index, so it is listening.
                let _ = done.send((index, result));
            });
        }
        drop(done);
        let mut out: Vec<Option<std::thread::Result<R>>> = (0..items.len()).map(|_| None).collect();
        if let (Some(first), Some(slot)) = (items.first(), out.first_mut()) {
            *slot = Some(catch_unwind(AssertUnwindSafe(|| f(first))));
        }
        for (index, result) in results {
            out[index] = Some(result);
        }
        out.into_iter()
            .map(|result| result.expect("every job answers once"))
            .collect()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Closing the channel lets workers drain the queue and exit.
        self.sender.take();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn executes_all_jobs() {
        let counter = Arc::new(AtomicU64::new(0));
        let pool = ThreadPool::new(4);
        for _ in 0..100 {
            let counter = Arc::clone(&counter);
            pool.execute(move || {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        drop(pool);
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn drop_drains_queue() {
        let counter = Arc::new(AtomicU64::new(0));
        {
            let pool = ThreadPool::new(2);
            for _ in 0..50 {
                let counter = Arc::clone(&counter);
                pool.execute(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        } // drop joins
        assert_eq!(counter.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn an_idle_pool_drops() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.threads(), 1);
        drop(pool);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.threads(), 1);
    }

    #[test]
    fn workers_carry_the_pool_name() {
        let pool = ThreadPool::named("haste-test", 2);
        let (done, names) = channel::unbounded::<Option<String>>();
        for _ in 0..2 {
            let done = done.clone();
            pool.execute(move || {
                done.send(std::thread::current().name().map(str::to_string))
                    .unwrap()
            });
        }
        for _ in 0..2 {
            assert!(names.recv().unwrap().unwrap().starts_with("haste-test-"));
        }
    }

    #[test]
    fn fan_out_returns_results_in_item_order() {
        let pool = ThreadPool::named("haste-fanout", 3);
        let items: Vec<Arc<u64>> = (0..4).map(Arc::new).collect();
        let caller = std::thread::current().id();
        let out = pool.fan_out(&items, move |&x| (x * 10, std::thread::current().id()));
        let values: Vec<u64> = out.iter().map(|r| r.as_ref().unwrap().0).collect();
        assert_eq!(values, vec![0, 10, 20, 30]);
        // Item 0 runs on the caller, every other item on a worker.
        assert_eq!(out[0].as_ref().unwrap().1, caller);
        assert!(out[1..].iter().all(|r| r.as_ref().unwrap().1 != caller));
        // Every Arc the jobs took is back.
        assert!(items.iter().all(|item| Arc::strong_count(item) == 1));
        assert!(pool.fan_out(&Vec::<Arc<u64>>::new(), |&x| x).is_empty());
    }

    #[test]
    fn a_panicking_fan_out_job_errs_at_its_index_and_the_workers_keep_serving() {
        let pool = ThreadPool::named("haste-fanout", 2);
        let items: Vec<Arc<u64>> = (0..3).map(Arc::new).collect();
        for panicking in 0..3u64 {
            let out = pool.fan_out(&items, move |&x| {
                if x == panicking {
                    panic!("job {x} fails");
                }
                x + 1
            });
            for (x, result) in out.into_iter().enumerate() {
                if x as u64 == panicking {
                    let payload = result.unwrap_err();
                    assert_eq!(
                        payload.downcast_ref::<String>().map(String::as_str),
                        Some(format!("job {x} fails").as_str())
                    );
                } else {
                    assert_eq!(result.unwrap(), x as u64 + 1);
                }
            }
            // The next fan-out on the same workers completes.
            let again: Vec<u64> = pool
                .fan_out(&items, |&x| x * 2)
                .into_iter()
                .map(Result::unwrap)
                .collect();
            assert_eq!(again, vec![0, 2, 4]);
        }
        assert_eq!(pool.threads(), 2);
    }

    #[test]
    fn reusable_across_batches() {
        let pool = ThreadPool::new(3);
        let (done, finished) = channel::unbounded::<usize>();
        for round in 0..5 {
            for _ in 0..20 {
                let done = done.clone();
                pool.execute(move || done.send(round).unwrap());
            }
            // Every job of this batch ran before the next is submitted.
            for _ in 0..20 {
                assert_eq!(finished.recv().unwrap(), round);
            }
        }
        drop(pool);
        drop(done);
        assert_eq!(finished.iter().count(), 0);
    }
}
