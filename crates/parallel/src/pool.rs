//! A persistent thread pool for fire-and-forget jobs.

use crossbeam::channel::{self, Sender};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size pool of worker threads executing `'static` jobs.
///
/// Jobs are dispatched through an unbounded channel. Dropping the pool
/// closes the channel and joins all workers (after letting queued jobs
/// drain).
///
/// The experiment sweeps and the optimizers use the scoped
/// [`crate::par_map`] family instead (it can borrow from the caller); the
/// pool's one user is the service's front door, whose workers each serve
/// one connection for as long as it stays open.
pub struct ThreadPool {
    sender: Option<Sender<Job>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ThreadPool {
    /// Creates a pool with `threads` workers (at least one).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let (sender, receiver) = channel::unbounded::<Job>();
        let workers = (0..threads)
            .map(|idx| {
                let receiver = receiver.clone();
                std::thread::Builder::new()
                    .name(format!("haste-pool-{idx}"))
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
