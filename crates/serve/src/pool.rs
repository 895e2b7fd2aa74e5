//! Bounded worker pool on plain `std::thread` + `Mutex`/`Condvar`.
//!
//! [`WorkerPool::submit`] enqueues a closure onto a bounded MPMC queue and
//! returns a [`JobHandle`] that resolves to the closure's return value.
//! When the queue is full, `submit` **blocks** — backpressure propagates to
//! producers instead of queueing unboundedly. Dropping the pool performs a
//! graceful shutdown: already-queued jobs still run, then workers exit and
//! are joined. A job that panics takes down neither its worker thread nor
//! the pool: the worker catches the unwind and moves on to the next job.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Queue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    in_flight: AtomicUsize,
    submitted: AtomicU64,
    completed: AtomicU64,
}

/// Pool counters, as reported by `/stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PoolStats {
    /// Worker threads.
    pub workers: usize,
    /// Jobs waiting in the queue right now.
    pub queue_depth: usize,
    /// Jobs currently executing on a worker.
    pub in_flight: usize,
    /// Jobs ever submitted.
    pub submitted: u64,
    /// Jobs that finished executing.
    pub completed: u64,
}

/// The result slot a submitted job fills in.
struct Slot<T> {
    value: Mutex<Option<T>>,
    done: Condvar,
}

/// Handle to one submitted job; resolves to the closure's return value.
pub struct JobHandle<T> {
    slot: Arc<Slot<T>>,
}

impl<T> JobHandle<T> {
    /// Blocks until the job completes and takes its result.
    ///
    /// # Panics
    ///
    /// Panics if the job itself panicked on a worker (the worker survives;
    /// only this handle's result is lost). Jobs that must always answer
    /// catch their own panics, as `EvalService::handle_line` does.
    pub fn wait(self) -> T {
        let mut guard = self
            .slot
            .value
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            if let Some(v) = guard.take() {
                return v;
            }
            if Arc::strong_count(&self.slot) == 1 {
                // The worker side was dropped without storing a value: the
                // job panicked.
                panic!("worker pool job panicked before producing a result");
            }
            let (g, _timeout) = self
                .slot
                .done
                .wait_timeout(guard, std::time::Duration::from_millis(50))
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            guard = g;
        }
    }

    /// True once the result is available (non-blocking).
    pub fn is_ready(&self) -> bool {
        self.slot
            .value
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .is_some()
    }
}

/// A fixed-size pool of worker threads draining a bounded job queue.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// A pool with `threads` workers and room for `queue_capacity` queued
    /// jobs (both clamped to at least 1).
    pub fn new(threads: usize, queue_capacity: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: queue_capacity.max(1),
            in_flight: AtomicUsize::new(0),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ulm-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// Enqueues a job, blocking while the queue is at capacity.
    pub fn submit<T, F>(&self, f: F) -> JobHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let slot = Arc::new(Slot {
            value: Mutex::new(None),
            done: Condvar::new(),
        });
        let worker_slot = Arc::clone(&slot);
        let shared = Arc::clone(&self.shared);
        let job: Job = Box::new(move || {
            let out = f();
            // Count completion *before* publishing the value: a waiter that
            // observes the result must also observe the counter increment,
            // so `stats()` right after `wait()` never under-reports.
            shared.completed.fetch_add(1, Ordering::Relaxed);
            *worker_slot
                .value
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(out);
            worker_slot.done.notify_all();
        });

        let mut queue = self
            .shared
            .queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        while queue.jobs.len() >= self.shared.capacity {
            queue = self
                .shared
                .not_full
                .wait(queue)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        queue.jobs.push_back(job);
        self.shared.submitted.fetch_add(1, Ordering::Relaxed);
        drop(queue);
        self.shared.not_empty.notify_one();
        JobHandle { slot }
    }

    /// Jobs waiting in the queue (not yet started).
    fn queue_depth(&self) -> usize {
        self.shared
            .queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .jobs
            .len()
    }

    /// Worker-thread count.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Queued-job capacity: how many submissions fit before
    /// [`submit`](WorkerPool::submit) blocks.
    pub fn queue_capacity(&self) -> usize {
        self.shared.capacity
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            workers: self.workers.len(),
            queue_depth: self.queue_depth(),
            in_flight: self.shared.in_flight.load(Ordering::Relaxed),
            submitted: self.shared.submitted.load(Ordering::Relaxed),
            completed: self.shared.completed.load(Ordering::Relaxed),
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut queue = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            queue.shutdown = true;
        }
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
        for worker in self.workers.drain(..) {
            // A job that dropped the pool's last owner runs on a worker,
            // which cannot join itself; it exits once that job returns.
            if worker.thread().id() == std::thread::current().id() {
                continue;
            }
            // Graceful: workers drain remaining queued jobs before exiting.
            let _ = worker.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared
                .queue
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    break job;
                }
                if queue.shutdown {
                    return;
                }
                queue = shared
                    .not_empty
                    .wait(queue)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        shared.not_full.notify_one();
        shared.in_flight.fetch_add(1, Ordering::Relaxed);
        // A panicking job drops its result slot while unwinding, which is
        // how its handle learns of the panic; the worker itself lives on.
        // The queue lock is not held here, so nothing shared is left
        // half-updated.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
        shared.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    #[test]
    fn results_come_back_in_any_order() {
        let pool = WorkerPool::new(4, 8);
        let handles: Vec<_> = (0..20u64).map(|i| pool.submit(move || i * i)).collect();
        let results: Vec<u64> = handles.into_iter().map(JobHandle::wait).collect();
        assert_eq!(results, (0..20u64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn backpressure_blocks_submit() {
        let pool = WorkerPool::new(1, 1);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        // Occupy the single worker until the gate opens.
        let g = Arc::clone(&gate);
        let blocker = pool.submit(move || {
            let (lock, cv) = &*g;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
        });
        // Fill the 1-slot queue.
        let queued = pool.submit(|| 1u64);
        // A further submit must block until the worker frees a slot; do it
        // from another thread and verify it has not finished early.
        let pool = Arc::new(pool);
        let p = Arc::clone(&pool);
        let t = std::thread::spawn(move || p.submit(|| 2u64).wait());
        std::thread::sleep(Duration::from_millis(50));
        assert!(!t.is_finished(), "submit should block while queue is full");
        assert_eq!(pool.queue_depth(), 1);
        // Open the gate; everything drains.
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        blocker.wait();
        assert_eq!(queued.wait(), 1);
        assert_eq!(t.join().unwrap(), 2);
    }

    #[test]
    fn drop_runs_queued_jobs_to_completion() {
        let counter = Arc::new(AtomicU64::new(0));
        {
            let pool = WorkerPool::new(2, 64);
            for _ in 0..50 {
                let c = Arc::clone(&counter);
                // Handles intentionally dropped: jobs must still run.
                let _ = pool.submit(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
        } // Drop joins workers after the queue drains.
        assert_eq!(counter.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn a_job_may_drop_the_last_owner_of_its_pool() {
        let pool = Arc::new(WorkerPool::new(1, 64));
        let (drop_tx, drop_now) = std::sync::mpsc::channel::<()>();
        let owner = Arc::clone(&pool);
        let dropper = pool.submit(move || {
            drop_now.recv().unwrap();
            drop(owner);
            7u64
        });
        let counter = Arc::new(AtomicU64::new(0));
        let queued: Vec<_> = (0..20)
            .map(|_| {
                let c = Arc::clone(&counter);
                pool.submit(move || c.fetch_add(1, Ordering::Relaxed))
            })
            .collect();
        drop(pool);
        drop_tx.send(()).unwrap();
        // A worker joining itself would panic inside the job, and its
        // handle would then panic too instead of answering.
        assert_eq!(dropper.wait(), 7);
        for h in queued {
            h.wait();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 20);
    }

    #[test]
    fn stats_track_submission_lifecycle() {
        let pool = WorkerPool::new(2, 16);
        let handles: Vec<_> = (0..10u64).map(|i| pool.submit(move || i)).collect();
        for h in handles {
            h.wait();
        }
        let s = pool.stats();
        assert_eq!(s.submitted, 10);
        assert_eq!(s.completed, 10);
        assert_eq!(s.workers, 2);
        assert_eq!(s.queue_depth, 0);
    }

    #[test]
    fn panicking_jobs_leave_every_worker_alive() {
        let workers = 2;
        let pool = WorkerPool::new(workers, 8);
        // One more panic than there are workers: if a panic killed its
        // worker, nothing would be left to run the job queued after them.
        let panicked: Vec<_> = (0..=workers)
            .map(|i| pool.submit(move || -> u64 { panic!("injected panic {i}") }))
            .collect();
        let h = pool.submit(|| 7u64);
        for _ in 0..2000 {
            if h.is_ready() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(h.is_ready(), "the pool stopped answering after panics");
        assert_eq!(h.wait(), 7);
        for p in panicked {
            let waited = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.wait()));
            assert!(waited.is_err(), "a panicked job has no result");
        }
        let s = pool.stats();
        assert_eq!((s.submitted, s.completed), (4, 1));
    }

    #[test]
    fn is_ready_flips_after_completion() {
        let pool = WorkerPool::new(1, 4);
        let h = pool.submit(|| 5u64);
        // Wait (bounded) for readiness.
        for _ in 0..200 {
            if h.is_ready() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(h.is_ready());
        assert_eq!(h.wait(), 5);
    }
}
