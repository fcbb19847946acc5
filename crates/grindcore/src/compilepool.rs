//! A bounded job queue served by N worker threads.
//!
//! Two users share it: `tgrind warm` fans its ahead-of-time precompile
//! of a module's static CFG across the workers, and `tgrind serve` runs
//! analysis jobs on them, using the queue bound as admission control.
//! Run-time translation does not use it: the dispatch loop translates
//! every block itself, Valgrind's pipeline, because moving the flat
//! compile onto workers made cold start slower on a 2-core host
//! (EXPERIMENTS.md E17, DESIGN.md §14).
//!
//! The pool is generic over the job. The worker state is built *on*
//! the worker thread by the `make_worker` factory, so it may be `!Send`
//! (e.g. a tool holding `Rc` internally) — only the factory itself
//! crosses threads. Each worker names its thread and, when tracing is
//! on, its timeline track `<name>.worker<i>`.
//!
//! A worker returns nothing: a job delivers its own result. A serve job
//! writes its answer to the client's stream, and `tgrind warm` collects
//! its compiled blocks where its workers can reach them. So the pool
//! keeps nothing per finished job, however long it runs.
//!
//! Backpressure: the job queue is bounded. [`CompilePool::try_send`]
//! returns the job back when the queue is full, so the caller decides
//! what to do instead of blocking.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A fixed set of worker threads draining a bounded job queue. See the
/// module docs for the role split.
pub struct CompilePool<J: Send + 'static> {
    /// Job sender; dropped with the pool to stop the workers.
    tx: Option<SyncSender<J>>,
    workers: Vec<JoinHandle<()>>,
    /// Jobs queued and not yet pulled by a worker.
    depth: Arc<AtomicU64>,
}

impl<J: Send + 'static> CompilePool<J> {
    /// Spawn `n_workers` threads (min 1) named `<name>.worker<i>`,
    /// each running the closure built by `make_worker(i)` over every
    /// job it pulls. The queue holds at most `queue_cap` pending jobs.
    pub fn new<W, F>(n_workers: usize, queue_cap: usize, name: &str, make_worker: F) -> Self
    where
        W: FnMut(J),
        F: Fn(usize) -> W + Send + Sync + 'static,
    {
        let n = n_workers.max(1);
        let (tx, jobs) = std::sync::mpsc::sync_channel::<J>(queue_cap.max(1));
        let jobs = Arc::new(Mutex::new(jobs));
        let depth = Arc::new(AtomicU64::new(0));
        let make_worker = Arc::new(make_worker);
        let workers = (0..n)
            .map(|i| {
                let jobs = jobs.clone();
                let depth = depth.clone();
                let make_worker = make_worker.clone();
                let track = format!("{name}.worker{i}");
                std::thread::Builder::new()
                    .name(track.clone())
                    .spawn(move || {
                        if tg_obs::trace::enabled() {
                            tg_obs::trace::name_track(
                                tg_obs::trace::PID_HOST,
                                tg_obs::trace::host_tid(),
                                &track,
                            );
                        }
                        let mut work = make_worker(i);
                        loop {
                            // Hold the receiver lock only for the pull;
                            // the job itself runs unlocked so workers
                            // overlap.
                            let job = match jobs.lock().recv() {
                                Ok(j) => j,
                                Err(_) => break, // sender dropped: shutdown
                            };
                            depth.fetch_sub(1, Ordering::Relaxed);
                            work(job);
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        CompilePool { tx: Some(tx), workers, depth }
    }

    /// Enqueue a job without blocking. On a full queue the job is
    /// handed back for the caller to run inline.
    pub fn try_send(&self, job: J) -> Result<(), J> {
        // Count the job before it becomes visible to workers, so the
        // worker's decrement can never race ahead of the increment.
        self.depth.fetch_add(1, Ordering::Relaxed);
        match self.tx.as_ref().expect("pool already shut down").try_send(job) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(j)) | Err(TrySendError::Disconnected(j)) => {
                self.depth.fetch_sub(1, Ordering::Relaxed);
                Err(j)
            }
        }
    }

    /// Jobs currently queued (excluding jobs being worked on).
    pub fn queue_depth(&self) -> u64 {
        self.depth.load(Ordering::Relaxed)
    }
}

/// Dropping the pool stops it: the queue closes, the workers finish
/// every job already queued, and the drop returns once they have exited.
impl<J: Send + 'static> Drop for CompilePool<J> {
    fn drop(&mut self) {
        self.tx = None; // close the queue; workers drain then exit
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_round_trip_through_workers() {
        // Workers deliver results themselves, here into a shared sum.
        let sum = Arc::new(AtomicU64::new(0));
        let out = sum.clone();
        let pool: CompilePool<u64> = CompilePool::new(3, 16, "test", move |_i| {
            let out = out.clone();
            move |j: u64| {
                out.fetch_add(j * 2, Ordering::SeqCst);
            }
        });
        for j in 0..40u64 {
            let mut job = j;
            loop {
                match pool.try_send(job) {
                    Ok(()) => break,
                    Err(back) => {
                        job = back;
                        std::thread::yield_now();
                    }
                }
            }
        }
        drop(pool);
        assert_eq!(sum.load(Ordering::SeqCst), (0..40).map(|j| j * 2).sum::<u64>());
    }

    #[test]
    fn full_queue_hands_the_job_back() {
        // A single worker blocked on its first job; capacity 1 fills.
        let gate = Arc::new(AtomicU64::new(0));
        let done = Arc::new(AtomicU64::new(0));
        let (g, d) = (gate.clone(), done.clone());
        let pool: CompilePool<u64> = CompilePool::new(1, 1, "test", move |_i| {
            let (g, d) = (g.clone(), d.clone());
            move |_j: u64| {
                while g.load(Ordering::SeqCst) == 0 {
                    std::thread::yield_now();
                }
                d.fetch_add(1, Ordering::SeqCst);
            }
        });
        // First job is picked up by the worker (and parks on the gate);
        // then the queue itself (capacity 1) fills.
        let accepted = (0..8u64).take_while(|&j| pool.try_send(j).is_ok()).count() as u64;
        assert!(accepted < 8, "a bounded queue with a parked worker must fill");
        gate.store(1, Ordering::SeqCst);
        drop(pool);
        assert_eq!(done.load(Ordering::SeqCst), accepted, "dropping drains every accepted job");
    }

    #[test]
    fn worker_state_is_built_on_the_worker_thread() {
        // The worker closure holds an Rc — a !Send type — proving the
        // factory pattern lets per-worker state stay thread-local.
        let got = Arc::new(AtomicU64::new(0));
        let out = got.clone();
        let pool: CompilePool<u64> = CompilePool::new(2, 8, "test", move |i| {
            let (local, out) = (std::rc::Rc::new(i as u64), out.clone());
            move |j: u64| out.store(j + *local, Ordering::SeqCst)
        });
        assert!(pool.try_send(100).is_ok());
        drop(pool);
        assert!(matches!(got.load(Ordering::SeqCst), 100 | 101));
    }
}
