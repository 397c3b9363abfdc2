//! The event core's worker pool: [`Work`] blocks (engine execution, a
//! router's upstream dials), so it runs off the readiness loop on a small
//! fixed pool (its size is the concurrency bound, the role the admission
//! gate plays in the threaded core). Results flow back through a queue
//! the loop drains each iteration, woken by the poller's waker.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use crate::conn::{Done, Shared, Work};
use crate::server::ServeHandler;

/// One work item, tagged with the connection awaiting the outcome.
type Job = (u64, Work);

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

struct JobQueue {
    state: Mutex<QueueState>,
    available: Condvar,
}

impl JobQueue {
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Block until a job is available; `None` once the queue is closed
    /// *and* empty — remaining jobs are executed before workers exit, so
    /// a drain never loses dispatched requests.
    fn pop(&self) -> Option<Job> {
        let mut state = self.lock();
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self
                .available
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

/// Finished work waiting for the event loop, plus the waker that tells
/// it to come collect.
struct Completions {
    done: Mutex<Vec<(u64, Done)>>,
    waker: Arc<mio::Waker>,
}

impl Completions {
    fn push(&self, conn_id: u64, done: Done) {
        self.done
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push((conn_id, done));
        // A failed wake means the loop is already tearing down; the
        // completion still sits in the queue for the final drain.
        let _ = self.waker.wake();
    }
}

/// The pool: submit jobs from the loop thread, drain completions from the
/// loop thread, executed by `workers` background threads.
pub(super) struct WorkerPool {
    queue: Arc<JobQueue>,
    completions: Arc<Completions>,
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    pub(super) fn spawn(
        handler: Arc<dyn ServeHandler>,
        shared: Arc<Shared>,
        waker: Arc<mio::Waker>,
    ) -> WorkerPool {
        let queue = Arc::new(JobQueue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
        });
        let completions = Arc::new(Completions {
            done: Mutex::new(Vec::new()),
            waker,
        });
        let handles = (0..shared.config.max_in_flight.max(1))
            .map(|i| {
                let queue = Arc::clone(&queue);
                let completions = Arc::clone(&completions);
                let handler = Arc::clone(&handler);
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("concealer-worker-{i}"))
                    .spawn(move || {
                        while let Some((conn_id, work)) = queue.pop() {
                            shared.counters.backlog.fetch_sub(1, Ordering::Relaxed);
                            completions.push(conn_id, work.run(&*handler));
                        }
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool {
            queue,
            completions,
            shared,
            handles,
        }
    }

    pub(super) fn submit(&self, conn_id: u64, work: Work) {
        self.shared.counters.backlog.fetch_add(1, Ordering::Relaxed);
        let mut state = self.queue.lock();
        state.jobs.push_back((conn_id, work));
        drop(state);
        self.queue.available.notify_one();
    }

    /// Take every completion produced since the last drain.
    pub(super) fn drain_completions(&self) -> Vec<(u64, Done)> {
        std::mem::take(
            &mut self
                .completions
                .done
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    }

    /// Close the queue and join the workers; queued jobs finish first.
    pub(super) fn shutdown(mut self) {
        {
            let mut state = self.queue.lock();
            state.closed = true;
        }
        self.queue.available.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}
