//! The job runner: debug runs execute off the accept path.
//!
//! A train–rank–fix run takes seconds to minutes — far too long to hold
//! an HTTP connection (or its handler thread) hostage. `POST …/debug-run`
//! therefore just enqueues a job and returns its id; a fixed pool of
//! `std::thread` workers drains the queue, and clients poll
//! `GET /jobs/{id}` for status and the finished report.
//!
//! A worker executes a job by taking the target session's mutex
//! ([`SessionSlot::run_debug`]), so jobs against the same session
//! serialize exactly like any other request, while jobs against different
//! sessions occupy different workers concurrently — the runner tracks the
//! observed concurrency high-water mark (`peak_running`), which the
//! integration tests assert to pin cross-session parallelism. Worker
//! panics are caught and surface as failed jobs, never dead workers.

use crate::pool::SessionSlot;
use crate::profiles::ProfileRing;
use crate::protocol::ApiError;
use rain_core::driver::{DebugReport, RunConfig};
use rain_core::rank::Method;
use rain_obs::Sketch;
use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Where a job is in its life.
#[derive(Debug, Clone)]
pub enum JobState {
    /// Waiting for a worker.
    Queued,
    /// A worker holds the session lock and is running the loop.
    Running,
    /// Finished; the report is ready to fetch.
    Done(DebugReport),
    /// Failed with a message (client error, run failure, or panic).
    Failed(String),
}

impl JobState {
    /// Wire label.
    pub fn label(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done(_) => "done",
            JobState::Failed(_) => "failed",
        }
    }
}

/// Public job metadata.
#[derive(Debug, Clone)]
pub struct JobInfo {
    /// Session the job runs against.
    pub session: String,
    /// Client-supplied request id off the debug-run body, echoed on
    /// `GET /jobs/{id}` and stamped on the run's iteration profiles.
    pub request_id: Option<String>,
    /// Current state (with the report when done).
    pub state: JobState,
}

struct Job {
    id: u64,
    slot: Arc<SessionSlot>,
    method: Method,
    cfg: RunConfig,
    request_id: Option<String>,
    /// When the job entered the queue; the dequeue-time delta feeds the
    /// queue-wait histogram.
    enqueued: Instant,
}

/// The message carried by a worker panic, for the job's `Failed` status.
/// `panic!` payloads are `&str` or `String` in practice; anything exotic
/// falls back to a generic message rather than being dropped.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "job panicked".into())
}

/// Aggregate runner counters for `GET /stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobStats {
    /// Jobs waiting for a worker.
    pub queued: usize,
    /// Jobs currently executing.
    pub running: usize,
    /// Jobs finished successfully.
    pub done: usize,
    /// Jobs that failed.
    pub failed: usize,
    /// Most jobs ever observed executing at once.
    pub peak_running: usize,
}

struct Inner {
    queue: Mutex<VecDeque<Job>>,
    wake: Condvar,
    jobs: Mutex<JobTable>,
    next_id: AtomicU64,
    shutdown: AtomicBool,
    running: AtomicUsize,
    peak_running: AtomicUsize,
    done: AtomicUsize,
    failed: AtomicUsize,
    /// Observes queue residence time (enqueue → dequeue) when the server
    /// wires its metrics registry in.
    queue_wait: Option<Arc<Sketch>>,
    /// Sampled iteration profiles of finished runs land here when the
    /// server wires its profile ring in (see [`crate::profiles`]).
    profiles: Option<Arc<ProfileRing>>,
}

/// Most recent settled (done/failed) jobs kept pollable; older ones are
/// evicted so a resident server's job table stays bounded no matter how
/// many runs it has served.
const MAX_SETTLED_JOBS: usize = 512;

/// The job map plus the settled-order queue driving bounded retention.
#[derive(Default)]
struct JobTable {
    map: HashMap<u64, JobInfo>,
    settled: VecDeque<u64>,
}

impl Inner {
    fn lock_queue(&self) -> std::sync::MutexGuard<'_, VecDeque<Job>> {
        self.queue.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn lock_jobs(&self) -> std::sync::MutexGuard<'_, JobTable> {
        self.jobs.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn set_state(&self, id: u64, state: JobState) {
        let settled = matches!(state, JobState::Done(_) | JobState::Failed(_));
        let mut table = self.lock_jobs();
        if let Some(info) = table.map.get_mut(&id) {
            info.state = state;
        }
        if settled {
            table.settled.push_back(id);
            while table.settled.len() > MAX_SETTLED_JOBS {
                let evict = table.settled.pop_front().expect("non-empty");
                table.map.remove(&evict);
            }
        }
    }
}

/// The worker pool + queue + job table.
pub struct JobRunner {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl JobRunner {
    /// Spawn `n_workers` worker threads (at least one).
    pub fn new(n_workers: usize) -> Self {
        JobRunner::with_observability(n_workers, None, None)
    }

    /// [`JobRunner::new`] with a latency sketch observing how long jobs
    /// sit queued before a worker picks them up, and a profile ring
    /// receiving the sampled iteration traces of finished runs.
    pub fn with_observability(
        n_workers: usize,
        queue_wait: Option<Arc<Sketch>>,
        profiles: Option<Arc<ProfileRing>>,
    ) -> Self {
        let inner = Arc::new(Inner {
            queue: Mutex::new(VecDeque::new()),
            wake: Condvar::new(),
            jobs: Mutex::new(JobTable::default()),
            next_id: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
            running: AtomicUsize::new(0),
            peak_running: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            failed: AtomicUsize::new(0),
            queue_wait,
            profiles,
        });
        let workers = (0..n_workers.max(1))
            .map(|wi| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("rain-serve-job-{wi}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn job worker")
            })
            .collect();
        JobRunner {
            inner,
            workers: Mutex::new(workers),
        }
    }

    /// Enqueue a debug run against `slot`, returning the job id.
    pub fn submit(&self, slot: Arc<SessionSlot>, method: Method, cfg: RunConfig) -> u64 {
        self.submit_tagged(slot, method, cfg, None)
    }

    /// [`JobRunner::submit`] carrying the client's request id, echoed on
    /// job status and stamped on the run's sampled iteration profiles.
    pub fn submit_tagged(
        &self,
        slot: Arc<SessionSlot>,
        method: Method,
        cfg: RunConfig,
        request_id: Option<String>,
    ) -> u64 {
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        self.inner.lock_jobs().map.insert(
            id,
            JobInfo {
                session: slot.name.clone(),
                request_id: request_id.clone(),
                state: JobState::Queued,
            },
        );
        self.inner.lock_queue().push_back(Job {
            id,
            slot,
            method,
            cfg,
            request_id,
            enqueued: Instant::now(),
        });
        self.inner.wake.notify_one();
        id
    }

    /// Metadata of one job. 404 for ids never issued (or settled so long
    /// ago they aged out of the bounded retention window).
    pub fn info(&self, id: u64) -> Result<JobInfo, ApiError> {
        self.inner
            .lock_jobs()
            .map
            .get(&id)
            .cloned()
            .ok_or_else(|| ApiError::not_found(format!("no job {id}")))
    }

    /// Current counters.
    pub fn stats(&self) -> JobStats {
        JobStats {
            queued: self.inner.lock_queue().len(),
            running: self.inner.running.load(Ordering::Relaxed),
            done: self.inner.done.load(Ordering::Relaxed),
            failed: self.inner.failed.load(Ordering::Relaxed),
            peak_running: self.inner.peak_running.load(Ordering::Relaxed),
        }
    }

    /// Stop accepting queue pops and join the workers. Queued jobs that
    /// never ran are marked failed; the running ones finish first.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.wake.notify_all();
        let workers: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.workers.lock().unwrap_or_else(|p| p.into_inner()));
        for w in workers {
            let _ = w.join();
        }
        let orphans: Vec<u64> = self.inner.lock_queue().drain(..).map(|j| j.id).collect();
        for id in orphans {
            self.inner
                .set_state(id, JobState::Failed("server shut down".into()));
            self.inner.failed.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let job = {
            let mut queue = inner.lock_queue();
            loop {
                // Shutdown wins over a non-empty queue: workers stop
                // popping, and `shutdown()` fails the leftover backlog
                // instead of running it to completion.
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                queue = inner.wake.wait(queue).unwrap_or_else(|p| p.into_inner());
            }
        };

        if let Some(h) = &inner.queue_wait {
            h.observe(job.enqueued.elapsed().as_secs_f64());
        }
        inner.set_state(job.id, JobState::Running);
        let now = inner.running.fetch_add(1, Ordering::SeqCst) + 1;
        inner.peak_running.fetch_max(now, Ordering::SeqCst);

        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            job.slot.run_debug(job.method, &job.cfg)
        }));
        inner.running.fetch_sub(1, Ordering::SeqCst);

        match outcome {
            Ok(Ok(report)) => {
                if let Some(ring) = &inner.profiles {
                    let slow_s = job.slot.slow_threshold_s();
                    for ip in &report.iteration_profiles {
                        let latency_s = ip.profile.dur_ns as f64 / 1e9;
                        ring.push(
                            "iteration",
                            &job.slot.name,
                            format!("{:?} iteration={}", job.method, ip.iteration),
                            latency_s,
                            job.request_id.clone(),
                            Some(ip.profile.clone()),
                            latency_s >= slow_s,
                        );
                    }
                }
                inner.done.fetch_add(1, Ordering::Relaxed);
                inner.set_state(job.id, JobState::Done(report));
            }
            Ok(Err(e)) => {
                inner.failed.fetch_add(1, Ordering::Relaxed);
                inner.set_state(job.id, JobState::Failed(e.message));
            }
            Err(panic) => {
                let msg = panic_message(panic.as_ref());
                inner.failed.fetch_add(1, Ordering::Relaxed);
                inner.set_state(job.id, JobState::Failed(format!("panic: {msg}")));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rain_core::driver::DebugSession;

    #[test]
    fn panic_payloads_are_extracted_for_failed_job_status() {
        let p: Box<dyn Any + Send> = Box::new("boom");
        assert_eq!(panic_message(p.as_ref()), "boom");
        let p: Box<dyn Any + Send> = Box::new(String::from("kaput"));
        assert_eq!(panic_message(p.as_ref()), "kaput");
        // Exotic payloads fall back instead of being dropped.
        let p: Box<dyn Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(p.as_ref()), "job panicked");
        // `panic!` with format args carries a `String` payload — the case
        // the worker loop actually sees.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let payload = std::panic::catch_unwind(|| panic!("exploded: {}", 7)).unwrap_err();
        std::panic::set_hook(prev);
        assert_eq!(panic_message(payload.as_ref()), "exploded: 7");
    }

    #[test]
    fn queue_wait_sketch_observes_each_dequeued_job() {
        use rain_model::LogisticRegression;
        let hist = Arc::new(Sketch::new());
        let pool = crate::pool::SessionPool::new();
        let sess = DebugSession::for_model(Box::new(LogisticRegression::new(2, 0.01)));
        let slot = pool.reserve("s").unwrap().insert(sess, 0, None, false);
        let runner = JobRunner::with_observability(1, Some(Arc::clone(&hist)), None);
        for _ in 0..3 {
            runner.submit(Arc::clone(&slot), Method::Loss, RunConfig::paper(4));
        }
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while hist.snapshot().count < 3 {
            assert!(Instant::now() < deadline, "jobs never dequeued");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let snap = hist.snapshot();
        assert_eq!(snap.count, 3);
        assert!(snap.sum >= 0.0);
        runner.shutdown();
    }

    #[test]
    fn unknown_job_ids_are_not_found() {
        let runner = JobRunner::new(1);
        assert_eq!(runner.info(99).unwrap_err().status, 404);
        runner.shutdown();
    }

    #[test]
    fn jobs_against_empty_sessions_fail_cleanly() {
        use rain_model::LogisticRegression;
        let pool = crate::pool::SessionPool::new();
        let sess = DebugSession::for_model(Box::new(LogisticRegression::new(2, 0.01)));
        let slot = pool.reserve("s").unwrap().insert(sess, 0, None, false);
        let runner = JobRunner::new(2);
        let id = runner.submit(slot, Method::Loss, RunConfig::paper(4));
        // Poll until the worker settles the job.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            match runner.info(id).unwrap().state {
                JobState::Failed(msg) => {
                    assert!(msg.contains("training data"), "unexpected failure: {msg}");
                    break;
                }
                JobState::Done(_) => panic!("job must fail without training data"),
                _ if std::time::Instant::now() > deadline => panic!("job never settled"),
                _ => std::thread::sleep(std::time::Duration::from_millis(5)),
            }
        }
        assert_eq!(runner.stats().failed, 1);
        runner.shutdown();
    }

    #[test]
    fn shutdown_fails_queued_backlog_instead_of_running_it() {
        use rain_model::LogisticRegression;
        let pool = crate::pool::SessionPool::new();
        let sess = DebugSession::for_model(Box::new(LogisticRegression::new(2, 0.01)));
        let slot = pool.reserve("s").unwrap().insert(sess, 0, None, false);
        let runner = std::sync::Arc::new(JobRunner::new(1));

        // Hold the session lock so the single worker blocks inside job A
        // while B and C sit in the queue.
        let guard = slot.lock();
        let a = runner.submit(
            std::sync::Arc::clone(&slot),
            Method::Loss,
            RunConfig::paper(4),
        );
        let b = runner.submit(
            std::sync::Arc::clone(&slot),
            Method::Loss,
            RunConfig::paper(4),
        );
        let c = runner.submit(
            std::sync::Arc::clone(&slot),
            Method::Loss,
            RunConfig::paper(4),
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
        let shutter = {
            let runner = std::sync::Arc::clone(&runner);
            std::thread::spawn(move || runner.shutdown())
        };
        // Give shutdown() time to set the flag, then unblock job A.
        std::thread::sleep(std::time::Duration::from_millis(50));
        drop(guard);
        shutter.join().expect("shutdown panicked");

        // A ran (and failed on the empty session); B and C must have been
        // failed as shut-down orphans, not executed.
        for (id, want) in [(a, "training data"), (b, "shut down"), (c, "shut down")] {
            match runner.info(id).unwrap().state {
                JobState::Failed(msg) => {
                    assert!(
                        msg.contains(want),
                        "job {id}: expected '{want}', got '{msg}'"
                    )
                }
                other => panic!("job {id}: expected Failed, got {}", other.label()),
            }
        }
    }

    #[test]
    fn settled_jobs_age_out_of_the_bounded_table() {
        let runner = JobRunner::new(1);
        // Drive set_state directly through Inner: retention is a table
        // property, independent of how jobs settle.
        for id in 0..(MAX_SETTLED_JOBS as u64 + 10) {
            runner.inner.lock_jobs().map.insert(
                id,
                JobInfo {
                    session: "s".into(),
                    request_id: None,
                    state: JobState::Queued,
                },
            );
            runner.inner.set_state(id, JobState::Failed("x".into()));
        }
        let table = runner.inner.lock_jobs();
        assert_eq!(table.map.len(), MAX_SETTLED_JOBS);
        assert!(!table.map.contains_key(&0), "oldest settled job evicted");
        assert!(table.map.contains_key(&(MAX_SETTLED_JOBS as u64 + 9)));
        drop(table);
        runner.shutdown();
    }
}
