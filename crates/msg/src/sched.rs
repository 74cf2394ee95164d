//! A concurrent multi-job scheduler over one shared session.
//!
//! The session layer lets any number of runs share its links, each under
//! its own generation. This module is the serving tier that fills that
//! room from many callers:
//!
//! * [`JobScheduler`] — accepts jobs from any number of caller threads
//!   into one FIFO queue and drains it with a small pool of *dispatcher*
//!   threads (the `inflight` argument of [`JobScheduler::spawn`]). Each
//!   dispatcher executes one job — or one fused **batch** of compatible
//!   jobs — at a time via the caller-supplied [`JobExecutor`], which runs
//!   it as its own interleaved run generation on the shared session (see
//!   [`crate::session::Session::begin_run_on`]).
//! * [`JobHandle`] — the submitter's receipt: park on
//!   [`JobHandle::wait`] until the job's result and [`JobReport`] come
//!   back.
//! * [`JobReport`] — per-job metering, attributed to the job even when
//!   runs interleave: queue wait, service time, blocks moved, the run
//!   generation served, and how many jobs shared the run.
//!
//! The scheduler is generic over the job and result types: the matrix
//! runtime's serving layer (`mwp_core::serving`) supplies the executor
//! that fuses small-`q` jobs into composite runs and runs each on its
//! session, whose memory ledger admits it against live worker memory.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// What a [`JobExecutor`] reports back for one job of an executed batch.
#[derive(Debug)]
pub struct JobDone<R> {
    /// The job's result (typically a `Result` — executor-level failures
    /// are values, not panics, so one bad job cannot kill a dispatcher).
    pub result: R,
    /// Matrix blocks this job moved through the master's port.
    pub blocks_moved: u64,
    /// The run generation that served this job.
    pub run_gen: u32,
}

/// Per-job metering attached to every completed job, attributed to the
/// job even when runs interleave on the session's links.
#[derive(Debug, Clone, Copy)]
pub struct JobReport {
    /// Time from submission until a dispatcher picked the job up.
    pub queue_wait: Duration,
    /// Time from pickup until the result was ready (includes any
    /// admission wait for worker memory inside the executor).
    pub service: Duration,
    /// How many *other* jobs were fused into the same run (0 = the job
    /// ran alone).
    pub batched_with: usize,
    /// Matrix blocks this job moved through the master's port.
    pub blocks_moved: u64,
    /// The run generation that served this job.
    pub run_gen: u32,
}

/// A completed job: the executor's result plus the scheduler's metering.
#[derive(Debug)]
pub struct Completed<R> {
    /// The executor's result for this job.
    pub result: R,
    /// The scheduler's per-job metering.
    pub report: JobReport,
}

/// How a scheduler executes jobs. Implementations hold the shared
/// session (and any admission state) and run each call as one run
/// generation; the scheduler owns queueing, batching policy hooks,
/// dispatch, and metering.
pub trait JobExecutor<J, R>: Send + Sync {
    /// Most jobs a batch led by `lead` may fuse (including the lead).
    /// The default, 1, disables batching for this executor.
    fn batch_limit(&self, lead: &J) -> usize {
        let _ = lead;
        1
    }

    /// Whether `candidate` may join a batch led by `lead`. Only called
    /// when [`JobExecutor::batch_limit`] left room. The default refuses.
    fn compatible(&self, lead: &J, candidate: &J) -> bool {
        let _ = (lead, candidate);
        false
    }

    /// Execute `jobs` (one job, or one fused batch of compatible jobs)
    /// and return exactly one [`JobDone`] per job, **in order**.
    fn execute(&self, jobs: Vec<J>) -> Vec<JobDone<R>>;
}

/// One queued job with its submission time and reply channel.
struct Pending<J, R> {
    job: J,
    submitted: Instant,
    reply: mpsc::Sender<Completed<R>>,
}

/// The scheduler's shared state: a FIFO of pending jobs plus the
/// shutdown latch, under one mutex with a condvar for parked dispatchers.
struct Shared<J, R> {
    queue: Mutex<SchedQueue<J, R>>,
    nonempty: Condvar,
}

struct SchedQueue<J, R> {
    pending: VecDeque<Pending<J, R>>,
    closed: bool,
}

/// A multi-threaded job scheduler over a shared [`JobExecutor`]; see the
/// module docs for the serving model.
pub struct JobScheduler<J, R> {
    shared: Arc<Shared<J, R>>,
    dispatchers: Vec<thread::JoinHandle<()>>,
}

/// The submitter's receipt for one queued job.
#[must_use = "wait on the handle to get the job's result"]
pub struct JobHandle<R> {
    rx: mpsc::Receiver<Completed<R>>,
}

impl<R> JobHandle<R> {
    /// Park until the job completes. Panics if the scheduler was shut
    /// down (or its dispatcher died) before the job ran — submitting to
    /// a live scheduler and then losing the result is a caller bug, not
    /// a recoverable condition.
    #[allow(clippy::expect_used, reason = "a job submitted to a live scheduler is answered before its dispatcher exits")]
    pub fn wait(self) -> Completed<R> {
        self.rx.recv().expect("scheduler shut down (or dispatcher died) before the job completed")
    }
}

impl<J: Send + 'static, R: Send + 'static> JobScheduler<J, R> {
    /// Spawn a scheduler with `inflight` dispatcher threads (at least
    /// one). Whether their runs may overlap is the executor's business.
    pub fn spawn<E>(inflight: usize, executor: Arc<E>) -> Self
    where
        E: JobExecutor<J, R> + 'static,
    {
        let inflight = inflight.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(SchedQueue { pending: VecDeque::new(), closed: false }),
            nonempty: Condvar::new(),
        });
        let dispatchers = (0..inflight)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let executor = Arc::clone(&executor);
                #[allow(clippy::expect_used, reason = "the scheduler cannot serve without its dispatchers")]
                thread::Builder::new()
                    .name(format!("mwp-sched-{i}"))
                    .spawn(move || dispatch_loop(&shared, &*executor))
                    .expect("spawn scheduler dispatcher thread")
            })
            .collect();
        JobScheduler { shared, dispatchers }
    }

    /// Queue `job`; returns immediately with the handle to wait on.
    pub fn submit(&self, job: J) -> JobHandle<R> {
        let (tx, rx) = mpsc::channel();
        {
            let mut queue = self.shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            assert!(!queue.closed, "submit after scheduler shutdown");
            queue.pending.push_back(Pending { job, submitted: Instant::now(), reply: tx });
        }
        self.shared.nonempty.notify_one();
        JobHandle { rx }
    }

    /// Drain the queue and stop: dispatchers finish every job already
    /// submitted, then exit and are joined. Dispatcher panics propagate.
    pub fn shutdown(mut self) {
        self.close();
        for handle in self.dispatchers.drain(..) {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    }

}

impl<J, R> JobScheduler<J, R> {
    fn close(&self) {
        self.shared.queue.lock().unwrap_or_else(PoisonError::into_inner).closed = true;
        self.shared.nonempty.notify_all();
    }
}

impl<J, R> Drop for JobScheduler<J, R> {
    /// Dropping the scheduler drains and joins like
    /// [`JobScheduler::shutdown`], but swallows dispatcher panics — the
    /// owner is often already unwinding on the drop path.
    fn drop(&mut self) {
        self.close();
        for handle in self.dispatchers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One dispatcher: pop the queue's head, gather its batch, execute,
/// reply with per-job reports; park when the queue is empty, exit when
/// it is closed *and* empty (shutdown drains first).
fn dispatch_loop<J, R, E>(shared: &Shared<J, R>, executor: &E)
where
    E: JobExecutor<J, R> + ?Sized,
{
    loop {
        let batch = {
            let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(lead) = queue.pending.pop_front() {
                    break gather_batch(&mut queue.pending, lead, executor);
                }
                if queue.closed {
                    return;
                }
                queue = shared.nonempty.wait(queue).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let picked = Instant::now();
        let batched_with = batch.len() - 1;
        let (jobs, receipts): (Vec<_>, Vec<_>) =
            batch.into_iter().map(|p| (p.job, (p.submitted, p.reply))).unzip();
        let dones = executor.execute(jobs);
        assert_eq!(
            dones.len(),
            receipts.len(),
            "executor must return one JobDone per job, in order"
        );
        let service = picked.elapsed();
        for (done, (submitted, reply)) in dones.into_iter().zip(receipts) {
            let report = JobReport {
                queue_wait: picked.duration_since(submitted),
                service,
                batched_with,
                blocks_moved: done.blocks_moved,
                run_gen: done.run_gen,
            };
            // The submitter may have stopped waiting; a lost reply is
            // its problem, not the dispatcher's.
            let _ = reply.send(Completed { result: done.result, report });
        }
    }
}

/// Pull every queued job compatible with `lead` (in FIFO order, up to
/// the executor's batch limit) out of `pending`; incompatible jobs keep
/// their positions for the other dispatchers.
fn gather_batch<J, R, E>(
    pending: &mut VecDeque<Pending<J, R>>,
    lead: Pending<J, R>,
    executor: &E,
) -> Vec<Pending<J, R>>
where
    E: JobExecutor<J, R> + ?Sized,
{
    let limit = executor.batch_limit(&lead.job).max(1);
    let mut batch = vec![lead];
    let mut idx = 0;
    while batch.len() < limit && idx < pending.len() {
        if executor.compatible(&batch[0].job, &pending[idx].job) {
            let Some(member) = pending.remove(idx) else { break };
            batch.push(member);
        } else {
            idx += 1;
        }
    }
    batch
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Doubles its input; batches up to `limit` jobs whose parity
    /// matches the lead's. Tracks the largest batch it ever saw.
    struct ParityDoubler {
        limit: usize,
        biggest: Mutex<usize>,
    }

    impl JobExecutor<u64, u64> for ParityDoubler {
        fn batch_limit(&self, _lead: &u64) -> usize {
            self.limit
        }
        fn compatible(&self, lead: &u64, candidate: &u64) -> bool {
            lead % 2 == candidate % 2
        }
        fn execute(&self, jobs: Vec<u64>) -> Vec<JobDone<u64>> {
            let mut biggest = self.biggest.lock().unwrap();
            *biggest = (*biggest).max(jobs.len());
            drop(biggest);
            jobs.into_iter()
                .map(|j| JobDone { result: 2 * j, blocks_moved: j, run_gen: 1 })
                .collect()
        }
    }

    #[test]
    fn jobs_complete_with_reports() {
        let exec = Arc::new(ParityDoubler { limit: 1, biggest: Mutex::new(0) });
        let sched = JobScheduler::spawn(2, Arc::clone(&exec));
        let handles: Vec<_> = (0..10u64).map(|j| sched.submit(j)).collect();
        for (j, h) in handles.into_iter().enumerate() {
            let done = h.wait();
            assert_eq!(done.result, 2 * j as u64);
            assert_eq!(done.report.blocks_moved, j as u64);
            assert_eq!(done.report.batched_with, 0, "limit 1 means no batching");
            assert_eq!(done.report.run_gen, 1);
        }
        sched.shutdown();
    }

    #[test]
    fn compatible_queued_jobs_are_fused() {
        let exec = Arc::new(ParityDoubler { limit: 8, biggest: Mutex::new(0) });
        // One dispatcher, and park it behind a first job so the rest of
        // the submissions pile up and must be fused.
        let sched = JobScheduler::spawn(1, Arc::clone(&exec));
        let first = sched.submit(1);
        let evens: Vec<_> = (0..6).map(|i| sched.submit(2 * i)).collect();
        let odd = sched.submit(3);
        first.wait();
        for (i, h) in evens.into_iter().enumerate() {
            let done = h.wait();
            assert_eq!(done.result, 4 * i as u64);
        }
        assert_eq!(odd.wait().result, 6);
        // At least one batch fused several even jobs (timing-dependent
        // how many, but the odd job can never join an even batch).
        assert!(*exec.biggest.lock().unwrap() >= 2, "queued even jobs must fuse");
        sched.shutdown();
    }

    #[test]
    fn shutdown_drains_pending_jobs() {
        let exec = Arc::new(ParityDoubler { limit: 1, biggest: Mutex::new(0) });
        let sched = JobScheduler::spawn(1, exec);
        let handles: Vec<_> = (0..20u64).map(|j| sched.submit(j)).collect();
        sched.shutdown(); // must not strand any queued job
        for (j, h) in handles.into_iter().enumerate() {
            assert_eq!(h.wait().result, 2 * j as u64);
        }
    }
}
