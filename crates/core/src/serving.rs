//! The matrix-product serving tier: many callers, one shared fleet.
//!
//! [`MatrixServer`] puts a [`JobScheduler`] in front of a
//! [`RuntimeSession`]: callers submit independent `C ← C + A·B` jobs
//! from any number of threads, and a small pool of dispatcher threads
//! (the `inflight` argument of [`MatrixServer::with_options`]) drains the
//! queue by running each job — or each fused batch of compatible jobs —
//! as its own **interleaved run generation** on the shared session
//! ([`Session::begin_run`][msg-begin-run]), through the same schedule
//! generator and master executor a solo [`RuntimeSession::run_holm`] uses
//! (`crate::runtime::holm_on`).
//! The session's run lock is not taken: in-flight runs share the same
//! links, and the master demultiplexes replies per generation by the
//! wire header's `run` field.
//!
//! **Admission control** prices each job against live worker memory with
//! the paper's cost model before it may start: a HoLM plan for the job's
//! shape fixes its chunk side µ, the job's per-worker footprint is the
//! `MaxReuseOverlapped` layout bound `µ² + 4µ` blocks, and a dispatcher
//! parks until the sum of in-flight footprints plus its own fits in the
//! (homogeneous) worker memory `m`. The worker-side memory assertion
//! (`crate::runtime::serve_run`) independently checks the same invariant
//! summed over its open generations, so an admission bug fails loudly
//! instead of silently overcommitting.
//!
//! **Batching tier** (the `batch` argument of
//! [`MatrixServer::with_options`]): small-`q` runs are
//! frame/wakeup-bound, not FLOP-bound, so queued jobs with block side
//! `q ≤` [`BATCH_MAX_Q`] and identical shape fuse into one composite run
//! — one `RUN_BEGIN`/`RUN_END` per worker, one generation, the union of
//! the jobs' chunk streams — and the results split back out per job.
//! Fusing works by **tag offsetting**: job `j`'s frames shift their
//! block coordinates by `(j·r, j·s, j·t)`, which keeps every tag unique
//! across the batch (the master's collector checks a returned `CResult`
//! against its job's range) while the payload bytes stay exactly what a
//! solo run would ship. Each C block still accumulates its `t` updates
//! in `k`-order inside a single chunk exchange, so batched results are
//! **bit-identical** to running every job alone — the cross-validation
//! suites assert this.
//!
//! [msg-begin-run]: mwp_msg::session::Session::begin_run

use crate::runtime::{holm_on, validate_product_shapes, RunOutcome, RuntimeError};
use crate::session::RuntimeSession;
use mwp_blockmat::BlockMatrix;
use mwp_msg::sched::{Completed, JobDone, JobExecutor, JobHandle, JobScheduler};
use std::sync::{Arc, Condvar, Mutex};

/// Largest block side `q` eligible for the batching tier. Above this the
/// run is FLOP-bound (PR 4's kernel analysis) and fusing buys nothing —
/// such jobs always run alone.
pub const BATCH_MAX_Q: usize = 40;

/// Most jobs one composite run may fuse. Chunks of a composite run are
/// still served one-at-a-time per worker, so the cap bounds tail latency
/// of the fused run, not worker memory.
pub const BATCH_MAX_JOBS: usize = 40;

/// One independent matrix-product job: `C ← C + A·B`, with `select`
/// choosing HoLM resource selection (`true`) or whole-fleet enrollment
/// (`false`, the ORROML variant).
#[derive(Clone)]
pub struct JobSpec {
    /// Left factor.
    pub a: BlockMatrix,
    /// Right factor.
    pub b: BlockMatrix,
    /// Accumulator, consumed and returned updated.
    pub c: BlockMatrix,
    /// Run resource selection (HoLM) instead of enrolling every worker.
    pub select: bool,
}

impl JobSpec {
    fn shape(&self) -> (usize, usize, usize, usize) {
        (self.a.rows(), self.a.cols(), self.b.cols(), self.a.q())
    }
}

/// The scheduler's executor: owns the shared session and the admission
/// ledger, and runs every dispatch as one interleaved run generation.
struct HolmExecutor {
    session: RuntimeSession,
    /// Model blocks (`µ² + 4µ` per in-flight run) currently reserved
    /// against each worker's memory `m` — homogeneous fleet, so one
    /// ledger covers every worker.
    reserved: Mutex<usize>,
    /// Parks dispatchers whose job does not fit until a run retires.
    admit: Condvar,
    /// Whether the batching tier is on (resolved once at server build).
    batch: bool,
}

type JobResult = Result<RunOutcome, RuntimeError>;

impl HolmExecutor {
    /// Block every job of a failed dispatch on the same error.
    fn all_failed(&self, n: usize, err: RuntimeError) -> Vec<JobDone<JobResult>> {
        (0..n).map(|_| JobDone { result: Err(err.clone()), blocks_moved: 0, run_gen: 0 }).collect()
    }
}

impl JobExecutor<JobSpec, JobResult> for HolmExecutor {
    fn batch_limit(&self, lead: &JobSpec) -> usize {
        let eligible = self.batch
            && lead.a.q() <= BATCH_MAX_Q
            && validate_product_shapes(&lead.a, &lead.b, &lead.c).is_ok();
        if eligible { BATCH_MAX_JOBS } else { 1 }
    }

    fn compatible(&self, lead: &JobSpec, candidate: &JobSpec) -> bool {
        // Identical shape + mode means identical plan (enrollment, µ) and
        // identical chunking, so the composite run's tag offsets are
        // uniform — and a fused job's arithmetic is exactly its solo
        // run's. `batch_limit` already vetted the lead's shapes.
        candidate.shape() == lead.shape()
            && candidate.select == lead.select
            && validate_product_shapes(&candidate.a, &candidate.b, &candidate.c).is_ok()
    }

    fn execute(&self, jobs: Vec<JobSpec>) -> Vec<JobDone<JobResult>> {
        let n = jobs.len();
        let lead = &jobs[0];
        if let Err(e) = validate_product_shapes(&lead.a, &lead.b, &lead.c) {
            // Only a solo job can be invalid: `compatible` refuses
            // malformed batch members and `batch_limit` malformed leads.
            debug_assert_eq!(n, 1);
            return self.all_failed(n, e);
        }
        let (enrolled, mu) = match self.session.plan_holm_run(
            lead.a.rows(),
            lead.b.cols(),
            lead.select,
        ) {
            Ok(plan) => plan,
            Err(e) => return self.all_failed(n, e),
        };

        // Admission: reserve this run's per-worker footprint against the
        // fleet's memory. A composite batch serves its chunks
        // one-at-a-time per worker, so its footprint equals a solo run's.
        let footprint = mu * mu + 4 * mu;
        let memory = self
            .session
            .platform()
            .and_then(|p| p.homogeneous_params())
            .map(|params| params.m)
            .unwrap_or(footprint);
        {
            let mut reserved = self.reserved.lock().expect("admission ledger poisoned");
            // A single plan always fits alone (µ is chosen so that
            // µ² + 4µ ≤ m), so the `> 0` guard makes starvation
            // impossible even if the fleet shrank under the plan.
            while *reserved > 0 && *reserved + footprint > memory {
                reserved = self.admit.wait(reserved).expect("admission ledger poisoned");
            }
            *reserved += footprint;
        }
        // The loop borrows A and B; only each job's C moves into it.
        let (inputs, accumulators): (Vec<_>, Vec<_>) =
            jobs.into_iter().map(|job| ((job.a, job.b), job.c)).unzip();
        let products = inputs.iter().zip(accumulators).map(|((a, b), c)| (a, b, c)).collect();
        let outcome = holm_on(&self.session, products, enrolled, mu);
        {
            let mut reserved = self.reserved.lock().expect("admission ledger poisoned");
            *reserved -= footprint;
            self.admit.notify_all();
        }

        match outcome {
            Ok((run_gen, outs)) => outs
                .into_iter()
                .map(|out| {
                    let blocks_moved = out.blocks_moved;
                    JobDone { result: Ok(out), blocks_moved, run_gen }
                })
                .collect(),
            Err(e) => self.all_failed(n, e),
        }
    }
}

/// A concurrent multi-job matrix-product server over one shared fleet —
/// see the module docs for the serving model.
pub struct MatrixServer {
    exec: Arc<HolmExecutor>,
    sched: JobScheduler<JobSpec, JobResult>,
}

impl MatrixServer {
    /// Serve jobs over `session` with `inflight` dispatcher threads
    /// (clamped to `1..=15`, the link layer's concurrent-run slots) and
    /// the small-job batching tier on or off. The server owns the session
    /// outright: its admission ledger is what bounds the workers'
    /// resident memory, so no other caller may drive the fleet.
    pub fn with_options(session: RuntimeSession, inflight: usize, batch: bool) -> Self {
        let exec = Arc::new(HolmExecutor {
            session,
            reserved: Mutex::new(0),
            admit: Condvar::new(),
            batch,
        });
        let sched = JobScheduler::spawn(inflight, Arc::clone(&exec));
        MatrixServer { exec, sched }
    }

    /// Queue one job; returns immediately with the handle to wait on.
    pub fn submit(&self, spec: JobSpec) -> JobHandle<JobResult> {
        self.sched.submit(spec)
    }

    /// Submit and wait: the one-call serving path. The completion carries
    /// the per-job [`mwp_msg::sched::JobReport`] metering.
    pub fn run(&self, spec: JobSpec) -> Completed<JobResult> {
        self.submit(spec).wait()
    }

    /// How many fleet workers are currently flagged dead.
    pub fn dead_workers(&self) -> usize {
        self.exec.session.dead_workers()
    }

    /// Stale-generation data frames the fleet's links have structurally
    /// rejected (includes frames of retired job generations).
    pub fn stale_rejections(&self) -> u64 {
        self.exec.session.stale_rejections()
    }

    /// Drain the queue, stop the dispatchers, and shut the fleet down.
    pub fn shutdown(self) {
        let MatrixServer { exec, sched } = self;
        sched.shutdown();
        if let Ok(exec) = Arc::try_unwrap(exec) {
            exec.session.shutdown();
        }
    }
}
