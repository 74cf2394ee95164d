//! The matrix-product serving tier: many callers, one shared fleet.
//!
//! [`MatrixServer`] puts a [`JobScheduler`] in front of a
//! [`RuntimeSession`]: callers submit independent `C ← C + A·B` jobs
//! from any number of threads, and a small pool of dispatcher threads
//! (the `inflight` argument of [`MatrixServer::with_options`]) drains the
//! queue by running each job — or each fused batch of compatible jobs —
//! as its own **interleaved run generation** on the shared session
//! ([`Session::begin_job`][msg-begin-job]). No run-exclusion lock is
//! held: in-flight runs share the same links, and the master
//! demultiplexes replies per generation by the wire header's `run` field.
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
//! across the batch (the master's collector maps a returned `CResult`
//! back to its job by range) while the payload bytes stay exactly what a
//! solo run would ship. Each C block still accumulates its `t` updates
//! in `k`-order inside a single chunk exchange, so batched results are
//! **bit-identical** to running every job alone — the cross-validation
//! suites assert this.
//!
//! [msg-begin-job]: mwp_msg::session::Session::begin_job

use crate::chunks::{self, Chunk};
use crate::runtime::{validate_product_shapes, RunOutcome, RuntimeError};
use crate::session::RuntimeSession;
use bytes::Bytes;
use mwp_blockmat::{BlockMatrix, SharedPayloads};
use mwp_msg::sched::{Completed, JobDone, JobExecutor, JobHandle, JobScheduler};
use mwp_msg::transport::run_deadline;
use mwp_msg::{Frame, FrameKind, Tag};
use mwp_platform::WorkerId;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

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
/// ledger, and runs every dispatch as one interleaved job generation.
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
        let outcome = holm_jobs_on(&self.session, jobs, enrolled, mu);
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

/// Per-job context of one composite (or solo) job run: the job's payload
/// caches, its accumulator, its traffic meter, and its tag offsets.
struct JobCtx {
    ap: SharedPayloads,
    bp: SharedPayloads,
    c: BlockMatrix,
    moved: u64,
    /// Tag offsets `(j·r, j·s, j·t)` keeping this job's frame coordinates
    /// disjoint from every other job in the batch.
    row_off: usize,
    col_off: usize,
    k_off: usize,
}

/// Algorithm 1 as an interleaved **job run**: execute `jobs` (all of one
/// shape; one entry = one solo run's worth of chunks) under a single run
/// generation, without the session's run-exclusion lock. Returns the
/// generation and one [`RunOutcome`] per job, in order.
///
/// Structurally this is [`crate::runtime::holm_on`] with three changes:
/// every outbound frame is pre-stamped with the job generation (the link
/// stamps only unstamped frames, with the *legacy* generation), receives
/// go through the per-generation demux
/// ([`mwp_msg::MasterEndpoint::recv_run_deadline`]), and frame tags carry
/// the job's offsets. Chunk re-dispatch on worker death keeps the PR 6
/// contract: the master commits only complete chunks, so a lost chunk
/// replays bit-identically on a survivor.
fn holm_jobs_on(
    session: &RuntimeSession,
    mut jobs: Vec<JobSpec>,
    enrolled: usize,
    mu: usize,
) -> Result<(u32, Vec<RunOutcome>), RuntimeError> {
    let lead = &jobs[0];
    let q = lead.a.q();
    let (r, t, s) = (lead.a.rows(), lead.a.cols(), lead.b.cols());

    let run = session.begin_job(enrolled, q as u32);
    let gen = run.generation();
    let master = session.master();

    let start = Instant::now();
    let mut ctxs: Vec<JobCtx> = jobs
        .drain(..)
        .enumerate()
        .map(|(jx, spec)| JobCtx {
            ap: SharedPayloads::new_col_major(&spec.a),
            bp: SharedPayloads::new(&spec.b),
            c: spec.c,
            moved: 0,
            row_off: jx * r,
            col_off: jx * s,
            k_off: jx * t,
        })
        .collect();
    let cpool = mwp_msg::BufferPool::new();

    // One chunk list per job — identical to the list its solo run would
    // use (same µ, same band sort), so each job's chunks exchange in the
    // same per-chunk k-order and its result is bit-identical to the solo
    // run. Jobs concatenate in batch order.
    let problem = mwp_blockmat::Partition::from_blocks(r, s, t, q);
    let mut tiles = chunks::tile(&problem, mu);
    let band = (mu * enrolled).max(1);
    tiles.sort_by_key(|ch| (ch.j0 / band, ch.i0, ch.j0));
    let mut queue: VecDeque<(usize, Chunk)> =
        (0..ctxs.len()).flat_map(|jx| tiles.iter().map(move |&ch| (jx, ch))).collect();

    let deadline = run_deadline();
    while !queue.is_empty() {
        if let Some(budget) = deadline {
            if start.elapsed() > budget {
                session.abort_job(enrolled, run);
                return Err(RuntimeError::RunAborted);
            }
        }
        let live: Vec<WorkerId> =
            (0..enrolled).map(WorkerId).filter(|&w| !master.is_dead(w)).collect();
        assert!(
            !live.is_empty(),
            "every enrolled worker died mid-run: {} chunk(s) cannot be re-dispatched",
            queue.len()
        );
        let n = live.len().min(queue.len());
        let assignment: Vec<(WorkerId, (usize, Chunk))> =
            live.into_iter().zip(queue.drain(..n)).collect();
        let mut alive = vec![true; assignment.len()];

        // 1. Ship each worker its C chunk (offset tags, true payloads).
        for (idx, (wid, (jx, ch))) in assignment.iter().enumerate() {
            alive[idx] = send_c_rows_job(master, *wid, gen, &mut ctxs[*jx], ch, &cpool, q);
        }
        // 2. Stream the shared dimension from the job's payload caches.
        for k in 0..t {
            for (idx, (wid, (jx, ch))) in assignment.iter().enumerate() {
                if !alive[idx] {
                    continue;
                }
                let ctx = &mut ctxs[*jx];
                let b_tag = Tag::new(FrameKind::BlockB, k + ctx.k_off, ch.j0 + ctx.col_off);
                let b_payload = ctx.bp.row_run(k, ch.j0, ch.width);
                alive[idx] = master
                    .try_send(*wid, Frame::new_in_run(b_tag, gen, b_payload), ch.width as u64)
                    .is_some();
                if alive[idx] {
                    ctx.moved += ch.width as u64;
                    let a_tag = Tag::new(FrameKind::BlockA, ch.i0 + ctx.row_off, k + ctx.k_off);
                    let a_payload = ctx.ap.col_run(ch.i0, k, ch.height);
                    alive[idx] = master
                        .try_send(*wid, Frame::new_in_run(a_tag, gen, a_payload), ch.height as u64)
                        .is_some();
                    if alive[idx] {
                        ctx.moved += ch.height as u64;
                    }
                }
            }
        }
        // 3. Collect, all-or-nothing per chunk; a chunk lost to a death
        //    goes back on the queue for a survivor.
        for (idx, (wid, (jx, ch))) in assignment.iter().enumerate() {
            let ctx = &mut ctxs[*jx];
            let collected = alive[idx]
                && master
                    .try_send(
                        *wid,
                        Frame::new_in_run(Tag::new(FrameKind::Control, 0, 0), gen, Bytes::new()),
                        0,
                    )
                    .is_some()
                && recv_c_rows_job(master, *wid, gen, ctx, ch, q);
            if !collected {
                queue.push_back((*jx, *ch));
            }
        }
    }

    session.finish_job(enrolled, run);
    let wall = start.elapsed();

    Ok((
        gen,
        ctxs.into_iter()
            .map(|ctx| RunOutcome {
                c: ctx.c,
                wall,
                blocks_moved: ctx.moved,
                workers_used: enrolled,
                chunk_side: mu,
            })
            .collect(),
    ))
}

/// The job-run counterpart of [`crate::runtime`]'s `send_c_rows`: offset
/// tags, generation-stamped frames, per-job metering.
fn send_c_rows_job(
    master: &mwp_msg::MasterEndpoint,
    wid: WorkerId,
    gen: u32,
    ctx: &mut JobCtx,
    ch: &Chunk,
    pool: &mwp_msg::BufferPool,
    q: usize,
) -> bool {
    let bb = q * q * 8;
    for i in ch.rows() {
        let payload = pool.bytes_with(bb * ch.width, |buf| {
            for j in ch.cols() {
                ctx.c.block(i, j).write_bytes_into(buf);
            }
        });
        let tag = Tag::new(FrameKind::BlockC, i + ctx.row_off, ch.j0 + ctx.col_off);
        if master.try_send(wid, Frame::new_in_run(tag, gen, payload), ch.width as u64).is_none() {
            return false;
        }
        ctx.moved += ch.width as u64;
    }
    true
}

/// The job-run counterpart of [`crate::runtime`]'s `recv_c_rows`:
/// receives through the per-generation demux, un-offsets the returned
/// tags, and commits all-or-nothing so re-dispatch stays exact.
fn recv_c_rows_job(
    master: &mwp_msg::MasterEndpoint,
    wid: WorkerId,
    gen: u32,
    ctx: &mut JobCtx,
    ch: &Chunk,
    q: usize,
) -> bool {
    let bb = q * q * 8;
    let mut staged = Vec::with_capacity(ch.height);
    for _ in ch.rows() {
        match master.recv_run_deadline(wid, gen, ch.width as u64) {
            Some((frame, _)) => staged.push(frame),
            None => {
                master.mark_dead(wid);
                return false;
            }
        }
    }
    for frame in staged {
        debug_assert_eq!(frame.tag.kind, FrameKind::CResult);
        let i = frame.tag.i as usize - ctx.row_off;
        let j0 = frame.tag.j as usize - ctx.col_off;
        let n = frame.payload.len() / bb;
        debug_assert_eq!(n, ch.width);
        for w in 0..n {
            ctx.c.block_mut(i, j0 + w).copy_from_bytes(&frame.payload[w * bb..(w + 1) * bb]);
        }
        ctx.moved += n as u64;
    }
    true
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
    /// outright — job runs and legacy exclusive runs must not mix on one
    /// session, so no other caller may drive it.
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
