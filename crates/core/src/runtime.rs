//! Threaded execution of the paper's homogeneous algorithm with real
//! arithmetic.
//!
//! This is the counterpart of the MPI programs behind Section 8: the
//! master (the calling thread) runs Algorithm 1 — resource selection,
//! C-chunk distribution, per-step `B` row + `A` block streaming, result
//! collection — over the [`mwp_msg`] message layer, while each worker
//! thread runs Algorithm 2 — receive, update its resident `µ × µ` C chunk
//! with real `q × q` block GEMMs, return the chunk.
//!
//! The master side is one executor (`execute`): every runtime here —
//! HoLM, ORROML, a fused serving batch, the heterogeneous two-phase scheme
//! — plans, asks [`crate::schedule`] for the run's [`Schedule`], and has
//! the executor walk it over the session. What the master sends next is
//! the generator's business; what happens when a worker dies, or when the
//! whole-run deadline passes, is the executor's, in one place.
//!
//! With `time_scale = 0` the network is un-paced and the run completes as
//! fast as the arithmetic allows (used by tests, which verify the result
//! against the serial product). A positive `time_scale` paces every link
//! at `c_i` model-seconds per block so wall-clock measurements reflect the
//! platform calibration.
//!
//! Worker threads live in a persistent [`RuntimeSession`]
//! (`crate::session`): they are spawned once per platform description and
//! serve an unbounded sequence of runs, parking on a blocking receive
//! between runs. The free functions here ([`run_holm`], [`run_heterogeneous`],
//! …) are one-shot: they spawn a session, run once, and shut it down.
//! Repeated-run workloads (benches, parameter sweeps) hold a
//! [`RuntimeSession`] directly and call its methods, amortizing all
//! spawn/join cost.

use crate::chunks::Chunk;
use crate::schedule::{PortOp, Schedule};
use crate::selection::homogeneous::select_homogeneous;
use crate::session::{with_session, RuntimeSession};
use bytes::Bytes;
use mwp_blockmat::kernel::PackedB;
use mwp_blockmat::{Block, BlockMatrix, SharedPayloads};
use mwp_msg::session::{RunExit, RUN_ABORT, RUN_BEGIN, RUN_END};
use mwp_msg::{Frame, FrameKind, Tag, WorkerEndpoint};
use mwp_platform::{Platform, WorkerId};
use mwp_trace::{record, ActivityKind};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::time::Instant;

/// One-multiply mixer for the worker maps' small-integer keys (block
/// rows / columns): the default SipHash costs more than the whole map
/// operation on the per-A-block hot path. Fibonacci multiplicative
/// hashing spreads dense low keys across the high bits the hash table
/// reads, which is all these maps need.
#[derive(Default)]
struct BlockIndexHasher(u64);

impl Hasher for BlockIndexHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("block-index maps hash usize keys only");
    }
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.0 = (n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// `HashMap` keyed by a block row/column index, with the cheap mixer.
type BlockIndexMap<V> = HashMap<usize, V, BuildHasherDefault<BlockIndexHasher>>;

/// Outcome of a runtime execution.
#[derive(Debug)]
pub struct RunOutcome {
    /// The updated C matrix (`C + A·B`).
    pub c: BlockMatrix,
    /// Wall-clock duration of the whole run.
    pub wall: std::time::Duration,
    /// Total matrix blocks moved through the master port (both ways).
    pub blocks_moved: u64,
    /// Number of workers enrolled by resource selection.
    pub workers_used: usize,
    /// Chunk side µ (or ν) used.
    pub chunk_side: usize,
}

/// Errors from the runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// The runtime implements the homogeneous algorithms.
    HeterogeneousPlatform,
    /// Memory too small for µ = 1.
    MemoryTooSmall {
        /// Rejected buffer count.
        m: usize,
    },
    /// Non-conforming matrix shapes.
    ShapeMismatch,
    /// The session's fleet has no workers (every member was pruned);
    /// admit a worker before running.
    EmptyFleet,
    /// The whole-run deadline ([`RuntimeSession::set_run_deadline`]) elapsed before the
    /// run finished.  The master broadcast `RUN_ABORT`, the workers
    /// re-parked with their scratch intact, and the session is still
    /// serving — the next run on it starts from a clean generation.
    RunAborted,
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::HeterogeneousPlatform => {
                write!(f, "runtime requires a homogeneous platform")
            }
            RuntimeError::MemoryTooSmall { m } => {
                write!(f, "memory of {m} blocks cannot host µ = 1")
            }
            RuntimeError::ShapeMismatch => write!(f, "matrix shapes do not conform"),
            RuntimeError::EmptyFleet => {
                write!(f, "no workers enrolled: the fleet is empty")
            }
            RuntimeError::RunAborted => {
                write!(f, "run aborted: the whole-run deadline elapsed")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Execute `C ← C + A·B` with the paper's homogeneous algorithm (HoLM:
/// resource selection + round-robin chunk distribution).
///
/// One-shot wrapper over [`RuntimeSession::run_holm`]: spawns a session,
/// runs once, shuts it down.
pub fn run_holm(
    platform: &Platform,
    a: &BlockMatrix,
    b: &BlockMatrix,
    c: BlockMatrix,
    time_scale: f64,
) -> Result<RunOutcome, RuntimeError> {
    // Pre-flight: a rejected call must cost an error return, not a
    // worker-pool spawn + join.
    plan_holm(platform, a, b, &c, true)?;
    with_session(platform, time_scale, |session| session.run_holm(a, b, c))
}

/// Same, but enrolling every worker (the ORROML variant) — useful to
/// measure what resource selection buys.
pub fn run_all_workers(
    platform: &Platform,
    a: &BlockMatrix,
    b: &BlockMatrix,
    c: BlockMatrix,
    time_scale: f64,
) -> Result<RunOutcome, RuntimeError> {
    plan_holm(platform, a, b, &c, false)?;
    with_session(platform, time_scale, |session| session.run_all_workers(a, b, c))
}

/// The pure pre-flight of a HoLM/ORROML run — validation + resource
/// selection, no side effects. Called by the one-shot wrappers **before**
/// any session exists; the session plans again for the actual run
/// parameters.
fn plan_holm(
    platform: &Platform,
    a: &BlockMatrix,
    b: &BlockMatrix,
    c: &BlockMatrix,
    select: bool,
) -> Result<(usize, usize), RuntimeError> {
    platform.homogeneous_params().ok_or(RuntimeError::HeterogeneousPlatform)?;
    validate_product_shapes(a, b, c)?;
    select_enrollment(platform, a.rows(), b.cols(), select)
}

/// The shape gate every product run passes per call (cheap, and the
/// matrices differ between calls even when the cached plan does not).
pub(crate) fn validate_product_shapes(
    a: &BlockMatrix,
    b: &BlockMatrix,
    c: &BlockMatrix,
) -> Result<(), RuntimeError> {
    if a.cols() != b.rows() || c.rows() != a.rows() || c.cols() != b.cols() || a.q() != b.q() {
        return Err(RuntimeError::ShapeMismatch);
    }
    Ok(())
}

/// The pure resource-selection step of a HoLM/ORROML plan for an `r × s`
/// result grid: Algorithm 1's worker count + chunk side µ under
/// selection, or the whole fleet under ORROML. This is what a session
/// re-runs when its fleet changes (see
/// [`RuntimeSession::plan_holm_run`]).
pub(crate) fn select_enrollment(
    platform: &Platform,
    r: usize,
    s: usize,
    select: bool,
) -> Result<(usize, usize), RuntimeError> {
    let params = platform
        .homogeneous_params()
        .ok_or(RuntimeError::HeterogeneousPlatform)?;
    // Checked before selecting: `select_homogeneous` asserts µ ≥ 1.
    let mu = crate::layout::MemoryLayout::MaxReuseOverlapped.mu(params.m);
    if mu == 0 {
        return Err(RuntimeError::MemoryTooSmall { m: params.m });
    }
    if select {
        let sel = select_homogeneous(&params, platform.len(), r, s);
        Ok((sel.workers, sel.chunk_side))
    } else {
        Ok((platform.len(), mu))
    }
}

/// One product `C ← C + A·B` of an open run: the payload caches of its
/// (borrowed) inputs, its accumulator, its traffic meter, and the tag
/// offsets that keep its frame coordinates disjoint from every other
/// product fused into the same run.
struct JobCtx {
    /// A serialized once, col-major, so a column stretch is one slice.
    ap: SharedPayloads,
    /// B serialized once, row-major, so a row stretch is one slice. Every
    /// send is a refcount bump into these shared buffers (a B row fanned
    /// out to all enrolled workers costs one buffer total).
    bp: SharedPayloads,
    c: BlockMatrix,
    /// Matrix blocks this product moved through the port, both ways.
    moved: u64,
    row_off: usize,
    col_off: usize,
    k_off: usize,
}

impl JobCtx {
    /// The `jx`-th product of a run: its tags shift by `jx·(r, s, t)`
    /// (a solo run is product 0, offsets 0), while the payload bytes stay
    /// exactly what a solo run would ship.
    fn new(a: &BlockMatrix, b: &BlockMatrix, c: BlockMatrix, jx: usize) -> Self {
        JobCtx {
            ap: SharedPayloads::new_col_major(a),
            bp: SharedPayloads::new(b),
            c,
            moved: 0,
            row_off: jx * a.rows(),
            col_off: jx * b.cols(),
            k_off: jx * a.cols(),
        }
    }
}

/// One product of a run: the borrowed factors `A`, `B` and the
/// accumulator `C`, consumed and returned updated.
pub(crate) type Product<'a> = (&'a BlockMatrix, &'a BlockMatrix, BlockMatrix);

/// The master's side of one open run, as the one executor ([`execute`])
/// sees it: how each op of the run's schedule crosses the port, and what
/// to issue instead of the ops a dead worker left undone. The products
/// implement it over [`PortOp`], `mwp_lu`'s factorization over its own
/// ops; what happens when a worker dies, the run deadline passes or the
/// whole fleet is lost is the executor's, in one place, for both.
pub trait Port {
    /// One operation on the master's port, naming its worker.
    type Op: Clone;

    /// The worker `op` is on.
    fn worker(op: &Self::Op) -> WorkerId;

    /// Whether `next` may be issued before what `op` lost is recovered —
    /// `false` puts a barrier between the two. Every chunk exchange is
    /// independent of every other, so the default is no barrier at all.
    fn same_phase(_op: &Self::Op, _next: &Self::Op) -> bool {
        true
    }

    /// Send or receive `op`'s frames. `false` — with master state
    /// untouched — when the worker died, stayed silent past the liveness
    /// deadline or answered with anything but what `op` asked for; the
    /// executor condemns it.
    fn perform(&mut self, op: &Self::Op) -> bool;

    /// The ops that redo, on workers of `live` (ascending), the work the
    /// `undone` ops of one phase lost; `None` when no live worker can
    /// adopt it.
    fn redispatch(&self, undone: Vec<Self::Op>, live: &[WorkerId]) -> Option<Vec<Self::Op>>;
}

/// The one master executor: `ops`, walked in order as one run of
/// `session`'s persistent worker pool over workers `0..enrolled`, through
/// the port `open` builds for the run's generation. Returns the port —
/// whatever state the ops left in it — and the run's generation, or why
/// the run was aborted.
///
/// **Recovery is one rule.** An op whose worker is dead is skipped, and a
/// worker an op fails on is condemned
/// ([`mwp_msg::MasterEndpoint::mark_dead`]). At the end of each phase
/// ([`Port::same_phase`]) — every op issued, so every live link drained
/// of the replies it owes — the undone ops run again as
/// [`Port::redispatch`] over the live workers, until none is undone. Re-dispatch is exact replay: an op only
/// mutates master state with a *complete*, validated reply, so a lost
/// op's frames regenerate bit-identically for whichever survivor adopts
/// it. With no live worker left to adopt, the run is aborted
/// ([`RuntimeError::EmptyFleet`]).
///
/// The whole-run budget ([`mwp_msg::Session::run_deadline`], counted from
/// before the port is opened) is checked before every op, and ends the run with
/// [`RuntimeError::RunAborted`]. The executor takes no lock: callers
/// whose worker program serves one run at a time, or that cannot bound
/// the workers' resident memory across overlapping runs, serialize
/// themselves (see [`RuntimeSession::run_holm`]; the serving tier admits
/// by memory instead).
pub fn execute<'s, P: Port>(
    session: &'s mwp_msg::Session,
    enrolled: usize,
    q: usize,
    ops: Vec<P::Op>,
    open: impl FnOnce(&'s mwp_msg::MasterEndpoint, u32) -> P,
) -> (P, Result<u32, RuntimeError>) {
    // Wake workers 0..enrolled from their parked receives; the rest of
    // the pool stays blocked and costs nothing beyond their spawn.
    let epoch = session.begin_run(enrolled, q as u32);
    let (master, gen) = (session.master(), epoch.generation());
    let start = Instant::now();
    let mut port = open(master, gen);
    let deadline = session.run_deadline();
    for phase in ops.chunk_by(P::same_phase) {
        let mut todo = phase;
        let mut redo: Vec<P::Op>;
        loop {
            let mut undone = Vec::new();
            for op in todo {
                if deadline.is_some_and(|budget| start.elapsed() > budget) {
                    session.abort_run(enrolled, epoch);
                    return (port, Err(RuntimeError::RunAborted));
                }
                if master.is_dead(P::worker(op)) || !port.perform(op) {
                    master.mark_dead(P::worker(op));
                    undone.push(op.clone());
                }
            }
            if undone.is_empty() {
                break;
            }
            let live: Vec<WorkerId> =
                (0..enrolled).map(WorkerId).filter(|&w| !master.is_dead(w)).collect();
            let Some(ops) = port.redispatch(undone, &live) else {
                session.abort_run(enrolled, epoch);
                return (port, Err(RuntimeError::EmptyFleet));
            };
            redo = ops;
            todo = &redo;
        }
    }
    // Close the run: every enrolled worker parks again for the next one.
    session.finish_run(enrolled, epoch);
    (port, Ok(gen))
}

/// The products of one open run on the master's port: the chunk exchange
/// — ship a C chunk, stream a B-row/A-column step, collect — written
/// once, with every frame stamped with the run's generation and every
/// receive scoped to it.
struct ProductPort<'a> {
    master: &'a mwp_msg::MasterEndpoint,
    gen: u32,
    q: usize,
    /// Recycled buffers for the (mutable, serialize-on-demand) C sends.
    cpool: mwp_msg::BufferPool,
    /// `jobs[jx]` is the product the ops' `job` index `jx` names.
    jobs: Vec<JobCtx>,
    /// `mu[i]` is the chunk side worker `i`'s memory admits.
    mu: &'a [usize],
    /// The jobs' common shared dimension.
    t: usize,
}

impl ProductPort<'_> {
    /// Failure-aware send of one block frame of job `jx`, metered on
    /// delivery.
    fn send(&mut self, wid: WorkerId, jx: usize, tag: Tag, payload: Bytes, blocks: usize) -> bool {
        let frame = Frame::new_in_run(tag, self.gen, payload);
        let sent = self.master.try_send(wid, frame, blocks as u64).is_some();
        if sent {
            self.jobs[jx].moved += blocks as u64;
        }
        sent
    }

    /// Ship chunk `ch` of job `jx`'s C to `wid`: one multi-block frame per
    /// chunk row, serialized into recycled pool buffers (C mutates between
    /// chunks, so its payloads cannot be cached). Returns `false` (with
    /// the worker condemned) if `wid` died mid-ship — the chunk is
    /// untouched on the master and can be replayed verbatim on a survivor.
    fn send_c_rows(&mut self, wid: WorkerId, jx: usize, ch: &Chunk) -> bool {
        let bb = self.q * self.q * 8;
        ch.rows().all(|i| {
            let job = &self.jobs[jx];
            let payload = self.cpool.bytes_with(bb * ch.width, |buf| {
                for j in ch.cols() {
                    job.c.block(i, j).write_bytes_into(buf);
                }
            });
            let tag = Tag::new(FrameKind::BlockC, i + job.row_off, ch.j0 + job.col_off);
            self.send(wid, jx, tag, payload, ch.width)
        })
    }

    /// One k-step of chunk `ch`: a zero-copy B-row frame, then a zero-copy
    /// A-column frame, both views into job `jx`'s payload caches.
    fn send_k_step(&mut self, wid: WorkerId, jx: usize, ch: &Chunk, k: usize) -> bool {
        let job = &self.jobs[jx];
        let b_tag = Tag::new(FrameKind::BlockB, k + job.k_off, ch.j0 + job.col_off);
        let b_row = job.bp.row_run(k, ch.j0, ch.width);
        let a_tag = Tag::new(FrameKind::BlockA, ch.i0 + job.row_off, k + job.k_off);
        let a_col = job.ap.col_run(ch.i0, k, ch.height);
        self.send(wid, jx, b_tag, b_row, ch.width) && self.send(wid, jx, a_tag, a_col, ch.height)
    }

    /// Ask `wid` for chunk `ch` back and commit it into job `jx`'s C — only
    /// once **every** row frame has arrived and checked out. Returns
    /// `false`, with C untouched, when the worker
    /// dies, stays silent past the liveness deadline, or answers with
    /// anything but the chunk's rows: a frame of another kind, a row
    /// outside the chunk or sent twice, a foreign column origin, a payload
    /// that is not exactly `width` blocks. The tags and lengths come from
    /// the worker, so they are checked before they index anything. The
    /// all-or-nothing commit is what makes re-dispatch exact: a
    /// half-returned chunk must not leave C half-updated, or replaying the
    /// chunk would double-accumulate the committed rows.
    fn collect(&mut self, wid: WorkerId, jx: usize, ch: &Chunk) -> bool {
        let request = Frame::new_in_run(Tag::new(FrameKind::Control, 0, 0), self.gen, Bytes::new());
        if self.master.try_send(wid, request, 0).is_none() {
            return false;
        }
        let job = &mut self.jobs[jx];
        let bb = self.q * self.q * 8;
        let mut staged: Vec<Option<Bytes>> = vec![None; ch.height];
        for _ in ch.rows() {
            let row = self.master.recv_deadline(wid, self.gen, ch.width as u64).and_then(|(f, _)| {
                let i = (f.tag.i as usize).checked_sub(job.row_off)?;
                let slot = staged.get_mut(i.checked_sub(ch.i0)?)?;
                let ours = f.tag.kind == FrameKind::CResult
                    && slot.is_none()
                    && f.tag.j as usize == ch.j0 + job.col_off
                    && f.payload.len() == ch.width * bb;
                ours.then(|| *slot = Some(f.payload))
            });
            if row.is_none() {
                return false;
            }
        }
        for (i, payload) in ch.rows().zip(staged) {
            let payload = payload.expect("height distinct in-range rows fill every slot");
            for (j, part) in ch.cols().zip(payload.chunks_exact(bb)) {
                job.c.block_mut(i, j).copy_from_bytes(part);
            }
        }
        job.moved += ch.blocks();
        true
    }
}

impl Port for ProductPort<'_> {
    type Op = PortOp;

    fn worker(op: &PortOp) -> WorkerId {
        op.target().1
    }

    fn perform(&mut self, op: &PortOp) -> bool {
        let (jx, wid, ch) = op.target();
        match *op {
            PortOp::SendC { .. } => self.send_c_rows(wid, jx, &ch),
            PortOp::Step { k, .. } => self.send_k_step(wid, jx, &ch, k),
            PortOp::Collect { .. } => self.collect(wid, jx, &ch),
        }
    }

    /// A chunk is lost when its `Collect` does not commit: the lost
    /// chunks as [`Schedule::redispatch`] — Algorithm 1's rounds over the
    /// live workers whose memory holds a chunk at all, each chunk split to
    /// its adopter's `µ_i`.
    fn redispatch(&self, undone: Vec<PortOp>, live: &[WorkerId]) -> Option<Vec<PortOp>> {
        let live: Vec<WorkerId> =
            live.iter().copied().filter(|w| self.mu[w.index()] > 0).collect();
        let lost = undone.iter().filter_map(|op| match *op {
            PortOp::Collect { job, chunk, .. } => Some((job, chunk)),
            _ => None,
        });
        (!live.is_empty()).then(|| Schedule::redispatch(lost.collect(), &live, self.mu, self.t).ops)
    }
}

/// `schedule`, [`execute`]d as one run of `session` over workers
/// `0..mu.len()`. `jobs` are the products the ops' `job` indices name —
/// all of one shape; a solo run is the list of length one. Returns the
/// run's generation and one [`RunOutcome`] per job, in order, each
/// reporting `workers_used` as given.
///
/// Each C block accumulates its `t` updates in `k`-order inside a single
/// chunk exchange, and a job's C is only mutated by a *complete* collected
/// chunk (see `ProductPort::collect`), so fused results are
/// **bit-identical** to running every job alone, on any schedule, through
/// any recovery.
pub(crate) fn run_products(
    session: &mwp_msg::Session,
    jobs: Vec<Product<'_>>,
    schedule: Schedule,
    mu: &[usize],
    workers_used: usize,
) -> Result<(u32, Vec<RunOutcome>), RuntimeError> {
    let (q, t) = (jobs[0].0.q(), jobs[0].0.cols());
    let start = Instant::now();
    let (port, gen) = execute(session, mu.len(), q, schedule.ops, |master, gen| {
        let jobs = jobs.into_iter().enumerate().map(|(jx, (a, b, c))| JobCtx::new(a, b, c, jx));
        ProductPort { master, gen, q, cpool: mwp_msg::BufferPool::new(), jobs: jobs.collect(), mu, t }
    });
    let (gen, wall) = (gen?, start.elapsed());
    let chunk_side = mu.iter().copied().max().unwrap_or(0);
    let outcomes = port
        .jobs
        .into_iter()
        .map(|ctx| RunOutcome { c: ctx.c, wall, blocks_moved: ctx.moved, workers_used, chunk_side })
        .collect();
    Ok((gen, outcomes))
}

/// Algorithm 1 (the master side of HoLM / ORROML) over workers
/// `0..enrolled` with chunk side `mu`: [`Schedule::algorithm1`] for the
/// jobs' common shape, run by [`run_products`].
pub(crate) fn holm_on(
    session: &RuntimeSession,
    jobs: Vec<Product<'_>>,
    enrolled: usize,
    mu: usize,
) -> Result<(u32, Vec<RunOutcome>), RuntimeError> {
    let (a, b, _) = &jobs[0];
    let problem = mwp_blockmat::Partition::from_blocks(a.rows(), b.cols(), a.cols(), a.q());
    let schedule = Schedule::algorithm1(&problem, mu, enrolled, jobs.len());
    run_products(session.fleet(), jobs, schedule, &vec![mu; enrolled], enrolled)
}

/// Execute `C ← C + A·B` on a **heterogeneous** platform with the
/// two-phase scheme of Section 6.2: phase 1 runs the incremental
/// selection (each selection of `P_i` stands for one step of its resident
/// `µ_i × µ_i` chunk), phase 2 replays it with real blocks — chunk sizes
/// differ per worker, and the master interleaves the per-step `B` row +
/// `A` column messages in exactly the order the selection produced.
pub fn run_heterogeneous(
    platform: &Platform,
    a: &BlockMatrix,
    b: &BlockMatrix,
    c: BlockMatrix,
    rule: crate::selection::incremental::SelectionRule,
    time_scale: f64,
) -> Result<RunOutcome, RuntimeError> {
    plan_heterogeneous(platform, a, b, &c)?;
    with_session(platform, time_scale, |session| session.run_heterogeneous(a, b, c, rule))
}

/// The pure pre-flight of a heterogeneous run: validation + per-worker
/// chunk sides `µ_i`. Same contract as [`plan_holm`].
fn plan_heterogeneous(
    platform: &Platform,
    a: &BlockMatrix,
    b: &BlockMatrix,
    c: &BlockMatrix,
) -> Result<Vec<usize>, RuntimeError> {
    validate_product_shapes(a, b, c)?;
    Ok(heterogeneous_mu(platform)?)
}

/// No worker of the fleet has memory for µ = 1; holds the smallest `m`.
pub(crate) struct MemoryTooSmall(pub(crate) usize);

impl From<MemoryTooSmall> for RuntimeError {
    fn from(MemoryTooSmall(m): MemoryTooSmall) -> Self {
        RuntimeError::MemoryTooSmall { m }
    }
}

/// Per-worker chunk sides `µ_i` for the heterogeneous scheme — pure in
/// the platform description, so a session re-derives it whenever the
/// fleet changes (see [`RuntimeSession::plan_heterogeneous_run`]).
pub(crate) fn heterogeneous_mu(platform: &Platform) -> Result<Vec<usize>, MemoryTooSmall> {
    use crate::layout::MemoryLayout;

    let mu: Vec<usize> = platform
        .workers()
        .iter()
        .map(|w| MemoryLayout::MaxReuseOverlapped.mu(w.m))
        .collect();
    if mu.iter().all(|&m| m == 0) {
        return Err(MemoryTooSmall(platform.workers().iter().map(|w| w.m).min().unwrap_or(0)));
    }
    Ok(mu)
}

/// The heterogeneous two-phase master: [`Schedule::two_phase`] for the
/// session's current fleet (every pooled worker is enrolled), run by
/// [`run_products`]. `workers_used` reports the workers the schedule serves.
pub(crate) fn heterogeneous_on(
    session: &RuntimeSession,
    a: &BlockMatrix,
    b: &BlockMatrix,
    c: BlockMatrix,
    rule: crate::selection::incremental::SelectionRule,
) -> Result<RunOutcome, RuntimeError> {
    let platform = session.platform().ok_or(RuntimeError::EmptyFleet)?;
    validate_product_shapes(a, b, &c)?;
    let mu = session.plan_heterogeneous_run()?;
    let problem = mwp_blockmat::Partition::from_blocks(a.rows(), b.cols(), a.cols(), a.q());
    let schedule = Schedule::two_phase(platform, &mu, rule, &problem);
    let workers_used = schedule.workers().len();
    let (_, mut outcomes) =
        run_products(session.fleet(), vec![(a, b, c)], schedule, &mu, workers_used)?;
    Ok(outcomes.pop().expect("one outcome per job"))
}

/// A resident B block together with its prepacked image: packed once
/// when the block arrives (or is overwritten by the next step's row) and
/// reused by every A block that streams against it — the worker-side
/// repack elimination.
struct ResidentB {
    block: Block,
    pack: PackedB,
}

/// Resident state of one open run generation. A worker holds exactly one
/// of these per interleaved run: a [`RuntimeSession`]'s own `run_*` calls
/// never open more than one, while the serving tier ([`crate::serving`])
/// may open several on the same worker at once.
struct RunState {
    /// Block side this run's resident blocks are sized for.
    q: usize,
    /// Resident C chunk, indexed by block row: c_rows[i] = [(j, block)].
    c_rows: BlockIndexMap<Vec<(usize, Block)>>,
    /// The current B row (block + prepack), indexed by block column.
    b_row: BlockIndexMap<ResidentB>,
    /// Resident C blocks held — this run's term of the memory invariant.
    c_count: usize,
    /// The single in-flight A block of this run.
    a_scratch: Block,
}

/// Per-worker state that survives across a session's runs: recycled block
/// storage, retired per-run chunk/row maps, and the B pack buffers, so a
/// pooled worker serving its second run re-allocates nothing (as long as
/// the block side is unchanged — a run with a different `q` re-bases the
/// block scratch; pack buffers are shape-agnostic and stay warm across
/// any `q` change).
pub(crate) struct WorkerState {
    /// Block side the recycled scratch blocks are sized for (0 = unsized).
    /// Blocks only recycle to/from runs of this side; a run with a
    /// different `q` opening into an otherwise idle worker re-bases the
    /// pool to its side.
    spare_q: usize,
    /// Recycled block storage (scratch, not resident data).
    spare: Vec<Block>,
    /// Recycled pack buffers (high-water capacity kept across runs).
    spare_packs: Vec<PackedB>,
    /// Retired [`RunState`]s — their warmed-up maps recycle across runs.
    idle: Vec<RunState>,
    /// The open run generations this worker is currently serving.
    runs: HashMap<u32, RunState>,
}

impl WorkerState {
    pub(crate) fn new() -> Self {
        WorkerState {
            spare_q: 0,
            spare: Vec::new(),
            spare_packs: Vec::new(),
            idle: Vec::new(),
            runs: HashMap::new(),
        }
    }

    /// Open run generation `gen` with block side `q`, recycling a retired
    /// [`RunState`] when one is warm. With no other run open, a `q`
    /// change re-bases the recycled block pool to the new side (the
    /// historical between-runs reset); while other runs are in flight the
    /// pool keeps its side and mismatched runs simply allocate fresh.
    ///
    /// Panics if `gen` is already open — the master never reopens a live
    /// generation, so a duplicate `RUN_BEGIN` means the session got
    /// desynced (e.g. reused after a master panic mid-run).
    fn open(&mut self, gen: u32, q: usize) {
        if self.runs.is_empty() && self.spare_q != q {
            self.spare_q = q;
            self.spare.clear();
        }
        let mut st = self.idle.pop().unwrap_or_else(|| RunState {
            q: 0,
            c_rows: BlockIndexMap::default(),
            b_row: BlockIndexMap::default(),
            c_count: 0,
            a_scratch: Block::zeros(1),
        });
        if st.q != q {
            st.q = q;
            st.a_scratch = Block::zeros(q);
        }
        // The retire path drains both maps; a defensive clear keeps a
        // desynced run from leaking into this one.
        st.c_rows.clear();
        for (_, resident) in st.b_row.drain() {
            self.spare_packs.push(resident.pack);
        }
        st.c_count = 0;
        assert!(
            self.runs.insert(gen, st).is_none(),
            "RUN_BEGIN for generation {gen} which is already open: \
             session reused after an aborted run"
        );
    }

    /// Retire run generation `gen` (orderly end or abort — either way any
    /// still-resident blocks are recycled; the master never commits a
    /// partial chunk, so discarding them loses nothing). Returns how many
    /// runs stay open.
    fn close(&mut self, gen: u32) -> usize {
        let mut st = self
            .runs
            .remove(&gen)
            .unwrap_or_else(|| panic!("RUN_END/RUN_ABORT for unopened generation {gen}"));
        let recycle_blocks = st.q == self.spare_q;
        for (_, row) in st.c_rows.drain() {
            if recycle_blocks {
                self.spare.extend(row.into_iter().map(|(_, blk)| blk));
            }
        }
        for (_, resident) in st.b_row.drain() {
            if recycle_blocks {
                self.spare.push(resident.block);
            }
            self.spare_packs.push(resident.pack);
        }
        st.c_count = 0;
        self.idle.push(st);
        self.runs.len()
    }
}

/// Algorithm 2: the worker program, serving **one wake** of a session —
/// which may span several interleaved run generations.
///
/// Per open generation it holds the resident C chunk (indexed by block
/// row, so an incoming `A` block touches exactly its row instead of
/// scanning the whole chunk) and the current `B` row, and applies each
/// incoming `A` block to every column of that generation's chunk. Every
/// frame routes to its generation by the wire header's `run` field: the
/// wake-up `RUN_BEGIN` opens the first generation, a further `RUN_BEGIN`
/// arriving mid-serve opens another alongside it (the serving tier's
/// interleaved job runs — see [`crate::serving`]), `Control` requests
/// that generation's chunk back, and `RUN_END`/`RUN_ABORT` retire it.
/// The worker parks only when its last open generation retires;
/// `Shutdown` (or a dropped master) ends the thread. Asserts the memory
/// invariant (`resident blocks ≤ m`, summed over the open generations)
/// the paper's layout — and the serving tier's admission control —
/// guarantees.
///
/// The receive path is allocation-free at steady state: incoming payloads
/// are copied into recycled scratch blocks (`state.spare` holds blocks
/// from returned chunks and retired `B` rows, surviving across runs), the
/// in-flight `A` block lives in one reused scratch, and result payloads
/// are built in the endpoint's buffer pool.
///
/// Each resident B block is **packed once on arrival** and the pack is
/// reused by every A block of the step (the paper keeps B resident on the
/// worker precisely so A can stream against it — repacking per update was
/// pure waste). Pack buffers are recycled alongside the scratch blocks,
/// so a held session keeps them warm across runs.
pub(crate) fn serve_run(
    ep: &WorkerEndpoint,
    q: usize,
    memory_cap: usize,
    state: &mut WorkerState,
) -> RunExit {
    // The block-update kernel, resolved per wake from the cached
    // dispatch table — block updates in the loop below never touch
    // dispatch again.
    let kernel = mwp_blockmat::kernel::active();
    // The generation that woke this worker: the outer loop consumed its
    // RUN_BEGIN, whose header generation the endpoint adopted.
    state.open(ep.current_run(), q);
    loop {
        let frame = match ep.recv() {
            Ok(f) => f,
            Err(_) => return RunExit::Terminate, // master gone
        };
        let gen = frame.run;
        match frame.tag.kind {
            FrameKind::BlockC => {
                // A run of chunk-row blocks: row i, columns j0, j0+1, …
                let WorkerState { runs, spare, spare_q, .. } = &mut *state;
                let run = runs
                    .get_mut(&gen)
                    .unwrap_or_else(|| panic!("C frame for unopened generation {gen}"));
                let bb = run.q * run.q * 8;
                let (i, j0) = (frame.tag.i as usize, frame.tag.j as usize);
                for (w, part) in frame.payload.chunks_exact(bb).enumerate() {
                    let mut blk = if run.q == *spare_q { spare.pop() } else { None }
                        .unwrap_or_else(|| Block::zeros(run.q));
                    blk.copy_from_bytes(part);
                    run.c_rows.entry(i).or_default().push((j0 + w, blk));
                    run.c_count += 1;
                }
            }
            FrameKind::BlockB => {
                // A run of B row blocks for columns j0, j0+1, …; the step
                // index k is implicit in per-generation FIFO order (each
                // step overwrites the previous step's row). Every
                // overwrite invalidates the old pack, so the block is
                // repacked here, exactly once per arrival, and reused by
                // all of this step's A blocks.
                let WorkerState { runs, spare, spare_packs, spare_q, .. } = &mut *state;
                let run = runs
                    .get_mut(&gen)
                    .unwrap_or_else(|| panic!("B frame for unopened generation {gen}"));
                let q = run.q;
                let bb = q * q * 8;
                let j0 = frame.tag.j as usize;
                for (w, part) in frame.payload.chunks_exact(bb).enumerate() {
                    let resident = run.b_row.entry(j0 + w).or_insert_with(|| ResidentB {
                        block: if q == *spare_q { spare.pop() } else { None }
                            .unwrap_or_else(|| Block::zeros(q)),
                        pack: spare_packs.pop().unwrap_or_default(),
                    });
                    resident.block.copy_from_bytes(part);
                    let tp = record::begin();
                    resident.block.pack_b_for(kernel, &mut resident.pack);
                    record::worker_span(ep.id(), ActivityKind::Pack, tp, gen, "pack B");
                }
            }
            FrameKind::BlockA => {
                // A run of A column blocks for rows i0, i0+1, …; each one
                // updates its row of its generation's chunk through that
                // generation's reused scratch block: C[i][j] += A · B[j].
                let run = state
                    .runs
                    .get_mut(&gen)
                    .unwrap_or_else(|| panic!("A frame for unopened generation {gen}"));
                let bb = run.q * run.q * 8;
                let RunState { c_rows, b_row, a_scratch, .. } = run;
                let i0 = frame.tag.i as usize;
                for (w, part) in frame.payload.chunks_exact(bb).enumerate() {
                    let Some(row) = c_rows.get_mut(&(i0 + w)) else { continue };
                    // One Compute span per processed A block (the
                    // simulator's unit of worker occupancy), with one
                    // Kernel detail span per GEMM call inside it.
                    let tc = record::begin();
                    a_scratch.copy_from_bytes(part);
                    for (cj, c_block) in row.iter_mut() {
                        let resident = b_row
                            .get(cj)
                            .expect("B row must arrive before the A column (FIFO)");
                        let tk = record::begin();
                        c_block.gemm_acc_prepacked(kernel, a_scratch, &resident.pack);
                        record::worker_span(ep.id(), ActivityKind::Kernel, tk, gen, "gemm");
                    }
                    record::worker_span(ep.id(), ActivityKind::Compute, tc, gen, "A update");
                }
            }
            FrameKind::Control if frame.tag.i == RUN_END || frame.tag.i == RUN_ABORT => {
                // Orderly end (chunk already returned and drained) or
                // cooperative abort (the master gave up; it never commits
                // a partial chunk, so discarding the residents loses
                // nothing). Either way the generation retires and its
                // storage recycles; park only once no generation is open.
                if state.close(gen) == 0 {
                    // Run boundary: persist this process's spans — for an
                    // out-of-process worker nobody else will (the
                    // master's session-side flush is a different process).
                    record::flush();
                    return RunExit::Completed;
                }
            }
            FrameKind::Control if frame.tag.i == RUN_BEGIN => {
                // Another run generation opens while this worker is
                // already serving — the serving tier's interleaved job
                // runs. Its frames carry their own generation, so the
                // open runs never mix. (Reopening a generation that is
                // still open panics in `open` — that is the historical
                // "session reused after an aborted run" guard.)
                state.open(gen, frame.tag.j as usize);
            }
            FrameKind::Control => {
                // Return this generation's chunk in deterministic (i, j)
                // order — one run frame per chunk row, built in the
                // endpoint's buffer pool, stamped with the generation it
                // belongs to — then recycle every resident block for the
                // generation's next chunk.
                let WorkerState { runs, spare, spare_packs, spare_q, .. } = &mut *state;
                let run = runs
                    .get_mut(&gen)
                    .unwrap_or_else(|| panic!("collect for unopened generation {gen}"));
                let bb = run.q * run.q * 8;
                let mut rows: Vec<usize> = run.c_rows.keys().copied().collect();
                rows.sort_unstable();
                for i in rows {
                    let mut row = run.c_rows.remove(&i).expect("row just listed");
                    row.sort_unstable_by_key(|(j, _)| *j);
                    let j0 = row.first().expect("rows are never empty").0;
                    let payload = ep.pooled_payload(row.len() * bb, |buf| {
                        for (w, (j, block)) in row.iter().enumerate() {
                            debug_assert_eq!(*j, j0 + w, "chunk rows are contiguous");
                            block.write_bytes_into(buf);
                        }
                    });
                    ep.send_in(gen, Frame::new(Tag::new(FrameKind::CResult, i, j0), payload));
                    run.c_count -= row.len();
                    if run.q == *spare_q {
                        spare.extend(row.into_iter().map(|(_, blk)| blk));
                    }
                }
                for (_, resident) in run.b_row.drain() {
                    if run.q == *spare_q {
                        spare.push(resident.block);
                    }
                    spare_packs.push(resident.pack);
                }
            }
            FrameKind::Shutdown => {
                // The worker process may exit right after this returns:
                // wait for the writer thread, don't just hand off.
                record::sync();
                return RunExit::Terminate;
            }
            FrameKind::CResult | FrameKind::LuPanel | FrameKind::Heartbeat => {
                // Heartbeats are swallowed inside `WorkerEndpoint::recv`
                // before a program ever sees a frame.
                unreachable!("master never sends {:?}", frame.tag.kind)
            }
        }
        // The paper's memory invariant: resident blocks never exceed m,
        // now summed over every open generation (+1 per generation for
        // its A block in flight; `spare` holds recycled storage, not
        // resident matrix data). The serving tier's admission control
        // keeps concurrent jobs under this bound by construction.
        let resident: usize = state.runs.values().map(|r| r.c_count + r.b_row.len()).sum();
        assert!(
            resident + state.runs.len() <= memory_cap,
            "worker exceeded its memory: {resident} resident + {} in-flight A > {memory_cap}",
            state.runs.len(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwp_blockmat::fill::random_matrix;
    use mwp_blockmat::gemm::verify_product;

    fn platform(p: usize, m: usize) -> Platform {
        Platform::homogeneous(p, 4.0, 1.0, m).unwrap()
    }

    #[test]
    fn holm_computes_the_product() {
        let pf = platform(4, 60); // µ = 6
        let q = 8;
        let a = random_matrix(5, 7, q, 1);
        let b = random_matrix(7, 9, q, 2);
        let c0 = random_matrix(5, 9, q, 3);
        let out = run_holm(&pf, &a, &b, c0.clone(), 0.0).unwrap();
        let err = verify_product(&out.c, &c0, &a, &b, 1e-9)
            .unwrap_or_else(|e| panic!("result off by {e}"));
        assert!(err < 1e-9);
        assert!(out.workers_used >= 1);
        assert!(out.blocks_moved > 0);
    }

    #[test]
    fn all_workers_variant_also_correct() {
        let pf = platform(3, 32); // µ = 4
        let q = 4;
        let a = random_matrix(6, 4, q, 10);
        let b = random_matrix(4, 8, q, 11);
        let c0 = random_matrix(6, 8, q, 12);
        let out = run_all_workers(&pf, &a, &b, c0.clone(), 0.0).unwrap();
        assert!(verify_product(&out.c, &c0, &a, &b, 1e-9).is_ok());
        assert_eq!(out.workers_used, 3);
    }

    #[test]
    fn resource_selection_uses_fewer_workers() {
        // Comm-bound: HoLM should enroll fewer than all 6.
        let pf = platform(6, 60);
        let q = 4;
        let a = random_matrix(6, 6, q, 20);
        let b = random_matrix(6, 12, q, 21);
        let c0 = random_matrix(6, 12, q, 22);
        let holm = run_holm(&pf, &a, &b, c0.clone(), 0.0).unwrap();
        let all = run_all_workers(&pf, &a, &b, c0, 0.0).unwrap();
        assert!(holm.workers_used < all.workers_used);
        // Identical communication volume: same layout, same chunking at
        // the same µ.
        if holm.chunk_side == all.chunk_side {
            assert_eq!(holm.blocks_moved, all.blocks_moved);
        }
    }

    #[test]
    fn single_worker_runs() {
        let pf = platform(1, 21); // µ: µ²+4µ ≤ 21 -> 2
        let q = 4;
        let a = random_matrix(3, 3, q, 30);
        let b = random_matrix(3, 3, q, 31);
        let c0 = random_matrix(3, 3, q, 32);
        let out = run_holm(&pf, &a, &b, c0.clone(), 0.0).unwrap();
        assert!(verify_product(&out.c, &c0, &a, &b, 1e-9).is_ok());
        assert_eq!(out.workers_used, 1);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let pf = platform(2, 60);
        let a = random_matrix(2, 3, 4, 1);
        let b = random_matrix(2, 2, 4, 2); // wrong inner dim
        let c0 = random_matrix(2, 2, 4, 3);
        assert_eq!(
            run_holm(&pf, &a, &b, c0, 0.0).unwrap_err(),
            RuntimeError::ShapeMismatch
        );
    }

    #[test]
    fn heterogeneous_rejected() {
        let pf = Platform::new(vec![
            mwp_platform::WorkerParams::new(1.0, 1.0, 60),
            mwp_platform::WorkerParams::new(2.0, 2.0, 60),
        ])
        .unwrap();
        let a = random_matrix(2, 2, 4, 1);
        let b = random_matrix(2, 2, 4, 2);
        let c0 = random_matrix(2, 2, 4, 3);
        assert_eq!(
            run_holm(&pf, &a, &b, c0, 0.0).unwrap_err(),
            RuntimeError::HeterogeneousPlatform
        );
    }

    #[test]
    fn too_small_memory_is_an_error_with_or_without_selection() {
        let pf = platform(2, 4); // µ² + 4µ ≤ 4 has no µ ≥ 1
        let a = random_matrix(2, 2, 4, 1);
        let b = random_matrix(2, 2, 4, 2);
        let c0 = random_matrix(2, 2, 4, 3);
        let too_small = RuntimeError::MemoryTooSmall { m: 4 };
        assert_eq!(run_all_workers(&pf, &a, &b, c0.clone(), 0.0).unwrap_err(), too_small);
        assert_eq!(run_holm(&pf, &a, &b, c0.clone(), 0.0).unwrap_err(), too_small);
        // A session that already exists answers the same way, and stays
        // usable: both calls go through its one plan cache.
        let session = RuntimeSession::new(&pf, 0.0);
        assert_eq!(session.run_holm(&a, &b, c0.clone()).unwrap_err(), too_small);
        assert_eq!(session.run_all_workers(&a, &b, c0).unwrap_err(), too_small);
        assert_eq!(session.shutdown(), 2);
    }

    #[test]
    fn heterogeneous_runtime_computes_the_product() {
        use crate::selection::incremental::SelectionRule;
        // The paper's Table 2 platform with very different µ_i per worker.
        let pf = Platform::new(vec![
            mwp_platform::WorkerParams::new(2.0, 2.0, 60),
            mwp_platform::WorkerParams::new(3.0, 3.0, 396),
            mwp_platform::WorkerParams::new(5.0, 1.0, 140),
        ])
        .unwrap();
        let q = 4;
        let (r, t, s) = (20, 6, 25);
        let a = random_matrix(r, t, q, 51);
        let b = random_matrix(t, s, q, 52);
        let c0 = random_matrix(r, s, q, 53);
        for rule in [SelectionRule::Global, SelectionRule::Local] {
            let out = run_heterogeneous(&pf, &a, &b, c0.clone(), rule, 0.0)
                .unwrap_or_else(|e| panic!("{rule:?}: {e}"));
            verify_product(&out.c, &c0, &a, &b, 1e-9)
                .unwrap_or_else(|e| panic!("{rule:?}: result off by {e}"));
            assert!(out.workers_used >= 2, "{rule:?} used {} workers", out.workers_used);
        }
    }

    #[test]
    fn heterogeneous_runtime_handles_tiny_grids() {
        use crate::selection::incremental::SelectionRule;
        let pf = Platform::new(vec![
            mwp_platform::WorkerParams::new(1.0, 1.0, 60),
            mwp_platform::WorkerParams::new(2.0, 2.0, 140),
        ])
        .unwrap();
        let q = 4;
        let a = random_matrix(2, 3, q, 61);
        let b = random_matrix(3, 2, q, 62);
        let c0 = random_matrix(2, 2, q, 63);
        let out =
            run_heterogeneous(&pf, &a, &b, c0.clone(), SelectionRule::Global, 0.0).unwrap();
        assert!(verify_product(&out.c, &c0, &a, &b, 1e-9).is_ok());
    }

    #[test]
    fn communication_volume_matches_formula() {
        // Blocks moved = 2·(C blocks) + t·(µ-row of B + µ-col of A per
        // chunk) summed over chunks.
        let pf = platform(2, 60); // µ = 6
        let q = 4;
        let (r, t, s) = (6, 5, 12);
        let a = random_matrix(r, t, q, 41);
        let b = random_matrix(t, s, q, 42);
        let c0 = random_matrix(r, s, q, 43);
        let out = run_all_workers(&pf, &a, &b, c0, 0.0).unwrap();
        let mu = out.chunk_side as u64;
        let n_chunks = ((r as u64).div_ceil(mu)) * ((s as u64).div_ceil(mu));
        let expected = 2 * (r as u64 * s as u64) // C out + back
            + n_chunks * (t as u64) * 2 * mu; // per chunk per k: µ B + µ A
        assert_eq!(out.blocks_moved, expected);
    }
}
