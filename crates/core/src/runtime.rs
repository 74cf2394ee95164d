//! Threaded execution of the paper's homogeneous algorithm with real
//! arithmetic.
//!
//! This is the counterpart of the MPI programs behind Section 8: the
//! master (the calling thread) runs Algorithm 1 — resource selection,
//! C-chunk distribution, per-step `B` row + `A` block streaming, result
//! collection — over the [`mwp_msg`] message layer, while each worker
//! thread runs Algorithm 2 — receive, update its resident `µ × µ` C chunk
//! with real GEMMs, one per `A` block against the step's whole `B` row,
//! return the chunk.
//!
//! The master side is one executor (`execute`): every runtime here —
//! HoLM, ORROML, a fused serving batch, the heterogeneous two-phase scheme
//! — plans, asks [`crate::schedule`] for the run's [`Schedule`], and has
//! the executor walk it over the session through the one chunk exchange
//! ([`ChunkExchange`]). What the master sends next is the generator's
//! business; what happens when a worker dies, or when the whole-run
//! deadline passes, is the executor's, in one place. LU's factorization
//! (`mwp_lu`) runs on the same fleet and the same worker program: either
//! each worker owns block rows for the whole run — dealt as `LuRow`
//! frames, factoring the pivots it owns on an `LuPivot` request and taking
//! each step on its rows from a forwarded pivot — or its trailing updates
//! are chunk exchanges and its pivot chain the `LuPanel` exchange
//! ([`panel_parts`]).
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
use mwp_blockmat::kernel::{Kernel, PackedB};
use mwp_blockmat::lu::{try_lu_blocked_with, trsm_left_unit_lower_with, trsm_right_upper_with, Dense, NB};
use mwp_blockmat::{Block, BlockMatrix, BlockOrder, SharedPayloads};
use mwp_msg::session::{RunExit, RUN_ABORT, RUN_BEGIN, RUN_END};
use mwp_msg::{Frame, FrameKind, Tag, WorkerEndpoint};
use mwp_platform::{Platform, WorkerId};
use mwp_trace::{record, ActivityKind};
use std::borrow::Cow;
use std::collections::HashMap;
use std::time::Instant;

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
    /// A live worker refused an op's input (an LU pivot it cannot take),
    /// and so did the second worker asked, if the run had one: an answer,
    /// not a death, so the master aborted the run as for
    /// [`RuntimeError::RunAborted`] and no worker was condemned.
    Refused,
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
            RuntimeError::Refused => write!(f, "run aborted: a worker refused its input"),
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

/// The plan of a HoLM/ORROML run on `platform` — validation + resource
/// selection, no side effects: `(enrolled, µ)`. Every caller runs it on
/// the fleet as it stands: the one-shot wrappers on theirs **before** any
/// session exists (a rejected call costs no worker-pool spawn), a session
/// or the serving tier on [`RuntimeSession::platform`] for every run.
pub(crate) fn plan_holm(
    platform: &Platform,
    a: &BlockMatrix,
    b: &BlockMatrix,
    c: &BlockMatrix,
    select: bool,
) -> Result<(usize, usize), RuntimeError> {
    validate_product_shapes(a, b, c)?;
    select_enrollment(platform, a.rows(), b.cols(), select)
}

/// The shape gate every product run passes.
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
/// selection, or the whole fleet under ORROML.
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

/// One product `C ← C + A·B` of an open run: its factors as the steps
/// read them, where its C lives, its traffic meter, and the tag offsets
/// that keep its frame coordinates disjoint from every other product fused
/// into the same run.
struct JobCtx<'a> {
    /// A by block columns, so a column stretch is one slice.
    ap: Operand<'a>,
    /// B by block rows, so a row stretch is one slice. Every send is a
    /// refcount bump into these shared images (a B row fanned out to all
    /// enrolled workers costs one buffer total).
    bp: Operand<'a>,
    /// The exchange's accumulator this product updates, and where in it:
    /// chunk block `(i, j)` is block `(i + at, j + at)` there.
    c: usize,
    at: usize,
    /// Matrix blocks this product moved through the port, both ways.
    moved: u64,
    /// Added to a chunk's block row, block column and `k` on the wire.
    off: [usize; 3],
}

impl<'a> JobCtx<'a> {
    /// The `jx`-th product of a run, updating accumulator `jx`: its tags
    /// shift by `jx·(r, s, t)` (a solo run is product 0, offsets 0), while
    /// the payload bytes stay exactly what a solo run would ship.
    fn new(a: &'a BlockMatrix, b: &'a BlockMatrix, jx: usize) -> Self {
        JobCtx {
            ap: Operand::new(a, BlockOrder::ColMajor),
            bp: Operand::new(b, BlockOrder::RowMajor),
            c: jx,
            at: 0,
            moved: 0,
            off: [jx * a.rows(), jx * b.cols(), jx * a.cols()],
        }
    }
}

/// One factor of a product as its steps read it — A by block columns, B
/// by block rows — serialized in groups of steps, each on its first use.
/// Each group covers as many steps as all the groups before it (1, 1, 2,
/// 4, … steps), so a run's first frames wait for one step of the image,
/// not all `t`, and each later group is written while the workers compute
/// the steps before it. A group is one buffer of the master endpoint's
/// operand pool ([`mwp_msg::MasterEndpoint::pooled_operand`]), which the
/// next run of the session writes into again instead of faulting in fresh
/// pages; each step's stretch is still one zero-copy slice, with the bytes
/// of [`SharedPayloads::new`] / `new_col_major`.
struct Operand<'a> {
    /// The factor and its order, while groups remain to serialize; `None`
    /// for a prebuilt image.
    src: Option<(&'a BlockMatrix, BlockOrder)>,
    /// The groups serialized so far, in step order, each with its first
    /// step.
    groups: Vec<(usize, SharedPayloads)>,
    /// Steps the groups cover, of `steps`.
    covered: usize,
    steps: usize,
}

impl<'a> Operand<'a> {
    /// `m` in `order`, nothing serialized yet.
    fn new(m: &'a BlockMatrix, order: BlockOrder) -> Self {
        let steps = match order {
            BlockOrder::RowMajor => m.rows(),
            BlockOrder::ColMajor => m.cols(),
        };
        Operand { src: Some((m, order)), groups: Vec::new(), covered: 0, steps }
    }

    /// A prebuilt image of `steps` steps, as one group.
    fn whole(image: SharedPayloads, steps: usize) -> Self {
        Operand { src: None, groups: vec![(0, image)], covered: steps, steps }
    }

    /// The group holding step `k`, and `k`'s step within it; serializes
    /// the groups up to `k`'s that are not yet.
    fn step(&mut self, master: &mwp_msg::MasterEndpoint, k: usize) -> (&SharedPayloads, usize) {
        while self.covered <= k {
            #[allow(clippy::expect_used, reason = "a prebuilt image covers every step, so only a source is serialized")]
            let (m, order) = self.src.expect("a prebuilt image covers every step");
            let (first, n) = (self.covered, self.covered.clamp(1, self.steps - self.covered));
            let image = master.pooled_operand(m.byte_len() / self.steps * n, |buf| {
                m.write_block_bytes(order, first..first + n, buf);
            });
            let (rows, cols) = match order {
                BlockOrder::RowMajor => (n, m.cols()),
                BlockOrder::ColMajor => (m.rows(), n),
            };
            self.groups.push((first, SharedPayloads::from_bytes(image, rows, cols, m.q(), order)));
            self.covered += n;
        }
        #[allow(clippy::expect_used, reason = "the loop above serialized step k's group, and the first starts at step 0")]
        let (first, image) = self.groups.iter().rfind(|&&(first, _)| first <= k).expect("the first group starts at step 0");
        (image, k - first)
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

    /// Send or receive `op`'s frames, and say what became of them.
    fn perform(&mut self, op: &Self::Op) -> Performed;

    /// The ops that redo, on workers of `live` (ascending), the work the
    /// `undone` ops of one phase lost; `None` when no live worker can
    /// adopt it.
    fn redispatch(&mut self, undone: Vec<Self::Op>, live: &[WorkerId]) -> Option<Vec<Self::Op>>;
}

/// What became of one op on the port ([`Port::perform`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Performed {
    /// Its frames crossed, and its reply, if it has one, validated.
    Done,
    /// The worker died, stayed silent past the liveness deadline or
    /// answered with anything but what the op asked for, and master
    /// state is untouched: the executor condemns the worker and
    /// re-dispatches the op.
    Lost,
    /// A live worker answered that it refuses the op's input. The
    /// executor asks a second live worker: if it refuses too, the answer
    /// is the input's, no one is condemned and the run is aborted
    /// ([`RuntimeError::Refused`]); if it does the op, the refuser is
    /// condemned.
    Refused,
}

/// The one master executor: `ops`, walked in order as one run of
/// `session`'s persistent worker pool over `workers` — the run's slots,
/// as the session's memory ledger placed them — through the port `open`
/// builds for the run's generation. Returns the port — whatever state the
/// ops left in it — and the run's generation, or why the run was aborted.
///
/// **Recovery is one rule.** An op whose worker is dead is skipped, and a
/// worker an op fails on is condemned
/// ([`mwp_msg::MasterEndpoint::mark_dead`]). At the end of each phase
/// ([`Port::same_phase`]) — every op issued, so every live link drained
/// of the replies it owes — the undone ops run again as
/// [`Port::redispatch`] over the run's live workers, until none is
/// undone. Re-dispatch is exact replay: an op only
/// mutates master state with a *complete*, validated reply, so a lost
/// op's frames regenerate bit-identically for whichever survivor adopts
/// it. With no live worker of the run left to adopt, the run is aborted
/// ([`RuntimeError::EmptyFleet`]).
///
/// **A refusal needs a second opinion.** An op a live worker refuses
/// ([`Performed::Refused`]) runs once more, as [`Port::redispatch`] puts
/// it on the lowest other live worker of the run. If that worker does it,
/// the refuser is condemned and the run goes on; if it refuses too, or
/// the run has no other live worker, the run is aborted
/// ([`RuntimeError::Refused`]) and no one is condemned — one worker's
/// word cannot veto an input, and one input cannot cost a worker.
///
/// The whole-run budget ([`mwp_msg::Session::run_deadline`], counted from
/// before the port is opened) is checked before every op, and ends the run with
/// [`RuntimeError::RunAborted`]. The executor admits and places nothing
/// itself: [`RuntimeSession::execute`], its one caller, reserves the
/// run's footprint on the workers the fleet's memory ledger picks first.
pub fn execute<'s, P: Port>(
    session: &'s mwp_msg::Session,
    workers: &[WorkerId],
    q: usize,
    ops: Vec<P::Op>,
    open: impl FnOnce(&'s mwp_msg::MasterEndpoint, u32) -> P,
) -> (P, Result<u32, RuntimeError>) {
    // Wake the run's workers from their parked receives; the rest of the
    // pool stays blocked and costs nothing beyond their spawn.
    let epoch = session.begin_run_on(workers, q as u32);
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
                    session.abort_run_on(workers, epoch);
                    return (port, Err(RuntimeError::RunAborted));
                }
                let performed = if master.is_dead(P::worker(op)) { Performed::Lost } else { port.perform(op) };
                match performed {
                    Performed::Done => {}
                    Performed::Lost => {
                        master.mark_dead(P::worker(op));
                        undone.push(op.clone());
                    }
                    Performed::Refused => {
                        let refuser = P::worker(op);
                        let second = workers.iter().copied().find(|&w| w != refuser && !master.is_dead(w));
                        let Some(retry) = second.and_then(|w| port.redispatch(vec![op.clone()], &[w])) else {
                            session.abort_run_on(workers, epoch);
                            return (port, Err(RuntimeError::Refused));
                        };
                        let mut done = true;
                        for op in retry {
                            match port.perform(&op) {
                                Performed::Done => {}
                                Performed::Lost => {
                                    master.mark_dead(P::worker(&op));
                                    undone.push(op);
                                    done = false;
                                }
                                Performed::Refused => {
                                    session.abort_run_on(workers, epoch);
                                    return (port, Err(RuntimeError::Refused));
                                }
                            }
                        }
                        if done {
                            master.mark_dead(refuser);
                        }
                    }
                }
            }
            if undone.is_empty() {
                break;
            }
            let live: Vec<WorkerId> = workers.iter().copied().filter(|&w| !master.is_dead(w)).collect();
            let Some(ops) = port.redispatch(undone, &live) else {
                session.abort_run_on(workers, epoch);
                return (port, Err(RuntimeError::EmptyFleet));
            };
            redo = ops;
            todo = &redo;
        }
    }
    // Close the run: each of its workers parks again for the next one.
    session.finish_run_on(workers, epoch);
    (port, Ok(gen))
}

/// What a chunk exchange accumulates into: a matrix read and written one
/// stretch of a block row at a time, as the wire image of its `q × q`
/// blocks — a product's [`BlockMatrix`], or a factorization's borrow of
/// its input, copied at the first commit. A chunk ships and commits
/// through it one row per call.
pub trait Accumulator {
    /// The image of blocks `(i, j0..j0 + w)`, built in `master`'s
    /// recycled buffers.
    fn row(&self, master: &mwp_msg::MasterEndpoint, at: (usize, usize), w: usize) -> Bytes;
    /// Overwrite blocks `(i, j0..)` with `payload`, the images of as many
    /// blocks as it holds.
    fn commit_row(&mut self, at: (usize, usize), payload: Bytes);
}

impl Accumulator for BlockMatrix {
    fn row(&self, master: &mwp_msg::MasterEndpoint, (i, j0): (usize, usize), w: usize) -> Bytes {
        let bb = self.q() * self.q() * 8;
        master.pooled_payload(bb * w, |buf| (j0..j0 + w).for_each(|j| self.block(i, j).write_bytes_into(buf)))
    }

    fn commit_row(&mut self, (i, j0): (usize, usize), payload: Bytes) {
        for (j, image) in (j0..).zip(payload.chunks_exact(self.q() * self.q() * 8)) {
            self.block_mut(i, j).copy_from_bytes(image);
        }
    }
}

/// A borrowed matrix is copied at its first commit, so a run that commits
/// nothing copies nothing.
impl Accumulator for Cow<'_, BlockMatrix> {
    fn row(&self, master: &mwp_msg::MasterEndpoint, at: (usize, usize), w: usize) -> Bytes {
        (**self).row(master, at, w)
    }

    fn commit_row(&mut self, at: (usize, usize), payload: Bytes) {
        self.to_mut().commit_row(at, payload);
    }
}

/// The products of one open run on the master's port: the chunk exchange
/// — ship a C chunk, stream a B-row/A-column step, collect — written
/// once, with every frame stamped with the run's generation and every
/// receive scoped to it. The product runtimes run it as their [`Port`];
/// LU's factorization drives it for its trailing updates.
pub struct ChunkExchange<'a, C = BlockMatrix> {
    master: &'a mwp_msg::MasterEndpoint,
    gen: u32,
    q: usize,
    /// The matrices the products accumulate into.
    c: Vec<C>,
    /// `jobs[jx]` is the product the ops' `job` index `jx` names.
    jobs: Vec<JobCtx<'a>>,
    /// `mu[i]` is the chunk side worker `i` holds in this run.
    mu: Vec<usize>,
    /// The products' common shared dimension.
    t: usize,
    /// Frames that crossed the port for the run, either way.
    frames: u64,
    /// Blocks the run's other exchanges ([`ChunkExchange::post`], [`ChunkExchange::take`]) moved.
    exchanged: u64,
    /// Per worker: the job of the chunk last shipped to it. The steps of
    /// that job finish the chunk, so the last of them asks for it back; a
    /// rebuilt chunk takes the steps of earlier jobs first.
    shipped: Vec<usize>,
}

impl<'a, C: Accumulator> ChunkExchange<'a, C> {
    /// The chunk exchanges of `master`'s open run `gen` of block side `q`,
    /// `t` steps deep, into the accumulators `c`, on workers each holding
    /// chunks of side `mu[i]` (0 off the run). It holds no product until
    /// [`ChunkExchange::push`] adds one.
    pub fn new(
        master: &'a mwp_msg::MasterEndpoint,
        gen: u32,
        q: usize,
        c: Vec<C>,
        mu: Vec<usize>,
        t: usize,
    ) -> Self {
        let shipped = vec![0; mu.len()];
        ChunkExchange { master, gen, q, c, jobs: Vec::new(), mu, t, frames: 0, exchanged: 0, shipped }
    }

    /// Add the next product — its `job` index is the number added before
    /// it: `A·B` accumulated into the first accumulator's square sub-grid
    /// from block `(at, at)` on, the way a factorization's trailing update
    /// is a product of its own matrix. `a` holds A's blocks by block
    /// columns, `b` B's by block rows, each one group that covers every
    /// step; the wire carries the accumulator's own block coordinates.
    pub fn push(&mut self, a: SharedPayloads, b: SharedPayloads, at: usize) {
        let steps = a.shape().1;
        let (ap, bp) = (Operand::whole(a, steps), Operand::whole(b, steps));
        self.jobs.push(JobCtx { ap, bp, c: 0, at, moved: 0, off: [at, at, 0] });
    }

    /// How many products [`ChunkExchange::push`] added.
    pub fn products(&self) -> usize {
        self.jobs.len()
    }

    /// The first accumulator.
    pub fn accumulator(&mut self) -> &mut C {
        &mut self.c[0]
    }

    /// One frame of this run's other exchanges — how LU's panels, pivots
    /// and dealt rows cross the port beside its chunks — to `worker`:
    /// `payload` under `tag`, metered as `blocks`. `false` when the worker
    /// died.
    pub fn post(&mut self, worker: WorkerId, tag: Tag, payload: Bytes, blocks: u64) -> bool {
        let sent = self.master.try_send(worker, Frame::new_in_run(tag, self.gen, payload), blocks).is_some();
        if sent {
            (self.frames, self.exchanged) = (self.frames + 1, self.exchanged + blocks);
        }
        sent
    }

    /// The next frame of this run from `worker`, metered as `blocks`.
    /// `None` when the worker died or stayed silent past the liveness
    /// deadline.
    pub fn take(&mut self, worker: WorkerId, blocks: u64) -> Option<Frame> {
        let (reply, _) = self.master.recv_deadline(worker, self.gen, blocks)?;
        (self.frames, self.exchanged) = (self.frames + 1, self.exchanged + blocks);
        Some(reply)
    }

    /// Blocks the run moved through the port, both ways: its products' and
    /// its other exchanges'.
    pub fn moved(&self) -> u64 {
        self.exchanged + self.jobs.iter().map(|job| job.moved).sum::<u64>()
    }

    /// Frames the run moved through the port, either way: every frame
    /// delivered, each committed chunk's request and rows, each frame of
    /// the other exchanges.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Failure-aware send of one block frame of job `jx`, metered on
    /// delivery.
    fn send(&mut self, wid: WorkerId, jx: usize, tag: Tag, payload: Bytes, blocks: usize) -> bool {
        let frame = Frame::new_in_run(tag, self.gen, payload);
        let sent = self.master.try_send(wid, frame, blocks as u64).is_some();
        if sent {
            self.jobs[jx].moved += blocks as u64;
            self.frames += 1;
        }
        sent
    }

    /// Ship chunk `ch` of job `jx`'s C to `wid`: one multi-block frame per
    /// chunk row, each the accumulator's image of that row (C mutates
    /// between chunks, so a product's rows are serialized anew into the
    /// master endpoint's recycled buffers, which outlive the run). Returns
    /// `false` (with the worker condemned) if `wid` died mid-ship — the
    /// chunk is untouched on the master and can be replayed verbatim on a
    /// survivor.
    fn ship_chunk(&mut self, wid: WorkerId, jx: usize, ch: &Chunk) -> bool {
        self.shipped[wid.index()] = jx;
        ch.rows().all(|i| {
            let (job, c) = (&self.jobs[jx], &self.c[self.jobs[jx].c]);
            let payload = c.row(self.master, (i + job.at, ch.j0 + job.at), ch.width);
            let tag = Tag::new(FrameKind::BlockC, i + job.off[0], ch.j0 + job.off[1]);
            self.send(wid, jx, tag, payload, ch.width)
        })
    }

    /// One k-step of chunk `ch`: a B-row frame, then an A-column frame,
    /// both zero-copy views into job `jx`'s operand images — each group
    /// serialized when its first step goes out, the B row's before the A
    /// column's, so the worker packs the row while the master writes the
    /// column. Behind the chunk's last step goes the collect request (an
    /// unmetered control frame), so the worker returns the chunk as soon
    /// as it has computed it, instead of waiting for the master to reach
    /// the chunk's `Collect` — in a round, behind the rows of every worker
    /// collected before it.
    fn send_k_step(&mut self, wid: WorkerId, jx: usize, ch: &Chunk, k: usize) -> bool {
        let (master, job) = (self.master, &mut self.jobs[jx]);
        let b_tag = Tag::new(FrameKind::BlockB, k + job.off[2], ch.j0 + job.off[1]);
        let a_tag = Tag::new(FrameKind::BlockA, ch.i0 + job.off[0], k + job.off[2]);
        let last = k + 1 == job.ap.steps && self.shipped[wid.index()] == jx;
        let (b, kb) = job.bp.step(master, k);
        let b_run = b.row_run(kb, ch.j0, ch.width);
        if !self.send(wid, jx, b_tag, b_run, ch.width) {
            return false;
        }
        let (a, ka) = self.jobs[jx].ap.step(master, k);
        let a_run = a.col_run(ch.i0, ka, ch.height);
        if !self.send(wid, jx, a_tag, a_run, ch.height) {
            return false;
        }
        let request = || Frame::new_in_run(Tag::new(FrameKind::Control, 0, 0), self.gen, Bytes::new());
        !last || master.try_send(wid, request(), 0).is_some()
    }

    /// Receive chunk `ch` back from `wid` — [`ChunkExchange::send_k_step`]
    /// asked for it behind the chunk's last step — and commit it into job
    /// `jx`'s C, only once **every** row frame has arrived and checked
    /// out. The rows come in order: row `r` must be the `CResult` of block
    /// row `i0 + r` from column `j0`, exactly `width` blocks. Returns
    /// `false`, with C untouched, when the worker dies, stays silent past
    /// the liveness deadline, or answers with anything else. The tags and
    /// lengths come from the worker, so they are checked before they index
    /// anything. The all-or-nothing commit is what makes re-dispatch
    /// exact: a half-returned chunk must not leave C half-updated, or
    /// replaying the chunk would double-accumulate the committed rows.
    fn collect(&mut self, wid: WorkerId, jx: usize, ch: &Chunk) -> bool {
        let job = &mut self.jobs[jx];
        let bb = self.q * self.q * 8;
        let mut rows = Vec::with_capacity(ch.height);
        for i in ch.rows() {
            let tag = Tag::new(FrameKind::CResult, i + job.off[0], ch.j0 + job.off[1]);
            let reply = self.master.recv_deadline(wid, self.gen, ch.width as u64);
            match reply {
                Some((f, _)) if f.tag == tag && f.payload.len() == ch.width * bb => rows.push(f.payload),
                _ => return false,
            }
        }
        let c = &mut self.c[job.c];
        for (i, payload) in ch.rows().zip(rows) {
            c.commit_row((i + job.at, ch.j0 + job.at), payload);
        }
        job.moved += ch.blocks();
        self.frames += 1 + ch.height as u64;
        true
    }
}

impl<C: Accumulator> Port for ChunkExchange<'_, C> {
    type Op = PortOp;

    fn worker(op: &PortOp) -> WorkerId {
        op.target().1
    }

    fn perform(&mut self, op: &PortOp) -> Performed {
        let (jx, wid, ch) = op.target();
        let done = match *op {
            PortOp::SendC { .. } => self.ship_chunk(wid, jx, &ch),
            PortOp::Step { k, .. } => self.send_k_step(wid, jx, &ch, k),
            PortOp::Collect { .. } => self.collect(wid, jx, &ch),
        };
        if done { Performed::Done } else { Performed::Lost }
    }

    /// The lost chunks as [`Schedule::recover`] — Algorithm 1's rounds
    /// over the live workers whose memory holds a chunk at all, each chunk
    /// split to its adopter's `µ_i`.
    fn redispatch(&mut self, undone: Vec<PortOp>, live: &[WorkerId]) -> Option<Vec<PortOp>> {
        Schedule::recover(&undone, live, &self.mu, self.t).map(|schedule| schedule.ops)
    }
}

/// `schedule`, laid out over the workers the session's memory ledger
/// places the run on and [`execute`]d as one run there, with chunks of
/// side `sides[slot]` ([`RuntimeSession::execute`]). `jobs` are the
/// products the ops' `job` indices name — all of one shape; a solo run
/// is the list of length one. Returns the run's generation and one
/// [`RunOutcome`] per job, in order, each reporting `workers_used` as
/// given.
///
/// Each C block accumulates its `t` updates in `k`-order inside a single
/// chunk exchange, and a job's C is only mutated by a *complete* collected
/// chunk (see `ChunkExchange::collect`), so fused results are
/// **bit-identical** to running every job alone, on any schedule, on any
/// workers, through any recovery.
pub(crate) fn run_products(
    session: &RuntimeSession,
    jobs: Vec<Product<'_>>,
    sides: &[usize],
    schedule: impl FnOnce(&[WorkerId]) -> Schedule,
    workers_used: usize,
) -> Result<(u32, Vec<RunOutcome>), RuntimeError> {
    let (q, t) = (jobs[0].0.q(), jobs[0].0.cols());
    let start = Instant::now();
    let ops = |workers: &[WorkerId]| schedule(workers).ops;
    let (port, gen) = session.execute(sides, q, ops, |master, gen, workers| {
        let mut mu = vec![0; master.workers()];
        workers.iter().zip(sides).for_each(|(w, &side)| mu[w.index()] = side);
        let (factors, c): (Vec<_>, Vec<_>) = jobs.into_iter().map(|(a, b, c)| ((a, b), c)).unzip();
        let mut exchange = ChunkExchange::new(master, gen, q, c, mu, t);
        exchange.jobs = factors.into_iter().enumerate().map(|(jx, (a, b))| JobCtx::new(a, b, jx)).collect();
        exchange
    });
    let (gen, wall) = (gen?, start.elapsed());
    let chunk_side = sides.iter().copied().max().unwrap_or(0);
    let outcomes = port
        .c
        .into_iter()
        .zip(port.jobs)
        .map(|(c, ctx)| RunOutcome { c, wall, blocks_moved: ctx.moved, workers_used, chunk_side })
        .collect();
    Ok((gen, outcomes))
}

/// Algorithm 1 (the master side of HoLM / ORROML) over `enrolled` slots
/// with chunk side `mu`: [`Schedule::algorithm1_on`] for the jobs' common
/// shape, over whichever workers the ledger places the slots on, run by
/// [`run_products`].
pub(crate) fn holm_on(
    session: &RuntimeSession,
    jobs: Vec<Product<'_>>,
    enrolled: usize,
    mu: usize,
) -> Result<(u32, Vec<RunOutcome>), RuntimeError> {
    let (a, b, _) = &jobs[0];
    let problem = mwp_blockmat::Partition::from_blocks(a.rows(), b.cols(), a.cols(), a.q());
    let fused = jobs.len();
    let schedule = |workers: &[WorkerId]| Schedule::algorithm1_on(&problem, mu, workers, fused);
    run_products(session, jobs, &vec![mu; enrolled], schedule, enrolled)
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

/// The plan of a heterogeneous run on `platform`: validation + per-worker
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

/// Per-worker chunk sides `µ_i` for the heterogeneous scheme, one per
/// worker's memory `m_i`.
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
    let mu = plan_heterogeneous(platform, a, b, &c)?;
    let problem = mwp_blockmat::Partition::from_blocks(a.rows(), b.cols(), a.cols(), a.q());
    let schedule = Schedule::two_phase(platform, &mu, rule, &problem);
    let workers_used = schedule.workers().len();
    // A run over the whole fleet: the ledger puts slot `i` on worker `i`.
    let (_, mut outcomes) =
        run_products(session, vec![(a, b, c)], &mu, |_| schedule, workers_used)?;
    #[allow(clippy::expect_used, reason = "a run of one job returns one outcome")]
    let outcome = outcomes.pop().expect("one outcome per job");
    Ok(outcome)
}

/// Resident state of one open run generation: Algorithm 2's operands —
/// the C chunk, the current step's row of B blocks over its columns and
/// the one A block in flight (the `µ² + 4µ` layout of §5). A worker holds
/// exactly one of these per open run, and as many at once as the
/// session's memory ledger admits runs beside each other on it.
///
/// The chunk and the B row are row-major slabs, so that each A block
/// updates its `q`-row slab of the chunk in one kernel call against the
/// row's one pack. A chunk arrives as its block rows in order: the first
/// fixes `origin` and `width`, and each later one is the row below it, as
/// wide. Each step's B row spans the chunk's columns and its A column the
/// chunk's rows. `c` is as tall as the rows resident, while `b` keeps its
/// shape from step to step, so each row overwrites the last. The storage
/// outlives its chunk: [`Dense::resize`] keeps it, so the next chunk
/// refills it in place.
struct RunState {
    /// Block side this state's blocks are sized for.
    q: usize,
    /// Wire coordinates `(i, j)` of the chunk's first block.
    origin: (usize, usize),
    /// Blocks per chunk row.
    width: usize,
    /// The chunk, `(height · q) × (width · q)`.
    c: Dense,
    /// The step's B row, `q × (width · q)`, and its pack; resident from
    /// its arrival until the step's A column consumes it.
    b: Dense,
    pack: PackedB,
    b_resident: bool,
    /// The single in-flight A block of this run.
    a: Block,
    /// The block rows an owner-computes factorization dealt this worker.
    owned: OwnedRows,
}

impl RunState {
    fn new(q: usize) -> Self {
        let (c, b, pack, owned) = (Dense::default(), Dense::default(), PackedB::default(), OwnedRows::default());
        RunState { q, origin: (0, 0), width: 0, c, b, pack, b_resident: false, a: Block::zeros(q), owned }
    }

    /// Block rows of the resident chunk.
    fn height(&self) -> usize {
        self.c.rows() / self.q
    }

    /// Blocks resident: the chunk's, the B row's and the owned rows'.
    fn resident(&self) -> usize {
        (self.height() + usize::from(self.b_resident)) * self.width + self.owned.resident()
    }

    /// Drop the chunk and its B row, keeping their storage.
    fn drop_chunk(&mut self) {
        self.c.resize(0, 0);
        self.b_resident = false;
    }

    /// Drop the chunk, its B row and the owned rows, keeping their
    /// storage.
    fn clear(&mut self) {
        self.drop_chunk();
        self.owned.clear();
    }
}

/// One block row an owner-computes factorization dealt this worker: block
/// row `i` from block column `j0` to the matrix's right edge, `q × (w·q)`
/// row-major, and `col`, the pivot column the row waits on next — every
/// column left of it is eliminated and was returned.
struct OwnedRow {
    i: usize,
    j0: usize,
    col: usize,
    data: Dense,
}

impl OwnedRow {
    /// One past the row's last block column.
    fn end(&self, q: usize) -> usize {
        self.j0 + self.data.cols() / q
    }
}

/// The block rows an owner-computes LU keeps on this worker for its whole
/// run (Section 7.2, with rows owned), and the scratch of one step: the
/// pivot in hand and its solved `U₁₂`, the `L₂₁` blocks of the rows that
/// waited on it, one pack per `U₁₂` block row — kept until every row has
/// taken the step — and one negated `L₂₁` block. Retired rows keep their
/// storage for the next run's.
#[derive(Default)]
struct OwnedRows {
    /// In ascending block row.
    rows: Vec<OwnedRow>,
    pivot: Dense,
    upper: Dense,
    lower: Dense,
    packs: Vec<PackedB>,
    minus_l: Vec<f64>,
    /// Blocks of the pivot and `U₁₂` in hand.
    held: usize,
    /// The one request for pivot rows held that still wait on an earlier
    /// pivot: answered in the step those rows take it.
    pending: Option<(usize, usize)>,
    spare: Vec<Dense>,
}

impl OwnedRows {
    /// Blocks resident: every owned row's from the column it waits on,
    /// and the pivot and `U₁₂` in hand.
    fn resident(&self) -> usize {
        self.held + self.rows.iter().map(|row| row.end(row.data.rows()) - row.col).sum::<usize>()
    }

    /// Retire every row, the step in hand and the pending request.
    fn clear(&mut self) {
        self.spare.extend(self.rows.drain(..).map(|row| row.data));
        self.held = 0;
        self.pending = None;
    }

    /// Take block row `i` from column `j0`, `payload` its blocks. `false`,
    /// taking nothing, unless it is whole blocks, at least one, of a row
    /// not held already.
    fn deal(&mut self, q: usize, (i, j0): (usize, usize), payload: &[u8]) -> bool {
        let bb = q * q * 8;
        let at = self.rows.partition_point(|row| row.i < i);
        if payload.is_empty() || !payload.len().is_multiple_of(bb) || self.rows.get(at).is_some_and(|row| row.i == i) {
            return false;
        }
        let w = payload.len() / bb;
        let mut data = self.spare.pop().unwrap_or_default();
        data.resize(q, w * q);
        for (jj, image) in payload.chunks_exact(bb).enumerate() {
            data.read_block(q, (0, jj), image);
        }
        self.rows.insert(at, OwnedRow { i, j0, col: j0, data });
        true
    }

    /// The rows waiting on the pivot at column `p0`, and the one past
    /// their last column they share; `None` when there are none or they
    /// do not all end at the same column right of `p1`.
    fn waiting(&self, q: usize, p0: usize, p1: usize) -> Option<(Vec<usize>, usize)> {
        let at: Vec<usize> = (0..self.rows.len()).filter(|&n| self.rows[n].col == p0).collect();
        let end = self.rows[*at.first()?].end(q);
        at.iter().all(|&n| self.rows[n].end(q) == end && end >= p1).then_some((at, end))
    }

    /// Where the rows of the pivot `p0..p1` are, and the column they all
    /// wait on; `None` unless this worker holds exactly them.
    fn pivot_rows(&self, (p0, p1): (usize, usize)) -> Option<(Vec<usize>, usize)> {
        let at: Vec<usize> = (0..self.rows.len()).filter(|&n| (p0..p1).contains(&self.rows[n].i)).collect();
        let col = self.rows[*at.first()?].col;
        (at.len() == p1.saturating_sub(p0) && at.iter().all(|&n| self.rows[n].col == col)).then_some((at, col))
    }

    /// Copy columns `cols` of the rows at `at` into `into`, one `q`-row
    /// slab per row.
    fn gather(rows: &[OwnedRow], q: usize, at: &[usize], cols: std::ops::Range<usize>, into: &mut Dense) {
        let width = cols.len() * q;
        into.resize(at.len() * q, width);
        for (slab, &n) in into.as_mut_slice().chunks_exact_mut(q * width.max(1)).zip(at) {
            let row = &rows[n];
            let (stride, from) = (row.data.cols(), (cols.start - row.j0) * q);
            for (line, src) in slab.chunks_exact_mut(width.max(1)).zip(row.data.as_slice().chunks_exact(stride)) {
                line.copy_from_slice(&src[from..from + width]);
            }
        }
    }

    /// A request for the pivot at block rows and columns `pivot`: answered
    /// at once when its rows wait on it — then the rows waiting on it take
    /// its step — or kept pending when they wait on an earlier pivot.
    /// `false` when this worker does not hold exactly the pivot's rows, or
    /// a request is pending already.
    fn request(&mut self, ep: &WorkerEndpoint, kernel: &Kernel, q: usize, pivot: (usize, usize), run: u32) -> bool {
        match self.pivot_rows(pivot) {
            Some((_, col)) if col < pivot.0 => self.pending.replace(pivot).is_none(),
            Some((_, col)) if col == pivot.0 => match self.factor(ep, kernel, q, pivot, run) {
                Some(true) => self.step(ep, kernel, q, pivot, run, true),
                Some(false) => true,
                None => false,
            },
            _ => false,
        }
    }

    /// The pivot at block rows and columns `p0..p1`, through `kernel`:
    /// factor it from the rows held and solve their `U₁₂`, the rows
    /// retired, and reply with both in the `LuPivot` reply's layout — the
    /// pivot in hand from then on — or with an empty payload, the refusal,
    /// when the factor refuses the pivot, the rows left as they were. `None`
    /// unless this worker holds exactly the pivot's rows, all waiting on
    /// it; else whether it factored the pivot.
    fn factor(&mut self, ep: &WorkerEndpoint, kernel: &Kernel, q: usize, (p0, p1): (usize, usize), run: u32) -> Option<bool> {
        let tc = record::begin();
        let (at, col) = self.pivot_rows((p0, p1))?;
        let (waiting, end) = self.waiting(q, p0, p1)?;
        if col != p0 || !at.iter().all(|n| waiting.contains(n)) {
            return None;
        }
        OwnedRows::gather(&self.rows, q, &at, p0..p1, &mut self.pivot);
        OwnedRows::gather(&self.rows, q, &at, p1..end, &mut self.upper);
        let tk = record::begin();
        let factored = try_lu_blocked_with(kernel, &mut self.pivot, NB).is_ok();
        record::worker_span(ep.id(), ActivityKind::Kernel, tk, run, "factor");
        let tag = Tag::new(FrameKind::LuPivot, p0, p1);
        if !factored {
            record::worker_span(ep.id(), ActivityKind::Compute, tc, run, "pivot");
            ep.send_in(run, Frame::new(tag, Bytes::new()));
            return Some(false);
        }
        if end > p1 {
            let tk = record::begin();
            trsm_left_unit_lower_with(kernel, &mut self.upper, &self.pivot);
            record::worker_span(ep.id(), ActivityKind::Kernel, tk, run, "trsm");
        }
        self.held = (p1 - p0) * (end - p0);
        for n in at.into_iter().rev() {
            self.spare.push(self.rows.remove(n).data);
        }
        let (pivot, upper) = (&self.pivot, &self.upper);
        let reply = ep.pooled_payload(self.held * q * q * 8, |buf| {
            pivot.write_block_bytes(q, BlockOrder::RowMajor, buf);
            upper.write_block_bytes(q, BlockOrder::RowMajor, buf);
        });
        record::worker_span(ep.id(), ActivityKind::Compute, tc, run, "pivot");
        ep.send_in(run, Frame::new(tag, reply));
        Some(true)
    }

    /// Take a forwarded pivot of block rows `p0..p1` — its factors and
    /// `U₁₂` in the `LuPivot` reply's layout — as the pivot in hand.
    /// `false`, taking nothing, unless the payload is exactly a `p × p`
    /// pivot and `p` block rows of `U₁₂`.
    fn take(&mut self, q: usize, (p0, p1): (usize, usize), payload: &[u8]) -> bool {
        let (bb, p) = (q * q * 8, p1.saturating_sub(p0));
        let n = payload.len() / bb;
        let square = p.checked_mul(p).filter(|&sq| p > 0 && sq <= n);
        let Some(sq) = square.filter(|&sq| payload.len() == n * bb && (n - sq).is_multiple_of(p)) else { return false };
        self.pivot.read_block_bytes(&payload[..sq * bb], p, p, q, BlockOrder::RowMajor);
        self.upper.read_block_bytes(&payload[sq * bb..], p, (n - sq) / p, q, BlockOrder::RowMajor);
        self.held = n;
        true
    }

    /// The step of the pivot in hand, `p0..p1`, on the rows waiting on it,
    /// through `kernel`: solve their `L₂₁ = A₂₁·U₁₁⁻¹`, pack each `U₁₂`
    /// block row once, and update every row with `−L₂₁·U₁₂`, one kernel
    /// call per row and `k`, in increasing `k` — the kernel calls, operands
    /// and order of the product's chunk exchange. The rows of a pending
    /// request that wait on this pivot go first: then that pivot is
    /// factored and answered, and the other rows follow. Their `L₂₁`
    /// blocks go back, row by row, and a pivot factored on the way takes
    /// its own step next. With no row waiting, `own` — the step after
    /// this worker's own factor — is nothing; else `false`, as when the
    /// rows do not end where `U₁₂` does.
    fn step(&mut self, ep: &WorkerEndpoint, kernel: &Kernel, q: usize, (p0, p1): (usize, usize), run: u32, own: bool) -> bool {
        let Some((at, end)) = self.waiting(q, p0, p1) else { return own };
        let (p, rest) = (p1 - p0, self.upper.cols() / q);
        if end != p1 + rest || self.pivot.rows() != p * q || self.upper.rows() != p * q {
            return false;
        }
        let ids: Vec<usize> = at.iter().map(|&n| self.rows[n].i).collect();
        let tc = record::begin();
        OwnedRows::gather(&self.rows, q, &at, p0..p1, &mut self.lower);
        let tk = record::begin();
        trsm_right_upper_with(kernel, &mut self.lower, &self.pivot);
        record::worker_span(ep.id(), ActivityKind::Kernel, tk, run, "trsm");
        let width = rest * q;
        self.packs.resize_with(p.max(self.packs.len()), PackedB::default);
        for k in (0..p).filter(|_| rest > 0) {
            let tp = record::begin();
            kernel.pack_into(&mut self.packs[k], &self.upper.as_slice()[k * q * width..][..q * width], q, width, 1.0);
            record::worker_span(ep.id(), ActivityKind::Pack, tp, run, "pack U");
        }
        let next = self.pending.filter(|&(a, b)| a == p1 && b > a && (a..b).all(|i| ids.contains(&i)));
        let first: Vec<usize> = next.map_or_else(Vec::new, |(a, b)| (a..b).collect());
        self.update(ep, kernel, q, &ids, &first, (p, p1, rest), run);
        let (mut tc, mut factored) = (tc, None);
        if let Some(next) = next {
            // The factor's own `Compute` span cuts the step's in two.
            record::worker_span(ep.id(), ActivityKind::Compute, tc, run, "L21 update");
            self.pending = None;
            let Some(done) = self.factor(ep, kernel, q, next, run) else { return false };
            (tc, factored) = (record::begin(), done.then_some(next));
        }
        let others: Vec<usize> = ids.iter().copied().filter(|i| !first.contains(i)).collect();
        self.update(ep, kernel, q, &ids, &others, (p, p1, rest), run);
        record::worker_span(ep.id(), ActivityKind::Compute, tc, run, "L21 update");
        let lower = &self.lower;
        let payload = ep.pooled_payload(ids.len() * p * q * q * 8, |buf| lower.write_block_bytes(q, BlockOrder::RowMajor, buf));
        ep.send_in(run, Frame::new(Tag::new(FrameKind::LuRow, p0, p1), payload));
        factored.is_none_or(|next| self.step(ep, kernel, q, next, run, true))
    }

    /// Update the rows `rows` — of the step's rows `ids`, whose `L₂₁` are
    /// `lower`'s slabs in that order — with `−L₂₁·U₁₂` from the step's
    /// packs, a `p`-wide pivot ending at `p1` with `rest` blocks after it,
    /// in increasing `k`; they then wait on the next pivot.
    #[allow(clippy::too_many_arguments)]
    fn update(&mut self, ep: &WorkerEndpoint, kernel: &Kernel, q: usize, ids: &[usize], rows: &[usize], (p, p1, rest): (usize, usize, usize), run: u32) {
        for k in (0..p).filter(|_| rest > 0) {
            for &i in rows {
                let slab = ids.iter().position(|&id| id == i).unwrap_or(0);
                let lower = &self.lower.as_slice()[slab * q * p * q..][..q * p * q];
                self.minus_l.clear();
                self.minus_l.extend(lower.chunks_exact(p * q).flat_map(|line| line[k * q..][..q].iter().map(|x| -x)));
                let n = self.rows.partition_point(|row| row.i < i);
                let row = &mut self.rows[n];
                let (ldc, from) = (row.data.cols(), (p1 - row.j0) * q);
                let tk = record::begin();
                kernel.gemm_acc_packed_ld(&mut row.data.as_mut_slice()[from..], ldc, &self.minus_l, &self.packs[k], q);
                record::worker_span(ep.id(), ActivityKind::Kernel, tk, run, "gemm");
            }
        }
        for &i in rows {
            let n = self.rows.partition_point(|row| row.i < i);
            self.rows[n].col = p1;
        }
    }
}

/// `payload` as `n ≥ 1` block images of `bb` bytes each; `None` unless it
/// is exactly that.
fn blocks_of(payload: &[u8], bb: usize, n: usize) -> Option<std::slice::ChunksExact<'_, u8>> {
    (n > 0 && payload.len() == n * bb).then(|| payload.chunks_exact(bb))
}

/// Per-worker state that survives across a session's runs: the open runs,
/// the retired ones, and the parts of an LU panel task. A new run reopens
/// a retired [`RunState`] of its block side, so each `q` a session serves
/// keeps its own warm storage.
#[derive(Default)]
struct WorkerState {
    /// Retired [`RunState`]s, of any block side.
    idle: Vec<RunState>,
    /// The open run generations this worker is currently serving.
    runs: HashMap<u32, RunState>,
    /// The pivot, vertical and horizontal panel of the `LuPanel` task in
    /// hand, refilled by each task ([`panel_task`]).
    panel: [Dense; 3],
}

impl WorkerState {
    /// Open run generation `gen` with block side `q`, reopening a retired
    /// [`RunState`] of side `q` when there is one. `false`, opening
    /// nothing, if `gen` is already open — the master never reopens a live
    /// generation.
    fn open(&mut self, gen: u32, q: usize) -> bool {
        if self.runs.contains_key(&gen) {
            return false;
        }
        let st = match self.idle.iter().position(|st| st.q == q) {
            Some(at) => self.idle.swap_remove(at),
            None => RunState::new(q),
        };
        self.runs.insert(gen, st);
        true
    }

    /// Retire run generation `gen` (orderly end or abort — either way its
    /// resident blocks are discarded; the master never commits a partial
    /// chunk, so that loses nothing) and keep its storage for the next run
    /// of its side. Returns how many runs stay open, `None` if `gen` was
    /// not open.
    fn close(&mut self, gen: u32) -> Option<usize> {
        let mut st = self.runs.remove(&gen)?;
        st.clear();
        self.idle.push(st);
        Some(self.runs.len())
    }
}

/// The worker program of a worker of memory `memory_cap` blocks that
/// computes with `kernel`, holding its [`WorkerState`] across runs: what an
/// in-process session worker runs, and what [`crate::remote::serve`]
/// drives on a socket — for products and LU factorizations alike.
pub(crate) fn program(
    memory_cap: usize,
    kernel: &'static Kernel,
) -> impl FnMut(u32, &WorkerEndpoint) -> RunExit + Send {
    let mut state = WorkerState::default();
    move |q, ep| serve_run(ep, q as usize, memory_cap, kernel, &mut state)
}

/// Algorithm 2: the worker program, serving **one wake** of a session —
/// which may span several interleaved run generations.
///
/// Per open generation it holds a [`RunState`]: the resident C chunk and
/// the current `B` row over its columns, each one row-major slab, and one
/// `A` block. A step's `A` column updates the chunk row by row: block `r`
/// against the whole `B` row in one kernel call, `C[r][·] += A[r] · B[·]`
/// — the widest operand the data allows, and the same bits as one call
/// per block, since each C element is still one FMA chain over increasing
/// `k`. Every frame routes to its generation by the wire header's `run`
/// field: the wake-up `RUN_BEGIN` opens the first generation, a further
/// `RUN_BEGIN` arriving mid-serve opens another alongside it (a run the
/// session admitted beside the open ones), the empty `Control` frame at
/// `(0, 0)` requests that generation's chunk back — its rows in order,
/// whole — and `RUN_END`/`RUN_ABORT` retire it. An `LuPanel` task is one
/// LU step's pivot chain — the pivot factored, both panels solved —
/// answered in place ([`panel_parts`]); streamed LU's trailing updates are
/// chunk exchanges like any product's. Owner-computes LU keeps each dealt
/// `LuRow` for the run; an `LuPivot` request is answered with the factored
/// pivot and its solved `U₁₂` from the rows held, and then — like a
/// forwarded `LuPivot` — the rows waiting on that pivot solve their `L₂₁`,
/// take the update and send their `L₂₁` back in one `LuRow` frame. A
/// request for pivot rows that still wait on an earlier pivot is held
/// pending, one at most: the step those rows take updates them first, and
/// the pivot is factored and answered before the step's other rows. The
/// worker parks only when its last open generation retires; `Shutdown`
/// (or a dropped master) ends the thread.
///
/// **What arrives is not trusted.** Traffic that misses its run's chunk
/// drops the link — the master sees a dead worker — instead of unwinding
/// this thread: a frame of no open run, a `RUN_BEGIN` of a generation
/// already open, a `RUN_END`/`RUN_ABORT` of one that is not, a `C` row
/// that is not the chunk's next row at its column origin and width, a `B`
/// row that does not span the chunk's columns, an `A` column that does not
/// span its rows or comes before its step's `B` row, a collect request
/// that is not the empty `(0, 0)` frame, a `CResult` (the master never
/// sends one), a panel whose payload is not the blocks its tag names, a
/// pivot request for rows the worker does not hold or while another is
/// pending, a forwarded pivot no row waits on, and any frame that takes
/// the worker past the memory invariant (`resident blocks ≤ m`, summed
/// over the open generations) the paper's layout — and the session's
/// memory ledger — guarantees; the panel exchange's transient blocks stay
/// outside it. A pivot the worker cannot factor is no such traffic: the
/// task is answered with a refusal ([`solve_panel`]) and the worker serves
/// on.
///
/// The worker allocates only to grow: a run of a block side with no
/// retired [`RunState`] builds one, and a chunk, `B` row or panel task
/// larger than any its storage held before grows it. Otherwise incoming
/// payloads are copied into the storage already there — the chunk's and
/// the `B` row's slabs, the one reused `A` block, the three panel parts
/// [`WorkerState`] keeps — and result payloads are built in the
/// endpoint's buffer pool.
///
/// Each `B` row is **packed once on arrival**, whole, and the pack is
/// reused by every A block of the step (the paper keeps B resident on the
/// worker precisely so A can stream against it — repacking per update was
/// pure waste). The pack lives beside its row, so a held session keeps it
/// warm across runs. Every pack, slab update and panel solve runs through
/// `kernel`, the one this worker was built with.
fn serve_run(
    ep: &WorkerEndpoint,
    q: usize,
    memory_cap: usize,
    kernel: &Kernel,
    state: &mut WorkerState,
) -> RunExit {
    // The generation that woke this worker: the outer loop consumed its
    // RUN_BEGIN, whose header generation the endpoint adopted.
    if !state.open(ep.current_run(), q) {
        return RunExit::Terminate;
    }
    loop {
        let frame = match ep.recv() {
            Ok(f) => f,
            Err(_) => return RunExit::Terminate, // master gone
        };
        let gen = frame.run;
        match (frame.tag.kind, frame.tag.i) {
            (FrameKind::Control, RUN_END | RUN_ABORT) => {
                // Orderly end (chunk already returned and drained) or
                // cooperative abort (the master gave up; it never commits
                // a partial chunk, so discarding the residents loses
                // nothing). Either way the generation retires and its
                // storage waits for the next run of its side; park only
                // once no generation is open. Closing a generation that is
                // not open drops the link.
                let Some(open) = state.close(gen) else { return RunExit::Terminate };
                if open == 0 {
                    // Run boundary: persist this process's spans — for an
                    // out-of-process worker nobody else will (the
                    // master's session-side flush is a different process).
                    record::flush();
                    return RunExit::Completed;
                }
                continue;
            }
            (FrameKind::Control, RUN_BEGIN) => {
                // Another run generation opens while this worker is
                // already serving — a run admitted beside the open ones.
                // Its frames carry their own generation, so the
                // open runs never mix. Reopening a generation that is
                // still open drops the link.
                if !state.open(gen, frame.tag.j as usize) {
                    return RunExit::Terminate;
                }
                continue;
            }
            (FrameKind::Shutdown, _) => return RunExit::Terminate,
            _ => {}
        }
        // Every other frame is traffic of an open run, and must fit its
        // chunk; one that does not drops the link.
        let Some(run) = state.runs.get_mut(&gen) else { return RunExit::Terminate };
        let (q, bb) = (run.q, run.q * run.q * 8);
        let (i, j) = (frame.tag.i as usize, frame.tag.j as usize);
        match frame.tag.kind {
            FrameKind::BlockC => {
                // The chunk's next row, `i`, from column `j`. A chunk's
                // first row fixes its origin and width.
                if run.c.rows() == 0 {
                    (run.origin, run.width) = ((i, j), frame.payload.len() / bb);
                }
                let row = run.height();
                let next = (run.origin.0 + row, run.origin.1);
                let Some(parts) = blocks_of(&frame.payload, bb, run.width).filter(|_| (i, j) == next) else {
                    return RunExit::Terminate;
                };
                run.c.resize((row + 1) * q, run.width * q);
                for (jj, part) in parts.enumerate() {
                    run.c.read_block(q, (row, jj), part);
                }
            }
            FrameKind::BlockB => {
                // The step's B row over the chunk's columns; the step
                // index k is implicit in per-generation FIFO order (each
                // step overwrites the previous step's row). Every
                // overwrite invalidates the old pack, so the row is
                // repacked here, exactly once per arrival, and reused by
                // all of this step's A blocks.
                let spans = run.c.rows() > 0 && j == run.origin.1;
                let Some(parts) = blocks_of(&frame.payload, bb, run.width).filter(|_| spans) else {
                    return RunExit::Terminate;
                };
                run.b.resize(q, run.width * q);
                for (jj, part) in parts.enumerate() {
                    run.b.read_block(q, (0, jj), part);
                }
                run.b_resident = true;
                let tp = record::begin();
                kernel.pack_into(&mut run.pack, run.b.as_slice(), q, run.width * q, 1.0);
                record::worker_span(ep.id(), ActivityKind::Pack, tp, gen, "pack B");
            }
            FrameKind::BlockA => {
                // The step's A column over the chunk's rows, behind its B
                // row: each block, through the one reused A block,
                // updates its `q`-row slab of the chunk in one kernel call
                // — and the column consumes the row.
                let spans = run.b_resident && i == run.origin.0;
                let Some(parts) = blocks_of(&frame.payload, bb, run.height()).filter(|_| spans) else {
                    return RunExit::Terminate;
                };
                let slab = q * run.c.cols();
                for (c_slab, part) in run.c.as_mut_slice().chunks_exact_mut(slab).zip(parts) {
                    // One Compute span per processed A block (the
                    // simulator's unit of worker occupancy), with its one
                    // Kernel detail span inside it.
                    let tc = record::begin();
                    run.a.copy_from_bytes(part);
                    let tk = record::begin();
                    kernel.gemm_acc_packed(c_slab, run.a.as_slice(), &run.pack, q);
                    record::worker_span(ep.id(), ActivityKind::Kernel, tk, gen, "gemm");
                    record::worker_span(ep.id(), ActivityKind::Compute, tc, gen, "A update");
                }
                run.b_resident = false;
            }
            FrameKind::LuPanel => {
                // One LU step's pivot chain, answered in place.
                if !panel_task(q, frame.tag, &frame.payload, &mut state.panel) {
                    return RunExit::Terminate;
                }
                let tc = record::begin();
                let reply = solve_panel(ep, kernel, q, frame.tag, &mut state.panel, gen);
                record::worker_span(ep.id(), ActivityKind::Compute, tc, gen, "panel");
                ep.send_in(gen, Frame::new(frame.tag, reply));
            }
            FrameKind::LuRow => {
                // A block row of an owner-computes factorization, held to
                // the run's end.
                if !run.owned.deal(q, (i, j), &frame.payload) {
                    return RunExit::Terminate;
                }
            }
            FrameKind::LuPivot => {
                // Empty, a request for pivot rows this worker holds:
                // answered at once, or once those rows take the step they
                // wait on. Else a pivot forwarded from its owner, which the
                // waiting rows take.
                let owned = &mut run.owned;
                let taken = if frame.payload.is_empty() {
                    owned.request(ep, kernel, q, (i, j), gen)
                } else {
                    owned.take(q, (i, j), &frame.payload) && owned.step(ep, kernel, q, (i, j), gen, false)
                };
                if !taken {
                    return RunExit::Terminate;
                }
            }
            FrameKind::Control => {
                // A collect request — the empty `(0, 0)` frame, any other
                // drops the link: return the chunk row by row, in order —
                // one run frame per row, built in the endpoint's buffer
                // pool, stamped with the generation it belongs to. The
                // storage stays for the generation's next chunk.
                if !frame.payload.is_empty() || (i, j) != (0, 0) {
                    return RunExit::Terminate;
                }
                let (width, (i0, j0)) = (run.width, run.origin);
                for r in 0..run.height() {
                    let payload = ep.pooled_payload(width * bb, |buf| {
                        (0..width).for_each(|jj| run.c.write_block(q, (r, jj), buf));
                    });
                    ep.send_in(gen, Frame::new(Tag::new(FrameKind::CResult, i0 + r, j0), payload));
                }
                run.drop_chunk();
            }
            // A `CResult` (or anything else the master never sends).
            _ => return RunExit::Terminate,
        }
        // The paper's memory invariant: resident blocks never exceed m,
        // now summed over every open generation (+1 per generation for
        // its A block in flight; storage kept past the rows held is not
        // resident matrix data). The session's memory ledger keeps
        // overlapping runs under this bound by construction, so traffic
        // that breaks it is traffic no master program sends.
        let resident: usize = state.runs.values().map(RunState::resident).sum();
        if resident + state.runs.len() > memory_cap {
            return RunExit::Terminate;
        }
    }
}

/// The wire layout of an LU `Panel` exchange, task and reply alike (but
/// for a refusal reply, whose payload is empty), for a `p`-block pivot with `rest` blocks of the matrix after it: three parts
/// of `q × q` blocks back to back, each `(block rows, block columns,
/// order)` — the pivot by block rows, the vertical panel below it by block
/// columns, the horizontal panel beside it by block rows. So each panel's
/// `k`-th block column (row) is one slice: the A column and B row of step
/// `k` of the step's trailing update.
pub fn panel_parts(p: usize, rest: usize) -> [(usize, usize, BlockOrder); 3] {
    [(p, p, BlockOrder::RowMajor), (rest, p, BlockOrder::ColMajor), (p, rest, BlockOrder::RowMajor)]
}

/// Refill `parts` with the pivot, vertical and horizontal panels of the
/// `LuPanel` task `tag`/`payload` for block side `q`, in the layout of
/// [`panel_parts`] for the tag's `(p, rest)`. `false`, touching nothing,
/// unless the payload is exactly the blocks the tag names: the sizes are
/// checked before anything is sliced or resized, and no tag can overflow
/// the arithmetic.
fn panel_task(q: usize, tag: Tag, payload: &[u8], parts: &mut [Dense; 3]) -> bool {
    let (p, rest) = (tag.i as usize, tag.j as usize);
    let blocks = || p.checked_mul(rest.checked_mul(2)?.checked_add(p)?)?.checked_mul(q * q * 8);
    if blocks() != Some(payload.len()) {
        return false;
    }
    let mut at = 0;
    for (part, (rows, cols, order)) in parts.iter_mut().zip(panel_parts(p, rest)) {
        let image = &payload[at..at + rows * cols * q * q * 8];
        at += image.len();
        part.read_block_bytes(image, rows, cols, q, order);
    }
    true
}

/// The pivot chain of one LU step (Section 7.2) on the parts of the task
/// `tag` of run `run`, through `kernel`: factor the pivot, solve the
/// vertical panel against its `U` and the horizontal one against its `L`,
/// and return all three in the task's layout, built in the endpoint's
/// buffer pool. A pivot the factor refuses (below `PIVOT_TOL`, or not a
/// number) is answered with the refusal reply, an empty payload: no task
/// is empty, so it cannot be mistaken for factors, and the master ends
/// the run without condemning this worker.
fn solve_panel(ep: &WorkerEndpoint, kernel: &Kernel, q: usize, tag: Tag, parts: &mut [Dense; 3], run: u32) -> Bytes {
    let len = 8 * parts.iter().map(|d| d.rows() * d.cols()).sum::<usize>();
    let [pivot, vertical, horizontal] = parts;
    let tk = record::begin();
    let factored = try_lu_blocked_with(kernel, pivot, NB);
    record::worker_span(ep.id(), ActivityKind::Kernel, tk, run, "factor");
    if factored.is_err() {
        return Bytes::new();
    }
    if tag.j > 0 {
        let tk = record::begin();
        trsm_right_upper_with(kernel, vertical, pivot);
        trsm_left_unit_lower_with(kernel, horizontal, pivot);
        record::worker_span(ep.id(), ActivityKind::Kernel, tk, run, "trsm");
    }
    let layout = panel_parts(tag.i as usize, tag.j as usize);
    ep.pooled_payload(len, |buf| {
        for (part, (_, _, order)) in parts.iter().zip(layout) {
            part.write_block_bytes(q, order, buf);
        }
    })
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
        // usable.
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
    fn operand_groups_double_hold_the_shared_payloads_bytes_and_recycle() {
        for t in [1, 4, 12, 24] {
            // A fresh session per `t`: its operand pool starts empty, so the
            // first run allocates each group's buffer at its own size.
            let session = RuntimeSession::new(&platform(1, 60), 0.0);
            let master = session.fleet().master();
            let (a, b) = (random_matrix(3, t, 2, 70), random_matrix(t, 5, 2, 71));
            let (whole_a, whole_b) = (SharedPayloads::new_col_major(&a), SharedPayloads::new(&b));
            // Each group covers as many steps as all the groups before it.
            let firsts: Vec<usize> = [0, 1, 2, 4, 8, 16].into_iter().filter(|&first| first < t).collect();
            let mut first_run = Vec::new();
            for run in 0..2 {
                let mut ap = Operand::new(&a, BlockOrder::ColMajor);
                let mut bp = Operand::new(&b, BlockOrder::RowMajor);
                for k in 0..t {
                    let (image, at) = ap.step(master, k);
                    assert_eq!(image.col_run(0, at, 3), whole_a.col_run(0, k, 3), "t = {t}: A column {k}");
                    let (image, at) = bp.step(master, k);
                    assert_eq!(image.row_run(at, 0, 5), whole_b.row_run(k, 0, 5), "t = {t}: B row {k}");
                    let groups = firsts.iter().filter(|&&first| first <= k).count();
                    assert_eq!((ap.groups.len(), bp.groups.len()), (groups, groups), "t = {t}: serialized up to step {k}'s group");
                }
                for op in [&ap, &bp] {
                    assert_eq!(op.groups.iter().map(|&(first, _)| first).collect::<Vec<_>>(), firsts, "t = {t}");
                    assert_eq!(op.covered, t);
                }
                let mut buffers: Vec<_> = ap.groups.iter().chain(&bp.groups).map(|(_, image)| image.get(0, 0).as_ptr()).collect();
                buffers.sort_unstable();
                if run == 0 {
                    first_run = buffers;
                } else {
                    assert_eq!(buffers, first_run, "t = {t}: the second run writes into the first run's buffers");
                }
            }
            session.shutdown();
        }
    }

    /// The wire image of a `Panel` task of `p` pivot blocks and `rest`
    /// after them, all of side `q`: a diagonally dominant pivot and random
    /// panels.
    fn panel_image(p: usize, rest: usize, q: usize) -> Vec<u8> {
        let n = p + rest;
        let whole = Dense::from_blocks(&mwp_blockmat::fill::random_diagonally_dominant(n, q, 5));
        let (k, n) = (p * q, n * q);
        let parts = [whole.submatrix(0, k, 0, k), whole.submatrix(k, n, 0, k), whole.submatrix(0, k, k, n)];
        let mut wire = Vec::new();
        for (part, (_, _, order)) in parts.iter().zip(panel_parts(p, rest)) {
            part.write_block_bytes(q, order, &mut wire);
        }
        wire
    }

    #[test]
    fn wire_format_roundtrip() {
        // A task decodes into its three parts, shaped as the tag says.
        // The same parts serve the next task, reshaped.
        let (p, rest, q) = (2, 3, 4);
        let mut parts = <[Dense; 3]>::default();
        assert!(panel_task(q, Tag::new(FrameKind::LuPanel, p, rest), &panel_image(p, rest, q), &mut parts));
        assert_eq!(parts.each_ref().map(|d| (d.rows(), d.cols())), [(8, 8), (12, 8), (8, 12)]);
        assert!(panel_task(q, Tag::new(FrameKind::LuPanel, p, 0), &panel_image(p, 0, q), &mut parts));
        assert_eq!(parts.each_ref().map(|d| (d.rows(), d.cols())), [(8, 8), (0, 8), (8, 0)], "the pivot alone");
    }

    #[test]
    fn malformed_wire_images_do_not_decode() {
        let (p, rest, q) = (2, 1, 3);
        let wire = panel_image(p, rest, q);
        let decodes = |p: usize, rest: usize, payload: &[u8]| {
            panel_task(q, Tag::new(FrameKind::LuPanel, p, rest), payload, &mut Default::default())
        };
        // Cut anywhere, or a byte over: a torn or padded payload.
        for len in 0..wire.len() {
            assert!(!decodes(p, rest, &wire[..len]), "truncated to {len} bytes");
        }
        assert!(!decodes(p, rest, &[&wire[..], &[0]].concat()), "a trailing byte");
        // A shape that disagrees with the length, and ones whose block
        // count overflows or merely exceeds the payload.
        for (p, rest) in [(1, 1), (2, 2), (3, 0), (u32::MAX as usize, u32::MAX as usize), (1 << 20, 0)] {
            assert!(!decodes(p, rest, &wire), "a {p} + {rest} tag");
        }
        assert!(decodes(p, rest, &wire));
    }

    #[test]
    fn a_malformed_task_drops_the_link_without_unwinding_the_worker() {
        // What arrives on a link is not trusted to be what the master
        // program sends: a torn `Panel` payload, a tag whose shape
        // disagrees with the payload's length and a panel outside any open
        // run each close the link — the master sees a dead worker — and the
        // worker thread returns instead of panicking (`shutdown` re-raises
        // a worker's panic). A well-formed task is answered.
        let (q, wire) = (2, panel_image(1, 1, 2));
        let torn = wire[..wire.len() - 3].to_vec();
        for (what, shape, payload, stray, answered) in [
            ("well-formed", (1, 1), wire.clone(), 0, true),
            ("torn payload", (1, 1), torn, 0, false),
            ("shape off the length", (1, 2), wire.clone(), 0, false),
            ("outside an open run", (1, 1), wire, 1, false),
        ] {
            let session = RuntimeSession::new(&platform(1, 60), 0.0);
            let fleet = session.fleet();
            let epoch = fleet.begin_run(1, q as u32);
            let tag = Tag::new(FrameKind::LuPanel, shape.0, shape.1);
            let frame = Frame::new_in_run(tag, epoch.generation() + stray, payload.into());
            assert!(fleet.master().try_send(WorkerId(0), frame, 1).is_some(), "{what}");
            let reply = fleet.master().recv_deadline(WorkerId(0), epoch.generation(), 1);
            assert_eq!(reply.is_some(), answered, "{what}: a reply");
            fleet.abort_run_on(&[WorkerId(0)], epoch);
            assert_eq!(session.shutdown(), 1, "{what}: the worker thread must return, not unwind");
        }
    }

    #[test]
    fn chunk_traffic_that_misses_its_chunk_drops_the_link_without_unwinding_the_worker() {
        // A 2 × 2 chunk of q = 2 blocks. Its own rows, B row and A column
        // are answered by the chunk at collect; traffic that does not fit
        // the chunk's shape, takes the worker past its m = 60 blocks,
        // reopens its generation, closes another one or asks for the chunk
        // with a collect request that names a part of it closes the link
        // (no reply), and the worker thread returns instead of panicking
        // (`shutdown` re-raises a worker's panic). Each frame is stamped
        // with the run's generation plus its offset.
        let q = 2;
        let stamped = |kind, i, j, blocks: usize, offset: u32| (Tag::new(kind, i, j), offset, vec![0u8; blocks * q * q * 8]);
        let frame = |kind, i, j, blocks| stamped(kind, i, j, blocks, 0);
        let (c0, c1) = (frame(FrameKind::BlockC, 0, 0, 2), frame(FrameKind::BlockC, 1, 0, 2));
        let (b, a) = (frame(FrameKind::BlockB, 0, 0, 2), frame(FrameKind::BlockA, 0, 0, 2));
        // A collect request naming a part of the chunk: row 1 from column
        // 1, one row high.
        let named = (Tag::new(FrameKind::Control, 1, 1), 0, 1u32.to_le_bytes().to_vec());
        for (what, frames, answered) in [
            ("the chunk's own traffic", vec![c0.clone(), c1.clone(), b.clone(), a.clone()], true),
            ("an A column before its B row", vec![c0.clone(), c1.clone(), a.clone()], false),
            ("a C row out of order", vec![c1.clone(), c0.clone()], false),
            ("a B row narrower than the chunk", vec![c0.clone(), c1.clone(), frame(FrameKind::BlockB, 0, 0, 1)], false),
            ("an A column taller than the chunk", vec![c0.clone(), c1.clone(), b.clone(), frame(FrameKind::BlockA, 0, 0, 3)], false),
            ("a CResult sent to the worker", vec![c0.clone(), c1.clone(), frame(FrameKind::CResult, 0, 0, 2)], false),
            ("a RUN_BEGIN of the open generation", vec![c0.clone(), frame(FrameKind::Control, RUN_BEGIN as usize, q, 0)], false),
            ("a RUN_END of an unopened generation", vec![c0.clone(), stamped(FrameKind::Control, RUN_END as usize, 0, 0, 1)], false),
            ("a first C row of 61 blocks", vec![frame(FrameKind::BlockC, 0, 0, 61)], false),
            ("rows dealt past 60 blocks", vec![frame(FrameKind::LuRow, 0, 0, 30), frame(FrameKind::LuRow, 1, 0, 30)], false),
            ("a collect request that names a part", vec![c0.clone(), c1.clone(), b.clone(), a.clone(), named], false),
        ] {
            let session = RuntimeSession::new(&platform(1, 60), 0.0);
            let fleet = session.fleet();
            let epoch = fleet.begin_run(1, q as u32);
            let collect = frame(FrameKind::Control, 0, 0, 0);
            for (tag, offset, payload) in frames.into_iter().chain([collect]) {
                // A send after the link dropped may fail; the reply tells.
                let frame = Frame::new_in_run(tag, epoch.generation() + offset, payload.into());
                let _ = fleet.master().try_send(WorkerId(0), frame, 1);
            }
            let reply = fleet.master().recv_deadline(WorkerId(0), epoch.generation(), 2);
            assert_eq!(reply.is_some(), answered, "{what}: a reply");
            if let Some((row, _)) = reply {
                assert_eq!(row.tag, Tag::new(FrameKind::CResult, 0, 0), "{what}: the chunk's first row");
            }
            fleet.abort_run_on(&[WorkerId(0)], epoch);
            assert_eq!(session.shutdown(), 1, "{what}: the worker thread must return, not unwind");
        }
    }

    #[test]
    fn a_pending_pivot_request_is_answered_in_the_step_its_rows_take() {
        // Block rows 1..4 of a 4 × 4-block matrix, µ = 1, dealt to one
        // worker. A request for pivot 1, whose row still waits on pivot 0,
        // is held pending; the forward of pivot 0 then updates row 1,
        // factors and answers pivot 1, updates rows 2 and 3 and returns
        // the step's L₂₁ — and rows 2 and 3 take pivot 1's step, whose L₂₁
        // follows. Every block is the serial factorization's, bit for bit.
        // A request for rows the worker does not hold, or a second pending
        // request, closes the link: no reply, and the worker thread returns
        // instead of unwinding (`shutdown` re-raises a worker's panic).
        let q = 2;
        let matrix = mwp_blockmat::fill::random_diagonally_dominant(4, q, 91);
        let mut serial = Dense::from_blocks(&matrix);
        mwp_blockmat::lu::lu_blocked_in_place(&mut serial, q);
        let images = |m: &Dense, blocks: &[(usize, usize)]| {
            let mut out = Vec::new();
            blocks.iter().for_each(|&at| m.write_block(q, at, &mut out));
            out
        };
        let input = Dense::from_blocks(&matrix);
        let row = |i: usize| (Tag::new(FrameKind::LuRow, i, 0), images(&input, &[(i, 0), (i, 1), (i, 2), (i, 3)]));
        let request = |p0: usize| (Tag::new(FrameKind::LuPivot, p0, p0 + 1), Vec::new());
        let forward = (Tag::new(FrameKind::LuPivot, 0, 1), images(&serial, &[(0, 0), (0, 1), (0, 2), (0, 3)]));
        let answered = vec![
            (Tag::new(FrameKind::LuPivot, 1, 2), images(&serial, &[(1, 1), (1, 2), (1, 3)])),
            (Tag::new(FrameKind::LuRow, 0, 1), images(&serial, &[(1, 0), (2, 0), (3, 0)])),
            (Tag::new(FrameKind::LuRow, 1, 2), images(&serial, &[(2, 1), (3, 1)])),
        ];
        let dealt = vec![row(1), row(2), row(3)];
        for (what, frames, replies) in [
            ("a pending request answered mid-step", [dealt.clone(), vec![request(1), forward.clone()]].concat(), answered),
            ("a request for rows not held", [dealt.clone(), vec![request(0)]].concat(), vec![]),
            ("a second pending request", [dealt.clone(), vec![request(2), request(3), forward.clone()]].concat(), vec![]),
        ] {
            let session = RuntimeSession::new(&platform(1, 60), 0.0);
            let fleet = session.fleet();
            let epoch = fleet.begin_run(1, q as u32);
            for (tag, payload) in frames {
                // A send after the link dropped may fail; the replies tell.
                let _ = fleet.master().try_send(WorkerId(0), Frame::new_in_run(tag, epoch.generation(), payload.into()), 1);
            }
            for (tag, payload) in &replies {
                let reply = fleet.master().recv_deadline(WorkerId(0), epoch.generation(), 1);
                let Some((reply, _)) = reply else { panic!("{what}: no {tag:?}") };
                assert_eq!((reply.tag, &reply.payload[..]), (*tag, &payload[..]), "{what}");
            }
            if replies.is_empty() {
                assert!(fleet.master().recv_deadline(WorkerId(0), epoch.generation(), 1).is_none(), "{what}: the link drops");
            }
            fleet.abort_run_on(&[WorkerId(0)], epoch);
            assert_eq!(session.shutdown(), 1, "{what}: the worker thread must return, not unwind");
        }
    }

    #[test]
    fn storage_recycles_by_block_side() {
        // A run reopens the retired state of its own block side, so the
        // q = 2 run after a q = 4 one gets back the first q = 2 run's C
        // storage, not the q = 4 run's.
        let mut state = WorkerState::default();
        let mut cycle = |gen: u32, q: usize| {
            assert!(state.open(gen, q));
            let run = state.runs.get_mut(&gen).expect("just opened");
            run.c.resize(q, q);
            let storage = run.c.as_slice().as_ptr();
            assert_eq!(state.close(gen), Some(0));
            storage
        };
        let first = cycle(1, 2);
        let other = cycle(2, 4);
        assert_ne!(other, first);
        assert_eq!(cycle(3, 2), first, "the q = 2 run reopens its own storage");
        assert_eq!(cycle(4, 4), other, "and the q = 4 run its own");
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
