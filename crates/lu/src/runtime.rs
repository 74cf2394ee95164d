//! Threaded LU execution with real arithmetic, on the product's own fleet.
//!
//! The master (the calling thread) walks [`crate::schedule::lu_schedule`]
//! — the right-looking factorization of Section 7.2 as plain data — over
//! a [`RuntimeSession`]'s workers through the product runtime's one master
//! executor ([`mwp_core::runtime::execute`]). The workers run the
//! product's own program, real `f64` arithmetic throughout, verified
//! against the serial blocked factorization. [`crate::homogeneous`]
//! simulates the same ops.
//!
//! # Message pattern
//!
//! A block is final in exactly one reply, and the master stores it from
//! there into the [`Dense`] the run returns. The matrix the master ships
//! rows from is the caller's [`BlockMatrix`], borrowed until the first
//! chunk commits into it and copied then: on the streamed path at the
//! first step's first collect, on the owned path only when recovery
//! rebuilds a lost row, so a healthy owned run never copies the matrix
//! whole. Which of two paths a run takes
//! is one rule of the fleet's memory ([`crate::schedule::owners`]): the
//! rows are **owned** when every worker with a chunk side holds its share
//! of them, one step's pivot and `U₁₂` and a block in flight within the
//! `µ_i² + 4µ_i` blocks the ledger reserves for it, and **streamed**
//! otherwise. Every frame is metered, and a paced link charged, at its
//! true size in blocks.
//!
//! **Owned rows** (the benchmark's shape). The block rows are dealt once,
//! `µ`-row group `g` to the `g mod P'`-th worker, one `LuRow` frame a row,
//! and stay there; the first pivot's owner gets its rows and its request
//! before the other workers get theirs. At each step:
//!
//! 1. the pivot rows' owner, asked by an `LuPivot` request, factors
//!    `A₁₁`, solves its own `U₁₂ = L₁₁⁻¹·A₁₂` and replies with both —
//!    final — and then solves and updates its own rows that wait on the
//!    pivot;
//! 2. the master checks the reply's tag and length, forwards its bytes,
//!    zero-copy, to every other worker whose rows wait on the pivot — the
//!    next pivot's owner first — and only then copies it into the factors,
//!    while it waits for the next reply;
//! 3. each such worker solves its rows' `L₂₁ = A₂₁·U₁₁⁻¹`, negates it
//!    locally (exact) and updates its rows with `−L₂₁·U₁₂`, each `U₁₂`
//!    block row packed once and kept until all its rows took the step, one
//!    kernel call per row and `k` in increasing `k` — the kernel calls,
//!    operands and order of the product's chunk exchange, so the factors
//!    carry `lu_blocked_in_place`'s bits — and replies with its `L₂₁`
//!    blocks, final.
//!
//! **One pivot of lookahead.** With two owners or more, the request for
//! pivot `k+1` goes on its owner's link ahead of the forward of pivot
//! `k`. The worker holds it pending, and when the forward comes it updates
//! the pivot rows first, factors and answers pivot `k+1`, and only then
//! updates its other rows and sends step `k`'s `L₂₁`. The master takes
//! pivot `k+1`'s reply right after step `k`'s forwards, forwards it at
//! once and then takes step `k`'s `L₂₁` replies. So on each link a pivot
//! reply comes before the `L₂₁` of the step before, no reply is awaited
//! before every frame it needs is sent, and the next pivot is factored
//! while the other workers update their rows. The master keeps, per
//! worker, the replies it owes in the order they will come and takes them
//! in that order. A lone owner asks for each pivot once its rows took
//! the step before, as its own step starts inside its request.
//!
//! At the benchmark's shape that is 368 blocks in 38 frames an op
//! ([`crate::cost`]), and the vertical solve runs on the rows' owners
//! beside their updates. The owned rows, the pivot in hand and its `U₁₂`
//! and a block in flight are what the worker program's `resident ≤ m`
//! invariant counts; a pivot factored within a step replaces its rows one
//! for one.
//!
//! **Streamed rows.** Per step:
//!
//! 1. **One `LuPanel` exchange on the pivot worker**: the pivot block, the
//!    vertical panel below it and the horizontal panel beside it go out in
//!    one frame — blocks in the fixed order of
//!    [`mwp_core::runtime::panel_parts`], the tag naming the pivot width and
//!    the blocks after it — and come back factored and solved in one reply
//!    of the same shape. The last step ships the pivot alone.
//! 2. **The trailing update as a product** ([`ChunkExchange`]): C the
//!    trailing grid of the master's matrix, A the solved vertical panel —
//!    negated as the master serializes it, which is exact — and B the solved
//!    horizontal panel, re-sent from the reply's own bytes. The trailing
//!    rows are dealt as one band per worker, cut into chunks its memory
//!    `m` holds under the product's `µ² + 4µ` layout, so the worker
//!    program's `resident ≤ m` invariant covers LU too. (The `Panel`
//!    exchange's `µ² + 2µ·rest` transient blocks stay outside it.)
//!
//! Every chunk goes out and comes back within its step, so between steps
//! the master's matrix holds every block as it stands.
//!
//! # Recovery
//!
//! Every input of every op comes from the master's matrix and stored
//! factors, which only a *validated* reply changes: a pivot, panel or
//! `L₂₁` reply must carry the tag the master expects and exactly the
//! length it computes from its own numbers, a chunk the product's
//! all-or-nothing collect. A worker that dies, stays silent past the
//! liveness deadline, or answers with anything else is condemned, and
//! recovery is the executor's one rule: the ops it left undone run again
//! at the step's next barrier on the live workers.
//!
//! *Streamed*, a lost panel exchange runs again on the lowest live worker,
//! from the identical bytes, and a lost chunk runs again on a live worker
//! from the master's matrix as of the step's start
//! ([`crate::schedule::redispatch`]). *Owned*, at
//! most two pivots are in hand: `k`, forwarded, and `k+1`, requested. The
//! master tracks per row the pivot left of which its `L` blocks are
//! stored and the pivot it waits on on its worker. Recovery first takes
//! what every live worker owes; then a lost worker's rows — and those of a
//! pivot it factored whose `L₂₁` never came back — are adopted, `µ`-row
//! group by group, round-robin by the live workers, rebuilt to the first
//! pivot whose `L` they lack. Each stored pivot from there on is forwarded
//! again to the workers whose rows wait on it, and a pivot asked of the
//! lost worker — pending or not — is asked of the adopter again, behind
//! the forwards its rows still need, and taken. A lost row is rebuilt, not
//! re-collected: the rows a worker holds are not on the master as they
//! stand. For each block the master records the step at whose start its
//! image was current — the image it last shipped — and a live worker is
//! sent that image and every update since, through the step the row waits
//! on: the stored factors' `−L` and `U`, one `k` at a time in increasing
//! order ([`crate::schedule::rebuild`]). Those are the same kernel calls
//! on the same values in the same order, so the rebuilt rows carry the
//! healthy run's bits. They come back whole, and owned rows are then dealt to
//! their adopter. An adopter that cannot hold what it adopts within its
//! memory `m` aborts the run, as losing the **whole** fleet does
//! ([`LuRunOutcome::aborted`]); the fleet serves again once workers are
//! admitted. Recovered runs are bit-identical to healthy ones.
//!
//! A pivot the worker cannot take (below `PIVOT_TOL`, or not a number) is
//! no loss: the worker answers the pivot request or `Panel` task with a
//! refusal, the request's tag and an empty payload, and any other worker
//! would answer the same. The executor asks one: the lowest other live
//! worker of the run gets the same pivot — owned, after the pivot rows are
//! rebuilt and dealt to it, whether the refused request was answered at
//! once or pending. If it refuses too, nobody is condemned, the
//! run is aborted, and the fleet serves the next run whole; if it factors
//! the pivot, the refuser was lying and is condemned like any rogue.
//!
//! # Fleets
//!
//! [`factor`] runs on any [`RuntimeSession`] — local or remote, the same
//! fleet, workers and worker program serving products and factorizations.
//! A factorization reserves its chunks' `µ_i² + 4µ_i` blocks in the
//! session's memory ledger like any product — `µ_i` the side worker `i`'s
//! memory admits, but no more than the `max(r − µ, 1)` of the largest
//! trailing grid, since no chunk is wider — so it overlaps the runs whose
//! blocks fit beside its own and takes turns with the rest. [`run_lu`] is one-shot
//! (a fresh session per call); [`LuSession`] holds a fleet spawned for
//! factorizations.

use crate::schedule::{chunk_sides, lu_schedule, owners, rebuild, redispatch, LuOp};
use bytes::Bytes;
use mwp_blockmat::lu::Dense;
use mwp_blockmat::{BlockMatrix, BlockOrder, SharedPayloads};
use mwp_core::runtime::{panel_parts, Accumulator, ChunkExchange, Performed, Port, RuntimeError};
use mwp_core::chunks::Chunk;
use mwp_core::schedule::{holding, PortOp};
use mwp_core::session::RuntimeSession;
use mwp_msg::{Frame, FrameKind, MasterEndpoint, Tag, TransportMode};
use mwp_platform::{Platform, WorkerId};
use std::borrow::Cow;
use std::ops::Range;
use std::time::Instant;

/// Outcome of a threaded LU run.
#[derive(Debug)]
pub struct LuRunOutcome {
    /// Packed factors (L below the unit diagonal, U on and above it). Each
    /// block is stored from the one panel reply that made it final, so
    /// after an abort the blocks whose panel never validated read 0.
    pub packed: Dense,
    /// Wall-clock duration.
    pub wall: std::time::Duration,
    /// Frames moved through the master port (both ways), each chunk's
    /// collect request included.
    pub messages: u64,
    /// Matrix blocks moved through the master port (both ways).
    pub blocks_moved: u64,
    /// Workers enrolled.
    pub workers_used: usize,
    /// The first block row of the pivot the run was aborted on because
    /// two workers refused it (below `PIVOT_TOL`, or not a number); `None`
    /// when no pivot was refused twice. [`LuRunOutcome::aborted`] is then
    /// set too.
    pub refused: Option<usize>,
    /// `true` when the master gave up instead of finishing — the fleet is
    /// empty or no worker's memory holds a chunk, the whole-run deadline
    /// (`RuntimeSession::set_run_deadline`) elapsed, a worker refused a
    /// pivot, or every enrolled worker was lost: `packed` then holds a **partial** factorization —
    /// 0 wherever no panel validated, or the whole input when the fleet
    /// holds no chunk — and must be discarded. The fleet itself stays
    /// serving.
    pub aborted: bool,
}

/// A fleet spawned for LU factorizations: a [`RuntimeSession`] whose
/// workers park between runs, so repeated factorizations pay thread
/// spawn/join once and keep every worker's buffers warm.
pub struct LuSession {
    fleet: RuntimeSession,
}

impl LuSession {
    /// Spawn the fleet for `platform` over `mode`; `time_scale` paces the
    /// links (0 = off).
    pub fn with_transport(platform: &Platform, time_scale: f64, mode: TransportMode) -> Self {
        LuSession { fleet: RuntimeSession::with_transport(platform, time_scale, mode) }
    }

    /// Factor `matrix` in `mu`-block panels on the fleet (see [`factor`]).
    pub fn run(&self, matrix: &BlockMatrix, mu: usize) -> LuRunOutcome {
        factor(&self.fleet, matrix, mu)
    }
}

/// Factor `matrix` (square, block side `q`) with panel width `mu_blocks`
/// blocks over `platform` (see [`factor`]). `time_scale` paces the links
/// (0 = off).
///
/// One-shot: spawns a session, runs [`factor`] once, shuts it down.
pub fn run_lu(
    platform: &Platform,
    matrix: &BlockMatrix,
    mu_blocks: usize,
    time_scale: f64,
) -> LuRunOutcome {
    // Pre-flight: a bad call must panic here, before any worker pool is
    // spawned on its behalf.
    validate_lu(matrix, mu_blocks);
    let session = RuntimeSession::new(platform, time_scale);
    let out = factor(&session, matrix, mu_blocks);
    session.shutdown();
    out
}

/// Factor `matrix` (square, block side `q`) in `mu`-block panels on
/// `fleet`: [`lu_schedule`] for every worker of the fleet, each dealt
/// chunks of the side its memory admits up to the largest trailing grid's
/// ([`chunk_sides`]),
/// run as one run of the fleet's
/// master executor once the fleet's memory ledger admits those chunks
/// beside every open run's ([`RuntimeSession::execute`]).
pub fn factor(fleet: &RuntimeSession, matrix: &BlockMatrix, mu: usize) -> LuRunOutcome {
    validate_lu(matrix, mu);
    let start = Instant::now();
    let (r, q) = (matrix.rows(), matrix.q());
    let sides = fleet.platform().map_or_else(Vec::new, |platform| chunk_sides(platform, r, mu));
    let workers_used = sides.len();
    if sides.iter().all(|&side| side == 0) {
        let packed = Dense::from_blocks(matrix);
        let wall = start.elapsed();
        let (messages, blocks_moved, refused) = (0, 0, None);
        return LuRunOutcome { packed, wall, messages, blocks_moved, workers_used, aborted: true, refused };
    }
    let schedule = lu_schedule(r, mu, &sides);
    let owned = if owners(r, mu, &sides).is_some() { vec![Held::default(); r] } else { Vec::new() };
    let memory: Vec<usize> = fleet.platform().map_or_else(Vec::new, |platform| platform.workers().iter().map(|w| w.m).collect());
    // A run over the whole fleet: the ledger puts slot `i` on worker `i`.
    let ops = |_: &[WorkerId]| schedule.clone();
    let (mut port, done) = fleet.execute(&sides, q, ops, |master, gen, _| {
        let chunks = ChunkExchange::new(master, gen, q, vec![Cow::Borrowed(matrix)], sides.to_vec(), mu);
        let (sides, memory, groups) = (&sides[..], &memory[..], if owned.is_empty() { 0 } else { r.div_ceil(mu) });
        let (pivots, links) = (vec![PivotState::default(); groups], vec![Link::default(); sides.len()]);
        // The output is allocated once the first request is out, while
        // the master waits for its reply.
        let (packed, fresh) = (Dense::default(), vec![0; r * r]);
        LuPort { chunks, packed, fresh, refused: None, master, sides, memory, mu, q, r, owned, pivots, links, second_opinion: None }
    });
    port.store_pivots();
    LuRunOutcome {
        wall: start.elapsed(),
        messages: port.chunks.frames(),
        blocks_moved: port.chunks.moved(),
        packed: port.packed,
        workers_used,
        aborted: done.is_err(),
        refused: if done == Err(RuntimeError::Refused) { port.refused } else { None },
    }
}

/// Panics on malformed inputs. Pure, so the one-shot wrapper can reject
/// bad calls before spawning a session.
fn validate_lu(matrix: &BlockMatrix, mu_blocks: usize) {
    let (n, m) = matrix.dims();
    assert_eq!(n, m, "LU needs a square matrix");
    assert!(mu_blocks * matrix.q() > 0, "panel width must be positive");
}

/// The master's side of one open LU run: the chunk exchanges of its
/// trailing updates (streamed) or of its rebuilt rows (owner-computes),
/// one product per step, whose accumulator is the caller's matrix,
/// borrowed until the first commit, and the factors each validated reply
/// stores.
struct LuPort<'a> {
    chunks: ChunkExchange<'a, Cow<'a, BlockMatrix>>,
    /// The packed factors: every block is final in exactly one reply, and
    /// is stored here from it. After an aborted run, the blocks whose
    /// reply never validated read 0. Empty until the first reply is
    /// awaited.
    packed: Dense,
    /// Per block, row by row: the step at whose start the master's image
    /// of the block was current. A block of an owned row stays at the step
    /// it was last shipped in, and a lost one is rebuilt from there
    /// ([`crate::schedule::rebuild`]).
    fresh: Vec<usize>,
    /// The first block row of the last pivot a worker refused.
    refused: Option<usize>,
    /// The run's master endpoint, whose recycled buffers hold each step's
    /// panel task and negated vertical panel.
    master: &'a MasterEndpoint,
    /// `sides[i]` is the chunk side worker `i`'s memory admits.
    sides: &'a [usize],
    /// `memory[i]` is worker `i`'s memory `m`, in blocks.
    memory: &'a [usize],
    /// Panel width in blocks: the trailing updates' depth.
    mu: usize,
    /// Block side.
    q: usize,
    /// Block rows of the matrix.
    r: usize,
    /// Owner-computes: per block row, where it is. Empty on the streamed
    /// path.
    owned: Vec<Held>,
    /// Owner-computes: per `µ`-row group, its pivot.
    pivots: Vec<PivotState>,
    /// Owner-computes: per worker, what it owes and holds pending.
    links: Vec<Link>,
    /// Owner-computes: the group of the pivot a worker refused, whose rows
    /// go to the worker asked for a second opinion.
    second_opinion: Option<usize>,
}

/// Where one block row of an owner-computes run is: the worker holding it
/// (none before its deal), the pivot column left of which its `L` blocks
/// are stored (`col`), and the pivot column it waits on on its worker
/// (`at`) — ahead of `col` while its `L₂₁` reply is on the way, and `r`
/// once the row is folded into its factored pivot.
#[derive(Debug, Clone, Copy, Default)]
struct Held {
    worker: Option<WorkerId>,
    col: usize,
    at: usize,
}

/// The pivot of one `µ`-row group of an owner-computes run: the worker
/// last asked for it, and its reply once it validated — kept, to forward,
/// while a row may still wait on it — and whether `packed` holds it yet.
#[derive(Debug, Clone, Default)]
struct PivotState {
    requested: Option<WorkerId>,
    validated: bool,
    reply: Option<Frame>,
    stored: bool,
}

/// What a worker of an owner-computes run owes, in the order its frames
/// will come, and the request it holds pending.
#[derive(Debug, Clone, Default)]
struct Link {
    owed: std::collections::VecDeque<Owed>,
    pending: Option<usize>,
}

/// One reply a worker owes: a group's pivot, or the `L₂₁` blocks of its
/// rows `rows` for a group's pivot.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Owed {
    Pivot(usize),
    Lower(usize, Vec<usize>),
}

impl Port for LuPort<'_> {
    type Op = LuOp;

    fn worker(op: &LuOp) -> WorkerId {
        op.worker()
    }

    /// A pivot's reply is read by what follows it, and a `Panel` reads
    /// what the whole step before it stored: a barrier on both sides.
    fn same_phase(op: &LuOp, next: &LuOp) -> bool {
        !op.is_pivot() && !next.is_pivot()
    }

    fn perform(&mut self, op: &LuOp) -> Performed {
        match op {
            LuOp::Panel { worker, pivot, rest } => self.panel(*worker, pivot, *rest),
            LuOp::Chunk(op) => {
                let performed = self.chunks.perform(op);
                if performed == Performed::Done {
                    self.committed(op);
                }
                performed
            }
            LuOp::Deal { worker, rows, cols } => self.deal(*worker, rows.clone(), cols.clone()),
            LuOp::Request { worker, pivot, .. } => self.request(*worker, pivot.start / self.mu),
            LuOp::Pivot { worker, pivot, .. } => self.pivot(*worker, pivot.start / self.mu),
            LuOp::Forward { worker, pivot, .. } => self.forward(*worker, pivot.start / self.mu),
            LuOp::Lower { worker, pivot, .. } => self.lower(*worker, pivot.start / self.mu),
        }
    }

    fn redispatch(&mut self, undone: Vec<LuOp>, live: &[WorkerId]) -> Option<Vec<LuOp>> {
        if !self.owned.is_empty() {
            return self.adopt(&undone, live);
        }
        let r = self.r;
        redispatch(undone, live, self.sides, self.mu, |i, j| self.fresh[i * r + j])
    }
}

impl LuPort<'_> {
    /// The `Panel` exchange on `worker` of the step whose pivot is the
    /// block range `pivot`, with `rest` blocks after it: the pivot and both
    /// panels out in one frame, factored and solved back in one reply,
    /// stored as factors only once the reply validates — then the step's
    /// trailing update is added to the chunk exchanges as the product of
    /// the negated vertical panel and the horizontal one. `Refused`, with
    /// nothing stored, when the worker answers with the refusal reply (the
    /// task's tag, an empty payload: it met a pivot it cannot take);
    /// `Lost`, with nothing stored, when it dies, stays silent past the
    /// liveness deadline, or answers with anything else.
    fn panel(&mut self, worker: WorkerId, pivot: &Range<usize>, rest: usize) -> Performed {
        let (p, k1, q) = (pivot.len(), pivot.end, self.q);
        let (blocks, bb) = (panel_blocks(pivot, rest), q * q * 8);
        let matrix = &*self.chunks.accumulator();
        let task = self.master.pooled_payload(blocks.len() * bb, |task| {
            blocks.iter().for_each(|&(i, j)| matrix.block(i, j).write_bytes_into(task));
        });
        let (tag, n) = (Tag::new(FrameKind::LuPanel, p, rest), blocks.len() as u64);
        if !self.chunks.post(worker, tag, task, n) {
            return Performed::Lost;
        }
        self.allocate();
        let Some(reply) = self.chunks.take(worker, n) else { return Performed::Lost };
        if reply.tag == tag && reply.payload.is_empty() {
            self.refused = Some(pivot.start);
            return Performed::Refused;
        }
        if !store(&mut self.packed, q, &blocks, tag, &reply) {
            return Performed::Lost;
        }
        if rest > 0 {
            // A: the solved vertical panel with every sign bit flipped.
            let (vertical, horizontal) = (p * p * bb, p * (p + rest) * bb);
            let minus_l = self.master.pooled_payload(horizontal - vertical, |minus_l| {
                minus_l.extend_from_slice(&reply.payload[vertical..horizontal]);
                minus_l.chunks_exact_mut(8).for_each(|le| le[7] ^= 0x80);
            });
            let a = SharedPayloads::from_bytes(minus_l, rest, p, q, BlockOrder::ColMajor);
            let b = reply.payload.slice(horizontal..);
            let b = SharedPayloads::from_bytes(b, p, rest, q, BlockOrder::RowMajor);
            self.chunks.push(a, b, k1);
        }
        Performed::Done
    }

    /// Note what the validated chunk op `op` brought back: the blocks a
    /// `Collect` returned are current on the master as of the next step.
    fn committed(&mut self, op: &PortOp) {
        let PortOp::Collect { job: step, chunk, .. } = *op else { return };
        // Step `s`'s grid starts at block `(s + 1)·µ`, as in the schedule.
        let (at, r) = ((step + 1) * self.mu, self.r);
        for i in chunk.rows() {
            self.fresh[(at + i) * r + at + chunk.j0..][..chunk.width].fill(step + 1);
        }
    }

    /// The output, all zeros, the first time a reply is awaited.
    fn allocate(&mut self) {
        if self.packed.rows() == 0 {
            self.packed = Dense::zeros(self.r * self.q, self.r * self.q);
        }
    }
}

impl LuPort<'_> {
    /// Block rows of the pivot of group `g`.
    fn group(&self, g: usize) -> Range<usize> {
        g * self.mu..((g + 1) * self.mu).min(self.r)
    }

    /// Whether block row `i` is final: its pivot validated and every `L`
    /// block left of it stored.
    fn is_final(&self, i: usize) -> bool {
        let g = i / self.mu;
        self.owned[i].col == self.group(g).start && self.pivots[g].validated
    }

    /// Deal block rows `rows`, columns `cols`, to `worker` from the
    /// master's images, one frame a row. The rows are the worker's from
    /// the first frame on, so that a death mid-deal leaves them with it.
    fn deal(&mut self, worker: WorkerId, rows: Range<usize>, cols: Range<usize>) -> Performed {
        for i in rows.clone() {
            self.owned[i] = Held { worker: Some(worker), col: cols.start, at: cols.start };
        }
        for i in rows {
            let payload = self.chunks.accumulator().row(self.master, (i, cols.start), cols.len());
            if !self.chunks.post(worker, Tag::new(FrameKind::LuRow, i, cols.start), payload, cols.len() as u64) {
                return Performed::Lost;
            }
        }
        Performed::Done
    }

    /// Ask `worker` for the pivot of group `g`, unless it does not hold
    /// the pivot's rows or was asked already. The worker answers at once
    /// when the rows wait on the pivot, else holds the request pending
    /// until they take the step they wait on.
    fn request(&mut self, worker: WorkerId, g: usize) -> Performed {
        let pivot = self.group(g);
        let held = pivot.clone().all(|i| self.owned[i].worker == Some(worker));
        if !held || self.pivots[g].requested == Some(worker) || self.is_final(pivot.start) {
            return Performed::Done;
        }
        self.pivots[g].requested = Some(worker);
        let link = &mut self.links[worker.index()];
        if self.owned[pivot.start].at == pivot.start {
            link.owed.push_back(Owed::Pivot(g));
        } else {
            link.pending = Some(g);
        }
        let tag = Tag::new(FrameKind::LuPivot, pivot.start, pivot.end);
        if self.chunks.post(worker, tag, Bytes::new(), 0) { Performed::Done } else { Performed::Lost }
    }

    /// Take the pivot of group `g` from `worker`, with every reply it
    /// sends before it; `Done` at once when it is validated and `worker`
    /// owes it no more.
    fn pivot(&mut self, worker: WorkerId, g: usize) -> Performed {
        if let Some(at) = self.links[worker.index()].owed.iter().position(|owed| *owed == Owed::Pivot(g)) {
            return self.take_first(worker, at + 1);
        }
        if self.pivots[g].validated { Performed::Done } else { Performed::Lost }
    }

    /// Forward the validated pivot of group `g`, as it came, to `worker`
    /// if rows of its wait on it — once `worker` sent the pivots it owes,
    /// whose own steps its rows take first.
    fn forward(&mut self, worker: WorkerId, g: usize) -> Performed {
        let Some(reply) = self.pivots[g].reply.clone() else { return Performed::Done };
        while let Some(at) = self.links[worker.index()].owed.iter().position(|owed| matches!(owed, Owed::Pivot(_))) {
            let taken = self.take_first(worker, at + 1);
            if taken != Performed::Done {
                return taken;
            }
        }
        let p0 = self.group(g).start;
        if !self.owned.iter().any(|held| held.worker == Some(worker) && held.at == p0) {
            return Performed::Done;
        }
        let blocks = (reply.payload.len() / (self.q * self.q * 8)) as u64;
        if !self.chunks.post(worker, reply.tag, reply.payload, blocks) {
            return Performed::Lost;
        }
        self.expect_step(worker, g);
        Performed::Done
    }

    /// Take every `L₂₁` reply `worker` owes for the pivots of groups up to
    /// `g`, with every reply it sends before them.
    fn lower(&mut self, worker: WorkerId, g: usize) -> Performed {
        let owes = |owed: &Owed| matches!(owed, Owed::Lower(h, _) if *h <= g);
        while let Some(at) = self.links[worker.index()].owed.iter().rposition(owes) {
            let taken = self.take_first(worker, at + 1);
            if taken != Performed::Done {
                return taken;
            }
        }
        Performed::Done
    }

    /// What `worker` sends for the step of group `g`'s pivot, once it has
    /// it: the rows it holds that wait on the pivot take the step — the
    /// rows of its pending request first, whose pivot it then answers —
    /// and their `L₂₁` come back.
    fn expect_step(&mut self, worker: WorkerId, g: usize) {
        let pivot = self.group(g);
        let rows: Vec<usize> = (0..self.r).filter(|&i| self.owned[i].worker == Some(worker) && self.owned[i].at == pivot.start).collect();
        if rows.is_empty() {
            return;
        }
        let next = self.links[worker.index()].pending.filter(|&n| n == g + 1 && self.group(n).all(|i| rows.contains(&i)));
        let link = &mut self.links[worker.index()];
        if let Some(next) = next {
            link.pending = None;
            link.owed.push_back(Owed::Pivot(next));
        }
        link.owed.push_back(Owed::Lower(g, rows.clone()));
        rows.iter().for_each(|&i| self.owned[i].at = pivot.end);
    }

    /// Take the next `n` replies `worker` owes, in the order it sends
    /// them.
    fn take_first(&mut self, worker: WorkerId, n: usize) -> Performed {
        for _ in 0..n {
            let Some(owed) = self.links[worker.index()].owed.pop_front() else { return Performed::Lost };
            let taken = self.take(worker, owed);
            if taken != Performed::Done {
                return taken;
            }
        }
        Performed::Done
    }

    /// Take everything `worker` owes, and what the pivots among it make
    /// it owe.
    fn drain(&mut self, worker: WorkerId) -> Performed {
        while !self.links[worker.index()].owed.is_empty() {
            let taken = self.take_first(worker, self.links[worker.index()].owed.len());
            if taken != Performed::Done {
                return taken;
            }
        }
        Performed::Done
    }

    /// Take the reply `owed` from `worker` and act on it once it
    /// validates: a pivot is kept to forward, and the owner's rows that
    /// wait on it take its step; `L₂₁` blocks are stored, and their rows
    /// wait on the next pivot. Before it waits, the master stores the
    /// pivots it forwarded. `Refused` when a pivot comes back refused (its
    /// rows stay where they are), `Lost` when the worker dies, stays silent
    /// or sends anything else.
    fn take(&mut self, worker: WorkerId, owed: Owed) -> Performed {
        self.allocate();
        self.store_pivots();
        let bb = self.q * self.q * 8;
        match owed {
            Owed::Pivot(g) => {
                let pivot = self.group(g);
                let blocks = pivot.len() * (pivot.len() + self.r - pivot.end);
                let Some(reply) = self.chunks.take(worker, blocks as u64) else { return Performed::Lost };
                let tag = Tag::new(FrameKind::LuPivot, pivot.start, pivot.end);
                if reply.tag == tag && reply.payload.is_empty() {
                    (self.refused, self.second_opinion) = (Some(pivot.start), Some(g));
                    return Performed::Refused;
                }
                if reply.tag != tag || reply.payload.len() != blocks * bb {
                    return Performed::Lost;
                }
                self.pivots[g] = PivotState { validated: true, reply: Some(reply), stored: false, ..self.pivots[g] };
                pivot.for_each(|i| self.owned[i].at = self.r);
                self.expect_step(worker, g);
            }
            Owed::Lower(g, rows) => {
                let pivot = self.group(g);
                let blocks: Vec<(usize, usize)> = rows.iter().flat_map(|&i| pivot.clone().map(move |j| (i, j))).collect();
                let Some(reply) = self.chunks.take(worker, blocks.len() as u64) else { return Performed::Lost };
                if !store(&mut self.packed, self.q, &blocks, Tag::new(FrameKind::LuRow, pivot.start, pivot.end), &reply) {
                    return Performed::Lost;
                }
                rows.iter().for_each(|&i| self.owned[i].col = pivot.end);
                // A pivot no row still needs forwarded is let go.
                let needed = (0..self.r).filter(|&i| !self.is_final(i)).map(|i| self.owned[i].col).min().unwrap_or(self.r);
                for g in 0..self.pivots.len().min(needed / self.mu) {
                    self.pivots[g].reply = self.pivots[g].reply.take().filter(|_| !self.pivots[g].stored);
                }
            }
        }
        Performed::Done
    }

    /// Copy each validated pivot not stored yet into the output.
    fn store_pivots(&mut self) {
        if !self.pivots.iter().any(|state| state.validated && !state.stored) {
            return;
        }
        self.allocate();
        for g in 0..self.pivots.len() {
            let (pivot, state) = (self.group(g), &self.pivots[g]);
            let Some(reply) = state.reply.as_ref().filter(|_| state.validated && !state.stored) else { continue };
            let (rows, r) = (|| pivot.clone(), self.r);
            let blocks: Vec<(usize, usize)> = rows()
                .flat_map(|i| pivot.clone().map(move |j| (i, j)))
                .chain(rows().flat_map(|i| (pivot.end..r).map(move |j| (i, j))))
                .collect();
            // The reply validated: its tag and length are the blocks'.
            store(&mut self.packed, self.q, &blocks, reply.tag, reply);
            self.pivots[g].stored = true;
        }
    }

    /// What redoes an owner-computes phase the `undone` ops lost, on the
    /// `live` workers with a chunk side. Each live worker is first drained
    /// of what it owes. Then the rows of every dead worker — and, for a
    /// pivot its live owner refused, the pivot's rows, which go to the one
    /// worker asked for a second opinion — are adopted by `µ`-row group,
    /// round-robin: each is rebuilt from the master's image through the
    /// steps whose `L` it has stored ([`rebuild`], from the stored `−L` and
    /// `U`), brought back and dealt to its adopter as a row it owns. Then,
    /// pivot by pivot from the lowest column a row waits on: a pivot asked
    /// for before whose rows moved is asked of their adopter again, behind
    /// the forwards its rows need, and taken; and each validated pivot is
    /// forwarded to every live worker whose rows wait on it. Last, every
    /// live worker is drained again. `None` when no live worker holds a
    /// chunk, or an adopter's memory cannot hold what it adopts.
    fn adopt(&mut self, undone: &[LuOp], live: &[WorkerId]) -> Option<Vec<LuOp>> {
        let (master, mu, r) = (self.master, self.mu, self.r);
        let mut live = holding(live, self.sides);
        loop {
            live.retain(|&w| !master.is_dead(w));
            if live.is_empty() {
                return None;
            }
            // A worker that fails its drain is lost with the rest.
            let Some(failed) = live.iter().copied().find(|&w| self.drain(w) != Performed::Done) else { break };
            master.mark_dead(failed);
        }
        self.allocate();
        self.store_pivots();
        // Rows a deal to a worker already dead never reached are its too.
        for op in undone {
            if let LuOp::Deal { worker, rows, cols } = op {
                for held in self.owned[rows.clone()].iter_mut().filter(|held| held.worker.is_none()) {
                    *held = Held { worker: Some(*worker), col: cols.start, at: cols.start };
                }
            }
        }
        let refused = self.second_opinion.take();
        let lost = |port: &Self, i: usize| {
            !port.is_final(i) && (port.owned[i].worker.is_some_and(|w| master.is_dead(w)) || refused == Some(i / mu))
        };
        // (row, its adopter), by group, round-robin.
        let mut moved: Vec<(usize, WorkerId)> = Vec::new();
        for g in (0..r).step_by(mu) {
            let rows: Vec<usize> = (g..(g + mu).min(r)).filter(|&i| lost(self, i)).collect();
            if !rows.is_empty() {
                let adopter = live[moved.len() % live.len()];
                moved.extend(rows.into_iter().map(|i| (i, adopter)));
            }
        }
        let (side, step) = (self.sides.iter().max().copied().unwrap_or(0), mu.min(r) * r);
        for &w in &live {
            let held: usize = (0..r).filter(|&i| self.owned[i].worker == Some(w) || moved.contains(&(i, w))).map(|i| r - self.owned[i].col).sum();
            if held + step + side * side + 2 * side + 1 > self.memory.get(w.index()).copied().unwrap_or(0) {
                return None;
            }
        }
        // What the master's images lack: each moved row's updates from its
        // image's step to the pivot column left of which its `L` is
        // stored, as a chunk of the grid of the step before that pivot, by
        // runs of rows with one target.
        let mut lost_chunks: Vec<(usize, Chunk)> = Vec::new();
        for &(i, _) in &moved {
            let col = self.owned[i].col;
            if col / mu == self.fresh[i * r + col] {
                continue;
            }
            let target = col / mu - 1;
            match lost_chunks.last_mut() {
                Some((t, chunk)) if *t == target && chunk.i0 + chunk.height + col == i => chunk.height += 1,
                _ => lost_chunks.push((target, Chunk { i0: i - col, j0: 0, height: 1, width: r - col })),
            }
        }
        if let Some(last) = lost_chunks.iter().map(|&(t, _)| t).max() {
            (self.chunks.products()..=last).for_each(|k| self.push_step(k));
        }
        let fresh = |i: usize, j: usize| self.fresh[i * r + j];
        let mut ops: Vec<LuOp> = rebuild(lost_chunks, &live, self.sides, mu, fresh)?.into_iter().map(LuOp::Chunk).collect();
        for run in moved.chunk_by(|a, b| b.0 == a.0 + 1 && a.1 == b.1 && self.owned[a.0].col == self.owned[b.0].col) {
            let (worker, col) = (run[0].1, self.owned[run[0].0].col);
            ops.push(LuOp::Deal { worker, rows: run[0].0..run[run.len() - 1].0 + 1, cols: col..r });
        }
        // Where each row will be once the deals are done, and the lowest
        // column a row of a live worker waits on.
        let holder = |i: usize| moved.iter().find(|&&(at, _)| at == i).map(|&(_, w)| w).or(self.owned[i].worker);
        let waits = |i: usize| if moved.iter().any(|&(at, _)| at == i) { self.owned[i].col } else { self.owned[i].at };
        let from = (0..r).filter(|&i| !self.is_final(i) && holder(i).is_some_and(|w| live.contains(&w))).map(waits).min().unwrap_or(r);
        let wanted = |g: usize| {
            self.pivots[g].requested.is_some()
                || undone.iter().any(|op| matches!(op, LuOp::Request { pivot, .. } | LuOp::Pivot { pivot, .. } if pivot.start == g * mu))
        };
        let upto = (0..self.pivots.len()).filter(|&g| wanted(g)).max();
        for g in (from / mu)..upto.map_or(0, |g| g + 1) {
            let (pivot, rest) = (self.group(g), r - self.group(g).end);
            let owner = holder(pivot.start).filter(|w| live.contains(w));
            if let Some(worker) = owner.filter(|_| wanted(g) && !self.is_final(pivot.start)) {
                if self.pivots[g].requested != Some(worker) {
                    ops.push(LuOp::Request { worker, pivot: pivot.clone(), rest, rows: 0 });
                }
                ops.push(LuOp::Pivot { worker, pivot: pivot.clone(), rest });
            }
            ops.extend(live.iter().map(|&worker| LuOp::Forward { worker, pivot: pivot.clone(), rest, rows: 0 }));
        }
        ops.extend(live.iter().map(|&worker| LuOp::Lower { worker, pivot: r..r, rows: 0 }));
        Some(ops)
    }

    /// Add step `k`'s trailing update to the chunk exchanges as its job
    /// `k`, from the factors stored: A the negated `L₂₁`, B the `U₁₂`.
    fn push_step(&mut self, k: usize) {
        let (q, mu, r, bb) = (self.q, self.mu, self.r, self.q * self.q * 8);
        let (k0, k1) = (k * mu, ((k + 1) * mu).min(r));
        let (p, rest, packed) = (k1 - k0, r - k1, &self.packed);
        let minus_l = self.master.pooled_payload(rest * p * bb, |buf| {
            BlockOrder::ColMajor.coords(rest, p).for_each(|(i, j)| packed.write_block(q, (k1 + i, k0 + j), buf));
            buf.chunks_exact_mut(8).for_each(|le| le[7] ^= 0x80);
        });
        let upper = self.master.pooled_payload(p * rest * bb, |buf| {
            BlockOrder::RowMajor.coords(p, rest).for_each(|(i, j)| packed.write_block(q, (k0 + i, k1 + j), buf));
        });
        let a = SharedPayloads::from_bytes(minus_l, rest, p, q, BlockOrder::ColMajor);
        let b = SharedPayloads::from_bytes(upper, p, rest, q, BlockOrder::RowMajor);
        self.chunks.push(a, b, k1);
    }
}

/// The blocks of the matrix a `Panel` exchange carries for the pivot
/// `pivot` with `rest` blocks after it, in wire order ([`panel_parts`]):
/// the pivot, the vertical panel below it, the horizontal panel beside it.
fn panel_blocks(pivot: &Range<usize>, rest: usize) -> Vec<(usize, usize)> {
    let (k0, k1) = (pivot.start, pivot.end);
    let origins = [(k0, k0), (k1, k0), (k0, k1)];
    let mut blocks = Vec::new();
    for ((rows, cols, order), (i0, j0)) in panel_parts(pivot.len(), rest).into_iter().zip(origins) {
        blocks.extend(order.coords(rows, cols).map(|(i, j)| (i0 + i, j0 + j)));
    }
    blocks
}

/// Store `reply` over `blocks` (of side `q`) of `packed`, provided it answers the task
/// `tag` with exactly those blocks — a length the master computes from
/// its own numbers. Nothing the worker wrote sizes, slices or indexes
/// anything, and `packed` is untouched unless the whole reply validates.
fn store(packed: &mut Dense, q: usize, blocks: &[(usize, usize)], tag: Tag, reply: &Frame) -> bool {
    if reply.tag != tag || reply.payload.len() != blocks.len() * q * q * 8 {
        return false;
    }
    for (&at, image) in blocks.iter().zip(reply.payload.chunks_exact(q * q * 8)) {
        packed.read_block(q, at, image);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{owned_comm, scheduled_comm, LuProblem};
    use crate::schedule::lower;
    use mwp_core::schedule::PortOp;
    use mwp_blockmat::fill::{random_diagonally_dominant, random_matrix};
    use mwp_blockmat::lu::{lu_blocked_in_place, scaled_residual};
    use mwp_msg::config::Config;
    use mwp_msg::session::{serve_worker, RunExit, RUN_ABORT, RUN_END};
    use mwp_msg::{TransportListener, WorkerEndpoint};
    use std::thread::JoinHandle;

    fn platform(p: usize) -> Platform {
        Platform::homogeneous(p, 1.0, 1.0, 1000).unwrap()
    }

    #[test]
    fn a_panel_task_is_the_parts_the_worker_decodes() {
        // The master's task image of a step — 3 × 3 blocks of q = 2 from
        // block 1, one block after the pivot — is the three parts the
        // worker decodes: the pivot, the vertical panel and the horizontal
        // panel of the matrix.
        let matrix = random_matrix(5, 5, 2, 7);
        let (pivot, rest) = (1..3, 2);
        let blocks = panel_blocks(&pivot, rest);
        assert_eq!(blocks.len(), 2 * 2 + 2 * 2 * 2);
        let mut wire = Vec::new();
        blocks.iter().for_each(|&(i, j)| matrix.block(i, j).write_bytes_into(&mut wire));
        let dense = Dense::from_blocks(&matrix);
        let want = [dense.submatrix(2, 6, 2, 6), dense.submatrix(6, 10, 2, 6), dense.submatrix(2, 6, 6, 10)];
        let mut at = 0;
        for ((rows, cols, order), want) in panel_parts(2, rest).into_iter().zip(want) {
            let part = &wire[at..at + rows * cols * 32];
            at += part.len();
            let mut read = Dense::default();
            read.read_block_bytes(part, rows, cols, 2, order);
            assert_eq!(read, want, "{order:?}");
        }
        assert_eq!(at, wire.len());
        // The last step's exchange is the pivot alone.
        assert_eq!(panel_blocks(&(4..5), 0), [(4, 4)]);
    }

    #[test]
    fn regions_travel_in_place_and_only_exact_replies_are_stored() {
        // A reply is stored over the blocks the task was cut from; one
        // with another tag, a block short or a block over stores nothing.
        let source = random_matrix(4, 4, 3, 8);
        let (pivot, rest) = (0..2, 1);
        let blocks = panel_blocks(&pivot, rest);
        let tag = Tag::new(FrameKind::LuPanel, 2, rest);
        let mut image = Vec::new();
        blocks.iter().for_each(|&at| Dense::from_blocks(&source).write_block(3, at, &mut image));
        let image = Bytes::from(image);
        let reply = |tag, payload| Frame::new(tag, payload);
        let bb = 3 * 3 * 8;

        let mut dst = Dense::zeros(12, 12);
        for (what, rogue) in [
            ("another tag", reply(Tag::new(FrameKind::LuPanel, rest, 2), image.clone())),
            ("another kind", reply(Tag::new(FrameKind::CResult, 2, rest), image.clone())),
            ("a block short", reply(tag, image.slice(..image.len() - bb))),
            ("a block over", reply(tag, Bytes::from([&image[..], &image[..bb]].concat()))),
        ] {
            assert!(!store(&mut dst, 3, &blocks, tag, &rogue), "{what}");
            assert_eq!(dst, Dense::zeros(12, 12), "{what}: nothing stored");
        }
        assert!(store(&mut dst, 3, &blocks, tag, &reply(tag, image)));
        for (i, j, block) in dst.to_blocks(3).iter_blocks() {
            let carried = blocks.contains(&(i, j));
            assert_eq!(block == source.block(i, j), carried, "block ({i}, {j})");
        }
    }

    #[test]
    fn parallel_lu_matches_serial_blocked() {
        let matrix = random_diagonally_dominant(4, 6, 31); // 24×24
        let out = run_lu(&platform(3), &matrix, 2, 0.0);
        let mut serial = Dense::from_blocks(&matrix);
        lu_blocked_in_place(&mut serial, 12);
        assert_eq!(
            out.packed.max_abs_diff(&serial),
            0.0,
            "parallel and serial factorizations diverge"
        );
        assert!(out.messages > 0);
    }

    #[test]
    fn the_trailing_rows_stream_in_chunks_within_the_memory_bound() {
        // §7.2's layout: m = µ² + 4µ = 12 holds 2 × 2 chunks, so each
        // step's trailing rows stream through the workers chunk by chunk
        // under the product worker's `resident ≤ m` assertion — which
        // `shutdown` would re-raise — and the factors are still the serial
        // ones, bit for bit.
        let matrix = random_diagonally_dominant(8, 4, 33);
        let tight = Platform::homogeneous(2, 1.0, 1.0, 12).unwrap();
        let session = RuntimeSession::new(&tight, 0.0);
        let out = factor(&session, &matrix, 2);
        assert_eq!(session.shutdown(), 2, "no worker exceeded m");
        let mut serial = Dense::from_blocks(&matrix);
        lu_blocked_in_place(&mut serial, 8);
        assert!(!out.aborted && out.packed == serial);
        let ops = lu_schedule(8, 2, &[2, 2]);
        let chunks = ops.iter().filter(|op| matches!(op.chunk(), Some(PortOp::SendC { .. }))).count();
        assert_eq!(chunks, 12 + 4 + 2, "two bands of each trailing grid, cut to side 2");
        let frames = lower(&ops);
        assert!(mwp_sim::Simulator::new(tight).without_trace().run(&mut frames.into_iter()).is_ok());
    }

    #[test]
    fn reconstruction_is_accurate() {
        let matrix = random_diagonally_dominant(5, 4, 77); // 20×20
        let out = run_lu(&platform(4), &matrix, 1, 0.0);
        let err = scaled_residual(&out.packed, &Dense::from_blocks(&matrix));
        assert!(err < 1.0, "‖LU − A‖ / (‖A‖·n·ε) = {err}");
    }

    #[test]
    fn single_worker_also_works() {
        let matrix = random_diagonally_dominant(3, 5, 5);
        let out = run_lu(&platform(1), &matrix, 1, 0.0);
        assert!(scaled_residual(&out.packed, &Dense::from_blocks(&matrix)) < 1.0);
        assert_eq!(out.workers_used, 1);
    }

    #[test]
    fn panel_width_does_not_change_the_answer() {
        let matrix = random_diagonally_dominant(4, 4, 9); // 16×16
        let a = run_lu(&platform(2), &matrix, 1, 0.0).packed;
        let b = run_lu(&platform(2), &matrix, 2, 0.0).packed;
        let c = run_lu(&platform(2), &matrix, 4, 0.0).packed;
        assert!(a.max_abs_diff(&b) < 1e-9);
        assert!(b.max_abs_diff(&c) < 1e-9);
    }

    /// Frames and blocks `ops` put through the port: the lowered frames
    /// that carry blocks, plus a collect request per chunk and a request
    /// per owned pivot.
    fn scheduled(ops: &[LuOp]) -> (u64, u64) {
        let blocks: Vec<u64> = lower(ops)
            .iter()
            .map(|frame| match frame {
                mwp_sim::Decision::Send { blocks, .. } | mwp_sim::Decision::Recv { blocks, .. } => *blocks,
                _ => 0,
            })
            .filter(|&blocks| blocks > 0)
            .collect();
        let requests = ops
            .iter()
            .filter(|op| matches!(op, LuOp::Pivot { .. } | LuOp::Chunk(PortOp::Collect { .. })))
            .count();
        ((blocks.len() + requests) as u64, blocks.iter().sum())
    }

    #[test]
    fn one_panel_exchange_per_step() {
        // 12 blocks in steps of 2 on 2 workers (the perf shape, small q),
        // whose rows are owned: the 12 block rows dealt, one frame each;
        // a pivot request and its reply a step; the reply forwarded to the
        // other worker at the five steps it holds trailing rows; and an
        // L₂₁ reply from each worker holding trailing rows — both at the
        // first four steps, worker 1 alone at the fifth.
        let matrix = random_diagonally_dominant(12, 4, 11);
        let out = run_lu(&platform(2), &matrix, 2, 0.0);
        assert_eq!(out.messages, scheduled(&lu_schedule(12, 2, &[10, 10])).0);
        assert_eq!(out.messages, 12 + 6 * 2 + 5 + (4 * 2 + 1));
        assert_eq!(out.messages, 38);
    }

    #[test]
    fn metered_blocks_are_the_lowered_frames_and_the_closed_form() {
        // Ragged sizes included, on both paths: (r, µ, workers, m).
        for (r, mu, p, m) in [
            (12, 2, 2, 1000),
            (6, 2, 3, 1000),
            (7, 3, 2, 1000),
            (5, 2, 1, 1000),
            (4, 4, 2, 1000),
            (8, 2, 2, 12),
            (8, 2, 3, 1000),
            (9, 2, 2, 1000),
            (6, 2, 2, 1000),
        ] {
            let matrix = random_diagonally_dominant(r, 2, 60);
            let fleet = Platform::homogeneous(p, 1.0, 1.0, m).unwrap();
            let out = run_lu(&fleet, &matrix, mu, 0.0);
            let sides = chunk_sides(&fleet, r, mu);
            let (frames, blocks) = scheduled(&lu_schedule(r, mu, &sides));
            assert_eq!((out.blocks_moved, out.messages), (blocks, frames), "{r} x {r}, µ = {mu}, {p} workers, m = {m}");
            if r % mu == 0 {
                let model = match owners(r, mu, &sides) {
                    Some(owners) => owned_comm(LuProblem::new(r, mu), owners.len()),
                    None => scheduled_comm(LuProblem::new(r, mu), p, sides[0]),
                };
                assert_eq!(blocks as f64, model, "{r} x {r}, µ = {mu}, {p} workers, m = {m}");
            }
        }
        // The benchmark's shape: 368 blocks in 38 frames, where the
        // model's exact closed form counts 1 008.
        let out = run_lu(&platform(2), &random_diagonally_dominant(12, 2, 61), 2, 0.0);
        assert_eq!((out.blocks_moved, out.messages), (368, 38));
        assert_eq!(out.blocks_moved as f64, owned_comm(LuProblem::new(12, 2), 2));
        assert_eq!(LuProblem::new(12, 2).total().comm_closed_form_exact(), 1008.0);
    }

    #[test]
    fn a_paced_link_is_charged_each_frames_true_size() {
        // One worker, c = 1, 1 ms per block: 4 × 4 blocks at µ = 2 are 13
        // frames of 48 blocks in all, so the run takes at least 48 ms — a
        // per-message meter would charge it 13.
        let matrix = random_diagonally_dominant(4, 2, 62);
        let session = LuSession::with_transport(&platform(1), 1e-3, TransportMode::Channel);
        let out = session.run(&matrix, 2);
        assert_eq!((out.messages, out.blocks_moved), (13, 48));
        assert!(out.wall.as_secs_f64() >= out.blocks_moved as f64 * 1e-3, "{:?} for {} blocks", out.wall, out.blocks_moved);
    }

    #[test]
    fn concurrent_callers_take_turns_on_one_session() {
        // One fleet serves factorizations and products, admitted by its
        // memory ledger. m = 12 is one 2 × 2 chunk's exchange on either
        // side, so two runs overlapping on a worker would take it past its
        // memory, and it would drop its link.
        let session = RuntimeSession::new(&Platform::homogeneous(2, 1.0, 1.0, 12).unwrap(), 0.0);
        let matrix = random_diagonally_dominant(6, 4, 40);
        let (a, b, c) = (random_matrix(4, 3, 4, 41), random_matrix(3, 4, 4, 42), random_matrix(4, 4, 4, 43));
        let factors = factor(&session, &matrix, 2).packed;
        let product = session.run_all_workers(&a, &b, c.clone()).unwrap().c;
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                start.wait();
                for _ in 0..4 {
                    assert_eq!(factor(&session, &matrix, 2).packed, factors, "concurrent vs solo LU");
                }
            });
            scope.spawn(|| {
                start.wait();
                for _ in 0..4 {
                    assert_eq!(session.run_all_workers(&a, &b, c.clone()).unwrap().c, product, "concurrent vs solo product");
                }
            });
        });
        assert_eq!(session.dead_workers(), 0);
        assert_eq!(session.shutdown(), 2);
    }

    /// What a rogue worker answers a `Panel` task with.
    type RogueReply = fn(&Frame) -> Frame;

    /// The bytes of one block of `task`, a `Panel` task frame.
    fn block_of(task: &Frame) -> usize {
        let (p, rest) = (task.tag.i as usize, task.tag.j as usize);
        task.payload.len() / (p * (p + 2 * rest))
    }

    const SHORT_PAYLOAD: RogueReply = |task| Frame::new(task.tag, task.payload.slice(8..));

    const ROGUE_REPLIES: [(&str, RogueReply); 4] = [
        ("short payload", SHORT_PAYLOAD),
        ("mis-shaped tag", |task| {
            let shape = Tag::new(FrameKind::LuPanel, task.tag.j as usize, task.tag.i as usize);
            Frame::new(shape, task.payload.clone())
        }),
        ("extra block", |task| {
            Frame::new(task.tag, Bytes::from([&task.payload[..], &task.payload[..block_of(task)]].concat()))
        }),
        ("another kind", |task| Frame::new(Tag::new(FrameKind::CResult, 0, 0), task.payload.clone())),
    ];

    /// What a rogue answers an owner-computes pivot request or forward
    /// with.
    const OWNER_ROGUES: [(&str, RogueReply); 3] = [
        ("a torn reply", |frame| Frame::new(frame.tag, Bytes::from(vec![0u8; 8]))),
        ("the frame echoed as L₂₁", |frame| {
            Frame::new(Tag::new(FrameKind::LuRow, frame.tag.i as usize, frame.tag.j as usize), frame.payload.clone())
        }),
        ("another kind", |_| Frame::new(Tag::new(FrameKind::CResult, 0, 0), Bytes::from(vec![0u8; 8]))),
    ];

    /// A fleet of `p` workers of memory `m` over loopback TCP, each a
    /// thread in this process: the product program where `!rogue(i)`, else
    /// one that takes every dealt row without a word, answers every `Panel`
    /// task, pivot request and forwarded pivot with `reply` and every
    /// collect with a frame of nothing. Worker `i` dials `i`-th, on the calling
    /// thread, so it is enrolled into slot `i`. Returns the session and the
    /// threads.
    fn fleet_with_rogues(
        p: usize,
        m: usize,
        rogue: impl Fn(usize) -> bool,
        reply: RogueReply,
    ) -> (RuntimeSession, Vec<JoinHandle<()>>) {
        let listener = TransportListener::bind_tcp("127.0.0.1:0").unwrap();
        let threads = (0..p)
            .map(|i| {
                let stream = mwp_msg::transport::connect(&listener.endpoint()).expect("dial the master");
                let rogue = rogue(i);
                std::thread::spawn(move || {
                    let enrolled = mwp_msg::transport::enroll_with(stream, b"", 0, &Config::default());
                    let (ep, _) = enrolled.expect("enrollment succeeds");
                    if !rogue {
                        return mwp_core::remote::serve(ep, m);
                    }
                    serve_worker(ep, &mut |_q: u32, ep: &WorkerEndpoint| loop {
                        let Ok(frame) = ep.recv() else { return RunExit::Terminate };
                        match frame.tag.kind {
                            FrameKind::Shutdown => return RunExit::Terminate,
                            FrameKind::Control if matches!(frame.tag.i, RUN_END | RUN_ABORT) => {
                                return RunExit::Completed
                            }
                            FrameKind::LuPanel | FrameKind::LuPivot => ep.send(reply(&frame)),
                            FrameKind::Control => ep.send(Frame::new(Tag::new(FrameKind::CResult, 0, 0), Bytes::new())),
                            _ => {}
                        }
                    });
                })
            })
            .collect();
        let fleet = Platform::homogeneous(p, 1.0, 1.0, m).unwrap();
        let session = RuntimeSession::accept_remote(&fleet, 0.0, &listener, &Config::default()).unwrap();
        (session, threads)
    }

    #[test]
    fn rogue_replies_condemn_the_worker_not_the_master() {
        // Worker-supplied tags and lengths must be checked before anything
        // is stored: each rogue reply costs its sender the link, the op is
        // retried or re-dispatched, and the survivor's result is exact —
        // whether the rogue holds the pivot chain (slot 0) or only chunks.
        // 6 blocks at µ = 2 on m = 1000 stream: sides of 4 reserve 32
        // blocks, short of a worker's 4 rows of 6 and a step's 12.
        let matrix = random_diagonally_dominant(6, 4, 51);
        assert!(owners(6, 2, &chunk_sides(&platform(2), 6, 2)).is_none());
        let healthy = run_lu(&platform(2), &matrix, 2, 0.0).packed;
        for (what, reply) in ROGUE_REPLIES {
            for slot in [0, 1] {
                let (session, threads) = fleet_with_rogues(2, 1000, |i| i == slot, reply);
                let out = factor(&session, &matrix, 2);
                assert!(!out.aborted, "{what} from slot {slot}");
                assert_eq!(out.packed, healthy, "{what} from slot {slot}");
                assert_eq!(session.dead_workers(), 1, "{what}: only the rogue is condemned");
                session.shutdown();
                threads.into_iter().for_each(|t| t.join().unwrap());
            }
        }
    }

    #[test]
    fn rogue_owners_cost_their_link_and_their_rows_are_adopted() {
        // 8 blocks at µ = 2 on m = 1000 deal the rows: sides of 6 reserve
        // 60 blocks, which hold a worker's 4 rows of 8 and a step's 16. A
        // rogue in slot 0 answers its first pivot request badly; one in
        // slot 1 its first, which is sent ahead of the forward its rows
        // wait on — a rogue answer to a pending request. Either way the
        // master stores nothing of it, condemns it, and the survivor adopts
        // its rows — rebuilt from the stored factors where they took steps
        // — and finishes the factors bit for bit.
        let matrix = random_diagonally_dominant(8, 4, 55);
        let ops = lu_schedule(8, 2, &chunk_sides(&platform(2), 8, 2));
        let slot1 = ops.iter().position(|op| matches!(op, LuOp::Request { worker, .. } if *worker == WorkerId(1)));
        assert!(matches!(slot1.map(|at| &ops[at + 1]), Some(LuOp::Forward { worker, .. }) if *worker == WorkerId(1)), "slot 1's first request rides ahead");
        let mut serial = Dense::from_blocks(&matrix);
        lu_blocked_in_place(&mut serial, 8);
        for (what, reply) in OWNER_ROGUES {
            for slot in [0, 1] {
                let (session, threads) = fleet_with_rogues(2, 1000, |i| i == slot, reply);
                let out = factor(&session, &matrix, 2);
                assert!(!out.aborted, "{what} from slot {slot}");
                assert_eq!(out.packed, serial, "{what} from slot {slot}");
                assert_eq!(session.dead_workers(), 1, "{what}: only the rogue is condemned");
                session.shutdown();
                threads.into_iter().for_each(|t| t.join().unwrap());
            }
        }
    }

    #[test]
    fn a_rogue_costs_its_link_where_chunk_rows_straddle_reply_images() {
        // m = 12 holds chunks of side 2, and panels 1 block wide move the
        // trailing grid one column per step, so each chunk row the next
        // step ships straddles two of the chunks this step committed. The
        // rogue's lost work is re-run from the master's matrix, and the
        // factors are still the serial ones, bit for bit.
        let matrix = random_diagonally_dominant(6, 4, 53);
        let mut serial = Dense::from_blocks(&matrix);
        lu_blocked_in_place(&mut serial, 4);
        for slot in [0, 1] {
            let (session, threads) = fleet_with_rogues(2, 12, |i| i == slot, SHORT_PAYLOAD);
            let out = factor(&session, &matrix, 1);
            assert!(!out.aborted, "rogue in slot {slot}");
            assert_eq!(out.packed, serial, "rogue in slot {slot}");
            assert_eq!(session.dead_workers(), 1, "only the rogue in slot {slot} is condemned");
            session.shutdown();
            threads.into_iter().for_each(|t| t.join().unwrap());
        }
    }

    /// Three small products and the C a fresh 2-worker session's HoLM
    /// run makes of them: what a shared fleet must still compute after
    /// a factorization, bit for bit.
    fn next_product() -> ((BlockMatrix, BlockMatrix, BlockMatrix), BlockMatrix) {
        let (a, b, c) = (random_matrix(3, 4, 8, 1), random_matrix(4, 3, 8, 2), random_matrix(3, 3, 8, 3));
        let solo = RuntimeSession::new(&platform(2), 0.0);
        let want = solo.run_holm(&a, &b, c.clone()).unwrap().c;
        solo.shutdown();
        ((a, b, c), want)
    }

    #[test]
    fn a_matrix_at_any_scale_factors_on_a_shared_fleet() {
        // Strictly dominant, but scaled by 1e-14 every pivot is ≈ 3e-13,
        // below `PIVOT_TOL` itself: the pivot test is relative to its
        // block, so the fleet factors it as the serial reference does, bit
        // for bit, loses no worker, and serves the next caller's product.
        let mut tiny = random_diagonally_dominant(4, 8, 7);
        (0..4).for_each(|i| (0..4).for_each(|j| tiny.block_mut(i, j).scale(1e-14)));
        let mut serial = Dense::from_blocks(&tiny);
        lu_blocked_in_place(&mut serial, 8);
        let ((a, b, c), want) = next_product();
        for mode in [TransportMode::Channel, TransportMode::Tcp] {
            let session = RuntimeSession::with_transport(&platform(2), 0.0, mode);
            let out = factor(&session, &tiny, 1);
            assert!(!out.aborted, "{mode:?}");
            assert_eq!(out.packed, serial, "{mode:?}: the serial factors, bit for bit");
            assert_eq!(session.dead_workers(), 0, "{mode:?}");
            let next = session.run_holm(&a, &b, c.clone()).unwrap().c;
            assert_eq!(next.max_abs_diff(&want), 0.0, "{mode:?}: the fleet serves on");
            session.shutdown();
        }
    }

    #[test]
    fn a_refused_pivot_aborts_the_run_and_condemns_no_worker() {
        // An exact zero leading pivot is refused at step 0. A NaN on block
        // (2, 2)'s diagonal is met at step 2, after two pivots validated.
        // The rows are owned (4 blocks at µ = 1: sides of 3 reserve 21
        // blocks, which hold 2 rows of 4 and a step's 4), so each refusal's
        // second opinion first deals the pivot rows to the other worker.
        assert!(owners(4, 1, &chunk_sides(&platform(2), 4, 1)).is_some());
        let mut zero = random_diagonally_dominant(4, 8, 7);
        zero.set(0, 0, 0.0);
        let mut nan = random_diagonally_dominant(4, 8, 7);
        nan.set(20, 20, f64::NAN);
        let ((a, b, c), want) = next_product();
        for mode in [TransportMode::Channel, TransportMode::Tcp] {
            let session = RuntimeSession::with_transport(&platform(2), 0.0, mode);
            for (what, input, step) in [("a zero leading pivot", &zero, 0), ("a NaN entry", &nan, 2)] {
                let out = factor(&session, input, 1);
                assert!(out.aborted, "{mode:?}, {what}");
                assert_eq!(out.refused, Some(step), "{mode:?}, {what}: the pivot's first block row");
                assert_eq!(session.dead_workers(), 0, "{mode:?}, {what}: a refusal is no death");
                let next = session.run_holm(&a, &b, c.clone()).unwrap().c;
                assert_eq!(next.max_abs_diff(&want), 0.0, "{mode:?}, {what}: the fleet serves on");
            }
            session.shutdown();
        }
    }

    #[test]
    fn a_rogue_refusing_every_pivot_is_condemned_and_the_run_finishes() {
        // A refusal gets a second opinion: the other slot factors every
        // pivot the rogue refuses, so the rogue, not the input, is at
        // fault and cannot veto the factorization — streamed (6 blocks, the
        // pivot chain on slot 0) or with the rows owned (8 blocks), where
        // the other slot first adopts the refused pivot's rows. Owned, slot
        // 0's first pivot is asked for at once and slot 1's is sent ahead,
        // pending: a refused pending pivot gets its second opinion too.
        for (blocks, rogue) in [(6, 0), (8, 0), (8, 1)] {
            let matrix = random_diagonally_dominant(blocks, 4, 54);
            let healthy = run_lu(&platform(2), &matrix, 2, 0.0).packed;
            let owned = owners(blocks, 2, &chunk_sides(&platform(2), blocks, 2)).is_some();
            assert_eq!(owned, blocks == 8);
            let (session, threads) = fleet_with_rogues(2, 1000, |i| i == rogue, |t| Frame::new(t.tag, Bytes::new()));
            let out = factor(&session, &matrix, 2);
            let what = format!("{blocks} blocks, rogue in slot {rogue}");
            assert!(!out.aborted, "{what}: one worker's refusal must not abort the run");
            assert_eq!(out.refused, None, "{what}: no pivot was refused twice");
            assert_eq!(out.packed, healthy, "{what}");
            assert_eq!(session.dead_workers(), 1, "{what}: the refuser is condemned");
            session.shutdown();
            threads.into_iter().for_each(|t| t.join().unwrap());
        }
    }

    #[test]
    fn owned_factors_are_bit_identical_on_one_two_and_three_workers() {
        // With rows owned, one owner asks for each pivot after its step
        // before, two or three overlap the steps by a pivot: the factors
        // are the serial ones, bit for bit, ragged last groups included.
        // One worker holds every row only of a small matrix (its side is
        // clipped to the first trailing grid's).
        for (blocks, mu, fleets) in [(5, 1, 1..=3), (9, 2, 2..=3), (12, 2, 2..=3)] {
            let matrix = random_diagonally_dominant(blocks, 8, 57);
            let mut serial = Dense::from_blocks(&matrix);
            lu_blocked_in_place(&mut serial, 8 * mu);
            for p in fleets {
                let fleet = Platform::homogeneous(p, 1.0, 1.0, 100_000).unwrap();
                assert!(owners(blocks, mu, &chunk_sides(&fleet, blocks, mu)).is_some(), "{blocks} blocks: {p} workers own the rows");
                let out = run_lu(&fleet, &matrix, mu, 0.0);
                assert!(!out.aborted && out.packed == serial, "{blocks} blocks on {p} workers");
            }
        }
    }

    #[test]
    fn losing_the_whole_fleet_aborts_the_run_and_the_session_recovers() {
        let matrix = random_diagonally_dominant(6, 4, 52);
        let healthy = run_lu(&platform(2), &matrix, 2, 0.0).packed;
        let (mut session, rogues) = fleet_with_rogues(2, 1000, |_| true, SHORT_PAYLOAD);
        assert!(factor(&session, &matrix, 2).aborted, "no survivor can take the pivot chain");
        assert_eq!(session.dead_workers(), 2);
        assert!(factor(&session, &matrix, 2).aborted, "a fleet of dead workers aborts again");
        assert_eq!(session.prune_dead(), 2);
        assert!(session.platform().is_none());
        assert!(factor(&session, &matrix, 2).aborted, "and so does an empty fleet");
        rogues.into_iter().for_each(|t| t.join().unwrap());

        // One honest worker dials in: the same session serves a clean run.
        let listener = TransportListener::bind_tcp("127.0.0.1:0").unwrap();
        let endpoint = listener.endpoint();
        let worker = std::thread::spawn(move || {
            let patience = std::time::Duration::from_secs(10);
            let (ep, welcome) =
                mwp_msg::transport::enroll_with_retry(&endpoint, patience, b"", &Config::default())
                    .expect("enrollment succeeds");
            mwp_core::remote::serve(ep, welcome.m as usize);
        });
        session.admit(&listener, mwp_platform::WorkerParams::new(1.0, 1.0, 1000)).unwrap();
        let out = factor(&session, &matrix, 2);
        assert!(!out.aborted);
        assert_eq!(out.packed, healthy);
        session.shutdown();
        worker.join().unwrap();
    }
}
