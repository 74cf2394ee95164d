//! Threaded LU execution with real arithmetic, on the product's own fleet.
//!
//! The master (the calling thread) walks [`crate::schedule::lu_schedule`]
//! — the right-looking factorization of Section 7.2 as plain data — over
//! a [`RuntimeSession`]'s workers through the product runtime's one master
//! executor ([`mwp_core::runtime::execute`]). The workers run the
//! product's own program: one of them factors each pivot and solves its
//! panels, and every trailing update is a product made of the chunk
//! exchanges the product runtimes use — real `f64` arithmetic throughout,
//! verified against the serial blocked factorization.
//! [`crate::homogeneous`] simulates the same ops.
//!
//! # Message pattern
//!
//! The master never copies the matrix whole. It keeps each block row as
//! the wire images of its `q × q` blocks: the caller's [`BlockMatrix`] until
//! a reply replaces them, then the reply images the row's chunks came back
//! in, which the next step ships again as views. A block is final in
//! exactly one panel reply, and the master stores it from there into the
//! [`Dense`] the run returns, then lets go of every image left of the
//! trailing grid. Per step ([`crate::schedule`] gives the order):
//!
//! 1. **One `LuPanel` exchange on the pivot worker**: the pivot block, the
//!    vertical panel below it and the horizontal panel beside it go out in
//!    one frame — blocks in the fixed order of
//!    [`mwp_core::runtime::panel_parts`], the tag naming the pivot width and
//!    the blocks after it — and come back factored and solved in one reply
//!    of the same shape: Section 7.2's aggregate message to the one worker
//!    that owns the pivot chain. The last step ships the pivot alone.
//! 2. **The trailing update as a product** ([`ChunkExchange`]): C the
//!    trailing grid's row images, A the solved vertical panel — negated as
//!    the master serializes it, which is exact, so each `(−a)·b` block
//!    update carries the bits of `lu_blocked_in_place`'s `a·(−b)` — and B
//!    the solved horizontal panel, re-sent from the reply's own bytes. The
//!    trailing rows go out as one band per worker, cut into chunks its
//!    memory `m` holds under the product's `µ² + 4µ` layout, so the worker
//!    program's `resident ≤ m` invariant covers LU too. (The `Panel`
//!    exchange's `µ² + 2µ·rest` transient blocks stay outside it.)
//!
//! Every frame is metered, and a paced link charged, at its true size in
//! blocks.
//!
//! # Recovery
//!
//! Every input of every op comes from the master's row images, which only
//! a *validated* reply replaces: a `Panel` reply must carry its task's tag and
//! exactly its length, a chunk the product's all-or-nothing collect. A
//! worker that dies, stays silent past the liveness deadline, or answers
//! with anything else is condemned, and recovery is the executor's one
//! rule: the ops it left undone run again at the step's next barrier on
//! the live workers ([`crate::schedule::redispatch`]) — a panel exchange
//! on the lowest, lost chunks as the product re-deals them — from the
//! identical bytes, so recovered runs are bit-identical to healthy ones.
//! Losing the **whole** fleet aborts the run ([`LuRunOutcome::aborted`]);
//! the fleet serves again once workers are admitted.
//!
//! A pivot the worker cannot take (below `PIVOT_TOL`, or not a number) is
//! no loss: the worker answers the `Panel` task with a refusal, the task's
//! tag and an empty payload, and any other worker would answer the same.
//! So nobody is condemned and nothing re-dispatched; the run is aborted,
//! and the fleet serves the next run whole.
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

use crate::schedule::{lu_schedule, redispatch, LuOp};
use bytes::Bytes;
use mwp_blockmat::lu::Dense;
use mwp_blockmat::{BlockMatrix, BlockOrder, SharedPayloads};
use mwp_core::runtime::{panel_parts, Accumulator, ChunkExchange, Performed, Port};
use mwp_core::session::RuntimeSession;
use mwp_core::MemoryLayout;
use mwp_msg::{Frame, FrameKind, MasterEndpoint, Tag, TransportMode};
use mwp_platform::{Platform, WorkerId};
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
/// blocks over `platform` (its first worker also handles the pivot and
/// panel phases). `time_scale` paces the links (0 = off).
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
/// chunks of the side its memory admits up to the largest trailing grid's,
/// run as one run of the fleet's
/// master executor once the fleet's memory ledger admits those chunks
/// beside every open run's ([`RuntimeSession::execute`]).
pub fn factor(fleet: &RuntimeSession, matrix: &BlockMatrix, mu: usize) -> LuRunOutcome {
    validate_lu(matrix, mu);
    let start = Instant::now();
    // No chunk exceeds the first step's trailing grid, so a side past it
    // would only hold memory the chunks never use.
    let (r, q) = (matrix.rows(), matrix.q());
    let largest = r.saturating_sub(mu).max(1);
    let sides: Vec<usize> = fleet.platform().map_or_else(Vec::new, |platform| {
        platform.workers().iter().map(|w| MemoryLayout::MaxReuseOverlapped.mu(w.m).min(largest)).collect()
    });
    let workers_used = sides.len();
    if sides.iter().all(|&side| side == 0) {
        let packed = Dense::from_blocks(matrix);
        let wall = start.elapsed();
        return LuRunOutcome { packed, wall, messages: 0, blocks_moved: 0, workers_used, aborted: true };
    }
    // A run over the whole fleet: the ledger puts slot `i` on worker `i`.
    let ops = |_: &[WorkerId]| lu_schedule(r, mu, &sides);
    let (port, done) = fleet.execute(&sides, q, ops, |master, gen, _| LuPort {
        chunks: ChunkExchange::new(master, gen, q, vec![RowImages::new(matrix)], sides.to_vec(), mu),
        packed: Dense::zeros(r * q, r * q),
        master,
        sides: &sides,
        mu,
        q,
    });
    LuRunOutcome {
        wall: start.elapsed(),
        messages: port.chunks.frames(),
        blocks_moved: port.chunks.moved(),
        packed: port.packed,
        workers_used,
        aborted: done.is_err(),
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
/// trailing updates, one product per step, whose accumulator is the
/// trailing rows' images, and the factors each validated panel stores.
struct LuPort<'a> {
    chunks: ChunkExchange<'a, RowImages<'a>>,
    /// The packed factors: every block is final in exactly one panel
    /// reply, and is stored here from it. After an aborted run, the blocks
    /// whose panel never validated read 0.
    packed: Dense,
    /// The run's master endpoint, whose recycled buffers hold each step's
    /// panel task and negated vertical panel.
    master: &'a MasterEndpoint,
    /// `sides[i]` is the chunk side worker `i`'s memory admits.
    sides: &'a [usize],
    /// Panel width in blocks: the trailing updates' depth.
    mu: usize,
    /// Block side.
    q: usize,
}

impl Port for LuPort<'_> {
    type Op = LuOp;

    fn worker(op: &LuOp) -> WorkerId {
        match op {
            LuOp::Panel { worker, .. } => *worker,
            LuOp::Chunk(op) => op.target().1,
        }
    }

    /// A `Panel` reads what the whole step before it stored, and the
    /// whole step after it reads what it stores: a barrier on both sides.
    fn same_phase(op: &LuOp, next: &LuOp) -> bool {
        op.chunk().is_some() && next.chunk().is_some()
    }

    fn perform(&mut self, op: &LuOp) -> Performed {
        match op {
            LuOp::Panel { worker, pivot, rest } => self.panel(*worker, pivot, *rest),
            LuOp::Chunk(op) => self.chunks.perform(op),
        }
    }

    fn redispatch(&self, undone: Vec<LuOp>, live: &[WorkerId]) -> Option<Vec<LuOp>> {
        redispatch(undone, live, self.sides, self.mu)
    }
}

impl LuPort<'_> {
    /// The `Panel` exchange on `worker` of the step whose pivot is the
    /// block range `pivot`, with `rest` blocks after it: the pivot and both
    /// panels out in one frame, factored and solved back in one reply,
    /// stored as factors only once the reply validates — then the rows'
    /// images let go of what is final, and the step's trailing update is
    /// added to the chunk exchanges as the product of the negated vertical
    /// panel and the horizontal one. `Refused`, with nothing stored, when
    /// the worker answers with the refusal reply (the task's tag, an empty
    /// payload: it met a pivot it cannot take); `Lost`, with nothing
    /// stored, when it dies, stays silent past the liveness deadline, or
    /// answers with anything else.
    fn panel(&mut self, worker: WorkerId, pivot: &Range<usize>, rest: usize) -> Performed {
        let (p, k1, q) = (pivot.len(), pivot.end, self.q);
        let (blocks, bb) = (panel_blocks(pivot, rest), q * q * 8);
        let rows = &*self.chunks.accumulator();
        let task = self.master.pooled_payload(blocks.len() * bb, |task| {
            blocks.iter().for_each(|&at| rows.write_block(at, task));
        });
        let (tag, n) = (Tag::new(FrameKind::LuPanel, p, rest), blocks.len() as u64);
        let Some(reply) = self.chunks.round_trip(worker, tag, task, n) else { return Performed::Lost };
        if reply.tag == tag && reply.payload.is_empty() {
            return Performed::Refused;
        }
        if !store(&mut self.packed, q, &blocks, tag, &reply) {
            return Performed::Lost;
        }
        self.chunks.accumulator().retire(pivot);
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
}

/// The master's copy of the matrix a factorization has not yet finished:
/// each block row a list of non-overlapping segments `(first block column,
/// image)` in column order — the reply images its trailing chunks came
/// back in, or what is left of them — over the caller's matrix, which
/// holds every block no reply has replaced yet. Nothing is copied up
/// front, a chunk row commits by keeping its reply, and the next step
/// ships that row's suffix as a view of it.
struct RowImages<'a> {
    input: &'a BlockMatrix,
    rows: Vec<Vec<(usize, Bytes)>>,
    /// Bytes per block image.
    bb: usize,
}

impl<'a> RowImages<'a> {
    fn new(input: &'a BlockMatrix) -> Self {
        RowImages { input, rows: vec![Vec::new(); input.rows()], bb: input.q() * input.q() * 8 }
    }

    /// The segment of row `i` holding column `j`, if a reply replaced it.
    fn segment(&self, (i, j): (usize, usize)) -> Option<&(usize, Bytes)> {
        let row = &self.rows[i];
        let segment = row[..row.partition_point(|&(j0, _)| j0 <= j)].last()?;
        (j < segment.0 + segment.1.len() / self.bb).then_some(segment)
    }

    /// Append the image of block `(i, j)` to `out`.
    fn write_block(&self, (i, j): (usize, usize), out: &mut Vec<u8>) {
        match self.segment((i, j)) {
            Some((j0, image)) => out.extend_from_slice(&image[(j - j0) * self.bb..][..self.bb]),
            None => self.input.block(i, j).write_bytes_into(out),
        }
    }

    /// Cut columns `cols` out of row `i`, keeping the remnants either side
    /// of them; returns where in the row a segment at `cols` would go.
    fn cut(&mut self, i: usize, cols: Range<usize>) -> usize {
        let (bb, row) = (self.bb, &mut self.rows[i]);
        let first = row.partition_point(|(j0, image)| j0 + image.len() / bb <= cols.start);
        let last = row.partition_point(|&(j0, _)| j0 < cols.end);
        if first >= last {
            return first;
        }
        let (j0, image) = &row[first];
        let left = (*j0 < cols.start).then(|| (*j0, image.slice(..(cols.start - j0) * bb)));
        let (j0, image) = &row[last - 1];
        let end = j0 + image.len() / bb;
        let right = (end > cols.end).then(|| (cols.end, image.slice((cols.end - j0) * bb..)));
        let at = first + usize::from(left.is_some());
        row.splice(first..last, left.into_iter().chain(right));
        at
    }

    /// Let go of what a validated panel made final: the pivot rows, and
    /// every trailing row left of the trailing grid.
    fn retire(&mut self, pivot: &Range<usize>) {
        self.rows[pivot.clone()].iter_mut().for_each(Vec::clear);
        for i in pivot.end..self.rows.len() {
            self.cut(i, 0..pivot.end);
        }
    }
}

impl Accumulator for RowImages<'_> {
    /// A view of the one reply image holding the whole range, else the
    /// blocks gathered into `master`'s recycled buffers.
    fn row(&self, master: &MasterEndpoint, (i, j0): (usize, usize), w: usize) -> Bytes {
        if let Some((s, image)) = self.segment((i, j0)) {
            if j0 + w <= s + image.len() / self.bb {
                return image.slice((j0 - s) * self.bb..(j0 + w - s) * self.bb);
            }
        }
        master.pooled_payload(w * self.bb, |buf| (j0..j0 + w).for_each(|j| self.write_block((i, j), buf)))
    }

    fn commit_row(&mut self, (i, j0): (usize, usize), payload: Bytes) {
        let at = self.cut(i, j0..j0 + payload.len() / self.bb);
        self.rows[i].insert(at, (j0, payload));
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
    use crate::cost::{scheduled_comm, LuProblem};
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

    /// The images of blocks `(i, cols)` of `matrix`, back to back.
    fn images(matrix: &BlockMatrix, i: usize, cols: Range<usize>) -> Vec<u8> {
        let mut out = Vec::new();
        cols.for_each(|j| matrix.block(i, j).write_bytes_into(&mut out));
        out
    }

    /// A master endpoint, whose buffer pool row gathers are built in.
    fn master() -> MasterEndpoint {
        mwp_msg::StarNetwork::build(&platform(1), 0.0).into_endpoints().0
    }

    #[test]
    fn a_committed_row_ships_its_suffix_as_a_view() {
        // A 10-block reply committed at column 2: the next step's 8 blocks
        // from column 4 are the reply's own bytes, 2 blocks in.
        let (input, reply) = (random_matrix(12, 12, 2, 70), random_matrix(12, 12, 2, 71));
        let master = master();
        let mut rows = RowImages::new(&input);
        let payload = Bytes::from(images(&reply, 3, 2..12));
        rows.commit_row((3, 2), payload.clone());
        let suffix = rows.row(&master, (3, 4), 8);
        assert_eq!(suffix.as_ptr(), payload.as_ptr().wrapping_add(2 * 8 * 2 * 2), "a view, not a copy");
        assert_eq!(suffix[..], images(&reply, 3, 4..12));
    }

    #[test]
    fn a_range_across_segments_gathers_the_blocks_images() {
        let (input, reply) = (random_matrix(12, 12, 2, 72), random_matrix(12, 12, 2, 73));
        let master = master();
        let mut rows = RowImages::new(&input);
        rows.commit_row((5, 2), Bytes::from(images(&reply, 5, 2..6)));
        rows.commit_row((5, 6), Bytes::from(images(&reply, 5, 6..10)));
        assert_eq!(rows.row(&master, (5, 4), 4)[..], images(&reply, 5, 4..8), "across two replies");
        let past = [images(&reply, 5, 8..10), images(&input, 5, 10..12)].concat();
        assert_eq!(rows.row(&master, (5, 8), 4)[..], past, "from a reply into the input");
        let before = [images(&input, 5, 0..2), images(&reply, 5, 2..4)].concat();
        assert_eq!(rows.row(&master, (5, 0), 4)[..], before, "from the input into a reply");
    }

    #[test]
    fn a_commit_inside_a_segment_keeps_both_remnants() {
        let (input, reply, update) =
            (random_matrix(12, 12, 2, 74), random_matrix(12, 12, 2, 75), random_matrix(12, 12, 2, 76));
        let master = master();
        let mut rows = RowImages::new(&input);
        rows.commit_row((6, 0), Bytes::from(images(&reply, 6, 0..12)));
        rows.commit_row((6, 4), Bytes::from(images(&update, 6, 4..7)));
        assert_eq!(rows.rows[6].iter().map(|(j0, _)| *j0).collect::<Vec<_>>(), [0, 4, 7]);
        let want = [images(&reply, 6, 0..4), images(&update, 6, 4..7), images(&reply, 6, 7..12)].concat();
        assert_eq!(rows.row(&master, (6, 0), 12)[..], want);
        assert_eq!(rows.row(&master, (6, 7), 5)[..], images(&reply, 6, 7..12), "the right remnant");
        assert_eq!(rows.row(&master, (6, 0), 4)[..], images(&reply, 6, 0..4), "the left remnant");
    }

    #[test]
    fn blocks_no_commit_touched_read_as_the_input() {
        let (input, reply) = (random_matrix(4, 6, 2, 77), random_matrix(4, 6, 2, 78));
        let master = master();
        let mut rows = RowImages::new(&input);
        rows.commit_row((1, 2), Bytes::from(images(&reply, 1, 2..4)));
        for i in [0, 2, 3] {
            assert_eq!(rows.row(&master, (i, 0), 6)[..], images(&input, i, 0..6), "row {i}");
        }
        for j in [0, 1, 4, 5] {
            let mut block = Vec::new();
            rows.write_block((1, j), &mut block);
            assert_eq!(block, images(&input, 1, j..j + 1), "block (1, {j})");
        }
    }

    #[test]
    fn validated_panels_let_go_of_everything_left_of_the_trailing_grid() {
        // Every row committed whole, then the panels of steps 0 and 1: the
        // pivot rows hold nothing, and each trailing row holds its one reply
        // from column 4 on.
        let (input, reply) = (random_matrix(8, 8, 2, 79), random_matrix(8, 8, 2, 80));
        let master = master();
        let mut rows = RowImages::new(&input);
        let payloads: Vec<Bytes> = (0..8).map(|i| Bytes::from(images(&reply, i, 0..8))).collect();
        (0..8).for_each(|i| rows.commit_row((i, 0), payloads[i].clone()));
        rows.retire(&(0..2));
        rows.retire(&(2..4));
        assert!(rows.rows[..4].iter().all(Vec::is_empty), "the pivot rows hold nothing");
        for (i, payload) in payloads.iter().enumerate().skip(4) {
            let [(j0, image)] = &rows.rows[i][..] else { panic!("row {i}: {} segments", rows.rows[i].len()) };
            assert_eq!((*j0, image.as_ptr()), (4, payload.as_ptr().wrapping_add(4 * 32)), "row {i}");
            assert_eq!(rows.row(&master, (i, 4), 4)[..], images(&reply, i, 4..8));
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

    /// Frames and blocks `ops` put through the port: the lowered frames,
    /// plus a collect request per chunk.
    fn scheduled(ops: &[LuOp]) -> (u64, u64) {
        let frames = lower(ops);
        let blocks = frames
            .iter()
            .map(|frame| match frame {
                mwp_sim::Decision::Send { blocks, .. } | mwp_sim::Decision::Recv { blocks, .. } => *blocks,
                _ => 0,
            })
            .sum();
        let requests = ops.iter().filter(|op| matches!(op.chunk(), Some(PortOp::Collect { .. }))).count();
        ((frames.len() + requests) as u64, blocks)
    }

    #[test]
    fn one_panel_exchange_per_step() {
        // 12 blocks in steps of 2 on 2 workers (the perf shape, small q):
        // 6 panel exchanges, and per step with `rest` = 10, 8, 6, 4, 2
        // trailing rows one band per worker — its `rest` C rows out and
        // back, 2 B rows and 2 A columns, a collect request each.
        let matrix = random_diagonally_dominant(12, 4, 11);
        let out = run_lu(&platform(2), &matrix, 2, 0.0);
        assert_eq!(out.messages, scheduled(&lu_schedule(12, 2, &[29, 29])).0);
        assert_eq!(out.messages, 6 * 2 + [10, 8, 6, 4, 2].map(|rest| 2 * rest + 2 * 4 + 2).iter().sum::<u64>());
        assert_eq!(out.messages, 122);
    }

    #[test]
    fn metered_blocks_are_the_lowered_frames_and_the_closed_form() {
        // Ragged sizes included: (r, µ, workers, m).
        for (r, mu, p, m) in [(12, 2, 2, 1000), (6, 2, 3, 1000), (7, 3, 2, 1000), (5, 2, 1, 1000), (4, 4, 2, 1000), (8, 2, 2, 12)] {
            let matrix = random_diagonally_dominant(r, 2, 60);
            let fleet = Platform::homogeneous(p, 1.0, 1.0, m).unwrap();
            let out = run_lu(&fleet, &matrix, mu, 0.0);
            let side = MemoryLayout::MaxReuseOverlapped.mu(m);
            let (frames, blocks) = scheduled(&lu_schedule(r, mu, &vec![side; p]));
            assert_eq!((out.blocks_moved, out.messages), (blocks, frames), "{r} x {r}, µ = {mu}, {p} workers, m = {m}");
            if r % mu == 0 {
                assert_eq!(blocks as f64, scheduled_comm(LuProblem::new(r, mu), p, side));
            }
        }
        // The benchmark's shape: 908 blocks in 122 frames, where the
        // model's exact closed form counts 1 008.
        let out = run_lu(&platform(2), &random_diagonally_dominant(12, 2, 61), 2, 0.0);
        assert_eq!((out.blocks_moved, out.messages), (908, 122));
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
        // side, so two runs overlapping on a worker would trip its memory
        // assertion, which `shutdown` re-raises.
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

    /// A fleet of `p` workers of memory `m` over loopback TCP, each a
    /// thread in this process: the product program where `!rogue(i)`, else
    /// one that answers every `Panel` task with `reply` and every collect
    /// with a frame of nothing. Returns the session and the threads.
    fn fleet_with_rogues(
        p: usize,
        m: usize,
        rogue: impl Fn(usize) -> bool,
        reply: RogueReply,
    ) -> (RuntimeSession, Vec<JoinHandle<()>>) {
        let listener = TransportListener::bind(TransportMode::Tcp).unwrap();
        let threads = (0..p)
            .map(|i| {
                let (endpoint, rogue) = (listener.endpoint(), rogue(i));
                std::thread::spawn(move || {
                    let patience = std::time::Duration::from_secs(10);
                    let claim = Some(WorkerId(i));
                    let enrolled = mwp_msg::transport::enroll_with_retry(&endpoint, patience, claim, b"", &Config::default());
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
                            FrameKind::LuPanel => ep.send(reply(&frame)),
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
        let matrix = random_diagonally_dominant(6, 4, 51);
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
    fn a_rogue_costs_its_link_where_chunk_rows_straddle_reply_images() {
        // m = 12 holds chunks of side 2, and panels 1 block wide move the
        // trailing grid one column per step, so each chunk row the next
        // step ships straddles two of the rows this step committed and is
        // gathered. The rogue's lost work is re-run from those gathers, and
        // the factors are still the serial ones, bit for bit.
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

    #[test]
    fn a_refused_pivot_aborts_the_run_and_condemns_no_worker() {
        // Strictly dominant, but scaled by 1e-14 every pivot falls below
        // `PIVOT_TOL`: refused at step 0. A NaN on block (2, 2)'s diagonal
        // is met at step 2, after two panels validated.
        let mut tiny = random_diagonally_dominant(4, 8, 7);
        (0..4).for_each(|i| (0..4).for_each(|j| tiny.block_mut(i, j).scale(1e-14)));
        let mut nan = random_diagonally_dominant(4, 8, 7);
        nan.set(20, 20, f64::NAN);
        let (a, b, c) = (random_matrix(3, 4, 8, 1), random_matrix(4, 3, 8, 2), random_matrix(3, 3, 8, 3));
        let solo = RuntimeSession::new(&platform(2), 0.0);
        let want = solo.run_holm(&a, &b, c.clone()).unwrap().c;
        solo.shutdown();
        for mode in [TransportMode::Channel, TransportMode::Tcp] {
            let session = RuntimeSession::with_transport(&platform(2), 0.0, mode);
            for (what, input) in [("scaled by 1e-14", &tiny), ("a NaN entry", &nan)] {
                assert!(factor(&session, input, 1).aborted, "{mode:?}, {what}");
                assert_eq!(session.dead_workers(), 0, "{mode:?}, {what}: a refusal is no death");
                let next = session.run_holm(&a, &b, c.clone()).unwrap().c;
                assert_eq!(next.max_abs_diff(&want), 0.0, "{mode:?}, {what}: the fleet serves on");
            }
            session.shutdown();
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
        let listener = TransportListener::bind(TransportMode::Tcp).unwrap();
        let endpoint = listener.endpoint();
        let worker = std::thread::spawn(move || {
            let patience = std::time::Duration::from_secs(10);
            let (ep, welcome) =
                mwp_msg::transport::enroll_with_retry(&endpoint, patience, None, b"", &Config::default())
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
