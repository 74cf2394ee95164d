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
//! The master holds the matrix whole — the [`Dense`] the run returns — and
//! factors it in place; it crosses the wire as `q × q` blocks. Per step
//! ([`crate::schedule`] gives the order):
//!
//! 1. **One `LuPanel` exchange on the pivot worker**: the pivot block, the
//!    vertical panel below it and the horizontal panel beside it go out in
//!    one frame — blocks in the fixed order of
//!    [`mwp_core::runtime::panel_parts`], the tag naming the pivot width and
//!    the blocks after it — and come back factored and solved in one reply
//!    of the same shape: Section 7.2's aggregate message to the one worker
//!    that owns the pivot chain. The last step ships the pivot alone.
//! 2. **The trailing update as a product** ([`ChunkExchange`]): C the
//!    trailing grid of the matrix, A the solved vertical panel — negated as
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
//! Every input of every op comes from the master's matrix, which only a
//! *validated* reply mutates: a `Panel` reply must carry its task's tag and
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
//! # Fleets
//!
//! [`factor`] runs on any [`RuntimeSession`] — local or remote, the same
//! fleet, workers and worker program serving products and factorizations.
//! A factorization reserves its chunks' `µ_i² + 4µ_i` blocks in the
//! session's memory ledger like any product, so it overlaps the runs whose
//! blocks fit beside its own and takes turns with the rest. [`run_lu`] is one-shot
//! (a fresh session per call); [`LuSession`] holds a fleet spawned for
//! factorizations.

use crate::schedule::{lu_schedule, redispatch, LuOp};
use mwp_blockmat::lu::Dense;
use mwp_blockmat::{BlockMatrix, BlockOrder, SharedPayloads};
use mwp_core::runtime::{panel_parts, ChunkExchange, Port};
use mwp_core::session::RuntimeSession;
use mwp_core::MemoryLayout;
use mwp_msg::{Frame, FrameKind, MasterEndpoint, Tag, TransportMode};
use mwp_platform::{Platform, WorkerId};
use std::ops::Range;
use std::time::Instant;

/// Outcome of a threaded LU run.
#[derive(Debug)]
pub struct LuRunOutcome {
    /// Packed factors (L below the unit diagonal, U on and above it).
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
    /// (`RuntimeSession::set_run_deadline`) elapsed, or every enrolled
    /// worker was lost: `packed` then holds a **partial** factorization
    /// and must be discarded. The fleet itself stays serving.
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
/// chunks of the side its memory admits, run as one run of the fleet's
/// master executor once the fleet's memory ledger admits those chunks
/// beside every open run's ([`RuntimeSession::execute`]).
pub fn factor(fleet: &RuntimeSession, matrix: &BlockMatrix, mu: usize) -> LuRunOutcome {
    validate_lu(matrix, mu);
    let start = Instant::now();
    let sides: Vec<usize> = fleet.platform().map_or_else(Vec::new, |platform| {
        platform.workers().iter().map(|w| MemoryLayout::MaxReuseOverlapped.mu(w.m)).collect()
    });
    let workers_used = sides.len();
    if sides.iter().all(|&side| side == 0) {
        let packed = Dense::from_blocks(matrix);
        let wall = start.elapsed();
        return LuRunOutcome { packed, wall, messages: 0, blocks_moved: 0, workers_used, aborted: true };
    }
    let (ops, q) = (lu_schedule(matrix.rows(), mu, &sides), matrix.q());
    let (mut port, done) = fleet.execute(&sides, q, ops, |master, gen| LuPort {
        chunks: ChunkExchange::new(master, gen, q, vec![Dense::from_blocks(matrix)], &sides, mu),
        master,
        sides: &sides,
        mu,
        q,
    });
    LuRunOutcome {
        packed: std::mem::replace(port.chunks.accumulator(), Dense::zeros(0, 0)),
        wall: start.elapsed(),
        messages: port.chunks.frames(),
        blocks_moved: port.chunks.moved(),
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
/// matrix — held whole, as the run returns it, and factored in place;
/// after an aborted run, a partial factorization.
struct LuPort<'a> {
    chunks: ChunkExchange<'a, Dense>,
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

    fn perform(&mut self, op: &LuOp) -> bool {
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
    /// stored over the matrix only once the reply validates — then the
    /// step's trailing update is added to the chunk exchanges as the
    /// product of the negated vertical panel and the horizontal one.
    /// `false`, with the matrix untouched, when the worker dies, stays
    /// silent past the liveness deadline, or answers with anything else.
    fn panel(&mut self, worker: WorkerId, pivot: &Range<usize>, rest: usize) -> bool {
        let (p, k1, q) = (pivot.len(), pivot.end, self.q);
        let (blocks, bb) = (panel_blocks(pivot, rest), q * q * 8);
        let matrix = self.chunks.accumulator();
        let task = self.master.pooled_payload(blocks.len() * bb, |task| {
            blocks.iter().for_each(|&at| matrix.write_block(q, at, task));
        });
        let (tag, n) = (Tag::new(FrameKind::LuPanel, p, rest), blocks.len() as u64);
        let Some(reply) = self.chunks.round_trip(worker, tag, task, n) else { return false };
        if !store(self.chunks.accumulator(), q, &blocks, tag, &reply) {
            return false;
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
        true
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

/// Store `reply` over `blocks` (of side `q`) of `matrix`, provided it answers the task
/// `tag` with exactly those blocks — a length the master computes from
/// its own numbers. Nothing the worker wrote sizes, slices or indexes
/// anything, and `matrix` is untouched unless the whole reply validates.
fn store(matrix: &mut Dense, q: usize, blocks: &[(usize, usize)], tag: Tag, reply: &Frame) -> bool {
    if reply.tag != tag || reply.payload.len() != blocks.len() * q * q * 8 {
        return false;
    }
    for (&at, image) in blocks.iter().zip(reply.payload.chunks_exact(q * q * 8)) {
        matrix.read_block(q, at, image);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{scheduled_comm, LuProblem};
    use crate::schedule::lower;
    use bytes::Bytes;
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
        // One fleet serves factorizations and products under one run lock.
        // m = 12 is one 2 × 2 chunk's exchange on either side, so two runs
        // overlapping on a worker would trip its memory assertion, which
        // `shutdown` re-raises.
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

    /// A fleet of `p` workers over loopback TCP, each a thread in this
    /// process: the product program where `!rogue(i)`, else one that
    /// answers every `Panel` task with `reply` and every collect with a
    /// frame of nothing. Returns the session and the threads.
    fn fleet_with_rogues(
        p: usize,
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
                        return mwp_core::remote::serve(ep, 1000);
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
        let session = RuntimeSession::accept_remote(&platform(p), 0.0, &listener, &Config::default()).unwrap();
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
                let (session, threads) = fleet_with_rogues(2, |i| i == slot, reply);
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
    fn losing_the_whole_fleet_aborts_the_run_and_the_session_recovers() {
        let matrix = random_diagonally_dominant(6, 4, 52);
        let healthy = run_lu(&platform(2), &matrix, 2, 0.0).packed;
        let (mut session, rogues) = fleet_with_rogues(2, |_| true, SHORT_PAYLOAD);
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
