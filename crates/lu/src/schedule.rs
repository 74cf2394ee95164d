//! The blocked factorization as plain data: the ordered port operations
//! of the master.
//!
//! Section 7.2's LU is, like the paper's products, *an order of port
//! operations* on the one-port master — and most of it *is* a product:
//! step `k`'s trailing update `A₂₂ ← A₂₂ − L₂₁·U₁₂` is a rank-µ product
//! with the product's own chunk exchange and `µ² + 4µ` memory layout.
//! [`lu_schedule`] is that order — a pure function of the matrix size and
//! panel width in blocks and of each worker's chunk side — and two
//! executors walk it:
//!
//! * [`crate::runtime`] sends each op's frames through the product
//!   runtime's one master executor (`mwp_core::runtime::execute`), which
//!   answers a worker's death by re-dispatching what it lost;
//! * [`lower`] turns the ops into the [`Decision`]s of the frames the
//!   runtime sends, and [`replay`] puts them through the simulator, so the
//!   simulation ([`crate::homogeneous::simulate_homogeneous_lu`]), the
//!   pivot-size search ([`crate::heterogeneous::best_pivot_size`]) and
//!   `replay_diff` replay the very frames a run puts on the wire.
//!
//! One step of the factorization, with pivot block range `p` and the
//! `rest` blocks after it:
//!
//! 1. **`Panel`** on worker 0: the pivot `(p, p)`, the vertical panel
//!    `(rest, p)` and the horizontal panel `(p, rest)` go out in one frame
//!    and come back factored and solved in one reply (the last step is the
//!    pivot alone). Everything after it reads what it stores, and it reads
//!    what everything before it stored: a `Panel` is a barrier on both
//!    sides.
//! 2. **The trailing update** — the product `C ← C + A·B` with C the
//!    `rest × rest` trailing grid, A the solved vertical panel (negated),
//!    B the solved horizontal panel, `t = µ` — as `mwp_core`'s chunk
//!    exchanges ([`PortOp`], the step index as their `job`, coordinates in
//!    the trailing grid): the trailing rows are dealt as one band per
//!    worker that can hold a chunk, each band split down to its worker's
//!    chunk side in Algorithm 1's rounds (`Schedule::redispatch`).

use mwp_core::chunks::Chunk;
use mwp_core::schedule::{Lowering, PortOp, Schedule};
use mwp_core::MemoryLayout;
use mwp_platform::{Platform, WorkerId};
use mwp_sim::{Decision, SimError, SimReport, Simulator};
use std::ops::Range;

/// One port operation of the factorization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LuOp {
    /// The pivot chain of the step whose pivot is the block range `pivot`,
    /// with `rest` blocks of the matrix after it, on `worker`: one frame
    /// out and its reply, each `p² + 2p·rest` blocks for a `p`-wide pivot.
    Panel {
        /// The worker it is on.
        worker: WorkerId,
        /// The pivot's block rows (and columns).
        pivot: Range<usize>,
        /// Blocks of the matrix after the pivot.
        rest: usize,
    },
    /// One chunk-exchange op of a step's trailing update.
    Chunk(PortOp),
}

impl LuOp {
    /// The chunk-exchange op it is, if any.
    pub fn chunk(&self) -> Option<&PortOp> {
        match self {
            LuOp::Chunk(op) => Some(op),
            LuOp::Panel { .. } => None,
        }
    }
}

/// The right-looking factorization of an `r × r`-block matrix in panels
/// `mu` blocks wide (the last one narrower when `mu` does not divide `r`),
/// the trailing updates dealt over the workers whose chunk side `sides[i]`
/// is positive — the module docs give a step's order.
///
/// # Panics
/// If the matrix has a trailing update and no worker a chunk side.
pub fn lu_schedule(r: usize, mu: usize, sides: &[usize]) -> Vec<LuOp> {
    let workers: Vec<WorkerId> = (0..sides.len()).filter(|&i| sides[i] > 0).map(WorkerId).collect();
    let mut ops = Vec::new();
    for (step, k0) in (0..r).step_by(mu).enumerate() {
        let pivot = k0..(k0 + mu).min(r);
        let rest = r - pivot.end;
        ops.push(LuOp::Panel { worker: WorkerId(0), pivot, rest });
        if rest > 0 {
            // Band `b` of `bands` is the trailing rows `b·rest/bands ..`,
            // handed over last first, so that band `b` lands on worker `b`.
            let bands = workers.len().min(rest);
            let band = |b: usize| {
                let (i0, i1) = (b * rest / bands, (b + 1) * rest / bands);
                (step, Chunk { i0, j0: 0, height: i1 - i0, width: rest })
            };
            let trailing = Schedule::redispatch((0..bands).rev().map(band).collect(), &workers, sides, mu);
            ops.extend(trailing.ops.into_iter().map(LuOp::Chunk));
        }
    }
    ops
}

/// The chunk side each worker of `platform` is dealt when an `r`-block
/// matrix is factored in `mu`-block panels: the side its memory `m_i`
/// admits (`µ_i² + 4µ_i ≤ m_i`), but no wider than the first trailing
/// grid, `max(r − mu, 1)`, since no chunk is — a wider side would only
/// reserve memory the chunks never use.
pub fn chunk_sides(platform: &Platform, r: usize, mu: usize) -> Vec<usize> {
    let largest = r.saturating_sub(mu).max(1);
    platform.workers().iter().map(|w| MemoryLayout::MaxReuseOverlapped.mu(w.m).min(largest)).collect()
}

/// The simulator's replay of [`lu_schedule`]`(r, mu, sides)` on
/// `platform`: the [`lower`]ed frames through the one-port engine, which
/// holds every worker to its memory `m_i` and makes each receive wait
/// for its worker to drain — the barrier between a step's chunks and the
/// next pivot.
///
/// # Panics
/// If the matrix has a trailing update and no worker a chunk side.
pub fn replay(platform: &Platform, r: usize, mu: usize, sides: &[usize]) -> Result<SimReport, SimError> {
    let frames = lower(&lu_schedule(r, mu, sides));
    Simulator::new(platform.clone()).without_trace().run(&mut frames.into_iter())
}

/// The ops that redo, on the `live` workers (ascending), what the `undone`
/// ops of one phase of a factorization in `mu`-wide panels lost: a lost
/// `Panel` as it was, on the lowest live worker — its operands come from
/// the master's matrix, untouched until a reply validates — and the
/// chunks of a trailing update as the product recovers them
/// (`Schedule::recover`, each chunk's whole exchange again, split to
/// its adopter's side). `None` when no live worker can adopt them.
pub fn redispatch(undone: Vec<LuOp>, live: &[WorkerId], sides: &[usize], mu: usize) -> Option<Vec<LuOp>> {
    let lowest = *live.first()?;
    if let Some(LuOp::Panel { pivot, rest, .. }) = undone.first() {
        return Some(vec![LuOp::Panel { worker: lowest, pivot: pivot.clone(), rest: *rest }]);
    }
    let chunks: Vec<PortOp> = undone.iter().filter_map(LuOp::chunk).copied().collect();
    let redo = Schedule::recover(&chunks, live, sides, mu)?;
    Some(redo.ops.into_iter().map(LuOp::Chunk).collect())
}

/// The one lowering of a factorization into simulator frames, one
/// [`Decision`] per frame the runtime sends: a `Panel` is its frame out,
/// spawning its step's sequential work
/// ([`crate::cost::StepCost::sequential_comp`], `p³ + p²·rest` block
/// operations for a `p`-wide pivot), and its reply; the chunk ops go
/// through the product's own [`Lowering`], so each worker's C chunk, B row
/// and A block are charged against its memory exactly as for a product.
/// The panel exchange's transient blocks stay outside the memory model.
pub fn lower(ops: &[LuOp]) -> Vec<Decision> {
    let mut chunks = Lowering::new(ops.iter().filter_map(LuOp::chunk));
    let mut frames = Vec::new();
    for op in ops {
        match op {
            LuOp::Panel { worker, pivot, rest } => {
                let p = pivot.len();
                let blocks = (p * (p + 2 * rest)) as u64;
                let spawn_updates = (p * p * (p + rest)) as u64;
                let (to, label) = (*worker, "Panel".into());
                frames.push(Decision::Send { to, blocks, spawn_updates, mem_delta: 0, label });
                frames.push(Decision::Recv { from: to, blocks, mem_delta: 0, label: "Panel back".into() });
            }
            LuOp::Chunk(op) => chunks.lower(op, &mut frames),
        }
    }
    frames
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{scheduled_comm, LuProblem};
    use mwp_blockmat::Partition;
    use proptest::prelude::*;

    /// Blocks and block operations of `ops`' frames, and how many frames.
    fn volume(ops: &[LuOp]) -> (u64, u64, usize) {
        let frames = lower(ops);
        let (mut blocks, mut work) = (0, 0);
        for frame in &frames {
            match *frame {
                Decision::Send { blocks: b, spawn_updates, .. } => (blocks, work) = (blocks + b, work + spawn_updates),
                Decision::Recv { blocks: b, .. } => blocks += b,
                _ => unreachable!("lowering only transfers"),
            }
        }
        (blocks, work, frames.len())
    }

    /// The steps of `ops`: each a `Panel` and the chunk ops after it.
    fn steps(ops: &[LuOp]) -> impl Iterator<Item = (&LuOp, Vec<PortOp>)> {
        ops.chunk_by(|_, next| next.chunk().is_some())
            .map(|step| (&step[0], step[1..].iter().filter_map(LuOp::chunk).copied().collect()))
    }

    proptest! {
        /// Each step is its `Panel` on worker 0, then the chunk exchanges of
        /// a product over the `rest × rest` trailing grid, `µ` deep, whose
        /// job is the step: every chunk within its worker's side, one chunk
        /// per worker at a time, the grid tiled exactly once — ragged last
        /// panels and uneven sides included.
        #[test]
        fn every_step_is_a_panel_then_the_trailing_product(
            r in 1usize..15, mu in 1usize..6, sides in (0usize..5, 0usize..5, 1usize..5), n in 1usize..4,
        ) {
            // At least one worker holds a chunk: the last one drawn.
            let sides = [sides.0, sides.1, sides.2][3 - n..].to_vec();
            let ops = lu_schedule(r, mu, &sides);
            let mut steps = steps(&ops);
            for (step, k0) in (0..r).step_by(mu).enumerate() {
                let (panel, chunks) = steps.next().expect("one step per panel");
                let pivot = k0..(k0 + mu).min(r);
                let rest = r - pivot.end;
                prop_assert_eq!(panel, &LuOp::Panel { worker: WorkerId(0), pivot, rest });
                prop_assert_eq!(chunks.is_empty(), rest == 0);
                let mut resident = vec![None; sides.len()];
                let mut tiles = Vec::new();
                for op in &chunks {
                    let (job, worker, chunk) = op.target();
                    prop_assert_eq!(job, step);
                    let side = sides[worker.index()];
                    prop_assert!(chunk.height <= side && chunk.width <= side, "{:?} over side {}", chunk, side);
                    let seat = &mut resident[worker.index()];
                    match *op {
                        PortOp::SendC { .. } => { prop_assert!(seat.is_none()); *seat = Some((chunk, 0)); }
                        PortOp::Step { k, .. } => { prop_assert_eq!(*seat, Some((chunk, k))); *seat = Some((chunk, k + 1)); }
                        PortOp::Collect { .. } => { prop_assert_eq!(*seat, Some((chunk, mu))); *seat = None; tiles.push(chunk); }
                    }
                }
                prop_assert!(resident.iter().all(Option::is_none));
                if rest > 0 {
                    prop_assert!(mwp_core::chunks::covers_exactly(&Partition::from_blocks(rest, rest, mu, 1), &tiles));
                }
            }
            prop_assert!(steps.next().is_none());
        }

        /// The lowered frames carry the cost model's work exactly and the
        /// scheduled volume — which, with every band one chunk, is the
        /// model's less what sending the horizontal panel once per band
        /// rather than the vertical one per group saves: `rem² − P'·µ·rem`
        /// a step, a saving while the bands are at least µ rows deep.
        #[test]
        fn lowered_volume_is_the_models_less_the_shared_panel(steps in 1usize..8, mu in 1usize..6, enrolled in 1usize..5) {
            let problem = LuProblem::new(steps * mu, mu);
            let side = problem.r;
            let (blocks, work, _) = volume(&lu_schedule(problem.r, mu, &vec![side; enrolled]));
            prop_assert_eq!(blocks as f64, scheduled_comm(problem, enrolled, side));
            prop_assert_eq!(work as f64, problem.total().comp);
            let saved: f64 = (1..=steps)
                .map(|k| problem.r - k * mu)
                .map(|rem| (rem * rem) as f64 - (enrolled.min(rem) * mu * rem) as f64)
                .sum();
            prop_assert_eq!(blocks as f64, problem.total().comm - saved);
        }

        /// Chunks cut to a smaller side re-ship A and B per chunk: the
        /// closed form still counts every block.
        #[test]
        fn the_closed_form_counts_split_bands(steps in 1usize..8, mu in 1usize..5, enrolled in 1usize..4, side in 1usize..6) {
            let problem = LuProblem::new(steps * mu, mu);
            let (blocks, work, _) = volume(&lu_schedule(problem.r, mu, &vec![side; enrolled]));
            prop_assert_eq!(blocks as f64, scheduled_comm(problem, enrolled, side));
            prop_assert_eq!(work as f64, problem.total().comp);
        }
    }

    #[test]
    fn the_bench_shape_moves_908_blocks_in_122_frames() {
        // 12 × 12 blocks, µ = 2, 2 workers of m = 100 000: 6 panel
        // exchanges of 2 frames; per step with `rest` trailing rows, one
        // band per worker, each one chunk: `rest` C rows out and back, 2
        // steps of a B row and an A column to each worker, 2 collect
        // requests (frames the lowering does not carry: 10 a step, 50).
        let side = mwp_core::MemoryLayout::MaxReuseOverlapped.mu(100_000);
        let problem = LuProblem::new(12, 2);
        let (blocks, work, frames) = volume(&lu_schedule(12, 2, &[side, side]));
        assert_eq!((blocks, work), (908, problem.total().comp as u64));
        assert_eq!(frames + 5 * 2, 12 + [10, 8, 6, 4, 2].map(|rest| 2 * rest + 10).iter().sum::<usize>());
        assert_eq!(frames + 5 * 2, 122);
        assert_eq!(problem.total().comm_closed_form_exact(), 1008.0);
    }

    #[test]
    fn each_op_lowers_to_its_steps_cost_terms() {
        let problem = LuProblem::new(12, 3);
        let ops = lu_schedule(12, 3, &[12, 12]);
        for (k, (panel, chunks)) in steps(&ops).enumerate() {
            let cost = problem.step_cost(k + 1);
            let (_, sequential, _) = volume(std::slice::from_ref(panel));
            assert_eq!(sequential as f64, cost.sequential_comp());
            let chunks: Vec<LuOp> = chunks.into_iter().map(LuOp::Chunk).collect();
            let (_, core, _) = volume(&chunks);
            assert_eq!(core as f64, cost.core.comp);
        }
    }

    #[test]
    fn redispatch_replays_panels_and_whole_group_exchanges() {
        let sides = [4, 4, 2];
        let ops = lu_schedule(7, 2, &sides);
        let (panel, chunks) = steps(&ops).next().unwrap();
        let live = [WorkerId(0), WorkerId(2)];
        // A lost panel is the same exchange on the lowest live worker.
        let LuOp::Panel { pivot, rest, .. } = panel.clone() else { panic!("steps open with a panel") };
        let again = redispatch(vec![panel.clone()], &live, &sides, 2).unwrap();
        assert_eq!(again, [LuOp::Panel { worker: WorkerId(0), pivot, rest }]);
        // Worker 1's ops of step 0 lose its chunks: each comes back as a
        // whole exchange, split to fit the side-2 worker it lands on.
        let lost: Vec<LuOp> =
            chunks.iter().filter(|op| op.target().1 == WorkerId(1)).map(|&op| LuOp::Chunk(op)).collect();
        let redo = redispatch(lost.clone(), &live, &sides, 2).unwrap();
        let collected = |ops: &[LuOp]| -> Vec<(usize, mwp_core::chunks::Chunk)> {
            ops.iter().filter_map(|op| match op.chunk() {
                Some(&PortOp::Collect { job, chunk, .. }) => Some((job, chunk)),
                _ => None,
            }).collect()
        };
        let (before, after) = (collected(&lost), collected(&redo));
        assert!(!before.is_empty() && after.len() >= before.len(), "{before:?} -> {after:?}");
        let blocks = |tiles: &[(usize, mwp_core::chunks::Chunk)]| tiles.iter().map(|(_, c)| c.blocks()).sum::<u64>();
        assert_eq!(blocks(&after), blocks(&before), "the same rows, re-cut");
        for op in redo.iter().filter_map(LuOp::chunk) {
            let (job, worker, chunk) = op.target();
            assert!(live.contains(&worker) && job == 0);
            assert!(chunk.height.max(chunk.width) <= sides[worker.index()], "{chunk:?} on {worker}");
        }
        // No live worker, or none with a side: nobody can adopt.
        assert_eq!(redispatch(lost.clone(), &[], &sides, 2), None);
        assert_eq!(redispatch(lost, &[WorkerId(1)], &[4, 0], 2), None);
    }

    #[test]
    fn memory_bounded_workers_stream_their_bands_in_chunks() {
        // §7.2's layout: m = µ² + 4µ = 12 gives chunks of side 2, so the
        // trailing 6 × 6 grid of an 8-block matrix — two bands of 3 rows —
        // streams in 2 × 2 and 1 × 2 chunks, six per band, and the replay
        // keeps every worker inside m.
        let side = mwp_core::MemoryLayout::MaxReuseOverlapped.mu(12);
        assert_eq!(side, 2);
        let ops = lu_schedule(8, 2, &[side, side]);
        let (_, first) = steps(&ops).next().unwrap();
        let shipped = first.iter().filter(|op| matches!(op, PortOp::SendC { .. })).count();
        assert_eq!(shipped, 2 * 6);
        let platform = mwp_platform::Platform::homogeneous(2, 1.0, 1.0, 12).unwrap();
        let replayed = mwp_sim::Simulator::new(platform).without_trace().run(&mut lower(&ops).into_iter());
        assert!(replayed.is_ok(), "{replayed:?}");
        let tight = mwp_platform::Platform::homogeneous(2, 1.0, 1.0, 6).unwrap();
        let over = mwp_sim::Simulator::new(tight).without_trace().run(&mut lower(&ops).into_iter());
        assert!(matches!(over, Err(mwp_sim::SimError::MemoryOverflow { .. })), "{over:?}");
    }
}
