//! The blocked factorization as plain data: the ordered port operations
//! of the master.
//!
//! Section 7.2's LU is, like the paper's products, *an order of port
//! operations* on the one-port master. [`lu_schedule`] is that order — a
//! pure function of the matrix size, the panel width and the enrollment,
//! all in blocks — and two executors walk it:
//!
//! * [`crate::runtime`] sends each op's frames through the product
//!   runtime's one master executor (`mwp_core::runtime::execute`), which
//!   answers a worker's death with [`redispatch`];
//! * [`lower`] turns each op into the [`Decision`]s of the frames the
//!   runtime sends for it, so the simulation
//!   ([`crate::homogeneous::simulate_homogeneous_lu`]) and `replay_diff`
//!   replay the very frames a run puts on the wire.
//!
//! One step of the factorization, with pivot block range `p` and the
//! trailing range `rest` after it:
//!
//! 1. **`Panel`** on worker 0: the pivot `(p, p)`, the vertical panel
//!    `(rest, p)` and the horizontal panel `(p, rest)` go out in one frame
//!    and come back factored and solved in one reply (the last step is the
//!    pivot alone). Everything after it reads what it stores, and it reads
//!    what everything before it stored: a `Panel` is a barrier on both
//!    sides.
//! 2. **`SetHoriz`** to each worker that gets a core group: the solved
//!    horizontal panel, the operand every core update of the step shares.
//! 3. **`Core`** per µ-row group `g` of the trailing matrix, round-robin
//!    over the enrolled workers: its rows `(g, p)` of the vertical panel
//!    and `(g, rest)` of the core out — all groups first, so they compute
//!    in parallel.
//! 4. **`Collect`** per group, in the same order: the updated `(g, rest)`
//!    back.

use mwp_platform::WorkerId;
use mwp_sim::Decision;
use std::ops::Range;

/// A rectangle of the block matrix: its block-row range and its
/// block-column range.
pub type Region = (Range<usize>, Range<usize>);

/// What an [`LuOp`] does with its regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LuOpKind {
    /// Ship the regions and store the reply over them: one exchange.
    Panel,
    /// Ship the region for the worker to keep until the next install.
    SetHoriz,
    /// Ship the regions; the matching `Collect` brings the result back.
    Core,
    /// Store the worker's reply over the region.
    Collect,
}

/// One port operation of the factorization: one frame, or for `Panel` a
/// frame and its reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LuOp {
    /// What crosses the port, and which way.
    pub kind: LuOpKind,
    /// The worker it is on.
    pub worker: WorkerId,
    /// The regions it ships or stores, in wire order, in blocks.
    pub regions: Vec<Region>,
}

impl LuOp {
    /// Blocks in one frame of the op: its coefficients over `q²`.
    pub fn blocks(&self) -> u64 {
        self.regions.iter().map(|(rows, cols)| (rows.len() * cols.len()) as u64).sum()
    }
}

/// The exchange of core row group `g` on `worker`, in the step whose pivot
/// is `pivot`, of an `r`-block matrix: `[SetHoriz, Core, Collect]`.
fn group_ops(worker: WorkerId, pivot: &Range<usize>, g: &Range<usize>, r: usize) -> [LuOp; 3] {
    let rest = pivot.end..r;
    let op = |kind, regions| LuOp { kind, worker, regions };
    [
        op(LuOpKind::SetHoriz, vec![(pivot.clone(), rest.clone())]),
        op(LuOpKind::Core, vec![(g.clone(), pivot.clone()), (g.clone(), rest.clone())]),
        op(LuOpKind::Collect, vec![(g.clone(), rest)]),
    ]
}

/// The right-looking factorization of an `r × r`-block matrix in panels
/// `mu` blocks wide (the last one narrower when `mu` does not divide `r`,
/// and so the last row group of every step), its core updates dealt over
/// workers `0..enrolled` — the module docs give a step's order.
pub fn lu_schedule(r: usize, mu: usize, enrolled: usize) -> Vec<LuOp> {
    let mut ops = Vec::new();
    for k0 in (0..r).step_by(mu) {
        let pivot = k0..(k0 + mu).min(r);
        let rest = pivot.end..r;
        let mut panel = vec![(pivot.clone(), pivot.clone())];
        if !rest.is_empty() {
            panel.extend([(rest.clone(), pivot.clone()), (pivot.clone(), rest.clone())]);
        }
        ops.push(LuOp { kind: LuOpKind::Panel, worker: WorkerId(0), regions: panel });
        let seats: Vec<[LuOp; 3]> = rest
            .step_by(mu)
            .zip((0..enrolled).map(WorkerId).cycle())
            .map(|(g0, worker)| group_ops(worker, &pivot, &(g0..(g0 + mu).min(r)), r))
            .collect();
        // The first `enrolled` seats are one per worker that has a group.
        ops.extend(seats.iter().take(enrolled).map(|seat| seat[0].clone()));
        ops.extend(seats.iter().map(|seat| seat[1].clone()));
        ops.extend(seats.into_iter().map(|[.., collect]| collect));
    }
    ops
}

/// The ops that redo on worker `to` what the `undone` ops of one phase
/// (of a factorization in `mu`-wide panels) lost: a `Panel` as it was, and
/// for each `Collect` its group's whole exchange again — the install
/// first, because `to` may never have had the step's panel, and installing
/// it twice is harmless. An undone `SetHoriz` or `Core` lost nothing its
/// group's `Collect` does not account for.
pub fn redispatch(undone: &[LuOp], to: WorkerId, mu: usize) -> Vec<LuOp> {
    let redo = |op: &LuOp| match (op.kind, &op.regions[..]) {
        (LuOpKind::Panel, _) => vec![LuOp { worker: to, ..op.clone() }],
        // A step with a core has a full-width pivot just before it.
        (LuOpKind::Collect, [(g, rest)]) => {
            group_ops(to, &(rest.start - mu..rest.start), g, rest.end).to_vec()
        }
        _ => Vec::new(),
    };
    undone.iter().flat_map(redo).collect()
}

/// The one lowering of an op into simulator frames: one [`Decision`] per
/// frame the runtime sends for it, each [`LuOp::blocks`] large. A `Panel`
/// spawns its step's sequential work,
/// [`crate::cost::StepCost::sequential_comp`] (`p³ + p²·rest` block
/// operations for a `p`-wide pivot), a `Core` its group's share of the
/// rank-`p` update (`g · p · rest`); read off the op's own regions, so
/// ragged sizes lower too. LU is outside the memory model (`mem_delta` 0
/// throughout).
pub fn lower(op: &LuOp) -> Vec<Decision> {
    let (peer, blocks, label) = (op.worker, op.blocks(), format!("{:?}", op.kind));
    let work = match (op.kind, &op.regions[..]) {
        (LuOpKind::Panel, [(p, _), panels @ ..]) => {
            p.len() * p.len() * (p.len() + panels.first().map_or(0, |(rest, _)| rest.len()))
        }
        (LuOpKind::Core, [(g, p), (_, rest)]) => g.len() * p.len() * rest.len(),
        _ => 0,
    };
    let send = Decision::Send {
        to: peer,
        blocks,
        spawn_updates: work as u64,
        mem_delta: 0,
        label: label.clone().into(),
    };
    let recv = Decision::Recv { from: peer, blocks, mem_delta: 0, label: (label + " back").into() };
    match op.kind {
        LuOpKind::Panel => vec![send, recv],
        LuOpKind::Collect => vec![recv],
        LuOpKind::SetHoriz | LuOpKind::Core => vec![send],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{scheduled_comm, LuProblem};
    use proptest::prelude::*;
    use LuOpKind::{Collect, Core, Panel, SetHoriz};

    /// Blocks and block operations of `ops`' frames, and how many frames.
    fn volume(ops: &[LuOp]) -> (u64, u64, usize) {
        let frames: Vec<Decision> = ops.iter().flat_map(lower).collect();
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

    proptest! {
        /// Each step's ops are its `Panel`, its `SetHoriz`s, every `Core`,
        /// every `Collect`; a `Core` only goes to a worker that got the
        /// step's `SetHoriz`; the core groups tile the trailing matrix
        /// exactly once — ragged last panels and groups included.
        #[test]
        fn every_step_is_panel_installs_cores_collects(r in 1usize..15, mu in 1usize..6, enrolled in 1usize..5) {
            let ops = lu_schedule(r, mu, enrolled);
            let mut steps = ops.chunk_by(|_, next| next.kind != Panel);
            for k0 in (0..r).step_by(mu) {
                let step = steps.next().expect("one step per panel");
                let (pivot, rest) = (k0..(k0 + mu).min(r), (k0 + mu).min(r)..r);
                let kinds: Vec<LuOpKind> = step.iter().map(|op| op.kind).collect();
                let groups = rest.len().div_ceil(mu);
                let installs = groups.min(enrolled);
                let expected = [vec![Panel], vec![SetHoriz; installs], vec![Core; groups], vec![Collect; groups]];
                prop_assert_eq!(kinds, expected.concat());

                let panel = &step[0];
                prop_assert_eq!(panel.worker, WorkerId(0));
                prop_assert_eq!(&panel.regions[0], &(pivot.clone(), pivot.clone()));
                if rest.is_empty() {
                    prop_assert_eq!(panel.regions.len(), 1);
                } else {
                    let panels = [(rest.clone(), pivot.clone()), (pivot.clone(), rest.clone())];
                    prop_assert_eq!(&panel.regions[1..], &panels[..]);
                }
                let (installs, core) = step[1..].split_at(installs);
                let (cores, collects) = core.split_at(groups);
                for install in installs {
                    prop_assert_eq!(&install.regions, &vec![(pivot.clone(), rest.clone())]);
                }
                // Cores and collects pair up, on workers holding the panel,
                // and their row groups tile `rest` in order.
                let mut next_row = rest.start;
                for (core, collect) in cores.iter().zip(collects) {
                    prop_assert!(installs.iter().any(|install| install.worker == core.worker));
                    prop_assert!(core.worker.index() < enrolled);
                    prop_assert_eq!(core.worker, collect.worker);
                    let g = core.regions[0].0.clone();
                    prop_assert_eq!((g.start, g.len() <= mu, !g.is_empty()), (next_row, true, true));
                    prop_assert_eq!(&core.regions, &vec![(g.clone(), pivot.clone()), (g.clone(), rest.clone())]);
                    prop_assert_eq!(&collect.regions, &vec![(g.clone(), rest.clone())]);
                    next_row = g.end;
                }
                prop_assert_eq!(next_row, r);
            }
            prop_assert!(steps.next().is_none());
        }

        /// The lowered frames carry the cost model's work exactly, and its
        /// volume less the shared panel sent once per worker.
        #[test]
        fn lowered_volume_is_the_models_less_the_shared_panel(steps in 1usize..8, mu in 1usize..6, enrolled in 1usize..5) {
            let problem = LuProblem::new(steps * mu, mu);
            let (blocks, work, _) = volume(&lu_schedule(problem.r, mu, enrolled));
            prop_assert_eq!(blocks as f64, scheduled_comm(problem, enrolled));
            prop_assert_eq!(work as f64, problem.total().comp);
            prop_assert!(blocks as f64 <= problem.total().comm);
        }
    }

    #[test]
    fn the_bench_shape_moves_904_blocks_in_51_frames() {
        let problem = LuProblem::new(12, 2);
        assert_eq!(volume(&lu_schedule(12, 2, 2)), (904, problem.total().comp as u64, 51));
        assert_eq!(problem.total().comm, 1008.0);
    }

    #[test]
    fn each_op_lowers_to_its_steps_cost_terms() {
        let problem = LuProblem::new(12, 3);
        let ops = lu_schedule(12, 3, 2);
        for (k, step) in ops.chunk_by(|_, next| next.kind != Panel).enumerate() {
            let cost = problem.step_cost(k + 1);
            let (_, sequential, _) = volume(&step[..1]);
            assert_eq!(sequential as f64, cost.sequential_comp());
            let cores: Vec<&LuOp> = step.iter().filter(|op| op.kind == Core).collect();
            for core in &cores {
                let (_, work, _) = volume(std::slice::from_ref(*core));
                assert_eq!(work as f64 * cores.len() as f64, cost.core.comp);
            }
        }
    }

    #[test]
    fn redispatch_replays_panels_and_whole_group_exchanges() {
        let ops = lu_schedule(7, 2, 3);
        let step0 = ops.chunk_by(|_, next| next.kind != Panel).next().unwrap();
        let to = WorkerId(2);
        // A lost panel is the same exchange on the adopter.
        assert_eq!(redispatch(&step0[..1], to, 2), [LuOp { worker: to, ..step0[0].clone() }]);
        // Worker 1's ops of step 0 (one install, one core, one collect)
        // come back as the group's whole exchange, install first.
        let undone: Vec<LuOp> = step0.iter().filter(|op| op.worker == WorkerId(1)).cloned().collect();
        assert_eq!(undone.iter().map(|op| op.kind).collect::<Vec<_>>(), [SetHoriz, Core, Collect]);
        let redo = redispatch(&undone, to, 2);
        assert_eq!(redo.iter().map(|op| op.kind).collect::<Vec<_>>(), [SetHoriz, Core, Collect]);
        for (again, lost) in redo.iter().zip(&undone) {
            assert_eq!((again.worker, &again.regions), (to, &lost.regions));
        }
        // A lost ragged last group (rows 6..7) replays with the step's
        // full-width pivot.
        let ragged = step0.iter().rfind(|op| op.kind == Collect).unwrap();
        assert_eq!(ragged.regions, [(6..7, 2..7)]);
        let redo = redispatch(std::slice::from_ref(ragged), to, 2);
        assert_eq!(redo[1].regions, [(6..7, 0..2), (6..7, 2..7)]);
    }
}
