//! One description of a run: the ordered port operations of the master.
//!
//! The paper's algorithms are *orders of port operations* over one chunk
//! exchange — ship a C chunk, stream `t` steps of a B row and an A column
//! against it, collect it back. A [`Schedule`] is that order as plain
//! data; the generators here are pure (they touch no session, no clock,
//! no worker state), and two executors walk the result:
//!
//! * the runtime's master executor (`crate::runtime`) sends each op's
//!   frames over a session, and answers a worker death by running
//!   [`Schedule::rounds`] again over the chunks that were lost;
//! * [`Replay`] feeds the same ops, one [`Decision`] per frame the
//!   runtime sends, to the simulator's one-port engine — which is how
//!   `replay_diff` compares the two executions of one object. Every
//!   simulated product goes through that one lowering (`lower`): the
//!   static orders as a `Replay`, the demand-driven suite algorithms
//!   ([`crate::algorithms`]) op by op, as their dispatch rule picks
//!   the next worker, and LU's trailing updates through a [`Lowering`]
//!   (`mwp_lu::schedule`), between the panel exchanges LU lowers itself.
//!
//! The generators keep every worker on one chunk at a time and every
//! chunk on one worker, in the order `SendC`, `Step 0..t`, `Collect`:
//! each C block accumulates its `t` updates in `k`-order inside a single
//! exchange, so any schedule over the same grid yields the same bits.

use crate::chunks::{algorithm1_order, Chunk};
use crate::selection::incremental::{run_selection_with_mu, SelectionRule};
use mwp_blockmat::Partition;
use mwp_platform::{Platform, WorkerId};
use mwp_sim::{Decision, MasterPolicy, SimTime, WorkerView};

/// One port operation of the chunk exchange, on chunk `chunk` of product
/// `job` (its index in the run's job list), resident on `worker`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortOp {
    /// Ship the chunk's C blocks: one frame per chunk row.
    SendC {
        /// Product the chunk belongs to.
        job: usize,
        /// Worker the chunk is resident on.
        worker: WorkerId,
        /// The chunk.
        chunk: Chunk,
    },
    /// Step `k` of the shared dimension: the B row stretch under the
    /// chunk, then the A column stretch beside it, which enables
    /// `height · width` block updates.
    Step {
        /// Product the chunk belongs to.
        job: usize,
        /// Worker the chunk is resident on.
        worker: WorkerId,
        /// The chunk.
        chunk: Chunk,
        /// Index along the shared dimension, `0..t`.
        k: usize,
    },
    /// Receive the finished chunk back: one frame per chunk row.
    Collect {
        /// Product the chunk belongs to.
        job: usize,
        /// Worker the chunk is resident on.
        worker: WorkerId,
        /// The chunk.
        chunk: Chunk,
    },
}

impl PortOp {
    /// What every op names: `(job, worker, chunk)`.
    pub fn target(&self) -> (usize, WorkerId, Chunk) {
        let (PortOp::SendC { job, worker, chunk }
        | PortOp::Step { job, worker, chunk, .. }
        | PortOp::Collect { job, worker, chunk }) = *self;
        (job, worker, chunk)
    }
}

/// An ordered list of port operations: what the master sends and
/// receives, to and from whom, in which order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schedule {
    /// The operations, in port order.
    pub ops: Vec<PortOp>,
}

/// The whole exchange of one chunk on one worker, back to back, with a
/// `Step` every `stride` blocks of the shared dimension: 1 on the
/// runtime's layout (every generator here), `µ` for Toledo's squares in
/// the simulated suite.
pub(crate) fn exchange(
    job: usize,
    worker: WorkerId,
    chunk: Chunk,
    t: usize,
    stride: usize,
) -> impl Iterator<Item = PortOp> {
    std::iter::once(PortOp::SendC { job, worker, chunk })
        .chain((0..t).step_by(stride).map(move |k| PortOp::Step { job, worker, chunk, k }))
        .chain(std::iter::once(PortOp::Collect { job, worker, chunk }))
}

/// The paper "assigns only full matrix column blocks": each worker owns a
/// group of `µ_i` consecutive block columns at a time and walks down it
/// in `µ_i`-row chunks. One shared column cursor hands out disjoint
/// groups, so chunks never overlap even with different `µ_i`.
struct ColumnGroups {
    r: usize,
    s: usize,
    next_col: usize,
    /// Per worker: `(j0, width, next row)` of the group it is walking.
    groups: Vec<Option<(usize, usize, usize)>>,
}

impl ColumnGroups {
    /// The next chunk of worker `wi`'s column group (opening a new group
    /// when the current one is walked), or `None` once no column is left
    /// for it.
    fn cut(&mut self, wi: usize, mu: usize) -> Option<Chunk> {
        if self.groups[wi].is_none_or(|(_, _, row)| row >= self.r) {
            if self.next_col >= self.s {
                self.groups[wi] = None;
                return None;
            }
            let width = mu.min(self.s - self.next_col);
            self.groups[wi] = Some((self.next_col, width, 0));
            self.next_col += width;
        }
        #[allow(clippy::expect_used, reason = "the branch above opened a group for `wi` or returned")]
        let (j0, width, row) = self.groups[wi].as_mut().expect("just ensured");
        let chunk = Chunk { i0: *row, j0: *j0, height: mu.min(self.r - *row), width: *width };
        *row += chunk.height;
        Some(chunk)
    }

    /// Whether any block of the grid is still uncut.
    fn any_left(&self) -> bool {
        self.next_col < self.s || self.groups.iter().flatten().any(|&(_, _, row)| row < self.r)
    }
}

impl Schedule {
    /// Algorithm 1's lock-step rounds: `chunks` (each with the job it
    /// belongs to) are dealt `workers.len()` at a time, one per worker in
    /// order, and each round ships C to each, streams `k = 0..t` to each,
    /// then collects from each. [`Schedule::algorithm1`] feeds it a whole
    /// run, the runtime's recovery the chunks a death lost. Panics if
    /// `workers` is empty.
    pub fn rounds(chunks: &[(usize, Chunk)], workers: &[WorkerId], t: usize) -> Schedule {
        let mut ops = Vec::with_capacity(chunks.len() * (t + 2));
        for round in chunks.chunks(workers.len()) {
            let seats = || workers.iter().zip(round).map(|(&worker, &(job, chunk))| (job, worker, chunk));
            ops.extend(seats().map(|(job, worker, chunk)| PortOp::SendC { job, worker, chunk }));
            for k in 0..t {
                ops.extend(seats().map(|(job, worker, chunk)| PortOp::Step { job, worker, chunk, k }));
            }
            ops.extend(seats().map(|(job, worker, chunk)| PortOp::Collect { job, worker, chunk }));
        }
        Schedule { ops }
    }

    /// Algorithm 1 (HoLM with the selected enrollment, ORROML with the
    /// whole fleet) for `jobs` same-shape products fused into one run:
    /// each job's [`algorithm1_order`] chunks — the list its solo run
    /// would use — jobs concatenated in order, dealt in
    /// [`Schedule::rounds`] over workers `0..enrolled`.
    pub fn algorithm1(problem: &Partition, mu: usize, enrolled: usize, jobs: usize) -> Schedule {
        let workers: Vec<WorkerId> = (0..enrolled).map(WorkerId).collect();
        Schedule::algorithm1_on(problem, mu, &workers, jobs)
    }

    /// [`Schedule::algorithm1`] with its slots on `workers`: the same
    /// chunks in the same rounds, slot `n` on `workers[n]`.
    pub(crate) fn algorithm1_on(problem: &Partition, mu: usize, workers: &[WorkerId], jobs: usize) -> Schedule {
        let tiles = algorithm1_order(problem, mu, workers.len());
        let chunks: Vec<(usize, Chunk)> =
            (0..jobs).flat_map(|job| tiles.iter().map(move |&ch| (job, ch))).collect();
        Schedule::rounds(&chunks, workers, problem.t)
    }

    /// The two-phase heterogeneous scheme of Section 6.2 for one product
    /// (`job` 0) with per-worker chunk sides `mu`. Phase 1 is the
    /// incremental selection ([`run_selection_with_mu`]); phase 2 replays
    /// its order: each selection of `P_i` is one step of `P_i`'s current
    /// chunk, a worker between chunks first cuts (and is shipped) the
    /// next chunk of its column group, and the step that completes a
    /// chunk collects it. The selection's column-based termination test
    /// may stop mid-chunk and short of the ragged tail of the grid, so
    /// the unfinished chunks are then streamed to completion and the
    /// uncut remainder is dealt round-robin, one whole exchange at a
    /// time, over the workers with `µ_i > 0`.
    pub fn two_phase(
        platform: &Platform,
        mu: &[usize],
        rule: SelectionRule,
        problem: &Partition,
    ) -> Schedule {
        let (r, s, t) = (problem.r, problem.s, problem.t);
        let trace = run_selection_with_mu(platform, mu, rule, r, s, t);
        let mut grid = ColumnGroups { r, s, next_col: 0, groups: vec![None; mu.len()] };
        // Per worker: its resident chunk and that chunk's next step.
        let mut active: Vec<Option<(Chunk, usize)>> = vec![None; mu.len()];
        let mut ops = Vec::new();

        for step in &trace.steps {
            let worker = step.worker;
            let wi = worker.index();
            let (chunk, k) = match active[wi] {
                Some(resident) => resident,
                None => {
                    // Grid exhausted: surplus selections are no-ops.
                    let Some(chunk) = grid.cut(wi, mu[wi]) else { continue };
                    ops.push(PortOp::SendC { job: 0, worker, chunk });
                    (chunk, 0)
                }
            };
            ops.push(PortOp::Step { job: 0, worker, chunk, k });
            active[wi] = (k + 1 < t).then_some((chunk, k + 1));
            if active[wi].is_none() {
                ops.push(PortOp::Collect { job: 0, worker, chunk });
            }
        }
        for (wi, resident) in active.into_iter().enumerate() {
            if let Some((chunk, k0)) = resident {
                // Its SendC and steps `0..k0` already went out.
                ops.extend(exchange(0, WorkerId(wi), chunk, t, 1).skip(1 + k0));
            }
        }
        let capable: Vec<usize> = (0..mu.len()).filter(|&i| mu[i] > 0).collect();
        let mut turn = capable.iter().cycle();
        while grid.any_left() {
            #[allow(clippy::expect_used, reason = "the selection before it required a worker with µ > 0, so the cycle never ends")]
            let &wi = turn.next().expect("the selection requires a worker with µ > 0");
            if let Some(chunk) = grid.cut(wi, mu[wi]) {
                ops.extend(exchange(0, WorkerId(wi), chunk, t, 1));
            }
        }
        Schedule { ops }
    }

    /// The single recovery rule of the runtime: the chunks a worker death
    /// `lost`, as [`Schedule::rounds`] over the `live` workers. A chunk
    /// larger than its adopter's `µ_i` (its owner had more memory) is
    /// split until it fits — correctness only needs each C block's steps
    /// to run in order within one exchange, which any sub-rectangle
    /// preserves. The pieces are seated in the order `lost` pops them,
    /// last first. LU deals its trailing updates through it too: one
    /// band of rows per worker, split to fit. Panics if `live` is empty.
    pub fn redispatch(lost: Vec<(usize, Chunk)>, live: &[WorkerId], mu: &[usize], t: usize) -> Schedule {
        Schedule::rounds(&Schedule::pieces(lost, live, mu), live, t)
    }

    /// The pieces [`Schedule::redispatch`] seats, in seating order: piece
    /// `n` goes to `live[n mod live.len()]`, and each fits its seat's side.
    pub fn pieces(mut lost: Vec<(usize, Chunk)>, live: &[WorkerId], mu: &[usize]) -> Vec<(usize, Chunk)> {
        let mut pieces = Vec::with_capacity(lost.len());
        while let Some((job, ch)) = lost.pop() {
            let m = mu[live[pieces.len() % live.len()].index()];
            if ch.width > m {
                lost.push((job, Chunk { j0: ch.j0 + m, width: ch.width - m, ..ch }));
                lost.push((job, Chunk { width: m, ..ch }));
            } else if ch.height > m {
                lost.push((job, Chunk { i0: ch.i0 + m, height: ch.height - m, ..ch }));
                lost.push((job, Chunk { height: m, ..ch }));
            } else {
                pieces.push((job, ch));
            }
        }
        pieces
    }

    /// What redoes the work the `undone` ops of a run lost, on the `live`
    /// workers whose memory holds a chunk at all: a chunk is lost when its
    /// `Collect` did not commit, and the lost chunks run again as
    /// [`Schedule::redispatch`]. `None` when no live worker holds a chunk.
    pub fn recover(undone: &[PortOp], live: &[WorkerId], mu: &[usize], t: usize) -> Option<Schedule> {
        let live = holding(live, mu);
        (!live.is_empty()).then(|| Schedule::redispatch(lost(undone).collect(), &live, mu, t))
    }

    /// The distinct workers the schedule names, ascending.
    pub fn workers(&self) -> Vec<WorkerId> {
        let mut workers: Vec<WorkerId> = self.ops.iter().map(|op| op.target().1).collect();
        workers.sort_unstable();
        workers.dedup();
        workers
    }
}

/// The `live` workers whose side `mu[i]` holds a chunk at all.
pub fn holding(live: &[WorkerId], mu: &[usize]) -> Vec<WorkerId> {
    live.iter().copied().filter(|w| mu[w.index()] > 0).collect()
}

/// The chunks the `undone` ops of a run lost, each with its job: those
/// whose `Collect` did not commit.
pub fn lost(undone: &[PortOp]) -> impl Iterator<Item = (usize, Chunk)> + '_ {
    undone.iter().filter_map(|op| match *op {
        PortOp::Collect { job, chunk, .. } => Some((job, chunk)),
        _ => None,
    })
}

/// The one lowering of a port operation into simulator frames — one
/// [`Decision`] per frame the runtime sends for `op`, appended to
/// `frames`. `SendC` is one send per chunk row; `Step` is the B stretch
/// under the chunk then the A stretch beside it, `depth` blocks of the
/// shared dimension deep (1 on the runtime's layout, up to `µ` for
/// Toledo's squares), the latter spawning the step's
/// `height · width · depth` updates; `Collect` is one receive per chunk
/// row.
///
/// Memory: the C chunk comes and goes row by row; everything else a
/// worker holds — its A and B working and prefetch buffers — is `fixed`,
/// charged with the first C row the worker is ever sent (which zeroes
/// it) and held to the end of the run.
pub(crate) fn lower(op: &PortOp, depth: usize, fixed: &mut i64, frames: &mut impl Extend<Decision>) {
    let (_, peer, chunk) = op.target();
    let (height, width, depth) = (chunk.height as u64, chunk.width as u64, depth as u64);
    match op {
        PortOp::SendC { .. } => frames.extend((0..height).map(|_| Decision::Send {
            to: peer,
            blocks: width,
            spawn_updates: 0,
            mem_delta: width as i64 + std::mem::take(fixed),
            label: "C row".into(),
        })),
        PortOp::Step { .. } => frames.extend([
            Decision::Send {
                to: peer,
                blocks: depth * width,
                spawn_updates: 0,
                mem_delta: 0,
                label: "B row".into(),
            },
            Decision::Send {
                to: peer,
                blocks: height * depth,
                spawn_updates: height * width * depth,
                mem_delta: 0,
                label: "A column".into(),
            },
        ]),
        PortOp::Collect { .. } => frames.extend((0..height).map(|_| Decision::Recv {
            from: peer,
            blocks: width,
            mem_delta: -(width as i64),
            label: "C row back".into(),
        })),
    }
}

/// The one lowering over a whole run: `lower` at depth 1, with each
/// worker's fixed buffers what the worker program's memory check counts
/// beside the resident C chunk — the B row of its widest chunk and
/// one A block in flight. (The program frees the B row between chunks;
/// holding it throughout bounds it from above.)
pub struct Lowering {
    fixed: Vec<i64>,
}

impl Lowering {
    /// The lowering of a run made of `ops` (and of whatever else the run
    /// interleaves with them, which holds no worker memory).
    pub fn new<'a>(ops: impl IntoIterator<Item = &'a PortOp>) -> Self {
        let mut fixed: Vec<i64> = Vec::new();
        for op in ops {
            let (_, worker, chunk) = op.target();
            if fixed.len() <= worker.index() {
                fixed.resize(worker.index() + 1, 0);
            }
            fixed[worker.index()] = fixed[worker.index()].max(chunk.width as i64 + 1);
        }
        Lowering { fixed }
    }

    /// Append `op`'s frames to `frames`.
    pub fn lower(&mut self, op: &PortOp, frames: &mut impl Extend<Decision>) {
        lower(op, 1, &mut self.fixed[op.target().1.index()], frames);
    }
}

/// A [`Schedule`] as a simulator policy: its ops through one [`Lowering`],
/// issued in order whatever the workers are doing — the engine re-derives
/// every wait from the one-port model.
pub struct Replay {
    frames: std::vec::IntoIter<Decision>,
}

impl Replay {
    /// Expand `schedule` into its frames.
    pub fn new(schedule: &Schedule) -> Self {
        let mut lowering = Lowering::new(&schedule.ops);
        let mut frames = Vec::new();
        for op in &schedule.ops {
            lowering.lower(op, &mut frames);
        }
        Replay { frames: frames.into_iter() }
    }

    /// The frames not yet issued, in port order.
    pub fn frames(&self) -> &[Decision] {
        self.frames.as_slice()
    }
}

impl MasterPolicy for Replay {
    fn next(&mut self, now: SimTime, workers: &[WorkerView]) -> Decision {
        MasterPolicy::next(&mut self.frames, now, workers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::heterogeneous::simulate_heterogeneous;
    use crate::algorithms::{simulate, AlgorithmKind};
    use crate::chunks::covers_exactly;
    use crate::layout::MemoryLayout;
    use mwp_platform::WorkerParams;
    use mwp_sim::Simulator;
    use proptest::prelude::*;

    /// The invariants every generator promises, checked op by op: each
    /// chunk's ops are `SendC, Step 0..t, Collect` on one worker, a worker
    /// holds one chunk at a time, no chunk exceeds its worker's `µ_i`, and
    /// the chunks of each job tile the C grid exactly once.
    fn check(schedule: &Schedule, problem: &Partition, mu: &[usize], jobs: usize) {
        // Per worker: the resident (job, chunk) and its next expected step.
        let mut resident: Vec<Option<((usize, Chunk), usize)>> = vec![None; mu.len()];
        let mut done: Vec<Vec<Chunk>> = vec![Vec::new(); jobs];
        for op in &schedule.ops {
            let (job, worker, chunk) = op.target();
            let seat = &mut resident[worker.index()];
            match op {
                PortOp::SendC { .. } => {
                    assert_eq!(*seat, None, "{worker} is shipped a chunk while holding one");
                    let side = mu[worker.index()];
                    assert!(chunk.height <= side && chunk.width <= side, "{chunk:?} > µ = {side}");
                    assert!(chunk.blocks() > 0);
                    *seat = Some(((job, chunk), 0));
                }
                PortOp::Step { k, .. } => {
                    assert_eq!(*seat, Some(((job, chunk), *k)), "step out of order on {worker}");
                    *seat = Some(((job, chunk), k + 1));
                }
                PortOp::Collect { .. } => {
                    assert_eq!(*seat, Some(((job, chunk), problem.t)), "early collect on {worker}");
                    *seat = None;
                    done[job].push(chunk);
                }
            }
        }
        assert!(resident.iter().all(Option::is_none), "a chunk is never collected");
        for chunks in &done {
            assert!(covers_exactly(problem, chunks));
        }
    }

    /// `Replay` of `schedule` on `platform`: within every worker's memory,
    /// and every block update performed.
    fn replay(schedule: &Schedule, platform: &Platform) -> mwp_sim::SimReport {
        Simulator::new(platform.clone())
            .without_trace()
            .run(&mut Replay::new(schedule))
            .unwrap_or_else(|e| panic!("replay broke the memory model: {e}"))
    }

    /// A worker whose memory gives µ = 0 (too small for any chunk), 1, 2,
    /// 6, 10 or 18 (larger than any `r`, `s` drawn here).
    fn worker() -> impl Strategy<Value = WorkerParams> {
        (1u32..6, 1u32..6, 0usize..6)
            .prop_map(|(c, w, m)| WorkerParams::new(c as f64, w as f64, [3, 5, 12, 60, 140, 396][m]))
    }

    proptest! {
        #[test]
        fn rounds_tile_the_grid_in_exchange_order(
            (r, s, t) in (1usize..14, 1usize..14, 1usize..5),
            p in 1usize..6,
            mu in 1usize..20,
            jobs in 1usize..4,
        ) {
            let problem = Partition::from_blocks(r, s, t, 4);
            let schedule = Schedule::algorithm1(&problem, mu, p, jobs);
            check(&schedule, &problem, &vec![mu; p], jobs);
            let platform = Platform::homogeneous(p, 1.0, 1.0, mu * mu + 4 * mu).unwrap();
            prop_assert_eq!(replay(&schedule, &platform).total_updates(), (jobs * r * s * t) as u64);
        }

        #[test]
        fn two_phase_tiles_the_grid_in_exchange_order(
            (r, s, t) in (1usize..14, 1usize..14, 1usize..5),
            fleet in (worker(), worker(), worker(), worker()),
            extra in 0usize..5,
            rule in 0usize..2,
        ) {
            // One worker with µ = 6, then up to four drawn ones.
            let fleet = [fleet.0, fleet.1, fleet.2, fleet.3];
            let mut workers = vec![WorkerParams::new(2.0, 2.0, 60)];
            workers.extend(&fleet[..extra]);
            let platform = Platform::new(workers).unwrap();
            let mu: Vec<usize> =
                platform.workers().iter().map(|w| MemoryLayout::MaxReuseOverlapped.mu(w.m)).collect();
            let rule = [SelectionRule::Global, SelectionRule::Local][rule];
            let problem = Partition::from_blocks(r, s, t, 4);
            let schedule = Schedule::two_phase(&platform, &mu, rule, &problem);
            check(&schedule, &problem, &mu, 1);
            prop_assert_eq!(replay(&schedule, &platform).total_updates(), (r * s * t) as u64);
            let simulated = simulate_heterogeneous(&platform, &problem, rule).unwrap();
            prop_assert_eq!(simulated.total_updates(), (r * s * t) as u64);
        }

        #[test]
        fn redispatch_splits_lost_chunks_to_fit_their_adopters(
            (r, s, t) in (1usize..14, 1usize..14, 1usize..4),
            sides in (1usize..8, 1usize..8, 1usize..8),
            adopters in 1usize..4,
            big in 1usize..20,
        ) {
            // Every chunk of a µ = `big` tiling is lost; the adopters are
            // smaller (and unequal).
            let sides = [sides.0, sides.1, sides.2][..adopters].to_vec();
            let problem = Partition::from_blocks(r, s, t, 4);
            let lost: Vec<_> = crate::chunks::tile(&problem, big).into_iter().map(|ch| (0, ch)).collect();
            let live: Vec<_> = (0..sides.len()).map(WorkerId).collect();
            check(&Schedule::redispatch(lost, &live, &sides, t), &problem, &sides, 1);
        }
    }

    /// Three executions of one schedule are one program: the simulator's
    /// own entry point, `Replay` of the generated schedule, and the real
    /// run move the same blocks, and the first two take the same time.
    #[test]
    fn simulator_replay_and_runtime_agree_on_volume() {
        use crate::runtime::{run_all_workers, run_heterogeneous, run_holm, select_enrollment};
        use mwp_blockmat::fill::random_matrix;

        let q = 2;
        let inputs = |r, s, t| (random_matrix(r, t, q, 1), random_matrix(t, s, q, 2), random_matrix(r, s, q, 3));

        // The `tests/cross_validation.rs` platforms, and `serve_mix_tcp`'s
        // 4 × 4 × 4 jobs (one 4 × 4 chunk on one worker).
        for (platform, (r, t, s)) in [
            (Platform::homogeneous(8, 4.0, 0.25, 60).unwrap(), (12, 24, 12)),
            (Platform::homogeneous(3, 2.0, 1.0, 60).unwrap(), (6, 5, 12)),
            (Platform::homogeneous(4, 1.0, 1.0, 140).unwrap(), (20, 40, 20)),
            (Platform::homogeneous(2, 1.0, 1.0, 60).unwrap(), (4, 4, 4)),
        ] {
            let problem = Partition::from_blocks(r, s, t, q);
            for kind in [AlgorithmKind::HoLM, AlgorithmKind::ORROML] {
                let select = kind == AlgorithmKind::HoLM;
                let (enrolled, mu) = select_enrollment(&platform, r, s, select).unwrap();
                let replayed = replay(&Schedule::algorithm1(&problem, mu, enrolled, 1), &platform);
                let simulated = simulate(kind, &platform, &problem).unwrap();
                assert_eq!(simulated.makespan, replayed.makespan, "{kind:?}");
                let replayed = replayed.blocks_sent + replayed.blocks_received;
                assert_eq!(simulated.blocks_sent + simulated.blocks_received, replayed, "{kind:?}");

                let (a, b, c0) = inputs(r, s, t);
                let run = if select { run_holm } else { run_all_workers };
                let real = run(&platform, &a, &b, c0, 0.0).unwrap();
                assert_eq!((real.workers_used, real.chunk_side), (enrolled, mu), "{kind:?}");
                assert_eq!(real.blocks_moved, replayed, "{kind:?}");
            }
        }

        // The two-phase scheme on the Table 2 platform: the simulated
        // product is the one the runtime computes, not whole µ_i² squares.
        let table2 = Platform::new(vec![
            WorkerParams::new(2.0, 2.0, 60),
            WorkerParams::new(3.0, 3.0, 396),
            WorkerParams::new(5.0, 1.0, 140),
        ])
        .unwrap();
        let (r, t, s) = (20, 6, 25);
        let problem = Partition::from_blocks(r, s, t, q);
        let simulated = simulate_heterogeneous(&table2, &problem, SelectionRule::Global).unwrap();
        assert_eq!(simulated.total_updates(), (r * s * t) as u64);
        let (a, b, c0) = inputs(r, s, t);
        let real = run_heterogeneous(&table2, &a, &b, c0, SelectionRule::Global, 0.0).unwrap();
        assert_eq!(simulated.blocks_sent + simulated.blocks_received, real.blocks_moved);
    }

    /// What a worker holds under `Replay` is never less than what the
    /// worker program's memory check counts at its peak: the resident
    /// chunk, its B row and one A block in flight.
    #[test]
    fn replay_charges_the_chunk_its_b_row_and_an_a_block() {
        // One 3 × 3 chunk: 9 + 3 + 1 blocks.
        let schedule = Schedule::algorithm1(&Partition::from_blocks(3, 3, 2, 4), 3, 1, 1);
        let run = |m| {
            let platform = Platform::homogeneous(1, 1.0, 1.0, m).unwrap();
            Simulator::new(platform).without_trace().run(&mut Replay::new(&schedule))
        };
        assert!(run(13).is_ok());
        assert!(matches!(run(12), Err(mwp_sim::SimError::MemoryOverflow { held: 13, .. })));
    }
}
